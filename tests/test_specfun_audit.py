"""kummer_u against mpmath.hyperu and kummer_m against mpmath.hyp1f1: the
accuracy contracts in their docstrings.

One seeded point cloud per branch of kummer_u and per branch edge, each held
to the documented 1e-8 relative error.  The clouds span the audited box
(a in [-6.3, 6.7], b in [1, 6] after the b < 1 lift, z in [1e-3, 200]),
widened to a in [6.7, 40] at 1.5 < z <= 200 and to b in [6, 40] at
8 < z <= 200.  Most draw a at least 0.02 off an integer, since U has a zero
next to each a = -n; three probe a or b just off an integer, on either side.
The derivative dU/dz of ``kummer_u_pair`` is held to the same 1e-8 on one
cloud per route and on a cloud next to a = 0, relative to dU/dz itself; next
to a = -n it is held relative to |U| + |dU/dz| instead.  M is held to 1e-10
relative on one cloud for each sign of z, and dM/dz to 1e-10 of |M| + |dM/dz|.
"""

import functools
import math
import random

import pytest

from fluxtube.specfun import _rgamma_diff, kummer_m_pair, kummer_u, kummer_u_pair

mpmath = pytest.importorskip("mpmath")

TOL = 1e-8
POINTS = 60
A_LO, A_HI = -6.3, 6.7
A_LARGE, B_LARGE = 40.0, 40.0  # the widened box
A_SERIES = 1.5  # the clouds below Z_SMALL split a here
Z_SERIES = 1.5  # kummer_u's one threshold: the series below, Miller's recurrence above
Z_SMALL = 8.0  # the clouds split z here: the large-b box starts above it
Z_MID = 50.0  # and here: the mid-z clouds end, the large-z clouds start


@functools.lru_cache(maxsize=None)
def hyperu_ref(a, b, z):
    """U from mpmath at 30 digits; the U and dU/dz audits of a cloud draw the same points."""
    with mpmath.workdps(30):
        return float(mpmath.hyperu(a, b, z))


def rel_err(a, b, z):
    ref = hyperu_ref(a, b, z)
    return abs(kummer_u(a, b, z) - ref) / abs(ref)


def deriv_err(a, b, z, scale_with_u=False):
    """Error of dU/dz = -a U(a+1, b+1, z), relative to |dU/dz| or to |U| + |dU/dz|."""
    ref_u = hyperu_ref(a, b, z)
    with mpmath.workdps(30):
        ref = float(-a * mpmath.hyperu(a + 1, b + 1, z))
    scale = abs(ref) + abs(ref_u) if scale_with_u else abs(ref)
    err = abs(kummer_u_pair(a, b, z)[1] - ref)
    return err / scale if scale else err


def off_int(rng, lo, hi, gap=0.02):
    """Uniform on [lo, hi], redrawn until at least ``gap`` from an integer."""
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= gap:
            return x


def box(a_hi, b_of, z_of, a_lo=A_LO):
    """Cloud with a at least 0.02 off an integer in [a_lo, a_hi]."""
    return lambda rng: (off_int(rng, a_lo, a_hi), b_of(rng), z_of(rng))


def b_off_int(rng):
    return off_int(rng, 1, 6)


def b_large(rng):
    return off_int(rng, 6, B_LARGE)


def b_int(rng):
    return float(rng.randint(1, 6))


def z_in(lo, hi):
    return lambda rng: rng.uniform(lo, hi)


def z_at(z):
    return lambda rng: z


def polynomial(rng):
    return -float(rng.randint(0, 6)), rng.uniform(1, 6), rng.uniform(1e-3, 200)


def just_off_lattice(rng):
    # a non-polynomial branch runs at tiny 1/Gamma(a)
    step = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-8, -5)
    return -float(rng.randint(0, 6)) + step, b_off_int(rng), rng.uniform(1e-3, 200)


def a_at_lattice(rng):
    # only an exact -n takes the polynomial branch; U is continuous through it
    step = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-16, -9)
    return -float(rng.randint(0, 6)) + step, b_off_int(rng), rng.uniform(1e-3, 200)


def b_near_int(rng):
    # the two Kummer series of the small-z branch pair up as b nears an integer
    step = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-15, -3)
    return off_int(rng, A_LO, A_HI), rng.randint(1, 6) + step, rng.uniform(1e-3, Z_SMALL)


def next_to_a_zero(rng):
    # dU/dz = -a U(a+1, b+1, z) carries the factor a on every route
    a = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-16, -6)
    return a, b_off_int(rng), rng.uniform(1e-3, 200)


def lifted_b_below_one(rng):
    # U(a, b, z) = z^{1-b} U(a-b+1, 2-b, z): draw the lifted a, then undo the lift
    b = off_int(rng, -2, 1)
    return off_int(rng, A_LO, A_HI) + b - 1.0, b, rng.uniform(1e-3, 200)


ABOVE_1_5 = math.nextafter(Z_SERIES, math.inf)
ABOVE_8 = math.nextafter(Z_SMALL, math.inf)
ABOVE_50 = math.nextafter(Z_MID, math.inf)
CLOUDS = {
    "polynomial": polynomial,
    "just_off_lattice": just_off_lattice,
    "a_at_lattice": a_at_lattice,
    "connection_a_le_1.5": box(A_SERIES, b_off_int, z_in(1e-3, Z_SMALL)),
    "connection_a_gt_1.5": box(A_HI, b_off_int, z_in(A_SERIES, Z_SMALL), a_lo=A_SERIES),
    "connection_z_le_1.5": box(A_HI, b_off_int, z_in(1e-3, 1.5)),
    "b_near_integer": b_near_int,
    "log_series_integer_b": box(A_HI, b_int, z_in(1e-3, Z_SMALL)),
    "edge_z_1.5": box(A_HI, b_off_int, z_at(Z_SERIES)),
    "edge_above_z_1.5": box(A_LARGE, b_off_int, z_at(ABOVE_1_5)),
    "integer_b_large_z": box(A_HI, b_int, z_in(Z_SMALL, 200)),
    "edge_z_8": box(A_HI, b_off_int, z_at(Z_SMALL)),
    "edge_above_z_8": box(A_HI, b_off_int, z_at(ABOVE_8)),
    "laplace": box(A_HI, b_off_int, z_in(Z_SMALL, Z_MID)),  # Miller; the key seeds the draws
    "large_b_mid_z": box(A_HI, b_large, z_in(Z_SMALL, Z_MID)),
    "large_a_mid_z": box(A_LARGE, b_off_int, z_in(Z_SMALL, Z_MID), a_lo=A_HI),
    "large_a_gap": box(A_LARGE, b_off_int, z_in(A_SERIES, Z_SMALL), a_lo=A_HI),
    "edge_z_50": box(A_HI, b_off_int, z_at(Z_MID)),
    "edge_above_z_50": box(A_HI, b_off_int, z_at(ABOVE_50)),
    "asymptotic": box(A_HI, b_off_int, z_in(Z_MID, 200)),  # Miller; the key seeds the draws
    "large_b_large_z": box(A_HI, b_large, z_in(Z_MID, 200)),
    "large_a_large_z": box(A_LARGE, b_off_int, z_in(Z_MID, 200), a_lo=A_HI),
    "b_below_one": lifted_b_below_one,
    "next_to_a_zero": next_to_a_zero,
}


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_kummer_u_meets_documented_accuracy(name):
    rng = random.Random(f"kummer_u audit {name}")
    points = [CLOUDS[name](rng) for _ in range(POINTS)]
    worst, where = max((rel_err(*p), p) for p in points)
    assert worst <= TOL, f"{name}: relative error {worst:.2e} at (a, b, z) = {where}"


#: One cloud per route of kummer_u_pair, by the route that gives the derivative,
#: plus the edge between the series and Miller's recurrence, and a next to 0.
DERIV_CLOUDS = {
    "polynomial": "polynomial",
    "series_noninteger_b": "connection_a_le_1.5",
    "series_integer_b": "log_series_integer_b",
    "series_b_near_integer": "b_near_integer",
    "series_edge_z_1.5": "edge_z_1.5",
    "miller_edge_above_z_1.5": "edge_above_z_1.5",
    "miller_small_z": "connection_a_gt_1.5",
    "miller_small_z_large_a": "large_a_gap",
    "miller": "laplace",
    "miller_large_b": "large_b_mid_z",
    "miller_large_z": "asymptotic",
    "miller_large_z_large_a": "large_a_large_z",
    "miller_large_z_large_b": "large_b_large_z",
    "b_below_one": "b_below_one",
    "next_to_a_zero": "next_to_a_zero",
}


@pytest.mark.parametrize("route", sorted(DERIV_CLOUDS))
def test_kummer_u_pair_derivative_meets_documented_accuracy(route):
    name = DERIV_CLOUDS[route]
    rng = random.Random(f"kummer_u audit {name}")
    points = [CLOUDS[name](rng) for _ in range(POINTS)]
    worst, where = max((deriv_err(*p), p) for p in points)
    assert worst <= TOL, f"{route}: dU/dz relative error {worst:.2e} at (a, b, z) = {where}"


@pytest.mark.parametrize("name", ["just_off_lattice", "a_at_lattice"])
def test_kummer_u_pair_derivative_next_to_the_lattice(name):
    # dU/dz = -a U(a+1, b+1, z) vanishes at a = 0, where U(a, b) - U(a, b+1)
    # on the recurrence route cancels; what the matching derivative sees is
    # its error next to U
    rng = random.Random(f"kummer_u audit {name}")
    points = [CLOUDS[name](rng) for _ in range(POINTS)]
    worst, where = max((deriv_err(*p, scale_with_u=True), p) for p in points)
    assert worst <= 1e-13, f"{name}: dU/dz error {worst:.2e} of |U| + |dU/dz| at {where}"


@pytest.mark.xfail(strict=True, reason="Miller's steps in b lose digits next to a = -n at "
                   "large b: 1.06e-3 relative, outside the documented box")
def test_recurrence_route_next_to_the_lattice_at_large_b():
    assert rel_err(-1.0 - 1e-15, 73.456, 22.172) <= TOL


def test_derivative_next_to_a_zero_on_the_recurrence_route():
    # dU/dz = -a U(a+1, b+1, z) vanishes with a: read as U(a, b) - U(a, b+1) it would cancel
    a = 2.4e-16
    with mpmath.workdps(40):
        ref = float(-a * mpmath.hyperu(mpmath.mpf(a) + 1, 3.82, 19.55))
    assert kummer_u_pair(a, 2.82, 19.55)[1] == pytest.approx(ref, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("a", [0.6, 0.8, 1.0, 1.2, 1.35, 1.45])
@pytest.mark.parametrize("z", [6.0, 7.0, 8.0])
def test_full_digits_next_to_z_8(a, z):
    # 1.5 < z <= 8 runs Miller's recurrence: the small-z series would keep
    # only about 1e-9 here
    for b in (1.0, 1.5, 2.0, 2.5, 3.0):
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, z))
            dref = float(-a * mpmath.hyperu(a + 1, b + 1, z))
        u, du = kummer_u_pair(a, b, z)
        assert u == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert du == pytest.approx(dref, rel=1e-12, abs=0.0)


def test_recurrence_route_at_the_edge_of_the_large_b_box():
    # b in [6, 40] at 8 < z <= 50 holds 1e-8 down to |a + n| = 1e-6 (docstring box)
    with mpmath.workdps(50):
        ref = float(mpmath.hyperu(-6.000001, 40.0, 9.0))
    assert abs(kummer_u(-6.000001, 40.0, 9.0) - ref) <= TOL * abs(ref)


def test_large_a_gap_spares_some_points():
    assert rel_err(3.0, 2.5, 5.0) <= TOL


def test_large_a_gap_witness():
    # a > 1.5 with 1.5 < z <= 8: summed at a itself, the two Kummer series
    # cancel to 4e-3 relative error here
    assert rel_err(6.7, 1.25, 7.9) <= TOL


def test_near_integer_b_gap_witness():
    # b just off an integer: unless their terms are paired, the two Kummer
    # series cancel to noise here
    assert max(rel_err(1.35, 1.0 + 1.6e-8, 7.8), rel_err(4.513, 1.0 + 4.66e-7, 7.593)) <= TOL


@pytest.mark.parametrize("a, b, z", [(1e-13, 1.5, 20.0), (1e-300, 1.5, 20.0),
                                     (-2.0 + 1e-15, 3.0, 30.0)])
def test_laplace_route_next_to_the_lattice(a, b, z):
    # 8 < z <= 50: no step of Miller's recurrence divides by a factor that
    # vanishes as a nears 0 or -n
    assert rel_err(a, b, z) <= 1e-13


@pytest.mark.parametrize("a, b, z", [(-60.3, 2.5, 10.0), (-60.3, 2.5, 60.0),
                                     (-150.5, 1.5, 20.0)])
def test_recurrence_route_far_below_zero(a, b, z):
    # Miller's sum is normalized at a - ceil(a) in (-1, 0]; at a itself it would cancel
    assert rel_err(a, b, z) <= 1e-12


@pytest.mark.parametrize("x", [-5.5, -3.0 + 1e-12, -1e-300, 0.3, 1.0, 7.7, 12.5])
def test_rgamma_difference_quotient(x):
    # (1/Gamma(x - h) - 1/Gamma(x)) / h, and its limit psi(x)/Gamma(x) at h = 0
    with mpmath.workdps(40):
        X = mpmath.mpf(x)
        slope = float(mpmath.digamma(X) * mpmath.rgamma(X))
        for h in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-3, -1e-3, 0.5, -0.5, 1.0, -1.0):
            ref = float((mpmath.rgamma(X - h) - mpmath.rgamma(X)) / h) if h else slope
            assert _rgamma_diff(x, h) == pytest.approx(ref, rel=1e-13, abs=1e-13 * abs(slope))


M_TOL = 1e-10
M_BANDS = {"positive_z": (0.0, 400.0), "negative_z": (-400.0, 0.0)}


@pytest.mark.parametrize("band", sorted(M_BANDS))
def test_kummer_m_meets_documented_accuracy(band):
    # M to 1e-10 relative; dM/dz = (a/b) M(a+1, b+1, z) vanishes with a, so it
    # is held to 1e-10 of |M| + |dM/dz|
    lo, hi = M_BANDS[band]
    rng = random.Random(f"kummer_m audit {band}")
    worst_m = worst_dm = (0.0, ())
    for _ in range(POINTS):
        a, b, z = rng.uniform(A_LO, A_HI), rng.uniform(1, 7), rng.uniform(lo, hi)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp1f1(a, b, z))
            dref = float(a / mpmath.mpf(b) * mpmath.hyp1f1(a + 1, b + 1, z))
        m, dm = kummer_m_pair(a, b, z)
        worst_m = max(worst_m, (abs(m - ref) / abs(ref), (a, b, z)))
        worst_dm = max(worst_dm, (abs(dm - dref) / (abs(ref) + abs(dref)), (a, b, z)))
    assert worst_m[0] <= M_TOL, f"{band}: M relative error {worst_m[0]:.2e} at {worst_m[1]}"
    assert worst_dm[0] <= M_TOL, \
        f"{band}: dM/dz error {worst_dm[0]:.2e} of |M| + |dM/dz| at {worst_dm[1]}"
