"""Special-function layer: values frozen from a 40-digit mpmath run.

Reference values were produced once with

    mpmath.mp.dps = 40; mpmath.hyperu(a, b, z) / hyp1f1 / digamma / gamma

and pasted here, so the tests never import the library they are checking
against at runtime.  The U grid is chosen to force every internal branch:
the small-z series (z <= 1.5) at non-integer and at integer b, Miller's
recurrence in a at 1.5 < z <= 50 (a > 0 and a <= 0) and at z > 50, and the
b < 1 lift.  The U grid with dU/dz = -a U(a+1, b+1, z) adds
the polynomial branch, large a at 1.5 < z <= 8, and points just above the
route boundary z = 1.5.  The M grid with
dM/dz runs the direct sum and both routes to the Kummer transformation
(z < -30, and a cancelling sum at -30 <= z < 0).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fluxtube import specfun
from fluxtube.regularization import TubeModel, find_xi_roots
from fluxtube.specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    digamma,
    gamma_sign,
    gammafn,
    gauss_laguerre,
    kummer_m,
    kummer_m_pair,
    kummer_u,
    kummer_u_pair,
    laguerre,
    laguerre_deriv,
    lgamma,
    rgamma,
)

# (a, b, z, U(a,b,z)) — branch noted per block
U_REFERENCE = [
    # z <= 8, non-integer b: the small-z series at z <= 1.5, Miller's recurrence above
    (0.3, 1.5, 0.5, 1.3237376507795524),
    (-0.7, 2.3, 3.0, 1.1004113327870426),
    (1.7, 1.25, 7.5, 0.024936630643326486),
    (0.37, 1.5, 0.0001, 74.162472433989319),
    (-0.6, 2.2, 0.001, -996.11044051028896),
    (2.4, 3.8, 0.02, 77490.567870763976),
    # z <= 8, integer b: the log series (the same series at eps = 0) at z <= 1.5,
    # Miller's recurrence above
    (0.3, 1.0, 0.5, 1.1205751915782955),
    (0.45, 2.0, 2.0, 0.81255921696567776),
    (1.2, 3.0, 5.0, 0.17178557580068248),
    (-0.8, 2.0, 1.0, -0.54894800404223012),
    (0.9, 1.0, 0.001, 6.0965157289159037),
    (1.3, 4.0, 6.0, 0.13782007760454185),
    # 8 < z <= 50, a > 0: Miller's recurrence in a
    (0.3, 1.5, 12.0, 0.47679003343119821),
    (1.7, 3.0, 20.0, 0.006291013267164727),
    (2.5, 2.25, 45.0, 6.8907559800515926e-5),
    (0.05, 1.0, 10.0, 0.89103899364676562),
    # 8 < z <= 50, a <= 0: the same recurrence, read below a = 0
    (-0.7, 1.5, 12.0, 5.2945648791864012),
    (-2.3, 2.0, 30.0, 1896.4309263117118),
    (-1.5, 3.5, 15.0, 36.045210505928061),
    (-4.6, 1.0, 9.0, -1280.9025463670534),
    # z > 50: the same recurrence
    (0.3, 1.5, 80.0, 0.26877973570664942),
    (-0.7, 2.0, 120.0, 28.254968014183879),
    (1.9, 3.2, 400.0, 1.1394699750267783e-5),
    (3.1, 1.0, 55.0, 3.4155441386092892e-6),
    # b < 1: lift U(a,b,z) = z^{1-b} U(a-b+1, 2-b, z)
    (0.3, 0.5, 2.0, 0.7452924078740467),
    (-1.7, -0.5, 4.0, 9.5983503118055643),
    (0.8, 0.25, 30.0, 0.06327940368227435),
]

# (a, b, z, U(a,b,z), dU/dz = -a U(a+1,b+1,z)) — route noted per block
U_PAIR_REFERENCE = [
    # a = -n exactly: the polynomial branch; at a = 0, U = 1 and dU/dz = 0
    (0.0, 2.5, 3.0, 1.0, 0.0),
    (-3.0, 1.7, 4.2, -12.825000000000002, -10.349999999999999),
    (-2.0, 3.0, 60.0, 3132.0, 112.0),
    # z <= 8, non-integer b: the small-z series at z <= 1.5, Miller's recurrence above
    (0.3, 1.5, 0.5, 1.3237376507795524, -0.92864910474438357),
    (-0.7, 2.3, 3.0, 1.1004113327870426, 0.62596383222374022),
    (2.4, 3.8, 0.02, 77490.567870763976, -1.0831769522845043e+7),
    (0.37, 1.5, 0.0001, 74.162472433989319, -368725.3072382175),
    # z <= 8, integer b: the same series at eps = 0 at z <= 1.5, Miller's recurrence above
    (0.3, 1.0, 0.5, 1.1205751915782955, -0.53713329809040571),
    (1.2, 3.0, 5.0, 0.17178557580068248, -0.046426785965016218),
    (-0.8, 2.0, 1.0, -0.54894800404223012, 1.2141305239051332),
    # large a at 1.5 < z <= 8: Miller's recurrence
    (3.3, 1.7, 4.0, 0.0027556287446949919, -0.0016500636917381248),
    (20.5, 2.5, 3.0, 5.1604733504963859e-24, -1.253283065839607e-23),
    (35.68, 4.95, 1.6, 1.3282246988768835e-43, -7.4733383690688604e-43),
    # z = nextafter(1.5, inf), the first z of Miller's recurrence
    (-2.5, 2.3, 1.5000000000000002, 4.5345041133030871, -2.7765057603421966),
    (0.7, 1.4, 1.5000000000000002, 0.68481980486177933, -0.28763009493657137),
    (6.3, 3.7, 1.5000000000000002, 0.00049106211396365343, -0.0012527553501518938),
    (35.68, 4.95, 1.5000000000000002, 2.3609632626000648e-43, -1.3888979044499815e-42),
    # 8 < z <= 50: the same recurrence
    (0.3, 1.5, 12.0, 0.47679003343119821, -0.012102709844121774),
    (1.7, 3.0, 20.0, 0.006291013267164727, -5.4192287341953624e-4),
    (-2.3, 2.0, 30.0, 1896.4309263117118, 164.36422826421399),
    (14.6, 2.0, 37.0, 2.240085936204746e-25, -6.9206280910793663e-26),
    # z > 50: the same recurrence
    (0.3, 1.5, 80.0, 0.26877973570664942, -0.0010104100253318446),
    (-0.7, 2.0, 120.0, 28.254968014183879, 0.1671831339802805),
    (1.9, 3.2, 400.0, 1.1394699750267783e-5, -5.4165155779767751e-8),
    # b < 1: the lift
    (0.3, 0.5, 2.0, 0.7452924078740467, -0.087237463028526574),
    (-1.7, -0.5, 4.0, 9.5983503118055643, 4.3333358519941661),
    (0.8, 0.25, 30.0, 0.06327940368227435, -0.0016087146139813763),
]

M_REFERENCE = [
    (0.3, 1.5, 2.5, 2.1316621499884543),
    (-1.2, 2.25, 10.0, 2.6441933921235848),
    (0.7, 1.0, 30.0, 2976766495176.9905),
    (2.3, 3.1, 150.0, 4.7344789400084045e+63),
    (0.3, 1.5, -5.0, 0.58708784504288583),
    (1.1, 2.0, -40.0, 0.016223190464747555),
    (-0.4, 1.7, -12.0, 2.431808551002363),
    (0.25, 0.75, -300.0, 0.16619196875214264),
]

# (a, b, z, M(a,b,z), dM/dz = (a/b) M(a+1,b+1,z))
M_PAIR_REFERENCE = [
    (0.3, 1.5, -60.0, 0.28231808021239614, 0.0014067957349795165),
    (0.3, 1.5, -35.0, 0.33162352452339086, 0.0028257013017103928),
    (0.3, 1.5, -20.0, 0.39171657222909777, 0.0058133646118324118),  # cancelling sum
    (0.3, 1.5, -5.0, 0.58708784504288583, 0.033026877208026024),
    (0.3, 1.5, 0.0, 1.0, 0.19999999999999999),
    (0.3, 1.5, 0.01, 1.0020052114113914, 0.20104342551222602),
    (0.3, 1.5, 3.0, 2.673255970738212, 1.2837764296858307),
    (0.3, 1.5, 40.0, 851980628001093.27, 825937556331870.14),
    (0.3, 1.5, 200.0, 3.725149901768538e+83, 3.7027196154895582e+83),
    (-1.2, 2.25, -60.0, 51.408533544660696, -0.98795981065703497),
    (-1.2, 2.25, -35.0, 27.827818193618947, -0.89199724176697118),
    (-1.2, 2.25, -20.0, 15.053226907511561, -0.80543661985278787),
    (-1.2, 2.25, -5.0, 3.9862505310402199, -0.64827551827943702),
    (-1.2, 2.25, 0.0, 1.0, -0.53333333333333331),
    (-1.2, 2.25, 0.01, 0.9946683087228542, -0.53300481895276082),
    (-1.2, 2.25, 3.0, -0.41476948332399609, -0.39293223642766822),
    (-1.2, 2.25, 40.0, 201184974426.59097, 182671862716.84673),
    (-1.2, 2.25, 200.0, 2.0207397862064281e+78, 1.9854852489901548e+78),
]

DIGAMMA_REFERENCE = [
    (0.1, -10.423754940411076),
    (0.5, -1.9635100260214235),
    (1.0, -0.57721566490153286),
    (3.7, 1.1671535393615114),
    (10.2, 2.2725679048451721),
    (47.5, 3.8501664624463935),
    (-0.3, 2.1133097796353989),
    (-5.7, -0.45687230493238279),
    (-20.25, 6.1742356336144838),
    # next to a pole, on either side
    (-4.0 + 1e-12, -999911107318.76386457),
    (-4.0 - 1e-12, 999911107321.77609991),
]

LGAMMA_REFERENCE = [
    (0.5, 0.57236494292470009),
    (1.0, 0.0),
    (5.0, 3.1780538303479456),
    (-2.5, -0.056243716497674051),
    (12.3, 18.238983407092244),
]


@pytest.mark.parametrize("a,b,z,ref", U_REFERENCE)
def test_kummer_u_reference_grid(a, b, z, ref):
    assert kummer_u(a, b, z) == pytest.approx(ref, rel=1e-8)
    assert kummer_u(a, b, z) == kummer_u_pair(a, b, z)[0]


@pytest.mark.parametrize("a,b,z,ref,dref", U_PAIR_REFERENCE)
def test_kummer_u_pair_reference_grid(a, b, z, ref, dref):
    u, du = kummer_u_pair(a, b, z)
    assert u == pytest.approx(ref, rel=1e-12)
    assert du == pytest.approx(dref, rel=1e-12)
    assert kummer_u(a, b, z) == u


@pytest.mark.parametrize("a,b,z,ref", M_REFERENCE)
def test_kummer_m_reference_grid(a, b, z, ref):
    assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-12)
    assert kummer_m(a, b, z) == kummer_m_pair(a, b, z)[0]


@pytest.mark.parametrize("a,b,z,ref,dref", M_PAIR_REFERENCE)
def test_kummer_m_pair_reference_grid(a, b, z, ref, dref):
    m, dm = kummer_m_pair(a, b, z)
    assert m == pytest.approx(ref, rel=1e-12)
    assert dm == pytest.approx(dref, rel=1e-12)
    assert kummer_m(a, b, z) == m


@pytest.mark.parametrize("x,ref", DIGAMMA_REFERENCE)
def test_digamma_reference_grid(x, ref):
    assert digamma(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("x,ref", LGAMMA_REFERENCE)
def test_lgamma_reference_grid(x, ref):
    assert lgamma(x) == pytest.approx(ref, abs=1e-12, rel=1e-13)


def test_kummer_m_at_zero_is_one():
    assert kummer_m(0.7, 1.3, 0.0) == 1.0


def test_kummer_m_closed_form_ratio():
    # M(1, 2, z) = (e^z - 1)/z
    for z in (0.3, 2.0, 11.0, -7.0):
        assert kummer_m(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-13)


def test_kummer_transformation():
    """M(a, b, z) = e^z M(b-a, b, -z) must hold across the sign switch."""
    for a, b, z in [(0.3, 1.5, 6.0), (1.2, 2.7, 18.0), (-0.8, 1.1, 3.0)]:
        left = kummer_m(a, b, z)
        right = math.exp(z) * kummer_m(b - a, b, -z)
        assert left == pytest.approx(right, rel=1e-10)


def test_u_is_one_when_a_is_zero():
    assert kummer_u(0.0, 3.2, 5.0) == 1.0


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("b", [1.3, 2.0, 2.7, 4.5])
@pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 20.0])
def test_u_collapses_to_laguerre_at_nonpositive_integer_a(n, b, z):
    # U(-n, b, z) = (-1)^n n! L_n^{b-1}(z)
    poly = (-1.0) ** n * math.factorial(n) * laguerre(n, b - 1.0, z)
    assert kummer_u(-float(n), b, z) == pytest.approx(poly, rel=1e-12, abs=1e-12)


def test_u_contiguous_recurrence_in_a():
    # U(a-1,b,z) = (2a - b + z) U(a,b,z) - a (a - b + 1) U(a+1,b,z)
    for a, b, z in [(0.6, 1.5, 3.0), (1.4, 2.0, 12.0), (2.2, 3.3, 60.0)]:
        lhs = kummer_u(a - 1.0, b, z)
        rhs = (2.0 * a - b + z) * kummer_u(a, b, z) \
            - a * (a - b + 1.0) * kummer_u(a + 1.0, b, z)
        assert lhs == pytest.approx(rhs, rel=5e-8)


def test_u_small_z_limit_ratio_approaches_gamma_prefactor():
    """As z -> 0+ (for b > 1), U(a,b,z) -> Gamma(b-1)/Gamma(a) z^{1-b}.

    The normalized ratio must approach 1 from z = 1e-2 down to 1e-4, and the
    deviation |ratio - 1| must shrink monotonically with z.
    """
    for a, b in [(0.37, 1.5), (-0.6, 2.2)]:
        devs = []
        for z in (1e-2, 1e-3, 1e-4):
            lead = gammafn(b - 1.0) / gammafn(a) * z ** (1.0 - b)
            devs.append(abs(kummer_u(a, b, z) / lead - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


def test_gamma_sign_flips_across_each_negative_integer():
    for n in range(6):
        assert gamma_sign(-n + 0.1) == -gamma_sign(-n - 0.1)
    assert gamma_sign(0.5) == 1
    assert gamma_sign(-0.5) == -1
    assert gamma_sign(-1.5) == 1


def test_rgamma_vanishes_at_poles_and_inverts_elsewhere():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    for x in (0.5, 2.0, -0.5, -2.5):
        assert rgamma(x) * gammafn(x) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n", range(6))
def test_rgamma_is_continuous_through_its_zeros(n):
    # 1/Gamma(-n + d) = (-1)^n n! d (1 + O(d)), with exactly 0.0 at d = 0
    assert rgamma(-float(n)) == 0.0
    for d in (1e-15, 1e-12, 1e-9, 1e-6):
        for x in (-n + d, -n - d):
            step = x + n  # the offset as stored
            slope = (-1.0) ** n * math.factorial(n)
            assert rgamma(x) / step == pytest.approx(slope, rel=1e-5)


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        lgamma(0.0)
    with pytest.raises(PoleError):
        gamma_sign(-2.0)
    with pytest.raises(PoleError):
        digamma(-4.0)
    with pytest.raises(PoleError):
        kummer_m(0.3, -1.0, 2.0)
    with pytest.raises(DomainError):
        kummer_u(0.3, 1.5, 0.0)
    with pytest.raises(DomainError):
        kummer_u(0.3, 1.5, -2.0)
    with pytest.raises(DomainError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(DomainError):
        gauss_laguerre(0, 0.5)
    with pytest.raises(DomainError):
        gauss_laguerre(10, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_domain_errors(bad):
    for args in [(bad, 1.5, 2.0), (0.5, bad, 2.0), (0.5, 1.5, bad)]:
        with pytest.raises(DomainError):
            kummer_u(*args)
        with pytest.raises(DomainError):
            kummer_m(*args)


def test_non_finite_laplace_integral_is_a_convergence_error():
    # z in (1.5, 50] runs Miller's recurrence; carried up to b = 800 it
    # overflows, as U ~ Gamma(799) 20^-799 does
    for a in (0.5, -2.5):
        with pytest.raises(ConvergenceError):
            kummer_u(a, 800.0, 20.0)


def test_overflow_far_below_zero_is_a_convergence_error():
    # U(-300.5, 1.5, 20) ~ 9.5e618, past the double range
    with pytest.raises(ConvergenceError):
        kummer_u(-300.5, 1.5, 20.0)


@pytest.mark.parametrize("a, b, z", [(-0.5, 2.0, 900.0),   # direct sum: -inf
                                     (2.5, 2.0, -900.0)])  # reflected: -inf * e^-900 = nan
def test_kummer_m_out_of_range_is_a_convergence_error(a, b, z):
    with pytest.raises(ConvergenceError):
        kummer_m_pair(a, b, z)
    with pytest.raises(ConvergenceError):
        kummer_m(a, b, z)


def _terms(a: float, b: float, z: float) -> int:
    """The number of Taylor terms after which the scalar M loop stops."""
    total = term = 1.0
    for k in range(2000):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return k + 1
    raise AssertionError("the loop never stops")


def _hex_pairs(ms, dms) -> list[tuple[str, str]]:
    return [(float(m).hex(), float(dm).hex()) for m, dm in zip(ms, dms)]


@pytest.mark.parametrize("seed", range(6))
def test_kummer_m_array_is_the_scalar_loop_bit_for_bit(seed):
    # each element stops at its own k; the array pass must not carry one on
    # past its stop or cut it short, nor reorder its arithmetic
    rng = np.random.default_rng(seed)
    stops = []
    for _ in range(20):
        b, z = rng.uniform(1.0, 7.0), 400.0 * (1.0 - rng.random())  # z in (0, 400]
        a = rng.uniform(-6.3, 6.7, size=int(rng.integers(1, 40)))
        want = [kummer_m_pair(float(x), b, z) for x in a]
        assert _hex_pairs(*kummer_m_pair(a, b, z)) == _hex_pairs(*zip(*want))
        stops.append(len({_terms(float(x), b, z) for x in a}))
    assert max(stops) > 5


def test_kummer_m_scalar_calls_keep_the_scalar_loop(monkeypatch):
    # Brent's points off the scan grid call with one float a: no array pass
    def no_array(*args):
        raise AssertionError("the array pass ran")

    monkeypatch.setattr(specfun, "_kummer_m_array", no_array)
    for a in (0.5, np.float64(0.5), -2):
        m, dm = kummer_m_pair(a, 2.0, 30.0)
        assert not isinstance(m, np.ndarray) and not isinstance(dm, np.ndarray)


@pytest.mark.parametrize("z", [0.09, 4.0, 30.0, 100.0, 400.0])
def test_kummer_m_array_on_a_scan_grid(z):
    # the grid find_xi_roots hands over: a falls by 0.02 a point, through a = -n
    a = 2.3 - 0.02 * np.arange(300)
    assert len({_terms(float(x), 2.0, z) for x in a}) > 1
    want = [kummer_m_pair(float(x), 2.0, z) for x in a]
    m, dm = kummer_m_pair(a, 2.0, z)
    assert isinstance(m, np.ndarray) and m.shape == dm.shape == a.shape
    assert _hex_pairs(m, dm) == _hex_pairs(*zip(*want))


def test_kummer_m_array_at_z_zero_is_the_scalar_branch():
    a = np.array([-2.5, 0.0, 1.25])
    m, dm = kummer_m_pair(a, 1.5, 0.0)
    assert _hex_pairs(m, dm) == _hex_pairs(*zip(*(kummer_m_pair(float(x), 1.5, 0.0) for x in a)))


@pytest.mark.parametrize("a, b, z, error", [
    (np.array([0.5, 1.5]), 2.0, -1.0, DomainError),        # the scalar call may reflect there
    (np.array([[0.5, 1.5]]), 2.0, 1.0, DomainError),       # not 1-D
    (np.array(0.5), 2.0, 1.0, DomainError),                # 0-d
    (np.array([0.5, math.nan]), 2.0, 1.0, DomainError),
    (np.array([0.5]), math.inf, 1.0, DomainError),
    (np.array([0.5]), 2.0, math.nan, DomainError),
    (np.array([0.5]), -1.0, 1.0, PoleError),
])
def test_kummer_m_array_rejects_what_it_does_not_sum(a, b, z, error):
    with pytest.raises(error):
        kummer_m_pair(a, b, z)


def test_kummer_m_array_raises_for_its_first_element_out_of_range():
    # at z = 700, z dM/dz of M(a, 2, z) passes the double range between a = 2.5 and 2.8
    a = np.array([1.0, 2.5, 2.8, 5.0])
    assert kummer_m_pair(2.5, 2.0, 700.0)[0] < 1e306
    with pytest.raises(ConvergenceError) as scalar:
        kummer_m_pair(2.8, 2.0, 700.0)
    with pytest.raises(ConvergenceError) as array:
        kummer_m_pair(a, 2.0, 700.0)
    assert str(array.value) == str(scalar.value) == \
        "kummer_m leaves floating-point range at a=2.8, b=2.0, z=700.0"


def test_kummer_m_array_raises_at_the_series_cap_like_the_loop(monkeypatch):
    # finite z > 0 overflows before it reaches the cap; a lowered cap shows
    # that an element still summing there fails as the scalar loop does
    monkeypatch.setattr(specfun, "SERIES_CAP", 8)
    a = np.array([0.0, 1.5, 2.5])  # a = 0 stops at once
    with pytest.raises(ConvergenceError) as scalar:
        kummer_m_pair(1.5, 2.0, 3.0)
    with pytest.raises(ConvergenceError) as array:
        kummer_m_pair(a, 2.0, 3.0)
    assert str(array.value) == str(scalar.value) == "kummer_m series cap at a=1.5, b=2.0, z=3.0"


def test_kummer_u_builds_no_quadrature_rule(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    gauss_laguerre.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert len(find_xi_roots(TubeModel(4.0, 0.4, 1, 0.5))) == 3  # z = 16
    for z in (8.0 + 1e-9, 9.5, 20.0, 37.0, 50.0, 73.0, 200.0):
        for a, b in [(0.3, 1.5), (-2.7, 3.2), (14.6, 2.0), (33.0, 5.5), (-0.4, 22.0)]:
            assert math.isfinite(kummer_u(a, b, z))


def test_cli_runs_leave_scipy_out():
    # numpy is the only runtime dependency, also on the lazily imported oracle path
    code = "\n".join([
        "import contextlib, io, sys",
        "from fluxtube import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['regularize', '--alpha', '0.5', '--m', '0', '--R', '0.3',",
        "                       '--nmax', '1', '--verify']), cli.main(['verify'])]",
        "print(codes, sorted(name for name in sys.modules if name.startswith('scipy')))",
    ])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0] []"


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    for x in (0.2, 1.7, 9.9, -3.3):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)


def test_laguerre_spot_value():
    # L_2^{1/2}(1) = (a+1)(a+2)/2 - (a+2) z + z^2/2 at a=1/2, z=1
    assert laguerre(2, 0.5, 1.0) == pytest.approx(-0.125, abs=1e-15)


def test_laguerre_vector_matches_scalar():
    # a scalar z runs the recurrence in plain floats: the array's values bit for bit
    z = np.array([0.0, 1e-3, 0.7, 3.0, 12.5, 40.0])
    for n, a in [(0, 0.5), (1, -0.3), (4, 1.5), (12, 3.25)]:
        vec, der = laguerre(n, a, z), laguerre_deriv(n, a, z)
        assert vec.shape == der.shape == z.shape
        for zi, vi, di in zip(z.tolist(), vec.tolist(), der.tolist()):
            for scalar in (zi, np.float64(zi)):
                value, slope = laguerre(n, a, scalar), laguerre_deriv(n, a, scalar)
                assert type(value) is float and type(slope) is float
                assert (value.hex(), slope.hex()) == (vi.hex(), di.hex())


def test_laguerre_deriv_matches_finite_difference():
    h = 1e-6
    for n, a, z in [(0, 0.5, 1.0), (1, 0.5, 2.0), (3, 1.5, 0.7), (6, 2.5, 4.0)]:
        fd = (laguerre(n, a, z + h) - laguerre(n, a, z - h)) / (2.0 * h)
        assert laguerre_deriv(n, a, z) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gauss_laguerre_moments():
    """Rule with weight z^gamma e^-z must integrate monomials exactly.

    int_0^inf z^{gamma+k} e^-z dz = Gamma(gamma+k+1); a 20-node rule is
    exact through degree 39.
    """
    for gamma in (-0.5, 0.0, 0.5, 1.5):
        nodes, weights = gauss_laguerre(20, gamma)
        for k in range(0, 30, 3):
            got = float(np.dot(weights, nodes ** k))
            want = math.exp(math.lgamma(gamma + k + 1.0))
            assert got == pytest.approx(want, rel=1e-12)


def test_gauss_laguerre_orthonormality():
    n = 24
    gamma = 0.5
    nodes, weights = gauss_laguerre(n, gamma)
    norm = math.exp(math.lgamma(gamma + 1.0))  # ||L_0||^2
    for i in range(6):
        for j in range(6):
            li = laguerre(i, gamma, nodes)
            lj = laguerre(j, gamma, nodes)
            got = float(np.dot(weights, li * lj))
            if i == j:
                want = math.exp(math.lgamma(i + gamma + 1.0) - math.lgamma(i + 1.0))
            else:
                want = 0.0
            assert got == pytest.approx(want, abs=1e-12 * norm, rel=1e-12)


def test_gauss_laguerre_cache_returns_readonly():
    nodes, weights = gauss_laguerre(8, 0.0)
    assert not nodes.flags.writeable
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_u_positive_for_positive_parameters():
    # For a, b, z > 0 the Laplace representation is a positive integral.
    for a, b, z in [(0.2, 1.1, 0.5), (1.5, 2.5, 10.0), (3.0, 1.0, 70.0)]:
        assert kummer_u(a, b, z) > 0.0
