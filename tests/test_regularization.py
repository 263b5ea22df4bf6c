"""Shell-regularized flux tube: matching roots and the shrinking-shell limit.

Frozen root values below were produced by this package's own root finder
and cross-checked against the independent shooting oracle (see
test_oracle.py and the acceptance suite for the live dual-route checks);
they pin the behavior against regressions at 1e-9.
"""

import math

import numpy as np
import pytest

from fluxtube import (
    TubeModel,
    find_xi_roots,
    inside_solution,
    outside_solution,
    xi_limit_table,
)
from fluxtube import regularization, specfun
from fluxtube.regularization import matching_wronskian

# alpha = 0.5, m = 0, sigma = +1/2 (the channel carrying the regular tower):
# first three roots for a sequence of shell radii.  xi_n -> -n from above.
REGULAR_CHANNEL_ROOTS = {
    0.5: [0.073021913321, -0.844535233265, -1.787668645881],
    0.2: [0.004618889793, -0.988386060271, -1.979615909618],
    0.1: [0.000567991587, -0.998576437414, -1.997502775438],
    0.05: [7.0649423e-05, -0.999823251738, -1.999690473368],
}

# find_xi_roots(TubeModel(R, alpha, m, sigma)) at n_max = 2 as xi.hex(), captured
# at commit 1f2f11f: narrow (z <= 8), wide (8 < z <= 50) and far (z > 50)
# shells, integer alpha and both spins.
FROZEN_ROOTS = {
    (0.3, 0.4, 1, 0.5):
        ['0x1.f61f7bcff1f43p-12', '-0x1.ff31417764a53p-1', '-0x1.ff2388e0dcbc5p+0'],
    (0.05, -1.2, -2, -0.5):
        ['-0x1.0000000000000p-57', '-0x1.fffffffffea78p-1', '-0x1.fffffffffc890p+0'],
    (1.0, 2.0, 0, 0.5):
        ['0x1.77d149dd44d1ep+0', '-0x1.4ceac6c82ace1p-3', '-0x1.363a05202a3a1p+0'],
    (2.5, -1.0, 3, -0.5):
        ['-0x1.d86a26543505cp-1', '-0x1.ac0f7e92e0068p+0', '-0x1.5a2f93ef57349p+1'],
    (4.0, 0.37, -1, 0.5):
        ['-0x1.5c58426a54222p-21', '-0x1.000475d2e64b6p+0', '-0x1.003988805c499p+1'],
    (5.5, -1.5, 2, -0.5):
        ['-0x1.7ffffffffc030p+0', '-0x1.3ffffffcbe455p+1', '-0x1.bffffe74eed0ap+1'],
    (6.5, 1.0, -3, 0.5):
        ['-0x1.e400000000000p-51', '-0x1.00000000023e4p+0', '-0x1.00000000981e2p+1'],
    (8.0, 0.9, 0, -0.5):
        ['0x1.ccccccccccccap-1', '-0x1.99999999999d7p-4', '-0x1.19999999999a0p+0'],
    (9.5, -2.0, 1, 0.5):
        ['-0x1.0000000000006p+0', '-0x1.0000000000005p+1', '-0x1.8000000000007p+1'],
    (12.0, 1.3, 2, -0.5):
        ['0x1.4ccccccccccc2p+0', '0x1.33333333332f8p-2', '-0x1.6666666666687p-1'],
    (20.0, 0.4, 1, 0.5):
        ['0x1.9999999999970p-2', '-0x1.333333333334bp-1', '-0x1.99999999999a9p+0'],
    (25.0, 0.4, 1, 0.5):
        ['0x1.9999999999970p-2', '-0x1.333333333334bp-1', '-0x1.99999999999a9p+0'],
}

# alpha = -0.5, m = 0, sigma = +1/2 (attracted channel): the lowest level
# approaches its limit E = 1/2 from above as the shell shrinks.
ATTRACTED_NEG_FLUX_E0 = {0.2: 0.558360738, 0.05: 0.5142269202}


def test_regular_channel_frozen_roots():
    for radius, want in REGULAR_CHANNEL_ROOTS.items():
        roots = find_xi_roots(TubeModel(radius, 0.5, 0, 0.5), n_max=2)
        assert len(roots) == 3
        for res, xi_ref in zip(roots, want):
            assert res.xi == pytest.approx(xi_ref, abs=1e-9)
            assert res.radius == radius
            assert res.residual <= 1e-10
            assert res.bracket[0] <= res.xi <= res.bracket[1]


@pytest.mark.parametrize("key", list(FROZEN_ROOTS), ids=str)
def test_roots_are_bit_identical_to_the_frozen_table(key):
    assert [res.xi.hex() for res in find_xi_roots(TubeModel(*key))] == FROZEN_ROOTS[key]


def test_root_energy_xi_consistency():
    model = TubeModel(0.2, 0.5, 0, 0.5)
    for res in find_xi_roots(model, n_max=2):
        assert res.energy == pytest.approx(model.energy_from_xi(res.xi), abs=1e-14)


def test_deviation_shrinks_with_radius():
    radii = (0.5, 0.2, 0.1, 0.05)
    for n in range(3):
        devs = [abs(REGULAR_CHANNEL_ROOTS[r][n] + n) for r in radii]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 0.05
    # and the live values agree with the frozen ones via xi_limit_table
    rows = xi_limit_table(0, 0.5, 0.5, radii, n_max=2)
    assert len(rows) == len(radii) * 3
    for row in rows:
        assert row.note == ""
        assert row.xi == pytest.approx(REGULAR_CHANNEL_ROOTS[row.radius][row.n], abs=1e-9)
        assert row.deviation == pytest.approx(row.xi + row.n)


@pytest.mark.parametrize("alpha, m, sigma", [
    (0.4, -1, 0.5), (0.9, -2, 0.5), (-0.3, 2, -0.5),  # kappa != nu
    (0.4, 0, 0.5), (0.4, 1, 0.5), (1.3, 0, 0.5),  # kappa == nu
])
def test_deviation_shrinks_at_the_order_of_the_small_r_law(alpha, m, sigma):
    # psi_in'/psi_in = |m|/R + O(R) against U(xi, nu + 1, R^2) = Gamma(nu)/Gamma(xi) R^(-2 nu)
    # + Gamma(-nu)/Gamma(xi - nu) + ... (DLMF 13.2.16-13.2.22) puts xi_n + n at
    # (nu - kappa)/(nu + kappa) R^(2 nu) times a constant, nu = |m + alpha| and
    # kappa = |m| + 2 sigma alpha; at kappa = nu that term cancels and R^(2 nu + 2) leads
    nu, kappa = abs(m + alpha), abs(m) + 2.0 * sigma * alpha
    order = 2.0 * nu + (2.0 if math.isclose(kappa, nu) else 0.0)
    coarse, fine = (find_xi_roots(TubeModel(r, alpha, m, sigma)) for r in (0.025, 0.0125))
    for n in range(3):
        slope = math.log2(abs(coarse[n].xi + n) / abs(fine[n].xi + n))
        assert slope == pytest.approx(order, abs=0.02), f"n = {n}"


def small_r_law(n: int, radius: float, alpha: float, m: int, sigma: float) -> float:
    """Leading xi_n + n of the regular tower as R -> 0, nu = |m + alpha| not an integer:

        R^(2 nu) (nu - kappa)/(nu + kappa) Gamma(-nu) / (Gamma(nu) Gamma(-n - nu) n! (-1)^n),

    kappa = |m| + 2 sigma alpha.  psi_in'/psi_in = kappa/R + O(R) once the shell's
    jump is added, against U(xi, nu + 1, R^2) = Gamma(nu)/Gamma(xi) R^(-2 nu)
    + Gamma(-nu)/Gamma(xi - nu) + ... (DLMF 13.2.16-13.2.22), and 1/Gamma(xi)
    = (-1)^n n! (xi + n) + ... next to xi = -n.
    """
    nu, kappa = abs(m + alpha), abs(m) + 2.0 * sigma * alpha
    return (radius ** (2.0 * nu) * (nu - kappa) / (nu + kappa) * math.gamma(-nu)
            / (math.gamma(nu) * math.gamma(-n - nu) * math.factorial(n) * (-1) ** n))


@pytest.mark.parametrize("alpha, m, sigma", [
    (0.4, -1, 0.5), (-0.3, 2, -0.5), (0.9, -2, 0.5), (1.3, -1, 0.5),  # kappa != nu
])
def test_deviation_follows_the_small_r_law_with_its_coefficient(alpha, m, sigma):
    # the next terms are R^(2 nu) and R^2 smaller than the leading one, so the
    # law's relative error falls with R, under 10 R^min(2 nu, 2); at nu = 0.3
    # that is only R^0.6 (0.25 at R = 0.1, 0.06 at R = 0.01)
    power = min(2.0 * abs(m + alpha), 2.0)
    radii = (0.1, 0.03, 0.01)
    for n in range(3):
        errors = []
        for radius in radii:
            xi = find_xi_roots(TubeModel(radius, alpha, m, sigma))[n].xi
            errors.append(abs((xi + n) / small_r_law(n, radius, alpha, m, sigma) - 1.0))
        assert errors == sorted(errors, reverse=True), f"n = {n}"
        assert all(e <= 10.0 * r ** power for e, r in zip(errors, radii)), (n, errors)


def test_shrunk_shell_matches_point_flux_energy():
    # R = 0.02: within 0.05 of the point-flux levels E = n + 3/2
    roots = find_xi_roots(TubeModel(0.02, 0.5, 0, 0.5), n_max=2)
    for n, res in enumerate(roots):
        assert abs(res.energy - (n + 1.5)) < 0.05


def test_zero_flux_shell_is_exact_landau():
    """With alpha = 0 the shell does nothing: roots sit at xi = -n exactly."""
    for radius in (0.7, 0.15):
        for sigma in (0.5, -0.5):
            roots = find_xi_roots(TubeModel(radius, 0.0, 1, sigma), n_max=2)
            for n, res in enumerate(roots):
                assert res.xi == pytest.approx(-float(n), abs=1e-8)


def test_attracted_channel_pins_zero_mode():
    """alpha = 0.5, sigma = -1/2, m = 0: E = 0 is an exact root at every R
    (the zero mode survives regularization), followed by the partner tower
    pinned to E -> n + 1."""
    for radius in (0.2, 0.05):
        model = TubeModel(radius, 0.5, 0, -0.5)
        roots = find_xi_roots(model, n_max=2)
        assert abs(roots[0].energy) < 1e-6
        assert roots[0].xi == pytest.approx(model.xi_offset, abs=1e-6)
        for n, res in enumerate(roots[1:], start=1):
            assert res.energy == pytest.approx(float(n), abs=0.09)
            assert res.energy > n  # approach from above at these radii
    # closer to the limit at the smaller radius
    e1 = find_xi_roots(TubeModel(0.2, 0.5, 0, -0.5), n_max=1)[1].energy
    e2 = find_xi_roots(TubeModel(0.05, 0.5, 0, -0.5), n_max=1)[1].energy
    assert abs(e2 - 1.0) < abs(e1 - 1.0)


def test_attracted_channel_negative_flux_from_above():
    for radius, e_ref in ATTRACTED_NEG_FLUX_E0.items():
        res = find_xi_roots(TubeModel(radius, -0.5, 0, 0.5), n_max=0)[0]
        assert res.energy == pytest.approx(e_ref, abs=1e-8)
        assert res.energy > 0.5
    assert ATTRACTED_NEG_FLUX_E0[0.05] < ATTRACTED_NEG_FLUX_E0[0.2]


def test_no_spurious_sign_changes_between_roots():
    model = TubeModel(0.2, 0.5, 0, 0.5)
    roots = find_xi_roots(model, n_max=2)
    for hi, lo in zip(roots, roots[1:]):
        xs = np.linspace(hi.xi - 1e-4, lo.xi + 1e-4, 200)
        ws = [matching_wronskian(model, model.energy_from_xi(x))[0] for x in xs]
        flips = sum(1 for a, b in zip(ws, ws[1:]) if (a < 0) != (b < 0))
        assert flips == 0


@pytest.mark.parametrize("model, want, tol", [
    # mpmath (40 digits, hyp1f1 and hyperu in the same cross form) puts these
    # roots 1.78e-12 and 6.23e-12 above -1 and -2
    (TubeModel(0.08, 2.0, 3, -0.5), {1: -0.99999999999821754579, 2: -1.9999999999937696781},
     1e-12),
    (TubeModel(0.05, -2.3, -2, -0.5), {1: -1.0}, 1e-11),
    (TubeModel(0.05, 1.3, 3, 0.5), {1: -1.0, 2: -2.0}, 1e-11),
])
def test_narrow_shell_roots_next_to_the_lattice_snap(model, want, tol):
    # W must stay continuous next to the lattice xi = -n: any snap of a onto
    # -n makes it jump, and brentq then returns the edge of the snap
    roots = find_xi_roots(model)
    assert {n: abs(roots[n].xi - x) <= tol for n, x in want.items()} == dict.fromkeys(want, True)


@pytest.mark.parametrize("radius, alpha, m", [
    (0.05, 0.4, 0), (0.3, 0.4, 0), (1.0, 0.4, 0), (0.05, 0.9, 0), (0.3, 0.9, 0),
    (1.0, 0.9, 0), (0.05, 2.6, -2), (0.3, 2.6, -2), (1.0, 2.6, -2), (1.0, 2.6, 0)])
def test_pinned_zero_mode_stays_at_zero(radius, alpha, m):
    # the shell keeps these zero modes at E = 0 exactly; W is linear through
    # E = 0, so brentq lands on it in a few iterations unless W is flat there
    root = find_xi_roots(TubeModel(radius, alpha, m, -0.5), n_max=2)[0]
    assert abs(root.energy) <= 1e-12
    assert root.iterations <= 5


def test_inside_solution_reduces_to_gaussian_at_xi_in_zero():
    # xi_in = (|m| + m + 1 + 2 sigma)/2 - E = 0  ->  M(0, b, z) = 1
    model = TubeModel(0.2, 0.5, 0, 0.5)
    e0 = 0.5 * (0 + 0 + 1 + 1)  # = 1
    for r in (0.1, 0.7, 1.3):
        val, der = inside_solution(model, e0, r)
        assert val == pytest.approx(math.exp(-0.5 * r * r), rel=1e-14)
        assert der == pytest.approx(-r * math.exp(-0.5 * r * r), rel=1e-13)


@pytest.mark.parametrize("solution", [inside_solution, outside_solution])
def test_solution_derivatives_match_finite_difference(solution):
    model = TubeModel(0.2, 0.5, 1, 0.5)
    h = 1e-5
    for energy in (0.37, 1.81):
        for r in (0.3, 1.0, 2.2):
            vp, _ = solution(model, energy, r + h)
            vm, _ = solution(model, energy, r - h)
            _, der = solution(model, energy, r)
            assert der == pytest.approx((vp - vm) / (2.0 * h), rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("radius", [0.3, 4.0, 9.0])  # z = R^2 on each side of 8 and 50
def test_find_xi_roots_makes_one_u_pass_per_evaluation(monkeypatch, radius):
    # U and dU/dz come from one kummer_u_pair call: no route calls kummer_u
    def no_kummer_u(*args):
        raise AssertionError("kummer_u was called")

    for module in (specfun, regularization):
        monkeypatch.setattr(module, "kummer_u", no_kummer_u, raising=False)
    assert len(find_xi_roots(TubeModel(radius, 0.4, 1, 0.5))) == 3


@pytest.mark.parametrize("radius", [0.3, 4.0])
def test_find_xi_roots_evaluates_no_xi_twice(monkeypatch, radius):
    # brentq's bracket ends and the residual at the root reuse the scan's (W, scale).
    # Every W evaluation, on the grid or between its points, takes one psi_out,
    # so recording outside_solution sees them all
    energies = []
    real = regularization.outside_solution

    def recording(model, energy, r):
        energies.append(energy)
        return real(model, energy, r)

    model = TubeModel(radius, 0.4, 1, 0.5)
    want = find_xi_roots(model)
    monkeypatch.setattr(regularization, "outside_solution", recording)
    assert find_xi_roots(model) == want
    assert len(want) == 3
    assert len(set(energies)) == len(energies)
    assert len(energies) > 200  # the scan alone walks xi from 2.7 to below -2


def test_outside_solution_decays():
    model = TubeModel(0.2, 0.5, 0, 0.5)
    vals = [abs(outside_solution(model, 0.4, r)[0]) for r in (1.0, 2.0, 4.0, 6.0)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 1e-6


def test_xi_limit_table_with_oracle_verification():
    rows = xi_limit_table(0, 0.5, 0.5, (0.3, 0.1), n_max=1, verify=True)
    assert len(rows) == 4
    for row in rows:
        assert row.note == ""
        assert row.oracle_energy is not None
        assert abs(row.oracle_diff) <= 1e-6


@pytest.mark.parametrize("radius,alpha,m,sigma", [(6.0, -1.9, 2, 0.5),
                                                  (4.5, -2.9, 3, -0.5)])
def test_scan_reaches_the_large_shell_levels(radius, alpha, m, sigma):
    # the third root sits near the interior level xi = alpha - 2, below -n_max - 1.7
    roots = find_xi_roots(TubeModel(radius, alpha, m, sigma), n_max=2)
    xis = [res.xi for res in roots]
    assert len(xis) == 3
    assert xis[0] > xis[1] > xis[2]


def test_xi_limit_table_oracle_finds_every_large_shell_level():
    rows = xi_limit_table(2, 0.5, -1.9, (6.0,), n_max=2, verify=True)
    assert len(rows) == 3
    for row in rows:
        assert row.note == ""
        assert abs(row.oracle_diff) <= 1e-6


def test_xi_limit_table_oracle_reaches_past_a_large_shell():
    # R = 12 lies beyond the oracle's default integration end for these levels
    rows = xi_limit_table(0, 0.5, 0.5, (12.0,), n_max=0, verify=True)
    assert len(rows) == 1
    assert rows[0].note == ""
    assert abs(rows[0].oracle_diff) <= 1e-6


def test_large_shell_fails_loudly_instead_of_returning_no_roots():
    # M(a, 2, R^2) overflows at R = 30: no sign of W to scan, so no root list
    assert len(find_xi_roots(TubeModel(25.0, 0.4, 1, 0.5))) == 3
    with pytest.raises(specfun.ConvergenceError):
        find_xi_roots(TubeModel(30.0, 0.4, 1, 0.5))


def test_tube_model_validation():
    with pytest.raises(ValueError):
        TubeModel(0.0, 0.5, 0, 0.5)
    with pytest.raises(ValueError):
        TubeModel(-0.1, 0.5, 0, 0.5)
    with pytest.raises(ValueError):
        TubeModel(0.2, 0.5, 0, 0.3)
    with pytest.raises(ValueError, match="orbital number m must be an integer"):
        TubeModel(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        find_xi_roots(TubeModel(0.2, 0.5, 0, 0.5), n_max=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,message", [("radius", "shell radius"), ("alpha", "alpha"),
                                          ("m", "orbital number m"), ("sigma", "sigma")])
def test_tube_model_rejects_non_finite_fields(name, message, value):
    fields = {"radius": 0.3, "alpha": 0.5, "m": 0, "sigma": 0.5, name: value}
    with pytest.raises(ValueError, match=message):
        TubeModel(**fields)


def test_xi_energy_round_trip():
    model = TubeModel(0.2, 1.75, -2, -0.5)
    ma = -2 + 1.75
    assert model.xi_offset == pytest.approx(0.5 * (abs(ma) + ma + 1.0 - 1.0))
    for e in (0.0, 0.9, 3.3):
        assert model.energy_from_xi(model.xi_from_energy(e)) == pytest.approx(e, abs=1e-15)
