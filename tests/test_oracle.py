"""Shooting oracle: the independent eigenvalue route.

Everything here checks the oracle against *closed-form knowledge* (Landau
levels, the exactly solvable point-flux towers) or against its own
discretization scaling — never against the package's special-function
machinery, since the oracle exists to cross-check that machinery.
"""

import ast
import math
import pathlib
from dataclasses import replace

import pytest

import fluxtube.oracle
from fluxtube import ShootingProblem, energy_regular, oracle_eigenvalues, shoot


def test_landau_levels_both_spins():
    up = oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=0.5),
                            e_min=0.5, e_max=3.2)
    assert len(up) == 3
    for ev, want in zip(up, (1.0, 2.0, 3.0)):
        assert ev == pytest.approx(want, abs=1e-6)
    down = oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=-0.5),
                              e_min=-0.3, e_max=2.2)
    for ev, want in zip(down, (0.0, 1.0, 2.0)):
        assert ev == pytest.approx(want, abs=1e-6)


def test_point_flux_regular_tower():
    # alpha = 0.5, m = 1, sigma = +1/2: E = n + 1 + (m + alpha) = n + 2.5
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.5, m=1, sigma=0.5),
                             e_min=1.0, e_max=4.0)
    assert len(evs) == 2
    for n, ev in enumerate(evs):
        assert ev == pytest.approx(energy_regular(n, 1, 0.5), abs=1e-7)


def test_point_flux_negative_m_tower():
    # alpha = 0.5, m = -2: m + alpha < 0, so E = n + 1 exactly
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.5, m=-2, sigma=0.5),
                             e_min=0.5, e_max=2.5)
    for n, ev in enumerate(evs):
        assert ev == pytest.approx(n + 1.0, abs=1e-7)


def test_shell_with_zero_flux_is_pure_landau():
    evs = oracle_eigenvalues(
        ShootingProblem(alpha=0.0, m=0, sigma=0.5, shell_radius=0.3),
        e_min=0.5, e_max=3.2)
    for ev, want in zip(evs, (1.0, 2.0, 3.0)):
        assert ev == pytest.approx(want, abs=1e-6)


def test_small_shell_approaches_point_flux_levels():
    evs = oracle_eigenvalues(
        ShootingProblem(alpha=0.5, m=0, sigma=0.5, shell_radius=0.02),
        e_min=0.5, e_max=4.0)
    assert len(evs) == 3
    for ev, want in zip(evs, (1.5, 2.5, 3.5)):
        assert abs(ev - want) < 0.05


def test_shell_keeps_the_zero_mode_pinned():
    """In the attracted channel the E = 0 level survives at finite shell
    radius exactly, not merely in the R -> 0 limit."""
    for radius in (0.1, 0.05):
        evs = oracle_eigenvalues(
            ShootingProblem(alpha=0.5, m=0, sigma=-0.5, shell_radius=radius),
            e_min=-0.3, e_max=2.4)
        assert len(evs) == 3
        assert abs(evs[0]) < 1e-6
        # partner levels approach n + 1 from above as the shell shrinks
        assert 1.0 < evs[1] < 1.1
        assert 2.0 < evs[2] < 2.1


def test_eigenvalue_convergence_is_fourth_order():
    """Halving the RK4 step must cut the eigenvalue error ~16x (order >= 3.5)."""
    base = ShootingProblem(alpha=0.0, m=0, sigma=0.5, r_max=10.0, h=0.08)
    errs = []
    for k in range(3):
        prob = replace(base, h=base.h * 0.5 ** k)
        ev = oracle_eigenvalues(prob, e_min=0.7, e_max=1.3)[0]
        errs.append(abs(ev - 1.0))
    assert errs[0] > errs[1] > errs[2] > 0.0
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= 3.5


def test_count_mode_returns_exactly_count():
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.5, m=0, sigma=-0.5),
                             e_max=1.2, count=4)
    assert len(evs) == 4
    for n, ev in enumerate(evs):
        assert ev == pytest.approx(n + 0.5, abs=1e-6)


def test_count_mode_extends_past_initial_window(monkeypatch):
    # only one level below 1.5; the window must grow to find three
    calls = []
    real_shoot = fluxtube.oracle.shoot

    def counting_shoot(problem, energy):
        calls.append(energy)
        return real_shoot(problem, energy)

    monkeypatch.setattr(fluxtube.oracle, "shoot", counting_shoot)
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=0.5),
                             e_max=1.5, count=3)
    assert [round(e) for e in evs] == [1, 2, 3]
    # widening shoots only the new window end, never an energy already shot
    assert len(calls) <= 60
    assert len(set(calls)) == len(calls)


def test_count_mode_fails_loudly_when_levels_stay_out_of_reach():
    # h = 2 is too coarse for RK4 to follow the oscillations: N(E) stays below 3
    prob = ShootingProblem(alpha=0.0, m=0, sigma=0.5, h=2.0)
    with pytest.raises(RuntimeError, match="found only 0 of 3 eigenvalues"):
        oracle_eigenvalues(prob, count=3)


def test_coarse_step_fails_loudly_instead_of_returning_wrong_levels():
    # at h = 1 N(E) is not monotone: brentq's bracket (-0.3, 100.5) holds
    # N = 0 and 1 at its ends but N = 2 at E = 12.3
    prob = ShootingProblem(alpha=0.0, m=0, sigma=0.5, h=1.0)
    with pytest.raises(RuntimeError, match=r"node count 2 at E = 12\.3 .* h = 1\.0 "):
        oracle_eigenvalues(prob, count=3)


def test_defect_changes_sign_across_an_eigenvalue():
    prob = ShootingProblem(alpha=0.0, m=0, sigma=0.5)
    d_09, d_11, d_14 = (shoot(prob, e)[0] for e in (0.9, 1.1, 1.4))
    assert d_09 * d_11 < 0.0
    assert d_11 * d_14 > 0.0


@pytest.mark.parametrize("alpha, m, energies", [
    (0.0, 0, (0.5, 1.5, 2.5, 3.5)),   # Landau tower E = n + 1
    (0.5, 1, (2.0, 3.0, 4.0)),        # point-flux tower E = n + 2.5
])
def test_node_count_is_the_number_of_levels_below(alpha, m, energies):
    prob = ShootingProblem(alpha=alpha, m=m, sigma=0.5)
    assert [shoot(prob, e)[1] for e in energies] == list(range(len(energies)))


def _scalar_rk4_region(psi, phi, nodes, r0, r1, nsteps, ma, sigma, energy):
    """Reference: the classical RK4 loop, one step at a time in floats,
    renormalized every 500 steps."""
    h = (r1 - r0) / nsteps
    log_scale = 0.0
    negative = psi < 0.0
    c0 = ma * ma
    c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
    for i in range(nsteps):
        r = r0 + i * h
        rh = r + 0.5 * h
        rf = r + h

        q1 = -phi / r + (c0 / (r * r) + r * r + c1) * psi
        p2 = psi + 0.5 * h * phi
        f2 = phi + 0.5 * h * q1
        q2 = -f2 / rh + (c0 / (rh * rh) + rh * rh + c1) * p2
        p3 = psi + 0.5 * h * f2
        f3 = phi + 0.5 * h * q2
        q3 = -f3 / rh + (c0 / (rh * rh) + rh * rh + c1) * p3
        p4 = psi + h * f3
        f4 = phi + h * q3
        q4 = -f4 / rf + (c0 / (rf * rf) + rf * rf + c1) * p4

        psi = psi + h / 6.0 * (phi + 2.0 * f2 + 2.0 * f3 + f4)
        phi = phi + h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        if (psi < 0.0) != negative:
            negative = not negative
            nodes += 1

        if (i + 1) % 500 == 0:
            s = max(abs(psi), abs(phi))
            if s > 0.0:
                psi /= s
                phi /= s
                log_scale += math.log(s)
    return psi, phi, log_scale, nodes


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.5, m=1, sigma=0.5),                          # point flux
    dict(alpha=0.5, m=0, sigma=-0.5, shell_radius=0.1),       # small shell
    dict(alpha=0.7, m=0, sigma=0.5, shell_radius=2.5),
    dict(alpha=0.3, m=3, sigma=-0.5),
    dict(alpha=0.0, m=0, sigma=0.5, r_max=16.0),
    # regions of 160, 1 and 1194 steps: none a whole number of blocks
    dict(alpha=-0.5, m=-1, sigma=0.5, shell_radius=0.06, h=0.01),
])
def test_shoot_matches_the_scalar_rk4_loop(kwargs, monkeypatch):
    prob = ShootingProblem(**kwargs)
    levels = oracle_eigenvalues(prob, e_min=-0.3, e_max=5.0)
    energies = [e for e in (-0.2, 0.3, 0.8, 1.45, 2.05, 2.75, 3.6, 4.2, 4.9)
                if all(abs(e - lev) >= 0.1 for lev in levels)]
    assert len(energies) >= 5
    fast = [shoot(prob, e) for e in energies]
    monkeypatch.setattr(fluxtube.oracle, "_rk4_region", _scalar_rk4_region)
    for (d, n), e in zip(fast, energies):
        d_ref, n_ref = shoot(prob, e)
        assert n == n_ref, e
        assert d == pytest.approx(d_ref, rel=1e-10), e


def test_problem_validation():
    with pytest.raises(ValueError):
        ShootingProblem(alpha=0.5, m=0, sigma=0.3)
    with pytest.raises(ValueError):
        ShootingProblem(alpha=0.5, m=0, sigma=0.5, shell_radius=-0.1)
    with pytest.raises(ValueError):
        ShootingProblem(alpha=0.5, m=0, sigma=0.5, shell_radius=15.0, r_max=12.0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            ShootingProblem(alpha=alpha, m=0, sigma=0.5)
    for h in (-0.01, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step h"):
            ShootingProblem(alpha=0.5, m=0, sigma=0.5, h=h)
    for r_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="r_max must be finite"):
            ShootingProblem(alpha=0.5, m=0, sigma=0.5, r_max=r_max)
    with pytest.raises(ValueError):
        oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=0.5),
                           e_min=2.0, e_max=1.0)


def test_oracle_module_is_independent():
    """The oracle must not import the special-function or matching machinery
    it is used to cross-check (dual-route checks would otherwise collapse)."""
    src = pathlib.Path(fluxtube.oracle.__file__).read_text()
    allowed = {"__future__", "math", "dataclasses", "numpy", "scipy.optimize"}
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import found in oracle module"
            assert node.module in allowed, node.module
