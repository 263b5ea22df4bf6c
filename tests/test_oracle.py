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

import numpy as np
import pytest

import fluxtube._brent
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


def _record_shots(monkeypatch) -> list[float]:
    """The energies of every later call to ``fluxtube.oracle.shoot``."""
    calls = []
    real_shoot = fluxtube.oracle.shoot

    def counting_shoot(problem, energy):
        calls.append(energy)
        return real_shoot(problem, energy)

    monkeypatch.setattr(fluxtube.oracle, "shoot", counting_shoot)
    return calls


def test_count_mode_extends_past_initial_window(monkeypatch):
    # only one level below 1.5; the window must grow to find three
    calls = _record_shots(monkeypatch)
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.0, m=0, sigma=0.5),
                             e_max=1.5, count=3)
    assert [round(e) for e in evs] == [1, 2, 3]
    # widening shoots only the new window end, never an energy already shot
    assert len(calls) <= 30
    assert len(set(calls)) == len(calls)


def test_refinement_shot_budget(monkeypatch):
    # |D| falls from 5.9e44 to 8.8e41 across the first bracket of this channel;
    # brentq on D itself spends 38 shots here, on the detrended defect 23
    calls = _record_shots(monkeypatch)
    evs = oracle_eigenvalues(ShootingProblem(alpha=0.5, m=1, sigma=-0.5, shell_radius=0.3),
                             e_min=-0.3, e_max=4.0, count=3)
    assert len(evs) == 3
    assert len(calls) <= 26


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


@pytest.mark.parametrize("h", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.37, m=0, sigma=0.5),                         # |m_eff| < 1/2 everywhere
    dict(alpha=1.5, m=0, sigma=-0.5, shell_radius=0.3),       # m_eff = 0 inside the shell
    dict(alpha=-0.5, m=-1, sigma=0.5, shell_radius=1.0),
])
def test_tiled_node_count_matches_the_per_step_count(kwargs, h, monkeypatch):
    # up to E = 40, where count mode's widened window reaches (r_max from its wall)
    prob = ShootingProblem(**kwargs, r_max=math.sqrt(80.0) + 8.0, h=h)
    energies = (-0.3, 0.9, 3.3, 8.7, 17.1, 26.5, 33.9, 40.0)
    fast = [shoot(prob, e) for e in energies]
    monkeypatch.setattr(fluxtube.oracle, "_rk4_region", _scalar_rk4_region)
    ref = [shoot(prob, e) for e in energies]
    assert [n for _, n in fast] == [n for _, n in ref]
    assert fast[-1][1] >= 10
    for (d, _), (d_ref, _), e in zip(fast, ref, energies):
        assert d == pytest.approx(d_ref, rel=1e-9), e


def test_tiled_count_skips_a_sign_flip_of_the_coarse_start(monkeypatch):
    # at h = 0.05 the inner step h/32 is 15.6 _R_START: the first RK4 steps
    # take psi below zero and back, a pair that a sample after every step
    # counts and the tile ends do not; every finer h agrees with the tiles
    energy = 31.774266534543408
    kwargs = dict(alpha=0.37, m=-1, sigma=-0.5, r_max=16.94)
    assert [shoot(ShootingProblem(**kwargs, h=h), energy)[1]
            for h in (0.05, 0.01, 1e-3)] == [32, 32, 32]
    monkeypatch.setattr(fluxtube.oracle, "_rk4_region", _scalar_rk4_region)
    assert shoot(ShootingProblem(**kwargs, h=0.05), energy)[1] == 34


@pytest.mark.parametrize("nsteps", [1, 2, 3, 50, 511, 512, 513, 2047, 2048, 2049, 4097])
@pytest.mark.parametrize("energy, tile", [
    (0.1, fluxtube.oracle._BLOCK),  # Q_max < 0: one tile per block
    (5e4, 1),                       # a step spans more than half the zero spacing
])
def test_region_sweep_matches_the_scalar_loop_at_the_padding_edges(nsteps, energy, tile):
    # a region of every length next to a block or a power of two: padded with
    # identities to whole tiles, it must still step and count like the loop
    r0, ma, sigma = 0.05, 1.0, 0.5
    r1 = r0 + nsteps * 4e-3
    c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
    assert fluxtube.oracle._node_tile(r0, (r1 - r0) / nsteps, ma, c1) == tile
    args = (1.0, 0.3, 0, r0, r1, nsteps, ma, sigma, energy)
    psi, _, log_scale, nodes = fluxtube.oracle._rk4_region(*args)
    psi_ref, _, log_ref, nodes_ref = _scalar_rk4_region(*args)
    assert nodes == nodes_ref
    # D is psi e^log_scale, compared in the log domain (e^log_scale underflows at E = 5e4)
    assert (psi < 0.0) == (psi_ref < 0.0)
    assert math.log(abs(psi)) + log_scale == pytest.approx(
        math.log(abs(psi_ref)) + log_ref, abs=1e-9)


# shoot(problem, E) as (D.hex(), N), frozen from the sweep of 2048-step passes:
# a change to the sweep must leave every shot as it was, bit for bit.  Keys are
# (alpha, m, sigma, shell_radius, r_max, h); at h = 0.2 the node tile is one step.
WALL = math.sqrt(80.0) + 8.0  # the r_max count mode takes for a window up to E = 40
FROZEN_SHOTS = {
    (0.5, 1, 0.5, None, 12.0, 0.001): [
        (-0.3, '0x1.01ce8d0b7ee64p+163', 0),
        (1.3, '0x1.518759de701d0p+152', 0),
        (2.9, '-0x1.ef0d195b5e7c9p+138', 1),
        (5.7, '0x1.6e770cdb9a0bep+121', 4),
    ],
    (-0.5, 0, 0.5, None, WALL, 0.001): [
        (-0.3, '0x1.087fb028646a2p+311', 0),
        (1.3, '-0x1.a730794f23eb6p+295', 1),
        (4.1, '0x1.659d5021cae7ep+274', 4),
        (17.1, '-0x1.ab6d0df8a4192p+211', 17),
        (40.0, '-0x1.d3f7dd1ddb158p+118', 39),
    ],
    (0.5, 0, -0.5, 0.1, 12.0, 0.001): [
        (-0.3, '0x1.0aa396e5d7ea2p+150', 0),
        (1.3, '0x1.5e72e61995947p+138', 2),
        (2.9, '-0x1.76a2af18ba1c6p+128', 3),
        (5.7, '0x1.08ad6805a0400p+116', 6),
    ],
    (1.5, -1, 0.5, 0.3, 12.0, 0.001): [
        (-0.3, '0x1.be9c63c04d838p+159', 0),
        (1.3, '0x1.f3638db48dc21p+146', 0),
        (2.9, '0x1.20935fb1da053p+135', 2),
        (5.7, '0x1.20d35a8791e12p+118', 4),
    ],
    (-0.5, 1, -0.5, 0.3, WALL, 0.001): [
        (-0.3, '0x1.7e9c571accd21p+306', 0),
        (1.3, '-0x1.c5d8a5e4cb402p+291', 1),
        (4.1, '0x1.e40e14aea1aaep+272', 4),
        (17.1, '-0x1.5631efb0dac99p+210', 17),
        (40.0, '0x1.f9efc1c1060b6p+140', 40),
    ],
    (-0.5, -1, 0.5, 1.0, 12.0, 0.001): [
        (-0.3, '0x1.07003d433edcbp+153', 0),
        (1.3, '-0x1.8c813f9509114p+139', 1),
        (2.9, '-0x1.1e5d2a44b2dd2p+127', 3),
        (5.7, '-0x1.60000632df355p+113', 5),
    ],
    (0.37, 0, 0.5, None, WALL, 0.2): [
        (-0.3, '-0x1.fa6b11dfd850fp+309', 1),
        (1.3, '-0x1.55ecebe008896p+293', 1),
        (4.1, '0x1.52db677d192cep+275', 4),
        (17.1, '-0x1.7466c96165de4p+213', 17),
        (40.0, '-0x1.200f8d6883350p+101', 45),
    ],
    (1.5, 0, -0.5, 0.3, WALL, 0.2): [
        (-0.3, '0x1.112d8048a947ep+301', 0),
        (1.3, '-0x1.048a3cc6b41a5p+289', 1),
        (4.1, '0x1.5c0b9fa05490ap+270', 4),
        (17.1, '0x1.6ac1ba3c5e41dp+206', 16),
        (40.0, '0x1.116d00c7ea5e9p+100', 44),
    ],
}



@pytest.mark.parametrize("key", list(FROZEN_SHOTS), ids=str)
def test_shots_are_bit_identical_to_the_frozen_table(key):
    prob = ShootingProblem(*key)
    shots = [(e, *shoot(prob, e)) for e, _, _ in FROZEN_SHOTS[key]]
    assert [(e, d.hex(), n) for e, d, n in shots] == FROZEN_SHOTS[key]


def test_node_tile_is_a_power_of_two_within_half_the_zero_spacing():
    tile_of = fluxtube.oracle._node_tile
    block = fluxtube.oracle._BLOCK
    for r0, ma, sigma, energy in [(0.05, 0.37, 0.5, 40.0), (1e-4, 0.0, -0.5, 2.0),
                                  (0.3, 1.5, -0.5, 9.0), (0.05, -1.0, 0.5, 0.4)]:
        c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
        q_max = -c1 - r0 * r0 + max(0.0, 0.25 - ma * ma) / (r0 * r0)
        half_spacing = 0.5 * math.pi / math.sqrt(q_max)
        for h in (1e-4, 1e-3, 0.01, 0.2, 1.0):
            tile = tile_of(r0, h, ma, c1)
            assert tile & (tile - 1) == 0 and 1 <= tile <= block
            if h > half_spacing:  # no tile is short enough: count after every step
                assert tile == 1
            else:
                assert tile * h <= half_spacing and (tile == block or 2 * tile * h > half_spacing)
    # no oscillation (Q_max <= 0): at most one zero on the region, one tile per block
    assert tile_of(0.5, 0.2, 2.0, 2.0 * 2.0 + 2.0 - 4.0 * 0.1) == block


def test_propagator_memo_holds_one_problem():
    # point flux m = 0, then m = 1: the memo keeps only the regions of the last
    # problem shot (0.93 MB at r_max = 12), not those of both
    problems = [ShootingProblem(alpha=0.5, m=m, sigma=0.5) for m in (0, 1)]
    first = [shoot(p, 1.3) for p in problems]
    memo = fluxtube.oracle._PROPAGATORS
    assert set(memo) == set(fluxtube.oracle._regions(problems[1]))
    assert sum(coef.nbytes for coef in memo.values()) <= 2 ** 20
    assert [shoot(p, 1.3) for p in problems] == first


def _rk4_step_columns(r, h, ma, c1):
    """Reference: one classical RK4 step from r to r + h applied to the unit
    starts (psi, phi) = (1, 0) and (0, 1), in floats of the step formula;
    returns the propagator entries (m00, m01, m10, m11)."""
    hh = 0.5 * h
    h6 = h / 6.0
    rh = r + hh
    rf = r + h
    w, wh, wf = (ma * ma / (x * x) + x * x + c1 for x in (r, rh, rf))
    # (1, 0): q1 = w, p2 = 1
    f2 = hh * w
    q2 = -f2 / rh + wh
    f3 = hh * q2
    q3 = -f3 / rh + wh * (1.0 + hh * f2)
    f4 = h * q3
    q4 = -f4 / rf + wf * (1.0 + h * f3)
    m00, m10 = 1.0 + h6 * (2.0 * f2 + 2.0 * f3 + f4), h6 * (w + 2.0 * q2 + 2.0 * q3 + q4)
    # (0, 1): p2 = h/2
    q1 = -1.0 / r
    f2 = 1.0 + hh * q1
    q2 = -f2 / rh + wh * hh
    f3 = 1.0 + hh * q2
    q3 = -f3 / rh + wh * (hh * f2)
    f4 = 1.0 + h * q3
    q4 = -f4 / rf + wf * (h * f3)
    m01, m11 = h6 * (1.0 + 2.0 * f2 + 2.0 * f3 + f4), 1.0 + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
    return m00, m01, m10, m11


@pytest.mark.parametrize("sigma", [0.5, -0.5])
def test_propagator_polynomials_match_the_rk4_step(sigma):
    # inner regions at m_eff = 0 and 3.5, the shell region [0.05, 2.5] and
    # the outer region [2.5, 16]
    shell = ShootingProblem(alpha=3.5, m=0, sigma=sigma, shell_radius=2.5, r_max=16.0)
    point = ShootingProblem(alpha=3.5, m=0, sigma=sigma, r_max=16.0)
    regions = fluxtube.oracle._regions(shell) + fluxtube.oracle._regions(point)[:1]
    assert [ma for *_, ma in regions] == [0.0, 0.0, 3.5, 3.5]
    for r0, r1, nsteps, ma in regions:
        k = fluxtube.oracle._propagator_coefficients(r0, r1, nsteps, ma)
        h = (r1 - r0) / nsteps
        r = r0 + np.arange(nsteps) * h
        for energy in (-0.3, 1.7, 9.0):
            c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
            k2 = h ** 4 / 24.0 * c1 * c1  # the c1^2 term of m00 and m11
            terms = [(k[0], k[1] * c1, k2), (k[2], k[3] * c1),
                     (k[4], k[5] * c1, k[6] * c1 * c1), (k[7], k[8] * c1, k2)]
            for entry, ref in zip(terms, _rk4_step_columns(r, h, ma, c1)):
                # m10 crosses zero at the turning point: scale by the largest term
                scale = np.max(np.abs(np.broadcast_arrays(*entry)), axis=0)
                assert np.all(np.abs(sum(entry) - ref) <= 4e-15 * scale), (r0, ma, energy)


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
    with pytest.raises(ValueError, match="orbital number m must be an integer"):
        ShootingProblem(alpha=0.0, m=0.5, sigma=0.5)
    landau = ShootingProblem(alpha=0.0, m=0, sigma=0.5)
    with pytest.raises(ValueError):
        oracle_eigenvalues(landau, e_min=2.0, e_max=1.0)
    for window in ((-0.3, math.nan), (math.nan, 6.0), (-0.3, math.inf), (-math.inf, 6.0)):
        with pytest.raises(ValueError, match="energy window must be finite"):
            oracle_eigenvalues(landau, *window)
    for count in (0, -1):
        with pytest.raises(ValueError, match="count must be >= 1"):
            oracle_eigenvalues(landau, count=count)


def _imported_modules(module) -> set[str]:
    """The modules a source file imports; relative ones keep their dots."""
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracle_module_is_independent():
    """The oracle must not import the special-function or matching machinery
    it is used to cross-check (dual-route checks would otherwise collapse)."""
    allowed = {"__future__", "math", "dataclasses", "numpy", "fluxtube._brent"}
    assert _imported_modules(fluxtube.oracle) <= allowed
    # the shared root finder is stdlib only, so the oracle's imports stop at numpy
    assert _imported_modules(fluxtube._brent) == {"__future__", "math"}
