"""Radial profiles: normalization, SUSY algebra, and eigen-equation residuals.

The Hamiltonian residual check uses finite differences on the analytic
closed form, so it verifies the eigenfunctions against the differential
operator itself rather than against any identity used to build them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxtube import (
    LOWER,
    RAISE,
    FluxConfig,
    apply_supercharge,
    enumerate_states,
    hamiltonian_residual,
    inner_product,
    psi_regular,
    psi_zero_mode,
)
from fluxtube.specfun import laguerre
from fluxtube.wavefunction import (
    NonNormalizableError,
    SpinSelectionError,
    ZeroEnergyError,
)

REGULAR_CASES = [
    # (n, m, alpha)
    (0, 0, 0.5), (1, 0, 0.5), (2, 0, 0.5), (0, 3, 0.5), (2, -2, 0.5),
    (0, 0, -0.5), (1, -1, -0.5), (3, 2, -0.5), (1, 1, 1.75), (2, -4, -1.25),
    (0, 0, 0.0), (4, -1, 0.0),
    (6, 0, 0.5), (8, -1, 0.5), (10, 2, -0.5),
]

ZERO_MODE_CASES = [
    # (m, alpha); normalizable iff m + alpha < 1
    (0, 0.5), (-3, 0.5), (-1, 0.9), (0, 0.0), (0, -0.5), (-2, -1.25),
]


@pytest.mark.parametrize("n,m,alpha", REGULAR_CASES)
def test_regular_states_are_normalized(n, m, alpha):
    prof = psi_regular(n, m, alpha)
    assert inner_product(prof, prof) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m,alpha", ZERO_MODE_CASES)
def test_zero_modes_are_normalized(m, alpha):
    prof = psi_zero_mode(m, alpha)
    assert prof.energy == 0.0
    assert prof.label.sigma == -0.5
    assert prof.exponent == -(m + alpha)
    assert inner_product(prof, prof) == pytest.approx(1.0, abs=1e-8)


def test_orthogonality_within_and_across_channels():
    a = psi_regular(0, 1, 0.5)
    b = psi_regular(1, 1, 0.5)
    c = psi_regular(2, 1, 0.5)
    assert abs(inner_product(a, b)) < 1e-12
    assert abs(inner_product(a, c)) < 1e-12
    assert abs(inner_product(b, c)) < 1e-12
    # high n: the quadrature rule grows with the degrees of the two states
    tower = [psi_regular(n, 0, 0.5) for n in range(11)]
    for n, p in enumerate(tower):
        for q in tower[n + 1:]:
            assert abs(inner_product(p, q)) < 1e-12
    # different m or sigma: orthogonal by the angular/spinor integral, exactly
    assert inner_product(a, psi_regular(0, 2, 0.5)) == 0.0
    assert inner_product(a, psi_zero_mode(0, 0.5)) == 0.0


def test_zero_mode_orthogonal_to_partner_tower():
    """The E=0 state and the E>0 partner states share (m, sigma) and the same
    divergent r^{-1/2} behavior, yet must be orthogonal as eigenstates."""
    zm = psi_zero_mode(0, 0.5)
    src = psi_regular(0, -1, 0.5)
    partner = apply_supercharge(src, RAISE)
    assert partner.label.m == zm.label.m
    assert partner.label.sigma == zm.label.sigma
    assert partner.exponent == pytest.approx(zm.exponent)
    assert abs(inner_product(zm, partner)) < 1e-12


def test_values_match_analytic_on_grid():
    prof = psi_regular(2, -1, 0.5)
    np.testing.assert_allclose(prof.values, prof.analytic(prof.grid), rtol=0, atol=0)


@pytest.mark.parametrize("prof_builder,expected_e", [
    (lambda: psi_regular(0, 2, 0.5), 2.5),
    (lambda: psi_regular(1, -3, 0.5), 2.5),
    (lambda: psi_zero_mode(0, 0.5), -0.5),
    (lambda: psi_zero_mode(-2, 0.5), 1.5),
    (lambda: apply_supercharge(psi_regular(0, -1, 0.5), RAISE), -0.5),
])
def test_small_r_power_law(prof_builder, expected_e):
    """Fit the leading exponent from log psi / log r near the origin."""
    prof = prof_builder()
    assert prof.exponent == pytest.approx(expected_e)
    r = np.geomspace(1e-6, 1e-5, 5)
    slope = np.polyfit(np.log(r), np.log(np.abs(prof.analytic(r))), 1)[0]
    assert slope == pytest.approx(expected_e, abs=1e-6)


def test_first_excited_node_location():
    # reduced factor of n=1 is proportional to 1 + a - z: node at r = sqrt(1+a)
    prof = psi_regular(1, 0, 0.5)
    r_node = math.sqrt(1.5)
    assert prof.analytic(r_node) == pytest.approx(0.0, abs=1e-15)
    assert prof.analytic(r_node - 0.1) * prof.analytic(r_node + 0.1) < 0.0


def test_analytic_deriv_matches_finite_difference():
    h = 1e-6
    for prof in (psi_regular(2, 1, 0.5), psi_zero_mode(0, 0.5),
                 apply_supercharge(psi_regular(1, 0, 0.5), RAISE)):
        for r in (0.4, 1.1, 2.7):
            fd = (prof.analytic(r + h) - prof.analytic(r - h)) / (2.0 * h)
            assert prof.analytic_deriv(r) == pytest.approx(fd, rel=1e-7, abs=1e-10)


# --- supercharge algebra -----------------------------------------------------

def test_supercharge_maps_labels_and_energy():
    src = psi_regular(1, 2, 0.5)        # sigma = +1/2, E = 3.5
    img = apply_supercharge(src, RAISE)
    assert img.label.m == 3
    assert img.label.sigma == -0.5
    assert img.label.tag == "superpartner"
    assert img.label.n == src.label.n
    assert img.energy == src.energy


@pytest.mark.parametrize("n,m,alpha", [(0, 0, 0.5), (1, 0, 0.5), (2, -2, 0.5),
                                       (0, 3, 0.5), (1, 1, 1.75), (6, -2, 0.5),
                                       (8, -1, 0.5), (10, 1, 1.75)])
def test_supercharge_image_is_normalized(n, m, alpha):
    img = apply_supercharge(psi_regular(n, m, alpha), RAISE)
    assert inner_product(img, img) == pytest.approx(1.0, abs=1e-10)


def test_supercharge_norm_identity():
    """||Q^dag psi||^2 = E ||psi||^2 — the defining SUSY factorization."""
    for n, m, alpha in [(0, 0, 0.5), (2, -1, 0.5), (1, 2, -0.5)]:
        src = psi_regular(n, m, alpha)
        direction = RAISE if src.label.sigma == 0.5 else LOWER
        img = apply_supercharge(src, direction, normalized=False)
        assert inner_product(img, img) == pytest.approx(src.energy, abs=1e-8)


def test_supercharge_round_trip_recovers_source():
    for n, m, alpha in [(0, 0, 0.5), (1, -2, 0.5), (2, 1, -0.5)]:
        src = psi_regular(n, m, alpha)
        up = RAISE if src.label.sigma == 0.5 else LOWER
        down = LOWER if up == RAISE else RAISE
        back = apply_supercharge(apply_supercharge(src, up), down)
        assert back.label == src.label   # the image of a superpartner is its source
        assert back.energy == src.energy
        np.testing.assert_allclose(back.values, src.values, rtol=0, atol=1e-9)


def test_zero_modes_annihilated_by_both_charges():
    for m, alpha in [(0, 0.5), (-2, 0.5), (0, -0.5)]:
        zm = psi_zero_mode(m, alpha)
        for direction in (RAISE, LOWER):
            img = apply_supercharge(zm, direction, normalized=False)
            assert np.max(np.abs(img.values)) <= 1e-10
            assert np.max(np.abs(img.analytic(np.linspace(0.1, 5.0, 50)))) <= 1e-10


def test_zero_energy_normalization_refused():
    zm = psi_zero_mode(0, 0.5)
    with pytest.raises(ZeroEnergyError):
        apply_supercharge(zm, LOWER)
    with pytest.raises(ZeroEnergyError):
        apply_supercharge(zm, RAISE)
    # alpha < 0: the E = 0 members of the regular branch behave the same way
    reg0 = psi_regular(0, -1, -0.5)
    assert reg0.energy == 0.0
    with pytest.raises(ZeroEnergyError):
        apply_supercharge(reg0, LOWER)


def test_wrong_spin_at_positive_energy_is_loud():
    src = psi_regular(1, 0, 0.5)   # sigma = +1/2
    with pytest.raises(SpinSelectionError):
        apply_supercharge(src, LOWER)
    partner = apply_supercharge(src, RAISE)   # sigma = -1/2
    with pytest.raises(SpinSelectionError):
        apply_supercharge(partner, RAISE)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        apply_supercharge(psi_regular(0, 0, 0.5), "sideways")


def test_zero_mode_construction_guards():
    with pytest.raises(NonNormalizableError):
        psi_zero_mode(1, 0.5)          # m + alpha = 1.5
    with pytest.raises(NonNormalizableError):
        psi_zero_mode(1, 0.0)          # boundary case m + alpha = 1
    with pytest.raises(ValueError):
        psi_zero_mode(1, -0.5)         # alpha < 0 with m + alpha > 0


@pytest.mark.parametrize("call", [
    lambda: psi_zero_mode(0, math.nan),
    lambda: psi_zero_mode(0, math.inf),
    lambda: psi_zero_mode(0, -math.inf),
    lambda: psi_regular(0, 0, math.nan),
    lambda: psi_regular(math.inf, 0, 0.5),
    lambda: psi_regular(0, math.inf, 0.5),
], ids=["zero alpha=nan", "zero alpha=inf", "zero alpha=-inf", "regular alpha=nan",
        "regular n=inf", "regular m=inf"])
def test_non_finite_inputs_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


def test_regular_construction_guards():
    with pytest.raises(ValueError):
        psi_regular(-1, 0, 0.5)
    with pytest.raises(ValueError):
        psi_regular(0, 0, 0.5, r_max=3.0)  # decay region would be cut off


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="npoints"):
        psi_regular(0, 0, 0.5, npoints=0)


# --- eigen-equation residuals -------------------------------------------------

RESIDUAL_CASES = [
    lambda: psi_regular(0, 0, 0.5),
    lambda: psi_regular(3, -2, 0.5),
    lambda: psi_regular(2, 2, -0.5),
    lambda: psi_zero_mode(0, 0.5),
    lambda: psi_zero_mode(-1, -0.5),
    lambda: apply_supercharge(psi_regular(0, -1, 0.5), RAISE),
    lambda: apply_supercharge(psi_regular(2, 0, 0.5), RAISE),
    lambda: apply_supercharge(psi_regular(1, 1, -0.5), LOWER),
]


@pytest.mark.parametrize("builder", RESIDUAL_CASES)
def test_hamiltonian_residual_small_for_eigenstates(builder):
    assert hamiltonian_residual(builder()) <= 1e-7


def test_hamiltonian_residual_detects_perturbation():
    prof = psi_regular(0, 0, 0.5)
    spoiled = replace(
        prof, reduced=lambda z: prof.reduced(z) * (1.0 + 0.01 * np.sqrt(z)))
    assert hamiltonian_residual(spoiled) > 1e-3


# --- one home for each state ----------------------------------------------------

SAME_STATE_ALPHAS = (-0.3, -0.5, -0.7, -1.2, -1.9, -2.5, -0.123)


@pytest.mark.parametrize("alpha", SAME_STATE_ALPHAS)
def test_alpha_negative_zero_mode_is_one_profile(alpha):
    """psi_regular(0, m) and psi_zero_mode(m) name the same state: same bits."""
    for m in range(-5, 3):
        if m + alpha > 0:
            continue
        reg, zm = psi_regular(0, m, alpha), psi_zero_mode(m, alpha)
        assert reg.label == zm.label
        assert reg.exponent.hex() == zm.exponent.hex()
        assert np.array_equal(reg.values, zm.values)
        assert reg.reduced(0.0).hex() == zm.reduced(0.0).hex()


def _profiles_of(state, alpha):
    """Every builder of a regular or zero-mode state, each one of its profiles."""
    n, m = state.label.n, state.label.m
    if state.label.tag == "regular":
        return [psi_regular(n, m, alpha)]
    if alpha < 0:
        return [psi_regular(0, m, alpha), psi_zero_mode(m, alpha)]
    return [psi_zero_mode(m, alpha)]


@pytest.mark.parametrize("alpha", [-1.2, -0.5, 0.0, 0.5, 1.5])
def test_profiles_carry_the_spectrum_norm_const(alpha):
    for s in enumerate_states(FluxConfig(alpha), 6.0, -4, 4):
        if s.label.tag == "superpartner":
            continue
        ma = abs(s.label.m + alpha)
        for prof in _profiles_of(s, alpha):
            assert (prof.label, prof.energy) == (s.label, s.energy)
            assert prof.reduced(0.0) == s.norm_const * laguerre(s.label.n, ma, 0.0)


@pytest.mark.parametrize("alpha", [-1.2, -0.5, 0.0, 0.5, 1.5])
def test_superpartner_images_carry_the_spectrum_state(alpha):
    cfg = FluxConfig(alpha)
    z = np.linspace(0.0, 9.0, 19)
    for s in enumerate_states(cfg, 6.0, -4, 4):
        if s.label.tag != "superpartner":
            continue
        dm = 1 if alpha >= 0 else -1
        src = psi_regular(s.label.n, s.label.m - dm, alpha)
        direction = RAISE if src.label.sigma == 0.5 else LOWER
        image = apply_supercharge(src, direction)
        raw = apply_supercharge(src, direction, normalized=False)
        assert (image.label, image.energy) == (s.label, s.energy)
        assert np.array_equal(image.reduced(z), s.norm_const * raw.reduced(z))
