"""Closed-form spectrum: checked against an independent re-enumeration.

The cross-check below builds the spectrum from the radial-exponent rule
alone: each channel (m, sigma) contributes the tower

    E = (e + m + alpha)/2 + (1 + 2 sigma)/2 + n,     n = 0, 1, 2, ...

with boundary exponent e = |m+alpha| in the spin component repelled by the
flux, and e = -(m+alpha) (resp. +(m+alpha)) in the attracted component
wherever that exponent stays normalizable (> -1).  This never touches the
package's source-and-partner bookkeeping, so agreement is a real check and
not a tautology.
"""

import math
from fractions import Fraction

import pytest

from fluxtube import (
    FluxConfig,
    ShootingProblem,
    StateLabel,
    TubeModel,
    energy_regular,
    enumerate_states,
    magnetic_units,
    vacancy_line_compare,
)
from fluxtube.specfun import DomainError, laguerre, laguerre_deriv

HBAR = 1.054571817e-34
E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31


def brute_force_spectrum(alpha, e_max, m_min, m_max):
    """Re-enumerate (n, m, sigma, tag, E) from the exponent rule; see module docstring."""
    af = Fraction(alpha)
    ef = Fraction(e_max)
    s_reg = 0.5 if alpha >= 0 else -0.5
    out = set()
    for m in range(m_min, m_max + 1):
        ma = m + af
        # repelled spin: regular exponent only
        base = (abs(ma) + ma) / 2 + Fraction(1, 2) + Fraction(s_reg)
        n = 0
        while base + n <= ef:
            e = base + n
            tag = "zero_mode" if e == 0 else "regular"
            out.add((n, m, s_reg, tag, float(e)))
            n += 1
        # attracted spin: irregular exponent wherever normalizable
        if alpha >= 0:
            e_att = -ma if ma < 1 else ma          # -(m+a) kept while > -1
            base = (e_att + ma) / 2                # sigma = -1/2
        else:
            e_att = ma if ma > -1 else -ma         # +(m+a) kept while > -1
            base = (e_att + ma) / 2 + 1            # sigma = +1/2
        # partners inherit n from the repelled-spin tower one orbital over,
        # whose base offset follows from the same exponent rule
        ma_src = ma - 1 if alpha >= 0 else ma + 1
        base_src = (abs(ma_src) + ma_src) / 2 + Fraction(1, 2) + Fraction(s_reg)
        n = 0
        while base + n <= ef:
            e = base + n
            if e == 0:
                out.add((0, m, -s_reg, "zero_mode", 0.0))
            else:
                out.add((int(e - base_src), m, -s_reg, "superpartner", float(e)))
            n += 1
    return out


def as_tuple_set(states):
    return {(s.label.n, s.label.m, s.label.sigma, s.label.tag, s.energy)
            for s in states}


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5, 1.0, -1.0, 1.75, -1.25, 0.1])
def test_enumeration_matches_exponent_rule(alpha):
    states = enumerate_states(FluxConfig(alpha), 4.2, -5, 5)
    assert as_tuple_set(states) == brute_force_spectrum(alpha, 4.2, -5, 5)


def test_all_energies_nonnegative():
    for alpha in (0.7, -0.7, 2.5, -2.5):
        for s in enumerate_states(FluxConfig(alpha), 6.0, -8, 8):
            assert s.energy >= 0.0


def test_sorted_deterministically():
    cfg = FluxConfig(0.5)
    a = enumerate_states(cfg, 5.0, -6, 6)
    b = enumerate_states(cfg, 5.0, -6, 6)
    assert a == b
    # energy ascending; ties broken by (m asc, sigma desc)
    for s, t in zip(a, a[1:]):
        key_s = (s.energy, s.label.m, -s.label.sigma)
        key_t = (t.energy, t.label.m, -t.label.sigma)
        assert key_s <= key_t


def test_xi_label_consistency():
    """xi must equal (|m+a| + m + a + 1 + 2 sigma)/2 - E for every state."""
    for alpha in (0.5, -0.5, 1.75):
        for s in enumerate_states(FluxConfig(alpha), 5.0, -5, 5):
            ma = s.label.m + alpha
            xi = (abs(ma) + ma + 1.0 + 2.0 * s.label.sigma) / 2.0 - s.energy
            assert s.xi == pytest.approx(xi, abs=1e-12)
            if s.label.tag == "regular":
                assert s.xi == -s.label.n


def test_zero_mode_set_alpha_positive():
    states = enumerate_states(FluxConfig(0.5), 3.0, -6, 6)
    zm = {(s.label.n, s.label.m, s.label.sigma)
          for s in states if s.label.tag == "zero_mode"}
    # normalizable iff m + alpha < 1  ->  m <= 0
    assert zm == {(0, m, -0.5) for m in range(-6, 1)}
    for s in states:
        if s.label.tag == "zero_mode":
            assert s.energy == 0.0
            want = 1.0 / math.sqrt(math.pi * math.gamma(1.0 - s.label.m - 0.5))
            assert s.norm_const == pytest.approx(want, rel=1e-13)


def test_zero_mode_set_alpha_negative():
    # for alpha < 0 the zero modes are the E = 0 members of the regular branch
    states = enumerate_states(FluxConfig(-0.5), 3.0, -6, 6)
    zm = {(s.label.n, s.label.m, s.label.sigma)
          for s in states if s.label.tag == "zero_mode"}
    assert zm == {(0, m, -0.5) for m in range(-6, 1)}


def test_superpartner_pairing_exact():
    """Each regular E > 0 state is paired with an opposite-spin state at the
    same energy and neighboring m; each superpartner has such a source."""
    alpha = 0.5
    states = enumerate_states(FluxConfig(alpha), 5.0, -7, 7)
    index = as_tuple_set(states)
    for s in states:
        n, m, sg, tag, e = s.label.n, s.label.m, s.label.sigma, s.label.tag, s.energy
        if tag == "regular" and m <= 6:
            assert (n, m + 1, -0.5, "superpartner", e) in index
        if tag == "superpartner" and m >= -6:
            assert (n, m - 1, 0.5, "regular", e) in index
        if tag == "superpartner":
            assert s.norm_const == pytest.approx(e ** -0.5, rel=1e-14)


@pytest.mark.parametrize("eps", [1e-9, -1e-9])
def test_spectrum_continuous_at_zero_flux(eps):
    """The (m, sigma)-resolved eigenvalue lists move by O(|alpha|) near 0.

    The branch labels flip wholesale when alpha changes sign (which spin is
    repelled flips), so continuity is a statement about energies, not tags.
    """
    e_max = 3.4  # away from the integer Landau energies
    window = range(-4, 5)
    ref = enumerate_states(FluxConfig(0.0), e_max, -4, 4)
    per = enumerate_states(FluxConfig(eps), e_max, -4, 4)

    def channel_energies(states):
        ch = {(m, sg): [] for m in window for sg in (0.5, -0.5)}
        for s in states:
            ch[(s.label.m, s.label.sigma)].append(s.energy)
        return {k: sorted(v) for k, v in ch.items()}

    a, b = channel_energies(ref), channel_energies(per)
    for key in a:
        assert len(a[key]) == len(b[key]), key
        for x, y in zip(a[key], b[key]):
            assert abs(x - y) <= 2e-9


def test_energy_regular_spot_values():
    assert energy_regular(0, 0, 0.5) == 1.5
    assert energy_regular(2, -3, 0.5) == 3.0
    assert energy_regular(1, 2, -0.5) == 2.5
    assert energy_regular(0, -1, -0.5) == 0.0   # a zero mode of the regular branch
    assert energy_regular(3, 0, 0.0) == 4.0


def test_energy_regular_rejects_bad_n():
    with pytest.raises(ValueError):
        energy_regular(-1, 0, 0.5)
    with pytest.raises(ValueError):
        energy_regular(1.5, 0, 0.5)


def test_enumerate_rejects_empty_window():
    with pytest.raises(ValueError):
        enumerate_states(FluxConfig(0.5), 3.0, 2, -2)


def test_flux_config_sigma_assignment():
    assert FluxConfig(0.5).regular_sigma == 0.5
    assert FluxConfig(0.0).regular_sigma == 0.5
    assert FluxConfig(-0.5).regular_sigma == -0.5
    assert FluxConfig(0.5).attracted_sigma == -0.5
    assert FluxConfig(-0.5).attracted_sigma == 0.5


# --- vacancy line at integer flux ------------------------------------------

def test_vacancy_line_alpha_one():
    comp = vacancy_line_compare(1.0, 4.5, -5, 5)
    missing = {(s.label.n, s.label.m, s.label.sigma, s.energy)
               for s in comp.missing_under_vanishing}
    # exactly the repelled-spin family on m + alpha = 0, E = n + 1
    assert missing == {(n, -1, 0.5, float(n + 1)) for n in range(4)}
    assert (0, -1, 0.5, 1.0) in missing
    kept = {(s.label.n, s.label.m, s.label.sigma, s.energy)
            for s in comp.vanishing_condition}
    full = {(s.label.n, s.label.m, s.label.sigma, s.energy)
            for s in comp.regular_condition}
    assert kept == full - missing
    assert len(comp.pairing_notes) == len(missing)


def test_vacancy_line_alpha_two():
    comp = vacancy_line_compare(2.0, 3.5, -6, 6)
    for s in comp.missing_under_vanishing:
        assert s.label.m == -2
        assert s.label.sigma == 0.5
        assert abs(s.label.m + 2.0) == 0.0  # exponent |m+alpha| vanishes
    assert {s.energy for s in comp.missing_under_vanishing} == {1.0, 2.0, 3.0}


def test_vacancy_rejects_noninteger_flux():
    with pytest.raises(ValueError):
        vacancy_line_compare(0.5, 3.0, -3, 3)


# --- SI unit conversions -----------------------------------------------------

def test_magnetic_units_internal_identity():
    for b in (0.3, 1.0, 7.5):
        u = magnetic_units(b)
        # lambda^2 |e| B / (2 hbar) = 1 by construction of the length unit
        assert u.lambda_m ** 2 * E_CHARGE * b / (2.0 * HBAR) == pytest.approx(1.0, rel=1e-14)
        assert u.hbar_omega_joule == pytest.approx(HBAR * E_CHARGE * b / M_ELECTRON, rel=1e-14)
        assert u.hbar_omega_mev == pytest.approx(u.hbar_omega_joule / E_CHARGE * 1e3, rel=1e-14)


def test_magnetic_units_one_tesla_frozen():
    u = magnetic_units(1.0)
    assert u.b_tesla == 1.0
    assert u.lambda_m == pytest.approx(3.6282556595e-8, rel=1e-10)
    assert u.hbar_omega_joule == pytest.approx(1.8548020145e-23, rel=1e-10)
    assert u.hbar_omega_mev == pytest.approx(0.11576763605, rel=1e-9)


def test_magnetic_units_scaling_laws():
    one, four = magnetic_units(1.0), magnetic_units(4.0)
    assert four.lambda_m == pytest.approx(one.lambda_m / 2.0, rel=1e-15)
    assert four.hbar_omega_joule == pytest.approx(4.0 * one.hbar_omega_joule, rel=1e-15)


def test_state_label_is_hashable_and_frozen():
    lab = StateLabel(0, 1, 0.5, "regular")
    assert hash(lab) == hash(StateLabel(0, 1, 0.5, "regular"))
    with pytest.raises(AttributeError):
        lab.n = 2


# --- family constructors and input checks --------------------------------------

@pytest.mark.parametrize("alpha", [-1.2, -0.5, 0.0, 0.5, 1.5])
def test_enumeration_lists_the_family_constructors_states(alpha):
    cfg = FluxConfig(alpha)
    for s in enumerate_states(cfg, 6.0, -4, 4):
        n, m = s.label.n, s.label.m
        if s.label.tag == "superpartner":
            assert cfg.superpartner(n, m) == s
        elif s.label.sigma == cfg.regular_sigma:
            assert cfg.regular(n, m) == s
        if s.label.tag == "zero_mode":
            assert cfg.zero_mode(m) == s


def test_family_constructors_refuse_absent_states():
    with pytest.raises(ValueError, match="no partner"):
        FluxConfig(-0.5).superpartner(0, -1)   # source (0, 0) is a zero mode
    with pytest.raises(ValueError, match="regular at the origin"):
        FluxConfig(-0.5).zero_mode(1)
    with pytest.raises(ValueError, match="square integrability"):
        FluxConfig(0.5).zero_mode(1)


def test_state_label_stores_integers():
    label = StateLabel(2.0, -1.0, 0.5)
    assert (type(label.n), type(label.m)) == (int, int)
    assert FluxConfig(0.1).regular(2.0, 1.0) == FluxConfig(0.1).regular(2, 1)


INTEGER_CHECKS = {
    "StateLabel n": (lambda x: StateLabel(x, 0, 0.5), ValueError),
    "StateLabel m": (lambda x: StateLabel(0, x, 0.5), ValueError),
    "TubeModel m": (lambda x: TubeModel(0.3, 0.5, x, 0.5), ValueError),
    "ShootingProblem m": (lambda x: ShootingProblem(alpha=0.5, m=x, sigma=0.5), ValueError),
    "vacancy_line_compare alpha": (lambda x: vacancy_line_compare(x, 3.0, -2, 2), ValueError),
    "laguerre n": (lambda x: laguerre(x, 0.5, 1.0), DomainError),
    "laguerre_deriv n": (lambda x: laguerre_deriv(x, 0.5, 1.0), DomainError),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(INTEGER_CHECKS))
def test_integer_checks_reject_non_finite_values(name, value):
    build, error = INTEGER_CHECKS[name]
    with pytest.raises(error):
        build(value)


@pytest.mark.parametrize("call", [
    lambda: enumerate_states(FluxConfig(0.5), math.inf, 0, 0),
    lambda: enumerate_states(FluxConfig(0.5), math.nan, 0, 0),
    lambda: energy_regular(0, 0, math.inf),
    lambda: energy_regular(0, 0, math.nan),
    lambda: magnetic_units(math.nan),
    lambda: magnetic_units(math.inf),
], ids=["enumerate e_max=inf", "enumerate e_max=nan", "energy alpha=inf",
        "energy alpha=nan", "units B=nan", "units B=inf"])
def test_non_finite_inputs_are_value_errors(call):
    with pytest.raises(ValueError):
        call()
