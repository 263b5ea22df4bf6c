"""Exact spectrum of a charged spin-1/2 particle in a field pierced by a flux tube.

Magnetic units: the uniform field B > 0 sets the length lambda =
sqrt(2 hbar / |e| B) and the energy hbar omega (omega = |e| B / M); the tube
carries flux alpha in units of the flux quantum.  For a state with orbital
number m and spin projection sigma = +-1/2, the closed-form levels are

    alpha > 0 (spin-up regular):   E = n + 1 + (|m+alpha| + m + alpha)/2
    alpha < 0 (spin-down regular): E = n     + (|m+alpha| + m + alpha)/2

with n >= 0 radial nodes.  The opposite spin component is generated by the
supercharges (same energy, m shifted by one, spin flipped), plus a family
of zero modes at E = 0 for the spin anti-aligned with the field, which
exists only while it is square integrable (m + alpha < 1 for alpha > 0).

Alpha = 0 is accepted everywhere and treated as the limit alpha -> 0+,
which reproduces the ordinary Landau levels with their degeneracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "FluxConfig",
    "StateLabel",
    "EigenState",
    "MagneticUnits",
    "VacancyComparison",
    "energy_regular",
    "enumerate_states",
    "vacancy_line_compare",
    "magnetic_units",
]

_TAGS = ("regular", "superpartner", "zero_mode")

# CODATA 2018 (h and e exact by SI definition)
_HBAR = 1.054571817e-34  # J s
_E_CHARGE = 1.602176634e-19  # C
_M_ELECTRON = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class FluxConfig:
    """Problem configuration: tube flux ``alpha`` in units of the flux quantum."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

    @property
    def regular_sigma(self) -> float:
        """Spin component whose states are regular at the origin (repelled one)."""
        return 0.5 if self.alpha >= 0.0 else -0.5

    @property
    def attracted_sigma(self) -> float:
        """Spin component that sees the attractive contact term (2*sigma*alpha < 0)."""
        return -self.regular_sigma


@dataclass(frozen=True)
class StateLabel:
    """Quantum numbers (n, m, sigma) plus the construction tag of a state."""

    n: int
    m: int
    sigma: float
    tag: str = "regular"

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"radial number n must be a nonnegative integer, got {self.n!r}")
        if self.m != int(self.m):
            raise ValueError(f"orbital number m must be an integer, got {self.m!r}")
        if self.sigma not in (0.5, -0.5):
            raise ValueError(f"sigma must be +-0.5, got {self.sigma!r}")
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}, got {self.tag!r}")


@dataclass(frozen=True)
class EigenState:
    """A labelled eigenstate with its exact energy and spectral parameter.

    ``xi`` is the index of the radial solution within the confluent
    hypergeometric family, xi = (|m+alpha| + m + alpha + 1 + 2 sigma)/2 - E,
    evaluated with the state's own (m, sigma); regular states have xi = -n
    exactly.  ``norm_const`` is the positive constant that L2-normalizes the
    closed radial form:  sqrt(n! / (pi Gamma(|m+alpha| + n + 1))) for regular
    states, 1/sqrt(pi Gamma(1 - m - alpha)) for zero modes, and E^{-1/2} —
    the factor applied to the supercharge image of the normalized source —
    for superpartners.
    """

    label: StateLabel
    energy: float
    xi: float
    norm_const: float


@dataclass(frozen=True)
class MagneticUnits:
    """SI values of the magnetic units at a given field strength."""

    b_tesla: float
    lambda_m: float          # unit of length, sqrt(2 hbar / |e| B)
    hbar_omega_joule: float  # unit of energy, hbar |e| B / M
    hbar_omega_mev: float    # same, in milli-electronvolt


@dataclass(frozen=True)
class VacancyComparison:
    """Spectra under the two origin boundary conditions, and their difference.

    ``missing_under_vanishing`` lists the states present with the
    regular-at-origin condition but absent when eigenfunctions are forced to
    vanish at the origin: exactly the family whose radial exponent |m+alpha|
    is zero for the spin component repelled by the contact term.
    ``pairing_notes`` records, as text, the superpartners left unpaired by
    each excluded state (their presence is unchanged; only the pairing is).
    """

    alpha: float
    regular_condition: tuple[EigenState, ...]
    vanishing_condition: tuple[EigenState, ...]
    missing_under_vanishing: tuple[EigenState, ...]
    pairing_notes: tuple[str, ...] = field(default_factory=tuple)


def _energy_fraction(n: int, m: int, alpha_f: Fraction) -> Fraction:
    """Exact rational energy of the regular branch (alpha >= 0 uses the +1 offset)."""
    shift = abs(m + alpha_f) + (m + alpha_f)
    base = Fraction(n) + shift / 2
    return base + 1 if alpha_f >= 0 else base


def energy_regular(n: int, m: int, alpha: float) -> float:
    """Energy of the regular-at-origin state (n, m) for tube flux alpha.

    The regular branch carries sigma = +1/2 for alpha >= 0 and sigma = -1/2
    for alpha < 0 (the component repelled by the contact term).  Exact
    rational arithmetic internally, so degeneracies are exact.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return float(_energy_fraction(int(n), int(m), Fraction(alpha)))


def _norm_regular(n: int, am: float) -> float:
    """sqrt(n! / (pi Gamma(am + n + 1))) with am = |m + alpha|."""
    return math.exp(0.5 * (math.lgamma(n + 1.0) - math.lgamma(am + n + 1.0))) / math.sqrt(math.pi)


def _norm_zero_mode(ma: float) -> float:
    """1/sqrt(pi Gamma(1 - ma)) with ma = m + alpha < 1."""
    return 1.0 / math.sqrt(math.pi * math.exp(math.lgamma(1.0 - ma)))


def enumerate_states(cfg: FluxConfig, e_max: float,
                     m_min: int, m_max: int) -> list[EigenState]:
    """All eigenstates with energy <= e_max and orbital number in [m_min, m_max].

    Includes the regular branch, the superpartner branch (each enumerated by
    the state's *own* m — a partner whose source sits just outside the window
    is still listed), and the zero modes.  Sorted by (energy asc, m asc,
    sigma desc) using exact rational energies, so the order is deterministic
    even across exact degeneracies.
    """
    if m_max < m_min:
        raise ValueError(f"empty m window: [{m_min}, {m_max}]")
    alpha = cfg.alpha
    alpha_f = Fraction(alpha)
    e_max_f = Fraction(e_max)
    sigma_reg = cfg.regular_sigma
    out: list[tuple[Fraction, int, float, EigenState]] = []

    def push(state: EigenState, e_frac: Fraction) -> None:
        out.append((e_frac, state.label.m, -state.label.sigma, state))

    for m in range(m_min, m_max + 1):
        am = abs(m + alpha)

        # regular branch (for alpha < 0 its n=0, m+alpha<=0 members sit at E=0:
        # those are the zero modes and get the explicit tag)
        n = 0
        while True:
            e_frac = _energy_fraction(n, m, alpha_f)
            if e_frac > e_max_f:
                break
            tag = "zero_mode" if e_frac == 0 else "regular"
            xi = float(-n)
            norm = _norm_zero_mode(m + alpha) if tag == "zero_mode" else _norm_regular(n, am)
            push(EigenState(StateLabel(n, m, sigma_reg, tag), float(e_frac), xi, norm), e_frac)
            n += 1

        # superpartner branch: spin flipped, source one orbital step away
        m_src = m - 1 if alpha >= 0 else m + 1
        n = 0
        while True:
            e_frac = _energy_fraction(n, m_src, alpha_f)
            if e_frac > e_max_f:
                break
            if e_frac > 0:  # zero-energy sources are annihilated, no partner
                e = float(e_frac)
                xi_f = (abs(m + alpha_f) + m + alpha_f + 1 + 2 * Fraction(-sigma_reg)) / 2 - e_frac
                state = EigenState(StateLabel(n, m, -sigma_reg, "superpartner"),
                                   e, float(xi_f), 1.0 / math.sqrt(e))
                push(state, e_frac)
            n += 1

        # zero modes for alpha >= 0 (sigma = -1/2, square integrable iff m+alpha < 1)
        if alpha >= 0 and m + alpha < 1.0 and 0 <= e_max_f:
            xi_f = (abs(m + alpha_f) + m + alpha_f) / 2
            push(EigenState(StateLabel(0, m, -0.5, "zero_mode"), 0.0, float(xi_f),
                            _norm_zero_mode(m + alpha)), Fraction(0))

    out.sort(key=lambda row: row[:3])
    return [row[3] for row in out]


def vacancy_line_compare(alpha: float, e_max: float,
                         m_min: int, m_max: int) -> VacancyComparison:
    """Spectra under the regular-at-origin vs vanishing-at-origin conditions.

    At integer alpha the channel m = -alpha has radial exponent |m+alpha| = 0
    for the repelled spin component; such states approach a nonzero constant
    at the origin, so demanding that eigenfunctions vanish there deletes the
    whole family — a vacancy line in the (E, m + sigma) plane.  The physical
    (regular-at-origin) condition keeps them.

    ``alpha`` must be integer-valued; for non-integer flux the exponent
    |m+alpha| never vanishes and there is nothing to compare.
    """
    if alpha != int(alpha):
        raise ValueError(f"vacancy line exists only at integer alpha, got {alpha!r}")
    cfg = FluxConfig(alpha)
    full = enumerate_states(cfg, e_max, m_min, m_max)
    sigma_rep = cfg.regular_sigma
    m_line = int(-alpha)

    def excluded(s: EigenState) -> bool:
        return s.label.sigma == sigma_rep and s.label.m == m_line

    kept = tuple(s for s in full if not excluded(s))
    missing = tuple(s for s in full if excluded(s))
    notes = []
    dm = 1 if alpha >= 0 else -1
    for s in missing:
        notes.append(
            f"partner (n={s.label.n}, m={s.label.m + dm}, sigma={-s.label.sigma:+.1f}, "
            f"E={s.energy:g}) loses its pairing source on the m+alpha=0 line"
        )
    return VacancyComparison(alpha, tuple(full), kept, missing, tuple(notes))


def magnetic_units(b_tesla: float) -> MagneticUnits:
    """SI sizes of the magnetic length and energy units at field B (electron mass).

    lambda = sqrt(2 hbar / |e| B) is sqrt(2) times the conventional magnetic
    length, and hbar omega = hbar |e| B / M is the cyclotron quantum.  At
    B = 1 T: lambda = 3.62826e-8 m, hbar omega = 1.85480e-23 J = 0.11577 meV.
    """
    if b_tesla <= 0.0:
        raise ValueError(f"field strength must be positive, got {b_tesla!r}")
    lam = math.sqrt(2.0 * _HBAR / (_E_CHARGE * b_tesla))
    e_j = _HBAR * _E_CHARGE * b_tesla / _M_ELECTRON
    return MagneticUnits(b_tesla, lam, e_j, e_j / _E_CHARGE * 1e3)
