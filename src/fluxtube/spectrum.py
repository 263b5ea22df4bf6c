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
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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


class NonNormalizableError(ValueError):
    """The requested state is not square integrable."""


@dataclass(frozen=True)
class FluxConfig:
    """Problem configuration: tube flux ``alpha`` in units of the flux quantum.

    It is the one place that decides which states exist and what they are:
    ``regular``, ``zero_mode`` and ``superpartner`` return one state of each
    family with its label, energy, xi and normalization constant, and
    ``enumerate_states`` and the wavefunction builders use them.
    """

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

    def regular(self, n: int, m: int) -> EigenState:
        """The regular-at-origin state (n, m), spin ``regular_sigma``.

        For alpha < 0 its E = 0 members (n = 0, m + alpha <= 0) are the
        zero modes, and this returns ``zero_mode(m)``.
        """
        label = StateLabel(n, m, self.regular_sigma)
        e = self._tower_energy(label.n, label.m)
        if e == 0:
            return self.zero_mode(label.m)
        am = abs(label.m + self.alpha)
        log_norm = 0.5 * (math.lgamma(label.n + 1.0) - math.lgamma(am + label.n + 1.0))
        return EigenState(label, float(e), float(-label.n),
                          math.exp(log_norm) / math.sqrt(math.pi))

    def zero_mode(self, m: int) -> EigenState:
        """The E = 0 state of orbital m, spin down, psi ~ r^{-(m+alpha)}.

        It exists while square integrable, m + alpha < 1 (NonNormalizableError
        otherwise), and for alpha < 0, where spin down is the regular
        component, while m + alpha <= 0 (ValueError otherwise).
        """
        label = StateLabel(0, m, -0.5, "zero_mode")
        ma = label.m + self.alpha
        if ma >= 1.0:
            raise NonNormalizableError(
                f"zero mode needs m + alpha < 1 for square integrability, got {ma}")
        if self.alpha < 0 and ma > 0:
            raise ValueError(
                "for alpha < 0 the spin-down component is regular at the origin; "
                f"no zero mode exists at m + alpha = {ma} > 0")
        xi = max(label.m + self._alpha_f, 0)
        return EigenState(label, 0.0, float(xi),
                          1.0 / math.sqrt(math.pi * math.exp(math.lgamma(1.0 - ma))))

    def superpartner(self, n: int, m: int) -> EigenState:
        """The spin-flipped partner (n, m) of the regular state one orbital step away.

        It has that source's energy E and the constant E^{-1/2}; a source at
        E = 0 is annihilated and has no partner (ValueError).
        """
        label = StateLabel(n, m, self.attracted_sigma, "superpartner")
        e = self._tower_energy(label.n, self._source_m(label.m))
        if e == 0:
            raise ValueError(f"the source of {label} has E = 0 and no partner")
        # xi = (|m+alpha| + m + alpha + 1 + 2 sigma)/2 - E = max(m + alpha, 0) + sigma + 1/2 - E
        xi = max(label.m + self._alpha_f, 0) + round(label.sigma + 0.5) - e
        energy = float(e)
        return EigenState(label, energy, float(xi), 1.0 / math.sqrt(energy))

    @cached_property
    def _alpha_f(self) -> Fraction:
        """alpha as an exact rational, converted once per configuration."""
        return Fraction(self.alpha)

    def _source_m(self, m: int) -> int:
        """Orbital number of the regular state whose partner sits at m."""
        return m - 1 if self.alpha >= 0 else m + 1

    def _tower_energy(self, n: int, m: int) -> Fraction:
        """Exact energy of the regular state (n, m): n + max(m + alpha, 0), +1 if alpha >= 0."""
        return (n + 1 if self.alpha >= 0 else n) + max(m + self._alpha_f, 0)


@dataclass(frozen=True)
class StateLabel:
    """Quantum numbers (n, m, sigma) plus the construction tag of a state; n, m stored as ints."""

    n: int
    m: int
    sigma: float
    tag: str = "regular"

    def __post_init__(self):
        if not (float(self.n).is_integer() and self.n >= 0):
            raise ValueError(f"radial number n must be a nonnegative integer, got {self.n!r}")
        if not float(self.m).is_integer():
            raise ValueError(f"orbital number m must be an integer, got {self.m!r}")
        # exact energies need int arithmetic, also when a caller passes 2.0
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
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
    for superpartners.  Each state has exactly one such constant: the
    ``FluxConfig`` methods that build states choose it, and the radial
    profiles of ``fluxtube.wavefunction`` are scaled by this same float.
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


def energy_regular(n: int, m: int, alpha: float) -> float:
    """Energy of ``FluxConfig(alpha).regular(n, m)``, exact before rounding,
    so degeneracies are exact."""
    return FluxConfig(alpha).regular(n, m).energy


def enumerate_states(cfg: FluxConfig, e_max: float,
                     m_min: int, m_max: int) -> list[EigenState]:
    """All eigenstates with energy <= e_max and orbital number in [m_min, m_max].

    Includes the regular branch, the superpartner branch (each enumerated by
    the state's *own* m — a partner whose source sits just outside the window
    is still listed), and the zero modes.  Sorted by (energy asc, m asc,
    sigma desc) using exact rational energies, so the order is deterministic
    even across exact degeneracies.
    """
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max!r}")
    if m_max < m_min:
        raise ValueError(f"empty m window: [{m_min}, {m_max}]")
    e_max_f = Fraction(e_max)
    rows: list[tuple[Fraction, EigenState]] = []
    for m in range(m_min, m_max + 1):
        # regular branch (for alpha < 0 its E = 0 members are the zero modes)
        n = 0
        while (e := cfg._tower_energy(n, m)) <= e_max_f:
            rows.append((e, cfg.regular(n, m)))
            n += 1

        # superpartner branch: spin flipped, source one orbital step away
        n = 0
        while (e := cfg._tower_energy(n, cfg._source_m(m))) <= e_max_f:
            if e > 0:  # zero-energy sources are annihilated, no partner
                rows.append((e, cfg.superpartner(n, m)))
            n += 1

        # zero modes of the attracted spin (alpha >= 0), where normalizable
        if cfg.alpha >= 0 and e_max_f >= 0:
            with suppress(NonNormalizableError):
                rows.append((0, cfg.zero_mode(m)))

    rows.sort(key=lambda row: (row[0], row[1].label.m, -row[1].label.sigma))
    return [state for _, state in rows]


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
    if not float(alpha).is_integer():
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
    if not (math.isfinite(b_tesla) and b_tesla > 0.0):
        raise ValueError(f"field strength must be positive and finite, got {b_tesla!r}")
    lam = math.sqrt(2.0 * _HBAR / (_E_CHARGE * b_tesla))
    e_j = _HBAR * _E_CHARGE * b_tesla / _M_ELECTRON
    return MagneticUnits(b_tesla, lam, e_j, e_j / _E_CHARGE * 1e3)
