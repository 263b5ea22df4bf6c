"""Radial eigenfunctions, supercharge maps, and quadrature utilities.

Every profile here has the exact closed form

    psi(r) = g(r^2) * r^e * exp(-r^2 / 2),

where ``e`` is the leading exponent at the origin and ``g`` is a smooth
("reduced") factor — a Laguerre polynomial for regular states, a constant
for zero modes, and a first-order polynomial combination of the source's
``g`` for supercharge images.  Carrying ``g`` separately instead of the bare
wavefunction keeps inner products exactly representable as

    <psi1|psi2> = pi * int_0^inf z^gamma e^-z g1(z) g2(z) dz,
    gamma = (e1 + e2) / 2,

which a generalized Gauss–Laguerre rule with weight z^gamma e^-z integrates
exactly for polynomial g1 g2 — including the zero modes, whose exponents lie
in (-1, 0), because the singular factor lives in the weight.  It also avoids
every overflow/underflow pitfall of reconstructing e^{+z} factors.

Derivatives used in the supercharge images are analytic (Laguerre
derivative identities); no numerical differentiation enters any result
path.  The Hamiltonian residual check, by contrast, deliberately uses
4th-order finite differences so that it is an independent verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .specfun import gauss_laguerre, laguerre, laguerre_deriv
from .spectrum import EigenState, FluxConfig, NonNormalizableError, StateLabel

__all__ = [
    "NonNormalizableError",
    "ZeroEnergyError",
    "SpinSelectionError",
    "RadialProfile",
    "psi_regular",
    "psi_zero_mode",
    "apply_supercharge",
    "inner_product",
    "hamiltonian_residual",
]

RAISE = "raise_Qdag"
LOWER = "lower_Q"

# Hamiltonian residual stencil: finite-difference step, grid start, distance
# kept from the end of the profile grid, and number of check points.
_RESID_H = 1e-3
_RESID_R_LO = 0.2
_RESID_MARGIN = 2.0
_RESID_NPTS = 241


class ZeroEnergyError(ValueError):
    """Normalized supercharge image of a zero-energy state (would divide by sqrt E)."""


class SpinSelectionError(ValueError):
    """Supercharge applied to the spin component it annihilates identically."""


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A radial eigenfunction psi(r) = reduced(r^2) * r^exponent * exp(-r^2/2).

    ``values`` holds psi on ``grid`` (both 1-D, grid strictly positive and
    increasing).  ``reduced`` is the smooth factor g; ``reduced_deriv`` and
    ``reduced_deriv2`` are dg/dz and d^2g/dz^2 where available (each
    supercharge image drops one, so images chain at most twice).  g is a
    polynomial in z of degree at most ``label.n + 1``: chained images
    alternate the charges, and only ``raise_Qdag`` adds a degree.
    """

    label: StateLabel
    energy: float
    alpha: float
    exponent: float
    grid: np.ndarray
    values: np.ndarray
    reduced: Callable
    reduced_deriv: Callable | None
    reduced_deriv2: Callable | None

    def analytic(self, r):
        """psi(r) for scalar or array r > 0."""
        r = np.asarray(r, dtype=float)
        z = r * r
        out = self.reduced(z) * r ** self.exponent * np.exp(-0.5 * z)
        return float(out) if out.ndim == 0 else out

    def analytic_deriv(self, r):
        """dpsi/dr, using the analytic reduced-factor derivative."""
        if self.reduced_deriv is None:
            raise ValueError("this profile does not carry an analytic derivative")
        r = np.asarray(r, dtype=float)
        z = r * r
        g = self.reduced(z)
        gp = self.reduced_deriv(z)
        out = np.exp(-0.5 * z) * (
            self.exponent * r ** (self.exponent - 1.0) * g
            + r ** (self.exponent + 1.0) * (2.0 * gp - g)
        )
        return float(out) if out.ndim == 0 else out


def _zero(z):
    """The identically vanishing reduced factor (and its derivatives)."""
    return 0.0 * np.asarray(z, dtype=float)


def _default_grid(energy: float, r_max: float | None, npoints: int) -> np.ndarray:
    if npoints < 1:
        raise ValueError(f"npoints must be >= 1, got {npoints!r}")
    if r_max is None:
        r_max = math.sqrt(2.0 * max(energy, 0.0)) + 10.0
    lo = math.sqrt(2.0 * max(energy, 0.0)) + 8.0
    if r_max < lo:
        raise ValueError(f"r_max={r_max} too small; decay region needs >= {lo:.3f}")
    return np.linspace(0.0, r_max, npoints + 1)[1:]


def _laguerre_profile(state: EigenState, alpha: float, exponent: float,
                      r_max: float | None, npoints: int) -> RadialProfile:
    """state's profile N r^e e^{-r^2/2} L_n^{(e)}(r^2), N its ``norm_const``."""
    n, norm = state.label.n, state.norm_const
    g = lambda z: norm * laguerre(n, exponent, z)
    gp = lambda z: norm * laguerre_deriv(n, exponent, z)
    if n >= 2:
        gpp = lambda z: norm * laguerre(n - 2, exponent + 2.0, z)
    else:
        gpp = _zero
    grid = _default_grid(state.energy, r_max, npoints)
    prof = RadialProfile(state.label, state.energy, alpha, exponent, grid,
                         np.empty(0), g, gp, gpp)
    return replace(prof, values=prof.analytic(grid))


def psi_regular(n: int, m: int, alpha: float, *,
                r_max: float | None = None, npoints: int = 800) -> RadialProfile:
    """Normalized regular-at-origin eigenfunction (n radial nodes, orbital m).

    psi = N r^{|m+alpha|} e^{-r^2/2} L_n^{|m+alpha|}(r^2), normalized as
    int |psi|^2 2 pi r dr = 1, with the label, energy and N of
    ``FluxConfig(alpha).regular(n, m)``.  For alpha < 0 its E = 0 members
    are the zero modes: the same values as ``psi_zero_mode(m, alpha)``.
    """
    state = FluxConfig(alpha).regular(n, m)
    return _laguerre_profile(state, alpha, abs(state.label.m + alpha), r_max, npoints)


def psi_zero_mode(m: int, alpha: float, *,
                  r_max: float | None = None, npoints: int = 800) -> RadialProfile:
    """Normalized zero-energy mode psi = N r^{-(m+alpha)} e^{-r^2/2} (spin down).

    Label and N are those of ``FluxConfig(alpha).zero_mode(m)``, which
    raises NonNormalizableError or ValueError where no zero mode exists.
    A state has one normalization constant, so for alpha < 0 this is the
    same profile as ``psi_regular(0, m, alpha)``.
    """
    state = FluxConfig(alpha).zero_mode(m)
    # 0.0 - x, not -x: at m + alpha = 0 the exponent is 0.0, as psi_regular's, not -0.0
    return _laguerre_profile(state, alpha, 0.0 - (state.label.m + alpha), r_max, npoints)


def apply_supercharge(profile: RadialProfile, direction: str, *,
                      normalized: bool = True) -> RadialProfile:
    """Image of a profile under a supercharge, as a closed-form profile.

    ``direction`` is ``"raise_Qdag"`` (acts on sigma = +1/2, yields
    (m+1, -1/2); radial action (1/2)(-d/dr + (m+alpha)/r + r)) or
    ``"lower_Q"`` (acts on sigma = -1/2, yields (m-1, +1/2); radial action
    (1/2)(+d/dr + (m+alpha)/r + r)).  The charges map a regular state and
    its superpartner onto each other; the image carries the label and
    energy of that partner in ``FluxConfig(alpha)``.  With
    ``normalized=True`` the result is scaled by the superpartner's
    ``norm_const``, E^{-1/2}, so supercharge images of normalized
    eigenstates stay normalized and applying the opposite charge recovers
    the original profile exactly.

    Raises
    ------
    ZeroEnergyError
        If ``normalized=True`` and E = 0.  Zero modes can still be pushed
        through unnormalized: both charges annihilate them (the lowering
        charge's radial action vanishes identically, the raising charge
        kills them through the spin structure), and the result is an
        exactly-zero profile.
    SpinSelectionError
        If the profile has E > 0 and its spin is the one the charge
        annihilates through the spin structure (asking for that image is
        almost certainly a caller bug, so it is loud rather than zero).
    """
    if direction == RAISE:
        s = -1.0
        need_sigma, dm = 0.5, +1
    elif direction == LOWER:
        s = +1.0
        need_sigma, dm = -0.5, -1
    else:
        raise ValueError(f"direction must be {RAISE!r} or {LOWER!r}, got {direction!r}")

    src = profile.label
    if profile.energy == 0.0:
        if normalized:
            raise ZeroEnergyError("cannot normalize a supercharge image at E = 0 "
                                  "(zero modes are annihilated, not paired)")
        label = StateLabel(src.n, src.m + dm, -src.sigma, "superpartner")
        return RadialProfile(label, 0.0, profile.alpha, profile.exponent + 1.0,
                             profile.grid, np.zeros_like(profile.grid), _zero, _zero, _zero)
    if src.sigma != need_sigma:
        raise SpinSelectionError(
            f"{direction} annihilates sigma={src.sigma:+.1f} states "
            "through the spin structure; only the opposite spin has a radial image")
    if profile.reduced_deriv is None:
        raise ValueError("source profile lacks an analytic derivative; cannot chain further")

    # the charge maps a regular state and its superpartner onto each other
    cfg = FluxConfig(profile.alpha)
    if src.tag == "superpartner":
        partner = cfg.superpartner(src.n, src.m)
        image = cfg.regular(src.n, src.m + dm)
    else:
        partner = image = cfg.superpartner(src.n, src.m + dm)
    factor = partner.norm_const if normalized else 1.0

    ma = src.m + profile.alpha
    e = profile.exponent
    g, gp, gpp = profile.reduced, profile.reduced_deriv, profile.reduced_deriv2
    coef = s * e + ma  # coefficient of the r^{e-1} component of the image

    if abs(coef) > 1e-12:
        new_e = e - 1.0
        new_g = lambda z: 0.5 * factor * (coef * g(z) + z * ((1.0 - s) * g(z) + 2.0 * s * gp(z)))
        if gpp is not None:
            new_gp = lambda z: 0.5 * factor * (coef * gp(z) + (1.0 - s) * (g(z) + z * gp(z))
                                               + 2.0 * s * (gp(z) + z * gpp(z)))
        else:
            new_gp = None
    else:
        new_e = e + 1.0
        new_g = lambda z: 0.5 * factor * ((1.0 - s) * g(z) + 2.0 * s * gp(z))
        if gpp is not None:
            new_gp = lambda z: 0.5 * factor * ((1.0 - s) * gp(z) + 2.0 * s * gpp(z))
        else:
            new_gp = None

    prof = RadialProfile(image.label, image.energy, profile.alpha, new_e, profile.grid,
                         np.empty(0), new_g, new_gp, None)
    return replace(prof, values=prof.analytic(profile.grid))


def inner_product(p1: RadialProfile, p2: RadialProfile) -> float:
    """2-D radial inner product int_0^inf psi1 psi2 2 pi r dr.

    Profiles in different angular or spin channels are orthogonal by the
    angular/spinor integration: that case returns exactly 0.0 without
    quadrature.  Otherwise the z = r^2 substitution reduces the integral to
    the weight z^gamma e^-z with gamma = (e1 + e2)/2 > -1, and g1 g2 has
    degree at most n1 + n2 + 2 (see ``RadialProfile``), which the
    (n1 + n2 + 2)-point generalized Gauss–Laguerre rule integrates exactly.
    """
    if p1.label.m != p2.label.m or p1.label.sigma != p2.label.sigma:
        return 0.0
    gamma = 0.5 * (p1.exponent + p2.exponent)
    if gamma <= -1.0:
        raise NonNormalizableError(
            f"inner product diverges at the origin (z-weight exponent {gamma})")
    z, w = gauss_laguerre(p1.label.n + p2.label.n + 2, gamma)
    return math.pi * float(np.dot(w, p1.reduced(z) * p2.reduced(z)))


def hamiltonian_residual(profile: RadialProfile) -> float:
    """max_r |H psi - E psi| over an interior grid, via 4th-order stencils.

    H is the radial Hamiltonian of the (m, sigma) channel,

        H = -(1/4)(d^2/dr^2 + (1/r) d/dr)
            + (m+alpha)^2/(4 r^2) + (m+alpha)/2 + r^2/4 + sigma,

    with derivatives taken numerically (5-point, O(h^4)) from the profile's
    analytic evaluator — an independent check that deliberately avoids the
    analytic derivative closures.  The step is ``_RESID_H`` and the
    ``_RESID_NPTS`` grid points span [_RESID_R_LO, r_max - _RESID_MARGIN] to
    stay away from the origin power law and the underflow tail.
    """
    h = _RESID_H
    r_hi = float(profile.grid[-1]) - _RESID_MARGIN
    if r_hi <= _RESID_R_LO:
        raise ValueError("profile grid too short for an interior residual check")
    r = np.linspace(_RESID_R_LO, r_hi, _RESID_NPTS)
    f = profile.analytic
    fm2, fm1, f0, fp1, fp2 = (f(r - 2 * h), f(r - h), f(r), f(r + h), f(r + 2 * h))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    ma = profile.label.m + profile.alpha
    v = ma * ma / (4.0 * r * r) + 0.5 * ma + 0.25 * r * r + profile.label.sigma
    resid = -0.25 * (d2 + d1 / r) + (v - profile.energy) * f0
    return float(np.max(np.abs(resid)))
