"""Finite-size flux tube: shell matching, its roots, and the shrinking limit.

The singular point flux is regularized by spreading the same total flux on
an infinitesimally thin shell of radius R.  Inside the shell there is no
flux, so the regular solution carries the bare angular number m:

    psi_in(r)  = r^{|m|}      e^{-r^2/2} M(xi_in,  |m|+1,       r^2),
    xi_in  = (|m| + m + 1 + 2 sigma)/2 - E,

while outside the full m + alpha acts and the decaying solution is

    psi_out(r) = r^{|m+alpha|} e^{-r^2/2} U(xi_out, |m+alpha|+1, r^2),
    xi_out = (|m+alpha| + m + alpha + 1 + 2 sigma)/2 - E.

The shell's delta-function magnetic moment term produces a derivative jump

    psi'(R+) - psi'(R-) = (2 sigma alpha / R) psi(R),

so an eigenvalue is a zero (in E, or equivalently in xi_out) of

    F(E) = psi_out'(R) - psi_in'(R) psi_out(R)/psi_in(R)
           - (2 sigma alpha / R) psi_out(R).

Root scanning uses the pole-free cross form W = F * psi_in(R) =
psi_out' psi_in - psi_in' psi_out - (2 sigma alpha / R) psi_out psi_in,
which is entire in E.  As R -> 0 the roots xi_n approach the nonpositive
integers -n, reproducing the point-flux spectrum; `xi_limit_table` tabulates
that migration, optionally cross-checked against the shooting oracle.

`find_xi_roots` scans W down a fixed grid in xi.  Every grid point shares
the inside solution's (b, z) = (|m| + 1, R^2), so before the scan starts
one array call of `inside_solution` (one `kummer_m_pair` pass over the
grid's a) gives psi_in at all of them, each value the scalar call's bit for
bit.  psi_out takes one `kummer_u_pair` call a point, only as far as the
scan goes.  M grows like e^(R^2), so the scan reaches shells up to about
R = 26.5 and raises ConvergenceError beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq
from .specfun import kummer_m_pair, kummer_u_pair

__all__ = [
    "TubeModel",
    "MatchResult",
    "LimitRow",
    "inside_solution",
    "outside_solution",
    "matching_wronskian",
    "find_xi_roots",
    "xi_limit_table",
    "XI_TOL",
]

# Root scan in xi: step between cross-form samples, and brentq tolerance.
_XI_STEP = 0.02
XI_TOL = 1e-13


@dataclass(frozen=True)
class TubeModel:
    """A flux shell of radius R in the channel (m, sigma) with total flux alpha."""

    radius: float
    alpha: float
    m: int
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"shell radius must be finite and positive, got {self.radius!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not float(self.m).is_integer():
            raise ValueError(f"orbital number m must be an integer, got {self.m!r}")
        if self.sigma not in (0.5, -0.5):
            raise ValueError(f"sigma must be +0.5 or -0.5, got {self.sigma!r}")

    @property
    def xi_offset(self) -> float:
        """C such that xi_out = C - E."""
        ma = self.m + self.alpha
        return 0.5 * (abs(ma) + ma + 1.0 + 2.0 * self.sigma)

    def xi_from_energy(self, energy: float) -> float:
        return self.xi_offset - energy

    def energy_from_xi(self, xi: float) -> float:
        return self.xi_offset - xi


def inside_solution(model: TubeModel, energy: float | np.ndarray, r: float) -> tuple:
    """(psi_in, dpsi_in/dr) of the interior regular solution at radius r.

    ``energy`` may be a 1-D array: one ``kummer_m_pair`` pass then gives the
    pair at every energy as two arrays, each element equal to the scalar
    call's value bit for bit.
    """
    am = abs(float(model.m))
    b = am + 1.0
    a = 0.5 * (am + model.m + 1.0 + 2.0 * model.sigma) - energy
    z = r * r
    m0, dm = kummer_m_pair(a, b, z)
    ez = math.exp(-0.5 * z)
    val = r ** am * ez * m0
    der = ez * (am * r ** (am - 1.0) * m0 + r ** (am + 1.0) * (2.0 * dm - m0))
    return val, der


def outside_solution(model: TubeModel, energy: float, r: float) -> tuple[float, float]:
    """(psi_out, dpsi_out/dr) of the exterior decaying solution at radius r.

    One ``kummer_u_pair`` call gives U and dU/dz, so the derivative needs no
    second U: dpsi_out/dr carries 2 dU/dz in place of -2a U(a+1, b+1, r^2).
    """
    ma = model.m + model.alpha
    am = abs(ma)
    b = am + 1.0
    a = model.xi_from_energy(energy)
    z = r * r
    u0, du = kummer_u_pair(a, b, z)
    ez = math.exp(-0.5 * z)
    val = r ** am * ez * u0
    der = ez * (am * r ** (am - 1.0) * u0 + r ** (am + 1.0) * (2.0 * du - u0))
    return val, der


def matching_wronskian(model: TubeModel, energy: float) -> tuple[float, float]:
    """(W, scale): pole-free cross form and the sum of its term magnitudes."""
    r = model.radius
    return _cross_form(model, *inside_solution(model, energy, r),
                       *outside_solution(model, energy, r))


def _cross_form(model: TubeModel, vi: float, di: float, vo: float,
                do: float) -> tuple[float, float]:
    """(W, scale) from the inside and outside pairs at the shell."""
    jump = 2.0 * model.sigma * model.alpha / model.radius
    t1 = do * vi
    t2 = -di * vo
    t3 = -jump * vo * vi
    return t1 + t2 + t3, abs(t1) + abs(t2) + abs(t3)


@dataclass(frozen=True)
class MatchResult:
    """One shell eigenvalue: root of the matching condition."""

    xi: float
    energy: float
    radius: float
    bracket: tuple[float, float]
    iterations: int
    residual: float  # |W| / sum |term|; O(1) at large-shell roots: no pass/fail flag


def _xi_floor(model: TubeModel, n_max: int) -> float:
    """1.7 below the n_max-th level of both limits, xi = -n and xi_inf - n."""
    xi_inf = 0.5 * (abs(model.m + model.alpha) - abs(model.m) + model.alpha)
    return min(0.0, xi_inf) - n_max - 1.7


def find_xi_roots(model: TubeModel, n_max: int = 2) -> list[MatchResult]:
    """The matching roots xi_0 > xi_1 > ... > xi_{n_max}, scanning downward.

    Starts below every possible level (at the xi of E = -0.3) and walks
    down in steps of ``_XI_STEP``, refining every sign change of the cross
    form with brentq to ``XI_TOL``.  Roots come out ordered by decreasing
    xi = increasing energy.  In the channel that carries the regular tower
    (sigma matching the sign of alpha, and the repelled spin for alpha > 0)
    the n-th entry is the shell counterpart of the point-flux level with
    xi = -n; in the attracted channel the list instead starts with the
    pinned zero mode where one exists.  The scan stops 1.7 below the n_max-th
    level of both limits, xi = -n (R -> 0) and the interior levels xi_inf - n
    (R -> inf); fewer results mean fewer sign changes above that floor.

    The grid, each point the one above less ``_XI_STEP``, is known before
    the scan starts, down to its first point at or below the floor, and
    every point shares M's (b, z) = (|m| + 1, R^2).  So one array call of
    ``inside_solution`` gives psi_in at all of them up front, bit for bit
    the scalar values, while psi_out takes one scalar call a point, only as
    far as the scan goes.  Brent's points between grid points take the
    scalar ``matching_wronskian``, and the (W, scale) of every point is kept
    for brentq's bracket ends and the residual.  M leaves double range near
    z = 700, so shells wider than about R = 26.5 raise ConvergenceError, at
    the first grid point where it does.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n_roots = n_max + 1
    xi_floor = _xi_floor(model, n_max)
    grid = [model.xi_offset + 0.3]
    while grid[-1] > xi_floor:
        grid.append(grid[-1] - _XI_STEP)
    r = model.radius
    with np.errstate(over="ignore", invalid="ignore"):  # silent inf and nan, as in float arithmetic
        vi, di = (v.tolist() for v in inside_solution(model, model.xi_offset - np.array(grid), r))

    pairs: dict[float, tuple[float, float]] = {}  # xi -> (W, scale): none is evaluated twice

    def w_pair(xi: float) -> tuple[float, float]:
        if xi not in pairs:
            pairs[xi] = matching_wronskian(model, model.energy_from_xi(xi))
        return pairs[xi]

    def w_of_xi(xi: float) -> float:
        return w_pair(xi)[0]

    results: list[MatchResult] = []
    for j, xi_cur in enumerate(grid):
        pairs[xi_cur] = _cross_form(model, vi[j], di[j],
                                    *outside_solution(model, model.energy_from_xi(xi_cur), r))
        w_cur = pairs[xi_cur][0]
        if j and (w_prev == 0.0 or (w_cur != 0.0 and (w_prev < 0.0) != (w_cur < 0.0))):
            if w_prev == 0.0:
                root, iters = xi_prev, 0
            else:
                root, iters = brentq(w_of_xi, xi_cur, xi_prev, xtol=XI_TOL)
            w, scale = w_pair(root)
            residual = abs(w) / scale if scale > 0.0 else abs(w)
            results.append(MatchResult(root, model.energy_from_xi(root), r,
                                       (xi_cur, xi_prev), iters, residual))
            if len(results) == n_roots:
                break
        xi_prev, w_prev = xi_cur, w_cur
    return results


@dataclass(frozen=True)
class LimitRow:
    """One (R, n) cell of the shrinking-shell table."""

    radius: float
    n: int
    xi: float | None
    energy: float | None
    deviation: float | None  # xi - (-n), signed
    residual: float | None
    oracle_energy: float | None = None
    oracle_diff: float | None = None
    note: str = ""


def xi_limit_table(m: int, sigma: float, alpha: float, radii, n_max: int = 2, *,
                   verify: bool = False) -> list[LimitRow]:
    """Migration of the shell roots toward the point-flux tower as R shrinks.

    For each shell radius the first ``n_max + 1`` roots are tabulated with
    their deviation xi_n + n from the limit.  The xi = -n tower is the
    structure of the channel carrying the regular point-flux branch (sigma
    matching the sign of alpha); in the attracted channel the limit set
    mixes zero modes and superpartner levels, so there the deviation column
    is reported but is not expected to shrink.  ``verify=True`` asks the
    independent shooting oracle for the first ``n_max + 1`` energies (count
    mode, from a window up to the energy of ``find_xi_roots``' floor) and
    reports the differences (slower: one oracle search per radius).
    """
    rows: list[LimitRow] = []
    for radius in radii:
        model = TubeModel(radius, alpha, m, sigma)
        roots = find_xi_roots(model, n_max=n_max)
        if verify:
            from .oracle import ShootingProblem, oracle_eigenvalues

            e_hi = model.energy_from_xi(_xi_floor(model, n_max))
            # past the shell; the oracle extends r_max past the levels' decay
            problem = ShootingProblem(alpha=alpha, m=m, sigma=sigma,
                                      shell_radius=radius, r_max=radius + 2.0)
            oracle_evs = oracle_eigenvalues(problem, e_max=e_hi, count=n_max + 1)
        for n in range(n_max + 1):
            if n >= len(roots):
                rows.append(LimitRow(radius, n, None, None, None, None,
                                     note="root not found"))
                continue
            res = roots[n]
            o_e = oracle_evs[n] if verify else None
            o_d = res.energy - o_e if verify else None
            rows.append(LimitRow(radius, n, res.xi, res.energy,
                                 res.xi + n, res.residual, o_e, o_d))
    return rows
