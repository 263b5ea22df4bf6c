"""Independent eigenvalue oracle: direct radial shooting, no special functions.

This module deliberately shares no code with the closed-form machinery it
checks.  The radial equation

    psi'' + psi'/r = 4 (V_eff(r) - E) psi,
    V_eff = m_eff^2/(4 r^2) + m_eff/2 + r^2/4 + sigma,

is integrated outward by fixed-step classical RK4 from a two-term Frobenius
start psi = r^k (1 + a1 r^2), k = |m_eff(0)|, a1 = (2 m_eff + 4 sigma - 4E)
/ (4k + 4).  For a flux shell of radius R the angular number is m inside
and m + alpha outside, with the derivative jump

    psi'(R+) - psi'(R-) = (2 sigma alpha / R) psi(R)

applied exactly at the shell (the integration grid lands on R exactly).
Without a shell the point-flux problem uses m + alpha everywhere, which
shoots along the regular branch r^{|m+alpha|}.

The decay defect D(E) = psi(r_max) e^{+r_max^2/4} (up to a positive
renormalization bookkeeping factor) measures the admixture of the growing
solution; its zeros in E are the eigenvalues.  The first 0.05 of the range
is integrated at a 32-fold finer step because the 1/r terms are stiff near
the origin.

The equation is linear in (psi, phi = psi'), so one RK4 step is a 2x2
propagator matrix M_i(E).  The propagators of a few thousand steps are
built at once in numpy, from the step formula applied to both unit start
vectors, and chained within blocks of _BLOCK steps into the prefix products
M_j ... M_0 by a work-efficient up/down sweep; these give psi after every
step for the node count.  (psi, phi) is carried from block to block and
renormalized once per block, so the amplitudes never leave floating-point
range.

Levels are found by node counting, not on an energy grid: by the Sturm
oscillation theorem the number N(E) of sign changes of psi on (0, r_max] is
the number of zeros of D below E, and D(E) has the sign (-1)^N(E).
Bisection on N gives each level a bracket of its own, across which brentq
refines D (J. D. Pryce, Numerical Solution of Sturm-Liouville Problems, 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

__all__ = ["ShootingProblem", "shoot", "oracle_eigenvalues"]

# Integration grid, shared by every problem: the Frobenius start radius, the
# edge of the stiff inner region and its step refinement.  RK4 steps are
# chained in blocks of _BLOCK (a power of two) between renormalizations, and
# _PASS steps are built and chained at once.
_R_START = 1e-4
_INNER_EDGE = 0.05
_INNER_REFINE = 32
_BLOCK = 512
_PASS = 4 * _BLOCK
_E_TOL = 1e-12  # absolute brentq tolerance on each eigenvalue


@dataclass(frozen=True)
class ShootingProblem:
    """One radial channel to shoot: flux alpha, orbital m, spin sigma.

    ``shell_radius`` switches between the point-flux problem (None: the
    flux enters only through m + alpha) and the shell-regularized problem
    (flux spread on a shell at that radius).  ``h`` is the outer RK4 step;
    integration starts at ``_R_START`` and the region up to ``_INNER_EDGE``
    runs at h / ``_INNER_REFINE``.
    """

    alpha: float
    m: int
    sigma: float
    shell_radius: float | None = None
    r_max: float = 12.0
    h: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if self.sigma not in (0.5, -0.5):
            raise ValueError(f"sigma must be +0.5 or -0.5, got {self.sigma!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step h must be finite and positive, got {self.h!r}")
        if self.shell_radius is not None and not (0.0 < self.shell_radius < self.r_max):
            raise ValueError("shell radius must lie inside (0, r_max)")
        if not (math.isfinite(self.r_max) and self.r_max > _R_START):
            raise ValueError(f"r_max must be finite and > {_R_START}, got {self.r_max!r}")


def _rk4_step(psi, phi, r, h, c0, c1):
    """One classical RK4 step of (psi, phi) from r to r + h; numpy broadcasts."""
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
    return (psi + h / 6.0 * (phi + 2.0 * f2 + 2.0 * f3 + f4),
            phi + h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))


def _prefix_products(m):
    """Replace the 2x2 matrices m[:, :, ..., j] along the last axis by their
    inclusive prefix products M_j ... M_0, in place, with the work-efficient
    up/down sweep (G. E. Blelloch, "Prefix sums and their applications",
    CMU-CS-90-190, 1990).  The last axis has a power-of-two length."""
    n = m.shape[-1]

    def absorb(later, earlier):
        lat, ear = m[..., later], m[..., earlier]
        m[..., later] = lat[:, :1] * ear[:1] + lat[:, 1:] * ear[1:]

    span = 1
    while 2 * span <= n:  # up: the last entry of each 2*span tile takes its product
        absorb(slice(2 * span - 1, None, 2 * span), slice(span - 1, None, 2 * span))
        span *= 2
    span = n // 4
    while span:  # down: each tile midpoint takes the product of all before it
        absorb(slice(3 * span - 1, None, 2 * span), slice(2 * span - 1, n - span, 2 * span))
        span //= 2


def _rk4_region(psi, phi, nodes, r0, r1, nsteps, ma, sigma, energy):
    """Integrate one region with fixed angular number; returns (psi, phi,
    log_scale, nodes), adding the sign changes of psi to the node count.

    Each pass builds the propagators of up to ``_PASS`` steps, pads them with
    identities to whole blocks and chains each block into prefix products."""
    h = (r1 - r0) / nsteps
    c0 = ma * ma
    c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
    unit = np.array([[1.0], [0.0]])
    log_scale = 0.0
    negative = psi < 0.0
    for first in range(0, nsteps, _PASS):
        r = r0 + np.arange(first, min(first + _PASS, nsteps)) * h
        n = r.size
        blocks = -(-n // _BLOCK)
        m = np.zeros((2, 2, blocks * _BLOCK))
        m[0, 0, n:] = m[1, 1, n:] = 1.0
        # column j of each M_i: the step applied to the unit vector e_j
        m[0, :, :n], m[1, :, :n] = _rk4_step(unit, unit[::-1], r, h, c0, c1)
        m = m.reshape(2, 2, blocks, _BLOCK)
        _prefix_products(m)
        starts = np.empty((blocks, 2))
        for k, ((pa, pb), (pc, pd)) in enumerate(m[..., -1].transpose(2, 0, 1).tolist()):
            starts[k] = psi, phi
            psi, phi = pa * psi + pb * phi, pc * psi + pd * phi
            s = max(abs(psi), abs(phi))
            if s > 0.0:
                psi /= s
                phi /= s
                log_scale += math.log(s)
        # psi after every step: row 0 of its prefix product times the block's start
        below = (m[0, 0] * starts[:, :1] + m[0, 1] * starts[:, 1:] < 0.0).ravel()
        nodes += int(below[0] != negative) + int(np.count_nonzero(below[1:] != below[:-1]))
        negative = bool(below[-1])
    return psi, phi, log_scale, nodes


def _segments(problem: ShootingProblem) -> list[tuple[float, float, bool, float]]:
    """Break [_R_START, r_max] into (lo, hi, refined, m_eff) integration spans."""
    cuts = {_R_START, problem.r_max}
    if _INNER_EDGE < problem.r_max:
        cuts.add(_INNER_EDGE)
    shell = problem.shell_radius
    if shell is not None:
        cuts.add(shell)
    pts = sorted(cuts)
    out = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        inside = shell is not None and mid < shell
        m_eff = float(problem.m) if inside else problem.m + problem.alpha
        refined = mid < _INNER_EDGE
        out.append((lo, hi, refined, m_eff))
    return out


def shoot(problem: ShootingProblem, energy: float) -> tuple[float, int]:
    """(D(E), N(E)): the decay defect and the node count of psi on (0, r_max].

    The only integration entry point: every region is stepped by block
    prefix products of the RK4 propagators (see the module docstring).
    """
    if problem.shell_radius is None:
        k = abs(problem.m + problem.alpha)
        m0 = problem.m + problem.alpha
    else:
        k = abs(float(problem.m))
        m0 = float(problem.m)
    r0 = _R_START
    a1 = (2.0 * m0 + 4.0 * problem.sigma - 4.0 * energy) / (4.0 * k + 4.0)
    psi = r0 ** k * (1.0 + a1 * r0 * r0)
    phi = r0 ** (k - 1.0) * (k + (k + 2.0) * a1 * r0 * r0)
    scale = max(abs(psi), abs(phi))
    log_total = math.log(scale)
    psi /= scale
    phi /= scale
    nodes = 0

    for lo, hi, refined, m_eff in _segments(problem):
        h = problem.h / _INNER_REFINE if refined else problem.h
        nsteps = max(1, int(math.ceil((hi - lo) / h - 1e-12)))
        psi, phi, logs, nodes = _rk4_region(psi, phi, nodes, lo, hi, nsteps, m_eff,
                                            problem.sigma, energy)
        log_total += logs
        if problem.shell_radius is not None and abs(hi - problem.shell_radius) < 1e-15:
            phi += (2.0 * problem.sigma * problem.alpha / problem.shell_radius) * psi

    if psi == 0.0:
        return 0.0, nodes
    ex = log_total + 0.25 * problem.r_max ** 2 + math.log(abs(psi))
    return math.copysign(math.exp(min(ex, 600.0)), psi), nodes


def oracle_eigenvalues(problem: ShootingProblem, e_min: float = -0.3,
                       e_max: float = 6.0, count: int | None = None) -> list[float]:
    """Eigenvalues in (e_min, e_max), isolated by node count and refined by brentq.

    Bisection on N(E) splits the window until each bracket holds one level,
    where brentq refines D(E) to ``_E_TOL``; no energy is shot twice on one
    integration range.  With ``count`` set, the window (and the integration
    range, which must reach past the classical turning point) grows until it
    holds ``count`` levels, at most seven times, and the first ``count``
    levels are returned.  A shot inside a bracket whose node count leaves
    the range of the counts at its ends raises RuntimeError: the step h is
    then too coarse for the levels to be trusted.
    """
    if e_max <= e_min:
        raise ValueError("need e_max > e_min")
    shots = {}

    def shot(e: float) -> tuple[float, int]:
        if (prb, e) not in shots:
            shots[prb, e] = shoot(prb, e)
        return shots[prb, e]

    for _widening in range(8):
        wall = math.sqrt(2.0 * max(e_max, 1.0)) + 8.0
        prb = replace(problem, r_max=wall) if problem.r_max < wall else problem
        n_lo, n_hi = shot(e_min)[1], shot(e_max)[1]
        if count is None or n_hi - n_lo >= count:
            break
        e_max += max(2.0, e_max - e_min)
    else:
        raise RuntimeError(f"found only {n_hi - n_lo} of {count} eigenvalues in seven "
                           f"widenings of the window for {problem!r}")
    n_top = n_hi if count is None else n_lo + count

    def inside(e: float, a: float, b: float) -> tuple[float, int]:
        """shot(e) for e in the bracket (a, b), whose node count must lie
        between the counts at the ends: N(E) is monotone unless h is too
        coarse for RK4 to follow psi."""
        d, n = shot(e)
        if not shot(a)[1] <= n <= shot(b)[1]:
            raise RuntimeError(
                f"node count {n} at E = {e!r} lies outside [{shot(a)[1]}, {shot(b)[1]}] "
                f"of its bracket ({a!r}, {b!r}): the step h = {problem.h!r} is too "
                f"coarse for {problem!r}")
        return d, n

    def isolate(a: float, b: float) -> list[tuple[float, float]]:
        """Brackets of one level each in (a, b], up to level index n_top."""
        n_a, n_b = shot(a)[1], shot(b)[1]
        if n_a >= n_top or n_b == n_a:
            return []
        if n_b - n_a == 1:
            return [(a, b)]
        c = 0.5 * (a + b)  # a bracket round-off cannot split ends in RecursionError
        inside(c, a, b)
        return isolate(a, c) + isolate(c, b)

    brackets = isolate(e_min, e_max)
    return [brentq(lambda e: inside(e, a, b)[0], a, b, xtol=_E_TOL) for a, b in brackets]
