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
propagator matrix M_i(E).  The energy enters a step only through the
constant c1 = 2 m_eff + 4 sigma - 4E, and every entry of M_i is a
polynomial in c1 of degree at most two whose coefficients depend on the
grid alone.  They are computed once for each region of the problem being
shot (a memo of one problem, 9 floats a step: 0.93 MB at r_max = 12), and
a shot evaluates them at its c1 by Horner's rule.  Each region is swept in
one numpy pass: within blocks of _BLOCK steps the propagators are swept up
into tile products (G. E. Blelloch, "Prefix sums and their applications",
CMU-CS-90-190, 1990), one array per level of the tree.  The block totals
carry (psi, phi) from block to block, renormalized once per block so that
the amplitudes never leave floating-point range; D(E) needs nothing else.
A shot's own arrays peak while it sweeps its longest region, at about 9
floats a step of it (0.85 MB at r_max = 12, h = 1e-3), the size of that
region's memo.

The node count needs psi only where no two zeros can fall between samples.
With u = sqrt(r) psi the radial equation reads u'' + Q u = 0,

    Q = 4E - 2 m_eff - 4 sigma - r^2 - (m_eff^2 - 1/4)/r^2,

and on a region starting at r0, Q <= Q_max = 4E - 2 m_eff - 4 sigma - r0^2
+ max(0, 1/4 - m_eff^2)/r0^2.  By Sturm comparison the zeros of psi there
lie at least pi/sqrt(Q_max) apart (there is at most one if Q_max <= 0).
So the down sweep, in which each tile's
left product takes the tile's start vector to its midpoint, stops at tiles
of the largest power of two up to _BLOCK steps that spans at most half that
spacing (one step where even a step is longer), and the sign changes of psi
are counted at the tile ends: a tile holds at most one zero.  The tile
comes from each shot's own energy.  A sample after every step can count
more than the tiles, where the step is too coarse for psi itself: at h =
0.05 the inner step h/32 = 1.56e-3 is 15.6 ``_R_START``, and for (alpha,
m, sigma) = (0.37, -1, -1/2), r_max = 16.94, E = 31.774266534543408 the
first RK4 steps take psi below zero and back (after steps 1 and 3).  A
sample after every step counts that pair, N = 34; the tile ends skip it,
N = 32, the count of every h down to 1e-3.

Levels are found by node counting, not on an energy grid: by the Sturm
oscillation theorem the number N(E) of sign changes of psi on (0, r_max] is
the number of zeros of D below E, and D(E) has the sign (-1)^N(E).
Bisection on N gives each level a bracket of its own (J. D. Pryce,
Numerical Solution of Sturm-Liouville Problems, 1993).  Across a bracket
|D| still carries the growth factor of the unwanted solution, often
several orders of magnitude from end to end, which slows brentq's
interpolation.  brentq therefore refines D divided by the log-linear
interpolation of |D| between the bracket's ends: a positive factor, so the
detrended defect has the sign and the zeros of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from fluxtube._brent import brentq

__all__ = ["ShootingProblem", "shoot", "oracle_eigenvalues", "E_TOL"]

# Integration grid, shared by every problem: the Frobenius start radius, the
# edge of the stiff inner region and its step refinement.  RK4 steps are
# chained in blocks of _BLOCK (a power of two) between renormalizations.
# _PASS bounds only the coefficient build: its temporaries span _PASS steps.
_R_START = 1e-4
_INNER_EDGE = 0.05
_INNER_REFINE = 32
_BLOCK = 512
_PASS = 4 * _BLOCK
E_TOL = 1e-12  # absolute brentq tolerance on each eigenvalue
_PROPAGATORS: dict = {}  # region -> its propagator coefficients, for one problem at a time


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
        if not float(self.m).is_integer():
            raise ValueError(f"orbital number m must be an integer, got {self.m!r}")
        if self.sigma not in (0.5, -0.5):
            raise ValueError(f"sigma must be +0.5 or -0.5, got {self.sigma!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step h must be finite and positive, got {self.h!r}")
        if self.shell_radius is not None and not (0.0 < self.shell_radius < self.r_max):
            raise ValueError("shell radius must lie inside (0, r_max)")
        if not (math.isfinite(self.r_max) and self.r_max > _R_START):
            raise ValueError(f"r_max must be finite and > {_R_START}, got {self.r_max!r}")


def _propagator_coefficients(r0, r1, nsteps, ma):
    """The coefficients of the RK4 step propagators of one region as
    polynomials in c1 = 2 ma + 4 sigma - 4E, one column per step.

    V_eff enters a step as w(x) = ma^2/x^2 + x^2 + c1 at x = r, r + h/2 and
    r + h, so every entry of the propagator is a polynomial in c1: m01 is
    linear, and m00, m10, m11 are quadratic, where m00 and m11 share the
    constant c1^2 coefficient h^4/24.  The rows are the other nine
    coefficients: m00 (c1^0, c1^1), m01 (c1^0, c1^1), m10 (c1^0, c1^1, c1^2)
    and m11 (c1^0, c1^1), expanded from the step formula applied to the unit
    starts (psi, phi) = (1, 0) and (0, 1).

    Memoized by region in ``_PROPAGATORS``, which ``shoot`` keeps to the
    regions of the problem it shoots (0.93 MB at r_max = 12, h = 1e-3)."""
    key = (r0, r1, nsteps, ma)
    coef = _PROPAGATORS.get(key)
    if coef is not None:
        return coef
    h = (r1 - r0) / nsteps
    a = 0.5 * h
    aa = a * a
    h6 = h / 6.0
    c0 = ma * ma
    coef = np.empty((9, nsteps))
    for first in range(0, nsteps, _PASS):  # a pass at a time, so no temporary outgrows one
        r = r0 + np.arange(first, min(first + _PASS, nsteps)) * h
        rh = r + a
        rf = r + h
        g, gh, gf = c0 / (r * r) + r * r, c0 / (rh * rh) + rh * rh, c0 / (rf * rf) + rf * rf
        # start (1, 0); x, x_1 and x_2 are the c1^0, c1^1 and c1^2 coefficients of x
        q2, q2_1 = gh - a * g / rh, 1.0 - a / rh
        p3 = 1.0 + aa * g
        q3, q3_1 = gh * p3 - a * q2 / rh, aa * gh + p3 - a * q2_1 / rh
        p4, p4_1 = 1.0 + h * a * q2, h * a * q2_1
        q4 = gf * p4 - h * q3 / rf
        q4_1 = gf * p4_1 + p4 - h * q3_1 / rf
        q4_2 = p4_1 - h * aa / rf
        coef[:2, first:first + r.size] = (1.0 + h6 * (2.0 * a * g + 2.0 * a * q2 + h * q3),
                                          h6 * (2.0 * a + 2.0 * a * q2_1 + h * q3_1))
        coef[4:7, first:first + r.size] = (h6 * (g + 2.0 * q2 + 2.0 * q3 + q4),
                                           h6 * (1.0 + 2.0 * q2_1 + 2.0 * q3_1 + q4_1),
                                           h6 * (2.0 * aa + q4_2))
        # start (0, 1)
        q1 = -1.0 / r
        f2 = 1.0 + a * q1
        q2 = a * gh - f2 / rh
        p3 = a * f2
        f3 = 1.0 + a * q2
        q3, q3_1 = gh * p3 - f3 / rh, p3 - aa / rh
        f4 = 1.0 + h * q3
        q4 = gf * h * f3 - f4 / rf
        q4_1 = gf * h * aa + h * f3 - h * q3_1 / rf
        coef[2:4, first:first + r.size] = (h6 * (1.0 + 2.0 * f2 + 2.0 * f3 + f4),
                                           h6 * (2.0 * aa + h * q3_1))
        coef[7:, first:first + r.size] = (1.0 + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
                                          h6 * (2.0 * a + 2.0 * q3_1 + q4_1))
    coef.flags.writeable = False  # shared by every later shot of the region
    _PROPAGATORS[key] = coef
    return coef


def _node_tile(r0, h, ma, c1):
    """Steps per node-count tile of a region from r0 at step h: the largest
    power of two up to ``_BLOCK`` that spans at most half of pi/sqrt(Q_max),
    the least zero spacing of psi there (module docstring), or 1."""
    q_max = -c1 - r0 * r0 + max(0.0, 0.25 - ma * ma) / (r0 * r0)
    tile = _BLOCK
    while tile > 1 and q_max > 0.0 and tile * h * math.sqrt(q_max) > 0.5 * math.pi:
        tile //= 2
    return tile


def _rk4_region(psi, phi, nodes, r0, r1, nsteps, ma, sigma, energy):
    """Integrate one region with fixed angular number; returns (psi, phi,
    log_scale, nodes), adding the sign changes of psi to the node count.

    One numpy pass over the whole region: the memoized polynomials of every
    step are evaluated at this energy's c1 (Horner) and padded with
    identities to whole blocks of ``_BLOCK`` steps (a region shorter than a
    block: to the next power of two).  The up sweep keeps each level of tile
    products as its own array, up to the block totals, which carry (psi, phi)
    from block to block.  On the way down each tile's left product takes the
    tile's start vector to its midpoint, down to the tiles of ``_node_tile``,
    at whose ends the sign changes of psi are counted."""
    h = (r1 - r0) / nsteps
    c1 = 2.0 * ma + 4.0 * sigma - 4.0 * energy
    quad = c1 * h ** 4 / 24.0  # c1 times the c1^2 coefficient of m00 and m11
    k = _propagator_coefficients(r0, r1, nsteps, ma)
    width = min(_BLOCK, 1 << (nsteps - 1).bit_length())
    m = np.empty((2, 2, -(-nsteps // width) * width))
    m[..., nsteps:] = 0.0
    m[0, 0, nsteps:] = m[1, 1, nsteps:] = 1.0
    m[0, 0, :nsteps] = (k[1] + quad) * c1 + k[0]
    m[0, 1, :nsteps] = k[3] * c1 + k[2]
    m[1, 0, :nsteps] = (k[6] * c1 + k[5]) * c1 + k[4]
    m[1, 1, :nsteps] = (k[8] + quad) * c1 + k[7]
    levels = [m]  # levels[j]: the products of the tiles of 2**j steps
    while len(levels) < width.bit_length():  # up: each tile from its later and earlier half
        lat, ear = levels[-1][..., 1::2], levels[-1][..., 0::2]
        cur = lat[:, :1] * ear[:1]
        cur += lat[:, 1:] * ear[1:]  # in place: one level-sized temporary fewer
        levels.append(cur)
    # v[:, i]: (psi, phi) after i node-count tiles, to one positive scale per block
    step = min(_node_tile(r0, h, ma, c1), width)
    per = width // step
    v = np.empty((2, m.shape[-1] // step + 1))
    log_scale = 0.0
    for b, ((pa, pb), (pc, pd)) in enumerate(levels[-1].transpose(2, 0, 1).tolist()):
        v[:, b * per] = psi, phi
        psi, phi = pa * psi + pb * phi, pc * psi + pd * phi
        s = max(abs(psi), abs(phi))
        if s > 0.0:
            psi /= s
            phi /= s
            log_scale += math.log(s)
    v[:, -1] = psi, phi
    span = per // 2
    while span:  # down: the midpoint of each 2*span tiles from their start and left half
        left, start = levels[(span * step).bit_length() - 1][..., 0::2], v[:, :-1:2 * span]
        v[:, span::2 * span] = left[:, 0] * start[0] + left[:, 1] * start[1]
        span //= 2
    below = v[0, 1:] < 0.0
    nodes += int(below[0] != (v[0, 0] < 0.0)) + int(np.count_nonzero(below[1:] != below[:-1]))
    return psi, phi, log_scale, nodes


def _regions(problem: ShootingProblem) -> list[tuple[float, float, int, float]]:
    """Break [_R_START, r_max] into (lo, hi, nsteps, m_eff) integration spans."""
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
        h = problem.h / _INNER_REFINE if mid < _INNER_EDGE else problem.h
        out.append((lo, hi, max(1, int(math.ceil((hi - lo) / h - 1e-12))), m_eff))
    return out


def shoot(problem: ShootingProblem, energy: float) -> tuple[float, int]:
    """(D(E), N(E)): the decay defect and the node count of psi on (0, r_max].

    The only integration entry point: every region is stepped by
    ``_rk4_region`` on the propagator polynomials of
    ``_propagator_coefficients`` (see the module docstring).  Their memo is
    kept to the regions of this problem: a shot of another problem drops the
    regions the two do not share.
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

    regions = _regions(problem)
    for stale in _PROPAGATORS.keys() - set(regions):
        _PROPAGATORS.pop(stale, None)
    for lo, hi, nsteps, m_eff in regions:
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

    Bisection on N(E) splits the window until each bracket (a, b) holds one
    level, where brentq refines the detrended defect

        F(E) = D(E) exp(kappa (E - a)) / |D(a)|,
        kappa = ln(|D(a)| / |D(b)|) / (b - a),

    to ``E_TOL``.  The factor is positive, so F has the sign and the zeros
    of D, and it takes out the exponential trend of |D| across the bracket:
    F is +-1 at the ends, whose shots are already made (kappa = 0 if an end
    has D = 0).  No energy is shot twice on one integration range.  With
    ``count`` set, the window (and the integration range, which must reach
    past the classical turning point) grows until it holds ``count`` levels,
    at most seven times, and the first ``count`` levels are returned.  A shot
    inside a bracket whose node count leaves the range of the counts at its
    ends raises RuntimeError: the step h is then too coarse for the levels to
    be trusted.
    """
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"energy window must be finite, got ({e_min!r}, {e_max!r})")
    if e_max <= e_min:
        raise ValueError("need e_max > e_min")
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
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

    def detrended(a: float, b: float):
        """F on the bracket (a, b), computed in the log domain (|D| reaches
        1e47) and clamped, like D, at e^600."""
        d_a, d_b = shot(a)[0], shot(b)[0]
        log_a = math.log(abs(d_a)) if d_a else 0.0
        kappa = (log_a - math.log(abs(d_b))) / (b - a) if d_a and d_b else 0.0

        def f(e: float) -> float:
            d = inside(e, a, b)[0]
            if d == 0.0:
                return 0.0
            return math.copysign(math.exp(min(math.log(abs(d)) + kappa * (e - a) - log_a,
                                              600.0)), d)
        return f

    return [brentq(detrended(a, b), a, b, xtol=E_TOL)[0] for a, b in isolate(e_min, e_max)]
