"""Real-argument special functions for confluent-hypergeometric radial problems.

Self-contained double-precision implementations of the confluent
hypergeometric functions M(a, b, z) (Kummer) and U(a, b, z) (Tricomi),
generalized Laguerre polynomials, and the gamma-function helpers they need.
Everything downstream in this package routes its special-function needs
through this module.

The evaluation strategy for U follows the classical regime split:

* ``a`` within 1e-9 of a nonpositive integer ``-n``: exact polynomial branch
  U(-n, b, z) = (-1)^n n! L_n^{b-1}(z)   [DLMF 13.6.27]
* small z (z <= 8): the two-M connection formula for non-integer b
  [DLMF 13.2.42], or the logarithmic limit series with digamma terms for
  integer b [DLMF 13.2.9]
* large z (z > 50): the divergent asymptotic series in 1/z with optimal
  truncation [DLMF 13.7.3], accepted only when the smallest term certifies
  a relative error below 1e-9
* everything else: the Laplace integral representation [DLMF 13.4.4]
  on a 30-node Gauss-Laguerre rule for a > 0, extended to a <= 0 by the
  downward contiguous recurrence in a [DLMF 13.3.7], which is stable in
  that direction because U is the recessive solution as a -> +infinity.

All functions are pure and thread-safe; the quadrature rule cache is
read-only after construction.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "lgamma",
    "gamma_sign",
    "gammafn",
    "rgamma",
    "digamma",
    "kummer_m",
    "kummer_u",
    "laguerre",
    "laguerre_deriv",
    "gauss_laguerre",
]

#: Hard cap on series summation length; exceeding it raises ConvergenceError.
SERIES_CAP = 2000
#: Terminate a convergent series when |term| < SERIES_EPS * |partial sum|.
SERIES_EPS = 1e-16
#: Parameters within this distance of an integer are snapped onto it.
SNAP_TOL = 1e-9

# Branch thresholds for kummer_u (see module docstring).
_Z_SMALL = 8.0
_Z_ASYM = 50.0
#: Node count of the Gauss-Laguerre rule behind the Laplace route of kummer_u.
_LAPLACE_NODES = 30


class DomainError(ValueError):
    """Argument outside the supported real domain."""


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the function."""


class ConvergenceError(RuntimeError):
    """An iterative scheme hit its cap before reaching tolerance."""


def _require_finite(name: str, a: float, b: float, z: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise DomainError(f"{name} needs finite arguments, got a={a!r}, b={b!r}, z={z!r}")


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) < SNAP_TOL and round(x) <= 0


def lgamma(x: float) -> float:
    """ln|Gamma(x)| for real x, raising PoleError at nonpositive integers."""
    if _is_nonpositive_int(x):
        raise PoleError(f"lgamma pole at x={x!r}")
    return math.lgamma(x)


def gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for real non-pole x: +1 for x > 0, (-1)^(n+1) on (-n-1, -n).

    The sign alternates between consecutive negative-integer poles, which is
    what makes 1/Gamma cross zero there.
    """
    if _is_nonpositive_int(x):
        raise PoleError(f"gamma_sign undefined at pole x={x!r}")
    if x > 0.0:
        return 1
    # x in (-n-1, -n) with n = floor(-x) >= 0  ->  sign is (-1)^(n+1)
    n = int(math.floor(-x))
    return -1 if n % 2 == 0 else 1


def gammafn(x: float) -> float:
    """Gamma(x) for real non-pole x (sign restored from lgamma)."""
    return gamma_sign(x) * math.exp(lgamma(x))


def rgamma(x: float) -> float:
    """1/Gamma(x), entire in x: returns exactly 0.0 at nonpositive integers."""
    if _is_nonpositive_int(x):
        return 0.0
    return gamma_sign(x) * math.exp(-math.lgamma(x))


# Bernoulli-number coefficients of the asymptotic expansion
# psi(x) ~ ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
_PSI_ASYM = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for real x off the nonpositive integers.

    Upward recurrence onto x >= 10 followed by the Bernoulli asymptotic
    series; negative arguments go through the reflection formula
    psi(1 - x) = psi(x) + pi cot(pi x).
    """
    if _is_nonpositive_int(x):
        raise PoleError(f"digamma pole at x={x!r}")
    if x < 0.0:
        # reflection: psi(x) = psi(1-x) - pi*cot(pi*x); reduce the argument of
        # cot to the fractional part for accuracy at large negative x.
        frac = x - math.floor(x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * frac)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = 0.0
    p = inv2
    for c in _PSI_ASYM:
        s += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + s


def _kummer_m_series(a: float, b: float, z: float) -> tuple[float, float]:
    """Direct Taylor sum of M; returns (sum, sum of |terms|) for cancellation audit."""
    total = 1.0
    absum = 1.0
    term = 1.0
    for k in range(SERIES_CAP):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        absum += abs(term)
        if abs(term) <= SERIES_EPS * abs(total):
            return total, absum
    raise ConvergenceError(f"kummer_m series cap at a={a}, b={b}, z={z}")


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric M(a, b, z) = 1F1(a; b; z), real arguments.

    Parameters
    ----------
    a, b : float
        Real parameters; ``b`` must not be a nonpositive integer (PoleError).
    z : float
        Real argument. Positive arguments sum directly (the tail of the
        series is single-signed, so cancellation stays bounded); negative
        arguments use the direct sum only while it is well conditioned and
        otherwise go through the Kummer transformation
        M(a, b, z) = e^z M(b - a, b, -z)   [DLMF 13.2.39].

    Notes
    -----
    Designed for |z| <= 400 at ~1e-10 relative accuracy. The series cap is
    2000 terms; hitting it raises ConvergenceError rather than returning a
    silent partial sum.  Non-finite arguments raise DomainError.
    """
    _require_finite("kummer_m", a, b, z)
    if abs(b - round(b)) < SNAP_TOL and round(b) <= 0:
        raise PoleError(f"kummer_m pole: b={b!r} is a nonpositive integer")
    if z == 0.0:
        return 1.0
    if z < -30.0:
        return math.exp(z) * kummer_m(b - a, b, -z)
    total, absum = _kummer_m_series(a, b, z)
    if z < 0.0 and absum > 1e6 * max(abs(total), 1e-300):
        # alternating sum lost too many digits; the reflected series is
        # single-signed in its tail and conditions well.
        return math.exp(z) * kummer_m(b - a, b, -z)
    return total


def _u_connection(a: float, b: float, z: float) -> float:
    """U via the two-M connection formula; b must be non-integer [DLMF 13.2.42]."""
    c1 = gammafn(1.0 - b) * rgamma(a - b + 1.0)
    c2 = gammafn(b - 1.0) * rgamma(a)
    t1 = c1 * kummer_m(a, b, z) if c1 != 0.0 else 0.0
    t2 = c2 * z ** (1.0 - b) * kummer_m(a - b + 1.0, 2.0 - b, z) if c2 != 0.0 else 0.0
    return t1 + t2


def _u_log_series(a: float, n0: int, z: float) -> float:
    """U(a, n0+1, z) for integer b = n0+1 >= 1 via the logarithmic limit series.

    DLMF 13.2.9: the z^{1-b} branch of the connection formula degenerates at
    integer b; its surviving finite part plus a log-weighted Kummer series
    replace it.  ``a`` must not be a nonpositive integer (callers snap those
    onto the polynomial branch first).
    """
    lz = math.log(z)
    pref_log = (-1.0) ** (n0 + 1) * rgamma(a - n0) / math.factorial(n0)
    total = 0.0
    if pref_log != 0.0:
        s = 0.0
        coef = 1.0  # (a)_k z^k / ((n0+1)_k k!)
        for k in range(SERIES_CAP):
            term = coef * (lz + digamma(a + k) - digamma(1.0 + k) - digamma(n0 + 1.0 + k))
            s += term
            if abs(term) <= SERIES_EPS * abs(s) and k > 2:
                break
            coef *= (a + k) * z / ((n0 + 1.0 + k) * (k + 1.0))
        else:
            raise ConvergenceError(f"kummer_u log series cap at a={a}, b={n0 + 1}, z={z}")
        total += pref_log * s
    if n0 > 0:
        # truncated M(a-n0, 1-n0, z): only the first n0 terms exist.
        s2 = 0.0
        coef = 1.0  # (a-n0)_k z^k / ((1-n0)_k k!)
        for k in range(n0):
            s2 += coef
            if k < n0 - 1:
                coef *= (a - n0 + k) * z / ((1.0 - n0 + k) * (k + 1.0))
        total += math.factorial(n0 - 1) * rgamma(a) * z ** (-n0) * s2
    return total


def _u_asymptotic(a: float, b: float, z: float) -> tuple[float, bool]:
    """Poincare expansion U ~ z^-a * 2F0(a, a-b+1; ; -1/z) with optimal truncation.

    Returns (value, ok); ok is False when the smallest term cannot certify
    ~1e-9 relative accuracy, in which case the caller falls through to the
    integral representation.
    """
    s = 1.0
    term = 1.0
    smallest = math.inf
    for k in range(SERIES_CAP):
        nxt = term * (a + k) * (a - b + 1.0 + k) / (-(k + 1.0) * z)
        if abs(nxt) >= abs(term) and k > 2:
            smallest = abs(nxt)
            break
        s += nxt
        term = nxt
        if abs(term) <= SERIES_EPS * abs(s):
            smallest = abs(term)
            break
    ok = smallest <= 1e-9 * max(abs(s), 1e-300)
    return z ** (-a) * s, ok


def _u_laplace(a: float, b: float, z: float) -> float:
    """Laplace integral for U [DLMF 13.4.4], extended to a <= 0 by recurrence:

    U(a,b,z) = z^-a / Gamma(a) * int_0^inf e^-u u^{a-1} (1 + u/z)^{b-a-1} du

    after u = z t; e^-u u^{a-1} is the Gauss-Laguerre weight with gamma = a-1.
    For a <= 0 one rule at frac = a - floor(a) gives both seeds U(frac) and
    U(frac + 1) of the downward recurrence
    U(a-1) = (2a - b + z) U(a) - a (a - b + 1) U(a+1)   [DLMF 13.3.7],
    which is stable because U is recessive as a -> +inf.
    """
    base = a if a > 0.0 else a - math.floor(a)  # integer a <= 0 never gets here
    nodes, weights = gauss_laguerre(_LAPLACE_NODES, base - 1.0)
    q = 1.0 + nodes / z
    u_mid = z ** (-base) * rgamma(base) * float(np.dot(weights, q ** (b - base - 1.0)))
    if a <= 0.0:
        u_hi = (z ** (-base - 1.0) * rgamma(base + 1.0)
                * float(np.dot(weights, nodes * q ** (b - base - 2.0))))
        ac = base
        for _ in range(int(round(base - a))):
            u_lo = (2.0 * ac - b + z) * u_mid - ac * (ac - b + 1.0) * u_hi
            u_hi, u_mid = u_mid, u_lo
            ac -= 1.0
    if not math.isfinite(u_mid):
        raise ConvergenceError(f"kummer_u integral route failed at a={a}, b={b}, z={z}")
    return u_mid


def kummer_u(a: float, b: float, z: float) -> float:
    """Tricomi's confluent hypergeometric U(a, b, z) for real arguments, z > 0.

    The solution of Kummer's equation that decays algebraically as
    z -> +infinity, U ~ z^-a.  As a function of ``a`` it is entire, with an
    infinite string of real zeros interlacing the nonpositive integers; at
    a = -n it collapses onto a Laguerre polynomial,

        U(-n, b, z) = (-1)^n n! L_n^{b-1}(z).

    Parameters within 1e-9 of that lattice are snapped onto it (at small z
    the snapped value can differ from U(a) by ~1e-6 relative).

    Accuracy, audited against mpmath.hyperu for a in [-6.3, 6.7], b in
    [1, 6] and z in [1e-3, 200] (b < 1 after the lift to a-b+1, 2-b): below
    1e-8 relative away from the zeros of U, except for two cancellation gaps
    on the small-z branch (z <= 8).  (1) a > 1.5 with z > 1.5: up to 4.0e-3
    at (a, b, z) = (6.7, 1.25, 7.9), though not everywhere, (3.0, 2.5, 5.0)
    gives 1.8e-10.  (2) b within 1e-3 of an integer but outside the snap:
    up to 1e-2 at (1.35, 1 + 1.6e-8, 7.8), and 3e-6 for a <= 0.  Shell
    eigenvalues avoid gap (1): their roots sit at a <= 0.

    Raises
    ------
    DomainError
        If ``z <= 0`` or any argument is not finite.
    ConvergenceError
        If an internal series fails to reach tolerance or the Laplace
        integral is not finite.
    """
    _require_finite("kummer_u", a, b, z)
    if z <= 0.0:
        raise DomainError(f"kummer_u requires z > 0, got z={z!r}")
    if b < 1.0:
        # DLMF 13.2.40 lifts b onto [1, inf): U(a,b,z) = z^{1-b} U(a-b+1, 2-b, z)
        return z ** (1.0 - b) * kummer_u(a - b + 1.0, 2.0 - b, z)
    na = round(a)
    if abs(a - na) < SNAP_TOL and na <= 0:
        n = int(-na)
        return (-1.0) ** n * math.factorial(n) * float(laguerre(n, b - 1.0, z))
    if z > _Z_ASYM:
        val, ok = _u_asymptotic(a, b, z)
        if ok:
            return val
    if z <= _Z_SMALL:
        nb = round(b)
        if abs(b - nb) < SNAP_TOL:
            return _u_log_series(a, int(nb) - 1, z)
        return _u_connection(a, b, z)
    return _u_laplace(a, b, z)


def laguerre(n: int, a: float, z):
    """Generalized Laguerre polynomial L_n^{(a)}(z), stable three-term recurrence.

    Parameters
    ----------
    n : int >= 0
        Degree.
    a : float
        Superscript parameter (any real; the radial problems here use a > -1).
    z : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray matching the shape of ``z``.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre degree must be a nonnegative integer, got {n!r}")
    n = int(n)
    zs = np.asarray(z, dtype=float)
    prev = np.ones_like(zs)
    if n == 0:
        return float(prev) if np.isscalar(z) else prev
    cur = 1.0 + a - zs
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - zs) * cur - (k + a) * prev) / (k + 1.0)
    return float(cur) if np.isscalar(z) else cur


def laguerre_deriv(n: int, a: float, z):
    """d/dz L_n^{(a)}(z) = -L_{n-1}^{(a+1)}(z); identically 0 for n = 0."""
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre degree must be a nonnegative integer, got {n!r}")
    if int(n) == 0:
        zs = np.asarray(z, dtype=float)
        return 0.0 if np.isscalar(z) else np.zeros_like(zs)
    out = laguerre(int(n) - 1, a + 1.0, z)
    return -out if np.isscalar(z) else -np.asarray(out)


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss–Laguerre rule for the weight z^gamma e^-z on (0, inf).

    Golub–Welsch on the symmetric tridiagonal Jacobi matrix of the
    L^{(gamma)} family: diagonal 2k + gamma + 1, off-diagonal
    sqrt(k (k + gamma)).  Exact for z^gamma e^-z * (polynomial of degree
    <= 2n - 1); requires gamma > -1 for integrability.  The Laplace route
    of ``kummer_u`` calls it too, once per evaluation.

    Returns read-only (nodes, weights) arrays; results are cached by
    (n, gamma), so do not mutate them.
    """
    if gamma <= -1.0:
        raise DomainError(f"gauss_laguerre weight requires gamma > -1, got {gamma!r}")
    if n < 1:
        raise DomainError("gauss_laguerre needs at least one node")
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + gamma + 1.0
    off = np.sqrt(k[1:] * (k[1:] + gamma))
    nodes, vecs = eigh_tridiagonal(diag, off)
    weights = vecs[0] ** 2 * math.exp(math.lgamma(gamma + 1.0))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
