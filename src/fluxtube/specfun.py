"""Real-argument special functions for confluent-hypergeometric radial problems.

Self-contained double-precision implementations of the confluent
hypergeometric functions M(a, b, z) (Kummer) and U(a, b, z) (Tricomi),
generalized Laguerre polynomials, and the gamma-function helpers they need.
Everything downstream in this package routes its special-function needs
through this module.

The evaluation strategy for U follows the classical regime split:

* ``a`` exactly a nonpositive integer ``-n``: polynomial branch
  U(-n, b, z) = (-1)^n n! L_n^{b-1}(z)   [DLMF 13.6.27]
* small z (z <= 8): the connection formula [DLMF 13.2.42] summed uniformly in
  b, the log series [DLMF 13.2.9] at integer b; for a > 1.5 and z > 1.5 at
  a - ceil(a - 1.5), carried up by Miller's backward ratios of [DLMF 13.3.7]
* large z (z > 50): the divergent asymptotic series in 1/z with optimal
  truncation [DLMF 13.7.3], accepted only when the smallest term certifies
  a relative error below 1e-9
* everything else: the Laplace integral representation [DLMF 13.4.4]
  on a 30-node Gauss-Laguerre rule for a >= 1, extended to a < 1 by the
  downward contiguous recurrence in a [DLMF 13.3.7], which is stable in
  that direction because U is the recessive solution as a -> +infinity.

All functions are pure and thread-safe; the quadrature rule cache is
read-only after construction.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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
    return x <= 0.0 and x == round(x)


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
    """1/Gamma(x), entire in x: for x <= 0 the reflection (-1)^n sin(pi (x - n))
    Gamma(1 - x) / pi, n the nearest integer, which is exactly 0.0 at x = -n."""
    if x > 0.0:
        return math.exp(-math.lgamma(x))
    n = round(x)
    r = math.sin(math.pi * (x - n)) * math.gamma(1.0 - x) / math.pi
    return -r if n % 2 else r


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
#: -B_{2k} / (2k (2k - 1)): the coefficients of Stirling's series for ln Gamma, negated.
_STIRLING = tuple(c / (2 * k + 1) for k, c in enumerate(_PSI_ASYM))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for real x off the nonpositive integers.

    Upward recurrence onto x >= 10 followed by the Bernoulli asymptotic
    series; negative arguments go through the reflection formula
    psi(1 - x) = psi(x) + pi cot(pi x).
    """
    if _is_nonpositive_int(x):
        raise PoleError(f"digamma pole at x={x!r}")
    if x < 0.0:
        # reflection psi(x) = psi(1-x) - pi cot(pi x), cot taken at x - round(x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
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


def _rgamma_diff(x: float, h: float) -> float:
    """(1/Gamma(x - h) - 1/Gamma(x)) / h for real x and |h| <= 1; psi(x)/Gamma(x) at h = 0.

    1/Gamma(x) = (x)_N / Gamma(y), y = x + N >= 10, where Stirling's series gives
    lh = [ln Gamma(y) - ln Gamma(y - h)] / h as a sum of O(1) terms.
    """
    p, q, dp, y = 1.0, 1.0, 0.0, x  # (x)_N, (x - h)_N, ((x - h)_N - (x)_N) / h, x + N
    while y < 10.0:
        dp = dp * (y - h) - p
        p *= y
        q *= y - h
        y += 1.0
    t, s = 1.0 / y, 1.0 / (y - h)
    # (y^-m - (y-h)^-m) / h = -t s e with e = sum_i t^(m-1-i) s^i, and sm = s^m
    tail, e, sm = 0.0, 1.0, s
    for c in _STIRLING:
        tail += c * e
        e = t * t * e + sm * (t + s)
        sm *= s * s
    lh = math.log(y) - 1.0 - (y - h - 0.5) * (math.log1p(-h * t) / h if h else -t) + t * s * tail
    # (1/Gamma(y - h) - 1/Gamma(y)) / h = expm1(h lh) / (h Gamma(y))
    return rgamma(y) * (q * (math.expm1(h * lh) / h if h else lh) + dp)


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
    if _is_nonpositive_int(b):
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


def _u_series(a: float, b: float, z: float) -> float:
    """U for b >= 1 from the two Kummer series of DLMF 13.2.42, uniform in b.

    With b = n + 1 + eps, n the nearest integer, the first n terms of the
    z^(1-b) series stand alone; each later one, X_j, pairs with the term Y_j of
    M(a, b, z).  D_j = (X_j - Y_j) / eps starts from divided differences of z^-eps,
    1/Gamma and (1+eps)_n, and runs D_{j+1} = x_j D_j + Y_j d_j with x_j, y_j the
    term ratios and d_j = (x_j - y_j) / eps in closed form (Temme, Numer. Math. 41,
    1983, 63-82).  At eps = 0 this is the log series [DLMF 13.2.9].
    """
    n = round(b - 1.0)
    eps = b - 1.0 - n
    ra = rgamma(a)
    ez = math.expm1(-eps * math.log(z)) / eps if eps else -math.log(z)  # (z^-eps - 1) / eps
    # the sum over k < n, (a-b+1)_k, (2-b)_k k! / z^k and ((1+eps)_k - k!) / eps
    finite, pn, den, dq = 0.0, 1.0, 1.0, 0.0
    for k in range(n):
        finite += pn / den
        pn *= a - b + 1.0 + k
        den *= (2.0 - b + k) * (k + 1.0) / z
        dq = dq * (1.0 + eps + k) + math.factorial(k)
    if n:
        finite *= gammafn(b - 1.0) * ra * z ** (1.0 - b)
    rb = rgamma(b)
    d = pn * (ra * (ez * rgamma(1.0 - eps) + 2.0 * _rgamma_diff(1.0 + eps, 2.0 * eps) + rb * dq)
              / math.factorial(n) - _rgamma_diff(a, eps) * rb)
    y, total = rgamma(a - b + 1.0) * rb, d  # Y_0 and the sum of the D_j
    for j in range(SERIES_CAP):
        p, q = j + 1.0, n + j + 1.0
        w = z / ((p - eps) * q * (q + eps) * p)
        d = (a - eps + j) * (q + eps) * p * w * d + ((a + j) * (p + q) - p * (q + eps)) * w * y
        y *= (a + j) * (p - eps) * q * w
        total += d
        if abs(d) <= SERIES_EPS * abs(total):
            pref = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
            return finite + (-pref if n % 2 else pref) * total
    raise ConvergenceError(f"kummer_u series cap at a={a}, b={b}, z={z}")


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
    For a < 1 one rule at base = a - floor(a) + 1 in [1, 2) gives both seeds
    U(base) and U(base + 1) of the downward recurrence
    U(a-1) = (2a - b + z) U(a) - a (a - b + 1) U(a+1)   [DLMF 13.3.7],
    which is stable because U is recessive as a -> +inf.
    """
    base = a if a >= 1.0 else a - math.floor(a) + 1.0
    nodes, weights = gauss_laguerre(_LAPLACE_NODES, base - 1.0)
    q = 1.0 + nodes / z
    u_mid = z ** (-base) * rgamma(base) * float(np.dot(weights, q ** (b - base - 1.0)))
    if a < 1.0:
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

    Accuracy, audited against mpmath.hyperu for a in [-6.3, 6.7], b in [1, 6]
    (b < 1 after the lift to a-b+1, 2-b) and z in [1e-3, 200], next to integer
    a and b too: below 1e-8 relative away from the zeros of U.

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
    if _is_nonpositive_int(a):
        n = int(-a)
        return (-1.0) ** n * math.factorial(n) * float(laguerre(n, b - 1.0, z))
    if z > _Z_ASYM:
        val, ok = _u_asymptotic(a, b, z)
        if ok:
            return val
    if z <= _Z_SMALL:
        if a <= 1.5 or z <= 1.5:
            return _u_series(a, b, z)
        k = math.ceil(a - 1.5)
        u, r = _u_series(a - k, b, z), 0.0
        for i in range(k + 40, -1, -1):
            c = a - k + i
            r = 1.0 / (2.0 * c + 2.0 - b + z - (c + 1.0) * (c + 2.0 - b) * r)
            if i < k:
                u *= r
        return u
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
    if not (float(n).is_integer() and n >= 0):
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
    if not (float(n).is_integer() and n >= 0):
        raise DomainError(f"laguerre degree must be a nonnegative integer, got {n!r}")
    if int(n) == 0:
        zs = np.asarray(z, dtype=float)
        return 0.0 if np.isscalar(z) else np.zeros_like(zs)
    out = laguerre(int(n) - 1, a + 1.0, z)
    return -out if np.isscalar(z) else -np.asarray(out)


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss–Laguerre rule for the weight z^gamma e^-z on (0, inf).

    Golub–Welsch (Math. Comp. 23, 1969) on the symmetric tridiagonal
    Jacobi matrix of the L^{(gamma)} family: diagonal 2k + gamma + 1,
    off-diagonal sqrt(k (k + gamma)).  ``numpy.linalg.eigh`` diagonalizes
    it as a dense matrix, reading its lower triangle; at the 30 nodes of
    the Laplace route that costs the same as a tridiagonal solver.  Exact
    for z^gamma e^-z * (polynomial of degree <= 2n - 1); requires
    gamma > -1 for integrability.  The Laplace route of ``kummer_u`` calls
    it too, once per evaluation.

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
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    weights = vecs[0] ** 2 * math.exp(math.lgamma(gamma + 1.0))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
