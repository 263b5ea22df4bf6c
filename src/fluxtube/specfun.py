"""Real-argument special functions for confluent-hypergeometric radial problems.

Self-contained double-precision implementations of the confluent
hypergeometric functions M(a, b, z) (Kummer) and U(a, b, z) (Tricomi),
generalized Laguerre polynomials, and the gamma-function helpers they need.
Everything downstream in this package routes its special-function needs
through this module.

U is evaluated on these routes; off the lattice, z = 1.5 is the only threshold:

* ``a`` exactly a nonpositive integer ``-n``: polynomial branch
  U(-n, b, z) = (-1)^n n! L_n^{b-1}(z)   [DLMF 13.6.27]
* z <= 1.5: the connection formula [DLMF 13.2.42] summed uniformly in b,
  which is the log series [DLMF 13.2.9] at integer b
* z > 1.5: Miller's backward recurrence in a [DLMF 13.3.7] at
  b0 = b - floor(b) + 1 in [1, 2), normalized by
  sum_n (a)_n (a-b+1)_n / n! U(a+n, b, z) = z^-a (Temme, Numer. Math. 41,
  1983, 63-82), then carried up in b with U(a+1, b) [DLMF 13.3.9, 13.3.10],
  stable in that direction because U is dominant as b -> infinity
* b < 1: the lift U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z) [DLMF 13.2.40]
  onto b >= 1, then one of the routes above

``kummer_u_pair`` gives U and dU/dz = -a U(a+1, b+1, z) [DLMF 13.3.22] from
the same pass on every route: the Laguerre derivative, the series summed with
the exponents of their powers of z, U(a+1, b+1) from Miller's carry in b,
and the product rule through the b < 1 lift.  ``kummer_u`` is its first
element.  ``kummer_m_pair`` does the same for M from one Taylor sum.

All functions are pure and thread-safe; their caches (Gauss-Laguerre rules,
the (b, z) head of the small-z series) hold read-only values.
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
    "kummer_m_pair",
    "kummer_u",
    "kummer_u_pair",
    "laguerre",
    "laguerre_deriv",
    "gauss_laguerre",
]

#: Hard cap on series summation length; exceeding it raises ConvergenceError.
SERIES_CAP = 2000
#: Terminate a convergent series when |term| < SERIES_EPS * |partial sum|.
SERIES_EPS = 1e-16

#: kummer_u sums its series at z <= _Z_SERIES and runs Miller's recurrence above it.
_Z_SERIES = 1.5
#: -ln of the double-precision epsilon: the e-folds ``_miller_height`` asks of each error term.
_E_FOLDS = -math.log(math.ulp(1.0))


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


def _kummer_m_series(a: float, b: float, z: float) -> tuple[float, float, float]:
    """Direct Taylor sum of M: returns (M, z dM/dz, sum of |terms|), the last
    for the cancellation audit; z dM/dz is the sum of k t_k over the terms t_k."""
    total = 1.0
    zdm = 0.0
    absum = 1.0
    term = 1.0
    for k in range(SERIES_CAP):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        zdm += (k + 1.0) * term
        mag = abs(term)
        absum += mag
        if mag <= SERIES_EPS * abs(total):
            return total, zdm, absum
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
    Audited against mpmath.hyp1f1 for a in [-6.3, 6.7], b in [1, 7] and
    |z| <= 400: below 1e-10 relative, and dM/dz of ``kummer_m_pair`` below
    1e-10 of |M| + |dM/dz|.  The series cap is 2000 terms; hitting it raises
    ConvergenceError rather than returning a silent partial sum, and so does
    a value or derivative that leaves floating-point range.  Non-finite
    arguments raise DomainError.  This is the first element of
    ``kummer_m_pair``.
    """
    return kummer_m_pair(a, b, z)[0]


def kummer_m_pair(a: float | np.ndarray, b: float, z: float) -> tuple:
    """(M(a, b, z), dM/dz) from one Taylor sum; dM/dz = (a/b) M(a+1, b+1, z).

    Takes the same branches as ``kummer_m`` and returns its value as the
    first element.  Through the Kummer transformation the pair is
    (e^z m, e^z (m - m')), with m and m' = dm/dw the pair of M(b - a, b, w)
    at w = -z.

    ``a`` may also be a 1-D array at scalar (b, z), z >= 0, the way
    ``laguerre`` takes an array z; the pair is then two arrays.  Every
    element runs the scalar Taylor loop's operations in the same order and
    stops at its own first term below ``SERIES_EPS`` of its sum, so each
    equals the scalar call bit for bit.  A finished element adds exact
    zeros from then on, so a pass costs the longest element's terms, a few
    numpy operations over the whole array each.  The first element in
    array order that hits the cap or leaves floating-point range raises the
    scalar call's ConvergenceError; z < 0, where the scalar call may
    reflect, is a DomainError.
    """
    if isinstance(a, np.ndarray):
        return _kummer_m_array(a, b, z)
    _require_finite("kummer_m", a, b, z)
    if _is_nonpositive_int(b):
        raise PoleError(f"kummer_m pole: b={b!r} is a nonpositive integer")
    if z == 0.0:
        return 1.0, a / b
    if z < -30.0:
        m, dm = _kummer_reflected(a, b, z)
    else:
        m, zdm, absum = _kummer_m_series(a, b, z)
        dm = zdm / z
        if z < 0.0 and absum > 1e6 * max(abs(m), 1e-300):
            # alternating sum lost too many digits; the reflected series is
            # single-signed in its tail and conditions well.
            m, dm = _kummer_reflected(a, b, z)
    if not (math.isfinite(m) and math.isfinite(dm)):
        raise ConvergenceError(f"kummer_m leaves floating-point range at a={a}, b={b}, z={z}")
    return m, dm


def _kummer_m_array(a: np.ndarray, b: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """``kummer_m_pair`` at a 1-D array ``a``: ``_kummer_m_series`` on every
    element at once, without the |term| sum that only z < 0 reads."""
    if a.ndim != 1:
        raise DomainError(f"kummer_m takes a 1-D array a, got shape {a.shape}")
    al = a.astype(float)
    if not (math.isfinite(b) and math.isfinite(z) and np.isfinite(al).all()):
        raise DomainError(f"kummer_m needs finite arguments, got an array a, b={b!r}, z={z!r}")
    if _is_nonpositive_int(b):
        raise PoleError(f"kummer_m pole: b={b!r} is a nonpositive integer")
    if z < 0.0:
        raise DomainError(f"kummer_m takes an array a only at z >= 0, got z={z!r}")
    if z == 0.0:
        return np.ones_like(al), al / b
    term, total, zsum = np.ones(al.size), np.ones(al.size), np.zeros(al.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below, as in the loop
        for k in range(SERIES_CAP):
            step = al + k
            step *= z
            step /= (b + k) * (k + 1.0)
            term *= step
            total += term
            zsum += (k + 1.0) * term
            done = np.abs(term) <= SERIES_EPS * np.abs(total)
            if done.all():
                break
            # a finished element sums exact zeros from here on: term 0 and a
            # 0 keep its step finite, so even an overflowed sum stays as it is
            np.copyto(term, 0.0, where=done)
            np.copyto(al, 0.0, where=done)
        dm = zsum / z
    if not (done.all() and np.isfinite(total).all() and np.isfinite(dm).all()):
        # the first failing element in order; one not done never stopped summing
        first = int(np.argmin(done & np.isfinite(total) & np.isfinite(dm)))
        what = "leaves floating-point range" if done[first] else "series cap"
        raise ConvergenceError(f"kummer_m {what} at a={float(a[first])}, b={b}, z={z}")
    return total, dm


def _kummer_reflected(a: float, b: float, z: float) -> tuple[float, float]:
    m, dm = kummer_m_pair(b - a, b, -z)
    ez = math.exp(z)
    return ez * m, ez * (m - dm)


@lru_cache(maxsize=8)
def _u_series_head(b: float, z: float) -> tuple:
    """The parts of ``_u_series`` that depend on b and z alone.

    Returns n, eps, the k < n denominators (2-b)_k k! / z^k, Gamma(b-1) and
    z^(1-b), 1/Gamma(b), the a-free part of D_0 with n!, and the signed
    prefactor (-1)^n pi eps / sin(pi eps).  A channel of the shell problem
    asks for one key: its b at z = R^2.
    """
    n = round(b - 1.0)
    eps = b - 1.0 - n
    ez = math.expm1(-eps * math.log(z)) / eps if eps else -math.log(z)  # (z^-eps - 1) / eps
    # (2-b)_k k! / z^k and ((1+eps)_k - k!) / eps for k < n
    dens, den, dq = [], 1.0, 0.0
    for k in range(n):
        dens.append(den)
        den *= (2.0 - b + k) * (k + 1.0) / z
        dq = dq * (1.0 + eps + k) + math.factorial(k)
    gb, zb = (gammafn(b - 1.0), z ** (1.0 - b)) if n else (1.0, 1.0)
    rb = rgamma(b)
    d0 = ez * rgamma(1.0 - eps) + 2.0 * _rgamma_diff(1.0 + eps, 2.0 * eps) + rb * dq
    pref = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    return n, eps, tuple(dens), gb, zb, rb, d0, float(math.factorial(n)), -pref if n % 2 else pref


def _u_series(a: float, b: float, z: float) -> tuple[float, float]:
    """(U, dU/dz) for b >= 1 from the two Kummer series of DLMF 13.2.42, uniform in b.

    With b = n + 1 + eps, n the nearest integer, the first n terms of the
    z^(1-b) series stand alone; each later one, X_j, pairs with the term Y_j of
    M(a, b, z).  D_j = (X_j - Y_j) / eps starts from divided differences of z^-eps,
    1/Gamma and (1+eps)_n, and runs D_{j+1} = x_j D_j + Y_j d_j with x_j, y_j the
    term ratios and d_j = (x_j - y_j) / eps in closed form (Temme, Numer. Math. 41,
    1983, 63-82).  At eps = 0 this is the log series [DLMF 13.2.9].  The same
    pass sums z dU/dz: the k-th stand-alone term, a power z^(1-b+k), takes a
    factor 1 - b + k, and z d/dz D_j = (j - eps) D_j - Y_j.
    """
    n, eps, dens, gb, zb, rb, d0, nfact, pref = _u_series_head(b, z)
    ra = rgamma(a)
    # the sum over k < n of (a-b+1)_k / ((2-b)_k k! / z^k), and of (1-b+k) times it
    finite, zfinite, pn = 0.0, 0.0, 1.0
    for k, den in enumerate(dens):
        t = pn / den
        finite += t
        zfinite += (1.0 - b + k) * t
        pn *= a - b + 1.0 + k
    if n:
        c = gb * ra * zb
        finite *= c
        zfinite *= c
    d = pn * (ra * d0 / nfact - _rgamma_diff(a, eps) * rb)
    y, total = rgamma(a - b + 1.0) * rb, d  # Y_0 and the sum of the D_j
    ztotal = -eps * d - y  # the sum of z d/dz D_j
    for j in range(SERIES_CAP):
        p, q = j + 1.0, n + j + 1.0
        w = z / ((p - eps) * q * (q + eps) * p)
        d = (a - eps + j) * (q + eps) * p * w * d + ((a + j) * (p + q) - p * (q + eps)) * w * y
        y *= (a + j) * (p - eps) * q * w
        total += d
        ztotal += (p - eps) * d - y
        if abs(d) <= SERIES_EPS * abs(total):
            return finite + pref * total, (zfinite + pref * ztotal) / z
    raise ConvergenceError(f"kummer_u series cap at a={a}, b={b}, z={z}")


def _miller_height(a: float, z: float) -> int:
    """Index i, counted from a' = a - ceil(a), at which ``_u_miller`` starts,
    so that both of its error terms fall below e^-L, L = ``_E_FOLDS``.

    The solutions of DLMF 13.3.7 in c go like exp(-+2 sqrt(c z)) / Gamma(c)
    (DLMF §13.8(iii)), so the ratios read at a + 1 are off by
    exp(-4 (sqrt(c z) - sqrt((a+1) z))) from c = a' + i.  The same form puts
    the i-th term of the normalization sum, whose start errors are of its own
    size, below sqrt(pi) |1/Gamma(a')| z^(a'-1/4) i^(a'-5/4) exp(z/2 - 2 sqrt(i z))
    of the sum z^-a' (b0 in [1, 2); |1/Gamma| < 1 on (-2, 0]).  Two fixed-point
    steps in sqrt(i), started above the root of bound = e^-L, end above it.
    """
    a0, rz = a - math.ceil(a), 2.0 * math.sqrt(z)
    top = (math.sqrt(max(a + 1.0, 0.0)) + 0.5 * _E_FOLDS / rz) ** 2 - a0
    r = math.sqrt(math.pi) * abs(rgamma(a0))
    k = _E_FOLDS + 0.5 * z + (a0 - 0.25) * math.log(z) + math.log(r) if r else 0.0
    if k > rz:  # else the bound is below e^-L from i = 1 on
        x = k / rz
        for _ in range(2):
            x = (k - (2.5 - 2.0 * a0) * math.log(x)) / rz
        top = max(top, x * x)
    return math.ceil(top)


def _u_miller(a: float, b: float, z: float) -> tuple[float, float]:
    """(U, dU/dz) for b >= 1 by Miller's backward recurrence in a [DLMF 13.3.7].

    At b0 = b - floor(b) + 1 in [1, 2) the recurrence
    U(c-1) = (2c - b0 + z) U(c) - c (c - b0 + 1) U(c+1) runs down from
    ``_miller_height`` steps above a' = a - ceil(a) in (-1, 0] to the lower
    of a' and a, which is stable because U is the recessive solution as
    c -> +infinity.  Down to a' the same pass sums
    sum_n (a')_n (a'-b0+1)_n / n! U(a'+n, b0, z) = z^-a' (DLMF 13.4.4 and
    the binomial series; Temme, Numer. Math. 41, 1983), which fixes the
    scale; started far below 0 that sum would cancel.  The pass reads
    U(a, b0) and U(a+1, b0), and the pair climbs to b by
    z U(a+1, b+1) = (b - a - 1) U(a+1, b) + U(a, b) [DLMF 13.3.10] and
    U(a, b+1) = U(a, b) + a U(a+1, b+1) [DLMF 13.3.9], stably, as U is
    dominant as b -> infinity, so dU/dz = -a U(a+1, b+1) keeps its factor a.
    The climb's dominant part carries 1/Gamma(a): next to a = -n at large b
    the steps in b lose digits.  The start height grows with z: from z of a
    few hundred on it is about z/16 steps (32 at z = 400, 68 at 1e3, 6252
    at 1e5, where a call takes milliseconds).
    """
    j = math.ceil(a)
    a0, b0 = a - j, b - (math.floor(b) - 1)  # a' in (-1, 0], b0 in [1, 2)
    f1, f, s = 0.0, 1.0, 1.0  # f_{i+1}, f_i and the normalization sum from i up
    u = v = 0.0  # f_j and f_{j+1}: U(a, b0) and U(a+1, b0), unscaled
    for i in range(_miller_height(a, z), min(j, 0), -1):
        c = a0 + i
        f1, f = f, (2.0 * c - b0 + z) * f - c * (c - b0 + 1.0) * f1
        if i > 0:
            s = f + (c - 1.0) * (c - b0) / i * s
        if i == j + 1:
            u, v = f, f1
        if abs(f) > 1e250:
            f1, f, s, u, v = f1 * 1e-250, f * 1e-250, s * 1e-250, u * 1e-250, v * 1e-250
    for i in range(math.floor(b) - 1):
        v = ((b0 + i - a - 1.0) * v + u) / z
        u += a * v
    za = z ** -a0 / s if s else math.inf
    val, der = u * za, -a * ((b - a - 1.0) * v + u) / z * za
    if not (math.isfinite(val) and math.isfinite(der)):
        raise ConvergenceError(f"kummer_u recurrence route failed at a={a}, b={b}, z={z}")
    return val, der


def kummer_u(a: float, b: float, z: float) -> float:
    """Tricomi's confluent hypergeometric U(a, b, z) for real arguments, z > 0.

    The solution of Kummer's equation that decays algebraically as
    z -> +infinity, U ~ z^-a.  As a function of ``a`` it is entire, with an
    infinite string of real zeros interlacing the nonpositive integers; at
    a = -n it collapses onto a Laguerre polynomial,

        U(-n, b, z) = (-1)^n n! L_n^{b-1}(z).

    Accuracy, audited against mpmath.hyperu for a in [-6.3, 6.7], b in [1, 6]
    (b < 1 after the lift to a-b+1, 2-b) and z in [1e-3, 200], next to integer
    a and b too: below 1e-8 relative away from the zeros of U.  The same
    holds for a in [6.7, 40] at 1.5 < z <= 200 (b in [1, 6]), a at least 0.02
    off an integer, and for b in [6, 40] at 8 < z <= 200 (a in [-6.3, 6.7]),
    a at least 1e-6 off a nonpositive integer -n.  Closer to a = -n at large
    b, Miller's steps in b lose digits: 1e-3 relative at
    (-1 - 1e-15, 73.456, 22.172).  This is the first element of
    ``kummer_u_pair``.

    Raises
    ------
    DomainError
        If ``z <= 0`` or any argument is not finite.
    ConvergenceError
        If an internal series fails to reach tolerance or the recurrence
        route overflows (large b at large z).
    """
    return kummer_u_pair(a, b, z)[0]


def kummer_u_pair(a: float, b: float, z: float) -> tuple[float, float]:
    """(U(a, b, z), dU/dz) from one pass; dU/dz = -a U(a+1, b+1, z) [DLMF 13.3.22].

    Takes the same routes as ``kummer_u`` and returns its value as the first
    element; each route reads the derivative off the pass that gives U:

    * polynomial: d/dz L_n^{b-1} (``laguerre_deriv``);
    * small-z series: its terms are powers of z, summed with their exponents;
    * Miller: -a U(a+1, b+1), U(a+1, b) carried up in b next to U(a, b);
    * b < 1: the product rule on z^(1-b) U(a-b+1, 2-b, z).

    dU/dz is audited against mpmath to 1e-8 relative on one cloud per route
    in ``kummer_u``'s box, a at least 0.02 off an integer (dU/dz vanishes
    next to the zeros of U(a+1, b+1, z)), and on a cloud next to a = 0,
    where it vanishes with a.  Next to a = -n its error stays below 1e-13 of
    |U| + |dU/dz|.
    """
    _require_finite("kummer_u", a, b, z)
    if z <= 0.0:
        raise DomainError(f"kummer_u requires z > 0, got z={z!r}")
    if b < 1.0:
        # DLMF 13.2.40 lifts b onto [1, inf): U(a,b,z) = z^{1-b} U(a-b+1, 2-b, z)
        u, du = kummer_u_pair(a - b + 1.0, 2.0 - b, z)
        zb = z ** (1.0 - b)
        return zb * u, zb * (du + (1.0 - b) * u / z)
    if _is_nonpositive_int(a):
        n = int(-a)
        c = (-1.0) ** n * math.factorial(n)
        return c * float(laguerre(n, b - 1.0, z)), c * float(laguerre_deriv(n, b - 1.0, z))
    if z <= _Z_SERIES:
        return _u_series(a, b, z)
    return _u_miller(a, b, z)


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
    scalar = np.isscalar(z)  # a scalar z runs on plain floats, not 0-d arrays
    zs = float(z) if scalar else np.asarray(z, dtype=float)
    prev = 1.0 if scalar else np.ones_like(zs)
    if n == 0:
        return prev
    cur = 1.0 + a - zs
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - zs) * cur - (k + a) * prev) / (k + 1.0)
    return float(cur) if scalar else cur


def laguerre_deriv(n: int, a: float, z):
    """d/dz L_n^{(a)}(z) = -L_{n-1}^{(a+1)}(z); identically 0 for n = 0."""
    if not (float(n).is_integer() and n >= 0):
        raise DomainError(f"laguerre degree must be a nonnegative integer, got {n!r}")
    if int(n) == 0:
        return 0.0 if np.isscalar(z) else np.zeros_like(np.asarray(z, dtype=float))
    out = laguerre(int(n) - 1, a + 1.0, z)
    return -out if np.isscalar(z) else -np.asarray(out)


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss–Laguerre rule for the weight z^gamma e^-z on (0, inf).

    Golub–Welsch (Math. Comp. 23, 1969) on the symmetric tridiagonal
    Jacobi matrix of the L^{(gamma)} family: diagonal 2k + gamma + 1,
    off-diagonal sqrt(k (k + gamma)).  ``numpy.linalg.eigh`` diagonalizes
    it as a dense matrix, reading its lower triangle; at the few dozen
    nodes the package asks for that costs the same as a tridiagonal
    solver.  Exact for z^gamma e^-z * (polynomial of degree <= 2n - 1);
    requires gamma > -1 for integrability.

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
