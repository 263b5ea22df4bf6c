"""Independent references the benchmark checks the program against.

Nothing here imports fluxtube.  Spectra are recomputed in exact rational
arithmetic from the closed-form level formula, the matching condition is
re-evaluated with mpmath's 1F1 and U.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def regular_sigma(alpha: float) -> float:
    """Spin of the branch regular at the origin: +1/2 for alpha >= 0."""
    return 0.5 if alpha >= 0 else -0.5


def regular_energy(n: int, m: int, alpha: float) -> Fraction:
    """E = n + [alpha >= 0] + (|m + alpha| + m + alpha) / 2, exactly."""
    a = Fraction(alpha)
    return n + (1 if a >= 0 else 0) + (abs(m + a) + m + a) / 2


def zero_mode_exists(m: int, alpha: float) -> bool:
    """A normalizable spin-down E = 0 state exists in channel m."""
    return m + alpha < 1.0 if alpha >= 0 else m + alpha <= 0.0


def reference_states(alpha: float, e_max: float, m_min: int, m_max: int) -> list[tuple]:
    """(n, m, sigma, tag, E) of every state with E <= e_max, in spectrum order.

    Regular states carry the regular spin; each positive-energy regular state
    at (n, m_src) has a spin-flipped partner at m = m_src + 1 (alpha >= 0) or
    m_src - 1 (alpha < 0); zero modes sit at E = 0.  Sorted by
    (E, m, -sigma), which is unique for these labels.
    """
    e_cap = Fraction(e_max)
    s_reg = regular_sigma(alpha)
    dm = 1 if alpha >= 0 else -1
    rows = []
    for m in range(m_min, m_max + 1):
        n = 0
        while (e := regular_energy(n, m, alpha)) <= e_cap:
            rows.append((e, n, m, s_reg, "zero_mode" if e == 0 else "regular"))
            n += 1
        n = 0
        while (e := regular_energy(n, m - dm, alpha)) <= e_cap:
            if e > 0:
                rows.append((e, n, m, -s_reg, "superpartner"))
            n += 1
        if alpha >= 0 and m + alpha < 1.0:
            rows.append((Fraction(0), 0, m, -0.5, "zero_mode"))
    rows.sort(key=lambda r: (r[0], r[2], -r[3]))
    return [(n, m, s, tag, float(e)) for e, n, m, s, tag in rows]


def states_digest(rows) -> tuple:
    """(count, sha256) of (n, m, sigma, tag, E) rows, E written exactly."""
    h = hashlib.sha256()
    count = 0
    for n, m, sigma, tag, energy in rows:
        h.update(f"{n},{m},{sigma},{tag},{float(energy).hex()};".encode())
        count += 1
    return count, h.hexdigest()


def vacancy_digests(alpha: float, e_max: float, m_min: int, m_max: int) -> tuple:
    """Digests of (full, vanishing-at-origin, missing) spectra at integer alpha."""
    full = reference_states(alpha, e_max, m_min, m_max)
    line = [r for r in full if r[1] == -int(alpha) and r[2] == regular_sigma(alpha)]
    kept = [r for r in full if r not in line]
    return states_digest(full), states_digest(kept), states_digest(line)


def channel_levels(alpha: float, m: int, sigma: float, count: int) -> list[Fraction]:
    """The lowest ``count`` point-flux levels of channel (m, sigma)."""
    states = reference_states(alpha, 4 * count + 16, m, m)
    levels = sorted(Fraction(r[4]) for r in states if r[2] == sigma)
    return levels[:count]


# ---------------------------------------------------------------------------
# flux-shell matching condition, in mpmath

def cross_form(radius: float, alpha: float, m: int, sigma: float, xi, mp):
    """Pole-free matching form W(xi) = psi_out' psi_in - psi_in' psi_out - jump.

    Interior: r^|m| e^{-r^2/2} M(a_in, |m|+1, r^2); exterior:
    r^|m+alpha| e^{-r^2/2} U(xi, |m+alpha|+1, r^2); derivatives from
    dM/dz = (a/b) M(a+1, b+1, z) and dU/dz = -a U(a+1, b+1, z).  The common
    factor e^{-R^2} is dropped; it does not change the sign.
    """
    r = mp.mpf(radius)
    z = r * r
    s = mp.mpf(sigma)
    al = mp.mpf(alpha)
    ma = m + al
    energy = (abs(ma) + ma + 1 + 2 * s) / 2 - xi
    k_in = abs(m)
    b_in = k_in + 1
    a_in = (k_in + m + 1 + 2 * s) / 2 - energy
    m0 = mp.hyp1f1(a_in, b_in, z)
    m1 = mp.hyp1f1(a_in + 1, b_in + 1, z)
    v_in = r ** k_in * m0
    d_in = (k_in * r ** (k_in - 1) * m0 if k_in else 0) - r * v_in \
        + r ** (k_in + 1) * 2 * (a_in / b_in) * m1
    k_out = abs(ma)
    b_out = k_out + 1
    u0 = mp.hyperu(xi, b_out, z)
    u1 = mp.hyperu(xi + 1, b_out + 1, z)
    v_out = r ** k_out * u0
    d_out = (k_out * r ** (k_out - 1) * u0 if k_out else 0) - r * v_out \
        - r ** (k_out + 1) * 2 * xi * u1
    return d_out * v_in - d_in * v_out - (2 * s * al / r) * v_out * v_in


def sign_change(radius, alpha, m, sigma, lo: float, hi: float) -> bool:
    """True when W changes sign between xi = lo and xi = hi (mpmath, 30 digits)."""
    import mpmath

    with mpmath.workdps(30):
        w_lo = cross_form(radius, alpha, m, sigma, mpmath.mpf(lo), mpmath)
        w_hi = cross_form(radius, alpha, m, sigma, mpmath.mpf(hi), mpmath)
    return (w_lo < 0) != (w_hi < 0)


def hyperu_rel_err(a: float, b: float, z: float, value: float) -> float:
    """|value - U(a, b, z)| / |U(a, b, z)| against mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        ref = mpmath.hyperu(a, b, z)
        return float(abs(value - ref) / abs(ref)) if ref != 0 else float(abs(value))
