"""Brent's root finder, the one used by the shell matching and by the oracle.

A line-by-line port of the ``brentq`` routine of SciPy's C root finders
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
ch. 4): inverse quadratic interpolation or a secant step when it stays well
inside the bracket, bisection otherwise.  Same defaults, same iterates and
the same errors, so roots and iteration counts match ``scipy.optimize.brentq``
bit for bit.  Standard library only.
"""

from __future__ import annotations

import math

# scipy's defaults: four machine epsilons of relative tolerance, 100 iterations
_RTOL = 4.0 * 2.0 ** -52
_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> tuple[float, int]:
    """(root, iterations) of f in [a, b], to xtol + ``_RTOL`` |root|.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    nan, and RuntimeError when ``_MAXITER`` iterations do not converge.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:  # an exact end takes no iteration (scipy leaves its count unset)
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, _MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur!r}")
