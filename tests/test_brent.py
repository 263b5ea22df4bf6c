"""The package's Brent root finder against scipy.optimize.brentq.

``fluxtube._brent.brentq`` ports scipy's C routine, so roots must agree to
the last bit and iteration counts exactly, on plain functions and on the two
functions the package refines: the shell matching Wronskian and the oracle's
decay defect.  scipy is a test-only reference here, as mpmath is for the
special functions.
"""

import math

import pytest

from fluxtube import ShootingProblem, TubeModel, find_xi_roots, shoot
from fluxtube._brent import brentq
from fluxtube.regularization import matching_wronskian

scipy_optimize = pytest.importorskip("scipy.optimize")


def reference(f, a, b, xtol):
    root, info = scipy_optimize.brentq(f, a, b, xtol=xtol, full_output=True)
    return root.hex(), info.iterations


def ported(f, a, b, xtol):
    root, iterations = brentq(f, a, b, xtol)
    return root.hex(), iterations


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: (x - 0.3) * (x + 2.0) * (x - 7.0), -1.0, 1.0),
    (lambda x: x ** 2 - 1e-300, 0.0, 1.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: math.tan(x) - 1.0, 0.0, 1.5),
    (lambda x: math.log(x) + x * x - 3.0, 0.1, 4.0),
])
@pytest.mark.parametrize("xtol", [2e-12, 1e-13, 1e-6])
def test_matches_scipy_on_plain_functions(f, a, b, xtol):
    assert ported(f, a, b, xtol) == reference(f, a, b, xtol)


@pytest.mark.parametrize("radius, alpha, m, sigma", [
    (0.1, 0.5, 0, 0.5), (1.0, -1.2, 1, -0.5), (3.0, 2.6, -2, 0.5), (6.0, 0.4, 3, -0.5),
])
def test_matches_scipy_on_the_matching_wronskian(radius, alpha, m, sigma):
    model = TubeModel(radius, alpha, m, sigma)
    results = find_xi_roots(model, n_max=2)
    assert results

    def w_of_xi(xi):
        return matching_wronskian(model, model.energy_from_xi(xi))[0]

    for res in results:
        lo, hi = res.bracket
        assert ported(w_of_xi, lo, hi, 1e-13) == reference(w_of_xi, lo, hi, 1e-13)
        assert ported(w_of_xi, lo, hi, 1e-13) == (res.xi.hex(), res.iterations)


def test_matches_scipy_on_a_shoot_defect():
    problem = ShootingProblem(alpha=0.5, m=0, sigma=0.5, shell_radius=0.3)

    def defect(e):
        return shoot(problem, e)[0]

    assert ported(defect, 1.2, 1.8, 1e-12) == reference(defect, 1.2, 1.8, 1e-12)


def test_exact_root_at_an_endpoint():
    # scipy returns the end too, but leaves its iteration count uninitialized there
    for a, b in ((1.0, 2.0), (0.0, 1.0)):
        assert ported(lambda x: x - 1.0, a, b, 2e-12) == ((1.0).hex(), 0)
        assert reference(lambda x: x - 1.0, a, b, 2e-12)[0] == (1.0).hex()


def test_same_sign_ends_are_a_value_error():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12)
    with pytest.raises(ValueError, match="different signs"):
        scipy_optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_is_a_value_error():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 2e-12)


def test_no_convergence_in_100_iterations_is_a_runtime_error():
    # (x - 1)^5 is so flat at its root that f(x) loses every digit there
    def flat(x):
        return (x - 1.0) ** 5

    with pytest.raises(RuntimeError, match="after 100 iterations"):
        brentq(flat, 0.0, 3.0, 2e-12)
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        scipy_optimize.brentq(flat, 0.0, 3.0)
