"""Special-function layer: values frozen from a 40-digit mpmath run.

Reference values were produced once with

    mpmath.mp.dps = 40; mpmath.hyperu(a, b, z) / hyp1f1 / digamma / gamma

and pasted here, so the tests never import the library they are checking
against at runtime.  The U grid is chosen to force every internal branch:
the two-M connection formula, the integer-b logarithmic series, the Laplace
integral (a > 0), the downward recurrence (a <= 0), the large-z asymptotic
series, and the b < 1 lift.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fluxtube.specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    digamma,
    gamma_sign,
    gammafn,
    gauss_laguerre,
    kummer_m,
    kummer_u,
    laguerre,
    laguerre_deriv,
    lgamma,
    rgamma,
)

# (a, b, z, U(a,b,z)) — branch noted per block
U_REFERENCE = [
    # z <= 8, non-integer b: two-M connection formula
    (0.3, 1.5, 0.5, 1.3237376507795524),
    (-0.7, 2.3, 3.0, 1.1004113327870426),
    (1.7, 1.25, 7.5, 0.024936630643326486),
    (0.37, 1.5, 0.0001, 74.162472433989319),
    (-0.6, 2.2, 0.001, -996.11044051028896),
    (2.4, 3.8, 0.02, 77490.567870763976),
    # z <= 8, integer b: logarithmic limit series
    (0.3, 1.0, 0.5, 1.1205751915782955),
    (0.45, 2.0, 2.0, 0.81255921696567776),
    (1.2, 3.0, 5.0, 0.17178557580068248),
    (-0.8, 2.0, 1.0, -0.54894800404223012),
    (0.9, 1.0, 0.001, 6.0965157289159037),
    (1.3, 4.0, 6.0, 0.13782007760454185),
    # 8 < z <= 50, a > 0: Laplace integral
    (0.3, 1.5, 12.0, 0.47679003343119821),
    (1.7, 3.0, 20.0, 0.006291013267164727),
    (2.5, 2.25, 45.0, 6.8907559800515926e-5),
    (0.05, 1.0, 10.0, 0.89103899364676562),
    # 8 < z <= 50, a <= 0: downward recurrence in a
    (-0.7, 1.5, 12.0, 5.2945648791864012),
    (-2.3, 2.0, 30.0, 1896.4309263117118),
    (-1.5, 3.5, 15.0, 36.045210505928061),
    (-4.6, 1.0, 9.0, -1280.9025463670534),
    # z > 50: asymptotic series with certified truncation
    (0.3, 1.5, 80.0, 0.26877973570664942),
    (-0.7, 2.0, 120.0, 28.254968014183879),
    (1.9, 3.2, 400.0, 1.1394699750267783e-5),
    (3.1, 1.0, 55.0, 3.4155441386092892e-6),
    # b < 1: lift U(a,b,z) = z^{1-b} U(a-b+1, 2-b, z)
    (0.3, 0.5, 2.0, 0.7452924078740467),
    (-1.7, -0.5, 4.0, 9.5983503118055643),
    (0.8, 0.25, 30.0, 0.06327940368227435),
]

M_REFERENCE = [
    (0.3, 1.5, 2.5, 2.1316621499884543),
    (-1.2, 2.25, 10.0, 2.6441933921235848),
    (0.7, 1.0, 30.0, 2976766495176.9905),
    (2.3, 3.1, 150.0, 4.7344789400084045e+63),
    (0.3, 1.5, -5.0, 0.58708784504288583),
    (1.1, 2.0, -40.0, 0.016223190464747555),
    (-0.4, 1.7, -12.0, 2.431808551002363),
    (0.25, 0.75, -300.0, 0.16619196875214264),
]

DIGAMMA_REFERENCE = [
    (0.1, -10.423754940411076),
    (0.5, -1.9635100260214235),
    (1.0, -0.57721566490153286),
    (3.7, 1.1671535393615114),
    (10.2, 2.2725679048451721),
    (47.5, 3.8501664624463935),
    (-0.3, 2.1133097796353989),
    (-5.7, -0.45687230493238279),
    (-20.25, 6.1742356336144838),
]

LGAMMA_REFERENCE = [
    (0.5, 0.57236494292470009),
    (1.0, 0.0),
    (5.0, 3.1780538303479456),
    (-2.5, -0.056243716497674051),
    (12.3, 18.238983407092244),
]


@pytest.mark.parametrize("a,b,z,ref", U_REFERENCE)
def test_kummer_u_reference_grid(a, b, z, ref):
    assert kummer_u(a, b, z) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("a,b,z,ref", M_REFERENCE)
def test_kummer_m_reference_grid(a, b, z, ref):
    assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,ref", DIGAMMA_REFERENCE)
def test_digamma_reference_grid(x, ref):
    assert digamma(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("x,ref", LGAMMA_REFERENCE)
def test_lgamma_reference_grid(x, ref):
    assert lgamma(x) == pytest.approx(ref, abs=1e-12, rel=1e-13)


def test_kummer_m_at_zero_is_one():
    assert kummer_m(0.7, 1.3, 0.0) == 1.0


def test_kummer_m_closed_form_ratio():
    # M(1, 2, z) = (e^z - 1)/z
    for z in (0.3, 2.0, 11.0, -7.0):
        assert kummer_m(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-13)


def test_kummer_transformation():
    """M(a, b, z) = e^z M(b-a, b, -z) must hold across the sign switch."""
    for a, b, z in [(0.3, 1.5, 6.0), (1.2, 2.7, 18.0), (-0.8, 1.1, 3.0)]:
        left = kummer_m(a, b, z)
        right = math.exp(z) * kummer_m(b - a, b, -z)
        assert left == pytest.approx(right, rel=1e-10)


def test_u_is_one_when_a_is_zero():
    assert kummer_u(0.0, 3.2, 5.0) == 1.0


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("b", [1.3, 2.0, 2.7, 4.5])
@pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 20.0])
def test_u_collapses_to_laguerre_at_nonpositive_integer_a(n, b, z):
    # U(-n, b, z) = (-1)^n n! L_n^{b-1}(z)
    poly = (-1.0) ** n * math.factorial(n) * laguerre(n, b - 1.0, z)
    assert kummer_u(-float(n), b, z) == pytest.approx(poly, rel=1e-12, abs=1e-12)


def test_u_contiguous_recurrence_in_a():
    # U(a-1,b,z) = (2a - b + z) U(a,b,z) - a (a - b + 1) U(a+1,b,z)
    for a, b, z in [(0.6, 1.5, 3.0), (1.4, 2.0, 12.0), (2.2, 3.3, 60.0)]:
        lhs = kummer_u(a - 1.0, b, z)
        rhs = (2.0 * a - b + z) * kummer_u(a, b, z) \
            - a * (a - b + 1.0) * kummer_u(a + 1.0, b, z)
        assert lhs == pytest.approx(rhs, rel=5e-8)


def test_u_small_z_limit_ratio_approaches_gamma_prefactor():
    """As z -> 0+ (for b > 1), U(a,b,z) -> Gamma(b-1)/Gamma(a) z^{1-b}.

    The normalized ratio must approach 1 from z = 1e-2 down to 1e-4, and the
    deviation |ratio - 1| must shrink monotonically with z.
    """
    for a, b in [(0.37, 1.5), (-0.6, 2.2)]:
        devs = []
        for z in (1e-2, 1e-3, 1e-4):
            lead = gammafn(b - 1.0) / gammafn(a) * z ** (1.0 - b)
            devs.append(abs(kummer_u(a, b, z) / lead - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


def test_gamma_sign_flips_across_each_negative_integer():
    for n in range(6):
        assert gamma_sign(-n + 0.1) == -gamma_sign(-n - 0.1)
    assert gamma_sign(0.5) == 1
    assert gamma_sign(-0.5) == -1
    assert gamma_sign(-1.5) == 1


def test_rgamma_vanishes_at_poles_and_inverts_elsewhere():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    for x in (0.5, 2.0, -0.5, -2.5):
        assert rgamma(x) * gammafn(x) == pytest.approx(1.0, rel=1e-14)


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        lgamma(0.0)
    with pytest.raises(PoleError):
        gamma_sign(-2.0)
    with pytest.raises(PoleError):
        digamma(-4.0)
    with pytest.raises(PoleError):
        kummer_m(0.3, -1.0, 2.0)
    with pytest.raises(DomainError):
        kummer_u(0.3, 1.5, 0.0)
    with pytest.raises(DomainError):
        kummer_u(0.3, 1.5, -2.0)
    with pytest.raises(DomainError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(DomainError):
        gauss_laguerre(0, 0.5)
    with pytest.raises(DomainError):
        gauss_laguerre(10, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_domain_errors(bad):
    for args in [(bad, 1.5, 2.0), (0.5, bad, 2.0), (0.5, 1.5, bad)]:
        with pytest.raises(DomainError):
            kummer_u(*args)
        with pytest.raises(DomainError):
            kummer_m(*args)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_laplace_integral_is_a_convergence_error():
    # z in (8, 50] runs the Laplace route; (1 + u/z)^(b - a - 1) overflows
    for a in (0.5, -2.5):  # the rule alone, and the rule plus the recurrence
        with pytest.raises(ConvergenceError):
            kummer_u(a, 800.0, 20.0)


def test_import_leaves_scipy_integrate_out():
    # kummer_u's Laplace route runs on gauss_laguerre, not scipy.integrate.quad
    code = "import sys, fluxtube; print('scipy.integrate' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    for x in (0.2, 1.7, 9.9, -3.3):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)


def test_laguerre_spot_value():
    # L_2^{1/2}(1) = (a+1)(a+2)/2 - (a+2) z + z^2/2 at a=1/2, z=1
    assert laguerre(2, 0.5, 1.0) == pytest.approx(-0.125, abs=1e-15)


def test_laguerre_vector_matches_scalar():
    z = np.linspace(0.0, 12.0, 7)
    vec = laguerre(4, 1.5, z)
    assert vec.shape == z.shape
    for zi, vi in zip(z, vec):
        assert laguerre(4, 1.5, float(zi)) == pytest.approx(vi, rel=1e-13)


def test_laguerre_deriv_matches_finite_difference():
    h = 1e-6
    for n, a, z in [(0, 0.5, 1.0), (1, 0.5, 2.0), (3, 1.5, 0.7), (6, 2.5, 4.0)]:
        fd = (laguerre(n, a, z + h) - laguerre(n, a, z - h)) / (2.0 * h)
        assert laguerre_deriv(n, a, z) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gauss_laguerre_moments():
    """Rule with weight z^gamma e^-z must integrate monomials exactly.

    int_0^inf z^{gamma+k} e^-z dz = Gamma(gamma+k+1); a 20-node rule is
    exact through degree 39.
    """
    for gamma in (-0.5, 0.0, 0.5, 1.5):
        nodes, weights = gauss_laguerre(20, gamma)
        for k in range(0, 30, 3):
            got = float(np.dot(weights, nodes ** k))
            want = math.exp(math.lgamma(gamma + k + 1.0))
            assert got == pytest.approx(want, rel=1e-12)


def test_gauss_laguerre_orthonormality():
    n = 24
    gamma = 0.5
    nodes, weights = gauss_laguerre(n, gamma)
    norm = math.exp(math.lgamma(gamma + 1.0))  # ||L_0||^2
    for i in range(6):
        for j in range(6):
            li = laguerre(i, gamma, nodes)
            lj = laguerre(j, gamma, nodes)
            got = float(np.dot(weights, li * lj))
            if i == j:
                want = math.exp(math.lgamma(i + gamma + 1.0) - math.lgamma(i + 1.0))
            else:
                want = 0.0
            assert got == pytest.approx(want, abs=1e-12 * norm, rel=1e-12)


def test_gauss_laguerre_cache_returns_readonly():
    nodes, weights = gauss_laguerre(8, 0.0)
    assert not nodes.flags.writeable
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_u_positive_for_positive_parameters():
    # For a, b, z > 0 the Laplace representation is a positive integral.
    for a, b, z in [(0.2, 1.1, 0.5), (1.5, 2.5, 10.0), (3.0, 1.0, 70.0)]:
        assert kummer_u(a, b, z) > 0.0
