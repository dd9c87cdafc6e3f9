import math

import pytest
import scipy.special as sps

from efk.domains import bessel_first_zero


def test_first_zero_order0():
    # independent oracle: bisection on scipy's evaluator
    from scipy.optimize import brentq

    oracle = brentq(lambda x: sps.jv(0, x), 2.0, 3.0, xtol=1e-13)
    assert bessel_first_zero(0.0) == pytest.approx(oracle, abs=1e-11)
    assert bessel_first_zero(0.0) == pytest.approx(2.4048255577, abs=1e-9)


def test_first_zero_half_integer_is_pi():
    # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-11)


def test_first_zero_order1():
    assert bessel_first_zero(1.0) == pytest.approx(3.8317059702, abs=1e-9)


def test_first_zero_matches_scipy_table():
    for order in (0, 1, 2, 3, 4):
        ref = sps.jn_zeros(order, 1)[0]
        assert bessel_first_zero(float(order)) == pytest.approx(ref, rel=1e-11)
