import math

import numpy as np
import pytest

from efk.constants import SQRT8, beta_bar
from efk.domains import (DomainSpec, annulus, ball, critical_radius,
                         hyperrectangle, lambda1, lambda1_value,
                         quadrant_square, volume)
from efk.radial import radial_lambda1


def test_lambda1_hyperrectangles():
    assert lambda1_value(hyperrectangle(math.pi)) == pytest.approx(1.0, abs=1e-15)
    assert lambda1_value(hyperrectangle(2 * math.pi)) == pytest.approx(0.25, abs=1e-15)
    assert lambda1_value(hyperrectangle(1.0, 2.0)) == pytest.approx(
        math.pi**2 + math.pi**2 / 4)
    assert lambda1_value(quadrant_square(3.0)) == pytest.approx(2 * (math.pi / 3) ** 2)


def test_lambda1_eigenfunction_normalized():
    lam, phi = lambda1(hyperrectangle(2.0, 3.0))
    assert phi.l2_norm() == pytest.approx(1.0)
    assert phi.values.min() > 0.0


def test_ball_lambda1_critical_radius_consistency():
    # at the critical disk radius for beta = sqrt(8), lambda1 = sqrt(3)-sqrt(2)
    R2 = critical_radius(SQRT8, 2)
    assert R2 == pytest.approx(4.26, abs=0.01)
    lam = lambda1_value(ball(R2, dim=2))
    assert lam == pytest.approx(math.sqrt(3.0) - math.sqrt(2.0), abs=1e-10)
    assert beta_bar(lam) == pytest.approx(SQRT8, abs=1e-9)


def test_critical_radius_dimensions():
    assert critical_radius(SQRT8, 3) == pytest.approx(5.57, abs=0.01)
    assert critical_radius(SQRT8, 10) == pytest.approx(13.46, abs=0.01)


def test_critical_radius_round_trip():
    for R in (2.0, 4.26, 9.0):
        for dim in (2, 3):
            lam = lambda1_value(ball(R, dim=dim))
            bb = beta_bar(lam)
            assert critical_radius(bb, dim) == pytest.approx(R, rel=1e-8)


def test_ball_lambda1_against_bessel_zeros():
    from scipy.special import jn_zeros

    for dim in (2, 4, 6, 8, 10, 12):
        j = jn_zeros(dim // 2 - 1, 1)[0]
        assert lambda1_value(ball(1.0, dim=dim)) == pytest.approx(j * j, rel=1e-14)
    # half-integer orders: j_{1/2,1} = pi, j_{-1/2,1} = pi/2
    assert lambda1_value(ball(1.0, dim=3)) == pytest.approx(math.pi**2, rel=1e-14)
    assert lambda1_value(ball(3.0, dim=1)) == pytest.approx((math.pi / 6) ** 2, abs=1e-12)


def test_ball_1d_critical_radius_and_eigenfunction():
    for R in (2.0, 4.26, 9.0):
        bb = beta_bar(lambda1_value(ball(R, dim=1)))
        assert critical_radius(bb, 1) == pytest.approx(R, rel=1e-12)
    lam, phi = lambda1(ball(3.0, dim=1), n_points=256)
    shape = np.cos(math.pi * phi.r / 6.0)
    assert np.max(np.abs(phi.values / phi.values[0] - shape)) < 1e-12


def test_ball_eigenfunction_profile_at_center():
    # N = 3: s^(-1/2) J_{1/2}(s) is proportional to sin(s)/s, finite at s = 0
    lam, phi = lambda1(ball(3.0, dim=3), n_points=256)
    s = math.sqrt(lam) * phi.r
    shape = np.ones_like(s)
    shape[1:] = np.sin(s[1:]) / s[1:]
    assert np.max(np.abs(phi.values[:-1] / phi.values[0] - shape[:-1])) < 1e-12


def test_ball_discrete_lambda1_second_order():
    dom = ball(4.2654, dim=2)
    exact = lambda1_value(dom)
    errs = []
    for n in (64, 128, 256):
        lam, _ = radial_lambda1(dom, n)
        errs.append(abs(lam - exact))
    slope = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.2)


def test_annulus_lambda1_against_cross_product_oracle():
    import scipy.special as sps
    from scipy.optimize import brentq

    R0, R = 5.0, 15.0
    f = lambda k: (sps.jv(0, k * R) * sps.yv(0, k * R0)
                   - sps.jv(0, k * R0) * sps.yv(0, k * R))
    k1 = brentq(f, 0.05, 0.5, xtol=1e-13)
    lam_ref = k1 * k1
    lam, phi = radial_lambda1(annulus(R0, R, dim=2), 1024)
    assert lam == pytest.approx(lam_ref, rel=1e-5)
    assert phi.values[1:-1].min() > 0.0


def test_ball_eigenfunction_positive_normalized():
    lam, phi = lambda1(ball(3.0, dim=3), n_points=256)
    assert phi.values[:-1].min() > 0
    assert phi.l2_norm() == pytest.approx(1.0, rel=1e-12)


def test_volumes():
    assert volume(hyperrectangle(2.0, 5.0)) == pytest.approx(10.0)
    assert volume(ball(2.0, dim=2)) == pytest.approx(math.pi * 4.0)
    assert volume(ball(1.0, dim=3)) == pytest.approx(4 * math.pi / 3)
    assert volume(annulus(1.0, 2.0, dim=2)) == pytest.approx(3 * math.pi)


def test_domain_validation():
    with pytest.raises(ValueError):
        hyperrectangle(-1.0)
    with pytest.raises(ValueError):
        annulus(3.0, 2.0)
    with pytest.raises(ValueError):
        DomainSpec("ball", dim=2, radius=0.0)
    with pytest.raises(ValueError):
        DomainSpec("quadrant_square", dim=3, lengths=(1.0, 1.0, 1.0))
