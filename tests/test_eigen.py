import math

import numpy as np
import pytest

from efk import eigen
from efk.domains import ball, hyperrectangle
from efk.eigen import (EigenSolveError, eigvec_positivity,
                       smallest_eigenpair, stability_report)
from efk.minimize import MinimizeConfig, minimize_truncated_positive
from efk.polar import (PolarField, linearized_angular_identity_defect,
                       minimize_disk, modewise_stability, polar_angular_defect)
from efk.radial import RadialField
from efk.spectral import (LinearizedOperator, SpectralField, THREE_U2_MINUS_1,
                          U2_MINUS_1, apply_linearized, zero_field)


def test_diagonal_eigenpair_at_zero():
    dom = hyperrectangle(2 * math.pi)
    u0 = zero_field(dom, (24,))
    lam, v, res = smallest_eigenpair(u0, 2.0, THREE_U2_MINUS_1)
    assert lam == pytest.approx(0.0625 + 0.5 - 1.0, abs=1e-9)
    assert res < 1e-7
    # eigenvector is the first mode
    assert abs(v.coeffs[0]) == pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def solution_1d():
    dom = hyperrectangle(2 * math.pi)
    res = minimize_truncated_positive(MinimizeConfig(beta=3.0, modes=(48,)), dom)
    assert res.converged
    return res.field


def test_mu1_zero_at_positive_solution(solution_1d):
    rep = stability_report(solution_1d, 3.0)
    assert abs(rep.mu1) < 5e-4
    assert rep.residual_mu < 1e-7
    assert rep.nu1 > 0.0
    assert rep.is_strictly_stable
    assert eigvec_positivity(rep.eigvec_mu)


def test_solution_is_kernel_vector(solution_1d):
    # the equation itself says (lap^2 - beta lap + u^2 - 1) u = 0
    out = apply_linearized(solution_1d, 3.0, solution_1d, U2_MINUS_1)
    assert out.l2_norm() < 1e-7 * max(1.0, solution_1d.l2_norm())


def test_potential_ordering(solution_1d):
    rep = stability_report(solution_1d, 3.0)
    assert rep.nu1 - rep.mu1 >= -1e-8


def test_potential_ordering_arbitrary_field():
    dom = hyperrectangle(2 * math.pi)
    rng = np.random.default_rng(31)
    u = SpectralField(dom, 0.4 * rng.standard_normal(24))
    rep = stability_report(u, 2.5)  # asserts nu1 >= mu1 internally
    assert rep.nu1 - rep.mu1 >= -1e-8
    # equality only for the zero field
    assert rep.nu1 - rep.mu1 > 1e-4


def test_potential_ordering_violation_raises(monkeypatch):
    fake = {U2_MINUS_1: 0.5, THREE_U2_MINUS_1: 0.1}
    monkeypatch.setattr(eigen, "smallest_eigenpair",
                        lambda u, beta, kind, tol: (fake[kind], u, 0.0))
    u = zero_field(hyperrectangle(2 * math.pi), (8,))
    with pytest.raises(EigenSolveError, match="ordering"):
        stability_report(u, 2.0)


def test_unknown_potential_rejected():
    for u in (zero_field(hyperrectangle(1.0), (8,)),
              RadialField(ball(3.0, dim=2), np.zeros(33))):
        with pytest.raises(ValueError, match="unknown potential"):
            smallest_eigenpair(u, 2.0, "u3_minus_1")


@pytest.mark.parametrize("kind", [U2_MINUS_1, THREE_U2_MINUS_1])
def test_smallest_eigenpair_matches_dense_2d(kind):
    dom = hyperrectangle(10.0, 10.0)
    k = np.arange(1, 17)
    rng = np.random.default_rng(7)
    u = SpectralField(dom, rng.standard_normal((16, 16)) / np.add.outer(k, k) ** 2)
    lam, v, res = smallest_eigenpair(u, 2.5, kind)
    dense = LinearizedOperator(u, 2.5, kind).dense()
    assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-9)
    assert res < 1e-7
    assert np.linalg.norm(dense @ v.coeffs.ravel() - lam * v.coeffs.ravel()) < 1e-7


def test_unreachable_tolerance_raises():
    u = SpectralField(hyperrectangle(10.0, 10.0), np.full((16, 16), 0.01))
    with pytest.raises(EigenSolveError, match="no convergence"):
        smallest_eigenpair(u, 2.5, THREE_U2_MINUS_1, tol=1e-300)


def test_polar_field_rejected_up_front():
    f = PolarField(ball(6.0, dim=2), np.zeros((16, 8)))
    for call in (lambda: smallest_eigenpair(f, 3.0), lambda: stability_report(f, 3.0)):
        with pytest.raises(TypeError, match="PolarField"):
            call()


def test_rayleigh_quotient_upper_bounds(solution_1d):
    lam, v, _ = smallest_eigenpair(solution_1d, 3.0, THREE_U2_MINUS_1)
    rng = np.random.default_rng(2)
    for _ in range(6):
        t = rng.standard_normal(solution_1d.modes)
        trial = SpectralField(solution_1d.domain, t / np.linalg.norm(t))
        rq = float(np.sum(apply_linearized(solution_1d, 3.0, trial,
                                           THREE_U2_MINUS_1).coeffs * trial.coeffs))
        assert lam <= rq + 1e-7


def test_eigvec_positivity_examples():
    dom = hyperrectangle(2 * math.pi)
    e1 = np.zeros(16); e1[0] = 1.0
    e2 = np.zeros(16); e2[1] = 1.0
    assert eigvec_positivity(SpectralField(dom, e1))
    assert not eigvec_positivity(SpectralField(dom, e2))
    assert eigvec_positivity(SpectralField(dom, -e1))  # sign-normalized first


def test_polar_commutator_identity():
    dom = ball(6.0, dim=2)
    n_r, n_t = 64, 32
    h = 6.0 / n_r
    r = (np.arange(n_r) + 0.5) * h
    theta = np.arange(n_t) * 2 * math.pi / n_t
    vals = (np.outer(np.sin(math.pi * r / 6.0), np.ones(n_t))
            + 0.4 * np.outer(np.sin(2 * math.pi * r / 6.0), np.cos(2 * theta))
            + 0.2 * np.outer(r / 6.0 * (1 - r / 6.0), np.sin(3 * theta)))
    f = PolarField(dom, vals)
    assert linearized_angular_identity_defect(f, 3.0) < 1e-8


def test_disk_minimizer_radial_from_nonradial_start():
    dom = ball(10.0, dim=2)
    field, converged, iters = minimize_disk(dom, 4.0, n_r=96, n_theta=32, seed=5)
    assert converged
    defect = polar_angular_defect(field)
    assert defect < 1e-3 * field.sup_norm()
    stab = modewise_stability(field, 4.0, max_modes=6)
    assert min(stab.values()) > 0.0


def test_radial_field_smallest_eigenpair():
    dom = ball(6.0, dim=2)  # large enough for a nontrivial solution at beta=3
    res = minimize_truncated_positive(MinimizeConfig(beta=3.0, n_points=192), dom)
    assert res.field.sup_norm() > 0.1
    lam, v, _ = smallest_eigenpair(res.field, 3.0, U2_MINUS_1)
    assert abs(lam) < 5e-4
    assert eigvec_positivity(v)
