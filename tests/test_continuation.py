import math

import numpy as np
import pytest

from efk import continuation
from efk.constants import SQRT8
from efk.continuation import (ContinuationConfig, ContinuationError,
                              amplitude_law_slope, bifurcation_point,
                              continue_branch, extrapolate_endpoint,
                              newton_at_beta, one_mode_amplitude, seed_branch,
                              uniqueness_quadratic_check,
                              verify_uniqueness_segment)
from efk.domains import ball, critical_radius, hyperrectangle, lambda1_value
from efk.minimize import MinimizeConfig, minimize
from efk.potentials import CUBIC
from efk.spectral import LinearizedOperator, SpectralField, gradient

DOM = hyperrectangle(2 * math.pi)
MODES = (48,)


def test_bifurcation_point_values():
    assert bifurcation_point(DOM) == pytest.approx(3.75, abs=1e-14)
    disk = ball(critical_radius(SQRT8, 2), dim=2)
    assert bifurcation_point(disk) == pytest.approx(SQRT8, abs=1e-9)
    with pytest.raises(ContinuationError):
        bifurcation_point(hyperrectangle(math.pi))  # lambda1 = 1


def test_one_mode_amplitude_matches_bisection_oracle():
    beta = 3.7
    L = 2 * math.pi
    lam = lambda1_value(DOM)
    g1 = lambda a: (lam * lam + beta * lam - 1.0) * a + 3.0 * a**3 / (2 * L)
    lo, hi = 1e-6, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g1(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert one_mode_amplitude(DOM, beta) == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_seed_branch_small_epsilon():
    bb = bifurcation_point(DOM)
    seed = seed_branch(DOM, bb, 0.05, MODES)
    assert seed.beta == pytest.approx(3.7)
    assert seed.residual < 1e-9
    assert seed.nu1 > 0
    assert 0.1 < seed.sup_norm < 0.2


def test_seed_branch_epsilon_validation():
    bb = bifurcation_point(DOM)
    with pytest.raises(ValueError):
        seed_branch(DOM, bb, -0.1, MODES)
    with pytest.raises(ValueError):
        seed_branch(DOM, bb, 0.0, MODES)


def test_amplitude_law_slope_half():
    slope = amplitude_law_slope(DOM, MODES)
    assert slope == pytest.approx(0.5, abs=0.05)


@pytest.fixture(scope="module")
def branch():
    bb = bifurcation_point(DOM)
    seed = seed_branch(DOM, bb, 0.05, MODES)
    cfg = ContinuationConfig(beta_start=seed.beta, ds=0.02, max_steps=150,
                             direction="decreasing_beta", beta_min=SQRT8)
    return continue_branch(cfg, seed)


def test_branch_segment_properties(branch):
    assert len(branch) > 5
    for p in branch[1:]:
        assert p.residual < 1e-9
        assert p.nu1 > 0.0
        assert 0.0 < p.sup_norm <= 1.0 + 1e-6
    arcs = [p.arclength for p in branch]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    sups = [p.sup_norm for p in branch]
    assert all(b >= a - 1e-10 for a, b in zip(sups, sups[1:]))


def test_branch_restart_consistency(branch):
    # restarting from an interior point stays on the same solution curve
    i = len(branch) // 2
    cfg = ContinuationConfig(beta_start=branch[i].beta, ds=0.02, max_steps=3,
                             direction="decreasing_beta")
    restarted = continue_branch(cfg, branch[i])
    for p in restarted[1:]:
        x_ref, res, ok = newton_at_beta(DOM, MODES, p.beta,
                                        branch[i].field.coeffs.ravel())
        assert ok
        assert np.linalg.norm(p.field.coeffs.ravel() - x_ref) < 1e-6


def test_step_underflow_stops_partial():
    bb = bifurcation_point(DOM)
    seed = seed_branch(DOM, bb, 0.05, MODES)
    cfg = ContinuationConfig(beta_start=seed.beta, ds=1e-4, ds_min=1e-4,
                             ds_max=1e-4, max_steps=5, newton_tol=0.0)
    pts = continue_branch(cfg, seed)  # unattainable tolerance: no accepted steps
    assert len(pts) == 1


def test_endpoint_extrapolation(branch):
    bb = bifurcation_point(DOM)
    seed = seed_branch(DOM, bb, 0.05, MODES)
    cfg = ContinuationConfig(beta_start=seed.beta, ds=0.005, ds_max=0.02,
                             max_steps=120, direction="increasing_beta",
                             stop_sup_below=0.02)
    up = continue_branch(cfg, seed)
    assert abs(extrapolate_endpoint(up) - 3.75) < 1e-3


def test_uniqueness_segment(branch):
    reports = verify_uniqueness_segment(DOM, [3.0, 3.74], MODES, branch=branch)
    for rep in reports:
        assert rep.n_positive >= 3
        assert rep.passed
        assert rep.max_l2_mismatch < 1e-5
    assert reports[1].branch_sup < 0.1  # near the bifurcation point


def test_above_bifurcation_only_trivial():
    res = minimize(MinimizeConfig(beta=3.76, modes=MODES,
                                  init=("random", 1, 0.3)), DOM)
    assert res.field.sup_norm() < 1e-6


def test_uniqueness_quadratic_form_check(branch):
    p = branch[len(branch) // 2]
    x = p.field.coeffs.ravel()
    rng = np.random.default_rng(0)
    x_pert = x + 1e-3 * rng.standard_normal(x.size)
    x_re, _, ok = newton_at_beta(DOM, MODES, p.beta, x_pert)
    assert ok
    form, w_norm = uniqueness_quadratic_check(
        p.field, SpectralField(DOM, x_re.reshape(MODES)), p.beta)
    assert w_norm < 1e-5
    assert abs(form) < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(beta_start=3.0, ds=1.0, ds_max=0.1)
    with pytest.raises(ValueError):
        ContinuationConfig(beta_start=3.0, direction="sideways")


def test_branch_3d_box():
    cube = hyperrectangle(2 * math.pi, 2 * math.pi, 2 * math.pi)
    modes = (8, 8, 8)
    seed = seed_branch(cube, bifurcation_point(cube), 0.05, modes)
    cfg = ContinuationConfig(beta_start=seed.beta, ds=0.02, max_steps=3,
                             direction="decreasing_beta")
    points = continue_branch(cfg, seed)
    assert len(points) == 4
    assert all(b.beta < a.beta for a, b in zip(points, points[1:]))
    for p in points:
        assert p.residual < cfg.newton_tol
    _assert_nu1_is_dense_eig(points)


def _assert_nu1_is_dense_eig(points):
    for p in points:
        dense = LinearizedOperator(p.field, p.beta).dense()
        assert p.nu1 == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)


@pytest.fixture(scope="module")
def branch_2d():
    square = hyperrectangle(2 * math.pi, 2 * math.pi)
    seed = seed_branch(square, bifurcation_point(square), 0.05, (16, 16))
    cfg = ContinuationConfig(beta_start=seed.beta, ds=0.05, ds_max=0.1, max_steps=6)
    return continue_branch(cfg, seed)


def test_nu1_is_the_dense_eig_at_every_point(branch, branch_2d):
    # the Jacobian of the converged point, not of the iterate before the last update
    assert len(branch_2d) == 7
    _assert_nu1_is_dense_eig(branch)
    _assert_nu1_is_dense_eig(branch_2d)


def _plain_newton(domain, modes, beta, x, tol=1e-9, max_iter=30):
    for _ in range(max_iter):
        field = SpectralField(domain, x.reshape(modes))
        g = gradient(field, beta, CUBIC).coeffs.ravel()
        if np.linalg.norm(g) < tol:
            return x
        x = x + np.linalg.solve(LinearizedOperator(field, beta).dense(), -g)
    raise AssertionError("plain Newton did not converge")


def test_newton_at_beta_matches_plain_newton(branch, branch_2d):
    rng = np.random.default_rng(1)
    for p in (branch[len(branch) // 2], branch_2d[-1]):
        x0 = p.field.coeffs.ravel() + 1e-3 * rng.standard_normal(p.field.coeffs.size)
        x, res, ok = newton_at_beta(p.field.domain, p.field.modes, p.beta, x0)
        assert ok and res < 1e-9
        x_ref = _plain_newton(p.field.domain, p.field.modes, p.beta, x0)
        assert np.max(np.abs(x - x_ref)) < 1e-12


def test_dense_paths_refuse_above_the_limit(monkeypatch):
    modes = (101,)
    bb = bifurcation_point(DOM)
    seed = seed_branch(DOM, bb, 0.05, modes)
    monkeypatch.setattr(continuation, "DENSE_LIMIT", 100)
    with pytest.raises(NotImplementedError, match="DENSE_LIMIT = 100"):
        seed_branch(DOM, bb, 0.05, modes)
    with pytest.raises(NotImplementedError, match="DENSE_LIMIT = 100"):
        newton_at_beta(DOM, modes, seed.beta, seed.field.coeffs.ravel())
    with pytest.raises(NotImplementedError, match="DENSE_LIMIT = 100"):
        continue_branch(ContinuationConfig(beta_start=seed.beta), seed)


def test_branch_without_nu1_assembles_no_converged_jacobian(monkeypatch):
    seed = seed_branch(DOM, bifurcation_point(DOM), 0.05, MODES)
    jacobian, calls = continuation._jacobian, []
    monkeypatch.setattr(continuation, "_jacobian", lambda *a: calls.append(1) or jacobian(*a))
    counts, branches = [], []
    for compute_nu1 in (True, False):
        calls.clear()
        cfg = ContinuationConfig(beta_start=seed.beta, ds=0.05, max_steps=6,
                                 compute_nu1=compute_nu1)
        branches.append(continue_branch(cfg, seed))
        counts.append(len(calls))
    with_nu1, without = branches
    assert [p.beta for p in with_nu1] == [p.beta for p in without]
    assert len(without) == 7 and all(math.isnan(p.nu1) for p in without[1:])
    # nu1 costs one assembly per point; a converged point without it costs none
    assert counts[0] - counts[1] == len(without) - 1
