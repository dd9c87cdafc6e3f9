import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from efk import minimize as minimize_module
from efk import spectral as sp
from efk.constants import SQRT8, m_beta
from efk.domains import annulus, ball, hyperrectangle
from efk.minimize import (MinimizeConfig, build_problem, gamma_rescaling_residual,
                          gamma_sweep, initial_guess, lbfgs, minimize,
                          minimize_truncated_positive, random_band_limited,
                          w_field_check)
from efk.radial import RadialField
from efk.spectral import SpectralField, evaluate_at


def test_trivial_regime_five_random_starts():
    dom = hyperrectangle(2 * math.pi)
    for seed in (1, 2, 3, 4, 5):
        res = minimize(MinimizeConfig(beta=4.0, modes=(48,),
                                      init=("random", seed, 0.3)), dom)
        assert res.converged
        assert res.field.sup_norm() < 1e-6


def test_trivial_regime_tiny_domain():
    # lambda1 = 2 pi^2 >> 1, so only the zero solution exists at beta = 5
    dom = hyperrectangle(1.0, 1.0)
    res = minimize(MinimizeConfig(beta=5.0, modes=(16, 16),
                                  init=("random", 0, 0.4)), dom)
    assert res.field.sup_norm() < 1e-7


def test_positive_minimizer_2d_bounds():
    dom = hyperrectangle(20.0, 20.0)
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, modes=(64, 64)), dom)
    assert res.converged and not res.defects
    assert -1e-6 <= res.report.u_min
    assert res.report.u_max <= 1.0 + 1e-6
    mid = evaluate_at(res.field, [np.array([10.0]), np.array([10.0])])[0, 0]
    assert mid > 0.9


def test_truncated_positive_reports_max_iters():
    dom = hyperrectangle(20.0, 20.0)
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, modes=(32, 32),
                                                     max_iters=3), dom)
    assert not res.converged and res.iterations == 3
    assert any("max_iters" in d for d in res.defects)


def test_truncated_positive_m_beta_bound():
    dom = hyperrectangle(20.0, 20.0)
    res = minimize_truncated_positive(MinimizeConfig(beta=1.6, modes=(64, 64)), dom)
    assert res.converged and not res.defects
    assert res.report.u_max <= m_beta(1.6) + 1e-6
    assert m_beta(1.6) == pytest.approx(1.265, abs=5e-3)


def test_energy_monotone_along_trace():
    dom = hyperrectangle(20.0, 20.0)
    res = minimize(MinimizeConfig(beta=3.0, modes=(48, 48)), dom)
    energies = [f for _, f, _ in res.trace]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-11 * np.maximum(1.0, np.abs(energies[:-1])))


def test_multistart_uniqueness_above_sqrt8():
    dom = hyperrectangle(20.0, 20.0)
    problem = build_problem(MinimizeConfig(beta=3.0, modes=(48, 48)), dom)
    from efk.minimize import _run_single

    solutions = []
    for seed in range(5):
        x0 = random_band_limited(problem, seed, 0.3, positive_bias=0.15)
        run = _run_single(problem, x0, None, 4000)
        assert run.converged
        vals = problem.field(run.x).values
        if vals.min() > -1e-6 and vals.mean() > 0:
            solutions.append(run.x)
    assert len(solutions) >= 3
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            assert np.linalg.norm(solutions[i] - solutions[j]) < 1e-5


def test_multistart_reports_spread():
    dom = hyperrectangle(2 * math.pi)
    res = minimize(MinimizeConfig(beta=4.0, modes=(32,), seeds=(0, 1, 2, 3)), dom)
    assert res.l2_spread < 1e-6  # everything collapses to zero here


@pytest.mark.parametrize("seeds", [(), (7,), (1, 2)])
def test_each_seed_is_one_random_start(monkeypatch, seeds):
    # one descent per seed from that seed's band-limited start; none from init
    dom = hyperrectangle(2 * math.pi)
    cfg = MinimizeConfig(beta=4.0, modes=(16,), seeds=seeds, max_iters=5)
    problem = build_problem(cfg, dom)
    starts = []
    run_single = minimize_module._run_single

    def recording(problem, x0, *args):
        starts.append(x0)
        return run_single(problem, x0, *args)
    monkeypatch.setattr(minimize_module, "_run_single", recording)
    minimize(cfg, dom)
    expected = ([random_band_limited(problem, s, cfg.amplitude) for s in seeds]
                or [initial_guess(problem, cfg.init)])
    assert len(starts) == len(expected)
    for got, want in zip(starts, expected):
        assert np.array_equal(got, want)


def test_w_field_check_examples():
    dom = hyperrectangle(20.0, 20.0)
    res = minimize_truncated_positive(MinimizeConfig(beta=2.0, modes=(64, 64)), dom)
    assert w_field_check(res.field, 2.0)
    # the negated principal eigenfunction fails the sign requirement
    neg = SpectralField(dom, -res.field.coeffs)
    assert not w_field_check(neg, 2.0)
    zero = SpectralField(dom, np.zeros((64, 64)))
    assert w_field_check(zero, 2.0)


def test_radial_minimize_dispatch():
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, n_points=192),
                                      ball(10.0, dim=2))
    assert isinstance(res.field, RadialField)
    assert res.converged and not res.defects
    assert res.report.u_max <= 1.0 + 1e-6


def test_initial_guess_kinds():
    dom = hyperrectangle(2 * math.pi)
    problem = build_problem(MinimizeConfig(beta=3.0, modes=(16,)), dom)
    z = initial_guess(problem, ("zero",))
    assert np.all(z == 0)
    d = initial_guess(problem, ("delta_phi1", 0.2))
    assert d[0] == pytest.approx(0.2) and np.all(d[1:] == 0)
    r = initial_guess(problem, ("random", 7, 0.5))
    assert np.max(np.abs(r)) == pytest.approx(0.5)
    assert np.all(r[8:] == 0)  # band-limited to the lowest 8 modes
    with pytest.raises(ValueError):
        initial_guess(problem, ("nope",))


def test_gamma_sweep_positivity_and_increments():
    dom = hyperrectangle(2 * math.pi)
    cfg = MinimizeConfig(beta=1.0, modes=(48,))
    sweep = gamma_sweep(dom, [1e-2, 1e-3, 1e-4, 0.0], cfg)
    assert sweep.converged
    for rep in sweep.reports:
        assert rep.u_min >= -1e-8
        assert rep.u_max > 0.5
    assert sweep.increments[-1] < 0.05
    assert sweep.increments[0] > sweep.increments[-1]


def test_gamma_zero_solves_second_order_problem():
    # lambda1 = 1/4 < 1: the classical second-order ground state is positive
    dom = hyperrectangle(2 * math.pi)
    cfg = MinimizeConfig(beta=1.0, modes=(48,))
    sweep = gamma_sweep(dom, [0.0], cfg)
    rep = sweep.reports[0]
    assert rep.u_min >= -1e-10 and 0.8 < rep.u_max < 1.0


def test_gamma_rescaling_residual():
    dom = hyperrectangle(2 * math.pi)
    cfg = MinimizeConfig(beta=1.0, modes=(48,))
    gamma = 1.0 / 64.0
    assert gamma ** -0.25 == pytest.approx(SQRT8)  # mu = sqrt(8) exactly
    resid = gamma_rescaling_residual(dom, gamma, cfg)
    assert resid < 1e-6


def test_minimize_config_validation():
    with pytest.raises(ValueError):
        MinimizeConfig(beta=1.0, grad_tol=-1.0)


def test_lbfgs_on_quadratic():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    A = A @ A.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    fun = lambda x: 0.5 * x @ A @ x - b @ x
    grad = lambda x: A @ x - b
    # without a difference-form line search the f-comparison limits precision
    res = lbfgs(fun, grad, np.zeros(30), grad_tol=1e-7, max_iters=500)
    assert res.converged
    assert np.linalg.norm(A @ res.x - b) < 1e-6


@pytest.mark.parametrize("seed", [532265813, 431099349])
def test_truncated_positive_annulus_starts_that_used_to_stall(seed):
    # the truncated line differences used to sit on round-off here, and the
    # descent stopped at max_iters with the gradient near 1e-5
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, n_points=512, seeds=(seed,)),
                                      annulus(5.0, 15.0))
    assert res.converged and not res.defects
    assert res.iterations < 100


def _oscillation_problem(modes):
    return build_problem(MinimizeConfig(beta=0.1, modes=modes), hyperrectangle(50.0, 50.0))


def _descend(problem, x0, max_iters):
    return lbfgs(problem.fun, problem.grad, x0, h0=problem.h0, grad_tol=problem.grad_tol_default,
                 max_iters=max_iters, stop_metric=problem.stop_metric,
                 scale_metric=problem.scale_metric, make_line=problem.make_line)


def test_spectral_iteration_makes_two_transforms(monkeypatch):
    problem = _oscillation_problem((32, 32))
    x0 = random_band_limited(problem, 0, 0.3)
    calls = []
    for name in ("grid_values", "project_values"):
        original = getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
    res = _descend(problem, x0, 40)
    assert res.iterations == 40 and not res.converged
    # three for fun and grad at x0, then one transform of d and one
    # projection per step, where transforming x and d anew made four; no
    # resync falls within 40 steps
    assert len(calls) <= 2 * res.iterations + 3


def test_carried_values_and_gradient_match_a_fresh_transform():
    problem = _oscillation_problem((64, 64))
    x0 = random_band_limited(problem, 0, 0.3)
    grad, carried = problem.grad, []

    def checked_grad(x):
        g = grad(x)
        vals = sp.grid_values(problem.field(x), problem.pads)
        assert np.max(np.abs(problem._carry[1] - vals)) <= 1e-13 * np.max(np.abs(vals))
        ref = sp.gradient(problem.field(x), problem.beta).coeffs.ravel()
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(problem.symbol.ravel() * x))
        carried.append(problem._carry[2])
        return g

    res = lbfgs(problem.fun, checked_grad, x0, h0=problem.h0, max_iters=200,
                grad_tol=problem.grad_tol_default, stop_metric=problem.stop_metric,
                scale_metric=problem.scale_metric, make_line=problem.make_line)
    assert res.iterations == 200
    resync = minimize_module.RESYNC_STEPS
    assert max(carried) == resync - 1 and carried[resync] == 0 and carried.count(0) >= 3


def test_spectral_grad_refuses_non_finite_coefficients():
    problem = _oscillation_problem((16, 16))
    x = random_band_limited(problem, 0, 0.3)
    problem.grad(x)
    line = problem.make_line(x, -problem.grad(x))
    line(1.0)
    bad = x.copy()
    bad[3] = np.nan
    for point in (bad, x + np.inf * problem.grad(x)):
        with pytest.raises(ValueError, match="non-finite"):
            problem.grad(point)


_THREADS_SCRIPT = """
import hashlib, sys
from efk.domains import hyperrectangle
from efk.minimize import MinimizeConfig, build_problem, lbfgs, random_band_limited
p = build_problem(MinimizeConfig(beta=0.1, modes=(192, 192)), hyperrectangle(50.0, 50.0))
res = lbfgs(p.fun, p.grad, random_band_limited(p, 0, 0.3), h0=p.h0, max_iters=25,
            grad_tol=p.grad_tol_default, stop_metric=p.stop_metric,
            scale_metric=p.scale_metric, make_line=p.make_line)
print(res.iterations, hashlib.sha256(res.x.tobytes()).hexdigest())
"""


def test_descent_does_not_depend_on_the_blas_thread_count():
    src = str(Path(minimize_module.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout.split())
    assert out[0][0] == "25"
    assert out[0] == out[1]
