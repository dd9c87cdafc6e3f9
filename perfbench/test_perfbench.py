"""Tests of the benchmark's own code: the tracer's counts and self times, and
that each correctness check rejects a deliberately wrong answer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
from efk import continuation, eigen, harness, minimize, polar, potentials, spectral  # noqa: E402
from efk.domains import hyperrectangle  # noqa: E402
from tracing import Tracer  # noqa: E402

LINE = hyperrectangle(2 * math.pi)
BOX = hyperrectangle(20.0, 20.0)


@pytest.fixture(scope="module")
def branch_1d():
    bb = continuation.bifurcation_point(LINE)
    seed = continuation.seed_branch(LINE, bb, 0.05, (16,))
    cfg = continuation.ContinuationConfig(beta_start=seed.beta, max_steps=6)
    return continuation.continue_branch(cfg, seed)


@pytest.fixture(scope="module")
def box_solution():
    cfg = minimize.MinimizeConfig(beta=3.0, modes=(24, 24))
    res = minimize.minimize_truncated_positive(cfg, BOX)
    return res, eigen.stability_report(res.field, 3.0)


# ---------------------------------------------------------------------------
# tracer


def test_wrappers_count_calls_in_every_binding_and_uninstall():
    field = spectral.SpectralField(LINE, np.ones(8))
    u = np.linspace(-1.0, 1.0, 5)
    orig_gv, orig_pd = spectral.grid_values, potentials.potential_delta
    with Tracer() as tracer:
        assert harness.grid_values is spectral.grid_values is not orig_gv
        assert minimize.potential_delta is polar.potential_delta is potentials.potential_delta
        for _ in range(3):
            spectral.grid_values(field, (12,))
            harness.grid_values(field, (12,))
        minimize.potential_delta("cubic", 1.0, u, u)
        polar.potential_delta("cubic", 1.0, u, u)
    assert harness.grid_values is spectral.grid_values is orig_gv
    assert minimize.potential_delta is orig_pd
    m = tracer.metrics(overhead_s=0.0)
    assert m["spectral.transforms"] == 6
    assert m["potentials.calls"] == 2
    assert m["spectral.ms_per_transform"] == pytest.approx(
        1e3 * m["spectral.transform_s"] / 6)


def test_nested_calls_of_one_layer_count_once():
    with Tracer() as tracer:
        potentials.force("cubic", 1.0, np.ones(4))  # force calls reaction
    spans = [s[0] for s in tracer.spans]
    assert spans == ["potentials.force", "potentials.reaction"]
    assert tracer.metrics(0.0)["potentials.calls"] == 1


def test_lbfgs_iterations_line_evals_and_self_time():
    problem = minimize.build_problem(minimize.MinimizeConfig(beta=3.0, modes=(16,)), LINE)
    x0 = minimize.random_band_limited(problem, 3, 0.3)
    closure_calls = []

    def make_line(x, d):
        line = problem.make_line(x, d)
        return lambda a: closure_calls.append(a) or line(a)

    with Tracer() as tracer:
        res = minimize.lbfgs(problem.fun, problem.grad, x0, h0=problem.h0,
                             make_line=make_line)
    m = tracer.metrics(0.0)
    assert m["minimize.iterations"] == res.iterations > 0
    assert m["minimize.line_evals"] == len(closure_calls) > 0
    (top,) = [s for s in tracer.spans if s[0] == "minimize.lbfgs"]
    children = sum(s[3] - s[2] for s in tracer.spans if s[4] == tracer.spans.index(top))
    assert m["minimize.self_s"] == pytest.approx(top[3] - top[2] - children)
    assert 0.0 < m["minimize.self_s"] < top[3] - top[2]


def test_continuation_and_eigen_counters():
    with Tracer() as tracer:
        bb = continuation.bifurcation_point(LINE)
        seed = continuation.seed_branch(LINE, bb, 0.05, (16,))
        pts = continuation.continue_branch(
            continuation.ContinuationConfig(beta_start=seed.beta, max_steps=3), seed)
    m = tracer.metrics(0.0)
    assert m["continuation.points"] == len(pts) == 4
    grads = sum(s[0] == "spectral.gradient" for s in tracer.spans)
    assert m["continuation.residual_evals"] == grads > 0
    assert m["continuation.nu1_s"] > 0.0 and m["continuation.self_s"] > 0.0

    u = pts[-1].field
    with Tracer() as tracer:
        eigen.smallest_eigenpair(u, pts[-1].beta)
    m = tracer.metrics(0.0)
    assert m["eigen.eigensolves"] == 1
    assert m["eigen.matvecs"] == sum(s[0] == "spectral.project_values" for s in tracer.spans) > 0


# ---------------------------------------------------------------------------
# the checks' own quadrature


def test_quadrature_matches_library_gradient_on_the_same_grid(branch_1d):
    coeffs = branch_1d[-1].field.coeffs + 0.01
    quad = ck.BoxQuadrature(LINE.lengths, coeffs.shape)
    m = coeffs.shape[0]
    lib = spectral.gradient(spectral.SpectralField(LINE, coeffs), 3.5, "cubic",
                            pad_factor=(2 * m + 1) / m)
    assert np.allclose(quad.residual(coeffs, 3.5), lib.coeffs, rtol=0, atol=1e-12)
    for nl in ("cubic", "truncated_pos"):
        s = np.linspace(-1.0, 2.0, 301)
        assert np.allclose(ck.reaction(nl, 3.0, s), potentials.reaction(nl, 3.0, s))
        assert np.allclose(ck.potential(nl, 3.0, s), potentials.potential(nl, 3.0, s))
    assert ck.m_beta(1.6) == pytest.approx(harness.m_beta(1.6))


# ---------------------------------------------------------------------------
# each check rejects a wrong answer


def test_box_solution_check(box_solution):
    res, _ = box_solution
    quad = ck.BoxQuadrature(BOX.lengths, res.field.modes)
    ck.check_box_solution(quad, res.field.coeffs, 3.0, "truncated_pos", energy=res.report.j_beta)
    bad = res.field.coeffs.copy()
    bad[1, 2] += 1e-4
    with pytest.raises(ck.CheckFailed, match="residual"):
        ck.check_box_solution(quad, bad, 3.0, "truncated_pos")
    with pytest.raises(ck.CheckFailed, match="energy"):
        ck.check_box_solution(quad, res.field.coeffs, 3.0, "truncated_pos",
                              energy=res.report.j_beta * (1 + 1e-6))


def test_bounds_check():
    ck.check_bounds(np.array([0.0, 0.5, 1.0]), 3.0)
    with pytest.raises(ck.CheckFailed):
        ck.check_bounds(np.array([0.0, 1.001]), 3.0)
    with pytest.raises(ck.CheckFailed):
        ck.check_bounds(np.array([-1e-3, 0.5]), 3.0)
    ck.check_bounds(np.array([0.0, 1.05]), 1.6)  # m_beta(1.6) > 1.05
    with pytest.raises(ck.CheckFailed):
        ck.check_bounds(np.array([0.0, ck.m_beta(1.6) + 1e-3]), 1.6)


def test_stability_check(box_solution):
    res, rep = box_solution
    quad = ck.BoxQuadrature(BOX.lengths, res.field.modes)
    u = res.field.coeffs
    ck.check_stability(quad, u, 3.0, rep)
    wrong = [replace(rep, mu1=rep.mu1 + 1e-3),          # shifted eigenvalue
             replace(rep, nu1=rep.nu1 * 1.01),
             replace(rep, eigvec_mu=rep.eigvec_nu),      # vector not parallel to u
             replace(rep, mu1=rep.nu1, eigvec_mu=rep.eigvec_nu)]
    for bad in wrong:
        with pytest.raises(ck.CheckFailed):
            ck.check_stability(quad, u, 3.0, bad)
    loose = {"value_tol": math.inf, "residual_tol": math.inf, "null_tol": math.inf}
    with pytest.raises(ck.CheckFailed, match="not positive"):
        ck.check_stability(quad, u, 3.0, replace(rep, mu1=-0.2, nu1=-0.1), **loose)
    with pytest.raises(ck.CheckFailed, match="< mu1"):
        ck.check_stability(quad, u, 3.0, replace(rep, mu1=0.2, nu1=0.1), **loose)


def test_branch_and_endpoint_checks(branch_1d):
    quad = ck.BoxQuadrature(LINE.lengths, branch_1d[0].field.modes)
    ck.check_branch_points(branch_1d, quad)
    p = branch_1d[2]
    moved = replace(p, field=spectral.SpectralField(LINE, p.field.coeffs * 1.001))
    with pytest.raises(ck.CheckFailed, match="residual"):
        ck.check_branch_points(branch_1d[:2] + [moved] + branch_1d[3:], quad)
    ck.check_endpoint(3.7504, LINE.lengths)
    with pytest.raises(ck.CheckFailed):
        ck.check_endpoint(3.752, LINE.lengths)
    assert ck.bifurcation_beta(LINE.lengths) == pytest.approx(3.75)


def test_saddle_tile_check():
    from efk import saddle

    res, tile = saddle.build_saddle(10.0, 1.6, modes=(24, 24))
    ck.check_saddle_tile(tile)
    flipped = replace(tile, values=-tile.values)
    with pytest.raises(ck.CheckFailed, match="u\\*x\\*y"):
        ck.check_saddle_tile(flipped)
    shifted = replace(tile, values=tile.values * (1 + 1e-6))
    with pytest.raises(ck.CheckFailed, match="quadrant"):
        ck.check_saddle_tile(shifted)


def test_disk_check():
    r = np.linspace(0.05, 9.95, 40)
    radial_profile = np.cos(0.15 * r)[:, None] * np.ones((1, 32))
    ck.check_disk(radial_profile)
    theta = np.arange(32) * 2 * math.pi / 32
    with pytest.raises(ck.CheckFailed, match="angular"):
        ck.check_disk(radial_profile + 0.01 * np.cos(theta)[None, :])
