"""The four workloads: their inputs, operations and output checks.

Every workload takes its sizes, domains and beta values from the harness's
``SuiteConfig`` and its random starts from the benchmark seed.  An operation
is one solve a user waits on; a round is a fixed list of operations, and a
run repeats whole rounds.  Library functions are always looked up through
their module at call time, so an installed Tracer sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from efk import continuation, eigen, minimize, polar, radial, saddle
from efk.domains import annulus, ball, hyperrectangle
from efk.harness import SuiteConfig

import checks as ck

FULL = SuiteConfig()
QUICK = SuiteConfig(quick=True)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _lbfgs(problem, x0):
    return minimize.lbfgs(problem.fun, problem.grad, x0, h0=problem.h0,
                          grad_tol=problem.grad_tol_default, max_iters=5000,
                          stop_metric=problem.stop_metric,
                          scale_metric=problem.scale_metric,
                          make_line=problem.make_line)


def _check_box_minimizer(res, beta, nonlinearity):
    ck.require(res.converged, "descent did not converge")
    ck.require(not res.defects, f"library reported defects {res.defects}")
    field = res.field
    quad = ck.BoxQuadrature(field.domain.lengths, field.modes)
    ck.check_box_solution(quad, field.coeffs, beta, nonlinearity, energy=res.report.j_beta)
    ck.check_bounds(quad.values(field.coeffs), beta)


# ---------------------------------------------------------------------------
# descent: cubic L-BFGS on the small-beta oscillation problem


DESCENT_BETA = 0.1
DESCENT_BOX = (50.0, 50.0)
#: the harness's oscillation multistart uses starts 0, 1 and 2; start 1 is
#: perturbed per operation by band-limited noise of this amplitude, small
#: enough that every operation descends into the same basin in about 150
#: iterations (larger noise splits the starts between basins 150 and 2300
#: iterations long, and a run's median then depends on the seed)
DESCENT_BASE_START = 1
DESCENT_NOISE = 1e-4
DESCENT_STARTS = 8


def descent_setup(seed: int):
    dom = hyperrectangle(*DESCENT_BOX)
    cfg = minimize.MinimizeConfig(beta=DESCENT_BETA, modes=QUICK.modes_2d_large)
    problem = minimize.build_problem(cfg, dom)
    base = minimize.random_band_limited(problem, DESCENT_BASE_START, cfg.amplitude)
    starts = [base + minimize.random_band_limited(problem, int(s), DESCENT_NOISE)
              for s in _rng(seed, 0).integers(1 << 30, size=DESCENT_STARTS)]
    quad = ck.BoxQuadrature(dom.lengths, problem.modes)

    def check(res):
        ck.require(res.converged, "descent did not converge")
        coeffs = res.x.reshape(problem.modes)
        ck.check_box_solution(quad, coeffs, DESCENT_BETA, "cubic", energy=res.fun)
        peak = float(np.max(np.abs(quad.values(coeffs))))
        ck.require(peak > 1.0, f"small-beta minimizer does not oscillate past 1 ({peak})")

    def round_ops(index):
        x0 = starts[index % DESCENT_STARTS]
        return [Op("descent", lambda: _lbfgs(problem, x0), check)]

    return round_ops


# ---------------------------------------------------------------------------
# stability: both linearizations at 128^2 on truncated-positive minimizers


STABILITY_BETAS = (3.0, 4.0)
BOX_20 = (20.0, 20.0)


def _truncated_solve(beta, modes, start_seed, domain):
    cfg = minimize.MinimizeConfig(beta=beta, modes=modes, init=("random", start_seed, 0.3))
    return minimize.minimize_truncated_positive(cfg, domain)


def stability_setup(seed: int):
    dom = hyperrectangle(*BOX_20)
    starts = _rng(seed, 1).integers(1 << 30, size=len(STABILITY_BETAS))
    bases = {beta: _truncated_solve(beta, FULL.modes_2d, int(s), dom)
             for beta, s in zip(STABILITY_BETAS, starts)}
    quad = ck.BoxQuadrature(dom.lengths, FULL.modes_2d)

    def op(beta):
        base = bases[beta]

        def check(rep):
            _check_box_minimizer(base, beta, "truncated_pos")
            ck.check_stability(quad, base.field.coeffs, beta, rep)

        return Op(f"stability_beta_{beta:g}",
                  lambda: eigen.stability_report(base.field, beta), check)

    ops = [op(beta) for beta in STABILITY_BETAS]
    return lambda index: ops


# ---------------------------------------------------------------------------
# branch: pseudo-arclength continuation with nu1 at every point


BRANCH_EPS = 0.05
#: 2D branches run down from beta_bar = 1.5 of the (2 pi)^2 box
BRANCH_2D = {"ds": 0.05, "ds_max": 0.1, "max_steps": 12}


def _branch(domain, modes, eps, **config):
    bb = continuation.bifurcation_point(domain)
    seed = continuation.seed_branch(domain, bb, eps, modes)
    cfg = continuation.ContinuationConfig(beta_start=seed.beta, **config)
    return continuation.continue_branch(cfg, seed)


def branch_setup(seed: int):
    rng = _rng(seed, 2)
    # the offset from beta_bar at which each branch is seeded, +-2 %: wider
    # offsets change the number of points on the way to the same end
    eps = BRANCH_EPS * (0.98 + 0.04 * rng.random(3))
    line = hyperrectangle(2 * math.pi)
    square = hyperrectangle(2 * math.pi, 2 * math.pi)
    cube = hyperrectangle(2 * math.pi, 2 * math.pi, 2 * math.pi)
    m1 = FULL.modes_1d
    quads = {m: ck.BoxQuadrature(dom.lengths, m)
             for dom, m in ((line, m1), (square, (24, 24)), (square, (32, 32)))}

    def up():
        pts = _branch(line, m1, eps[0], ds=0.005, ds_max=0.02, max_steps=120,
                      direction="increasing_beta", stop_sup_below=0.02)
        return pts, continuation.extrapolate_endpoint(pts)

    def check_up(out):
        pts, est = out
        ck.check_branch_points(pts, quads[m1])
        ck.check_endpoint(est, line.lengths)

    def down():
        return _branch(line, m1, eps[1], ds=0.02, max_steps=200,
                       direction="decreasing_beta", beta_min=math.sqrt(8.0))

    def check_down(pts):
        ck.check_branch_points(pts, quads[m1])
        ck.require(pts[-1].beta < math.sqrt(8.0), f"branch stopped at beta={pts[-1].beta}")
        nu_min = min(p.nu1 for p in pts)
        ck.require(nu_min > 0.0, f"nu1={nu_min:.3e} on the branch to sqrt(8)")

    def square_op(modes, e):
        return Op(f"branch_2d_{modes[0]}",
                  lambda: _branch(square, modes, e, direction="decreasing_beta", **BRANCH_2D),
                  lambda pts: ck.check_branch_points(pts, quads[modes]))

    def cube_check(pts):
        ck.check_branch_points(pts, ck.BoxQuadrature(cube.lengths, (8, 8, 8)))

    ops = [Op("branch_1d_endpoint", up, check_up),
           Op("branch_1d_to_sqrt8", down, check_down),
           square_op((24, 24), eps[2]),
           square_op((32, 32), eps[2]),
           # fails on every input: continuation._eval_matrix builds the
           # Kronecker product of axes 0 and 1 only (its offset is not seeded)
           Op("branch_3d_8", lambda: _branch(cube, (8, 8, 8), BRANCH_EPS,
                                             direction="decreasing_beta", **BRANCH_2D),
              cube_check)]
    return lambda index: ops


# ---------------------------------------------------------------------------
# short-solves: one pass over the scorecard's remaining solves


SHORT_BETAS = (math.sqrt(8.0), 3.0, 4.0, 1.6, 2.0)
SADDLE_BETA = 1.6
DISK_RADIUS = 10.0
RADIAL_BETA = 4.0
GAMMAS = (1e-2, 1e-3, 1e-4, 0.0)


def _signchanging_profile(domain, n, rng):
    """Random sum of six sine modes on the radial grid, scaled below 1."""
    r0 = domain.inner_radius or 0.0
    r = np.linspace(r0, domain.radius, n + 1)
    vals = sum(rng.standard_normal() * np.sin(j * math.pi * (r - r0) / (domain.radius - r0))
               for j in range(1, 7))
    vals[-1] = 0.0
    vals[0] = 0.0 if domain.kind == "annulus" else vals[0]
    return radial.RadialField(domain, vals * rng.uniform(0.55, 0.98) / np.max(np.abs(vals)))


def short_setup(seed: int):
    rng = _rng(seed, 3)
    box = hyperrectangle(*BOX_20)
    starts = rng.integers(1 << 30, size=len(SHORT_BETAS) + 1)
    ops = []
    for beta, s in zip(SHORT_BETAS, starts):
        ops.append(Op(f"box_beta_{beta:.3f}",
                      lambda beta=beta, s=int(s): _truncated_solve(beta, FULL.modes_2d, s, box),
                      lambda res, beta=beta: _check_box_minimizer(res, beta, "truncated_pos")))

    radii = FULL.saddle_radii
    for R in radii:
        modes = tuple(max(32, int(m * R / radii[-1])) for m in FULL.saddle_modes)

        def check_saddle(out):
            res, tile = out
            _check_box_minimizer(res, SADDLE_BETA, "truncated_pos")
            ck.check_saddle_tile(tile)

        ops.append(Op(f"saddle_R{R:g}",
                      lambda R=R, modes=modes: saddle.build_saddle(R, SADDLE_BETA, modes=modes),
                      check_saddle))

    disk = ball(DISK_RADIUS, dim=2)
    disk_seed = int(starts[len(SHORT_BETAS)])
    n_r = 160  # the harness's full-scale disk (96 at quick scale)
    state = {}

    def disk_solve():
        field, conv, iters = polar.minimize_disk(disk, RADIAL_BETA, n_r=n_r, n_theta=32,
                                                 seed=disk_seed)
        state["disk"] = field
        return field, conv

    def check_disk(out):
        field, conv = out
        ck.require(conv, "disk descent did not converge")
        ck.check_disk(field.values)

    def modewise():
        return polar.modewise_stability(state["disk"], RADIAL_BETA, max_modes=8)

    def check_modewise(stab):
        ck.require(len(stab) == 8 and min(stab.values()) > 0.0, f"modewise {stab}")

    ops += [Op("disk", disk_solve, check_disk), Op("disk_modewise", modewise, check_modewise)]

    # radial solves start from delta * phi1, as the harness's do: from random
    # starts some seeds stall at the truncation's kink (see CHANGES.md)
    for name, dom, changes in (("annulus", annulus(5.0, 15.0, dim=2), 1),
                               ("ball", ball(DISK_RADIUS, dim=2), 0)):
        def solve(dom=dom, delta=0.05 + 0.1 * rng.random()):
            cfg = minimize.MinimizeConfig(beta=RADIAL_BETA, n_points=FULL.n_radial,
                                          init=("delta_phi1", delta))
            return minimize.minimize_truncated_positive(cfg, dom)

        def check_profile(res, changes=changes):
            ck.require(res.converged and not res.defects, f"radial solve: {res.defects}")
            vals = res.field.values
            ck.check_bounds(vals, RADIAL_BETA)
            du = np.diff(vals)
            got = ck.sign_changes(du, 1e-7 * float(np.max(np.abs(du))))
            ck.require(got == changes, f"{got} derivative sign changes, expected {changes}")

        ops.append(Op(f"radial_{name}", solve, check_profile))

    flip_rng = _rng(seed, 4)
    profiles = []
    for dom in (ball(8.0, dim=2), annulus(5.0, 15.0, dim=2)):
        made = 0
        while made < FULL.flip_profiles // 2:
            f = _signchanging_profile(dom, 256, flip_rng)
            if f.values.max() > 0 > f.values.min():
                profiles.append(f)
                made += 1

    def flips():
        gains = []
        for f in profiles:
            res = radial.flip_transform(f)
            if res.applied:
                gains.append(radial.radial_energy_value(res.field, 3.0)
                             - radial.radial_energy_value(f, 3.0))
        return gains

    def check_flips(gains):
        ck.require(len(gains) >= len(profiles) // 2, f"only {len(gains)} flips applied")
        ck.require(max(gains) < 0.0, f"a flip raised the energy by {max(gains):.3e}")

    ops.append(Op("flip_oracle", flips, check_flips))

    line = hyperrectangle(2 * math.pi)
    delta = 0.05 + 0.1 * rng.random()
    quad_1d = ck.BoxQuadrature(line.lengths, FULL.modes_1d)

    def sweep():
        cfg = minimize.MinimizeConfig(beta=1.0, modes=FULL.modes_1d, init=("delta_phi1", delta))
        return minimize.gamma_sweep(line, list(GAMMAS), cfg)

    def check_sweep(res):
        ck.require(res.converged, "gamma sweep did not converge")
        ck.require(res.increments[-1] < 0.05, f"final increment {res.increments[-1]:.3e}")
        for gamma, field in zip(res.gammas, res.fields):
            ck.check_box_solution(quad_1d, field.coeffs, 1.0, "cubic",
                                  biharmonic=gamma, laplacian=1.0)
            u_min = float(np.min(quad_1d.values(field.coeffs)))
            ck.require(u_min >= -1e-6, f"gamma={gamma}: min {u_min:.3e} below zero")

    ops.append(Op("gamma_sweep", sweep, check_sweep))
    return lambda index: ops


WORKLOADS = {
    "descent": descent_setup,
    "stability": stability_setup,
    "branch": branch_setup,
    "short-solves": short_setup,
}
