"""Energy minimization on either discretization.

The driver is a limited-memory quasi-Newton descent (two-loop recursion,
seeded with the inverse of the quadratic part of the energy: a diagonal in
coefficient space, a sparse factorization for radial grids) with backtracking
line search.  Accepted steps never increase the energy; no sign clamping of
the iterates happens anywhere in the descent path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import radial as rd
from . import spectral as sp
from .constants import K0, SQRT8, m_beta
from .domains import DomainSpec, lambda1_value
# potential_delta stays bound here: perfbench's tracer tests wrap it in this module
from .potentials import CUBIC, TRUNCATED_POS, potential_delta  # noqa: F401
from .problem import RESYNC_STEPS, EnergyReport, _dot, _norm
from .radial import RadialProblem
from .spectral import SpectralField, SpectralProblem

#: L-BFGS pairs kept, the Armijo constant and the backtracks per line search
LBFGS_MEMORY = 10
ARMIJO = 1e-4
MAX_BACKTRACKS = 40


@dataclass
class LbfgsResult:
    x: np.ndarray
    fun: float
    stop_norm: float
    iterations: int
    converged: bool
    trace: list


def lbfgs(fun: Callable, grad: Callable, x0: np.ndarray, h0=None,
          grad_tol: float = 1e-9, max_iters: int = 5000,
          stop_metric: Callable | None = None,
          scale_metric: Callable | None = None,
          make_line: Callable | None = None) -> LbfgsResult:
    """Two-loop L-BFGS with backtracking; stops when the chosen gradient
    metric drops below grad_tol * max(1, scale(x)).

    When make_line is given, the Armijo test runs on exactly-computed energy
    differences delta(alpha) = f(x + alpha d) - f(x), whose round-off scales
    with the step instead of with |f| (this matters: late-stage decreases sit
    far below the float resolution of the total energy on large domains).
    Without it the line is fun(x + alpha d) - f(x).

    The protocol with a problem is: make_line(x, d) once per direction, then
    the line at one or more steps, the last of them the accepted one, then
    grad(x + step d) at the new point.  Every inner product goes through
    _dot, so the iterates do not depend on the BLAS thread count.
    """
    x = np.asarray(x0, dtype=float).copy()
    if h0 is None:
        h0 = lambda q: q
    elif not callable(h0):
        diag = np.asarray(h0, dtype=float)
        h0 = lambda q: diag * q
    stop_metric = stop_metric or (lambda xx, gg: _norm(gg))
    scale_metric = scale_metric or _norm
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    f = fun(x)
    g = grad(x)
    trace = []
    it = 0
    while True:
        metric = stop_metric(x, g)
        trace.append((it, f, metric))
        if metric < grad_tol * max(1.0, scale_metric(x)):
            return LbfgsResult(x, f, metric, it, True, trace)
        if it >= max_iters:
            return LbfgsResult(x, f, metric, it, False, trace)
        d = _two_loop(g, pairs, h0)
        slope = _dot(g, d)
        if slope >= 0.0:
            pairs.clear()
            d = -h0(g)
            slope = _dot(g, d)
        line = make_line(x, d) if make_line is not None else lambda a: fun(x + a * d) - f
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            delta = line(step)
            if np.isfinite(delta) and delta <= ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if pairs:
                pairs.clear()
                continue
            return LbfgsResult(x, f, metric, it, False, trace)
        if delta > 1e-11 * max(1.0, abs(f)):
            raise RuntimeError("energy increased on an accepted step")
        x = x + step * d
        f_new = f + delta
        if it % RESYNC_STEPS == RESYNC_STEPS - 1:
            f_new = fun(x)  # resync against accumulated difference drift
        g_new = grad(x)
        s = step * d
        y = g_new - g
        sy = _dot(s, y)
        if sy > 1e-14 * _norm(s) * _norm(y):
            pairs.append((s, y, 1.0 / sy))
        f, g = f_new, g_new
        it += 1


def _two_loop(g: np.ndarray, pairs: deque, h0) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        gamma = _dot(s, y) / max(_dot(y, h0(y)), 1e-300)
        r = gamma * h0(q)
    else:
        r = h0(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * _dot(y, r)
        r += s * (a - b)
    return -r


# ---------------------------------------------------------------------------
# configuration and initial guesses


@dataclass(frozen=True)
class MinimizeConfig:
    beta: float
    nonlinearity: str = CUBIC
    init: tuple = ("delta_phi1", None)
    grad_tol: float | None = None
    max_iters: int = 5000
    seeds: tuple[int, ...] = ()
    amplitude: float = 0.3
    modes: tuple[int, ...] | None = None
    n_points: int = 256

    def __post_init__(self):
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


def _default_modes(domain: DomainSpec) -> tuple[int, ...]:
    return tuple(48 for _ in range(domain.dim))


def build_problem(config: MinimizeConfig, domain: DomainSpec,
                  biharmonic: float = 1.0):
    if domain.is_rectangular:
        modes = config.modes or _default_modes(domain)
        return SpectralProblem(domain, modes, config.beta, config.nonlinearity, biharmonic)
    return RadialProblem(domain, config.n_points, config.beta, config.nonlinearity)


def initial_guess(problem, init: tuple, rng_seed: int | None = None) -> np.ndarray:
    kind = init[0]
    if kind == "zero":
        return np.zeros(problem.n_dofs)
    if kind == "delta_phi1":
        delta = init[1]
        if isinstance(problem, SpectralProblem):
            lam1, phi = lambda1_value(problem.domain), np.zeros(problem.n_dofs)
            phi[0] = 1.0  # the first sine mode
        else:
            lam1, phi = rd.radial_lambda1(problem.domain, problem.n_points)
            phi = problem.flatten(phi)
        if delta is None:
            delta = 0.1 * min(1.0, 1.0 / math.sqrt(lam1))
        return delta * phi
    if kind == "random":
        seed = init[1] if len(init) > 1 and init[1] is not None else rng_seed or 0
        amplitude = init[2] if len(init) > 2 else 0.3
        return random_band_limited(problem, seed, amplitude)
    if kind == "file":
        from .fieldio import load_field

        field = load_field(init[1])
        return problem.flatten(field)
    raise ValueError(f"unknown init kind {kind!r}")


def random_band_limited(problem, seed: int, amplitude: float,
                        positive_bias: float = 0.0) -> np.ndarray:
    """Band-limited noise (lowest 8 modes per axis), optional phi1 bias."""
    rng = np.random.default_rng(seed)
    if isinstance(problem, SpectralProblem):
        x = np.zeros(problem.modes)
        band = tuple(slice(0, min(8, m)) for m in problem.modes)
        noise = rng.standard_normal([min(8, m) for m in problem.modes])
        x[band] = noise
        x *= amplitude / max(np.max(np.abs(x)), 1e-30)
        x[(0,) * len(problem.modes)] += positive_bias
        return x.ravel()
    g = problem.g
    r = g.r
    span = r[-1] - r[0]
    vals = np.zeros_like(r)
    for j in range(1, 9):
        vals += rng.standard_normal() * np.sin(j * math.pi * (r - r[0]) / span)
    vals *= amplitude / max(np.max(np.abs(vals)), 1e-30)
    if positive_bias:
        _, phi = rd.radial_lambda1(problem.domain, problem.n_points)
        vals += positive_bias * phi.values / phi.sup_norm()
    return vals[g.free]


# ---------------------------------------------------------------------------
# public drivers


@dataclass
class MinimizeResult:
    field: object
    report: EnergyReport
    iterations: int
    converged: bool
    trace: list
    l2_spread: float = 0.0
    defects: tuple[str, ...] = ()


def _run_single(problem, x0, grad_tol, max_iters) -> LbfgsResult:
    tol = grad_tol or problem.grad_tol_default
    return lbfgs(problem.fun, problem.grad, x0, h0=problem.h0, grad_tol=tol,
                 max_iters=max_iters, stop_metric=problem.stop_metric,
                 scale_metric=problem.scale_metric,
                 make_line=problem.make_line)


def minimize(config: MinimizeConfig, domain: DomainSpec) -> MinimizeResult:
    """Descend the energy from one random start per seed, or from `init` when
    there are no seeds; return the lowest minimum and the pairwise L2 spread
    of the converged minima."""
    problem = build_problem(config, domain)
    starts = ([random_band_limited(problem, s, config.amplitude) for s in config.seeds]
              or [initial_guess(problem, config.init)])
    runs = [_run_single(problem, x0, config.grad_tol, config.max_iters) for x0 in starts]
    best = min(runs, key=lambda r: r.fun)
    xs = [r.x for r in runs if r.converged]
    spread = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            spread = max(spread, _norm(xs[i] - xs[j]))
    return MinimizeResult(problem.field(best.x), problem.report(best.x),
                          best.iterations, best.converged, best.trace,
                          l2_spread=spread)


def minimize_truncated_positive(config: MinimizeConfig, domain: DomainSpec) -> MinimizeResult:
    """Minimize the positively-truncated functional and check the bounds
    0 <= u <= m_beta (and u <= 1 for beta >= sqrt(8)); for beta >= K0 the
    result is verified to solve the cubic problem as well."""
    cfg = replace(config, nonlinearity=TRUNCATED_POS)
    result = minimize(cfg, domain)
    rep = result.report
    tol = 1e-6
    defects = []
    if not result.converged and result.iterations >= config.max_iters:
        defects.append(f"stopped at max_iters={config.max_iters} without converging")
    if rep.u_min < -tol:
        defects.append(f"negative dip {rep.u_min:.3e} beyond tolerance")
    if rep.u_max > m_beta(config.beta) + tol:
        defects.append(f"max {rep.u_max:.6f} exceeds m_beta bound")
    if config.beta >= SQRT8 and rep.u_max > 1.0 + tol:
        defects.append(f"max {rep.u_max:.6f} exceeds 1")
    if config.beta >= K0:
        problem = build_problem(replace(cfg, nonlinearity=CUBIC), domain)
        x = problem.flatten(result.field)
        res = problem.report(x).grad_norm
        tol_g = (config.grad_tol or problem.grad_tol_default)
        if res > 10 * tol_g * max(1.0, problem.scale_metric(x)):
            defects.append(f"cubic residual {res:.3e} above tolerance")
    return replace(result, defects=tuple(defects))


def w_field_check(field, beta: float, tol: float = 1e-7) -> bool:
    """True iff w = -Lap u + (beta/2) u and u are both > -tol everywhere.

    Radial fields drop a thin layer at the Navier end, where w -> 0 linearly
    and the one-sided stencil noise is O(h).
    """
    if isinstance(field, SpectralField):
        w_coeffs = (sp.quad_symbol(field, field.modes, 0.0, 1.0) + 0.5 * beta) * field.coeffs
        pads = sp.default_pads(field.modes)
        w_vals = sp.grid_values(SpectralField(field.domain, w_coeffs), pads)
        u_vals = sp.grid_values(field, pads)
    else:
        m = max(3, field.n_points // 64)
        w_vals = rd.w_companion(field, beta)[:-m]
        u_vals = field.values
    return bool(w_vals.min() > -tol and u_vals.min() > -tol)


# ---------------------------------------------------------------------------
# singular limit gamma -> 0


@dataclass
class GammaSweepResult:
    gammas: list
    fields: list
    reports: list
    increments: list
    converged: bool


def _gamma_problem(domain: DomainSpec, gamma: float, config: MinimizeConfig):
    # at gamma = 0 the biharmonic term is dropped outright: the second-order functional
    return build_problem(replace(config, beta=1.0), domain, biharmonic=gamma)


def gamma_sweep(domain: DomainSpec, gammas: Sequence[float],
                config: MinimizeConfig) -> GammaSweepResult:
    """Warm-started minimizer sweep of the gamma-weighted functional, gammas
    descending (gamma = 0 allowed last)."""
    gammas = list(gammas)
    xs, fields, reports = [], [], []
    ok = True
    for gamma in gammas:
        problem = _gamma_problem(domain, gamma, config)
        x0 = initial_guess(problem, config.init) if not xs else xs[-1]
        run = _run_single(problem, x0, config.grad_tol, config.max_iters)
        ok = ok and run.converged
        xs.append(run.x)
        fields.append(problem.field(run.x))
        reports.append(problem.report(run.x))
    # every gamma shares the grid, so the last problem's map serves them all
    increments = [float(np.max(np.abs(problem.grid(a) - problem.grid(b))))
                  for a, b in zip(xs, xs[1:])]
    return GammaSweepResult(gammas, fields, reports, increments, ok)


def gamma_rescaling_residual(domain: DomainSpec, gamma: float,
                             config: MinimizeConfig) -> float:
    """Residual of the rescaled identity: solving the gamma-functional on
    Omega and mapping x -> gamma^(1/4) x must solve the cubic equation with
    beta = gamma^(-1/2) on the stretched domain."""
    if not domain.is_rectangular:
        raise ValueError("rescaling check implemented for rectangles")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    problem = _gamma_problem(domain, gamma, config)
    x0 = initial_guess(problem, config.init)
    run = _run_single(problem, x0, config.grad_tol, config.max_iters)
    mu = gamma ** -0.25
    from .domains import hyperrectangle

    stretched = hyperrectangle(*(mu * L for L in domain.lengths))
    coeffs = run.x.reshape(problem.modes) * mu ** (domain.dim / 2.0)
    w = SpectralField(stretched, coeffs)
    g = sp.gradient(w, mu * mu, CUBIC)
    return g.l2_norm()
