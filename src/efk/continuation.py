"""Pseudo-arclength continuation of the nontrivial solution branch in beta.

The residual G(u, beta) is the coefficient-space gradient of the cubic
energy, and its Jacobian J is the linearized operator with V = 3u^2 - 1.  One
Newton routine serves the seed, fixed-beta Newton and the arclength
corrector: it solves {G = 0, t.(z - z_pred) = 0} for z = (u, beta) by a dense
direct solve of the bordered matrix [J G_beta; t^T], which stays regular at
folds.  J is assembled again at a converged point only where nu1, its
smallest eigenvalue, is wanted.  Every dense assembly refuses above
DENSE_LIMIT coefficients with NotImplementedError, before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .constants import beta_bar
from .domains import DomainSpec, lambda1_value
from .minimize import (MinimizeConfig, _run_single, build_problem,
                       random_band_limited)
from .potentials import CUBIC
from .spectral import SpectralField

DENSE_LIMIT = 4000


class ContinuationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BranchPoint:
    beta: float
    field: SpectralField
    sup_norm: float
    l2_norm: float
    nu1: float
    arclength: float
    residual: float


@dataclass(frozen=True)
class ContinuationConfig:
    beta_start: float
    ds: float = 0.02
    ds_min: float = 1e-4
    ds_max: float = 0.1
    max_steps: int = 200
    newton_tol: float = 1e-9
    direction: str = "decreasing_beta"
    beta_min: float | None = None
    beta_max: float | None = None
    stop_sup_below: float | None = None
    compute_nu1: bool = True

    def __post_init__(self):
        if not (self.ds_min <= self.ds <= self.ds_max):
            raise ValueError("need ds_min <= ds <= ds_max")
        if self.direction not in ("decreasing_beta", "increasing_beta"):
            raise ValueError("unknown direction")


def bifurcation_point(domain: DomainSpec) -> float:
    """beta_bar = (1 - lambda1^2)/lambda1; errors when lambda1 >= 1."""
    lam = lambda1_value(domain)
    if lam >= 1.0:
        raise ContinuationError("no bifurcation at positive beta: lambda1 >= 1")
    return beta_bar(lam)


def _require_dense(n: int) -> None:
    if n > DENSE_LIMIT:
        raise NotImplementedError(f"{n} coefficients exceed DENSE_LIMIT = "
                                  f"{DENSE_LIMIT} of the dense Newton path")


def _jacobian(domain: DomainSpec, modes: tuple, x: np.ndarray, beta: float) -> np.ndarray:
    """The dense dG/dx; refuses above DENSE_LIMIT coefficients before allocating."""
    _require_dense(x.size)
    return sp.LinearizedOperator(SpectralField(domain, x.reshape(modes)), beta).dense()


def _bordered(domain: DomainSpec, modes: tuple, J: np.ndarray, z: np.ndarray,
              t: np.ndarray) -> np.ndarray:
    """[J G_beta; t^T], the Jacobian of z = (x, beta) -> (G, t.z); G_beta = lam x."""
    n = z.size - 1
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = J
    M[:n, n] = sp.quad_symbol(domain, modes, 0.0, 1.0).ravel() * z[:n]
    M[n] = t
    return M


def _e_beta(n: int) -> np.ndarray:
    return np.eye(1, n + 1, n).ravel()


def _correct(domain: DomainSpec, modes: tuple, z_pred: np.ndarray, t: np.ndarray,
             tol: float, max_iter: int):
    """Newton on {G(x, beta) = 0, t.(z - z_pred) = 0} from z = (x, beta) = z_pred.

    The residual is checked before each of at most max_iter updates.  Returns
    (z, residual, updates, converged), converged being False when the
    residual never dropped below tol.  Refuses above DENSE_LIMIT coefficients
    even when z_pred has converged already.
    """
    _require_dense(z_pred.size - 1)
    z = z_pred
    for updates in range(max_iter):
        x, beta = z[:-1], float(z[-1])
        g = sp.gradient(SpectralField(domain, x.reshape(modes)), beta, CUBIC).coeffs.ravel()
        res = float(np.linalg.norm(g))
        if res < tol:
            return z, res, updates, True
        J = _jacobian(domain, modes, x, beta)
        try:
            z = z + np.linalg.solve(_bordered(domain, modes, J, z, t),
                                    np.append(-g, -np.dot(t, z - z_pred)))
        except np.linalg.LinAlgError:
            break
    return z, res, max_iter, False


def smallest_jacobian_eig(J: np.ndarray) -> float:
    """nu1: the smallest eigenvalue of the dense Jacobian at a branch point."""
    return float(np.linalg.eigvalsh(J)[0])


def newton_at_beta(domain: DomainSpec, modes: tuple, beta: float, x0: np.ndarray,
                   tol: float = 1e-9, max_iter: int = 30) -> tuple[np.ndarray, float, bool]:
    """Newton on G(., beta) = 0 at fixed beta: the bordered corrector with t = e_beta."""
    z, res, _, converged = _correct(domain, modes, np.append(x0, beta), _e_beta(x0.size),
                                    tol, max_iter)
    return z[:-1], res, converged


def one_mode_amplitude(domain: DomainSpec, beta: float) -> float:
    """Stationary amplitude of the single-mode Galerkin reduction; the seed
    for branch starts (a^2 = (1 - lam1^2 - beta lam1)/int e1^4)."""
    lam = lambda1_value(domain)
    excess = 1.0 - lam * lam - beta * lam
    if excess <= 0.0:
        raise ContinuationError("no nontrivial branch: lambda1^2 + beta*lambda1 >= 1")
    e1_4 = math.prod(3.0 / (2.0 * L) for L in domain.lengths)
    return math.sqrt(excess / e1_4)


def _point(domain: DomainSpec, modes: tuple, z: np.ndarray, res: float,
           arclength: float, compute_nu1: bool) -> BranchPoint:
    field = SpectralField(domain, z[:-1].reshape(modes))
    nu1 = (smallest_jacobian_eig(_jacobian(domain, modes, z[:-1], float(z[-1])))
           if compute_nu1 else math.nan)
    return BranchPoint(beta=float(z[-1]), field=field, sup_norm=field.sup_norm(),
                       l2_norm=field.l2_norm(), nu1=nu1, arclength=arclength,
                       residual=res)


def seed_branch(domain: DomainSpec, beta_bar_value: float, epsilon: float,
                modes: tuple, newton_tol: float = 1e-9) -> BranchPoint:
    """Converged positive-branch point at beta = beta_bar - epsilon, seeded by
    the one-mode amplitude and corrected by Newton (epsilon halves on failure,
    at most 6 times)."""
    if not 0.0 < epsilon <= beta_bar_value:
        raise ValueError("epsilon must lie in (0, beta_bar]")
    n = math.prod(modes)
    eps = epsilon
    for _ in range(7):
        beta = beta_bar_value - eps
        a = one_mode_amplitude(domain, beta)
        z0 = np.zeros(n + 1)
        z0[0], z0[n] = a, beta
        z, res, _, converged = _correct(domain, modes, z0, _e_beta(n), newton_tol, 30)
        if converged and z[0] > 0.3 * a:
            return _point(domain, modes, z, res, 0.0, True)
        eps *= 0.5
    raise ContinuationError("seed Newton failed after 6 epsilon halvings")


def continue_branch(config: ContinuationConfig, seed: BranchPoint) -> list[BranchPoint]:
    """Tangent-predictor / Newton-corrector arclength continuation from seed.

    Returns the accepted points (seed included, arclength starting at the
    seed's value); stops on max_steps, the configured beta window, a trivial
    limit, or arclength-step underflow.
    """
    domain = seed.field.domain
    modes = seed.field.modes
    z = np.append(seed.field.coeffs.ravel(), seed.beta)
    n = z.size - 1
    e = _e_beta(n)
    # the first tangent solves J du + G_beta dbeta = 0 with dbeta = 1
    t = np.linalg.solve(_bordered(domain, modes, _jacobian(domain, modes, z[:n], seed.beta),
                                  z, e), e)
    t /= np.linalg.norm(t)
    if (config.direction == "decreasing_beta") != (t[n] < 0):
        t = -t
    points = [seed]
    ds = config.ds
    arclength = seed.arclength
    while len(points) <= config.max_steps:
        z_new, res, updates, converged = _correct(domain, modes, z + ds * t, t,
                                                  config.newton_tol, 8)
        if not converged:
            ds *= 0.5
            if ds < config.ds_min:
                break
            continue
        step = float(np.linalg.norm(z_new - z))
        t = (z_new - z) / step
        arclength += step
        z = z_new
        points.append(_point(domain, modes, z, res, arclength, config.compute_nu1))
        if updates <= 3:
            ds = min(ds * 1.3, config.ds_max)
        elif updates >= 7:
            ds = max(ds * 0.5, config.ds_min)
        if config.beta_min is not None and z[n] < config.beta_min:
            break
        if config.beta_max is not None and z[n] > config.beta_max:
            break
        if config.stop_sup_below is not None and points[-1].sup_norm < config.stop_sup_below:
            break
    return points


def extrapolate_endpoint(points: list[BranchPoint], max_points: int = 6) -> float:
    """Bifurcation-beta estimate from the amplitude law: ||u||^2 is asymptotically
    linear in beta near the branch end, so the zero crossing of a linear fit
    through the smallest-amplitude points extrapolates the endpoint."""
    pts = sorted(points, key=lambda p: p.l2_norm)[:max_points]
    if len(pts) < 3:
        raise ContinuationError("too few points to extrapolate")
    betas = np.array([p.beta for p in pts])
    amp2 = np.array([p.l2_norm**2 for p in pts])
    slope, intercept = np.polyfit(betas, amp2, 1)
    return float(-intercept / slope)


def amplitude_law_slope(domain: DomainSpec, modes: tuple,
                        eps_list=(0.2, 0.1, 0.05, 0.025),
                        newton_tol: float = 1e-9) -> float:
    """Least-squares slope of log sup-norm against log(beta_bar - beta)."""
    bb = bifurcation_point(domain)
    eps_actual, sups = [], []
    for eps in eps_list:
        point = seed_branch(domain, bb, eps, modes, newton_tol)
        eps_actual.append(bb - point.beta)
        sups.append(point.sup_norm)
    slope = np.polyfit(np.log(np.asarray(eps_actual)), np.log(np.asarray(sups)), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class UniquenessReport:
    beta: float
    branch_sup: float
    n_positive: int
    max_l2_mismatch: float
    passed: bool


def verify_uniqueness_segment(domain: DomainSpec, betas, modes: tuple,
                              branch: list[BranchPoint] | None = None,
                              amplitude: float = 0.3, tol: float = 1e-5,
                              newton_tol: float = 1e-9,
                              seeds=range(5)) -> list[UniquenessReport]:
    """Multistart minimizers against branch points, beta by beta.

    Positive-leaning random starts descend the energy; every converged
    positive minimizer must match the branch solution in L2 within tol.
    """
    bb = bifurcation_point(domain)
    reports = []
    for beta in betas:
        if branch is not None:
            nearest = min(branch, key=lambda p: abs(p.beta - beta))
            x0 = nearest.field.coeffs.ravel()
            x, res, ok = newton_at_beta(domain, modes, beta, x0, newton_tol)
            if not ok:
                raise ContinuationError(f"branch refinement failed at beta={beta}")
        else:
            point = seed_branch(domain, bb, bb - beta, modes, newton_tol)
            x = point.field.coeffs.ravel()
        problem = build_problem(MinimizeConfig(beta=beta, modes=modes), domain)
        mismatch = 0.0
        n_pos = 0
        for s in seeds:
            x0 = random_band_limited(problem, s, amplitude, positive_bias=0.2)
            run = _run_single(problem, x0, None, 4000)
            if not run.converged:
                continue
            field = problem.field(run.x)
            vals = sp.grid_values(field, sp.default_pads(field.modes))
            if vals.min() < -1e-6 or float(np.mean(vals)) <= 0:
                continue
            n_pos += 1
            mismatch = max(mismatch, float(np.linalg.norm(run.x - x)))
        reports.append(UniquenessReport(beta=beta,
                                        branch_sup=SpectralField(domain, x.reshape(modes)).sup_norm(),
                                        n_positive=n_pos,
                                        max_l2_mismatch=mismatch,
                                        passed=bool(n_pos > 0 and mismatch < tol)))
    return reports


def uniqueness_quadratic_check(u: SpectralField, v: SpectralField,
                               beta: float) -> tuple[float, float]:
    """(quadratic form with potential u^2-1 evaluated at w = u - v, ||w||_L2).

    For two positive solutions at the same beta the form is <= 0 only when
    w vanishes; perturb-and-reconverge tests drive both to ~0 together.
    """
    w = u.coeffs - v.coeffs
    op = sp.LinearizedOperator(u, beta, sp.U2_MINUS_1)
    return float(np.sum(w * op.matvec(w))), float(np.linalg.norm(w))
