"""Polar discretization of the disk: Fourier modes in the angle, cell-centered
finite volumes in the radius.

Used to verify radial symmetry of 2D disk minimizers with a discretization
that does not build the answer in: minimization starts from non-radial data
over the full (r, theta) value grid.  The angular grid is staggered off the
origin (radii (i+1/2)h), so no coordinate singularity enters the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .domains import BALL, DomainSpec
from .potentials import CUBIC, force, potential, potential_delta

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PolarField:
    """Values on the (radius cell, angle) grid of a disk."""

    domain: DomainSpec
    values: np.ndarray  # shape (n_r, n_theta)

    def __post_init__(self):
        if self.domain.kind != BALL or self.domain.dim != 2:
            raise ValueError("PolarField lives on a 2D disk")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_r(self) -> int:
        return self.values.shape[0]

    @property
    def n_theta(self) -> int:
        return self.values.shape[1]

    @property
    def r(self) -> np.ndarray:
        h = self.domain.radius / self.n_r
        return (np.arange(self.n_r) + 0.5) * h

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@lru_cache(maxsize=16)
def _polar_geometry(R: float, n_r: int, n_theta: int) -> SimpleNamespace:
    h = R / n_r
    r = (np.arange(n_r) + 0.5) * h
    r_faces = np.arange(n_r + 1) * h  # 0 .. R
    n_modes = n_theta // 2 + 1
    m_vals = np.arange(n_modes)

    lap = np.zeros((n_modes, n_r, n_r))
    der = np.zeros((n_modes, n_r, n_r))
    for mi, m in enumerate(m_vals):
        L = np.zeros((n_r, n_r))
        D = np.zeros((n_r, n_r))
        for i in range(n_r):
            a_in = r_faces[i] / (r[i] * h * h)
            a_out = r_faces[i + 1] / (r[i] * h * h)
            if i == 0:
                # inner face sits at r=0: zero conductance, ghost only in D
                L[0, 0] += -a_out
                if n_r > 1:
                    L[0, 1] += a_out
                D[0, 0] += -((-1.0) ** m) / (2 * h)
                if n_r > 1:
                    D[0, 1] += 1.0 / (2 * h)
            elif i == n_r - 1:
                # Dirichlet value 0 at the boundary face r=R
                L[i, i] += -(a_in + 2.0 * a_out)
                L[i, i - 1] += a_in
                D[i, i - 1] += -1.0 / (2 * h)
                D[i, i] += -1.0 / (2 * h)  # ghost u_n = -u_{n-1}
            else:
                L[i, i] += -(a_in + a_out)
                L[i, i - 1] += a_in
                L[i, i + 1] += a_out
                D[i, i - 1] += -1.0 / (2 * h)
                D[i, i + 1] += 1.0 / (2 * h)
            L[i, i] += -(m * m) / (r[i] * r[i])
        lap[mi] = L
        der[mi] = D

    w_r = r * h * (TWO_PI / n_theta)  # cell measure including the angle factor
    return SimpleNamespace(h=h, r=r, w_r=w_r, m_vals=m_vals, lap=lap, der=der)


def _mode_form(g: SimpleNamespace, mi: int, beta: float, m2: float, shift) -> np.ndarray:
    """Quadratic form of angular mode mi: lap^T W lap + beta der^T W der
    + beta W m2/r^2 + W shift, with W the cell measures."""
    w = g.w_r
    return (g.lap[mi].T @ (w[:, None] * g.lap[mi])
            + beta * (g.der[mi].T @ (w[:, None] * g.der[mi]))
            + beta * np.diag(w * m2 / g.r**2)
            + np.diag(w * shift))


def _mode_apply(stack: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    # stack: (n_modes, n_r, n_r); u_hat: (n_r, n_modes)
    return np.einsum("mij,jm->im", stack, u_hat)


class PolarProblem:
    """Flattened-value view of the disk energy for the descent driver."""

    def __init__(self, domain: DomainSpec, n_r: int, n_theta: int, beta: float,
                 nonlinearity: str = CUBIC):
        self.domain = domain
        self.n_r = n_r
        self.n_theta = n_theta
        self.beta = beta
        self.nonlinearity = nonlinearity
        g = _polar_geometry(domain.radius, n_r, n_theta)
        self.g = g
        self.mass = np.repeat(g.w_r[:, None], n_theta, axis=1).ravel()
        self.n_dofs = n_r * n_theta
        # the (m^2/r^2)^2 stencil scale at the innermost cells puts the
        # round-off floor of the assembled gradient near 1e-7; the tolerance
        # stays far below the 1e-3 angular-defect budget this module serves
        self.grad_tol_default = 2e-6
        # the Nyquist bin of a real signal cannot carry an angular derivative
        self.dtheta_mult = 1j * g.m_vals.astype(float)
        if n_theta % 2 == 0:
            self.dtheta_mult[-1] = 0.0
        # the quadratic part plus a mass shift dominating the potential curvature
        self._pre = [cho_factor(_mode_form(g, mi, beta, abs(mult) ** 2, 1.25))
                     for mi, mult in enumerate(self.dtheta_mult)]

    # differential operators on value grids -------------------------------
    def lap_values(self, vals: np.ndarray) -> np.ndarray:
        u_hat = np.fft.rfft(vals, axis=1)
        return np.fft.irfft(_mode_apply(self.g.lap, u_hat), n=self.n_theta, axis=1)

    def lap_t_values(self, vals: np.ndarray) -> np.ndarray:
        u_hat = np.fft.rfft(vals, axis=1)
        stack_t = np.transpose(self.g.lap, (0, 2, 1))
        return np.fft.irfft(_mode_apply(stack_t, u_hat), n=self.n_theta, axis=1)

    def dr_values(self, vals: np.ndarray) -> np.ndarray:
        u_hat = np.fft.rfft(vals, axis=1)
        return np.fft.irfft(_mode_apply(self.g.der, u_hat), n=self.n_theta, axis=1)

    def dr_t_values(self, vals: np.ndarray) -> np.ndarray:
        u_hat = np.fft.rfft(vals, axis=1)
        stack_t = np.transpose(self.g.der, (0, 2, 1))
        return np.fft.irfft(_mode_apply(stack_t, u_hat), n=self.n_theta, axis=1)

    def dtheta_values(self, vals: np.ndarray) -> np.ndarray:
        u_hat = np.fft.rfft(vals, axis=1)
        return np.fft.irfft(self.dtheta_mult[None, :] * u_hat,
                            n=self.n_theta, axis=1)

    # energy pieces --------------------------------------------------------
    def _shape(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n_r, self.n_theta)

    def field(self, x: np.ndarray) -> PolarField:
        return PolarField(self.domain, self._shape(x).copy())

    def flatten(self, field: PolarField) -> np.ndarray:
        return field.values.ravel().copy()

    def fun(self, x: np.ndarray) -> float:
        u = self._shape(x)
        w = self.g.w_r[:, None]
        lap_u = self.lap_values(u)
        ur = self.dr_values(u)
        ut = self.dtheta_values(u)
        quad = 0.5 * float(np.sum(w * lap_u**2)) + 0.5 * self.beta * (
            float(np.sum(w * ur**2))
            + float(np.sum(w / self.g.r[:, None] ** 2 * ut**2)))
        pot = float(np.sum(w * potential(self.nonlinearity, self.beta, u)))
        return quad + pot

    def grad(self, x: np.ndarray) -> np.ndarray:
        u = self._shape(x)
        w = self.g.w_r[:, None]
        g_quad = self.lap_t_values(w * self.lap_values(u))
        g_quad += self.beta * self.dr_t_values(w * self.dr_values(u))
        ut = self.dtheta_values(u)
        g_quad -= self.beta * self.dtheta_values(w / self.g.r[:, None] ** 2 * ut)
        g_pot = w * force(self.nonlinearity, self.beta, u)
        return (g_quad + g_pot).ravel()

    def make_line(self, x: np.ndarray, d: np.ndarray):
        u = self._shape(x)
        v = self._shape(d)
        w = self.g.w_r[:, None]
        wt = w / self.g.r[:, None] ** 2
        lu, lv = self.lap_values(u), self.lap_values(v)
        ru, rv = self.dr_values(u), self.dr_values(v)
        tu, tv = self.dtheta_values(u), self.dtheta_values(v)
        cross = (float(np.sum(w * lu * lv))
                 + self.beta * (float(np.sum(w * ru * rv)) + float(np.sum(wt * tu * tv))))
        half = 0.5 * (float(np.sum(w * lv * lv))
                      + self.beta * (float(np.sum(w * rv * rv)) + float(np.sum(wt * tv * tv))))
        beta, nl = self.beta, self.nonlinearity

        def delta(alpha: float) -> float:
            pot = potential_delta(nl, beta, u, alpha * v)
            return alpha * cross + alpha * alpha * half + float(np.sum(w * pot))

        return delta

    def h0(self, q: np.ndarray) -> np.ndarray:
        q_hat = np.fft.rfft(self._shape(q), axis=1)
        out = np.empty_like(q_hat)
        for mi in range(q_hat.shape[1]):
            out[:, mi] = (cho_solve(self._pre[mi], q_hat[:, mi].real)
                          + 1j * cho_solve(self._pre[mi], q_hat[:, mi].imag))
        return np.fft.irfft(out, n=self.n_theta, axis=1).ravel()

    def stop_metric(self, x, g) -> float:
        return math.sqrt(float(np.sum(g * g / self.mass)))

    def scale_metric(self, x) -> float:
        return math.sqrt(float(np.sum(self.mass * x * x)))

    def residual_values(self, x: np.ndarray) -> np.ndarray:
        """Pointwise equation residual (gradient divided by cell measure)."""
        return self._shape(self.grad(x)) / self.g.w_r[:, None]


def random_polar_init(problem: PolarProblem, seed: int, amplitude: float = 0.4,
                      max_angular_mode: int = 3) -> np.ndarray:
    """Smooth, deliberately non-radial start: a few radial bumps times
    low angular harmonics."""
    rng = np.random.default_rng(seed)
    g = problem.g
    R = problem.domain.radius
    shape = np.zeros((problem.n_r, problem.n_theta))
    theta = np.arange(problem.n_theta) * TWO_PI / problem.n_theta
    radial = np.sin(math.pi * g.r / R)
    for m in range(0, max_angular_mode + 1):
        bump = rng.standard_normal() * np.sin((m % 3 + 1) * math.pi * g.r / R)
        phase = rng.uniform(0, TWO_PI)
        shape += np.outer(radial + bump, np.cos(m * theta + phase))
    shape *= amplitude / max(np.max(np.abs(shape)), 1e-30)
    return shape.ravel()


def minimize_disk(domain: DomainSpec, beta: float, n_r: int = 160,
                  n_theta: int = 32, seed: int = 0, grad_tol: float | None = None,
                  max_iters: int = 4000, x0: np.ndarray | None = None):
    """Descend the disk energy from a non-radial start; returns
    (PolarField, converged, iterations)."""
    from .minimize import _run_single

    problem = PolarProblem(domain, n_r, n_theta, beta)
    if x0 is None:
        x0 = random_polar_init(problem, seed)
    run = _run_single(problem, x0, grad_tol, max_iters)
    return problem.field(run.x), run.converged, run.iterations


def polar_angular_defect(field: PolarField) -> float:
    """Max over radius cells of the angular standard deviation."""
    return float(np.max(np.std(field.values, axis=1)))


def radial_profile_of(field: PolarField) -> np.ndarray:
    return np.mean(field.values, axis=1)


def modewise_stability(field: PolarField, beta: float,
                       max_modes: int | None = None) -> dict[int, float]:
    """Smallest eigenvalue of the linearized quadratic form per angular mode.

    Valid when the base field is radial (the potential 3u^2 - 1 then leaves
    the angular modes uncoupled); returns {m: lambda_min(m)}.
    """
    g = _polar_geometry(field.domain.radius, field.n_r, field.n_theta)
    V = 3.0 * radial_profile_of(field) ** 2 - 1.0
    out = {}
    n_modes = max_modes if max_modes is not None else len(g.m_vals)
    for mi, m in enumerate(g.m_vals[:n_modes]):
        quad = _mode_form(g, mi, beta, float(m * m), V)
        quad = 0.5 * (quad + quad.T)
        lam = eigh(quad, np.diag(g.w_r), subset_by_index=[0, 0], eigvals_only=True)
        out[int(m)] = float(lam[0])
    return out


def linearized_angular_identity_defect(field: PolarField, beta: float) -> float:
    """Defect of the commutator identity: applying the linearized operator to
    the angular derivative must equal the angular derivative of the residual.

    Exact for the quadratic part (the operators are diagonal in the angular
    modes); the cubic term contributes only angular aliasing, so smooth
    band-limited fields give defects at round-off/aliasing level.
    """
    problem = PolarProblem(field.domain, field.n_r, field.n_theta, beta)
    u = field.values
    lap2 = lambda v: problem.lap_values(problem.lap_values(v))
    residual = lap2(u) - beta * problem.lap_values(u) + u**3 - u
    u_theta = problem.dtheta_values(u)
    lhs = (lap2(u_theta) - beta * problem.lap_values(u_theta)
           + (3.0 * u * u - 1.0) * u_theta)
    rhs = problem.dtheta_values(residual)
    scale = max(np.max(np.abs(rhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)
