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
from scipy.linalg import eig_banded, solveh_banded
from scipy.sparse import diags

from .domains import BALL, DomainSpec
from .potentials import CUBIC, force, potential, potential_delta

TWO_PI = 2.0 * math.pi


def _require_disk(domain: DomainSpec, what: str) -> None:
    if domain.kind != BALL or domain.dim != 2:
        raise ValueError(f"{what} needs a 2D disk (a ball with dim=2); "
                         f"got {domain.kind} in {domain.dim}D")


@dataclass(frozen=True, eq=False)
class PolarField:
    """Values on the (radius cell, angle) grid of a disk."""

    domain: DomainSpec
    values: np.ndarray  # shape (n_r, n_theta)

    def __post_init__(self):
        _require_disk(self.domain, "PolarField")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_r(self) -> int:
        return self.values.shape[0]

    @property
    def n_theta(self) -> int:
        return self.values.shape[1]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@lru_cache(maxsize=16)
def _polar_geometry(R: float, n_r: int, n_theta: int) -> SimpleNamespace:
    """Mode-independent radial stencils plus the angular Fourier multipliers.

    L is the flux-form radial Laplacian (zero conductance at r=0, Dirichlet
    ghost at r=R) and D the central radial difference without its r=0 ghost.
    Angular mode m adds -m^2/r^2 to L, and -(-1)^m/(2h) to D[0, 0] through
    the ghost cell across the origin.
    """
    h = R / n_r
    r = (np.arange(n_r) + 0.5) * h
    r_faces = np.arange(n_r + 1) * h  # 0 .. R
    a_in = r_faces[:-1] / (r * h * h)
    a_out = r_faces[1:] / (r * h * h)
    out_weight = np.ones(n_r)
    out_weight[-1] = 2.0  # Dirichlet value 0 at the boundary face r=R
    L = diags([a_in[1:], -(a_in + out_weight * a_out), a_out[:-1]], [-1, 0, 1],
              shape=(n_r, n_r), format="csr")
    c = 1.0 / (2 * h)
    D = diags([-c, np.r_[np.zeros(n_r - 1), -c], c], [-1, 0, 1],
              shape=(n_r, n_r), format="csr")  # ghost u_n = -u_{n-1}

    m_vals = np.arange(n_theta // 2 + 1)
    # the Nyquist bin of a real signal cannot carry an angular derivative
    dtheta = 1j * m_vals
    if n_theta % 2 == 0:
        dtheta[-1] = 0.0
    w_r = r * h * (TWO_PI / n_theta)  # cell measure including the angle factor
    return SimpleNamespace(h=h, r=r, w_r=w_r, m_vals=m_vals, L=L, D=D, dtheta=dtheta,
                           dtheta2=-(m_vals**2.0), parity=(-1.0) ** m_vals)


def _mode_form(g: SimpleNamespace, m: int, beta: float, m2: float, shift):
    """Sparse quadratic form of angular mode m: L_m^T W L_m + beta D_m^T W D_m
    + W (beta m2/r^2 + shift), with W the cell measures."""
    W = diags(g.w_r)
    L = g.L + diags(g.dtheta2[m] / g.r**2)
    D = g.D - diags(np.r_[g.parity[m] / (2 * g.h), np.zeros(g.r.size - 1)])
    return L.T @ W @ L + beta * (D.T @ W @ D) + diags(g.w_r * (beta * m2 / g.r**2 + shift))


def _upper_band(form) -> np.ndarray:
    """Upper banded storage of a symmetric pentadiagonal form, as
    solveh_banded and eig_banded read it."""
    return np.array([np.r_[np.zeros(k), form.diagonal(k)] for k in (2, 1, 0)])


def _in_modes(vals: np.ndarray, apply) -> np.ndarray:
    """Apply a mode-wise operator to the rfft coefficients along the angle
    (last) axis and transform back to values."""
    return np.fft.irfft(apply(np.fft.rfft(vals, axis=-1)), n=vals.shape[-1], axis=-1)


def _dtheta(g: SimpleNamespace, u: np.ndarray) -> np.ndarray:
    return _in_modes(u, lambda c: g.dtheta * c)


def _lap(g: SimpleNamespace, u: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Disk Laplacian of a value grid, or its transpose when adjoint."""
    L = g.L.T if adjoint else g.L
    return _in_modes(u, lambda c: L @ c + g.dtheta2 * c / g.r[:, None] ** 2)


def _dr(g: SimpleNamespace, u: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Radial difference of a value grid, or its transpose when adjoint; row 0
    reads the ghost across the origin through the (-1)^m multiplier, which is
    self-adjoint."""
    D = g.D.T if adjoint else g.D

    def apply(c):
        out = D @ c
        out[0] -= g.parity * c[0] / (2 * g.h)
        return out
    return _in_modes(u, apply)


class PolarProblem:
    """Flattened-value view of the disk energy for the descent driver."""

    def __init__(self, domain: DomainSpec, n_r: int, n_theta: int, beta: float,
                 nonlinearity: str = CUBIC):
        _require_disk(domain, "PolarProblem")
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
        # the quadratic part plus a mass shift dominating the potential curvature
        self._bands = [_upper_band(_mode_form(g, m, beta, abs(mult) ** 2, 1.25))
                       for m, mult in zip(g.m_vals, g.dtheta)]

    def _shape(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n_r, self.n_theta)

    def field(self, x: np.ndarray) -> PolarField:
        return PolarField(self.domain, self._shape(x).copy())

    def _terms(self, u: np.ndarray) -> tuple:
        """lap u, u_r and u_theta/r: the quadratic energy is half the sum of
        their weighted squares (the last two times beta)."""
        g = self.g
        return _lap(g, u), _dr(g, u), _dtheta(g, u) / g.r[:, None]

    def _pair(self, a: tuple, b: tuple) -> float:
        """Bilinear form of the quadratic energy on two _terms triples."""
        w = self.g.w_r[:, None]
        s = [float(np.sum(w * x * y)) for x, y in zip(a, b)]
        return s[0] + self.beta * (s[1] + s[2])

    def fun(self, x: np.ndarray) -> float:
        u = self._shape(x)
        t = self._terms(u)
        pot = potential(self.nonlinearity, self.beta, u)
        return 0.5 * self._pair(t, t) + float(np.sum(self.g.w_r[:, None] * pot))

    def grad(self, x: np.ndarray) -> np.ndarray:
        u = self._shape(x)
        g = self.g
        w = g.w_r[:, None]
        g_quad = _lap(g, w * _lap(g, u), adjoint=True)
        g_quad += self.beta * _dr(g, w * _dr(g, u), adjoint=True)
        g_quad -= self.beta * _dtheta(g, w / g.r[:, None] ** 2 * _dtheta(g, u))
        g_pot = w * force(self.nonlinearity, self.beta, u)
        return (g_quad + g_pot).ravel()

    def make_line(self, x: np.ndarray, d: np.ndarray):
        u = self._shape(x)
        v = self._shape(d)
        tu, tv = self._terms(u), self._terms(v)
        cross = self._pair(tu, tv)
        half = 0.5 * self._pair(tv, tv)
        beta, nl, w = self.beta, self.nonlinearity, self.g.w_r[:, None]

        def delta(alpha: float) -> float:
            pot = potential_delta(nl, beta, u, alpha * v)
            return alpha * cross + alpha * alpha * half + float(np.sum(w * pot))

        return delta

    def h0(self, q: np.ndarray) -> np.ndarray:
        q_hat = np.fft.rfft(self._shape(q), axis=1)
        out = np.stack([solveh_banded(ab, c) for ab, c in zip(self._bands, q_hat.T)], axis=1)
        return np.fft.irfft(out, n=self.n_theta, axis=1).ravel()

    def stop_metric(self, x, g) -> float:
        return math.sqrt(float(np.sum(g * g / self.mass)))

    def scale_metric(self, x) -> float:
        return math.sqrt(float(np.sum(self.mass * x * x)))


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
    # the diagonal mass scaled into the form makes the pencil a standard problem
    scale = diags(1.0 / np.sqrt(g.w_r))
    for m in g.m_vals[:n_modes]:
        form = scale @ _mode_form(g, m, beta, float(m * m), V) @ scale
        lam = eig_banded(_upper_band(form), eigvals_only=True, select="i", select_range=(0, 0))
        out[int(m)] = float(lam[0])
    return out


def linearized_angular_identity_defect(field: PolarField, beta: float) -> float:
    """Defect of the commutator identity: applying the linearized operator to
    the angular derivative must equal the angular derivative of the residual.

    Exact for the quadratic part (the operators are diagonal in the angular
    modes); the cubic term contributes only angular aliasing, so smooth
    band-limited fields give defects at round-off/aliasing level.
    """
    g = _polar_geometry(field.domain.radius, field.n_r, field.n_theta)
    u = field.values
    lap2 = lambda v: _lap(g, _lap(g, v))
    residual = lap2(u) - beta * _lap(g, u) + u**3 - u
    u_theta = _dtheta(g, u)
    lhs = (lap2(u_theta) - beta * _lap(g, u_theta)
           + (3.0 * u * u - 1.0) * u_theta)
    rhs = _dtheta(g, residual)
    scale = max(np.max(np.abs(rhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)
