"""Radial discretization on balls and annuli.

Uniform grid r_0..r_n with second-order central stencils; the ball center
uses an even-extension ghost node (u'(0) = 0) and the radial Laplacian limit
Lap u(0) = N u''(0).  End nodes use one-sided second-order stencils so the
energy of arbitrary profiles stays O(h^2) accurate.  Energies use trapezoid
quadrature with weight r^(N-1); gradients are exact discrete adjoints of the
assembled quadrature/stencil matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .domains import ANNULUS, BALL, DomainSpec, sphere_area, volume
from .potentials import CUBIC, force, potential
from .spectral import EnergyReport, _bound_flags


@dataclass(frozen=True, eq=False)
class RadialField:
    """Nodal values of a radial profile, endpoints included."""

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        if not self.domain.is_radial:
            raise ValueError("RadialField needs a ball or annulus domain")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_points(self) -> int:
        return self.values.size - 1

    @property
    def r(self) -> np.ndarray:
        return _geometry(self.domain, self.n_points).r

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        m = radial_mass(self.domain, self.n_points)
        return math.sqrt(float(np.sum(m * self.values**2)))


def zero_radial(domain: DomainSpec, n_points: int) -> RadialField:
    return RadialField(domain, np.zeros(n_points + 1))


@lru_cache(maxsize=64)
def _geometry(domain: DomainSpec, n: int) -> SimpleNamespace:
    if n < 8:
        raise ValueError("n_points too small")
    N = domain.dim
    r0 = domain.inner_radius if domain.kind == ANNULUS else 0.0
    R = domain.radius
    r = np.linspace(r0, R, n + 1)
    h = (R - r0) / n
    sigma = sphere_area(N)

    # interior rows 1..n-1: central stencils
    cr = (N - 1) / (2 * h * r[1:-1])
    lap_in = sp.diags([1.0 / h**2 - cr, np.full(n - 1, -2.0 / h**2), 1.0 / h**2 + cr],
                      [0, 1, 2], shape=(n - 1, n + 1))
    d1_in = sp.diags([-0.5 / h, 0.5 / h], [0, 2], shape=(n - 1, n + 1))
    # end rows: one-sided second-order stencils, or the even extension at a
    # ball's center, where the d1 row stays zero
    one_sided_d2 = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    one_sided_d1 = np.array([3.0, -4.0, 1.0]) / (2 * h)
    lap0, d10, lapn, d1n = np.zeros((4, n + 1))
    if domain.kind == BALL:
        lap0[:2] = np.array([-2.0, 2.0]) * N / h**2
    else:
        lap0[:4] = one_sided_d2
        lap0[:3] += (N - 1) / r[0] * (-one_sided_d1)
        d10[:3] = -one_sided_d1
    lapn[-4:] = one_sided_d2[::-1]
    lapn[-3:] += ((N - 1) / r[n] * one_sided_d1)[::-1]
    d1n[-3:] = one_sided_d1[::-1]
    lap = sp.vstack([lap0, lap_in, lapn], format="csr")
    d1 = sp.vstack([d10, d1_in, d1n], format="csr")

    theta = np.ones(n + 1)
    theta[0] = theta[-1] = 0.5
    w = sigma * h * theta * r ** (N - 1)

    # finite-volume cell volumes: positive at the center, used for norms
    half_up = np.minimum(r + h / 2, R)
    half_dn = np.maximum(r - h / 2, r0)
    mass = sigma * (half_up**N - half_dn**N) / N

    W = sp.diags(w)
    k2 = (lap.T @ W @ lap).tocsr()
    k1 = (d1.T @ W @ d1).tocsr()

    free = np.ones(n + 1, dtype=bool)
    free[-1] = False
    if domain.kind == ANNULUS:
        free[0] = False
    return SimpleNamespace(r=r, h=h, sigma=sigma, lap=lap, d1=d1, w=w,
                           mass=mass, k2=k2, k1=k1, free=free)


def radial_mass(domain: DomainSpec, n_points: int) -> np.ndarray:
    return _geometry(domain, n_points).mass


def free_mask(domain: DomainSpec, n_points: int) -> np.ndarray:
    return _geometry(domain, n_points).free


def laplacian_values(field: RadialField) -> np.ndarray:
    return _geometry(field.domain, field.n_points).lap @ field.values


def radial_energy_value(field: RadialField, beta: float,
                        nonlinearity: str = CUBIC) -> float:
    if not np.all(np.isfinite(field.values)):
        raise ValueError("non-finite values")
    g = _geometry(field.domain, field.n_points)
    lap_u = g.lap @ field.values
    du = g.d1 @ field.values
    quad = 0.5 * float(np.sum(g.w * lap_u**2)) + 0.5 * beta * float(np.sum(g.w * du**2))
    pot = float(np.sum(g.w * potential(nonlinearity, beta, field.values)))
    return quad + pot


def radial_gradient(field: RadialField, beta: float,
                    nonlinearity: str = CUBIC) -> RadialField:
    """Exact discrete adjoint of radial_energy_value; zero on Dirichlet nodes.

    Applied as sequential matvecs (not a preassembled normal matrix) to keep
    the round-off floor well below the solver tolerances.
    """
    g = _geometry(field.domain, field.n_points)
    grad = (g.lap.T @ (g.w * (g.lap @ field.values))
            + beta * (g.d1.T @ (g.w * (g.d1 @ field.values)))
            + g.w * force(nonlinearity, beta, field.values))
    grad[~g.free] = 0.0
    return RadialField(field.domain, grad)


def residual_norm(field: RadialField, beta: float,
                  nonlinearity: str = CUBIC) -> float:
    """L2 norm of the pointwise equation residual (mass-weighted gradient)."""
    g = _geometry(field.domain, field.n_points)
    grad = radial_gradient(field, beta, nonlinearity).values
    return math.sqrt(float(np.sum(grad[g.free] ** 2 / g.mass[g.free])))


def radial_energy(field: RadialField, beta: float,
                  nonlinearity: str = CUBIC) -> EnergyReport:
    j = radial_energy_value(field, beta, nonlinearity)
    u_min = float(field.values.min())
    u_max = float(field.values.max())
    return EnergyReport(
        j_beta=j,
        j_beta_shifted=j + volume(field.domain) / 4.0,
        grad_norm=residual_norm(field, beta, nonlinearity),
        u_min=u_min,
        u_max=u_max,
        bound_flags=_bound_flags(beta, u_min, u_max),
        beta=beta,
        nonlinearity=nonlinearity,
    )


def w_companion(field: RadialField, beta: float) -> np.ndarray:
    """w = -Lap u + (beta/2) u on the grid."""
    return -laplacian_values(field) + 0.5 * beta * field.values


def cooperative_residual(field: RadialField, beta: float,
                         margin_frac: float = 0.03) -> float:
    """Max interior defect of -Lap w + (beta/2) w = (1 + beta^2/4) u - u^3.

    A fixed physical margin is excluded at both ends: the one-sided boundary
    stencils contaminate the first few nodes of the twice-applied Laplacian.
    """
    g = _geometry(field.domain, field.n_points)
    w = w_companion(field, beta)
    lhs = -(g.lap @ w) + 0.5 * beta * w
    rhs = (1.0 + beta * beta / 4.0) * field.values - field.values**3
    m = max(4, int(margin_frac * field.n_points))
    inner = slice(m, -m)
    return float(np.max(np.abs(lhs[inner] - rhs[inner])))


def radial_lambda1(domain: DomainSpec, n_points: int = 512) -> tuple[float, RadialField]:
    """Smallest Dirichlet eigenvalue of the radial -Laplace via the
    flux-form tridiagonal pencil; second-order accurate."""
    g = _geometry(domain, n_points)
    r_half = 0.5 * (g.r[:-1] + g.r[1:])
    a = r_half ** (domain.dim - 1) / g.h  # edge conductances
    free = np.flatnonzero(g.free)
    diag = (np.r_[0.0, a] + np.r_[a, 0.0])[free]  # left plus right conductance
    off = -a[free[:-1]]
    m = g.mass[free] / g.sigma
    d_sym = diag / m
    e_sym = off / np.sqrt(m[:-1] * m[1:])
    vals, vecs = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, 0))
    lam = float(vals[0])
    phi = np.zeros(n_points + 1)
    phi[free] = vecs[:, 0] / np.sqrt(m)
    full_mass = radial_mass(domain, n_points)
    phi /= math.sqrt(float(np.sum(full_mass * phi**2)))
    if np.sum(full_mass * phi) < 0:
        phi = -phi
    return lam, RadialField(domain, phi)


@dataclass(frozen=True)
class FlipResult:
    field: RadialField
    applied: bool
    note: str


def _try_flip_ball(u: np.ndarray) -> np.ndarray | None:
    i = int(np.argmax(u[:-1]))
    if i == 0 or u[i] <= 0.0:
        return None
    M = u[i]
    v = u.copy()
    v[: i + 1] = (1.0 - M) / (1.0 + M) * (M - u[: i + 1]) + M
    return v


def _try_flip_annulus(u: np.ndarray) -> np.ndarray | None:
    interior = u[1:-1]
    if interior.size == 0:
        return None
    i_max = 1 + int(np.argmax(interior))
    i_min = 1 + int(np.argmin(interior))
    M = u[i_max]
    m = -u[i_min]
    if M <= 0.0 or m <= 0.0:
        return None
    if i_max > i_min:
        flipped = _try_flip_annulus(-u)
        return None if flipped is None else -flipped
    v = u.copy()
    factor = (m - M) / (m + M)
    v[i_max : i_min + 1] = factor * (M - u[i_max : i_min + 1]) + M
    v[i_min :] = -u[i_min :]
    return v


def flip_transform(field: RadialField) -> FlipResult:
    """Energy-decreasing rescaled reflection about an interior extremum level.

    Guaranteed to not increase the energy for profiles with sup norm <= 1;
    returns the input unchanged (flagged) when no admissible extremum exists.
    """
    u = field.values
    if field.domain.kind == BALL:
        v = _try_flip_ball(u)
        if v is None:
            v = _try_flip_ball(-u)
            v = None if v is None else -v
    else:
        v = _try_flip_annulus(u)
    if v is None:
        return FlipResult(field, False, "no flip applied")
    return FlipResult(RadialField(field.domain, v), True, "flipped")


def monotonicity_profile(field: RadialField,
                         rel_tol: float = 1e-7) -> tuple[int, bool]:
    """(# sign changes of the discrete derivative, whether u is sign-definite)."""
    du = np.diff(field.values)
    scale = np.max(np.abs(du))
    changes = _sign_changes(du, rel_tol * scale if scale > 0 else 0.0)
    uscale = np.max(np.abs(field.values))
    definite = _sign_changes(field.values, 1e-9 * uscale if uscale > 0 else 0.0) == 0
    return changes, definite


def _sign_changes(x: np.ndarray, tol: float) -> int:
    s = np.sign(x[np.abs(x) > tol])
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))
