"""Tensor sine-basis fields on hyperrectangles.

Every basis member e_k = prod_i sqrt(2/L_i) sin(k_i pi x_i / L_i) satisfies
u = Lap u = 0 on the boundary exactly, so the Navier conditions are built in.
-Laplace acts diagonally with symbol lam_k = sum_i (k_i pi / L_i)^2 and the
basis is L2-orthonormal (Parseval: sum of squared coefficients = int u^2).

Quadratic energy terms are evaluated exactly in coefficient space; potential
terms by collocation on a dealiased grid (3/2-rule padding by default).  The
nonlinear gradient term uses the exact discrete adjoint of that collocation,
so finite-difference checks of the gradient hold to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.fft import dstn

from .constants import c_beta, m_beta
from .domains import DomainSpec, volume
from .potentials import CUBIC, force, potential

BOUND_TOL = 1e-6


def _sinpi(t: np.ndarray) -> np.ndarray:
    """sin(pi*t) with exact zeros at integer t (for clean boundary traces)."""
    t = np.asarray(t, dtype=float)
    r = np.mod(t, 2.0)
    out = np.sin(np.pi * r)
    out[(r == 0.0) | (r == 1.0)] = 0.0
    return out


@lru_cache(maxsize=128)
def _ops(lengths: tuple, modes: tuple, pads: tuple) -> SimpleNamespace:
    lam_axis = [
        (np.arange(1, m + 1) * math.pi / L) ** 2 for L, m in zip(lengths, modes)
    ]
    lam = lam_axis[0]
    for ax in lam_axis[1:]:
        lam = lam[..., None] + ax
    c_eval = math.prod(0.5 * math.sqrt(2.0 / L) for L in lengths)
    h_quad = math.prod(L / (p + 1) for L, p in zip(lengths, pads))
    inv_scale = math.prod(2.0 * (m + 1) for m in modes)
    return SimpleNamespace(lam=lam, c_eval=c_eval, h_quad=h_quad, inv_scale=inv_scale)


def default_pads(modes: tuple[int, ...], pad_factor: float = 1.5) -> tuple[int, ...]:
    return tuple(max(m + 2, math.ceil(pad_factor * m)) for m in modes)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable sine-coefficient field on a hyperrectangle."""

    domain: DomainSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if not self.domain.is_rectangular:
            raise ValueError("SpectralField needs a rectangular domain")
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != self.domain.dim:
            raise ValueError("coefficient rank must match domain dimension")
        object.__setattr__(self, "coeffs", arr)

    @property
    def modes(self) -> tuple[int, ...]:
        return self.coeffs.shape

    @cached_property
    def values(self) -> np.ndarray:
        """Collocation values on the natural interior grid (spacing L/(M+1))."""
        return grid_values(self, self.modes)

    @property
    def grids(self) -> list[np.ndarray]:
        return [
            np.arange(1, m + 1) * (L / (m + 1))
            for L, m in zip(self.domain.lengths, self.modes)
        ]

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def sup_norm(self, pads: tuple[int, ...] | None = None) -> float:
        vals = grid_values(self, pads or default_pads(self.modes))
        return float(np.max(np.abs(vals)))


def zero_field(domain: DomainSpec, modes: tuple[int, ...]) -> SpectralField:
    return SpectralField(domain, np.zeros(modes))


def _pad_or_truncate(coeffs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    out = np.zeros(shape)
    sl = tuple(slice(0, min(a, b)) for a, b in zip(coeffs.shape, shape))
    out[sl] = coeffs[sl]
    return out


def grid_values(field: SpectralField, pads: tuple[int, ...]) -> np.ndarray:
    """Evaluate on the interior uniform grid with pads points per axis."""
    ops = _ops(field.domain.lengths, field.modes, pads)
    return ops.c_eval * dstn(_pad_or_truncate(field.coeffs, pads), type=1)


def project_values(domain: DomainSpec, grid: np.ndarray,
                   modes: tuple[int, ...]) -> np.ndarray:
    """Adjoint of grid_values composed with the quadrature weight.

    Returns the coefficients of the L2 projection of grid data, i.e.
    <w, e_k> approximated on the grid the data lives on.
    """
    pads = grid.shape
    ops = _ops(domain.lengths, modes, pads)
    full = (ops.h_quad * ops.c_eval) * dstn(grid, type=1)
    return full[tuple(slice(0, m) for m in modes)]


def from_values(domain: DomainSpec, values: np.ndarray) -> SpectralField:
    """Exact inverse transform of natural-grid collocation values."""
    modes = values.shape
    ops = _ops(domain.lengths, modes, modes)
    coeffs = dstn(values, type=1) / (ops.inv_scale * ops.c_eval)
    return SpectralField(domain, coeffs)


def with_modes(field: SpectralField, new_modes: tuple[int, ...]) -> SpectralField:
    """Zero-padding refinement (exact) or truncating restriction."""
    return SpectralField(field.domain, _pad_or_truncate(field.coeffs, tuple(new_modes)))


def quad_symbol(field_or_domain, modes: tuple[int, ...], biharmonic: float,
                laplacian: float) -> np.ndarray:
    """Diagonal symbol biharmonic*lam^2 + laplacian*lam of the quadratic part."""
    domain = getattr(field_or_domain, "domain", field_or_domain)
    ops = _ops(domain.lengths, tuple(modes), tuple(modes))
    return biharmonic * ops.lam**2 + laplacian * ops.lam


@dataclass(frozen=True)
class EnergyReport:
    j_beta: float
    j_beta_shifted: float
    grad_norm: float
    u_min: float
    u_max: float
    bound_flags: dict
    beta: float
    nonlinearity: str

    def as_dict(self) -> dict:
        return {
            "j_beta": self.j_beta,
            "j_beta_shifted": self.j_beta_shifted,
            "grad_norm": self.grad_norm,
            "u_min": self.u_min,
            "u_max": self.u_max,
            "bound_flags": dict(self.bound_flags),
            "beta": self.beta,
            "nonlinearity": self.nonlinearity,
        }


def _bound_flags(beta: float, u_min: float, u_max: float) -> dict:
    amp = max(abs(u_min), abs(u_max))
    return {
        "le_one": amp <= 1.0 + BOUND_TOL,
        "le_m_beta": amp <= m_beta(beta) + BOUND_TOL,
        "le_c_beta": amp <= c_beta(beta) + BOUND_TOL,
        "nonneg": u_min >= -BOUND_TOL,
    }


def energy_value(field: SpectralField, beta: float, nonlinearity: str = CUBIC,
                 pad_factor: float = 1.5, biharmonic: float = 1.0) -> float:
    """Value of the energy functional (quadratic part exact in coefficients)."""
    if not np.all(np.isfinite(field.coeffs)):
        raise ValueError("non-finite coefficients")
    sym = quad_symbol(field, field.modes, biharmonic, beta)
    quad = 0.5 * float(np.sum(sym * field.coeffs**2))
    pads = default_pads(field.modes, pad_factor)
    vals = grid_values(field, pads)
    ops = _ops(field.domain.lengths, field.modes, pads)
    pot = ops.h_quad * float(np.sum(potential(nonlinearity, beta, vals)))
    return quad + pot


def gradient(field: SpectralField, beta: float, nonlinearity: str = CUBIC,
             pad_factor: float = 1.5, biharmonic: float = 1.0) -> SpectralField:
    """Coefficient-space gradient; exact adjoint of energy_value."""
    if not np.all(np.isfinite(field.coeffs)):
        raise ValueError("non-finite coefficients")
    sym = quad_symbol(field, field.modes, biharmonic, beta)
    pads = default_pads(field.modes, pad_factor)
    vals = grid_values(field, pads)
    g = sym * field.coeffs + project_values(field.domain, force(nonlinearity, beta, vals),
                                            field.modes)
    return SpectralField(field.domain, g)


def energy(field: SpectralField, beta: float, nonlinearity: str = CUBIC,
           pad_factor: float = 1.5, biharmonic: float = 1.0) -> EnergyReport:
    """EnergyReport with both normalizations, gradient norm, and bound flags."""
    j = energy_value(field, beta, nonlinearity, pad_factor, biharmonic)
    g = gradient(field, beta, nonlinearity, pad_factor, biharmonic)
    vals = grid_values(field, default_pads(field.modes, pad_factor))
    u_min = float(vals.min())
    u_max = float(vals.max())
    return EnergyReport(
        j_beta=j,
        j_beta_shifted=j + volume(field.domain) / 4.0,
        grad_norm=g.l2_norm(),
        u_min=u_min,
        u_max=u_max,
        bound_flags=_bound_flags(beta, u_min, u_max),
        beta=beta,
        nonlinearity=nonlinearity,
    )


U2_MINUS_1 = "u2_minus_1"
THREE_U2_MINUS_1 = "three_u2_minus_1"


def linearization_potential(potential_kind: str, u_values: np.ndarray) -> np.ndarray:
    """V = u^2 - 1 (U2_MINUS_1) or 3u^2 - 1 (THREE_U2_MINUS_1) from values of u."""
    if potential_kind == U2_MINUS_1:
        return u_values * u_values - 1.0
    if potential_kind == THREE_U2_MINUS_1:
        return 3.0 * u_values * u_values - 1.0
    raise ValueError(f"unknown potential {potential_kind!r}")


@lru_cache(maxsize=64)
def _pair_table(length: float, modes: int, pads: int) -> np.ndarray:
    """K[j, (a, b)] = A[j, a] A[j, b] for the one-axis evaluation table A."""
    j = np.arange(1, pads + 1)
    k = np.arange(1, modes + 1)
    a = math.sqrt(2.0 / length) * np.sin(np.outer(j, k) * (math.pi / (pads + 1)))
    return (a[:, :, None] * a[:, None, :]).reshape(pads, modes * modes)


class LinearizedOperator:
    """Delta^2 - beta Delta + V at u, with V from linearization_potential.

    In coefficient space the operator is diag(sym) + h E^T diag(V) E, with E
    the coefficients -> padded-grid evaluation map and h the quadrature
    weight; matvec applies it with two transforms, dense() assembles it.
    """

    def __init__(self, u: SpectralField, beta: float,
                 potential_kind: str = THREE_U2_MINUS_1):
        self.domain = u.domain
        self.modes = u.modes
        self.pads = default_pads(u.modes)
        self.V = linearization_potential(potential_kind, grid_values(u, self.pads))
        self.sym = quad_symbol(u.domain, u.modes, 1.0, beta)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply to a coefficient array (any shape holding prod(modes) entries)."""
        c = np.reshape(v, self.modes)
        vals = grid_values(SpectralField(self.domain, c), self.pads)
        out = self.sym * c + project_values(self.domain, self.V * vals, self.modes)
        return out.reshape(np.shape(v))

    def dense(self) -> np.ndarray:
        """The exact (n, n) matrix, contracting V with one pair table per axis."""
        dim, n = len(self.modes), self.sym.size
        t = _ops(self.domain.lengths, self.modes, self.pads).h_quad * self.V
        for L, m, p in zip(self.domain.lengths, self.modes, self.pads):
            t = np.tensordot(t, _pair_table(L, m, p), axes=([0], [0]))
        # axes (a1, b1, a2, b2, ...) -> rows (a1, a2, ...), columns (b1, b2, ...)
        t = t.reshape([m for m in self.modes for _ in range(2)])
        J = t.transpose([*range(0, 2 * dim, 2), *range(1, 2 * dim, 2)]).reshape(n, n)
        J[np.diag_indices(n)] += self.sym.ravel()
        return J


def apply_linearized(u: SpectralField, beta: float, v: SpectralField,
                     potential_kind: str = THREE_U2_MINUS_1) -> SpectralField:
    """(Delta^2 - beta Delta + V) v with V = u^2-1 or 3u^2-1."""
    if u.modes != v.modes or u.domain != v.domain:
        raise ValueError("mismatched discretizations")
    op = LinearizedOperator(u, beta, potential_kind)
    return SpectralField(u.domain, op.matvec(v.coeffs))


def evaluate_at(field: SpectralField, axes_points) -> np.ndarray:
    """Evaluate at the tensor grid of per-axis point lists (boundary-exact)."""
    tables = []
    for L, m, pts in zip(field.domain.lengths, field.modes, axes_points):
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        k = np.arange(1, m + 1)
        tables.append(math.sqrt(2.0 / L) * _sinpi(np.outer(pts, k) / L))
    return _apply_tables(field.coeffs, tables)


def derivative_values(field: SpectralField, axis: int,
                      pads: tuple[int, ...] | None = None) -> np.ndarray:
    """Partial derivative along one axis on the (padded) interior grid."""
    pads = pads or default_pads(field.modes)
    tables = []
    for ax, (L, m, p) in enumerate(zip(field.domain.lengths, field.modes, pads)):
        j = np.arange(1, p + 1)
        k = np.arange(1, m + 1)
        theta = np.outer(j, k) * (math.pi / (p + 1))
        if ax == axis:
            tables.append(math.sqrt(2.0 / L) * (k * math.pi / L) * np.cos(theta))
        else:
            tables.append(math.sqrt(2.0 / L) * np.sin(theta))
    return _apply_tables(field.coeffs, tables)


def _apply_tables(coeffs: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    out = coeffs
    for i, table in enumerate(tables):
        out = np.moveaxis(np.tensordot(table, out, axes=([1], [i])), 0, i)
    return out


def laplacian(field: SpectralField) -> SpectralField:
    ops = _ops(field.domain.lengths, field.modes, field.modes)
    return SpectralField(field.domain, -ops.lam * field.coeffs)
