"""Smallest eigenpairs of the linearized fourth-order operators
Delta^2 - beta Delta + V with V = u^2 - 1 or 3u^2 - 1,
via shifted inverse power iteration.

Inner solves use conjugate gradients on (A - sigma I), preconditioned by the
diagonal coefficient-space symbol; sigma always sits below the current
Rayleigh quotient, and a loss of positive definiteness triggers a retry with
a larger shift margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .radial import RadialField
from .spectral import THREE_U2_MINUS_1, U2_MINUS_1, SpectralField


class EigenSolveError(RuntimeError):
    pass


class _NotPositiveDefinite(Exception):
    pass


def _pcg(apply_a, b, pre_inv, tol=1e-11, max_iter=None):
    n = b.size
    max_iter = max_iter or 4 * n
    x = np.zeros_like(b)
    r = b.copy()
    z = pre_inv * r
    p = z.copy()
    rz = float(np.dot(r, z))
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x
    for _ in range(max_iter):
        ap = apply_a(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            raise _NotPositiveDefinite
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol * b_norm:
            return x
        z = pre_inv * r
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def smallest_eigenpair(u: SpectralField, beta: float,
                       potential_kind: str = THREE_U2_MINUS_1,
                       tol: float = 1e-7, max_outer: int = 200,
                       pad_factor: float = 1.5):
    """(lambda_min, eigenfield, residual) of the linearized operator at u.

    The eigenvector is sign-normalized to positive spatial mean and has unit
    coefficient norm; the residual is ||A v - lambda v|| for that normalized v.
    """
    if not isinstance(u, SpectralField):
        return _radial_smallest_eigenpair(u, beta, potential_kind, tol)
    op = sp.LinearizedOperator(u, beta, potential_kind, pad_factor)
    apply_a, sym, v_min = op.matvec, op.sym.ravel(), float(op.V.min())
    n = sym.size

    v = u.coeffs.ravel().copy()
    if float(np.linalg.norm(v)) < 1e-12:
        v = np.zeros(n)
        v[0] = 1.0
    v /= np.linalg.norm(v)
    rho = float(np.dot(v, apply_a(v)))
    margin = max(0.2, 0.05 * abs(rho))
    residual = math.inf
    for _ in range(max_outer):
        sigma = rho - margin
        pre = 1.0 / np.maximum(sym + v_min - sigma, 1e-8)
        try:
            w = _pcg(lambda p: apply_a(p) - sigma * p, v, pre)
        except _NotPositiveDefinite:
            margin *= 4.0
            if margin > 1e8:
                raise EigenSolveError("shift margin grew unboundedly")
            continue
        nw = float(np.linalg.norm(w))
        if nw == 0.0 or not np.isfinite(nw):
            raise EigenSolveError("inverse iteration produced a null vector")
        v = w / nw
        av = apply_a(v)
        rho = float(np.dot(v, av))
        residual = float(np.linalg.norm(av - rho * v))
        if residual < tol:
            break
        margin = max(4.0 * residual, 1e-9 * max(1.0, abs(rho)))
    else:
        raise EigenSolveError(f"no convergence: residual {residual:.3e}")
    field = SpectralField(u.domain, v.reshape(u.modes))
    if _spatial_mean(field) < 0:
        field = SpectralField(u.domain, -field.coeffs)
    return rho, field, residual


def _spatial_mean(v) -> float:
    if isinstance(v, SpectralField):
        return float(np.mean(sp.grid_values(v, sp.default_pads(v.modes))))
    return float(np.mean(v.values))


def _radial_smallest_eigenpair(u: RadialField, beta: float, potential_kind: str,
                               tol: float):
    """Dense generalized eigensolve on the radial quadratic form (small n)."""
    from scipy.linalg import eigh

    from . import radial as rd

    g = rd._geometry(u.domain, u.n_points)
    V = sp.linearization_potential(potential_kind, u.values)
    free = np.flatnonzero(g.free)
    quad = (g.k2 + beta * g.k1).toarray() + np.diag(g.w * V)
    a = quad[np.ix_(free, free)]
    m = np.diag(g.mass[free])
    lam, vec = eigh(a, m, subset_by_index=[0, 0])
    full = np.zeros(u.n_points + 1)
    full[free] = vec[:, 0]
    field = RadialField(u.domain, full)
    norm = field.l2_norm()
    field = RadialField(u.domain, full / norm)
    if _spatial_mean(field) < 0:
        field = RadialField(u.domain, -field.values)
    res = float(np.linalg.norm(a @ vec[:, 0] - lam[0] * (m @ vec[:, 0])))
    return float(lam[0]), field, res


def eigvec_positivity(v, tol: float = 1e-6) -> bool:
    """True iff the mean-sign-normalized eigenvector is nonnegative up to
    tol * sup norm on the interior grid."""
    if isinstance(v, SpectralField):
        vals = sp.grid_values(v, sp.default_pads(v.modes))
    else:
        vals = v.values
    if _spatial_mean(v) < 0:
        vals = -vals
    amp = float(np.max(np.abs(vals)))
    if amp == 0.0:
        return True
    return bool(vals.min() >= -tol * amp)


@dataclass(frozen=True)
class StabilityReport:
    mu1: float
    nu1: float
    eigvec_mu: object
    eigvec_nu: object
    residual_mu: float
    residual_nu: float
    is_strictly_stable: bool

    def as_dict(self) -> dict:
        return {
            "mu1": self.mu1,
            "nu1": self.nu1,
            "residual_mu": self.residual_mu,
            "residual_nu": self.residual_nu,
            "is_strictly_stable": self.is_strictly_stable,
        }


def stability_report(u, beta: float, tol: float = 1e-7) -> StabilityReport:
    """Smallest eigenvalues for both linearization potentials at u.

    The potentials differ by 2u^2 >= 0, so nu1 >= mu1 holds identically; a
    violation beyond round-off raises EigenSolveError.
    """
    mu1, v_mu, res_mu = smallest_eigenpair(u, beta, U2_MINUS_1, tol)
    nu1, v_nu, res_nu = smallest_eigenpair(u, beta, THREE_U2_MINUS_1, tol)
    if nu1 - mu1 < -1e-8:
        raise EigenSolveError(f"potential ordering violated: nu1={nu1!r} < mu1={mu1!r}")
    return StabilityReport(mu1=mu1, nu1=nu1, eigvec_mu=v_mu, eigvec_nu=v_nu,
                           residual_mu=res_mu, residual_nu=res_nu,
                           is_strictly_stable=bool(nu1 > 1e-10))
