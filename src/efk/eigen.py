"""Smallest eigenpairs of the linearized fourth-order operators
Delta^2 - beta Delta + V with V = u^2 - 1 or 3u^2 - 1.

Spectral fields use scipy's LOBPCG on spectral.LinearizedOperator, started
from u and preconditioned by the diagonal coefficient-space symbol shifted to
stay positive definite; radial fields use a dense generalized eigensolve.
Every spectral pair returned has passed the residual check ||A v - lambda v|| < tol.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import LinearOperator, lobpcg

from . import spectral as sp
from .radial import RadialField
from .spectral import THREE_U2_MINUS_1, U2_MINUS_1, SpectralField


class EigenSolveError(RuntimeError):
    pass


# LOBPCG iterations per eigensolve; the residual check below guards the result
_MAX_ITER = 500


def smallest_eigenpair(u, beta: float, potential_kind: str = THREE_U2_MINUS_1,
                       tol: float = 1e-7):
    """(lambda_min, eigenfield, residual) of the linearized operator at u.

    The eigenvector is sign-normalized to positive spatial mean and has unit
    coefficient norm; the residual is ||A v - lambda v|| for that normalized v,
    and EigenSolveError is raised unless it is below tol.  LOBPCG starts from
    u, so for a reflection-symmetric u it sees only u's symmetry class and can
    return that class's smallest eigenvalue with a passing residual: on the 1D
    branch over (0, 2 pi) at 48 modes it gives 2.533 at beta = -1.97, where the
    dense spectrum starts at 1.867.
    """
    if isinstance(u, RadialField):
        return _radial_smallest_eigenpair(u, beta, potential_kind, tol)
    if not isinstance(u, SpectralField):
        raise TypeError(f"no eigensolver for {type(u).__name__}; "
                        "expected SpectralField or RadialField")
    op = sp.LinearizedOperator(u, beta, potential_kind)
    sym = op.sym.ravel()
    n = sym.size
    a = LinearOperator((n, n), matvec=op.matvec, dtype=float)
    # the symbol shifted by -min V stays positive definite
    pre = diags(1.0 / (sym + max(0.0, -float(op.V.min())) + 1.0))
    v = u.coeffs.ravel().copy()
    if float(np.linalg.norm(v)) < 1e-12:
        v = np.zeros(n)
        v[0] = 1.0
    with warnings.catch_warnings():
        # non-convergence is judged by the residual check below
        warnings.simplefilter("ignore", UserWarning)
        _, vec = lobpcg(a, v[:, None], M=pre, tol=tol, maxiter=_MAX_ITER, largest=False)
    v = vec[:, 0] / np.linalg.norm(vec[:, 0])
    av = op.matvec(v)
    rho = float(np.dot(v, av))
    residual = float(np.linalg.norm(av - rho * v))
    if not residual < tol:
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
