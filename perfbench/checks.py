"""Correctness checks that share no code path with the library.

Fields on boxes are re-evaluated with the benchmark's own dense sine tables
(no FFT, no efk.spectral), on a grid of 2m+1 points per axis: there the
discrete sine transform integrates every product of three basis functions
exactly, so the cubic residual is the exact Galerkin residual, independent of
the padding the library chose.  Each check raises CheckFailed with a reason.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# sine-table quadrature on hyperrectangles


def sine_table(length: float, modes: int, points: int) -> np.ndarray:
    """sqrt(2/L) sin(pi j k / (P+1)) for nodes j = 1..P and modes k = 1..m."""
    j = np.arange(1, points + 1)[:, None]
    k = np.arange(1, modes + 1)[None, :]
    return math.sqrt(2.0 / length) * np.sin(math.pi * j * k / (points + 1))


class BoxQuadrature:
    """Values, energy and residual of a sine series on (0, L1) x ... x (0, Ln)."""

    def __init__(self, lengths, modes):
        self.lengths = tuple(float(L) for L in lengths)
        self.modes = tuple(int(m) for m in modes)
        self.points = tuple(2 * m + 1 for m in self.modes)
        self.tables = [sine_table(L, m, p)
                       for L, m, p in zip(self.lengths, self.modes, self.points)]
        self.weight = math.prod(L / (p + 1) for L, p in zip(self.lengths, self.points))
        lam = np.zeros(self.modes)
        for axis, (L, m) in enumerate(zip(self.lengths, self.modes)):
            shape = [1] * len(self.modes)
            shape[axis] = m
            lam = lam + ((np.arange(1, m + 1) * math.pi / L) ** 2).reshape(shape)
        self.lam = lam

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs
        for axis, table in enumerate(self.tables):
            out = np.moveaxis(np.tensordot(table, out, axes=([1], [axis])), 0, axis)
        return out

    def project(self, grid: np.ndarray) -> np.ndarray:
        out = grid
        for axis, table in enumerate(self.tables):
            out = np.moveaxis(np.tensordot(table.T, out, axes=([1], [axis])), 0, axis)
        return self.weight * out

    def symbol(self, beta: float, biharmonic: float = 1.0,
               laplacian: float | None = None) -> np.ndarray:
        lap = beta if laplacian is None else laplacian
        return biharmonic * self.lam**2 + lap * self.lam

    def energy(self, coeffs, beta, nonlinearity="cubic", biharmonic=1.0, laplacian=None):
        quad = 0.5 * float(np.sum(self.symbol(beta, biharmonic, laplacian) * coeffs**2))
        pot = self.weight * float(np.sum(potential(nonlinearity, beta, self.values(coeffs))))
        return quad + pot

    def residual(self, coeffs, beta, nonlinearity="cubic", biharmonic=1.0,
                 laplacian=None) -> np.ndarray:
        """Coefficients of (b Lap^2 - l Lap) u - f(u) projected on the modes."""
        vals = self.values(coeffs)
        return (self.symbol(beta, biharmonic, laplacian) * coeffs
                - self.project(reaction(nonlinearity, beta, vals)))


# The reaction terms, written out from their definitions: cubic f = s - s^3;
# truncated_pos is linear -(beta^2/4) s below 0 and frozen at f(c_beta) above
# c_beta = sqrt(1 + beta^2/4).  W is the potential with W' = -f, W(0) = 0.

def _c_beta(beta: float) -> float:
    return math.sqrt(1.0 + 0.25 * beta * beta)


def reaction(nonlinearity: str, beta: float, s: np.ndarray) -> np.ndarray:
    if nonlinearity == "cubic":
        return s - s**3
    if nonlinearity != "truncated_pos":
        raise ValueError(nonlinearity)
    c = _c_beta(beta)
    slope = 0.25 * beta * beta
    return np.select([s < 0.0, s <= c], [-slope * s, s - s**3], -slope * c)


def potential(nonlinearity: str, beta: float, s: np.ndarray) -> np.ndarray:
    if nonlinearity == "cubic":
        return 0.25 * s**4 - 0.5 * s**2
    if nonlinearity != "truncated_pos":
        raise ValueError(nonlinearity)
    c = _c_beta(beta)
    slope = 0.25 * beta * beta
    w_c = 0.25 * c**4 - 0.5 * c**2
    return np.select([s < 0.0, s <= c],
                     [0.5 * slope * s * s, 0.25 * s**4 - 0.5 * s**2],
                     w_c + slope * c * (s - c))


def m_beta(beta: float) -> float:
    """max over s > 0 of (4/beta^2)(s - s^3) + s, reached at s^2 = (4+beta^2)/12."""
    s = math.sqrt((4.0 + beta * beta) / 12.0)
    return (4.0 / (beta * beta)) * (s - s**3) + s


# ---------------------------------------------------------------------------
# minimizers and branch points


#: residual tolerance on the exact-quadrature grid; the library's own stopping
#: rule is ||g|| < 1e-9 max(1, ||u||) on its 3/2-padded grid, and the
#: difference between the two grids is aliasing of the resolved solution
RESIDUAL_TOL = 1e-7
ENERGY_RTOL = 1e-9


def check_box_solution(quad: BoxQuadrature, coeffs, beta, nonlinearity="cubic",
                       energy=None, biharmonic=1.0, laplacian=None,
                       residual_tol=RESIDUAL_TOL) -> None:
    """Residual (and, when the library reported one, the energy) recomputed."""
    coeffs = np.asarray(coeffs, dtype=float)
    require(coeffs.shape == quad.modes, f"shape {coeffs.shape} != {quad.modes}")
    require(bool(np.all(np.isfinite(coeffs))), "non-finite coefficients")
    res = float(np.linalg.norm(quad.residual(coeffs, beta, nonlinearity,
                                             biharmonic, laplacian)))
    scale = max(1.0, float(np.linalg.norm(coeffs)))
    require(res <= residual_tol * scale,
            f"residual {res:.3e} above {residual_tol:.1e} * {scale:.3g}")
    if energy is not None:
        own = quad.energy(coeffs, beta, nonlinearity, biharmonic, laplacian)
        require(abs(own - energy) <= ENERGY_RTOL * max(1.0, abs(own)),
                f"energy {energy!r} differs from the recomputed {own!r}")


def check_bounds(values: np.ndarray, beta: float, tol: float = 1e-6) -> None:
    """0 <= u <= 1 for beta >= sqrt(8), and 0 <= u <= m_beta below that."""
    hi = 1.0 if beta >= math.sqrt(8.0) else m_beta(beta)
    u_max = float(np.max(values))
    require(u_max <= hi + tol, f"max {u_max:.9f} above the bound {hi:.9f}")
    u_min = float(np.min(values))
    require(u_min >= -tol, f"min {u_min:.3e} below zero")


# ---------------------------------------------------------------------------
# stability


def rayleigh(quad: BoxQuadrature, u, beta, v, potential_factor: float) -> tuple[float, float]:
    """(Rayleigh quotient, relative residual) of v for Lap^2 - beta Lap + c u^2 - 1."""
    uvals = quad.values(u)
    vvals = quad.values(v)
    av = quad.symbol(beta) * v + quad.project((potential_factor * uvals**2 - 1.0) * vvals)
    vv = float(np.sum(v * v))
    rho = float(np.sum(v * av)) / vv
    res = float(np.linalg.norm(av - rho * v)) / math.sqrt(vv)
    return rho, res


def check_stability(quad: BoxQuadrature, u, beta, report, value_tol=1e-6,
                    residual_tol=1e-5, null_tol=5e-4) -> None:
    """mu1 ~ 0 with eigenvector parallel to u (u is a null vector of the u^2-1
    linearization at any solution), nu1 >= mu1, nu1 > 0, and both reported
    eigenvalues equal the recomputed Rayleigh quotients of their vectors."""
    mu1, nu1 = float(report.mu1), float(report.nu1)
    for name, value, vec, factor in (("mu1", mu1, report.eigvec_mu, 1.0),
                                     ("nu1", nu1, report.eigvec_nu, 3.0)):
        rho, res = rayleigh(quad, u, beta, np.asarray(vec.coeffs, dtype=float), factor)
        require(abs(rho - value) <= value_tol * max(1.0, abs(rho)),
                f"{name}={value!r} but its vector's Rayleigh quotient is {rho!r}")
        require(res <= residual_tol, f"{name} eigen-residual {res:.3e}")
    require(abs(mu1) <= null_tol, f"mu1={mu1:.3e} is not ~0")
    v = np.asarray(report.eigvec_mu.coeffs, dtype=float)
    cos = abs(float(np.sum(v * u))) / (float(np.linalg.norm(v)) * float(np.linalg.norm(u)))
    require(cos >= 1.0 - 1e-6, f"mu1 eigenvector not parallel to u (cos {cos:.9f})")
    require(nu1 >= mu1 - 1e-10, f"nu1={nu1:.6e} < mu1={mu1:.6e}")
    require(nu1 > 0.0, f"nu1={nu1:.6e} not positive")


# ---------------------------------------------------------------------------
# branch, saddle, disk


def bifurcation_beta(lengths) -> float:
    """Closed form beta_bar = (1 - lambda1^2)/lambda1 on a box."""
    lam1 = sum((math.pi / L) ** 2 for L in lengths)
    return (1.0 - lam1 * lam1) / lam1


def check_endpoint(estimate: float, lengths, tol: float = 1e-3) -> None:
    exact = bifurcation_beta(lengths)
    require(abs(estimate - exact) < tol,
            f"endpoint {estimate:.6f} differs from beta_bar {exact:.6f}")


def check_branch_points(points, quad: BoxQuadrature) -> None:
    require(len(points) >= 3, f"branch has only {len(points)} points")
    for p in points:
        coeffs = np.asarray(p.field.coeffs, dtype=float)
        check_box_solution(quad, coeffs, p.beta, "cubic")
        require(abs(p.l2_norm - float(np.linalg.norm(coeffs))) <= 1e-12 * max(1.0, p.l2_norm),
                f"l2 norm {p.l2_norm} inconsistent with the coefficients")
        check_bounds(quad.values(coeffs), p.beta)


def check_saddle_tile(tile, tol: float = 1e-7) -> None:
    """u x y >= 0 on the reflected tile, and the tile's first quadrant is the
    quadrant field evaluated independently."""
    x = np.asarray(tile.coords)[:, None]
    y = np.asarray(tile.coords)[None, :]
    smin = float(np.min(np.asarray(tile.values) * x * y))
    require(smin >= -tol, f"min of u*x*y over the tile is {smin:.3e}")
    coeffs = np.asarray(tile.quadrant.coeffs, dtype=float)
    m = coeffs.shape[0]
    c = m + 1
    table = sine_table(tile.quadrant.domain.lengths[0], m, m)
    first = table @ coeffs @ table.T
    got = np.asarray(tile.values)[c + 1:c + 1 + m, c + 1:c + 1 + m]
    scale = max(1.0, float(np.max(np.abs(first))))
    require(float(np.max(np.abs(got - first))) <= 1e-9 * scale,
            "tile values differ from the quadrant field")


def check_disk(values: np.ndarray, rel_tol: float = 1e-3) -> None:
    """Angular defect (max over rings of the angular standard deviation)."""
    values = np.asarray(values, dtype=float)
    defect = float(np.max(np.std(values, axis=1)))
    sup = float(np.max(np.abs(values)))
    require(sup > 0.1, f"disk minimizer is trivial (sup {sup:.3e})")
    require(defect < rel_tol * sup, f"angular defect {defect:.3e} >= {rel_tol} * sup")


def sign_changes(x: np.ndarray, tol: float) -> int:
    s = np.sign(x[np.abs(x) > tol])
    return int(np.sum(s[1:] != s[:-1])) if s.size > 1 else 0
