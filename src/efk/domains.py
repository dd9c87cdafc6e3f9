"""Domain descriptors and principal Dirichlet eigenpairs.

Supported geometries: hyperrectangles (0,L1)x...x(0,LN), balls of radius R,
annuli (R0, R), and the quadrant square (0,R)^2 used to build saddle tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

HYPERRECTANGLE = "hyperrectangle"
BALL = "ball"
ANNULUS = "annulus"
QUADRANT_SQUARE = "quadrant_square"


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    dim: int
    lengths: tuple[float, ...] | None = None
    radius: float | None = None
    inner_radius: float | None = None

    def __post_init__(self):
        if self.kind in (HYPERRECTANGLE, QUADRANT_SQUARE):
            if not self.lengths or len(self.lengths) != self.dim:
                raise ValueError("lengths must match dim")
            if any(L <= 0 for L in self.lengths):
                raise ValueError("side lengths must be positive")
            if self.kind == QUADRANT_SQUARE and self.dim != 2:
                raise ValueError("quadrant square is two-dimensional")
        elif self.kind == BALL:
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball needs radius > 0")
        elif self.kind == ANNULUS:
            if (self.radius is None or self.inner_radius is None
                    or not 0 < self.inner_radius < self.radius):
                raise ValueError("annulus needs R > R0 > 0")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def is_rectangular(self) -> bool:
        return self.kind in (HYPERRECTANGLE, QUADRANT_SQUARE)

    @property
    def is_radial(self) -> bool:
        return self.kind in (BALL, ANNULUS)


def hyperrectangle(*lengths: float) -> DomainSpec:
    return DomainSpec(HYPERRECTANGLE, dim=len(lengths), lengths=tuple(float(L) for L in lengths))


def ball(radius: float, dim: int = 2) -> DomainSpec:
    return DomainSpec(BALL, dim=dim, radius=float(radius))


def annulus(inner_radius: float, radius: float, dim: int = 2) -> DomainSpec:
    return DomainSpec(ANNULUS, dim=dim, radius=float(radius), inner_radius=float(inner_radius))


def quadrant_square(side: float) -> DomainSpec:
    return DomainSpec(QUADRANT_SQUARE, dim=2, lengths=(float(side), float(side)))


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def volume(domain: DomainSpec) -> float:
    if domain.is_rectangular:
        return float(np.prod(domain.lengths))
    s = sphere_area(domain.dim) / domain.dim
    if domain.kind == BALL:
        return s * domain.radius**domain.dim
    return s * (domain.radius**domain.dim - domain.inner_radius**domain.dim)


def bessel_order(dim: int) -> float:
    return dim / 2.0 - 1.0


def bessel_first_zero(nu: float) -> float:
    """First positive zero j_{nu,1} of J_nu, for any real nu > -1.

    The zero lies in (max(nu, 0), nu + pi + 2]: the first sign change of
    sampled values is polished by brentq.  (scipy's jn_zeros takes integer
    orders only; odd dimensions need half-integer ones.)
    """
    # imported here: scipy.optimize adds about 11 MB to the resident memory of
    # every process that imports efk, and only ball eigenvalues need it
    from scipy.optimize import brentq

    xs = np.linspace(max(nu, 0.0), nu + math.pi + 2.0, 257)[1:]
    i = int(np.argmax(jv(nu, xs) <= 0.0))
    return brentq(lambda x: jv(nu, x), xs[i - 1], xs[i], xtol=1e-15)


def lambda1_value(domain: DomainSpec, n_points: int = 512) -> float:
    """Principal Dirichlet eigenvalue of -Laplace on the domain.

    Rectangles and balls are analytic; the annulus value comes from the
    radial grid eigensolver (second-order accurate).
    """
    if domain.is_rectangular:
        return float(sum((math.pi / L) ** 2 for L in domain.lengths))
    if domain.kind == BALL:
        j = bessel_first_zero(bessel_order(domain.dim))
        return (j / domain.radius) ** 2
    from .radial import radial_lambda1

    return radial_lambda1(domain, n_points)[0]


def lambda1(domain: DomainSpec, n_points: int = 512):
    """(lambda1, phi1) with phi1 positive and L2-normalized.

    phi1 is a SpectralField on rectangles and a RadialField on balls/annuli.
    """
    if domain.is_rectangular:
        from .spectral import SpectralField

        modes = tuple(1 for _ in domain.lengths)
        coeffs = np.ones(modes)
        return lambda1_value(domain), SpectralField(domain, coeffs)
    from .radial import RadialField, radial_lambda1, radial_mass

    if domain.kind == BALL:
        lam = lambda1_value(domain)
        nu = bessel_order(domain.dim)
        # s^-nu J_nu(s), whose value at s = 0 is 2^-nu / Gamma(nu + 1)
        s = math.sqrt(lam) * np.linspace(0.0, domain.radius, n_points + 1)
        vals = np.empty_like(s)
        vals[0] = 0.5**nu / math.gamma(nu + 1.0)
        vals[1:] = jv(nu, s[1:]) / s[1:] ** nu
        vals[-1] = 0.0
        m = radial_mass(domain, n_points)
        norm = math.sqrt(float(np.sum(m * vals * vals)))
        return lam, RadialField(domain, vals / norm)
    lam, vec = radial_lambda1(domain, n_points)
    return lam, vec


def critical_radius(beta: float, dim: int) -> float:
    """Ball radius at which the nontrivial branch bifurcates for given beta.

    Inverts beta = (1 - lam^2)/lam with lam = (j/R)^2; the formula is
    sqrt(2) * j / sqrt(-beta + sqrt(beta^2 + 4)).
    """
    j = bessel_first_zero(bessel_order(dim))
    return math.sqrt(2.0) * j / math.sqrt(-beta + math.sqrt(beta * beta + 4.0))
