"""Closed-form constants and scalar auxiliary functions of the a-priori
bound machinery for Delta^2 u - beta*Delta u = u - u^3."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: threshold above which m_beta <= c_beta, i.e. the truncated problem's
#: solutions also solve the cubic problem
K0 = math.sqrt(8.0 / (math.sqrt(27.0) - 2.0))

SQRT8 = math.sqrt(8.0)


def c_beta(beta: float) -> float:
    """Unique positive root of (4/beta^2)(s - s^3) + s; always > 1."""
    _require_positive(beta)
    return math.sqrt((4.0 + beta * beta) / 4.0)


def m_beta(beta: float) -> float:
    """Maximum of (4/beta^2)(s - s^3) + s over (0, inf); always >= 1."""
    _require_positive(beta)
    return ((4.0 + beta * beta) / 3.0) ** 1.5 / (beta * beta)


def beta_bar(lambda1: float) -> float:
    """Bifurcation value (1 - lambda1^2)/lambda1 of the trivial branch."""
    if lambda1 <= 0.0:
        raise ValueError("lambda1 must be positive")
    return (1.0 - lambda1 * lambda1) / lambda1


@dataclass(frozen=True)
class BetaConstants:
    """Bound constants attached to a fixed beta > 0 (beta_bar needs lambda1)."""

    beta: float
    c_beta: float
    m_beta: float
    k0: float
    beta_bar: float | None = None

    @classmethod
    def for_beta(cls, beta: float, lambda1: float | None = None) -> "BetaConstants":
        bb = beta_bar(lambda1) if lambda1 is not None else None
        return cls(beta=beta, c_beta=c_beta(beta), m_beta=m_beta(beta), k0=K0, beta_bar=bb)


def scalar_g(beta: float, s, f: Callable) -> np.ndarray | float:
    """g(s) = (4/beta^2) f(s) + s, the comparison function behind the
    maximum-principle bounds on solution extrema."""
    _require_positive(beta)
    s_arr = np.asarray(s, dtype=float)
    out = (4.0 / (beta * beta)) * np.asarray(f(s_arr), dtype=float) + s_arr
    return out if out.ndim else float(out)


def scalar_h(beta: float, s) -> np.ndarray | float:
    """scalar_g specialized to the cubic nonlinearity f(s) = s - s^3."""
    return scalar_g(beta, s, lambda t: t - t**3)


def interval_max(fun: Callable[[float], float], lo: float, hi: float,
                 samples: int = 2048) -> float:
    """Max of fun over [lo, hi]: dense sampling, polished by a bounded scalar
    search between the neighbours of the best sample."""
    from scipy.optimize import minimize_scalar  # a module-level import costs 12 MB

    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        return float(fun(lo))
    xs = np.linspace(lo, hi, samples)
    vals = np.array([fun(x) for x in xs])
    i = int(np.argmax(vals))
    bounds = (xs[max(i - 1, 0)], xs[min(i + 1, samples - 1)])
    polish = minimize_scalar(lambda x: -fun(x), bounds=bounds, method="bounded",
                             options={"xatol": 1e-12})
    return max(float(np.max(vals)), -float(polish.fun))


def interval_min(fun, lo: float, hi: float, samples: int = 2048) -> float:
    return -interval_max(lambda x: -fun(x), lo, hi, samples)


def g_interval_max(beta: float, f: Callable, lo: float, hi: float) -> float:
    return interval_max(lambda s: float(scalar_g(beta, s, f)), lo, hi)


def g_interval_min(beta: float, f: Callable, lo: float, hi: float) -> float:
    return interval_min(lambda s: float(scalar_g(beta, s, f)), lo, hi)


def _require_positive(beta: float) -> None:
    if not beta > 0.0:
        raise ValueError("beta must be positive")
