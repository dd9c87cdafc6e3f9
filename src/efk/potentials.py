"""Reaction terms and their potential densities.

Conventions: the energy integrand is  |Lap u|^2/2 + beta |grad u|^2/2 + W(u)
with W = -F and F' = f, F(0) = 0.  Critical points solve
Delta^2 u - beta Delta u = f(u).

Variants:
  cubic          f(s) = s - s^3                       (the model equation)
  truncated_sym  cubic on [-C, C], frozen at +-f(C) outside (C = c_beta)
  truncated_pos  linear -(beta^2/4) s for s < 0, cubic on [0, C], frozen above

Array powers are written as products (s * s * s, not s**3): numpy's power
ufunc costs about 20 times the products on the descent's grids, and the two
agree to an ulp.  The line-search difference W(u + du) - W(u) expands each
polynomial piece exactly, so its round-off scales with du; only nodes whose
step crosses a breakpoint (0 or +-C) take the direct difference.
"""

from __future__ import annotations

import numpy as np

from .constants import c_beta

CUBIC = "cubic"
TRUNCATED_SYM = "truncated_sym"
TRUNCATED_POS = "truncated_pos"

NONLINEARITIES = (CUBIC, TRUNCATED_SYM, TRUNCATED_POS)


def _check(name: str) -> None:
    if name not in NONLINEARITIES:
        raise ValueError(f"unknown nonlinearity {name!r}")


def _quartic(s):
    """s^4/4 - s^2/2, the cubic variant's W; also W(C) on the frozen tails."""
    s2 = s * s
    return s2 * (0.25 * s2 - 0.5)


def reaction(name: str, beta: float, s: np.ndarray) -> np.ndarray:
    """f(s) for the chosen variant."""
    _check(name)
    s = np.asarray(s, dtype=float)
    core = s - s * s * s
    if name == CUBIC:
        return core
    C = c_beta(beta)
    slope = beta * beta / 4.0  # |f| = slope * C on the frozen tails
    if name == TRUNCATED_SYM:
        return np.where(np.abs(s) <= C, core, -slope * C * np.sign(s))
    lo = -slope * s          # s < 0 branch
    return np.where(s < 0.0, lo, np.where(s <= C, core, -slope * C))


def potential(name: str, beta: float, s: np.ndarray) -> np.ndarray:
    """W(s) = -int_0^s f;  for the cubic variant this is s^4/4 - s^2/2."""
    _check(name)
    s = np.asarray(s, dtype=float)
    core = _quartic(s)
    if name == CUBIC:
        return core
    C = c_beta(beta)
    slope = beta * beta / 4.0
    tail = _quartic(C) + slope * C * (np.abs(s) - C)
    if name == TRUNCATED_SYM:
        return np.where(np.abs(s) <= C, core, tail)
    neg = 0.5 * slope * s * s
    return np.where(s < 0.0, neg, np.where(s <= C, core, tail))


def force(name: str, beta: float, s: np.ndarray) -> np.ndarray:
    """W'(s) = -f(s), the nonlinear term of the energy gradient."""
    return -reaction(name, beta, s)


def _piece(name: str, C: float, s: np.ndarray) -> np.ndarray:
    """-1 on the lower piece, 0 on the core [-C or 0, C], 1 on the upper tail."""
    lower = s < (-C if name == TRUNCATED_SYM else 0.0)
    return (s > C).astype(np.int8) - lower


def potential_delta(name: str, beta: float, u: np.ndarray,
                    du: np.ndarray) -> np.ndarray:
    """W(u + du) - W(u) with every term carrying a factor of du.

    Where u and u + du lie in the same polynomial piece this is the piece's
    exact expansion (the cubic identity on the core, slope du (u + du/2) on
    the negative piece, +-slope C du on the frozen tails), so the round-off
    scales with the step, as the line search needs near a minimum.  Nodes
    whose step crosses a breakpoint take the direct difference.
    """
    _check(name)
    u2 = u * u
    out = du * (u * (u2 - 1.0) + du * (1.5 * u2 - 0.5 + du * (u + 0.25 * du)))
    if name == CUBIC:
        return out
    C = c_beta(beta)
    slope = beta * beta / 4.0
    v = u + du
    piece = _piece(name, C, u)
    tail = slope * C * du
    lower = -tail if name == TRUNCATED_SYM else slope * du * (u + 0.5 * du)
    out = np.where(piece > 0, tail, np.where(piece < 0, lower, out))
    crossed = piece != _piece(name, C, v)
    if crossed.any():
        out[crossed] = potential(name, beta, v[crossed]) - potential(name, beta, u[crossed])
    return out
