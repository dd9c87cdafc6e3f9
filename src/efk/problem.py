"""The energy J(u) = int |Lap u|^2/2 + (beta/2) |grad u|^2 + W(u), written
once for every discretization:

    J(x)              = 1/2 <x, Q x> + sum w W(E x)
    grad J(x)         = Q x + E^T (w W'(E x))
    J(x + a d) - J(x) = a <x, Q d> + a^2/2 <d, Q d> + sum w [W(E x + a E d) - W(E x)]

A discretization supplies E as grid(x), E^T (w .) in any shape as _project(f),
the weights w, the mass of the norms, the preconditioner h0, and Q as weighted
terms, <x, Q y> = sum_k <B_k x, W_k B_k y>, through _terms(x) = (B_k x),
term_weights = (W_k) and _terms_adjoint(t) = sum_k B_k^T t_k: a dot product of
x with Q d loses 33 times more to round-off in the line's cross term on a
1,024-node annulus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .constants import c_beta, m_beta
from .domains import volume
from .potentials import force, potential, potential_delta

BOUND_TOL = 1e-6
#: accepted steps between lbfgs's energy resyncs and the recomputations of the
#: carried grid values
RESYNC_STEPS = 64


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of two flat arrays without BLAS, whose threaded ddot sums in an
    order that depends on the thread count; numpy's own loop does not."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


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
        return asdict(self)


def _bound_flags(beta: float, u_min: float, u_max: float) -> dict:
    amp = max(abs(u_min), abs(u_max))
    return {
        "le_one": amp <= 1.0 + BOUND_TOL,
        "le_m_beta": amp <= m_beta(beta) + BOUND_TOL,
        "le_c_beta": amp <= c_beta(beta) + BOUND_TOL,
        "nonneg": u_min >= -BOUND_TOL,
    }


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values")
    return x


class EnergyProblem:
    """Flattened view of the energy for lbfgs; a subclass sets domain, beta,
    nonlinearity, n_dofs, grad_tol_default, term_weights, w, mass and h0.

    Under lbfgs's protocol an iteration applies E once and E^T once.
    make_line(x, d) holds the grid values of x and d.  grad at the accepted
    point x + step d takes its values as uvals + step vvals, equal to E of that
    point up to round-off (exactly where E embeds or reshapes), so it only
    projects; the next make_line reuses those values and maps only its
    direction.  A reuse needs x to equal the carried point exactly; any other x
    is mapped afresh, and so are the values after RESYNC_STEPS carried steps,
    which bounds the drift.
    """

    _line = None   # x, d, their grid values and the last step tried
    _carry = None  # (x, grid values of x, steps carried since E was applied)

    def _form(self, a: tuple, b: tuple) -> float:
        """<x, Q y> from the terms a of x and b of y."""
        return sum(float(np.sum(wk * ak * bk)) for wk, ak, bk in zip(self.term_weights, a, b))

    def _energy(self, x: np.ndarray, vals: np.ndarray) -> float:
        t = self._terms(x)
        pot = potential(self.nonlinearity, self.beta, vals)
        return 0.5 * self._form(t, t) + float(np.sum(self.w * pot))

    def _gradient(self, x: np.ndarray, vals: np.ndarray) -> np.ndarray:
        # projecting first keeps its grid-size buffer alive while the smaller arrays
        # are allocated, so glibc trims no heap (about 50 faults an iteration at 96^2)
        nonlinear = self._project(force(self.nonlinearity, self.beta, vals))
        quad = self._terms_adjoint([wk * tk for wk, tk in zip(self.term_weights, self._terms(x))])
        return quad + nonlinear.ravel()

    def fun(self, x: np.ndarray) -> float:
        return self._energy(x, self.grid(_finite(x)))

    def _values(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """The carried grid values and steps when x is their point, else E x and 0."""
        if self._carry is not None and np.array_equal(x, self._carry[0]):
            return self._carry[1], self._carry[2]
        return self.grid(x), 0

    def grad(self, x: np.ndarray) -> np.ndarray:
        """The gradient at x, from the last line's values when x is its last step."""
        _finite(x)
        line, self._line = self._line, None
        if (line is not None and line.step is not None
                and line.carried + 1 < RESYNC_STEPS
                and np.array_equal(x, point := line.x + line.step * line.d)):
            self._carry = (point, line.uvals + line.step * line.vvals, line.carried + 1)
        else:
            x = x.copy()
            self._carry = (x, *self._values(x))
        return self._gradient(x, self._carry[1])

    def make_line(self, x: np.ndarray, d: np.ndarray):
        """delta(alpha) = fun(x + alpha d) - fun(x), expanded in alpha; the
        values of x are carried from grad when x is its point."""
        x, d = x.copy(), d.copy()
        tx, td = self._terms(x), self._terms(d)
        cross, half_dd = self._form(tx, td), 0.5 * self._form(td, td)
        uvals, carried = self._values(x)
        vvals = self.grid(d)
        line = self._line = SimpleNamespace(x=x, d=d, uvals=uvals, vvals=vvals,
                                            carried=carried, step=None)
        w, beta, nl = self.w, self.beta, self.nonlinearity

        def delta(alpha: float) -> float:
            line.step = alpha
            pot = potential_delta(nl, beta, uvals, alpha * vvals)
            return alpha * cross + alpha * alpha * half_dd + float(np.sum(w * pot))

        return delta

    def stop_metric(self, x, g) -> float:
        return math.sqrt(_dot(g, g / self.mass))

    def scale_metric(self, x) -> float:
        return math.sqrt(_dot(x, self.mass * x))

    def report(self, x: np.ndarray) -> EnergyReport:
        """Energy in both normalizations, the gradient's stop metric, the
        extremes of the grid values and the bound flags."""
        vals = self.grid(_finite(x))
        j = self._energy(x, vals)
        u_min, u_max = float(vals.min()), float(vals.max())
        return EnergyReport(j_beta=j, j_beta_shifted=j + volume(self.domain) / 4.0,
                            grad_norm=self.stop_metric(x, self._gradient(x, vals)),
                            u_min=u_min, u_max=u_max,
                            bound_flags=_bound_flags(self.beta, u_min, u_max),
                            beta=self.beta, nonlinearity=self.nonlinearity)
