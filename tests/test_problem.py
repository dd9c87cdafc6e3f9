import numpy as np
import pytest

from efk.domains import annulus, ball, hyperrectangle
from efk.minimize import random_band_limited
from efk.polar import PolarProblem, random_polar_init
from efk.potentials import NONLINEARITIES
from efk.radial import RadialProblem
from efk.spectral import SpectralProblem

BETA = 3.0  # c_beta = 1.80, so the steps below cross every breakpoint
PROBLEMS = {
    "spectral": lambda nl: SpectralProblem(hyperrectangle(6.0, 5.0), (12, 10), BETA, nl),
    "radial": lambda nl: RadialProblem(annulus(1.0, 4.0, dim=2), 64, BETA, nl),
    "polar": lambda nl: PolarProblem(ball(5.0, dim=2), 12, 8, BETA, nl),
}
# the carried values are E x itself where E embeds or reshapes, and the
# transform of x up to round-off on the spectral path
CARRY_TOL = {"spectral": 1e-13, "radial": 0.0, "polar": 0.0}


def _smooth(p, seed, amplitude):
    if isinstance(p, PolarProblem):
        return random_polar_init(p, seed, amplitude)
    return random_band_limited(p, seed, amplitude)


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_make_line_is_the_energy_difference(kind, nonlinearity):
    p = PROBLEMS[kind](nonlinearity)
    x, d = _smooth(p, 3, 1.2), np.random.default_rng(4).standard_normal(p.n_dofs)
    p.grad(x)
    line = p.make_line(x, d)
    f = p.fun(x)
    for alpha in (1.0, 1e-3, 0.1):
        exact = p.fun(x + alpha * d) - f
        scale = max(1.0, abs(f), abs(exact + f))
        assert line(alpha) == pytest.approx(exact, rel=1e-12, abs=1e-12 * scale)

    # 0.1 was the last step tried, so grad carries the line's values there
    point = x + 0.1 * d
    g = p.grad(point)
    assert p._carry[2] == 1
    fresh, carried = p.grid(point), p._carry[1]
    tol = CARRY_TOL[kind]
    assert np.max(np.abs(carried - fresh)) <= tol * np.max(np.abs(fresh))
    ref = PROBLEMS[kind](nonlinearity).grad(point)
    assert np.max(np.abs(g - ref)) <= tol * np.max(np.abs(ref))
