"""Properties of the potential densities and their line differences."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efk.constants import c_beta
from efk.potentials import (CUBIC, NONLINEARITIES, TRUNCATED_POS, TRUNCATED_SYM,
                            potential, potential_delta, reaction)

EPS = np.finfo(float).eps
betas = st.floats(min_value=0.1, max_value=6.0)
steps = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
                  st.sampled_from((-1.0, 1.0)), st.floats(min_value=1.0, max_value=9.99),
                  st.integers(min_value=-14, max_value=-1))


def _exact_w(name, beta, s: Fraction) -> Fraction:
    """W at a rational point, with C and the slope as the code rounds them."""
    C, slope = Fraction(c_beta(beta)), Fraction(beta * beta / 4.0)
    quartic = lambda t: t**4 / 4 - t**2 / 2
    if name == CUBIC:
        return quartic(s)
    if name == TRUNCATED_POS and s < 0:
        return slope * s * s / 2
    lower = -C if name == TRUNCATED_SYM else 0
    if lower <= s <= C:
        return quartic(s)
    return quartic(C) + slope * C * (abs(s) - C)


@pytest.mark.parametrize("name", NONLINEARITIES)
@settings(max_examples=60, deadline=None)
@given(beta=betas, seed=st.integers(0, 2**32 - 1))
def test_potential_delta_is_zero_for_a_zero_step(name, beta, seed):
    u = np.random.default_rng(seed).uniform(-3.0, 3.0, 257)
    u[:3] = 0.0, c_beta(beta), -c_beta(beta)
    assert np.all(potential_delta(name, beta, u, np.zeros_like(u)) == 0.0)


@pytest.mark.parametrize("name", NONLINEARITIES)
@settings(max_examples=60, deadline=None)
@given(beta=betas, u=st.floats(min_value=-3.0, max_value=3.0), du=steps)
def test_potential_delta_is_the_difference_to_round_off(name, beta, u, du):
    ua, dua = np.array([u]), np.array([du])
    delta = potential_delta(name, beta, ua, dua)[0]
    w_u, w_v = potential(name, beta, ua)[0], potential(name, beta, ua + dua)[0]
    assert abs(delta - (w_v - w_u)) <= 16 * EPS * (1.0 + abs(w_u) + abs(w_v))
    # inside one piece the expansion's error scales with the step, not with W
    exact = _exact_w(name, beta, Fraction(u) + Fraction(du)) - _exact_w(name, beta, Fraction(u))
    C = c_beta(beta)
    lower = -C if name == TRUNCATED_SYM else 0.0
    breaks = () if name == CUBIC else (lower, C)
    if all(abs(u - b) > 2 * abs(du) for b in breaks):
        scale = abs(du) * (1.0 + abs(u) + abs(du)) ** 3 * (1.0 + beta * beta * C)
        assert abs(delta - float(exact)) <= 16 * EPS * scale


@pytest.mark.parametrize("name", NONLINEARITIES)
@settings(max_examples=60, deadline=None)
@given(beta=betas, du=steps, at=st.sampled_from((0.0, 1.0, -1.0)))
def test_potential_delta_is_order_du_at_the_breakpoints(name, beta, du, at):
    C = c_beta(beta)
    u = np.array([at * C])
    delta = potential_delta(name, beta, u, np.array([du]))[0]
    lipschitz = float(np.max(np.abs(reaction(name, beta, np.linspace(-C - 1, C + 1, 4001)))))
    assert abs(delta) <= 2.0 * (lipschitz + 1.0) * abs(du)
