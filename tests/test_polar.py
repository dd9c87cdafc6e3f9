import math

import numpy as np
import pytest
from scipy.linalg import eigh

from efk import minimize as minimize_module
from efk.domains import annulus, ball
from efk.polar import (PolarField, PolarProblem, _dr, _lap, _mode_form, _polar_geometry,
                       minimize_disk, modewise_stability)
from efk.potentials import CUBIC, TRUNCATED_POS, potential


def smooth_polar_values(n_r, n_theta, R, seed):
    """Low-order radial sines times low angular harmonics, random weights."""
    rng = np.random.default_rng(seed)
    r = (np.arange(n_r) + 0.5) * R / n_r
    theta = np.arange(n_theta) * 2 * math.pi / n_theta
    vals = np.zeros((n_r, n_theta))
    for k in range(1, 4):
        for m in range(3):
            a, b = 0.3 * rng.standard_normal(2)
            vals += np.outer(np.sin(k * math.pi * r / R),
                             a * np.cos(m * theta) + b * np.sin(m * theta))
    return vals.ravel()


def loop_mode_matrices(R, n_r, m):
    """Reference: the per-mode radial Laplacian and difference, cell by cell."""
    h = R / n_r
    r = (np.arange(n_r) + 0.5) * h
    r_faces = np.arange(n_r + 1) * h
    L = np.zeros((n_r, n_r))
    D = np.zeros((n_r, n_r))
    for i in range(n_r):
        a_in = r_faces[i] / (r[i] * h * h)
        a_out = r_faces[i + 1] / (r[i] * h * h)
        if i == 0:
            L[0, 0] += -a_out
            L[0, 1] += a_out
            D[0, 0] += -((-1.0) ** m) / (2 * h)
            D[0, 1] += 1.0 / (2 * h)
        elif i == n_r - 1:
            L[i, i] += -(a_in + 2.0 * a_out)
            L[i, i - 1] += a_in
            D[i, i - 1] += -1.0 / (2 * h)
            D[i, i] += -1.0 / (2 * h)
        else:
            L[i, i] += -(a_in + a_out)
            L[i, i - 1] += a_in
            L[i, i + 1] += a_out
            D[i, i - 1] += -1.0 / (2 * h)
            D[i, i + 1] += 1.0 / (2 * h)
        L[i, i] += -(m * m) / (r[i] * r[i])
    return L, D


def loop_mode_form(g, R, m, beta, m2, shift):
    """Reference: the dense quadratic form of mode m from the loop matrices,
    with the cell measures w_r of the geometry g."""
    L, D = loop_mode_matrices(R, g.r.size, m)
    w = g.w_r
    return (L.T @ (w[:, None] * L) + beta * (D.T @ (w[:, None] * D))
            + np.diag(w * (beta * m2 / g.r**2 + shift)))


@pytest.mark.parametrize("n_theta", [8, 7])
def test_stencils_match_the_per_mode_loop(n_theta):
    R, n_r, beta = 4.0, 9, 2.5
    g = _polar_geometry(R, n_r, n_theta)
    u = np.random.default_rng(n_theta).standard_normal((n_r, n_theta))
    u_hat = np.fft.rfft(u, axis=1)
    mats = [loop_mode_matrices(R, n_r, m) for m in g.m_vals]
    for m in g.m_vals:
        form = loop_mode_form(g, R, m, beta, float(m * m), 0.5)
        got = _mode_form(g, m, beta, float(m * m), 0.5).toarray()
        assert np.abs(got - form).max() <= 1e-15 * np.abs(form).max()
    for k, op in enumerate((_lap, _dr)):
        for adjoint in (False, True):
            ref = np.stack([(M[k].T if adjoint else M[k]) @ u_hat[:, m]
                            for m, M in enumerate(mats)], axis=1)
            expected = np.fft.irfft(ref, n=n_theta, axis=1)
            got = op(g, u, adjoint=adjoint)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n_theta", [8, 7])
def test_h0_inverts_each_shifted_mode_form(n_theta):
    # the preconditioner is the quadratic part plus the mass shift 1.25, mode
    # by mode; the Nyquist mode carries no angular derivative
    R, n_r, beta = 4.0, 12, 3.0
    p = PolarProblem(ball(R, dim=2), n_r, n_theta, beta)
    u = smooth_polar_values(n_r, n_theta, R, seed=5).reshape(n_r, n_theta)
    u += 0.1 * np.random.default_rng(6).standard_normal(u.shape)
    u_hat = np.fft.rfft(u, axis=1)
    q_hat = np.stack([loop_mode_form(p.g, R, m, beta, abs(mult) ** 2, 1.25) @ u_hat[:, m]
                      for m, mult in zip(p.g.m_vals, p.g.dtheta)], axis=1)
    q = np.fft.irfft(q_hat, n=n_theta, axis=1).ravel()
    assert np.abs(p.h0(q) - u.ravel()).max() <= 1e-12 * np.abs(u).max()


def test_modewise_stability_matches_the_dense_pencil():
    R, n_r, n_theta, beta = 10.0, 40, 16, 4.0
    g = _polar_geometry(R, n_r, n_theta)
    profile = 0.9 * np.cos(0.5 * math.pi * g.r / R)
    field = PolarField(ball(R, dim=2), np.outer(profile, np.ones(n_theta)))
    stab = modewise_stability(field, beta)
    assert sorted(stab) == list(g.m_vals)
    for m, lam in stab.items():
        form = loop_mode_form(g, R, m, beta, float(m * m), 3.0 * profile**2 - 1.0)
        ref = eigh(form, np.diag(g.w_r), subset_by_index=[0, 0], eigvals_only=True)[0]
        assert lam == pytest.approx(ref, rel=1e-7)


def test_stencils_exact_on_low_degree_polynomials():
    # second-order stencils are exact on polynomials of degree <= 2 in x, y
    # away from the Dirichlet ghost at r = R; row 0 of the radial difference
    # reads its ghost across the origin, so x and y need the (-1)^m sign
    n_r, n_theta = 10, 8
    g = _polar_geometry(3.0, n_r, n_theta)
    theta = np.arange(n_theta) * 2 * math.pi / n_theta
    x, y = np.outer(g.r, np.cos(theta)), np.outer(g.r, np.sin(theta))
    inner = slice(0, n_r - 1)
    u_r = _dr(g, 1.5 + x - 2 * y)
    assert np.abs(u_r - (np.cos(theta) - 2 * np.sin(theta)))[inner].max() < 1e-12
    lap = _lap(g, 2 * x * x - y * y + 3 * x * y + x)
    assert np.abs(lap - 2.0)[inner].max() < 1e-10


@pytest.mark.parametrize("nonlinearity", [CUBIC, TRUNCATED_POS])
@pytest.mark.parametrize("n_theta", [8, 7])
def test_grad_matches_finite_differences(nonlinearity, n_theta):
    p = PolarProblem(ball(5.0, dim=2), 12, n_theta, 3.0, nonlinearity)
    x = smooth_polar_values(12, n_theta, 5.0, seed=1)
    g = p.grad(x)
    rng = np.random.default_rng(2)
    for _ in range(3):
        d = rng.standard_normal(p.n_dofs)
        eps = 1e-5
        fd = (p.fun(x + eps * d) - p.fun(x - eps * d)) / (2 * eps)
        assert fd == pytest.approx(float(g @ d), rel=1e-6)


def test_make_line_is_the_energy_difference():
    p = PolarProblem(ball(5.0, dim=2), 12, 8, 3.0)
    x = smooth_polar_values(12, 8, 5.0, seed=3)
    d = np.random.default_rng(4).standard_normal(p.n_dofs)
    line = p.make_line(x, d)
    for alpha in (1e-3, 0.1, 1.0):
        exact = p.fun(x + alpha * d) - p.fun(x)
        assert line(alpha) == pytest.approx(exact, rel=1e-12, abs=1e-12 * abs(p.fun(x)))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_single_mode_energy_is_the_mode_form(m):
    # u = f(r) cos(m theta) on 8 angles: m = 4 is the Nyquist mode, and the
    # ghost across the origin flips sign with the parity of m
    n_r, n_theta, beta = 10, 8, 2.5
    p = PolarProblem(ball(4.0, dim=2), n_r, n_theta, beta)
    f = np.random.default_rng(m).standard_normal(n_r)
    theta = np.arange(n_theta) * 2 * math.pi / n_theta
    x = np.outer(f, np.cos(m * theta)).ravel()
    quad = p.fun(x) - float(np.sum(p.mass * potential(CUBIC, beta, x)))
    edge = m in (0, n_theta // 2)
    form = _mode_form(p.g, m, beta, 0.0 if edge else float(m * m), 0.0)
    expected = 0.5 * (f @ form @ f) * (n_theta if edge else n_theta / 2)
    assert quad == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("domain, named", [(annulus(2.0, 6.0), "annulus in 2D"),
                                           (ball(5.0, dim=3), "ball in 3D")])
def test_non_disk_refused_before_descent(monkeypatch, domain, named):
    def descent(*args, **kwargs):
        raise AssertionError("the descent ran")
    monkeypatch.setattr(minimize_module, "_run_single", descent)
    with pytest.raises(ValueError, match=named):
        minimize_disk(domain, 4.0, n_r=24, n_theta=8)
