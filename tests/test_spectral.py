import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efk.domains import hyperrectangle, volume
from efk.potentials import NONLINEARITIES, potential, potential_delta
from efk.spectral import (LinearizedOperator, SpectralField, apply_linearized,
                          default_pads, derivative_values, energy, energy_value,
                          evaluate_at, from_values, gradient, grid_values,
                          laplacian, project_values, quad_symbol, with_modes,
                          THREE_U2_MINUS_1, U2_MINUS_1)

RNG = np.random.default_rng(42)


def random_field(domain, modes, scale=0.3, rng=RNG):
    return SpectralField(domain, rng.standard_normal(modes) * scale)


def test_parseval_and_roundtrip():
    dom = hyperrectangle(2.0, 5.0)
    f = random_field(dom, (12, 9))
    vals = f.values
    h = (2.0 / 13) * (5.0 / 10)
    assert h * np.sum(vals**2) == pytest.approx(np.sum(f.coeffs**2), rel=1e-12)
    back = from_values(dom, vals)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def test_navier_exactness_every_basis_member():
    dom = hyperrectangle(3.0, 7.0)
    worst = 0.0
    for k in (1, 4, 16):
        for l in (1, 7, 16):
            c = np.zeros((16, 16))
            c[k - 1, l - 1] = 1.0
            f = SpectralField(dom, c)
            lap = laplacian(f)
            edge_x = np.array([0.0, 3.0])
            ys = np.linspace(0.0, 7.0, 33)
            for g in (f, lap):
                worst = max(worst, float(np.max(np.abs(evaluate_at(g, [edge_x, ys])))))
                worst = max(worst, float(np.max(np.abs(
                    evaluate_at(g, [np.linspace(0, 3, 33), np.array([0.0, 7.0])])))))
    assert worst < 1e-12


def test_energy_zero_field():
    dom = hyperrectangle(2.0, 3.0)
    rep = energy(SpectralField(dom, np.zeros((8, 8))), beta=1.7)
    assert rep.j_beta == 0.0
    assert rep.j_beta_shifted == pytest.approx(volume(dom) / 4.0)
    assert rep.grad_norm == 0.0


def test_energy_single_mode_value():
    # J = (lam^2 + beta lam - 1) a^2/2 + 3 a^4 / (8 L) for u = a e1 on (0, L=pi)
    dom = hyperrectangle(math.pi)
    a = 0.1
    f = SpectralField(dom, np.array([a] + [0.0] * 15))
    expected = 0.5 * (1 + 2 - 1) * a * a + 3 * a**4 / (8 * math.pi)
    assert energy_value(f, 2.0) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.01001194, abs=5e-9)


def test_shifted_energy_offset_exact():
    dom = hyperrectangle(4.0, 2.5)
    f = random_field(dom, (10, 10))
    rep = energy(f, 2.2)
    assert rep.j_beta_shifted - rep.j_beta == pytest.approx(volume(dom) / 4.0, abs=1e-14)


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
def test_gradient_matches_finite_differences(nonlinearity):
    dom = hyperrectangle(2 * math.pi, 3.0)
    rng = np.random.default_rng(11)
    u = random_field(dom, (9, 7), rng=rng)
    v = rng.standard_normal((9, 7))
    v /= np.linalg.norm(v)
    eps = 1e-5
    jp = energy_value(SpectralField(dom, u.coeffs + eps * v), 2.0, nonlinearity)
    jm = energy_value(SpectralField(dom, u.coeffs - eps * v), 2.0, nonlinearity)
    g = gradient(u, 2.0, nonlinearity)
    assert abs((jp - jm) / (2 * eps) - np.sum(g.coeffs * v)) < 1e-6


def test_gradient_single_mode_closed_form():
    # g1 = (lam^2 + beta lam - 1) a + 3 a^3/(2L) from the quartic projection
    dom = hyperrectangle(math.pi)
    a = 0.1
    f = SpectralField(dom, np.array([a] + [0.0] * 11))
    g = gradient(f, 2.0)
    expected = (1 + 2 - 1) * a + 3 * a**3 / (2 * math.pi)
    assert g.coeffs[0] == pytest.approx(expected, abs=1e-14)


def test_potential_delta_identity():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(50)
    du = rng.standard_normal(50) * 0.1
    for nl in NONLINEARITIES:
        direct = potential(nl, 2.0, u + du) - potential(nl, 2.0, u)
        assert np.max(np.abs(potential_delta(nl, 2.0, u, du) - direct)) < 1e-12


def test_apply_linearized_diagonal_at_zero():
    dom = hyperrectangle(2 * math.pi)
    u0 = SpectralField(dom, np.zeros(16))
    for k in (1, 5, 16):
        v = np.zeros(16)
        v[k - 1] = 1.0
        out = apply_linearized(u0, 2.0, SpectralField(dom, v), THREE_U2_MINUS_1)
        lam = (k / 2.0) ** 2
        expected = lam * lam + 2.0 * lam - 1.0
        assert out.coeffs[k - 1] == pytest.approx(expected, rel=1e-12)
        out.coeffs[k - 1] = 0.0
        assert np.max(np.abs(out.coeffs)) < 1e-12


def test_apply_linearized_adjoint_symmetry():
    dom = hyperrectangle(3.0, 2.0)
    rng = np.random.default_rng(8)
    u = random_field(dom, (10, 8), rng=rng)
    v = random_field(dom, (10, 8), scale=1.0, rng=rng)
    w = random_field(dom, (10, 8), scale=1.0, rng=rng)
    for pot in (U2_MINUS_1, THREE_U2_MINUS_1):
        a_vw = np.sum(apply_linearized(u, 2.0, v, pot).coeffs * w.coeffs)
        a_wv = np.sum(apply_linearized(u, 2.0, w, pot).coeffs * v.coeffs)
        assert abs(a_vw - a_wv) <= 1e-10 * max(1.0, abs(a_vw))


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=3),
       data=st.data(),
       kind=st.sampled_from([U2_MINUS_1, THREE_U2_MINUS_1]),
       beta=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_linearized_dense_matches_matvec(lengths, data, kind, beta, seed):
    modes = tuple(data.draw(st.lists(st.integers(1, 6), min_size=len(lengths),
                                     max_size=len(lengths))))
    rng = np.random.default_rng(seed)
    u = SpectralField(hyperrectangle(*lengths), rng.standard_normal(modes))
    op = LinearizedOperator(u, beta, kind)
    J = op.dense()
    n = int(np.prod(modes))
    assert J.shape == (n, n)
    assert np.abs(J - J.T).max() <= 1e-14 * np.abs(J).max()
    v = rng.standard_normal(n)
    av = op.matvec(v)
    assert np.linalg.norm(J @ v - av) <= 1e-12 * np.linalg.norm(av)


def box_and_modes(data, max_modes=8):
    lengths = data.draw(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=3))
    modes = tuple(data.draw(st.lists(st.integers(1, max_modes), min_size=len(lengths),
                                     max_size=len(lengths))))
    return hyperrectangle(*lengths), modes


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_project_values_is_the_quadrature_adjoint(data, seed):
    # <grid_values(a), G>_h = <a, project_values(G)> on any grid at least as
    # fine as the modes, h the quadrature weight of that grid
    dom, modes = box_and_modes(data)
    pads = tuple(m + data.draw(st.integers(0, 8)) for m in modes)
    rng = np.random.default_rng(seed)
    a = SpectralField(dom, rng.standard_normal(modes))
    G = rng.standard_normal(pads)
    h = math.prod(L / (p + 1) for L, p in zip(dom.lengths, pads))
    lhs = h * np.sum(grid_values(a, pads) * G)
    rhs = np.sum(a.coeffs * project_values(dom, G, modes))
    scale = math.sqrt(h) * np.linalg.norm(G) * np.linalg.norm(a.coeffs)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_parseval_on_the_natural_grid(data, seed):
    dom, modes = box_and_modes(data)
    vals = np.random.default_rng(seed).standard_normal(modes)
    f = from_values(dom, vals)
    h = math.prod(L / (m + 1) for L, m in zip(dom.lengths, modes))
    assert np.sum(f.coeffs**2) == pytest.approx(h * np.sum(vals**2), rel=1e-12)
    assert np.abs(f.values - vals).max() <= 1e-12 * np.abs(vals).max()


def test_quadratic_form_positivity_matches_trivial_regime():
    # smallest diagonal of the linearization at zero is lam1^2 + beta lam1 - 1
    for L, beta, positive in ((2 * math.pi, 4.0, True), (2 * math.pi, 3.0, False)):
        dom = hyperrectangle(L)
        sym = quad_symbol(dom, (24,), 1.0, beta) - 1.0
        assert (float(sym.min()) >= 0.0) == positive


def test_refine_restrict_identity():
    dom = hyperrectangle(1.0, 2.0)
    f = random_field(dom, (6, 5))
    up = with_modes(f, (12, 11))
    back = with_modes(up, (6, 5))
    assert np.array_equal(back.coeffs, f.coeffs)
    assert np.sum(up.coeffs**2) == pytest.approx(np.sum(f.coeffs**2), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_refine_then_restrict_is_the_identity(data, seed):
    # zero-padding appends zero coefficients: restricting back is exact, and
    # the padded field takes the same values anywhere in the box
    dom, modes = box_and_modes(data)
    up_modes = tuple(m + data.draw(st.integers(0, 8)) for m in modes)
    rng = np.random.default_rng(seed)
    f = SpectralField(dom, rng.standard_normal(modes))
    up = with_modes(f, up_modes)
    assert np.array_equal(with_modes(up, modes).coeffs, f.coeffs)
    pts = [np.r_[0.0, rng.uniform(0.0, L, 6), L] for L in dom.lengths]
    bound = np.abs(f.coeffs).sum() * math.prod(math.sqrt(2.0 / L) for L in dom.lengths)
    assert np.abs(evaluate_at(up, pts) - evaluate_at(f, pts)).max() <= 1e-14 * bound


def test_energy_invariant_under_refinement():
    dom = hyperrectangle(2 * math.pi)
    f = SpectralField(dom, np.concatenate([RNG.standard_normal(8) * 0.2, np.zeros(8)]))
    e1 = energy_value(f, 2.0)
    e2 = energy_value(with_modes(f, (64,)), 2.0)
    assert abs(e1 - e2) < 1e-10


def test_derivative_values_against_finite_differences():
    dom = hyperrectangle(2.0, 3.0)
    f = random_field(dom, (10, 9), scale=0.5)
    pads = default_pads(f.modes)
    dvals = derivative_values(f, axis=0, pads=pads)
    xs = np.arange(1, pads[0] + 1) * (2.0 / (pads[0] + 1))
    ys = np.arange(1, pads[1] + 1) * (3.0 / (pads[1] + 1))
    eps = 1e-6
    up = evaluate_at(f, [xs + eps, ys])
    dn = evaluate_at(f, [xs - eps, ys])
    assert np.max(np.abs((up - dn) / (2 * eps) - dvals)) < 1e-6


def test_bound_flags():
    dom = hyperrectangle(math.pi)
    rep = energy(SpectralField(dom, np.array([0.3] + [0.0] * 7)), beta=3.0)
    assert rep.bound_flags["le_one"] and rep.bound_flags["nonneg"]
    rep2 = energy(SpectralField(dom, np.array([2.5] + [0.0] * 7)), beta=3.0)
    assert not rep2.bound_flags["le_one"]
    assert rep2.bound_flags["nonneg"]  # a positive first mode stays nonnegative
    rep3 = energy(SpectralField(dom, np.array([-0.5] + [0.0] * 7)), beta=3.0)
    assert not rep3.bound_flags["nonneg"]


def test_non_finite_rejected():
    dom = hyperrectangle(1.0)
    bad = SpectralField(dom, np.array([np.nan] + [0.0] * 7))
    with pytest.raises(ValueError):
        energy_value(bad, 1.0)
    with pytest.raises(ValueError):
        gradient(bad, 1.0)


def test_mode_mismatch_rejected():
    dom = hyperrectangle(1.0)
    u = SpectralField(dom, np.zeros(8))
    v = SpectralField(dom, np.zeros(12))
    with pytest.raises(ValueError):
        apply_linearized(u, 1.0, v)
