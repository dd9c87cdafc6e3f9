import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from efk.domains import annulus, ball, hyperrectangle, lambda1_value
from efk.minimize import MinimizeConfig, minimize_truncated_positive
from efk.radial import (RadialField, RadialProblem, _geometry, cooperative_residual,
                        flip_transform, monotonicity_profile, radial_energy,
                        radial_energy_value, radial_gradient, radial_lambda1,
                        radial_mass, residual_norm, w_companion)


def smooth_profile(domain, n, fn):
    r0 = domain.inner_radius or 0.0
    r = np.linspace(r0, domain.radius, n + 1)
    vals = fn(r)
    vals[-1] = 0.0
    if domain.kind == "annulus":
        vals[0] = 0.0
    return RadialField(domain, vals)


def loop_stencils(domain, n):
    """Reference: the Laplacian and first difference assembled row by row."""
    N = domain.dim
    r0 = domain.inner_radius if domain.kind == "annulus" else 0.0
    r = np.linspace(r0, domain.radius, n + 1)
    h = (domain.radius - r0) / n
    rows = {"lap": [], "d1": []}
    one_sided_d2 = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    one_sided_d1 = np.array([3.0, -4.0, 1.0]) / (2 * h)
    if domain.kind == "ball":
        rows["lap"].append((0, [0, 1], np.array([-2.0, 2.0]) * N / h**2))
    else:
        row = one_sided_d2.copy()
        row[:3] += (N - 1) / r[0] * (-one_sided_d1)
        rows["lap"].append((0, [0, 1, 2, 3], row))
        rows["d1"].append((0, [0, 1, 2], -one_sided_d1))
    for i in range(1, n):
        cr = (N - 1) / (2 * h * r[i])
        rows["lap"].append((i, [i - 1, i, i + 1],
                            np.array([1.0 / h**2 - cr, -2.0 / h**2, 1.0 / h**2 + cr])))
        rows["d1"].append((i, [i - 1, i + 1], np.array([-0.5, 0.5]) / h))
    row = one_sided_d2.copy()
    row[:3] += (N - 1) / r[n] * one_sided_d1
    rows["lap"].append((n, [n, n - 1, n - 2, n - 3], row))
    rows["d1"].append((n, [n, n - 1, n - 2], one_sided_d1))
    out = {}
    for name, entries in rows.items():
        ii = [i for i, cols, _ in entries for _ in cols]
        jj = [j for _, cols, _ in entries for j in cols]
        vv = [v for _, _, vals in entries for v in vals]
        out[name] = sp.csr_matrix((vv, (ii, jj)), shape=(n + 1, n + 1))
    return out["lap"], out["d1"]


def loop_lambda1(domain, n):
    """Reference: the flux-form pencil filled node by node."""
    g = _geometry(domain, n)
    a = (0.5 * (g.r[:-1] + g.r[1:])) ** (domain.dim - 1) / g.h
    free = np.flatnonzero(g.free)
    diag = np.array([(a[i - 1] if i > 0 else 0.0) + (a[i] if i < n else 0.0)
                     for i in free])
    off = np.array([-a[i] for i in free[:-1]])
    m = g.mass[free] / g.sigma
    vals, vecs = eigh_tridiagonal(diag / m, off / np.sqrt(m[:-1] * m[1:]),
                                  select="i", select_range=(0, 0))
    phi = np.zeros(n + 1)
    phi[free] = vecs[:, 0] / np.sqrt(m)
    phi /= math.sqrt(float(np.sum(g.mass * phi**2)))
    return float(vals[0]), phi if np.sum(g.mass * phi) >= 0 else -phi


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "annulus"])
def test_stencils_match_the_row_loop(kind, dim):
    domain = ball(3.0, dim=dim) if kind == "ball" else annulus(1.0, 4.0, dim=dim)
    for n in (8, 37, 256):
        g = _geometry(domain, n)
        lap, d1 = loop_stencils(domain, n)
        W = sp.diags(g.w)
        for got, want in ((g.lap, lap), (g.d1, d1), (g.k2, lap.T @ W @ lap),
                          (g.k1, d1.T @ W @ d1)):
            assert np.array_equal(got.toarray(), want.toarray())
        lam, phi = radial_lambda1(domain, n)
        lam_ref, phi_ref = loop_lambda1(domain, n)
        assert lam == lam_ref
        assert np.array_equal(phi.values, phi_ref)


def test_zero_energy():
    rep = radial_energy(RadialField(ball(3.0, dim=2), np.zeros(65)), beta=2.0)
    assert rep.j_beta == 0.0
    assert rep.grad_norm == 0.0


@pytest.mark.parametrize("domain", [ball(3.0, dim=2), ball(2.0, dim=3),
                                    annulus(1.0, 4.0, dim=2)])
@pytest.mark.parametrize("nonlinearity", ["cubic", "truncated_sym", "truncated_pos"])
def test_gradient_finite_differences(domain, nonlinearity):
    rng = np.random.default_rng(1)
    n = 96
    f = smooth_profile(domain, n, lambda r: 0.4 * np.cos(r) + 0.2 * np.sin(2 * r))
    free = RadialProblem(domain, n, 2.0).free
    v = rng.standard_normal(n + 1)
    v[~free] = 0.0
    v /= np.linalg.norm(v)
    eps = 1e-5
    jp = radial_energy_value(RadialField(domain, f.values + eps * v), 2.0, nonlinearity)
    jm = radial_energy_value(RadialField(domain, f.values - eps * v), 2.0, nonlinearity)
    g = radial_gradient(f, 2.0, nonlinearity)
    fd = (jp - jm) / (2 * eps)
    an = float(np.sum(g.values * v))
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_energy_of_scaled_eigenfunction():
    dom = ball(3.0, dim=2)
    lam, phi = radial_lambda1(dom, 512)
    exact = lambda1_value(dom)
    assert lam == pytest.approx(exact, rel=1e-4)
    a = 0.05
    f = RadialField(dom, a * phi.values)
    mass = radial_mass(dom, 512)
    j = radial_energy_value(f, 2.0)
    quad = 0.5 * (lam**2 + 2.0 * lam) * a * a
    quartic = 0.25 * float(np.sum(mass * f.values**4))
    expected = quad - 0.5 * a * a + quartic
    assert j == pytest.approx(expected, abs=3e-4 * max(1, abs(expected)))


def test_energy_richardson_order_two():
    dom = ball(2.0, dim=2)
    # analytic profile vanishing at R, even at the origin (u'(0) = 0)
    base = lambda r: (1.0 - (r / 2.0) ** 2) * (0.5 + 0.3 * np.cos(2 * r))
    js = []
    ns = (128, 256, 512)
    for n in ns:
        js.append(radial_energy_value(smooth_profile(dom, n, base), 1.5))
    # Richardson: fit |J_n - J_rich| ~ n^-p
    j_rich = js[-1] + (js[-1] - js[-2]) / 3.0
    errs = [abs(j - j_rich) for j in js[:2]]
    slope = (math.log(errs[0]) - math.log(errs[1])) / math.log(2.0)
    assert slope == pytest.approx(2.0, abs=0.2)


def test_gradient_vanishes_at_converged_minimizer():
    dom = annulus(5.0, 15.0, dim=2)
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, n_points=256), dom)
    assert res.converged
    scale = res.field.l2_norm()
    assert residual_norm(res.field, 4.0, "truncated_pos") < 1e-7 * max(1.0, scale)


def test_flip_max_equal_one_plateaus():
    dom = ball(3.0, dim=2)
    n = 128
    r = np.linspace(0, 3, n + 1)
    vals = np.minimum(1.0, 1.5 * np.sin(math.pi * r / 3.0))
    i = int(np.argmax(vals))
    vals[i] = 1.0  # make the discrete max exactly one
    res = flip_transform(RadialField(dom, vals))
    assert res.applied
    j = int(np.argmax(res.field.values == 1.0))
    assert np.allclose(res.field.values[: i + 1], 1.0)


def test_flip_no_interior_extremum_flagged():
    dom = ball(3.0, dim=2)
    n = 128
    r = np.linspace(0, 3, n + 1)
    vals = np.cos(math.pi * r / 6.0) * 0.7  # positive, monotone decreasing
    res = flip_transform(RadialField(dom, vals))
    assert not res.applied
    assert res.note == "no flip applied"
    assert np.array_equal(res.field.values, vals)


def test_flip_decreases_energy_randomized():
    rng = np.random.default_rng(9)
    checked = 0
    for domain in (ball(8.0, dim=2), annulus(5.0, 15.0, dim=2)):
        r0 = domain.inner_radius or 0.0
        span = domain.radius - r0
        for _ in range(40):
            n = 256
            r = np.linspace(r0, domain.radius, n + 1)
            vals = sum(rng.standard_normal() * np.sin(j * math.pi * (r - r0) / span)
                       for j in range(1, 7))
            vals[-1] = 0.0
            if domain.kind == "annulus":
                vals[0] = 0.0
            vals *= rng.uniform(0.5, 0.98) / np.max(np.abs(vals))
            f = RadialField(domain, vals)
            if vals.max() <= 1e-3 or vals.min() >= -1e-3:
                continue
            res = flip_transform(f)
            if not res.applied:
                continue
            checked += 1
            assert res.field.sup_norm() <= 1.0 + 1e-12
            for beta in (1.0, 3.0):
                assert (radial_energy_value(res.field, beta)
                        < radial_energy_value(f, beta))
    assert checked >= 50


def test_flip_annulus_both_orderings():
    dom = annulus(1.0, 4.0, dim=2)
    r = np.linspace(1, 4, 257)
    base = np.sin(2 * math.pi * (r - 1) / 3.0) * 0.8
    base[0] = base[-1] = 0.0
    for u in (base, -base):
        f = RadialField(dom, u.copy())
        res = flip_transform(f)
        assert res.applied
        assert radial_energy_value(res.field, 2.0) < radial_energy_value(f, 2.0)


def test_monotonicity_profile_examples():
    dom = ball(3.0, dim=2)
    _, phi = radial_lambda1(dom, 256)
    assert monotonicity_profile(phi) == (0, True)
    r = np.linspace(0, 3, 257)
    two_bump = np.sin(math.pi * r) * 0.5  # three interior extrema on [0, 3]
    changes, definite = monotonicity_profile(RadialField(dom, two_bump))
    assert changes == 3 and not definite


def test_annulus_minimizer_profile():
    dom = annulus(5.0, 15.0, dim=2)
    res = minimize_truncated_positive(MinimizeConfig(beta=4.0, n_points=256), dom)
    changes, definite = monotonicity_profile(res.field)
    assert changes == 1 and definite


def test_cooperative_system_residual_second_order():
    dom = ball(10.0, dim=2)
    res_c = minimize_truncated_positive(MinimizeConfig(beta=3.0, n_points=256), dom)
    res_f = minimize_truncated_positive(MinimizeConfig(beta=3.0, n_points=512), dom)
    r_c = cooperative_residual(res_c.field, 3.0)
    r_f = cooperative_residual(res_f.field, 3.0)
    order = math.log(r_c / r_f) / math.log(2.0)
    assert order == pytest.approx(2.0, abs=0.6)


def test_companion_field_vanishes_at_navier_boundary():
    dom = ball(10.0, dim=2)
    res = minimize_truncated_positive(MinimizeConfig(beta=3.0, n_points=512), dom)
    w = w_companion(res.field, 3.0)
    # natural boundary condition: lap u -> 0 at r = R, so w(R) -> 0 at O(h^2)
    assert abs(w[-1]) < 50.0 * (10.0 / 512) ** 2
    assert w[:-8].min() > -1e-7  # strictly positive away from the Navier end
    from efk.minimize import w_field_check

    assert w_field_check(res.field, 3.0)


def test_cross_discretization_energy_match():
    # a compactly supported radial bump has the same energy in the radial
    # quadrature (with the sphere-area factor) and on a 2D rectangle
    from efk.spectral import from_values

    L = 8.0
    dom2 = hyperrectangle(L, L)
    m = 128
    xs = np.arange(1, m + 1) * (L / (m + 1))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    r2 = (X - 4.0) ** 2 + (Y - 4.0) ** 2
    bump_2d = np.where(r2 < 4.0, np.exp(-4.0 / np.maximum(4.0 - r2, 1e-12)), 0.0)
    rect = from_values(dom2, bump_2d)
    from efk.spectral import energy_value

    e_rect = energy_value(rect, 2.0, pad_factor=2.0)

    dom_r = ball(4.0, dim=2)
    n = 4096
    r = np.linspace(0, 4.0, n + 1)
    vals = np.where(r**2 < 4.0, np.exp(-4.0 / np.maximum(4.0 - r**2, 1e-12)), 0.0)
    e_rad = radial_energy_value(RadialField(dom_r, vals), 2.0)
    assert e_rect == pytest.approx(e_rad, rel=1e-3)
