"""Acceptance suite: every quantitative criterion at its stated tolerance and
runtime budget, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; suites are computed once per session at full (non-quick) scale.
"""

import math

import numpy as np

from efk.harness import SuiteConfig, run_suite

FULL = SuiteConfig(quick=False)

_cards = {}


def card(suite):
    if suite not in _cards:
        _cards[suite] = run_suite(suite, FULL)
    return _cards[suite]


def entries_by_claim(suite, claim):
    out = [e for e in card(suite).entries if e.claim == claim]
    assert out, f"no entries for claim {claim}"
    return out


def report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:02d} ({label}): {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_trivial_regime_uniqueness():
    e = entries_by_claim("uniqueness", "trivial_regime_uniqueness")[0]
    ok = e.passed and e.value < 1e-6 and e.runtime_s < 5.0
    report(1, "trivial regime", ok,
           f"sup {e.value:.2e} < 1e-6 in {e.runtime_s:.2f}s (< 5 s)")


def test_criterion_02_bound_suite():
    es = entries_by_claim("bounds", "positive_minimizer_bounds")
    ok = all(e.passed for e in es) and all(e.runtime_s < 120.0 for e in es)
    detail = "; ".join(f"{e.name}: max={e.value:.6f} in {e.runtime_s:.1f}s" for e in es)
    report(2, "sup-norm bounds", ok, detail)


def test_criterion_03_bifurcation_point():
    e_pt = entries_by_claim("bifurcation", "bifurcation_point_formula")[0]
    e_sl = entries_by_claim("bifurcation", "subcritical_amplitude_law")[0]
    ok = (e_pt.passed and abs(e_pt.value - 3.75) < 1e-3
          and e_sl.passed and abs(e_sl.value - 0.5) <= 0.05
          and e_pt.runtime_s + e_sl.runtime_s < 60.0)
    report(3, "bifurcation point + amplitude law", ok,
           f"endpoint {e_pt.value:.6f}, slope {e_sl.value:.4f}, "
           f"{e_pt.runtime_s + e_sl.runtime_s:.1f}s (< 60 s)")


def test_criterion_04_ball_bifurcation_radius():
    e = entries_by_claim("bifurcation", "ball_bifurcation_radii")[0]
    report(4, "ball bifurcation radius", e.passed, e.detail)


def test_criterion_05_stability_identities():
    e_mu = entries_by_claim("stability", "first_stability_eigenvalue_zero")[0]
    e_nu = entries_by_claim("stability", "strict_stability_second_potential")[0]
    e_pos = entries_by_claim("stability", "principal_eigenvector_positive")[0]
    ok = (e_mu.passed and abs(e_mu.value) < 5e-4 and e_nu.passed
          and e_nu.value > 0 and e_pos.passed)
    report(5, "stability identities", ok,
           f"mu1 {e_mu.value:.2e} (|.|<5e-4), nu1 {e_nu.value:.4f} > 0, "
           f"positive eigenvector: {e_pos.passed}")


def test_criterion_06_uniqueness_segment():
    e = entries_by_claim("uniqueness", "uniqueness_segment_multistart")[0]
    ok = e.passed and e.value < 1e-5 and e.runtime_s < 120.0
    report(6, "uniqueness segment", ok,
           f"worst L2 mismatch {e.value:.2e} < 1e-5 in {e.runtime_s:.1f}s (< 120 s)")


def test_criterion_07_symmetry_monotonicity():
    e_ref = entries_by_claim("symmetry", "reflection_symmetry")[0]
    e_mon = entries_by_claim("symmetry", "interior_monotonicity")[0]
    ok = e_ref.passed and e_mon.passed and e_mon.value < 1e-7
    report(7, "symmetry + monotonicity", ok,
           f"reflection defect {e_ref.value:.2e}; max interior d_x u {e_mon.value:.2e} < 1e-7")


def test_criterion_08_radiality():
    e = entries_by_claim("radial", "disk_minimizer_radial")[0]
    report(8, "disk radiality", e.passed and e.value < 1e-3, e.detail)


def test_criterion_09_flipping_oracle():
    e_flip = entries_by_claim("flipping", "flip_decreases_energy")[0]
    e_prof = entries_by_claim("flipping", "radial_derivative_sign_changes")[0]
    ok = (e_flip.passed and e_prof.passed
          and e_flip.runtime_s + e_prof.runtime_s < 60.0)
    report(9, "flipping oracle", ok,
           f"{e_flip.detail}; {e_prof.detail}; "
           f"{e_flip.runtime_s + e_prof.runtime_s:.1f}s (< 60 s)")


def test_criterion_10_oscillation_past_one():
    e_osc = entries_by_claim("bounds", "oscillation_past_one_small_beta")[0]
    e_pla = entries_by_claim("bounds", "plateau_large_beta")[0]
    ok = (e_osc.passed and e_osc.value > 1.0 and e_pla.passed
          and e_pla.value >= 0.99 and e_osc.runtime_s + e_pla.runtime_s < 600.0)
    report(10, "oscillation past one", ok,
           f"beta=0.1 max {e_osc.value:.4f} > 1; beta=4 plateau {e_pla.value:.6f} "
           f">= 0.99; {e_osc.runtime_s + e_pla.runtime_s:.0f}s (< 600 s)")


def test_criterion_11_saddle():
    es = {e.claim: e for e in card("saddle").entries}
    sign = es["saddle_sign_property"]
    low = es["saddle_amplitude_lower_bound"]
    smooth = es["odd_extension_smoothness"]
    total = sum(e.runtime_s for e in es.values())
    ok = (sign.passed and sign.value >= -1e-7 and low.passed
          and low.value >= 1 / math.sqrt(2) and smooth.passed and total < 600.0)
    report(11, "saddle", ok,
           f"sign min {sign.value:.2e} >= -1e-7; window sup {low.value:.4f} >= "
           f"{1 / math.sqrt(2):.4f}; smoothness pass; {total:.0f}s (< 600 s)")


def test_criterion_12_gamma_sweep():
    e_sw = entries_by_claim("gamma", "gamma_limit_continuity")[0]
    e_rs = entries_by_claim("gamma", "gamma_rescaling_identity")[0]
    total = e_sw.runtime_s + e_rs.runtime_s
    ok = (e_sw.passed and e_sw.value < 0.05 and e_rs.passed
          and e_rs.value < 1e-6 and total < 120.0)
    report(12, "gamma sweep", ok,
           f"final increment {e_sw.value:.2e} < 0.05; rescale residual "
           f"{e_rs.value:.2e} < 1e-6; {total:.1f}s (< 120 s)")


def test_criterion_13_numerics_hygiene():
    from efk.domains import ball, hyperrectangle, lambda1_value
    from efk.radial import (RadialField, RadialProblem, radial_energy_value,
                            radial_gradient, radial_lambda1)
    from efk.spectral import SpectralField, apply_linearized, energy_value, gradient

    rng = np.random.default_rng(100)
    # finite-difference gradient checks at 1e-6 on both discretizations
    dom2 = hyperrectangle(5.0, 3.0)
    u = SpectralField(dom2, rng.standard_normal((12, 10)) * 0.3)
    v = rng.standard_normal((12, 10))
    v /= np.linalg.norm(v)
    eps = 1e-5
    fd = (energy_value(SpectralField(dom2, u.coeffs + eps * v), 2.0)
          - energy_value(SpectralField(dom2, u.coeffs - eps * v), 2.0)) / (2 * eps)
    grad_gap_spec = abs(fd - np.sum(gradient(u, 2.0).coeffs * v))

    dom_r = ball(4.0, dim=2)
    n = 128
    r = np.linspace(0, 4, n + 1)
    vals = 0.4 * np.cos(r) + 0.1 * np.cos(3 * r)
    vals[-1] = 0.0
    f = RadialField(dom_r, vals)
    w = rng.standard_normal(n + 1)
    w[~RadialProblem(dom_r, n, 2.0).free] = 0.0
    w /= np.linalg.norm(w)
    fd_r = (radial_energy_value(RadialField(dom_r, vals + eps * w), 2.0)
            - radial_energy_value(RadialField(dom_r, vals - eps * w), 2.0)) / (2 * eps)
    an_r = float(np.sum(radial_gradient(f, 2.0).values * w))
    # the radial contract is relative agreement (stiff stencils make the
    # directional derivative large against rough directions)
    grad_gap_rad = abs(fd_r - an_r) / max(1.0, abs(an_r))

    # Parseval and adjoint symmetry at 1e-10
    c = rng.standard_normal((14, 11))
    g = SpectralField(dom2, c)
    h = (5.0 / 15) * (3.0 / 12)
    parseval_gap = abs(h * np.sum(g.values**2) - np.sum(c**2)) / np.sum(c**2)
    a = SpectralField(dom2, rng.standard_normal((14, 11)))
    b = SpectralField(dom2, rng.standard_normal((14, 11)))
    base = SpectralField(dom2, rng.standard_normal((14, 11)) * 0.2)
    adj_gap = abs(np.sum(apply_linearized(base, 2.0, a).coeffs * b.coeffs)
                  - np.sum(apply_linearized(base, 2.0, b).coeffs * a.coeffs))

    # radial scheme order
    exact = lambda1_value(dom_r)
    errs = [abs(radial_lambda1(dom_r, nn)[0] - exact) for nn in (64, 128, 256)]
    slope = -np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]

    ok = (grad_gap_spec < 1e-6 and grad_gap_rad < 1e-6
          and parseval_gap < 1e-10 and adj_gap < 1e-10
          and abs(slope - 2.0) <= 0.2)
    report(13, "numerics hygiene", ok,
           f"FD gaps {grad_gap_spec:.1e}/{grad_gap_rad:.1e} < 1e-6; Parseval "
           f"{parseval_gap:.1e}, adjoint {adj_gap:.1e} < 1e-10; radial order "
           f"{slope:.2f} = 2 +- 0.2")
