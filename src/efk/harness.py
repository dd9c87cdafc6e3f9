"""Verification campaigns: each suite runs a fixed set of quantitative checks
(fixed seeds and grids) and emits a machine-readable scorecard.

Scorecards are deterministic for a fixed configuration up to the volatile
fields (timestamp, runtimes), which the canonical form strips.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import spectral as sp
from .constants import K0, SQRT8, c_beta, m_beta, g_interval_max, g_interval_min, scalar_h
from .continuation import (ContinuationConfig, amplitude_law_slope,
                           bifurcation_point, continue_branch,
                           extrapolate_endpoint, seed_branch,
                           verify_uniqueness_segment)
from .domains import annulus, ball, critical_radius, hyperrectangle
from .eigen import eigvec_positivity, smallest_eigenpair, stability_report
from .minimize import (MinimizeConfig, gamma_rescaling_residual, gamma_sweep,
                       minimize, minimize_truncated_positive, w_field_check)
from .polar import minimize_disk, modewise_stability, polar_angular_defect
from .radial import (RadialField, flip_transform, monotonicity_profile,
                     radial_energy_value, radial_lambda1)
from .saddle import (build_saddle, diagonal_asymmetry, reflection_smoothness,
                     saddle_growth_check, saddle_sign_minimum, window_sup)
from .spectral import U2_MINUS_1, default_pads, grid_values

SUITES = ("bounds", "uniqueness", "stability", "symmetry", "radial",
          "flipping", "saddle", "bifurcation", "gamma")

#: every quantitative claim verified by the harness, each in exactly one suite
CLAIM_REGISTRY = {
    "bounds": [
        "positive_minimizer_bounds",
        "bound_constants_relations",
        "comparison_function_ledger",
        "companion_field_sign",
        "oscillation_past_one_small_beta",
        "plateau_large_beta",
    ],
    "uniqueness": [
        "trivial_regime_uniqueness",
        "uniqueness_segment_multistart",
    ],
    "stability": [
        "first_stability_eigenvalue_zero",
        "strict_stability_second_potential",
        "principal_eigenvector_positive",
        "small_beta_mu1_recorded",
    ],
    "symmetry": [
        "reflection_symmetry",
        "interior_monotonicity",
    ],
    "radial": [
        "disk_minimizer_radial",
        "disk_modewise_stability",
    ],
    "flipping": [
        "flip_decreases_energy",
        "radial_derivative_sign_changes",
        "small_beta_sign_definiteness_recorded",
    ],
    "saddle": [
        "saddle_sign_property",
        "saddle_amplitude_lower_bound",
        "odd_extension_smoothness",
        "saddle_domain_growth",
    ],
    "bifurcation": [
        "bifurcation_point_formula",
        "subcritical_amplitude_law",
        "branch_segment_stability",
        "ball_bifurcation_radii",
        "long_branch_fold_recorded",
    ],
    "gamma": [
        "gamma_limit_continuity",
        "gamma_rescaling_identity",
    ],
}


@dataclass(frozen=True)
class SuiteConfig:
    quick: bool = False
    extended: bool = False
    seed: int = 0

    @property
    def modes_2d(self) -> tuple[int, int]:
        return (64, 64) if self.quick else (128, 128)

    @property
    def modes_2d_large(self) -> tuple[int, int]:
        return (96, 96) if self.quick else (192, 192)

    @property
    def modes_1d(self) -> tuple[int]:
        return (48,)

    @property
    def saddle_modes(self) -> tuple[int, int]:
        return (96, 96) if self.quick else (160, 160)

    @property
    def saddle_radii(self) -> tuple[float, ...]:
        return (10.0, 15.0, 20.0) if self.quick else (20.0, 35.0, 50.0)

    @property
    def n_radial(self) -> int:
        return 256 if self.quick else 512

    @property
    def flip_profiles(self) -> int:
        return 25 if self.quick else 100


@dataclass
class ScorecardEntry:
    claim: str
    name: str
    passed: bool
    value: float | None
    tolerance: float | None
    runtime_s: float
    detail: str = ""
    series: dict = dc_field(default_factory=dict)

    def as_dict(self, volatile: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }
        if volatile:
            out["runtime_s"] = round(self.runtime_s, 3)
        return out


@dataclass
class Scorecard:
    suite: str
    entries: list
    config: dict
    timestamp: str = ""

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dict(self, volatile: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "entries": [e.as_dict(volatile) for e in self.entries],
        }
        if volatile:
            out["timestamp"] = self.timestamp
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def canonical_json(self) -> str:
        """Deterministic form: timestamps and runtimes stripped."""
        return json.dumps(self.as_dict(volatile=False), indent=2, sort_keys=True) + "\n"


def _run_entry(entries: list, claim: str, name: str, fn, tolerance=None) -> None:
    t0 = time.perf_counter()
    try:
        passed, value, detail, series = fn()
        entries.append(ScorecardEntry(claim=claim, name=name, passed=bool(passed),
                                      value=value, tolerance=tolerance,
                                      runtime_s=time.perf_counter() - t0,
                                      detail=detail, series=series or {}))
    except Exception as exc:  # module errors become failed entries, not crashes
        entries.append(ScorecardEntry(claim=claim, name=name, passed=False,
                                      value=None, tolerance=tolerance,
                                      runtime_s=time.perf_counter() - t0,
                                      detail=f"error: {exc!r}",
                                      series={}))


# ---------------------------------------------------------------------------
# suites


def _suite_bounds(cfg: SuiteConfig) -> list:
    entries = []
    dom = hyperrectangle(20.0, 20.0)

    # shared solves are cached and run inside the first entry that needs them
    @functools.cache
    def solve(beta):
        return minimize_truncated_positive(MinimizeConfig(beta=beta, modes=cfg.modes_2d), dom)

    for beta in (SQRT8, 3.0, 4.0):
        def check(beta=beta):
            res = solve(beta)
            ok = (res.converged and not res.defects
                  and res.report.u_min >= -1e-6 and res.report.u_max <= 1.0 + 1e-6)
            return ok, res.report.u_max, f"u in [{res.report.u_min:.2e}, {res.report.u_max:.8f}]", {}
        _run_entry(entries, "positive_minimizer_bounds",
                   f"sup_bound_one_beta_{beta:.3f}", check, tolerance=1e-6)

    def check_m_beta():
        res = solve(1.6)
        bound = m_beta(1.6)
        ok = (res.converged and res.report.u_min >= -1e-6
              and res.report.u_max <= bound + 1e-6)
        return ok, res.report.u_max, f"bound m_beta={bound:.6f}", {}
    _run_entry(entries, "positive_minimizer_bounds", "sup_bound_m_beta_1.6",
               check_m_beta, tolerance=1e-6)

    def check_constants():
        betas = np.linspace(K0, 100.0, 256)
        gap = min(c_beta(b) - m_beta(b) for b in betas)
        grid = np.linspace(0.0, 1.0, 512)
        slopes = [(4.0 / (b * b)) * (1 - 3 * grid**2) + 1.0 for b in (SQRT8, 3.0, 10.0)]
        mono = min(float(s.min()) for s in slopes)
        root = scalar_h(SQRT8, c_beta(SQRT8))
        ok = gap >= -1e-12 and mono >= -1e-12 and abs(root) < 1e-12
        return ok, gap, f"min(c-m)={gap:.3e}, min h'={mono:.3e}, h(c_beta)={root:.1e}", {}
    _run_entry(entries, "bound_constants_relations", "constants_relations",
               check_constants, tolerance=1e-12)

    def check_ledger():
        res = solve(3.0)
        # fields vanish on the boundary, so the closure minimum includes 0
        lo = min(0.0, res.report.u_min)
        hi = max(0.0, res.report.u_max)
        f = lambda s: s - s**3
        hi_ok = hi <= g_interval_max(3.0, f, lo, hi) + 1e-6
        lo_ok = lo >= g_interval_min(3.0, f, lo, hi) - 1e-6
        return hi_ok and lo_ok, hi, f"closure range [{lo:.2e}, {hi:.6f}]", {}
    _run_entry(entries, "comparison_function_ledger", "extremum_ledger_beta_3",
               check_ledger, tolerance=1e-6)

    def check_w():
        res = solve(2.0)
        ok = res.converged and w_field_check(res.field, 2.0)
        return ok, None, "w = -lap u + (beta/2) u > 0 on the grid", {}
    _run_entry(entries, "companion_field_sign", "companion_positive_beta_2",
               check_w, tolerance=1e-7)

    dom_big = hyperrectangle(50.0, 50.0)

    def check_oscillation():
        res = minimize(MinimizeConfig(beta=0.1, modes=cfg.modes_2d_large,
                                      seeds=(0, 1, 2)), dom_big)
        # u and -u minimize together; report the positive representative
        peak = max(res.report.u_max, -res.report.u_min)
        ok = res.converged and peak > 1.0
        return ok, peak, f"max of the sign-oriented minimizer: {peak:.6f} > 1", {}
    _run_entry(entries, "oscillation_past_one_small_beta", "oscillation_beta_0.1",
               check_oscillation, tolerance=0.0)

    def check_plateau():
        res = minimize(MinimizeConfig(beta=4.0, modes=cfg.modes_2d_large), dom_big)
        xs = np.linspace(20.0, 30.0, 41)
        plateau = float(np.min(sp.evaluate_at(res.field, [xs, xs])))
        ok = (res.converged and res.report.u_max <= 1.0 + 1e-6 and plateau >= 0.99)
        return ok, plateau, f"max={res.report.u_max:.8f}, center plateau min={plateau:.6f}", {}
    _run_entry(entries, "plateau_large_beta", "plateau_beta_4", check_plateau,
               tolerance=1e-6)
    return entries


def _suite_uniqueness(cfg: SuiteConfig) -> list:
    entries = []
    dom = hyperrectangle(2 * math.pi)

    def check_trivial():
        res = minimize(MinimizeConfig(beta=4.0, modes=cfg.modes_1d,
                                      seeds=(1, 2, 3, 4, 5)), dom)
        ok = res.converged and res.field.sup_norm() < 1e-6
        return ok, res.field.sup_norm(), "all starts collapse to zero", {}
    _run_entry(entries, "trivial_regime_uniqueness", "trivial_beta_4_1d",
               check_trivial, tolerance=1e-6)

    def check_segment():
        reports = verify_uniqueness_segment(dom, [2.9, 3.2, 3.5, 3.7],
                                            cfg.modes_1d)
        worst = max(r.max_l2_mismatch for r in reports)
        ok = all(r.passed for r in reports)
        detail = "; ".join(f"beta={r.beta}: {r.max_l2_mismatch:.2e} ({r.n_positive} runs)"
                           for r in reports)
        return ok, worst, detail, {}
    _run_entry(entries, "uniqueness_segment_multistart", "segment_sqrt8_to_bar",
               check_segment, tolerance=1e-5)
    return entries


def _suite_stability(cfg: SuiteConfig) -> list:
    entries = []
    dom = hyperrectangle(20.0, 20.0)

    @functools.cache
    def base():
        return minimize_truncated_positive(MinimizeConfig(beta=3.0, modes=cfg.modes_2d),
                                           dom).field

    @functools.cache
    def report():
        # one report serves the three entries below; the first one is charged for it
        return stability_report(base(), 3.0)

    def check_mu1():
        rep = report()
        ok = abs(rep.mu1) < 5e-4 and rep.residual_mu < 1e-7
        return ok, rep.mu1, f"mu1={rep.mu1:.3e}, residual={rep.residual_mu:.1e}", {}
    _run_entry(entries, "first_stability_eigenvalue_zero", "mu1_zero_beta_3",
               check_mu1, tolerance=5e-4)

    def check_nu1():
        rep, u = report(), base()
        pads = default_pads(u.modes)
        uv = grid_values(u, pads)
        vv = grid_values(rep.eigvec_nu, pads)
        h = sp._ops(u.domain.lengths, u.modes, pads).h_quad
        coupling = 2.0 * h * float(np.sum(uv * uv * vv * vv))
        ok = rep.is_strictly_stable and rep.nu1 >= coupling - 5e-4
        return ok, rep.nu1, f"nu1={rep.nu1:.6f} >= 2*int(u^2 v^2)={coupling:.6f} - 5e-4", {}
    _run_entry(entries, "strict_stability_second_potential", "nu1_positive_beta_3",
               check_nu1, tolerance=5e-4)

    def check_eigvec():
        ok = eigvec_positivity(report().eigvec_mu)
        return ok, None, "principal eigenvector sign-definite", {}
    _run_entry(entries, "principal_eigenvector_positive", "eigvec_mu_positive",
               check_eigvec, tolerance=1e-6)

    def check_small_beta():
        res2 = minimize_truncated_positive(
            MinimizeConfig(beta=2.0, modes=cfg.modes_2d), dom)
        lam, _, _ = smallest_eigenpair(res2.field, 2.0, U2_MINUS_1)
        return True, lam, f"mu1 at beta=2 recorded: {lam:.3e} (no assertion below sqrt(8))", {}
    _run_entry(entries, "small_beta_mu1_recorded", "mu1_recorded_beta_2",
               check_small_beta)
    return entries


def _suite_symmetry(cfg: SuiteConfig) -> list:
    entries = []
    L = 20.0

    @functools.cache
    def base():
        return minimize_truncated_positive(MinimizeConfig(beta=4.0, modes=cfg.modes_2d),
                                           hyperrectangle(L, L)).field

    def check_reflection():
        u = base()
        xs = np.linspace(0.5, L - 0.5, 79)
        ys = np.linspace(0.5, L - 0.5, 41)
        a = sp.evaluate_at(u, [xs, ys])
        b = sp.evaluate_at(u, [L - xs, ys])
        c = sp.evaluate_at(u, [xs, L - ys])
        defect = max(float(np.max(np.abs(a - b))), float(np.max(np.abs(a - c))))
        tol = 1e-6 * u.sup_norm()
        return defect < tol, defect, f"reflection defect {defect:.2e} < {tol:.2e}", {}
    _run_entry(entries, "reflection_symmetry", "reflection_both_axes_beta_4",
               check_reflection, tolerance=1e-6)

    def check_monotone():
        u = base()
        pads = default_pads(u.modes)
        dvals = sp.derivative_values(u, axis=0, pads=pads)
        xs_grid = np.arange(1, pads[0] + 1) * (L / (pads[0] + 1))
        mask = xs_grid > L / 2
        worst = float(np.max(dvals[mask, :]))
        return worst < 1e-7, worst, f"max d_x u on x > L/2: {worst:.2e}", {}
    _run_entry(entries, "interior_monotonicity", "monotone_decay_beta_4",
               check_monotone, tolerance=1e-7)
    return entries


def _suite_radial(cfg: SuiteConfig) -> list:
    entries = []

    @functools.cache
    def disk():
        return minimize_disk(ball(10.0, dim=2), 4.0, n_r=96 if cfg.quick else 160,
                             n_theta=32, seed=cfg.seed + 3)

    def check_disk():
        field, conv, iters = disk()
        defect = polar_angular_defect(field)
        tol = 1e-3 * field.sup_norm()
        ok = conv and defect < tol
        return ok, defect, f"angular defect {defect:.2e} < {tol:.2e} ({iters} iters)", {}
    _run_entry(entries, "disk_minimizer_radial", "disk_R10_beta_4", check_disk,
               tolerance=1e-3)

    def check_modewise():
        field, conv, _ = disk()
        stab = modewise_stability(field, 4.0, max_modes=8)
        worst = min(stab.values())
        detail = ", ".join(f"m={m}: {v:.4f}" for m, v in stab.items())
        return conv and worst > 0.0, worst, detail, {}
    _run_entry(entries, "disk_modewise_stability", "disk_modewise_nu1",
               check_modewise, tolerance=0.0)
    return entries


def _random_signchanging_profile(domain, n, rng):
    r0 = domain.inner_radius or 0.0
    span = domain.radius - r0
    r = np.linspace(r0, domain.radius, n + 1)
    vals = np.zeros(n + 1)
    for j in range(1, 7):
        vals += rng.standard_normal() * np.sin(j * math.pi * (r - r0) / span)
    if domain.kind == "ball":
        vals += rng.uniform(-0.2, 0.2) * np.cos(math.pi * (r - r0) / (2 * span))
    vals[-1] = 0.0
    if domain.kind == "annulus":
        vals[0] = 0.0
    amp = np.max(np.abs(vals))
    vals *= rng.uniform(0.55, 0.98) / amp
    if vals.max() <= 0 or vals.min() >= 0:
        vals -= np.mean(vals) * 1.2
        vals[0 if domain.kind == "annulus" else -1] = 0.0
        vals[-1] = 0.0
        vals *= rng.uniform(0.55, 0.98) / np.max(np.abs(vals))
    return RadialField(domain, vals)


def _suite_flipping(cfg: SuiteConfig) -> list:
    entries = []

    def check_flip():
        rng = np.random.default_rng(cfg.seed)
        n_fail = 0
        count = 0
        worst = -math.inf
        target_each = cfg.flip_profiles // 2
        for domain in (ball(8.0, dim=2), annulus(5.0, 15.0, dim=2)):
            done = 0
            attempts = 0
            while done < target_each and attempts < 8 * target_each:
                attempts += 1
                f = _random_signchanging_profile(domain, 256, rng)
                if f.values.max() <= 0 or f.values.min() >= 0:
                    continue
                res = flip_transform(f)
                if not res.applied:
                    continue
                done += 1
                count += 1
                gain = radial_energy_value(res.field, 3.0) - radial_energy_value(f, 3.0)
                worst = max(worst, gain)
                if gain >= 0.0:
                    n_fail += 1
        ok = n_fail == 0 and count >= 2 * target_each
        return ok, worst, f"{count} flips, {n_fail} energy increases, worst gain {worst:.2e}", {}
    _run_entry(entries, "flip_decreases_energy", "flip_oracle_randomized",
               check_flip, tolerance=0.0)

    def check_profile():
        res = minimize_truncated_positive(
            MinimizeConfig(beta=4.0, n_points=cfg.n_radial), annulus(5.0, 15.0, dim=2))
        changes_a, definite_a = monotonicity_profile(res.field)
        res_b = minimize_truncated_positive(
            MinimizeConfig(beta=4.0, n_points=cfg.n_radial), ball(10.0, dim=2))
        changes_b, definite_b = monotonicity_profile(res_b.field)
        ok = (changes_a == 1 and definite_a and changes_b == 0 and definite_b)
        return ok, float(changes_a), (f"annulus: {changes_a} derivative sign changes; "
                                      f"ball: {changes_b}"), {}
    _run_entry(entries, "radial_derivative_sign_changes", "profile_beta_4",
               check_profile, tolerance=0.0)

    def check_small_beta():
        res = minimize(MinimizeConfig(beta=2.0, n_points=cfg.n_radial),
                       ball(10.0, dim=2))
        _, definite = monotonicity_profile(res.field)
        return True, res.report.u_min, (f"beta=2 radial minimizer sign-definite: {definite} "
                                        f"(recorded, not asserted below sqrt(8))"), {}
    _run_entry(entries, "small_beta_sign_definiteness_recorded",
               "sign_definiteness_beta_2", check_small_beta)
    return entries


def _suite_saddle(cfg: SuiteConfig) -> list:
    entries = []
    radii = cfg.saddle_radii
    R_big = radii[-1]
    beta = 1.6

    @functools.cache
    def quadrant(R):
        modes = tuple(max(32, int(m * (R / R_big))) for m in cfg.saddle_modes)
        return build_saddle(R, beta, modes=modes)

    def check_sign():
        res, tile = quadrant(R_big)
        smin = saddle_sign_minimum(tile)
        ok = res.converged and smin >= -1e-7
        return ok, smin, f"min of u*x*y over the tile: {smin:.2e}", {}
    _run_entry(entries, "saddle_sign_property", f"sign_R{R_big:.0f}", check_sign,
               tolerance=1e-7)

    def check_lower():
        res, _ = quadrant(R_big)
        w = R_big / 2 + 2.0
        sup = window_sup(res.field, w)
        ok = sup >= 1.0 / math.sqrt(2.0)
        return ok, sup, f"sup over [0,{w:.0f}]^2 = {sup:.6f} >= 1/sqrt(2)", {}
    _run_entry(entries, "saddle_amplitude_lower_bound", f"window_R{R_big:.0f}",
               check_lower, tolerance=1.0 / math.sqrt(2.0))

    def check_smooth():
        res, _ = quadrant(R_big)
        rep = reflection_smoothness(res.field)
        asym = diagonal_asymmetry(res.field)
        detail = (f"d2 jump {rep.jump_d2:.3e} vs 10 h^2 scale "
                  f"{10 * rep.h**2 * rep.fourth_derivative_scale:.3e}; "
                  f"navier trace {rep.navier_trace:.1e}; diagonal asym {asym:.1e} (recorded)")
        return rep.passed, rep.jump_d2, detail, {}
    _run_entry(entries, "odd_extension_smoothness", f"reflection_R{R_big:.0f}",
               check_smooth)

    def check_growth():
        rep = saddle_growth_check({R: quadrant(R)[0].field for R in radii},
                                  window=min(radii) * 0.75)
        return rep.decreasing, rep.sup_diffs[-1], f"sup diffs {rep.sup_diffs}", {}
    _run_entry(entries, "saddle_domain_growth", "growth_three_radii", check_growth)
    return entries


def _suite_bifurcation(cfg: SuiteConfig) -> list:
    entries = []
    dom = hyperrectangle(2 * math.pi)
    modes = cfg.modes_1d

    @functools.cache
    def seed():
        return seed_branch(dom, bifurcation_point(dom), 0.05, modes)

    def check_point():
        up = continue_branch(ContinuationConfig(beta_start=seed().beta, ds=0.005,
                                                ds_max=0.02, max_steps=120,
                                                direction="increasing_beta",
                                                stop_sup_below=0.02), seed())
        est = extrapolate_endpoint(up)
        err = abs(est - 3.75)
        series = {"beta_supnorm": np.array([[p.beta, p.sup_norm] for p in up])}
        return err < 1e-3, est, f"endpoint {est:.6f}, |err| {err:.2e}", series
    _run_entry(entries, "bifurcation_point_formula", "endpoint_1d_2pi",
               check_point, tolerance=1e-3)

    def check_slope():
        slope = amplitude_law_slope(dom, modes)
        return abs(slope - 0.5) <= 0.05, slope, f"log-log slope {slope:.4f}", {}
    _run_entry(entries, "subcritical_amplitude_law", "amplitude_slope",
               check_slope, tolerance=0.05)

    def check_branch():
        branch = continue_branch(ContinuationConfig(beta_start=seed().beta, ds=0.02,
                                                    max_steps=200,
                                                    direction="decreasing_beta",
                                                    beta_min=SQRT8), seed())
        nu_min = min(p.nu1 for p in branch)
        res_max = max(p.residual for p in branch[1:])
        sup_mono = all(b.sup_norm >= a.sup_norm - 1e-10
                       for a, b in zip(branch, branch[1:]))
        bounds_ok = all(0.0 < p.sup_norm <= 1.0 + 1e-6 for p in branch)
        series = {"beta_supnorm": np.array([[p.beta, p.sup_norm] for p in branch]),
                  "beta_nu1": np.array([[p.beta, p.nu1] for p in branch])}
        ok = nu_min > 0.0 and res_max < 1e-9 and bounds_ok
        detail = (f"{len(branch)} points to beta={branch[-1].beta:.4f}; min nu1 "
                  f"{nu_min:.4f}; sup monotone: {sup_mono} (recorded)")
        return ok, nu_min, detail, series
    _run_entry(entries, "branch_segment_stability", "branch_to_sqrt8",
               check_branch, tolerance=0.0)

    def check_radii():
        r2 = critical_radius(SQRT8, 2)
        r3 = critical_radius(SQRT8, 3)
        r10 = critical_radius(SQRT8, 10)
        lam, _ = radial_lambda1(ball(r2, dim=2), cfg.n_radial)
        bb = (1.0 - lam * lam) / lam
        ok = (abs(r2 - 4.26) < 0.01 and abs(bb - SQRT8) < 5e-3
              and abs(r3 - 5.57) < 0.01 and abs(r10 - 13.46) < 0.01)
        detail = (f"R2={r2:.4f}, R3={r3:.4f}, R10={r10:.4f}; discrete round trip "
                  f"beta_bar={bb:.6f} vs sqrt(8)={SQRT8:.6f}")
        return ok, r2, detail, {}
    _run_entry(entries, "ball_bifurcation_radii", "radii_and_round_trip",
               check_radii, tolerance=0.01)

    def check_fold():
        if not cfg.extended:
            return True, None, "skipped (enable extended config to run the long branch)", {}
        dom_long = hyperrectangle(10 * math.pi)
        bb = bifurcation_point(dom_long)
        seed = seed_branch(dom_long, bb, 0.5, (160,))
        branch = continue_branch(ContinuationConfig(beta_start=seed.beta, ds=0.05,
                                                    ds_max=0.3, max_steps=4000,
                                                    direction="decreasing_beta",
                                                    beta_min=-6.0,
                                                    compute_nu1=False), seed)
        betas = np.array([p.beta for p in branch])
        crossed = bool(np.any(betas < 0.0))
        fold = False
        if crossed:
            first_neg = int(np.argmax(betas < 0.0))
            fold = bool(np.any(betas[first_neg:] > 0.0))
        detail = (f"{len(branch)} points, beta range [{betas.min():.3f}, "
                  f"{betas.max():.3f}], end beta {betas[-1]:.3f}, crossed zero: "
                  f"{crossed}, returned to positive beta: {fold} "
                  f"(recorded, no assertion)")
        series = {"beta_supnorm": np.array([[p.beta, p.sup_norm] for p in branch])}
        return True, betas.min(), detail, series
    _run_entry(entries, "long_branch_fold_recorded", "long_branch_10pi", check_fold)
    return entries


def _suite_gamma(cfg: SuiteConfig) -> list:
    entries = []
    dom = hyperrectangle(2 * math.pi)

    def check_sweep():
        sweep = gamma_sweep(dom, [1e-2, 1e-3, 1e-4, 0.0],
                            MinimizeConfig(beta=1.0, modes=cfg.modes_1d))
        positive = all(r.u_min >= -1e-6 and r.u_max > 0 for r in sweep.reports)
        final_inc = sweep.increments[-1]
        ok = sweep.converged and positive and final_inc < 0.05
        detail = (f"increments {['%.2e' % i for i in sweep.increments]}, "
                  f"all positive: {positive}")
        return ok, final_inc, detail, {}
    _run_entry(entries, "gamma_limit_continuity", "sweep_to_zero", check_sweep,
               tolerance=0.05)

    def check_rescale():
        resid = gamma_rescaling_residual(dom, 1.0 / 64.0,
                                         MinimizeConfig(beta=1.0, modes=cfg.modes_1d))
        return resid < 1e-6, resid, f"rescaled cubic residual {resid:.2e} at gamma=1/64", {}
    _run_entry(entries, "gamma_rescaling_identity", "rescale_gamma_1_64",
               check_rescale, tolerance=1e-6)
    return entries


_SUITE_FUNCS = {
    "bounds": _suite_bounds,
    "uniqueness": _suite_uniqueness,
    "stability": _suite_stability,
    "symmetry": _suite_symmetry,
    "radial": _suite_radial,
    "flipping": _suite_flipping,
    "saddle": _suite_saddle,
    "bifurcation": _suite_bifurcation,
    "gamma": _suite_gamma,
}


def check_registry() -> None:
    """Every claim appears in exactly one suite; every suite has a runner."""
    seen = {}
    for suite, claims in CLAIM_REGISTRY.items():
        if suite not in _SUITE_FUNCS:
            raise RuntimeError(f"suite {suite} has no runner")
        for claim in claims:
            if claim in seen:
                raise RuntimeError(f"claim {claim} in both {seen[claim]} and {suite}")
            seen[claim] = suite


def _run_suite_guarded(name: str, config: SuiteConfig) -> list:
    """Suite-level failures (shared setup included) become failed entries."""
    try:
        return _SUITE_FUNCS[name](config)
    except Exception as exc:
        return [ScorecardEntry(claim=claim, name=f"{name}_setup", passed=False,
                               value=None, tolerance=None, runtime_s=0.0,
                               detail=f"suite setup error: {exc!r}")
                for claim in CLAIM_REGISTRY[name]]


def run_suite(suite: str, config: SuiteConfig | None = None) -> Scorecard:
    """Run one suite (or 'all') and return its scorecard."""
    check_registry()
    config = config or SuiteConfig()
    if suite == "all":
        entries = []
        for name in SUITES:
            entries.extend(_run_suite_guarded(name, config))
    else:
        if suite not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
        entries = _run_suite_guarded(suite, config)
    claimed = {c for cl in CLAIM_REGISTRY.values() for c in cl}
    for e in entries:
        if e.claim not in claimed:
            raise RuntimeError(f"entry {e.name} reports unregistered claim {e.claim}")
    return Scorecard(suite=suite, entries=entries,
                     config={"quick": config.quick, "extended": config.extended,
                             "seed": config.seed},
                     timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))


def write_plot_data(card: Scorecard, out_dir) -> list:
    """Two-column whitespace-delimited series per entry, for external plotting."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for e in card.entries:
        for name, arr in e.series.items():
            path = out / f"{e.name}__{name}.dat"
            np.savetxt(path, np.asarray(arr), fmt="%.12g")
            written.append(path)
    return written


def scorecard_diff(a: Scorecard | dict, b: Scorecard | dict) -> dict:
    """Regression diff of two scorecards from the same suite."""
    da = a.as_dict(volatile=False) if isinstance(a, Scorecard) else a
    db = b.as_dict(volatile=False) if isinstance(b, Scorecard) else b
    if da["suite"] != db["suite"]:
        raise ValueError("scorecards come from different suites")
    ea = {e["name"]: e for e in da["entries"]}
    eb = {e["name"]: e for e in db["entries"]}
    if set(ea) != set(eb):
        missing = set(ea).symmetric_difference(eb)
        raise ValueError(f"schema mismatch: entries differ: {sorted(missing)}")
    deltas = []
    transitions = []
    for name in sorted(ea):
        va, vb = ea[name]["value"], eb[name]["value"]
        if va is not None and vb is not None and va != vb:
            deltas.append({"name": name, "from": va, "to": vb, "delta": vb - va})
        if ea[name]["passed"] != eb[name]["passed"]:
            transitions.append({"name": name, "from": ea[name]["passed"],
                                "to": eb[name]["passed"]})
    return {"suite": da["suite"], "deltas": deltas, "transitions": transitions,
            "identical": not deltas and not transitions}
