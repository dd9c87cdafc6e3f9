import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efk.cli import _minimize_config, main
from efk.domains import annulus, hyperrectangle
from efk.fieldio import load_beta, load_field, save_field
from efk.harness import (CLAIM_REGISTRY, SUITES, SuiteConfig, check_registry,
                         run_suite, scorecard_diff, write_plot_data)
from efk.minimize import MinimizeConfig
from efk.radial import RadialField
from efk.spectral import SpectralField

QUICK = SuiteConfig(quick=True)


def test_registry_claims_unique_and_covered():
    check_registry()
    all_claims = [c for cl in CLAIM_REGISTRY.values() for c in cl]
    assert len(all_claims) == len(set(all_claims))
    assert set(CLAIM_REGISTRY) == set(SUITES)


def test_scorecard_determinism_and_json_shape():
    c1 = run_suite("gamma", QUICK)
    c2 = run_suite("gamma", QUICK)
    assert c1.canonical_json() == c2.canonical_json()
    payload = json.loads(c1.to_json())
    assert payload["suite"] == "gamma"
    assert {"claim", "name", "passed", "value", "tolerance", "detail",
            "runtime_s"} <= set(payload["entries"][0])


def test_scorecard_diff_identical_and_changed():
    c1 = run_suite("gamma", QUICK)
    c2 = run_suite("gamma", QUICK)
    d = scorecard_diff(c1, c2)
    assert d["identical"]
    mutated = json.loads(c2.canonical_json())
    mutated["entries"][0]["value"] = 123.0
    mutated["entries"][0]["passed"] = False
    d2 = scorecard_diff(json.loads(c1.canonical_json()), mutated)
    assert not d2["identical"]
    assert d2["deltas"] and d2["transitions"]


def test_scorecard_diff_schema_errors():
    c1 = run_suite("gamma", QUICK)
    other = json.loads(c1.canonical_json())
    other["entries"] = other["entries"][:-1]
    with pytest.raises(ValueError):
        scorecard_diff(json.loads(c1.canonical_json()), other)
    sym = run_suite("symmetry", QUICK)
    with pytest.raises(ValueError):
        scorecard_diff(c1, sym)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", QUICK)


def test_module_errors_become_failed_entries(monkeypatch):
    import efk.harness as hz

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hz, "gamma_sweep", boom)
    card = run_suite("gamma", QUICK)
    assert not card.entries[0].passed
    assert "synthetic failure" in card.entries[0].detail


def test_suite_setup_errors_become_failed_entries(monkeypatch):
    import efk.harness as hz

    def boom(cfg):
        raise RuntimeError("setup exploded")

    monkeypatch.setitem(hz._SUITE_FUNCS, "stability", boom)
    card = run_suite("stability", QUICK)
    assert not card.passed
    assert len(card.entries) == len(hz.CLAIM_REGISTRY["stability"])
    assert all("setup exploded" in e.detail for e in card.entries)


def test_stability_suite_shares_one_report(monkeypatch):
    import efk.eigen as eg
    import efk.harness as hz

    calls = []
    original = eg.smallest_eigenpair

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eg, "smallest_eigenpair", counted)
    monkeypatch.setattr(hz, "smallest_eigenpair", counted)
    card = run_suite("stability", QUICK)
    assert card.passed
    # one stability_report (two eigensolves) at beta = 3, one eigensolve at beta = 2
    assert len(calls) == 3


def test_bifurcation_suite_shares_one_seed(monkeypatch):
    import efk.harness as hz

    calls = []
    original = hz.seed_branch

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hz, "seed_branch", counted)
    card = run_suite("bifurcation", QUICK)
    assert card.passed
    # the endpoint and the branch-stability entries continue from one seed
    assert len(calls) == 1


def test_shared_solves_fail_inside_their_entries(monkeypatch):
    import efk.harness as hz

    def boom(*a, **k):
        raise RuntimeError("quadrant solve failed")

    monkeypatch.setattr(hz, "build_saddle", boom)
    card = run_suite("saddle", QUICK)
    names = [e.name for e in card.entries]
    assert names == ["sign_R20", "window_R20", "reflection_R20", "growth_three_radii"]
    assert all(not e.passed and "quadrant solve failed" in e.detail for e in card.entries)


def test_bounds_suite_solves_each_beta_once(monkeypatch):
    import efk.harness as hz

    betas = []
    stub = SimpleNamespace(converged=True, defects=(), field=None,
                           report=SimpleNamespace(u_min=0.0, u_max=0.5))

    def fake_truncated(config, domain):
        betas.append(config.beta)
        return stub

    monkeypatch.setattr(hz, "minimize_truncated_positive", fake_truncated)
    monkeypatch.setattr(hz, "minimize", lambda config, domain: stub)
    run_suite("bounds", QUICK)
    assert betas == [hz.SQRT8, 3.0, 4.0, 1.6, 2.0]


def test_radial_suite_solves_the_disk_once(monkeypatch):
    import efk.harness as hz

    calls = []
    original = hz.minimize_disk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hz, "minimize_disk", counted)
    card = run_suite("radial", QUICK)
    assert card.passed
    assert len(calls) == 1


def test_perfbench_traced_names_resolve():
    """Every function the benchmark's --trace 1 wraps still exists, gets
    wrapped on install and is restored on uninstall."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bindings():
        out = {}
        for _, modname, names in tracing.TRACED:
            module = importlib.import_module(modname)
            for name in names:
                if "." in name:
                    cls, meth = name.split(".")
                    out[modname, name] = getattr(module, cls).__dict__[meth]
                else:
                    out[modname, name] = getattr(module, name)
        return out

    before = bindings()
    with tracing.Tracer():
        during = bindings()
    assert all(during[k] is not before[k] for k in before)
    assert bindings() == before


def test_plot_data_emission(tmp_path):
    card = run_suite("bifurcation", QUICK)
    files = write_plot_data(card, tmp_path)
    assert files
    arr = np.loadtxt(files[0])
    assert arr.ndim == 2 and arr.shape[1] == 2


# --- serialization -----------------------------------------------------------


def test_spectral_roundtrip_bitexact_1d(tmp_path):
    dom = hyperrectangle(2 * math.pi)
    rng = np.random.default_rng(5)
    f = SpectralField(dom, rng.standard_normal(17))
    save_field(f, tmp_path / "f", beta=2.5)
    g = load_field(tmp_path / "f")
    assert np.array_equal(g.coeffs, f.coeffs)
    assert g.domain == f.domain
    assert load_beta(tmp_path / "f") == 2.5


def test_spectral_roundtrip_2d_csv_only(tmp_path):
    dom = hyperrectangle(3.0, 4.0)
    rng = np.random.default_rng(6)
    f = SpectralField(dom, rng.standard_normal((9, 6)))
    save_field(f, tmp_path / "g", binary=False)
    g = load_field(tmp_path / "g")
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=2),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_field_roundtrip_binary_and_csv(lengths, data, seed):
    # the CSV holds natural-grid values, which it supports up to 2D
    modes = tuple(data.draw(st.lists(st.integers(1, 8), min_size=len(lengths),
                                     max_size=len(lengths))))
    f = SpectralField(hyperrectangle(*lengths),
                      np.random.default_rng(seed).standard_normal(modes))
    with tempfile.TemporaryDirectory() as tmp:
        save_field(f, Path(tmp) / "b", beta=1.5)
        save_field(f, Path(tmp) / "c", binary=False)
        exact, from_csv = load_field(Path(tmp) / "b"), load_field(Path(tmp) / "c")
    assert np.array_equal(exact.coeffs, f.coeffs) and exact.domain == f.domain
    assert from_csv.domain == f.domain
    assert np.abs(from_csv.coeffs - f.coeffs).max() <= 1e-12 * np.abs(f.coeffs).max()


def test_radial_roundtrip(tmp_path):
    dom = annulus(1.0, 3.0, dim=2)
    vals = np.sin(np.linspace(0, math.pi, 65))
    vals[0] = vals[-1] = 0.0
    f = RadialField(dom, vals)
    save_field(f, tmp_path / "r", beta=4.0)
    g = load_field(tmp_path / "r")
    assert np.array_equal(g.values, f.values)
    assert g.domain == f.domain


# --- CLI ----------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "efk.cli", *args],
                          capture_output=True, text=True)


def test_cli_minimize_and_stability(tmp_path):
    cfg = {
        "domain": {"kind": "hyperrectangle", "lengths": [6.283185307179586]},
        "beta": 3.0,
        "nonlinearity": "truncated_pos",
        "modes": [48],
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = run_cli("minimize", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert (out / "field.csv").exists() and (out / "report.json").exists()
    assert (out / "trace.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["u_max"] <= 1 + 1e-6

    r2 = run_cli("stability", "--solution", str(out / "field.csv"),
                 "--out", str(tmp_path / "stab.json"))
    assert r2.returncode == 0, r2.stderr
    stab = json.loads((tmp_path / "stab.json").read_text())
    assert abs(stab["mu1"]) < 5e-4
    assert stab["is_strictly_stable"]
    assert stab["eigvec_mu_positive"]


def test_cli_branch(tmp_path):
    cfg = {
        "domain": {"kind": "hyperrectangle", "lengths": [6.283185307179586]},
        "modes": [48],
        "epsilon": 0.05,
        "ds": 0.02,
        "max_steps": 12,
        "direction": "decreasing_beta",
    }
    cfg_path = tmp_path / "branch.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "branch_out"
    r = run_cli("branch", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = (out / "branch.csv").read_text().strip().splitlines()
    assert rows[0] == "arclength,beta,sup_norm,l2_norm,nu1"
    assert len(rows) >= 10
    assert (out / "beta_supnorm.dat").exists()


def test_cli_branch_3d_box(tmp_path):
    cfg = {
        "domain": {"kind": "hyperrectangle", "lengths": [2 * math.pi] * 3},
        "modes": [8, 8, 8],
        "epsilon": 0.05,
        "max_steps": 3,
    }
    cfg_path = tmp_path / "branch.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "branch_out"
    r = run_cli("branch", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = (out / "branch.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    assert all(float(row.split(",")[4]) > 0.0 for row in rows[1:])


def test_cli_branch_refuses_oversized_or_curved(tmp_path):
    for domain in ({"kind": "hyperrectangle", "lengths": [2 * math.pi] * 3},
                   {"kind": "ball", "radius": 3.0}):
        cfg_path = tmp_path / "branch.json"
        cfg_path.write_text(json.dumps({"domain": domain}))
        r = run_cli("branch", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert r.returncode == 1
        assert "at most 4000 coefficients" in r.stderr


def test_cli_domain_missing_key(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"domain": {"kind": "ball"}, "beta": 3.0}))
    r = run_cli("minimize", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "'ball'" in r.stderr and "'radius'" in r.stderr


def test_cli_refuses_unknown_config_keys(tmp_path):
    box = {"kind": "hyperrectangle", "lengths": [6.0]}
    for command, cfg, key in (("minimize", {"domain": box, "beta": 3.0, "max_iter": 10},
                               "max_iter"),
                              ("branch", {"domain": box, "step": 0.01}, "step")):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit, match=f"unknown config keys \\['{key}'\\]"):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def test_cli_refuses_multistart_by_name(tmp_path):
    # the random starts are the seeds; a start count is not a config key
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"domain": {"kind": "hyperrectangle", "lengths": [6.0]},
                                    "beta": 3.0, "multistart": 5, "seeds": [1, 2]}))
    with pytest.raises(SystemExit, match="unknown config keys \\['multistart'\\]"):
        main(["minimize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def test_cli_minimize_config_takes_the_dataclass_defaults():
    box = {"kind": "hyperrectangle", "lengths": [6.0]}
    assert _minimize_config({"domain": box, "beta": 3.0}) == MinimizeConfig(beta=3.0)
    given_keys = {"domain": box, "beta": 3.0, "max_iters": 10, "seeds": [4, 5],
                  "modes": [16], "init": "zero"}
    assert _minimize_config(given_keys) == MinimizeConfig(
        beta=3.0, max_iters=10, seeds=(4, 5), modes=(16,), init=("zero", None))


def test_cli_saddle(tmp_path):
    out = tmp_path / "saddle_out"
    r = run_cli("saddle", "--R", "12", "--beta", "1.6", "--modes", "64",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["sign_minimum"] >= -1e-7
    assert rep["window_sup"] >= 1 / math.sqrt(2)
    assert rep["reflection"]["passed"]
    assert (out / "tile.csv").exists() and (out / "quadrant.csv").exists()


def test_cli_verify_quick(tmp_path):
    r = run_cli("verify", "--suite", "gamma", "--quick",
                "--out", str(tmp_path / "score.json"),
                "--plots", str(tmp_path / "plots"))
    assert r.returncode == 0, r.stderr
    card = json.loads((tmp_path / "score.json").read_text())
    assert card["passed"] is True
    assert "[PASS]" in r.stdout
