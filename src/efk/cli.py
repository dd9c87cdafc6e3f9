"""Command-line entry points.

    efk minimize  --config run.json [--out DIR]
    efk stability --solution field.csv --beta B [--out report.json]
    efk branch    --config branch.json [--out DIR]
    efk saddle    --R 50 --beta 1.6 [--modes 160] [--out DIR]
    efk verify    --suite all [--out scorecard.json] [--plots DIR] [--quick]

Config files are JSON mirrors of the corresponding dataclasses: absent keys
take the dataclass defaults and unknown keys are refused; see README.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np


def _build_domain(spec: dict):
    from . import domains

    kind = spec.get("kind")
    try:
        if kind == "hyperrectangle":
            return domains.hyperrectangle(*spec["lengths"])
        if kind == "quadrant_square":
            return domains.quadrant_square(spec["side"])
        if kind == "ball":
            return domains.ball(spec["radius"], dim=spec.get("dim", 2))
        if kind == "annulus":
            return domains.annulus(spec["inner_radius"], spec["radius"],
                                   dim=spec.get("dim", 2))
    except KeyError as exc:
        raise SystemExit(f"domain kind {kind!r} needs the key {exc.args[0]!r}") from None
    raise SystemExit(f"unknown domain kind {kind!r}")


def _init_tuple(spec) -> tuple:
    if spec is None:
        return ("delta_phi1", None)
    if isinstance(spec, str):
        return (spec, None)
    kind = spec["kind"]
    if kind == "delta_phi1":
        return (kind, spec.get("delta"))
    if kind == "random":
        return (kind, spec.get("seed", 0), spec.get("amplitude", 0.3))
    if kind == "file":
        return (kind, spec["path"])
    return (kind,)


def _read_config(path, accepted: set) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    unknown = sorted(set(cfg) - accepted)
    if unknown:
        raise SystemExit(f"{path}: unknown config keys {unknown}; "
                         f"this command reads {sorted(accepted)}")
    return cfg


def _minimize_config(cfg: dict):
    """The MinimizeConfig of a minimize config: the keys it gives, the
    dataclass defaults for the rest."""
    from .minimize import MinimizeConfig

    if "beta" not in cfg:
        raise SystemExit("a minimize config needs the key 'beta'")
    convert = {"init": _init_tuple, "seeds": tuple,
               "modes": lambda m: tuple(m) if m else None}
    return MinimizeConfig(**{k: convert.get(k, lambda v: v)(v)
                             for k, v in cfg.items() if k != "domain"})


def _cmd_minimize(args) -> int:
    from .fieldio import _write_csv, save_field
    from .minimize import MinimizeConfig, minimize

    cfg = _read_config(args.config, {"domain", *(f.name for f in fields(MinimizeConfig))})
    domain = _build_domain(cfg.get("domain", {}))
    mc = _minimize_config(cfg)
    result = minimize(mc, domain)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(result.field, out / "field", beta=mc.beta)
    report = result.report.as_dict()
    report["converged"] = result.converged
    report["iterations"] = result.iterations
    report["l2_spread"] = result.l2_spread
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(out / "trace.csv", "iteration,energy,grad_metric", np.array(result.trace).T)
    print(f"converged={result.converged} iterations={result.iterations} "
          f"j_beta={report['j_beta']:.9g} sup={max(abs(report['u_min']), report['u_max']):.6g}")
    return 0 if result.converged else 2


def _cmd_stability(args) -> int:
    from .eigen import eigvec_positivity, stability_report
    from .fieldio import load_beta, load_field, save_field

    field = load_field(args.solution)
    beta = args.beta if args.beta is not None else load_beta(args.solution)
    if beta is None:
        raise SystemExit("beta not given and absent from the field sidecar")
    rep = stability_report(field, beta)
    payload = rep.as_dict()
    payload["beta"] = beta
    payload["eigvec_mu_positive"] = eigvec_positivity(rep.eigvec_mu)
    out = Path(args.out) if args.out else Path("stability.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.eigvecs:
        folder = out.parent
        save_field(rep.eigvec_mu, folder / "eigvec_mu", beta=beta)
        save_field(rep.eigvec_nu, folder / "eigvec_nu", beta=beta)
    print(f"mu1={rep.mu1:.6e} nu1={rep.nu1:.6e} strictly_stable={rep.is_strictly_stable}")
    return 0


def _cmd_branch(args) -> int:
    from .continuation import (DENSE_LIMIT, ContinuationConfig,
                               bifurcation_point, continue_branch, seed_branch)
    from .fieldio import _write_csv, save_field

    cont_keys = {f.name for f in fields(ContinuationConfig)} - {"beta_start", "compute_nu1"}
    cfg = _read_config(args.config, {"domain", "modes", "epsilon", "dump_fields", *cont_keys})
    domain = _build_domain(cfg.get("domain", {}))
    modes = tuple(cfg.get("modes", [48] * domain.dim))
    if not domain.is_rectangular or np.prod(modes) > DENSE_LIMIT:
        raise SystemExit(f"efk branch needs a rectangular domain with at most {DENSE_LIMIT} "
                         f"coefficients; got {domain.kind} with modes {list(modes)}")
    bb = bifurcation_point(domain)
    # beta_start is the seed's beta, known once the seed is solved
    cc = ContinuationConfig(beta_start=bb, **{k: cfg[k] for k in cont_keys & set(cfg)})
    seed = seed_branch(domain, bb, cfg.get("epsilon", 0.05), modes, cc.newton_tol)
    branch = continue_branch(replace(cc, beta_start=seed.beta), seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = ("arclength", "beta", "sup_norm", "l2_norm", "nu1")
    _write_csv(out / "branch.csv", ",".join(names),
               [[getattr(p, k) for p in branch] for k in names])
    np.savetxt(out / "beta_supnorm.dat",
               [[p.beta, p.sup_norm] for p in branch], fmt="%.12g")
    np.savetxt(out / "arclength_beta.dat",
               [[p.arclength, p.beta] for p in branch], fmt="%.12g")
    if cfg.get("dump_fields"):
        for i, p in enumerate(branch):
            save_field(p.field, out / f"point_{i:04d}", beta=p.beta)
    print(f"bifurcation at beta_bar={bb:.6f}; {len(branch)} points, "
          f"beta in [{min(p.beta for p in branch):.4f}, {max(p.beta for p in branch):.4f}]")
    return 0


def _cmd_saddle(args) -> int:
    from .fieldio import _write_csv, save_field
    from .saddle import (build_saddle, reflection_smoothness,
                         saddle_sign_minimum, window_sup)

    result, tile = build_saddle(args.R, args.beta, modes=(args.modes, args.modes))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(result.field, out / "quadrant", beta=args.beta)
    _write_csv(out / "tile.csv", "x,y,u",
               [*np.meshgrid(tile.coords, tile.coords, indexing="ij"), tile.values])
    rep = reflection_smoothness(result.field)
    window = args.R / 2 + 2.0
    payload = {
        "beta": args.beta,
        "R": args.R,
        "converged": result.converged,
        "sign_minimum": saddle_sign_minimum(tile),
        "window": window,
        "window_sup": window_sup(result.field, window),
        "reflection": {
            "jump_value": rep.jump_value,
            "jump_d1": rep.jump_d1,
            "jump_d2": rep.jump_d2,
            "jump_d3": rep.jump_d3,
            "navier_trace": rep.navier_trace,
            "passed": rep.passed,
        },
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"sign_min={payload['sign_minimum']:.3e} window_sup={payload['window_sup']:.6f} "
          f"reflection_ok={rep.passed}")
    return 0


def _cmd_verify(args) -> int:
    from .harness import SuiteConfig, run_suite, write_plot_data

    config = SuiteConfig(quick=args.quick, extended=args.extended, seed=args.seed)
    card = run_suite(args.suite, config)
    text = card.to_json()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    if args.plots:
        write_plot_data(card, args.plots)
    for e in card.entries:
        status = "PASS" if e.passed else "FAIL"
        print(f"[{status}] {e.name}: {e.detail}")
    print(f"suite={card.suite} passed={card.passed}")
    return 0 if card.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="efk",
        description=("Fourth-order Allen-Cahn solver with Navier boundary "
                     "conditions: minimize, stability, continuation, saddle, verify"))
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("minimize", help="descend the energy from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="minimize_out")
    p.set_defaults(func=_cmd_minimize)

    p = subs.add_parser("stability", help="smallest linearized eigenvalues at a solution")
    p.add_argument("--solution", required=True, help="field CSV written by this tool")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--eigvecs", action="store_true", help="also dump eigenvector fields")
    p.set_defaults(func=_cmd_stability)

    p = subs.add_parser("branch", help="pseudo-arclength continuation from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="branch_out")
    p.set_defaults(func=_cmd_branch)

    p = subs.add_parser("saddle", help="quadrant solve plus odd-reflection tile")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--modes", type=int, default=128)
    p.add_argument("--out", default="saddle_out")
    p.set_defaults(func=_cmd_saddle)

    p = subs.add_parser("verify", help="run a verification suite and emit a scorecard")
    p.add_argument("--suite", default="all")
    p.add_argument("--out", default=None, help="scorecard JSON path")
    p.add_argument("--plots", default=None, help="directory for plot-data files")
    p.add_argument("--quick", action="store_true", help="reduced grids for smoke runs")
    p.add_argument("--extended", action="store_true",
                   help="include the long-branch fold recording")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
