"""Run one benchmark workload and print its metrics as the last line (JSON).

    python3 perfbench/run.py --workload descent --seed 1 --seconds 24 --trace 0

--trace 0 measures the end-to-end metrics (no wrappers installed).
--trace 1 runs a fixed number of rounds three times: untraced, traced and
untraced again.  It reports the per-layer metrics of the traced pass, with
the tracing overhead measured against the mean of the untraced passes, and
writes the spans under .perfbench_out/.  The library is imported from src/ of this checkout, with
BLAS limited to as many threads as this process may use CPUs.
"""

from __future__ import annotations

import os
import sys

CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: set-up is repeated at least SETUP_MIN times, and up to SETUP_MAX times
#: while the repetitions take less than SETUP_BUDGET_S together
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 1.0
#: seconds one round takes on the reference machine (see README.md); a run
#: makes round(--seconds / ROUND_S) rounds, at least one, so that every run of
#: a workload does the same work, whatever the seed and the machine's speed
ROUND_S = {"descent": 1.85, "stability": 22.5, "branch": 6.9, "short-solves": 8.5}
#: rounds of the traced pass; fixed so that counts compare across commits
TRACE_ROUNDS = {"descent": 3, "stability": 1, "branch": 1, "short-solves": 1}


def clear_library_caches() -> None:
    """Empty every functools cache in the efk modules, so that set-up is cold."""
    for name, module in list(sys.modules.items()):
        if name == "efk" or name.startswith("efk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed_setup(setup, seed):
    clear_library_caches()
    t0 = time.perf_counter()
    round_ops = setup(seed)
    return round_ops, time.perf_counter() - t0


def run_rounds(round_ops, rounds):
    """Run `rounds` whole rounds.  Returns (results, times, attempted, failed,
    elapsed); results pair each completed op with its output.

    Every round starts from cold library caches, as a fresh scorecard entry
    does."""
    results, times, failures = [], [], {}
    attempted = 0
    start = time.perf_counter()
    for index in range(rounds):
        clear_library_caches()
        for op in round_ops(index):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.setdefault(op.name, repr(exc))
                continue
            times.append(time.perf_counter() - t0)
            results.append((op, out))
    elapsed = time.perf_counter() - start
    for name, reason in failures.items():
        print(f"operation {name} failed: {reason}", file=sys.stderr)
    return results, times, attempted, attempted - len(times), elapsed


def check_all(results, checks_mod) -> bool:
    correct = True
    for op, out in results:
        try:
            op.check(out)
        except checks_mod.CheckFailed as exc:
            print(f"check of {op.name} failed: {exc}", file=sys.stderr)
            correct = False
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "efk" / "__init__.py").is_file():
        print(f"efk sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from tracing import METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]

    if args.trace == 0:
        setups = []
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and
                                          sum(t for _, t in setups) < SETUP_BUDGET_S):
            setups.append(timed_setup(setup, args.seed))
        round_ops = setups[-1][0]
        rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        results, times, attempted, failed, elapsed = run_rounds(round_ops, rounds)
        correct = check_all(results, checks)
        metrics = {
            "solve_s": (statistics.median(times) if times else float("nan"), "s"),
            "solves_per_s": (len(times) / elapsed, "1/s"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        round_ops, _ = timed_setup(setup, args.seed)
        rounds = TRACE_ROUNDS[args.workload]
        # untraced passes before and after the traced one, so that warm-up
        # left outside the library caches biases neither side
        before = run_rounds(round_ops, rounds)
        with Tracer() as tracer:
            results, _, attempted, failed, elapsed = run_rounds(round_ops, rounds)
        after = run_rounds(round_ops, rounds)
        correct = check_all(before[0], checks) and check_all(results, checks)
        values = tracer.metrics(overhead_s=elapsed - 0.5 * (before[4] + after[4]))
        metrics = {name: (values[name], unit) for name, unit in METRICS.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    print(json.dumps({
        "correct": bool(correct) and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
