"""Regenerate the reference figures: run every workload on several seeds, one
run at a time, and print each metric's median and quartile spread.

    python3 perfbench/reference.py --seeds 1-10 --trace 0
    python3 perfbench/reference.py --seeds 1-3 --trace 1 --workloads descent

The spread is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        rows = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        print(f"\n{workload} ({len(rows)} runs)")
        print(f"{'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, first in rows[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name + ' [' + first['unit'] + ']':30s} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.4f}")
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print(f"failed share(s): {shares}; all correct: {all(r['correct'] for r in rows)}\n",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
