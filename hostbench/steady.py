#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and report each metric's
median and interquartile spread (IQR as a share of the median).

    python3 hostbench/steady.py --workload fig31-point --runs 10
    python3 hostbench/steady.py --runs 10 --out set1.json
    python3 hostbench/steady.py --runs 10 --compare set1.json

Each run uses its own seed.  A spread at or above a third of the
metric's bound in ``BENCHMARK.json`` is flagged (``setup_s`` excepted,
whose spread is not gated); ``--compare`` also flags a median that got
worse than an earlier set's by more than the bound.  Exits 1 when
anything is flagged or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here")
    parser.add_argument("--compare", help="an earlier --out file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) \
        if args.compare else {}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results, flagged = {}, []
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            if not result["correct"]:
                flagged.append(f"{workload} seed {seed}: "
                               f"{result['failed']} failed")
        results[workload] = runs
        print(f"== {workload}: {len(runs)} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            spread_share = spread(values) if len(values) > 1 else 0.0
            line = (f"  {name:<28} median {median:14.6g}  "
                    f"spread {spread_share:7.2%}")
            metric = bounds.get(name)
            if metric is not None:
                line += f"  bound {metric['bound']:.0%}"
                if name != "setup_s" \
                        and spread_share >= metric["bound"] / 3:
                    flagged.append(f"{workload} {name} spread "
                                   f"{spread_share:.2%}")
                    line += "  <-- spread"
                before = earlier.get(workload)
                if before:
                    base = statistics.median(
                        run["metrics"][name]["value"] for run in before)
                    change = (median - base) / base
                    worse = -change if metric["better"] == "higher" \
                        else change
                    line += f"  vs earlier {change:+.2%}"
                    if worse > metric["bound"]:
                        flagged.append(f"{workload} {name} worse by "
                                       f"{worse:.2%}")
                        line += "  <-- worse"
            print(line)
            print("    " + " ".join(f"{value:.4g}" for value in values))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    for item in flagged:
        print(f"FLAG {item}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
