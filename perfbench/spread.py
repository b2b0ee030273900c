#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads graph-large boot-small --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20 --trace 0 1 \
        -o perfbench/baseline.json

For each workload and metric it prints the median of the per-run values, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Each end-to-end spread,
``setup_s``'s too, is marked ``ok`` below a third of the metric's bound in
``BENCHMARK.json``, else ``> bound/3`` or ``> bound``.  It fails if any run
exits non-zero, reports ``correct: false`` or counts a failed invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def layer_shares(per_layer: dict) -> dict[str, float]:
    """Each layer call's median self time as a share of the traced pipeline
    (``trace.total_s``); set-up layers (``gen.*``) are outside it."""
    total = per_layer["trace.total_s"]["median"]
    return {
        name[: -len(".self_s")]: stats["median"] / total
        for name, stats in sorted(per_layer.items(), key=lambda kv: -kv[1]["median"])
        if name.endswith(".self_s") and not name.startswith("gen.") and stats["median"]
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    parser.add_argument("-o", "--output", help="write the summary as JSON")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    bad = False
    for workload in args.workloads:
        entry = summary["workloads"].setdefault(workload, {})
        for trace in args.trace:
            results, elapsed = [], []
            for seed in args.seeds:
                result, took = run_once(workload, seed, args.seconds, trace)
                results.append(result)
                elapsed.append(took)
                if not result["correct"] or result["failed"]:
                    bad = True
                    print(f"{workload} seed {seed} trace {trace}: incorrect or failed runs",
                          file=sys.stderr)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {
                name: dict(describe([r["metrics"][name]["value"] for r in results]),
                           unit=results[0]["metrics"][name]["unit"])
                for name in results[0]["metrics"]
            }
            if trace:
                entry["layer_share"] = layer_shares(entry[key])
            entry[key + "_attempted"] = sum(r["attempted"] for r in results)
            entry[key + "_failed"] = sum(r["failed"] for r in results)
            entry[key + "_run_seconds"] = describe(elapsed)
            print(f"{workload} trace {trace}: {len(results)} runs, "
                  f"{statistics.median(elapsed):.1f} s per run (max {max(elapsed):.1f})")
            for name, stats in entry[key].items():
                if trace and not stats["median"]:
                    continue
                bound = bounds.get(name)
                note = ""
                if bound is not None:
                    if stats["spread"] < bound / 3:
                        note = "  ok"
                    elif stats["spread"] <= bound:
                        note = f"  > bound/3 ({bound / 3:.4f})"
                    else:
                        note = f"  > bound ({bound:.4f})"
                print(f"  {name:45s} median {stats['median']:.6g} {stats['unit']:5s} "
                      f"quartiles {stats['q1']:.6g}..{stats['q3']:.6g} "
                      f"spread {stats['spread']:.4f}{note}")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
