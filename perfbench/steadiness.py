#!/usr/bin/env python3
"""Steadiness report: the same code run several times, each run on another seed.

    python3 perfbench/steadiness.py --runs 10 [--sets 2]

For each workload of BENCHMARK.json and each end-to-end metric it gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
A spread above the metric's bound in BENCHMARK.json is flagged ``OVER``; one
above a third of it ``wide``.  With ``--sets 2`` the runs form two sets and
a second-set median worse than the first by more than the bound is flagged.
Per-operation samples of all untraced runs are pooled for the tail: the
highest order statistic with ten samples beyond it, with its level and the
sample count.  One traced run per workload gives the tracing overhead,
both within the traced run and against the untraced median.  Seeds count
up from 100.  Runs are
interleaved across workloads so slow spells on the machine spread over all
of them.  The report is printed and written to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT  # noqa: E402

FIRST_SEED = 100
TAIL_MIN_SAMPLES = 40


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest order statistic with ten samples beyond it, and its percentile.

    None below 40 samples, where that statistic would sit under the 75th
    percentile and say nothing about the tail.
    """
    if len(samples) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"{result['attempted']} ops, " + ", ".join(
              f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
              if trace == 0 or k.startswith("trace.")), flush=True)
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    flag = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "flag": flag}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m for m in config["end_to_end"]}

    untraced = {name: [[] for _ in range(args.sets)] for name in names}
    seed = FIRST_SEED
    for s in range(args.sets):
        for _ in range(args.runs):
            for name in names:
                untraced[name][s].append((seed, run_once(config, name, seed, 0)))
            seed += 1
    traced = {name: run_once(config, name, seed, 1) for name in names}

    report = {}
    for name in names:
        entry = {"metrics": {}, "sets": []}
        for s, runs in enumerate(untraced[name]):
            summary = {m: summarize([r["metrics"][m]["value"] for _, r in runs], bounds[m]["bound"])
                       for m in bounds}
            entry["sets"].append(summary)
        entry["metrics"] = {m: summarize([r["metrics"][m]["value"] for runs in untraced[name] for _, r in runs],
                                         bounds[m]["bound"]) for m in bounds}
        for m, info in bounds.items():
            if args.sets > 1:
                first, second = entry["sets"][0][m]["median"], entry["sets"][1][m]["median"]
                worse = (second - first) / first if info["better"] == "lower" else (first - second) / first
                entry["metrics"][m]["second_set_worse_by"] = worse
                entry["metrics"][m]["second_set_flag"] = "OVER" if worse > info["bound"] else "ok"
        pooled = []
        for runs in untraced[name]:
            for run_seed, _ in runs:
                sidecar = json.loads((OUT / f"{name}-seed{run_seed}-trace0.json").read_text())
                pooled += [op["seconds"] for op in sidecar["ops"] if op["ok"]]
        found = tail(pooled)
        entry["op_s_tail"] = {"value": found[0], "percentile": found[1], "samples": len(pooled)} if found else None
        entry["correct"] = all(r["correct"] for runs in untraced[name] for _, r in runs)
        entry["failed"] = sum(r["failed"] for runs in untraced[name] for _, r in runs)
        entry["attempted"] = sum(r["attempted"] for runs in untraced[name] for _, r in runs)
        op_median = entry["metrics"]["op_s_p50"]["median"]
        t = traced[name]["metrics"]
        entry["trace_overhead"] = {"within_run": t["trace.overhead_frac"]["value"],
                                   "against_untraced_median": t["trace.op_s"]["value"] / op_median - 1.0}
        report[name] = entry

    print("\nworkload          metric        median       q1           q3           spread  bound  flag")
    for name, entry in report.items():
        for m, s in entry["metrics"].items():
            second = f"  2nd set worse by {s['second_set_worse_by']:+.3f} {s['second_set_flag']}" \
                if "second_set_worse_by" in s else ""
            print(f"{name:17} {m:13} {s['median']:<12.6g} {s['q1']:<12.6g} {s['q3']:<12.6g} "
                  f"{s['spread']:.4f}  {s['bound']:<5} {s['flag']}{second}")
        t = entry["op_s_tail"]
        if t:
            print(f"{name:17} op_s_tail     {t['value']:.6g} s at p{t['percentile']:.1f} of {t['samples']} pooled samples")
        print(f"{name:17} failed        {entry['failed']}/{entry['attempted']}, correct {entry['correct']}")
        t = entry["trace_overhead"]
        print(f"{name:17} trace overhead {t['within_run']:+.4f} within the traced run, "
              f"{t['against_untraced_median']:+.4f} against the untraced median")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
