"""The simulation study, one ``dirgof`` call per cell.

size   empirical size over the CLI's default grid of 20 bandwidths
power  empirical power under the scenario deviations, fixed or, with
       --local-alt, shrinking at the critical drift rate
qq     the standardized statistic of the no-effect model at h = 0.5 n^(-r),
       r = 1/3 and 1/5, with its Kolmogorov-Smirnov and Shapiro-Wilk p-values

Traces run at desk scale (minutes) unless --full (S1-S4, q = 1..3,
n = 100/250/500, M = B = 1000; hours).  A cell writes what ``dirgof ... --out``
writes for its arguments; the first failing cell stops with the CLI's exit code.
"""

import argparse
import itertools
import time
from pathlib import Path

from dirgof import cli

# scenarios, dimensions, sample sizes, Monte Carlo trials, bootstrap replicates
FULL = (("S1", "S2", "S3", "S4"), (1, 2, 3), (100, 250, 500), 1000, 1000)
DESK = {"size": (("S1", "S2"), (1,), (100,), 500, 200),
        "power": (("S1",), (1,), (100, 250), 500, 200)}


def trace_cells(args):
    scenarios, dims, sizes, trials, bootstrap = FULL if args.full else DESK[args.experiment]
    command = "trace" if args.experiment == "size" else "power"
    local_alt = getattr(args, "local_alt", False)  # a power flag
    tag, extra = ("localalt", ["--local-alt"]) if local_alt else (args.experiment, [])
    for scenario, q, n in itertools.product(scenarios, dims, sizes):
        yield f"{tag}_{scenario}_q{q}_n{n}.csv", [
            "--command", command, "--scenario", scenario, "--q", str(q), "--n", str(n),
            "--M", str(trials), "--B", str(bootstrap), *extra]


def qq_cells(args):
    for size in args.sizes.split(","):
        n = int(size) if size.strip().isdecimal() else 0  # the CLI's --n refuses what is left
        for exponent, label in ((1.0 / 3.0, "r13"), (1.0 / 5.0, "r15")):
            yield f"qq_n{n}_{label}.csv", [
                "--command", "qqcheck", "--scenario", "QQ", "--q", "1", "--n", size,
                "--M", args.trials, "--h", str(0.5 * n**-exponent if n else float("nan"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    experiments = parser.add_subparsers(dest="experiment", required=True)
    for name, seed in (("size", "8"), ("power", "8"), ("qq", "606")):
        sub = experiments.add_parser(name)
        if name == "qq":
            sub.add_argument("--sizes", default="100,5000")
            sub.add_argument("--trials", default="500")
        else:
            sub.add_argument("--full", action="store_true", help="full-scale sweep")
        if name == "power":
            sub.add_argument("--local-alt", action="store_true")
        sub.add_argument("--out-dir", default=Path("results", name), type=Path)
        sub.add_argument("--seed", default=seed)
        sub.add_argument("--workers", default="1")
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, cell in (qq_cells if args.experiment == "qq" else trace_cells)(args):
        started, path = time.time(), args.out_dir / name
        rc = cli.main([*cell, "--seed", args.seed, "--workers", args.workers, "--out", str(path)])
        if rc:
            return rc
        print(f"{path}  ({time.time() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
