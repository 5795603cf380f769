#!/usr/bin/env python3
"""dirgof benchmark: one workload, one closed-loop client, for a fixed time.

    python3 perfbench/run.py --workload trace-s1-q2-p0 --seed 0 --seconds 34 --trace 0

Run it from anywhere inside a checkout whose ``src/dirgof`` holds the
package; it exits with status 2 and prints no result when that is missing.
Each operation starts after the previous one finished: a trace workload
calls ``simsuite.significance_trace`` for one Monte Carlo trial, the test
workload spawns one ``python -m dirgof --command test`` process.  Every
output is checked (see ``check_trace`` and ``check_test``).

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, measured untraced.  ``--trace 1`` gives the
per-layer metrics: operations alternate between untraced and traced, where
traced means the wrappers of ``tracing.py`` sit on the public function each
layer is entered through.  Samples, checks, the environment and the spans
go to a sidecar under ``perfbench/out/``.

``--smoke`` shrinks every workload (small n and B, 3 bandwidths, a small
quadrature) so a run takes seconds; ``--make-reference`` rewrites
``reference.json`` from the code as it stands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
import zlib
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads and inherited by every child.  On
# a 2-core box the default of 2 threads made trials slower and noisier.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
ALPHAS = (0.01, 0.05, 0.10)
REL_TOL = 1e-10
# fresh set-up processes before and after the timed loop, so that setup_s
# spans the run instead of one moment of a host whose speed drifts
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 3, 2
CALL_TIMEOUT_S = 120

WORKLOADS = {
    "trace-s1-q2-p0": {
        "kind": "trace", "scenario": "S1", "q": 2, "n": 500, "B": 1000, "p": 0,
        "dominant": "goftest.statistic_s", "reference_trials": 48,
    },
    "trace-s4-q2-p0": {
        "kind": "trace", "scenario": "S4", "q": 2, "n": 250, "B": 200, "p": 0,
        "dominant": "parfit.fit_batch_s", "reference_trials": 24,
    },
    "test-q3-p1": {
        "kind": "test", "scenario": "S2", "q": 3, "n": 250, "B": 1000, "p": 1,
        "h": 0.5, "family": "linear", "dominant": "locreg.weight_rows_s",
    },
}
SMOKE = {"n": 40, "B": 20, "h_grid": (0.3, 0.6, 1.2), "quad_res": {2: 12, 3: 400},
         "reference_trials": 2}

# per-layer metric -> the spans whose self time it sums; the entry point is
# significance_trace on the traces and cli.main on the test workload
LAYER_METRICS = {
    "sphere.quadrature_s": ("sphere.build_quadrature",),
    "density.sample_s": ("density.density_sample",),
    "locreg.kernel_matrix_s": ("locreg.kernel_weight_matrix",),
    "locreg.weight_rows_s": ("locreg.weight_rows",),
    "goftest.node_cache_s": ("goftest.node_cache",),
    "parfit.fit_s": ("parfit.fit",),
    "parfit.fit_batch_s": ("parfit.fit_batch",),
    "goftest.statistic_s": ("goftest.statistic_from_residuals",),
    "goftest.bootstrap_test_s": ("goftest.bootstrap_test",),
    "entry.self_s": ("simsuite.significance_trace", "cli.main"),
}
COUNT_METRICS = (
    "sphere.nodes", "locreg.kernel_matrix.entries", "locreg.weight_rows.nodes",
    "locreg.regularized_nodes", "parfit.refit.rows", "goftest.statistic.calls",
    "goftest.statistic.flops", "goftest.statistic.bytes",
)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- set-up probes


def setup_probes(spec: dict, smoke: bool, count: int) -> tuple[list[float], list[float]]:
    """Spawn-to-exit seconds of fresh set-up processes, and their import times."""
    if spec["kind"] == "test":
        argv = ["cli"]
    else:
        argv = ["trace", spec["scenario"], str(spec["q"])]
        if smoke:
            argv.append(str(SMOKE["quad_res"][spec["q"]]))
    walls, imports = [], []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", 3)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


# ------------------------------------------------------------------ environment


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, asked through its own API."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "blas_pinning": " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
        + " set by run.py before numpy loads; children inherit it",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------------ seeds


def derive(seed: int, workload: str, *key: int) -> int:
    """A 32-bit seed for one input of one workload, from the workload seed."""
    import numpy as np

    sequence = np.random.SeedSequence([seed, zlib.crc32(workload.encode()), *key])
    return int(sequence.generate_state(1)[0])


# -------------------------------------------------------------------- workloads


def make_context(name: str, seed: int, smoke: bool) -> dict:
    """Sizes, seeds and the set-up of one workload; inputs come from ``seed``."""
    import numpy as np

    from dirgof import simsuite

    spec = WORKLOADS[name]
    ctx = {
        "name": name, "spec": spec, "seed": seed, "smoke": smoke,
        "n": SMOKE["n"] if smoke else spec["n"],
        "B": SMOKE["B"] if smoke else spec["B"],
        "quad_res": SMOKE["quad_res"][spec["q"]] if smoke else None,
        "scenario": simsuite.make_scenario(spec["scenario"], spec["q"]),
    }
    if spec["kind"] == "trace":
        from dirgof import goftest

        ctx["h_grid"] = np.array(SMOKE["h_grid"]) if smoke else np.geomspace(0.1, 1.5, 20)
        goftest.default_quadrature(spec["q"], ctx["quad_res"])
    else:
        ctx["csv"] = OUT / f"{name}-seed{seed}{'-smoke' if smoke else ''}.csv"
        ctx["cli_seed"] = derive(seed, name, 2)
    return ctx


def write_test_csv(ctx: dict) -> None:
    """The test input: a null sample of the scenario's design, unit rows."""
    import numpy as np

    from dirgof import simsuite

    rng = np.random.default_rng(np.random.SeedSequence([ctx["seed"], zlib.crc32(ctx["name"].encode()), 1]))
    x, y = simsuite.generate(ctx["scenario"], ctx["n"], rng)
    header = [f"x{i + 1}" for i in range(x.shape[1])] + ["y"]
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in (*row, resp)) for row, resp in zip(x, y)]
    ctx["csv"].write_text("\n".join(lines) + "\n")


def cli_argv(ctx: dict, out_path: Path) -> list[str]:
    spec = ctx["spec"]
    argv = [
        "--command", "test", "--data", str(ctx["csv"]), "--family", spec["family"],
        "--p", str(spec["p"]), "--h", str(spec["h"]), "--B", str(ctx["B"]),
        "--seed", str(ctx["cli_seed"]), "--out", str(out_path),
    ]
    if ctx["quad_res"] is not None:
        argv += ["--quad-res", str(ctx["quad_res"])]
    return argv


def run_trial(ctx: dict, index: int):
    from dirgof import simsuite

    return simsuite.significance_trace(
        ctx["scenario"], n=ctx["n"], h_grid=ctx["h_grid"], trials=1, bootstrap=ctx["B"],
        alphas=ALPHAS, seed=derive(ctx["seed"], ctx["name"], 0, index),
        degree=ctx["spec"]["p"], quad_resolution=ctx["quad_res"],
    )


def spawn_cli(ctx: dict, out_path: Path) -> tuple[int, str]:
    """One CLI process, killed after CALL_TIMEOUT_S: its exit code and stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "dirgof", *cli_argv(ctx, out_path)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT_S,
    )
    return proc.returncode, proc.stderr


# ----------------------------------------------------------------------- checks


def _on_grid(p: float, B: int) -> bool:
    return 0.0 <= p <= 1.0 and abs(p * B - round(p * B)) < 1e-9


def _rel_close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_trace(result, ctx: dict, reference: list | None) -> list[str]:
    """Problems with one trial's trace; ``reference`` is its expected p-values."""
    import numpy as np

    problems = []
    p = np.asarray(result.p_values)
    if p.shape != (1, len(ctx["h_grid"])):
        return [f"p-value matrix has shape {p.shape}, expected (1, {len(ctx['h_grid'])})"]
    row = p[0]
    if not all(np.isfinite(v) and _on_grid(float(v), ctx["B"]) for v in row):
        problems.append(f"p-values off the grid k/{ctx['B']} in [0, 1]: {row.tolist()}")
    expected = (row[:, None] < np.asarray(ALPHAS)[None, :]).astype(float)
    if not np.array_equal(result.rejections, expected):
        problems.append("rejection rates disagree with the p-values")
    if reference is not None and row.tolist() != reference:
        problems.append(f"p-values differ from the reference: {row.tolist()} != {reference}")
    return problems


def check_test(code: int, payload: str, ctx: dict, reference: dict | None) -> list[str]:
    """Problems with one CLI call: exit code, JSON contents, reference, determinism."""
    import math

    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(payload)
        p = out["p_value"]
        stat = out["statistic"]
        theta = out["theta_hat"]
        quantiles = out["bootstrap"]["quantiles"]
        replicates = out["bootstrap"]["replicates"]
        failed = out["flags"]["failed_replicates"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed result JSON: {exc!r}"]
    problems = []
    if not _on_grid(p, ctx["B"]):
        problems.append(f"p_value {p} off the grid k/{ctx['B']} in [0, 1]")
    values = [stat, *quantiles.values()]
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("statistic or bootstrap quantiles not finite and >= 0")
    if not all(math.isfinite(v) for v in theta):
        problems.append("theta_hat not finite")
    if replicates != ctx["B"] or not isinstance(failed, int) or failed < 0:
        problems.append(f"replicates {replicates} or failed_replicates {failed!r} wrong")
    if reference is not None:
        if p != reference["p_value"]:
            problems.append(f"p_value {p} != reference {reference['p_value']}")
        pairs = [(stat, reference["statistic"]), *zip(theta, reference["theta_hat"])]
        pairs += [(quantiles.get(k, math.nan), v) for k, v in reference["quantiles"].items()]
        if len(theta) != len(reference["theta_hat"]) or not all(_rel_close(a, b) for a, b in pairs):
            problems.append(f"statistic, theta_hat or quantiles differ from the reference by > {REL_TOL} relative")
    first = ctx.setdefault("first_payload", payload)
    if payload != first:
        problems.append("output differs from the first call of this run at the same seed")
    return problems


def load_reference(ctx: dict):
    """The committed outputs for this workload, when the seed is the default."""
    if ctx["seed"] != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())["smoke" if ctx["smoke"] else "full"]
    return table.get(ctx["name"])


# ------------------------------------------------------------------- operations


def one_op(ctx: dict, index: int, reference, tracer, traced: bool) -> tuple[float, list[str], bool]:
    """Run operation ``index``: seconds, problems found, whether the reference was used.

    With a tracer the test workload calls ``cli.main`` in-process.  A traced
    operation's root span holds the timed call only, not the check, and its
    duration is the operation's seconds.
    """
    scope = tracer.op(f"op{index}") if traced else nullcontext()
    if ctx["spec"]["kind"] == "trace":
        start = perf_counter()
        with scope as span:
            result = run_trial(ctx, index)
        seconds = span.duration if traced else perf_counter() - start
        expected = None
        if reference is not None and index < len(reference["p_values"]):
            expected = reference["p_values"][index]
        return seconds, check_trace(result, ctx, expected), expected is not None
    out_path = OUT / f"{ctx['name']}-seed{ctx['seed']}-call.json"
    out_path.unlink(missing_ok=True)
    stderr = ""
    start = perf_counter()
    if tracer is not None:
        from dirgof import cli

        with scope as span:
            code = cli.main(cli_argv(ctx, out_path))
    else:
        code, stderr = spawn_cli(ctx, out_path)
    seconds = span.duration if traced else perf_counter() - start
    payload = out_path.read_text() if out_path.is_file() else ""
    problems = check_test(code, payload, ctx, reference)
    if code != 0 and stderr:
        problems.append(stderr.strip()[-2000:])
    return seconds, problems, reference is not None


def closed_loop(ctx: dict, seconds: float, tracer=None) -> list[dict]:
    """Operations back to back until ``seconds`` have passed (at least one).

    With a tracer, even-numbered operations run traced and odd ones untraced,
    so the tracing overhead is measured within the run.
    """
    reference = load_reference(ctx)
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        index = len(ops)
        traced = tracer is not None and index % 2 == 0
        record = {"index": index, "traced": traced, "started": perf_counter() - start}
        try:
            record["seconds"], problems, compared = one_op(ctx, index, reference, tracer, traced)
        except Exception:  # one failed operation must not end the run
            record["seconds"] = perf_counter() - start - record["started"]
            problems, compared = [traceback.format_exc()], False
        record.update(problems=problems, ok=not problems, compared=compared, ended=perf_counter() - start)
        ops.append(record)
    return ops


# ---------------------------------------------------------------------- metrics


def end_to_end(ctx: dict, ops: list[dict], setup_walls: list[float]) -> dict:
    import resource

    good = [op for op in ops if op["ok"]] or ops
    seconds = [op["seconds"] for op in good]
    elapsed = max(op["ended"] for op in ops)
    # the CLI children on test (the set-up probes, which only import, are
    # far smaller); this process on the traces
    who = resource.RUSAGE_CHILDREN if ctx["spec"]["kind"] == "test" else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "ops_per_s": {"value": sum(op["ok"] for op in ops) / elapsed, "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(seconds), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(ctx: dict, ops: list[dict], tracer, imports: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus facts for the report."""
    per_op = tracer.self_times()
    real = [f"op{op['index']}" for op in ops if op["traced"] and op["ok"]]
    fallback = [o for o in per_op if o not in real and o != ""]

    def median_of(keys: tuple, source: int) -> float:
        """Median over the traced ops that ran any of ``keys``, of their sum.

        A layer that no traced op runs (the sampler on the test workload,
        which runs only to write the input) is taken from the input op.
        """
        for group in (real, fallback):
            table = [per_op[o][source] for o in group]
            values = [sum(t.get(k, 0) for k in keys) for t in table if any(k in t for k in keys)]
            if values:
                return statistics.median(values)
        return 0.0

    metrics = {}
    for metric, spans in LAYER_METRICS.items():
        metrics[metric] = {"value": median_of(spans, 0), "unit": "s"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": median_of((name,), 1), "unit": "bytes" if name.endswith(".bytes") else "count"}
    rows = sum(per_op[o][1].get("parfit.refit.rows", 0) for o in real)
    failed = sum(per_op[o][1].get("parfit.refit.failed", 0) for o in real)
    metrics["parfit.refit.failed"] = {"value": failed, "unit": "count"}
    metrics["parfit.refit.converged_ratio"] = {"value": (rows - failed) / rows if rows else 1.0, "unit": "ratio"}
    metrics["entry.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    traced = [op["seconds"] for op in ops if op["traced"] and op["ok"]]
    untraced = [op["seconds"] for op in ops if not op["traced"] and op["ok"]]
    op_s = statistics.median(traced) if traced else 0.0
    metrics["trace.op_s"] = {"value": op_s, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": median_of(("op",), 0), "unit": "s"}
    overhead = op_s / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}

    layer_times = {m: v["value"] for m, v in metrics.items()
                   if v["unit"] == "s" and m not in ("entry.import_s", "trace.op_s", "trace.untraced_s")}
    dominant = ctx["spec"]["dominant"]
    largest = max(layer_times, key=layer_times.get)
    # per traced op, from its spans: the root span is the timed call, so its
    # duration is the layers' self times plus the root's own (the remainder)
    accounts = []
    for o in real:
        times = per_op[o][0]
        remainder = times.get("op", 0.0)
        layers = sum(times.values()) - remainder
        accounts.append({"op": o, "layers_s": layers, "untraced_s": remainder, "op_s": layers + remainder})
    facts = {
        "predicted_dominant": dominant,
        "largest_layer": largest,
        "dominant_held": largest == dominant,
        "dominant_share": layer_times[dominant] / op_s if op_s else None,
        "accounts": accounts,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
    }
    return metrics, facts


def register_layers(tracer) -> None:
    """Put each layer's entry function, and the counts its calls record, on the tracer."""
    from dirgof import density, goftest, locreg, parfit, simsuite

    def quad(args, kwargs, result):
        return {"sphere.nodes": result.node_count}

    def kernel(args, kwargs, result):
        return {"locreg.kernel_matrix.entries": int(result.size)}

    def rows(args, kwargs, result):
        return {"locreg.weight_rows.nodes": int(result[0].shape[0]),
                "locreg.regularized_nodes": int(result[1].sum())}

    def refits(args, kwargs, result):
        converged = result[2]
        return {"parfit.refit.rows": int(converged.size),
                "parfit.refit.failed": int((~converged).sum())}

    def stat(args, kwargs, result):
        import numpy as np

        m, n = args[0].rows.shape
        residuals = np.asarray(args[1])
        r = 1 if residuals.ndim == 1 else residuals.shape[0]
        # computed from array sizes: read rows and residuals, write the
        # smoothed block, read it and write its square, read node factors
        return {"goftest.statistic.calls": 1, "goftest.statistic.flops": 2 * m * n * r,
                "goftest.statistic.bytes": 8 * (m * n + r * n + 3 * m * r + m + r)}

    tracer.target(goftest, "build_quadrature", "sphere.build_quadrature", quad)
    tracer.target(density, "density_sample", "density.density_sample")
    tracer.target(locreg, "kernel_weight_matrix", "locreg.kernel_weight_matrix", kernel)
    tracer.target(locreg, "weight_rows", "locreg.weight_rows", rows)
    tracer.target(goftest, "node_cache", "goftest.node_cache")
    # the warm start fit_batch makes through fit stays in fit_batch (tracing.py)
    tracer.target(parfit, "fit", "parfit.fit")
    tracer.target(parfit, "fit_batch", "parfit.fit_batch", refits)
    tracer.target(goftest, "statistic_from_residuals", "goftest.statistic_from_residuals", stat)
    tracer.target(goftest, "bootstrap_test", "goftest.bootstrap_test")
    tracer.target(simsuite, "significance_trace", "simsuite.significance_trace")
    from dirgof import cli

    tracer.target(cli, "main", "cli.main")


# ------------------------------------------------------------------------ main


def make_reference() -> None:
    """Rewrite reference.json from this code at the default seed."""
    table = {"seed": DEFAULT_SEED}
    for mode, smoke in (("full", False), ("smoke", True)):
        table[mode] = {}
        for name, spec in WORKLOADS.items():
            ctx = make_context(name, DEFAULT_SEED, smoke)
            if spec["kind"] == "trace":
                count = SMOKE["reference_trials"] if smoke else spec["reference_trials"]
                rows = [run_trial(ctx, i).p_values[0].tolist() for i in range(count)]
                table[mode][name] = {"p_values": rows}
            else:
                write_test_csv(ctx)
                out_path = OUT / f"{name}-reference.json"
                code, stderr = spawn_cli(ctx, out_path)
                if code != 0:
                    fail(f"reference call failed:\n{stderr}", 3)
                out = json.loads(out_path.read_text())
                table[mode][name] = {
                    "p_value": out["p_value"], "statistic": out["statistic"],
                    "theta_hat": out["theta_hat"], "quantiles": out["bootstrap"]["quantiles"],
                }
            print(f"reference {mode} {name} done", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--make-reference", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "dirgof" / "__init__.py").is_file():
        fail(f"no dirgof package under {SRC}; run from a checkout of the repository")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not args.make_reference and args.workload is None:
        fail("--workload is required")
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import dirgof

    if Path(dirgof.__file__).resolve().parent.parent != SRC:
        fail(f"imported dirgof from {dirgof.__file__}, not from {SRC}")
    if args.make_reference:
        make_reference()
        return 0

    spec = WORKLOADS[args.workload]
    setup_walls, imports = setup_probes(spec, args.smoke, SETUP_PROBES_BEFORE)
    env = environment(args.seed)
    ctx = make_context(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        register_layers(tracer)
    if spec["kind"] == "test":
        if tracer is None:
            write_test_csv(ctx)
        else:
            with tracer.op("input"):
                write_test_csv(ctx)

    ops = closed_loop(ctx, args.seconds, tracer)
    walls, more = setup_probes(spec, args.smoke, SETUP_PROBES_AFTER)
    setup_walls += walls
    imports += more
    failed = sum(not op["ok"] for op in ops)
    if tracer is None:
        metrics = end_to_end(ctx, ops, setup_walls)
        facts = {}
    else:
        metrics, facts = per_layer(ctx, ops, tracer, imports)

    compared = sum(op["compared"] for op in ops)
    op_kind = "trial" if spec["kind"] == "trace" else "call"
    print(f"# dirgof benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"check {len(ops)} {op_kind}s, {len(ops) - failed} passed, {failed} failed; "
          f"{compared} compared with the reference at seed {DEFAULT_SEED}")
    for op in ops:
        for problem in op["problems"]:
            print(f"problem {op_kind} {op['index']}: {problem}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    if tracer is None:
        # per-kind names of the same samples: trials on the traces, calls on test
        prefix = "trials" if op_kind == "trial" else "calls"
        print(f"alias {prefix}_per_s = ops_per_s; {op_kind}_s_p50 = op_s_p50")
        print(f"metric failed_frac {failed / len(ops)!r} ratio ({failed}/{len(ops)})")
    else:
        held = "held" if facts["dominant_held"] else "did not hold"
        print(f"layers: predicted dominant {facts['predicted_dominant']} {held} "
              f"(largest self time: {facts['largest_layer']}; share of traced "
              f"{op_kind}: {facts['dominant_share']!r})")
        for account in facts["accounts"]:
            print(f"layers: {op_kind} {account['op'][2:]}: layer self times {account['layers_s']!r} s "
                  f"+ untraced remainder {account['untraced_s']!r} s = traced {op_kind} {account['op_s']!r} s")

    sidecar = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    sidecar.write_text(json.dumps({
        "args": vars(args), "env": env, "ops": ops, "setup_s": setup_walls,
        "import_s": imports, "metrics": metrics, "facts": facts,
        "spans": tracer.dump() if tracer is not None else [],
    }, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
