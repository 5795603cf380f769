"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q

Every workload runs with ``--smoke`` (small n and B, 3 bandwidths, a small
quadrature, at least one operation), untraced and traced.  The test asserts
that each metric BENCHMARK.json declares is emitted with its unit, that the
output check ran and compared with the committed reference at the default
seed, that the check rejects wrong outputs, and that the benchmark refuses
to run where the package is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace, seed=run.DEFAULT_SEED, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workload_names_match_the_runner():
    assert set(WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    check = next(line for line in lines if line.startswith("check "))
    assert " 0 failed; " in check and " 0 compared" not in check, check
    assert any(line.startswith("env ") for line in lines)
    if trace:
        assert any("predicted dominant" in line for line in lines)
    else:
        assert any(line.startswith("metric failed_frac ") for line in lines)


def test_other_seed_runs_the_generic_check():
    proc = bench("trace-s1-q2-p0", 0, seed=7)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    assert " 0 compared with the reference" in proc.stdout


class _Trace:
    def __init__(self, p_values, rejections):
        self.p_values, self.rejections = p_values, rejections


def test_check_trace_rejects_wrong_p_values():
    import numpy as np

    ctx = {"h_grid": np.array([0.3, 0.6]), "B": 20}
    row = np.array([[0.05, 0.5]])
    good = _Trace(row, (row[0][:, None] < np.array(run.ALPHAS)[None, :]).astype(float))
    assert run.check_trace(good, ctx, None) == []
    assert run.check_trace(good, ctx, [0.05, 0.55])
    off_grid = _Trace(np.array([[0.051, 0.5]]), good.rejections)
    assert run.check_trace(off_grid, ctx, None)


def test_check_test_rejects_wrong_outputs():
    ref = {"p_value": 0.5, "statistic": 1.0, "theta_hat": [2.0], "quantiles": {"0.5": 0.75}}
    out = {"p_value": 0.5, "statistic": 1.0, "theta_hat": [2.0],
           "bootstrap": {"quantiles": {"0.5": 0.75}, "replicates": 20},
           "flags": {"failed_replicates": 0}}
    ctx = {"B": 20}
    assert run.check_test(0, json.dumps(out), ctx, ref) == []
    assert run.check_test(3, json.dumps(out), {"B": 20}, ref)
    nudged = dict(out, statistic=1.0 + 1e-9)
    assert run.check_test(0, json.dumps(nudged), {"B": 20}, ref)
    assert run.check_test(0, json.dumps(dict(out, flags={})), {"B": 20}, None)
    assert run.check_test(0, json.dumps(dict(out, p_value=0.51)), {"B": 20}, None)
    # a second call of one run must repeat the first byte for byte
    assert run.check_test(0, json.dumps(dict(out, statistic=1.5)), ctx, None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
