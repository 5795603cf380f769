"""The statistic's two lanes: the same bits whether or not the helper thread
runs the second, errors as if run in order, and no helper in pool workers."""

import os
import threading
import weakref
from functools import partial
from math import pi

import numpy as np
import pytest

from dirgof import cli, goftest, parfit, simsuite
from dirgof.locreg import LocalFitConfig, SingularGramError
from dirgof.sphere import sample_uniform

HELPER = "dirgof-lane-1"


class _HelperLanes(goftest._Lanes):
    """Lanes whose first lane waits until the helper, when on, has begun the
    second, so that the caller never takes the second lane back."""

    def run(self, first, second):
        if not self.helper:  # a pool worker turned it off
            return super().run(first, second)
        begun = threading.Event()

        def first_after_second_began():
            assert begun.wait(10), "the helper did not begin the second lane"
            first()

        def second_begins():
            begun.set()
            second()

        super().run(first_after_second_began, second_begins)


@pytest.fixture(scope="module")
def helper_lanes():
    """Lanes whose second lane always runs on their helper thread."""
    return _HelperLanes(helper=True)


@pytest.fixture
def lane_threads(monkeypatch):
    """Names of the threads that ran a form lane, a Gram lane or a block of
    degree-0 rows."""
    seen = set()
    for name in ("_form_into", "_gram_blocks", "_fill_rows"):
        inner = getattr(goftest, name)

        def spy(*args, inner=inner):
            seen.add(threading.current_thread().name)
            return inner(*args)

        monkeypatch.setattr(goftest, name, spy)
    return seen


def _outputs(q, resolution, degree):
    """Every statistic entry point on one seeded sample, in the Gram (100
    rows), direct (10 rows) and one-row forms, unweighted and weighted."""
    rng = np.random.default_rng(31)
    n = 40
    predictors = sample_uniform(q, n, rng)
    responses = 1.0 + 0.5 * rng.standard_normal(n)
    out = []
    for weight_fn in (None, lambda nodes: 1.0 + nodes[:, 0] ** 2):
        cfg = goftest.GofConfig(
            fit=LocalFitConfig(degree=degree, bandwidth=0.5),
            quadrature=goftest.default_quadrature(q, resolution),
            bootstrap=99,
            weight_fn=weight_fn,
        )
        cache = goftest.node_cache(predictors, cfg)
        out += [cache.rows, cache.node_factor, cache.regularized]
        for r in (100, 10, None):
            residuals = rng.standard_normal(n if r is None else (r, n))
            out += [*goftest.streamed_statistic(predictors, cfg, residuals)]
            out.append(goftest.statistic_from_residuals(cache, residuals))
        result = goftest.bootstrap_test(predictors, responses, parfit.constant_family(), cfg)
        out += [result.statistic, result.bootstrap_statistics]
    trace = simsuite.significance_trace(
        simsuite.make_scenario("S1", q), n=n, h_grid=[0.5, 1.0], trials=1, bootstrap=99,
        seed=4, degree=degree, quad_resolution=resolution,
    )
    return out + [trace.p_values]


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("q, resolution", [(1, None), (2, 72), (3, 4500)])
def test_helper_changes_no_bit(q, resolution, degree, monkeypatch, helper_lanes, lane_threads):
    """With the helper forced off and on, every entry point gives the same
    bits, on one slice (256 nodes) and two (5184 and 4500 nodes); the helper
    really ran the second lanes, and degree-0 rows too."""
    monkeypatch.setattr(goftest, "_LANES", goftest._Lanes(helper=False))
    alone = _outputs(q, resolution, degree)
    assert lane_threads == {threading.current_thread().name}
    monkeypatch.setattr(goftest, "_LANES", helper_lanes)
    lane_threads.clear()
    both = _outputs(q, resolution, degree)
    assert HELPER in lane_threads
    assert len(alone) == len(both)
    for one, two in zip(alone, both):
        assert type(one) is type(two)
        assert np.array_equal(one, two)


def test_lane_errors_reach_the_caller_as_in_order(helper_lanes):
    """An error of the second lane is raised with its type and message, one
    of the first lane comes first, and both lanes have finished on return."""
    ran = []

    def fail(exc):
        ran.append(threading.current_thread().name)
        raise exc

    for exc in (SingularGramError("all 8 nodes have all-zero kernel weights"),
                RuntimeError("non-finite statistic")):
        with pytest.raises(type(exc)) as raised:
            helper_lanes.run(lambda: None, lambda exc=exc: fail(exc))
        assert raised.value is exc and ran.pop() == HELPER
    with pytest.raises(ValueError, match="first"):
        helper_lanes.run(lambda: fail(ValueError("first")), lambda: fail(KeyError("second")))
    assert sorted(ran) == sorted([threading.current_thread().name, HELPER])
    assert not helper_lanes._jobs
    done = []
    helper_lanes.run(lambda: done.append(0), lambda: done.append(1))
    assert sorted(done) == [0, 1]


def test_caller_takes_back_the_lane_of_a_busy_helper():
    """A caller that finishes its lane while the helper is busy with another
    caller's runs the second lane itself, without waiting; the helper then
    serves the next call."""
    lanes = _HelperLanes(helper=True)
    busy, release, ran = threading.Event(), threading.Event(), []

    def occupy():
        busy.set()
        assert release.wait(10)

    other = threading.Thread(target=lanes.run, args=(lambda: None, occupy))
    other.start()
    assert busy.wait(10)
    goftest._Lanes.run(lanes, lambda: None, lambda: ran.append(threading.current_thread().name))
    release.set()
    other.join(10)
    lanes.run(lambda: None, lambda: ran.append(threading.current_thread().name))
    assert ran == [threading.current_thread().name, HELPER]



def test_lanes_keep_no_array_alive(helper_lanes):
    """Once ``run`` returns, neither the helper nor a job the caller took
    back holds the second lane's arrays: a slice buffer kept that way would
    outlive the Gram form and add its size to a trial's peak memory."""
    for lanes in (helper_lanes, goftest._Lanes(helper=True)):
        buffer = np.ones(8)
        alive = weakref.ref(buffer)
        lanes.run(lambda: None, partial(np.multiply, buffer, 2.0, out=buffer))
        assert buffer.sum() == 16.0
        del buffer
        assert alive() is None

@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU masks here")
def test_helper_keeps_the_process_cpu_mask(helper_lanes):
    """The helper steps off the caller's CPU when it starts and then takes
    back the whole mask, which the caller's CPU belongs to."""
    seen = []
    helper_lanes.run(lambda: None, lambda: seen.append(os.sched_getaffinity(0)))
    assert seen == [os.sched_getaffinity(0)]
    assert goftest._current_cpu() in os.sched_getaffinity(0)


def test_statistic_errors_leave_the_helper_idle(monkeypatch, helper_lanes, lane_threads):
    """A residual row too large to square, in the second lane's half, and a
    rule with no kernel mass raise the same errors with the helper on as
    off; the helper is idle afterwards and the next call gives the same bits."""
    rng = np.random.default_rng(5)
    predictors = sample_uniform(1, 40, rng)
    cfg = goftest.GofConfig(LocalFitConfig(degree=0, bandwidth=0.5), goftest.default_quadrature(1))
    residuals = rng.standard_normal((100, 40))
    huge = residuals.copy()
    huge[-1] *= 1e200
    angles = pi / 8 + rng.uniform(-0.03, 0.03, 10)
    far = np.column_stack([np.cos(angles), np.sin(angles)])
    empty = goftest.GofConfig(LocalFitConfig(degree=0, bandwidth=0.008), goftest.default_quadrature(1, 8))
    calls = [(predictors, cfg, huge), (far, empty, rng.standard_normal((100, 10)))]
    errors, values = [], []
    for lanes in (goftest._Lanes(helper=False), helper_lanes):
        monkeypatch.setattr(goftest, "_LANES", lanes)
        for call in calls:
            with pytest.raises(RuntimeError) as raised:
                goftest.streamed_statistic(*call)
            errors.append((type(raised.value), str(raised.value)))
        assert lanes.helper is False or not lanes._jobs
        values.append(goftest.streamed_statistic(predictors, cfg, residuals)[0])
    assert errors[0][0] is RuntimeError and errors[1][0] is SingularGramError
    assert errors[:2] == errors[2:]
    assert HELPER in lane_threads
    np.testing.assert_array_equal(values[0], values[1])


def _worker_threads(trial):
    """A Gram-form statistic in a pool worker, and the threads it then has."""
    rng = np.random.default_rng(trial)
    cfg = goftest.GofConfig(LocalFitConfig(degree=0, bandwidth=0.5), goftest.default_quadrature(1))
    goftest.streamed_statistic(sample_uniform(1, 40, rng), cfg, rng.standard_normal((100, 40)))
    return [thread.name for thread in threading.enumerate()]


def test_pool_workers_start_no_helper(monkeypatch, helper_lanes, tmp_path):
    """Workers run both lanes themselves, so N workers keep N cores busy: a
    forked worker inherits lanes that would start a helper, and starts none;
    trace and power files, whose Gram form runs in lanes, are the same bytes
    with 1 worker (the helper on) and 2."""
    monkeypatch.setattr(goftest, "_LANES", helper_lanes)
    assert all(HELPER not in names for names in simsuite._run_trials(_worker_threads, 4, 2))
    for command in ("trace", "power"):
        files = []
        for workers in ("1", "2"):
            out = tmp_path / f"{command}-{workers}.csv"
            assert cli.main([
                "--command", command, "--scenario", "S1", "--q", "2", "--n", "40", "--M", "4",
                "--B", "60", "--h-grid", "0.5,1.0", "--seed", "3", "--workers", workers,
                "--out", str(out),
            ]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1], command


@pytest.mark.parametrize(
    "cpus, env, idle",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": " 1 "}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {}, False),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ],
)
def test_helper_runs_only_where_a_core_is_left_idle(cpus, env, idle, monkeypatch):
    """Two CPUs and BLAS pinned to one thread by every thread variable set;
    threaded BLAS already fills the cores."""
    monkeypatch.setattr(goftest.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name in goftest.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert goftest._core_left_idle() is idle
    lanes = goftest._Lanes()
    lanes.run(lambda: None, lambda: None)
    assert lanes.helper is idle
