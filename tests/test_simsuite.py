import io
import tracemalloc
from math import e, log, sqrt

import numpy as np
import pytest

from dirgof import goftest, locreg, parfit, simsuite
from dirgof.goftest import default_quadrature
from dirgof.locreg import LocalFitConfig


def test_deviation_one_values():
    assert simsuite.deviation_one(np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)
    assert simsuite.deviation_one(np.array([1.0, 0.0])) == pytest.approx(
        -1.0 / log(2.0), rel=1e-12
    )


def test_deviation_two_values():
    assert simsuite.deviation_two(np.array([0.0, 1.0])) == pytest.approx(e, rel=1e-12)
    assert simsuite.deviation_two(np.array([0.0, 0.0, 1.0])) == pytest.approx(e, rel=1e-12)
    val = simsuite.deviation_two(np.array([0.0, -0.6, 0.8]))
    assert val == pytest.approx(np.exp(0.8), rel=1e-12)


@pytest.mark.parametrize("q", [1, 2])
def test_deviations_bounded_on_grid(q):
    quad = default_quadrature(q, 64 if q == 2 else 256)
    one = simsuite.deviation_one(quad.nodes)
    two = simsuite.deviation_two(quad.nodes)
    assert np.max(np.abs(one)) <= 2.0 / log(2.0) + 1e-12
    assert np.max(np.abs(two)) <= e + 1e-12


@pytest.mark.parametrize("scenario_id", simsuite.SCENARIO_IDS)
@pytest.mark.parametrize("q", [1, 2])
def test_scenarios_constructible_and_positive_noise(scenario_id, q):
    scenario = simsuite.make_scenario(scenario_id, q)
    quad = default_quadrature(q, 64 if q == 2 else 256)
    assert np.all(scenario.sigma(quad.nodes) > 0)


def test_table_values_stored_exactly():
    s2 = simsuite.make_scenario("S2", 3)
    assert np.array_equal(s2.theta0, np.array([1.0, -1.5, 0.5, 0.5, 0.5]))
    assert s2.deviation_coef == -0.75
    s4 = simsuite.make_scenario("S4", 1)
    assert np.array_equal(s4.theta0, np.array([0.0, 3.0, 4.0]))
    assert s4.deviation_coef == 0.5
    with pytest.raises(ValueError):
        simsuite.make_scenario("S9", 1)


def test_generate_unbiased_under_null(rng):
    scenario = simsuite.make_scenario("S1", 1)
    _, responses = simsuite.generate(scenario, 10_000, rng)
    stderr = responses.std() / sqrt(len(responses))
    assert abs(responses.mean()) < 3.0 * stderr


def test_generate_s2_recovers_parameters(rng):
    scenario = simsuite.make_scenario("S2", 1)
    predictors, responses = simsuite.generate(scenario, 20_000, rng)
    est = parfit.fit(scenario.family, predictors, responses)
    assert np.max(np.abs(est.theta - scenario.theta0)) < 0.05


def test_homoscedastic_residual_variance(rng):
    scenario = simsuite.make_scenario("S3", 1)
    predictors, responses = simsuite.generate(scenario, 10_000, rng)
    mean = parfit.predict_batch(scenario.family, scenario.theta0, predictors)
    assert np.var(responses - mean) == pytest.approx(0.25, abs=0.02)


def test_generate_alternative_shifts_mean(rng):
    scenario = simsuite.make_scenario("S1", 1)
    predictors, responses = simsuite.generate(
        scenario, 20_000, rng, under_null=False
    )
    shift = 0.75 * simsuite.deviation_one(predictors)
    centered = responses - shift
    assert abs(centered.mean()) < 3.0 * centered.std() / sqrt(len(centered))


def test_local_alternative_scale_values():
    assert simsuite.local_alternative_scale(100, 1.0, 2) == pytest.approx(0.1, abs=1e-15)
    ratio = simsuite.local_alternative_scale(200, 0.7, 2) / simsuite.local_alternative_scale(
        100, 0.7, 2
    )
    assert ratio == pytest.approx(1.0 / sqrt(2.0), rel=1e-12)
    assert simsuite.local_alternative_scale(250, 0.4, 1) == pytest.approx(
        0.079527, abs=1e-6
    )


def test_trace_smoke_single_trial():
    scenario = simsuite.make_scenario("S1", 1)
    result = simsuite.significance_trace(
        scenario, n=30, h_grid=[0.5], trials=1, bootstrap=1, seed=4
    )
    assert result.rejections.shape == (1, 3)
    assert set(np.unique(result.rejections)) <= {0.0, 1.0}


def test_trace_reproducible_and_worker_invariant():
    scenario = simsuite.make_scenario("S1", 1)
    kw = dict(n=40, h_grid=[0.4, 0.8], trials=6, bootstrap=25, seed=12)
    serial = simsuite.significance_trace(scenario, **kw)
    again = simsuite.significance_trace(scenario, **kw)
    parallel = simsuite.significance_trace(scenario, workers=2, **kw)
    assert np.array_equal(serial.p_values, again.p_values)
    assert np.array_equal(serial.p_values, parallel.p_values)


def test_trace_csv_contract():
    scenario = simsuite.make_scenario("S1", 1)
    result = simsuite.significance_trace(
        scenario, n=30, h_grid=[0.4, 0.8], trials=2, bootstrap=5, seed=1
    )
    buffer = io.StringIO()
    result.write_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "scenario,q,n,h,alpha,rejection_rate,M,B,seed"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "S1" and first[1] == "1" and first[2] == "30"


def test_local_alternative_trace_runs():
    scenario = simsuite.make_scenario("S1", 1)
    result = simsuite.significance_trace(
        scenario,
        n=40,
        h_grid=[0.5],
        trials=2,
        bootstrap=10,
        seed=3,
        under_null=False,
        local_alternative=True,
    )
    assert result.p_values.shape == (2, 1)


def test_local_alternative_under_the_null_is_refused():
    with pytest.raises(ValueError, match="under_null=False"):
        simsuite.significance_trace(
            simsuite.make_scenario("S1", 1), n=40, h_grid=[0.5], trials=1, bootstrap=5,
            under_null=True, local_alternative=True,
        )


@pytest.mark.parametrize(
    "under_null, local_alternative, refits_per_trial",
    [(True, False, 1), (False, False, 1), (False, True, 3)],
)
def test_refits_once_per_trial_unless_responses_move(
    monkeypatch, under_null, local_alternative, refits_per_trial
):
    calls = []
    fit_batch = parfit.fit_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_batch(*args, **kwargs)

    monkeypatch.setattr(parfit, "fit_batch", counting)
    simsuite.significance_trace(
        simsuite.make_scenario("S1", 1), n=40, h_grid=[0.3, 0.6, 1.2], trials=2,
        bootstrap=10, seed=5, under_null=under_null, local_alternative=local_alternative,
    )
    assert len(calls) == 2 * refits_per_trial


def _p_values_refitting_per_bandwidth(
    scenario, n, h_grid, bootstrap, degree, seed, trial, quad_res, local_alternative
):
    """One trial as the trace once ran it: quadrature, null fit, refits and
    the direct form of the statistic redone at every bandwidth; a local
    alternative adds its drift to null responses before the null fit."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    predictors, null_responses = simsuite.generate(scenario, n, rng)
    multipliers = goftest.golden_section_draws((bootstrap, n), rng)
    deviation = {"d1": simsuite.deviation_one, "d2": simsuite.deviation_two}[scenario.deviation]
    out = []
    for h in h_grid:
        responses = null_responses
        if local_alternative:
            drift = simsuite.local_alternative_scale(n, h, scenario.q) * scenario.deviation_coef
            responses = null_responses + drift * deviation(predictors)
        fit = LocalFitConfig(degree, h)
        cfg = goftest.GofConfig(
            fit=fit,
            quadrature=default_quadrature(scenario.q, quad_res, seed=seed, fit=fit),
            bootstrap=bootstrap,
            seed=seed,
        )
        cache = goftest.node_cache(predictors, cfg)
        theta = parfit.fit(scenario.family, predictors, responses).theta
        fitted = parfit.predict_batch(scenario.family, theta, predictors)
        residuals = responses - fitted
        observed = float(cache.node_factor @ (cache.rows @ residuals) ** 2)
        _, star, converged = parfit.fit_batch(
            scenario.family, predictors, fitted + residuals * multipliers
        )
        assert converged.mean() >= 0.95
        replicates = cache.node_factor @ (cache.rows @ star.T) ** 2
        out.append(float(np.mean(observed <= replicates)))
    return out


@pytest.mark.parametrize(
    "scenario_id, q, degree, quad_res, local_alternative",
    [
        pytest.param(*case, local, id="-".join(map(str, case)) + ("-local-alt" if local else ""))
        for local, cases in (
            (False, [("S4", 1, 0, None), ("S2", 2, 1, 16), ("S1", 2, 0, None)]),
            # the tier-crossing grid, degree-1 rows and S4's Levenberg-Marquardt refits
            (True, [("S1", 2, 0, None), ("S2", 1, 1, None), ("S4", 1, 0, None)]),
        )
        for case in cases
    ],
)
def test_trace_equals_refitting_per_bandwidth(scenario_id, q, degree, quad_res, local_alternative):
    scenario = simsuite.make_scenario(scenario_id, q)
    kw = dict(n=60, h_grid=[0.3, 0.6, 0.7, 1.2], bootstrap=30, degree=degree, seed=31)
    trace = simsuite.significance_trace(
        scenario, trials=2, quad_resolution=quad_res, under_null=not local_alternative,
        local_alternative=local_alternative, **kw,
    )
    for trial in range(2):
        expected = _p_values_refitting_per_bandwidth(
            scenario, trial=trial, quad_res=quad_res, local_alternative=local_alternative, **kw
        )
        assert trace.p_values[trial].tolist() == expected


def _record_rules(monkeypatch):
    """Node counts the statistic sees, and the rules built, in call order."""
    seen = {"cache": [], "built": []}
    streamed, default_quadrature = goftest.streamed_statistic, goftest.default_quadrature

    def recording_statistic(predictors, cfg, residuals):
        seen["cache"].append(cfg.quadrature.node_count)
        return streamed(predictors, cfg, residuals)

    def recording_rule(*args, **kwargs):
        rule = default_quadrature(*args, **kwargs)
        seen["built"].append(rule.node_count)
        return rule

    monkeypatch.setattr(goftest, "streamed_statistic", recording_statistic)
    monkeypatch.setattr(goftest, "default_quadrature", recording_rule)
    return seen


@pytest.mark.parametrize(
    "degree, quad_res, counts",
    [
        (0, None, [2304, 2304, 1024, 576, 576]),
        (0, 48, [2304] * 5),
        (1, None, [2304] * 5),
    ],
)
def test_trace_builds_one_rule_per_tier(monkeypatch, degree, quad_res, counts):
    """Each bandwidth sees its tier's rule, and a run builds each rule once,
    whatever its trial count; ``quad_resolution`` pins one rule for every h."""
    seen = _record_rules(monkeypatch)
    simsuite.significance_trace(
        simsuite.make_scenario("S1", 2), n=30, h_grid=[1.5, 0.3, 0.7, 0.9, 0.5], trials=2,
        bootstrap=5, degree=degree, quad_resolution=quad_res,
    )
    assert seen["cache"] == counts * 2
    assert seen["built"] == sorted(set(counts), reverse=True)


@pytest.mark.parametrize(
    "degree, bootstrap", [(0, 199), (1, 199), (0, 1999), (1, 1999)],
    ids=["0", "1", "0-B1999", "1-B1999"],
)
def test_trace_bandwidth_peaks_near_one_rows_array(degree, bootstrap):
    """A q=2 trace trial on a 64 x 64 rule (m = GRAM_SLICE nodes) holds the
    (B + 1, n) residual block, one (m, n) slice buffer, in which degree 0
    divides the kernel values in place and which is scaled in place for the
    Gram matrix, one (NODE_BLOCK, n) kernel block at degree 1 and one n x n
    Gram matrix; cached chordal gaps or a scaled copy of the rows would each
    add a second (m, n) array.  At B = 1999 the residual block is half the
    buffer, and a copy of it (multipliers, star responses, refit
    temporaries) breaks the tighter bound of that case."""
    n, m = 200, 64 * 64
    kw = dict(n=n, h_grid=[0.3, 0.6], trials=1, bootstrap=bootstrap, degree=degree,
              quad_resolution=64)
    simsuite.significance_trace(simsuite.make_scenario("S1", 2), **kw)  # warm the caches
    tracemalloc.start()
    try:
        simsuite.significance_trace(simsuite.make_scenario("S1", 2), **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == goftest.GRAM_SLICE
    if bootstrap == 199:
        assert peak < (m + 6 * locreg.NODE_BLOCK) * n * 8, peak / (m * n * 8)
    else:
        assert peak < (m + (bootstrap + 1) + 3 * locreg.NODE_BLOCK) * n * 8, peak / (m * n * 8)


def test_q2_trace_p_values_match_the_48_rule():
    scenario = simsuite.make_scenario("S1", 2)
    kw = dict(n=80, h_grid=np.geomspace(0.1, 1.5, 20), trials=3, bootstrap=60, seed=8)
    tiered = simsuite.significance_trace(scenario, **kw)
    pinned = simsuite.significance_trace(scenario, quad_resolution=48, **kw)
    assert np.array_equal(tiered.p_values, pinned.p_values)


def test_qq_experiment_takes_the_tier_rule(monkeypatch):
    seen = _record_rules(monkeypatch)
    simsuite.qq_experiment(simsuite.make_scenario("QQ", 2), n=30, h=0.9, trials=1)
    assert seen["built"] == [576]


@pytest.mark.parametrize("h_grid", [[0.3, 0.3], [0.0, 0.3], [0.3, np.nan], [0.3, np.inf]])
def test_trace_rejects_bad_bandwidth_grid(h_grid):
    with pytest.raises(ValueError):
        simsuite.significance_trace(
            simsuite.make_scenario("S1", 1), n=30, h_grid=h_grid, trials=1, bootstrap=5
        )


def test_qq_experiment_requires_homoscedastic():
    with pytest.raises(ValueError):
        simsuite.qq_experiment(simsuite.make_scenario("S1", 1), n=50, h=0.3, trials=2)


def test_qq_experiment_shape_and_determinism():
    scenario = simsuite.make_scenario("QQ", 1)
    one = simsuite.qq_experiment(scenario, n=120, h=0.3, trials=4, seed=9)
    two = simsuite.qq_experiment(scenario, n=120, h=0.3, trials=4, seed=9, workers=2)
    assert one.values.shape == (4,)
    assert np.array_equal(one.values, two.values)
    assert one.scale == pytest.approx(sqrt(0.626657), abs=1e-6)


def test_qq_normality_improves_with_n():
    """The standardized statistic looks far more normal at large n."""
    from scipy import stats

    scenario = simsuite.make_scenario("QQ", 1)
    small = simsuite.qq_experiment(
        scenario, n=100, h=0.5 * 100 ** (-1.0 / 3.0), trials=150, seed=606
    )
    large = simsuite.qq_experiment(
        scenario, n=2000, h=0.5 * 2000 ** (-1.0 / 3.0), trials=150, seed=606
    )
    p_small = stats.shapiro(small.values).pvalue
    p_large = stats.shapiro(large.values).pvalue
    assert p_large > 10.0 * p_small
    assert p_small < 0.01


def test_power_dominates_size_paired(rng):
    """At a moderate bandwidth the alternative rejects more than the null."""
    scenario = simsuite.make_scenario("S1", 1)
    kw = dict(n=100, h_grid=[0.5], trials=120, bootstrap=100, seed=21)
    size_run = simsuite.significance_trace(scenario, under_null=True, **kw)
    power_run = simsuite.significance_trace(scenario, under_null=False, **kw)
    alpha_idx = 1  # 0.05
    size = size_run.rejections[0, alpha_idx]
    power = power_run.rejections[0, alpha_idx]
    stderr = sqrt(max(power * (1 - power), size * (1 - size)) / kw["trials"]) + 1e-9
    assert power > size + 3.0 * stderr
