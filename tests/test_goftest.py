import tracemalloc
from math import pi, sqrt

import numpy as np
import oracles
import pytest

from dirgof import goftest, locreg, parfit
from dirgof.kernels import VON_MISES, gof_asymptotic_variance, normalizing_constant
from dirgof.locreg import LocalFitConfig
from dirgof.sphere import sample_uniform


def make_cfg(q=1, degree=0, h=0.5, bootstrap=200, seed=0, **kw):
    return goftest.GofConfig(
        fit=LocalFitConfig(degree=degree, bandwidth=h),
        quadrature=goftest.default_quadrature(q),
        bootstrap=bootstrap,
        seed=seed,
        **kw,
    )


def sample_constant_model(rng, n=100, q=1, level=1.0, sd=0.5):
    predictors = sample_uniform(q, n, rng)
    responses = level + sd * rng.standard_normal(n)
    return predictors, responses


def test_golden_section_draws_moments(rng):
    draws = goftest.golden_section_draws(1_000_000, rng)
    values = np.unique(draws)
    assert values.size == 2
    assert np.allclose(sorted(values), [(1 - sqrt(5)) / 2, (1 + sqrt(5)) / 2])
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.005
    assert abs((draws**3).mean() - 1.0) < 0.01


def test_statistic_zero_for_interpolating_model(rng):
    predictors, _ = sample_constant_model(rng)
    responses = np.full(100, 2.0)
    cfg = make_cfg()
    value = goftest.statistic(predictors, responses, parfit.constant_family(), [2.0], cfg)
    assert value == 0.0


def test_statistic_zero_weight_function(rng):
    predictors, responses = sample_constant_model(rng)
    cfg = make_cfg(weight_fn=lambda nodes: np.zeros(len(nodes)))
    value = goftest.statistic(
        predictors, responses, parfit.constant_family(), [responses.mean()], cfg
    )
    assert value == 0.0


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_node_cache_rejects_bad_weight_values(bad, rng):
    predictors, _ = sample_constant_model(rng)
    cfg = make_cfg(weight_fn=lambda nodes: np.where(nodes[:, 0] > 0.9, bad, 1.0))
    with pytest.raises(ValueError, match="weight_fn"):
        goftest.node_cache(predictors, cfg)


@pytest.mark.parametrize("degree", [0, 1])
def test_residual_form_equals_direct_form(degree, rng):
    for _ in range(10):
        predictors, responses = sample_constant_model(rng, n=60)
        family = parfit.linear_family(1)
        theta = parfit.fit(family, predictors, responses).theta
        cfg = make_cfg(degree=degree)
        cache = goftest.node_cache(predictors, cfg)
        residuals = responses - parfit.predict_batch(family, theta, predictors)
        residual_form = goftest.statistic_from_residuals(cache, residuals)
        fitted_curve = cache.rows @ responses
        smoothed_model = cache.rows @ parfit.predict_batch(family, theta, predictors)
        direct_form = float(cache.node_factor @ (fitted_curve - smoothed_model) ** 2)
        assert residual_form == pytest.approx(direct_form, abs=1e-10)
        assert residual_form >= 0.0


@pytest.mark.parametrize(
    "weight_fn", [None, lambda nodes: 1.0 + nodes[:, 0] ** 2], ids=["unweighted", "weighted"]
)
@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("n, r", [(60, 400), (60, 60), (60, 20), (400, 30)])
def test_gram_and_direct_forms_agree(n, r, degree, weight_fn, rng):
    """Both sides of the Gram-form switch n (m + 2 r) < 2 m r, with m = 256 nodes.

    (60, 60) takes the Gram form under this rule and the direct form under
    the general-product rule n (m + r) < m r.
    """
    predictors, _ = sample_constant_model(rng, n=n)
    cache = goftest.node_cache(predictors, make_cfg(degree=degree, weight_fn=weight_fn))
    m = cache.rows.shape[0]
    assert (n * (m + 2 * r) < 2 * m * r) == (r in (400, 60))
    residuals = rng.standard_normal((r, n))
    batch = goftest.statistic_from_residuals(cache, residuals)
    direct = cache.node_factor @ (cache.rows @ residuals.T) ** 2
    gram = np.einsum(
        "bi,ij,bj->b", residuals, cache.rows.T @ (cache.node_factor[:, None] * cache.rows), residuals
    )
    single = [goftest.statistic_from_residuals(cache, e) for e in residuals[:3]]
    assert all(type(value) is float for value in single)
    np.testing.assert_allclose(batch, direct, rtol=1e-10, atol=0)
    np.testing.assert_allclose(batch, gram, rtol=1e-10, atol=0)
    np.testing.assert_allclose(batch[:3], single, rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "weight_fn", [None, lambda nodes: 1.0 + nodes[:, 0] ** 2], ids=["unweighted", "weighted"]
)
@pytest.mark.parametrize("degree", [0, 1])
def test_blocked_node_cache_matches_one_shot_build(degree, weight_fn, rng):
    """node_cache walks the 72 x 72 nodes of a q=2 grid in blocks of NODE_BLOCK
    (10.1 blocks) and sums the Gram matrix over slices of GRAM_SLICE (2 slices);
    the reference builds each (m, n) array at once."""
    predictors, _ = sample_constant_model(rng, n=80, q=2)
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=degree, bandwidth=0.5),
        quadrature=goftest.default_quadrature(2, 72),
        weight_fn=weight_fn,
    )
    nodes = cfg.quadrature.nodes
    m = len(nodes)
    assert m % locreg.NODE_BLOCK and locreg.NODE_BLOCK < goftest.GRAM_SLICE < m
    cache = goftest.node_cache(predictors, cfg)

    raw = locreg.kernel_weight_matrix(nodes, predictors, cfg.fit)
    rows, flags = locreg.weight_rows(nodes, predictors, cfg.fit, raw=raw)
    wvals = np.ones(m) if weight_fn is None else weight_fn(nodes)
    node_factor = cfg.quadrature.weights * (
        normalizing_constant(VON_MISES, 2, cfg.fit.bandwidth) * raw.mean(axis=1)
    ) * wvals
    np.testing.assert_array_equal(cache.regularized, flags)
    np.testing.assert_allclose(cache.rows, rows, rtol=1e-13, atol=1e-13 * np.abs(rows).max())
    np.testing.assert_allclose(cache.node_factor, node_factor, rtol=1e-13, atol=0)

    residuals = rng.standard_normal((300, 80))
    root = rows * np.sqrt(node_factor)[:, None]
    one_shot = np.einsum("bi,bi->b", residuals @ (root.T @ root), residuals)
    np.testing.assert_allclose(
        goftest.statistic_from_residuals(cache, residuals), one_shot, rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("degree", [0, 1])
def test_node_cache_counts_empty_nodes_of_every_block(degree, rng):
    """Nodes with no kernel mass get zero rows and a zero node factor, so they
    add nothing to the statistic; the test counts them over the whole
    quadrature, not only in the first block that has one, and flags none."""
    predictors = sample_uniform(2, 30, rng) + [0.0, 0.0, 3.0]  # a cap at the north pole
    predictors /= np.linalg.norm(predictors, axis=1, keepdims=True)
    responses = 1.0 + 0.5 * rng.standard_normal(30)
    cfg = make_cfg(q=2, degree=degree, h=0.03, bootstrap=20)
    raw = locreg.kernel_weight_matrix(cfg.quadrature.nodes, predictors, cfg.fit)
    empty = raw.sum(axis=1) == 0
    assert empty.sum() == 1209
    assert sum(empty[block].any() for block in locreg.node_blocks(len(empty))) > 1
    cache = goftest.node_cache(predictors, cfg)
    assert not cache.rows[empty].any() and not cache.node_factor[empty].any()
    assert cache.empty_count == 1209 and not cache.regularized[empty].any()
    result = goftest.bootstrap_test(predictors, responses, parfit.constant_family(), cfg)
    assert result.to_dict()["flags"]["empty_nodes"] == 1209


@pytest.mark.parametrize("degree", [0, 1])
def test_node_cache_raises_when_every_node_is_empty(degree, rng):
    """Data near the angle pi/8 sit at least 0.34 from every node of the
    8-node circle rule, so at h = 0.008 no node has kernel mass."""
    angles = pi / 8 + rng.uniform(-0.03, 0.03, 10)
    predictors = np.column_stack([np.cos(angles), np.sin(angles)])
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=degree, bandwidth=0.008),
        quadrature=goftest.default_quadrature(1, 8),
    )
    with pytest.raises(locreg.SingularGramError, match="^all 8 nodes "):
        goftest.node_cache(predictors, cfg)


def test_node_factor_is_the_kernel_density_estimate(rng):
    """One density formula: the cache's factor over the quadrature weights
    is the kernel density estimate at the nodes."""
    predictors, _ = sample_constant_model(rng, n=200, q=2)
    cfg = make_cfg(q=2, h=0.5)
    cache = goftest.node_cache(predictors, cfg)
    np.testing.assert_allclose(
        cache.node_factor / cfg.quadrature.weights,
        oracles.kde(cfg.quadrature.nodes, predictors, 0.5, VON_MISES),
        rtol=1e-13, atol=0,
    )


def test_test_call_peak_memory_near_one_rows_array():
    """A degree-1 test at q=3 never holds several (m, n) arrays at once: its
    traced peak stays below 1.5 m n doubles, where a build of the whole
    kernel matrix, gap block and scaled Gram root at once reaches about
    3 m n.  The test below holds the streamed rows to a tighter bound."""
    rng = np.random.default_rng(11)
    m, n = 12_000, 150
    predictors = sample_uniform(3, n, rng)
    responses = 1.0 + predictors[:, 0] + 0.5 * rng.standard_normal(n)
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=1, bandwidth=0.5),
        quadrature=goftest.default_quadrature(3, m),
        bootstrap=100,
    )
    tracemalloc.start()
    try:
        goftest.bootstrap_test(predictors, responses, parfit.linear_family(3), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * n * 8 + 4e6, peak / (m * n * 8)


def test_streamed_test_call_peaks_below_half_a_rows_array():
    """The test call above holds no (m, n) array at all: the rows live one
    GRAM_SLICE slice at a time in one buffer, scaled in place for the Gram
    matrix, so the traced peak stays below half of m n doubles."""
    rng = np.random.default_rng(11)
    m, n = 12_000, 150
    predictors = sample_uniform(3, n, rng)
    responses = 1.0 + predictors[:, 0] + 0.5 * rng.standard_normal(n)
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=1, bandwidth=0.5),
        quadrature=goftest.default_quadrature(3, m),
        bootstrap=100,
    )
    tracemalloc.start()
    try:
        goftest.bootstrap_test(predictors, responses, parfit.linear_family(3), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m * n * 8 + 3e6, peak / (m * n * 8)


def lane_cut_gram_form(cache, residuals):
    """The Gram form in the lanes' cut: per slice, the blocks S1ᵀS1, S2ᵀS1
    and S2ᵀS2 of the scaled rows S = [S1 S2] cut at column n/√2, added slice
    by slice; then e G eᵀ per FORM_ROWS rows of each half of the residuals."""
    n = cache.rows.shape[1]
    first, second = slice(0, round(n / sqrt(2.0))), slice(round(n / sqrt(2.0)), n)
    gram = np.empty((n, n))
    for k, part in enumerate(locreg.node_blocks(len(cache.rows), goftest.GRAM_SLICE)):
        root = cache.rows[part] * np.sqrt(cache.node_factor[part])[:, None]
        for block in [(first, first), (second, first), (second, second)]:
            value = root[:, block[0]].T @ root[:, block[1]]
            gram[block] = value if k == 0 else gram[block] + value
    gram[first, second] = gram[second, first].T
    cut = (len(residuals) + 1) // 2
    values = []
    for half in (residuals[:cut], residuals[cut:]):
        for start in range(0, len(half), goftest.FORM_ROWS):
            part = half[start : start + goftest.FORM_ROWS]
            values.append(np.einsum("bi,bi->b", part @ gram, part))
    return np.concatenate(values)


@pytest.mark.parametrize(
    "weight_fn", [None, lambda nodes: 1.0 + nodes[:, 0] ** 2], ids=["unweighted", "weighted"]
)
@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("q, resolution", [(1, None), (2, 72), (3, 4500)])
def test_streamed_statistic_matches_the_node_cache(q, resolution, degree, weight_fn, rng):
    """The streamed statistic equals statistic_from_residuals(node_cache(...))
    bit for bit in its Gram (100 rows), direct (10 rows) and one-row forms,
    with the same counts; on 256, 5184 (72 x 72) and 4500 nodes.  The Gram
    form is bit-identical to the same sums done in the lanes' fixed cut, and
    within 1e-13 of one whole-rule syrk and one (r, n) product.  The direct
    form is bit-identical to the whole-rule arithmetic on rules of at most
    GRAM_SLICE nodes; over more nodes it sums slice by slice, within 1e-13."""
    n = 40
    predictors, _ = sample_constant_model(rng, n=n, q=q)
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=degree, bandwidth=0.5),
        quadrature=goftest.default_quadrature(q, resolution),
        weight_fn=weight_fn,
    )
    m = cfg.quadrature.node_count
    cache = goftest.node_cache(predictors, cfg)
    for r in (100, 10, None):
        residuals = rng.standard_normal(n if r is None else (r, n))
        values, regularized, empty = goftest.streamed_statistic(predictors, cfg, residuals)
        expected = goftest.statistic_from_residuals(cache, residuals)
        assert type(values) is type(expected)
        np.testing.assert_array_equal(values, expected)
        assert (regularized, empty) == (cache.regularized.sum(), cache.empty_count)
        if r == 100:
            assert n * (m + 2 * r) < 2 * m * r
            np.testing.assert_array_equal(values, lane_cut_gram_form(cache, residuals))
            root = cache.rows * np.sqrt(cache.node_factor)[:, None]
            whole_gram = np.einsum("bi,bi->b", residuals @ (root.T @ root), residuals)
            np.testing.assert_allclose(values, whole_gram, rtol=1e-13, atol=0)
            continue
        whole_rule = cache.node_factor @ (cache.rows @ residuals.T) ** 2
        if m <= goftest.GRAM_SLICE:
            np.testing.assert_array_equal(values, whole_rule)
        else:
            np.testing.assert_allclose(values, whole_rule, rtol=1e-13, atol=0)


@pytest.mark.parametrize("degree", [0, 1])
def test_streamed_counts_match_the_node_cache_on_a_cap(degree, rng):
    """Data in a cap at the north pole leave 1209 nodes empty and, at degree
    1, flag others: the streamed statistic and the test count both alike."""
    predictors = sample_uniform(2, 30, rng) + [0.0, 0.0, 3.0]
    predictors /= np.linalg.norm(predictors, axis=1, keepdims=True)
    responses = 1.0 + 0.5 * rng.standard_normal(30)
    cfg = make_cfg(q=2, degree=degree, h=0.03, bootstrap=20)
    cache = goftest.node_cache(predictors, cfg)
    flagged = int(cache.regularized.sum())
    assert cache.empty_count == 1209 and (flagged > 0) == (degree == 1)
    residuals = rng.standard_normal((21, 30))
    values, regularized, empty = goftest.streamed_statistic(predictors, cfg, residuals)
    assert (regularized, empty) == (flagged, 1209)
    np.testing.assert_array_equal(values, goftest.statistic_from_residuals(cache, residuals))
    flags = goftest.bootstrap_test(predictors, responses, parfit.constant_family(), cfg).to_dict()["flags"]
    assert (flags["regularized_nodes"], flags["empty_nodes"]) == (flagged, 1209)


@pytest.mark.parametrize("degree", [0, 1])
def test_streamed_statistic_raises_when_every_node_is_empty(degree, rng):
    """The 8-node circle rule of the all-empty case above: the streamed
    statistic raises after its one slice, and so does the test."""
    angles = pi / 8 + rng.uniform(-0.03, 0.03, 10)
    predictors = np.column_stack([np.cos(angles), np.sin(angles)])
    cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=degree, bandwidth=0.008),
        quadrature=goftest.default_quadrature(1, 8),
        bootstrap=5,
    )
    with pytest.raises(locreg.SingularGramError, match="^all 8 nodes "):
        goftest.streamed_statistic(predictors, cfg, rng.standard_normal((6, 10)))
    with pytest.raises(locreg.SingularGramError, match="^all 8 nodes "):
        goftest.bootstrap_test(predictors, np.ones(10), parfit.constant_family(), cfg)


def test_q2_degree0_rule_sized_by_bandwidth():
    counts = {
        h: goftest.default_quadrature(2, fit=LocalFitConfig(0, h)).node_count
        for h in (0.1, 0.6599, 0.66, 0.8199, 0.82, 1.5)
    }
    assert counts == {0.1: 2304, 0.6599: 2304, 0.66: 1024, 0.8199: 1024, 0.82: 576, 1.5: 576}
    assert goftest.default_quadrature(2).node_count == 2304
    assert goftest.default_quadrature(2, 16, fit=LocalFitConfig(0, 1.5)).node_count == 256


@pytest.mark.parametrize("q, degree", [(1, 0), (1, 1), (2, 1), (3, 0), (3, 1)])
def test_default_rule_ignores_bandwidth_outside_q2_degree0(q, degree):
    fixed = goftest.default_quadrature(q)
    for h in (0.1, 0.55, 0.72, 1.5):
        rule = goftest.default_quadrature(q, fit=LocalFitConfig(degree, h))
        assert np.array_equal(rule.nodes, fixed.nodes)
        assert np.array_equal(rule.weights, fixed.weights)


@pytest.mark.parametrize("h", [low for low, _ in goftest.Q2_DEGREE0_TIERS])
@pytest.mark.parametrize("scenario_id", ["S1", "S2", "S3", "S4"])
def test_tier_statistics_match_the_48_rule(scenario_id, h):
    """At the lowest bandwidth of each coarse q=2 tier, the observed and
    bootstrap statistics on the tier's rule are within 1e-11 relative of
    those on the 48 x 48 rule."""
    from dirgof import simsuite

    scenario = simsuite.make_scenario(scenario_id, 2)
    predictors, responses = simsuite.generate(scenario, 30, np.random.default_rng(7))
    fit = LocalFitConfig(degree=0, bandwidth=h)
    tier, fine = goftest.default_quadrature(2, fit=fit), goftest.default_quadrature(2, 48)
    assert tier.node_count < fine.node_count
    draws = goftest.golden_section_draws((40, 30), np.random.default_rng(0))
    _, residuals, _ = goftest.null_bootstrap(predictors, responses, scenario.family, draws)
    values = [
        goftest.statistic_from_residuals(
            goftest.node_cache(predictors, goftest.GofConfig(fit=fit, quadrature=rule)), residuals
        )
        for rule in (tier, fine)
    ]
    np.testing.assert_allclose(values[0], values[1], rtol=1e-11, atol=0)


def test_statistic_permutation_invariant(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.constant_family()
    theta = [responses.mean()]
    cfg = make_cfg()
    base = goftest.statistic(predictors, responses, family, theta, cfg)
    perm = rng.permutation(100)
    permuted = goftest.statistic(predictors[perm], responses[perm], family, theta, cfg)
    assert base == pytest.approx(permuted, rel=1e-12)


def test_constant_shift_absorbed_by_constant_family(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.constant_family()
    cfg = make_cfg(bootstrap=50)
    base = goftest.bootstrap_test(predictors, responses, family, cfg)
    shifted = goftest.bootstrap_test(predictors, responses + 7.0, family, cfg)
    assert base.statistic == pytest.approx(shifted.statistic, abs=1e-12)
    assert np.allclose(base.bootstrap_statistics, shifted.bootstrap_statistics, atol=1e-12)


def test_bootstrap_single_replicate_pvalue(rng):
    predictors, responses = sample_constant_model(rng, n=40)
    cfg = make_cfg(bootstrap=1)
    result = goftest.bootstrap_test(predictors, responses, parfit.constant_family(), cfg)
    assert result.p_value in (0.0, 1.0)


def test_bootstrap_deterministic_and_reusable(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.constant_family()
    cfg = make_cfg(bootstrap=100, seed=33)
    first = goftest.bootstrap_test(predictors, responses, family, cfg)
    second = goftest.bootstrap_test(predictors, responses, family, cfg)
    assert first.p_value == second.p_value
    assert np.array_equal(first.bootstrap_statistics, second.bootstrap_statistics)


def test_fast_path_equals_from_scratch(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.linear_family(1)
    cfg = make_cfg(bootstrap=25, seed=5)
    result = goftest.bootstrap_test(predictors, responses, family, cfg)
    fitted = parfit.predict_batch(family, result.theta_hat, predictors)
    residuals = responses - fitted
    draws = goftest.golden_section_draws((25, 100), np.random.default_rng(5))
    for b in (0, 7, 24):
        star = fitted + residuals * draws[b]
        theta_star = parfit.fit(family, predictors, star).theta
        scratch = goftest.statistic(predictors, star, family, theta_star, cfg)
        assert scratch == pytest.approx(result.bootstrap_statistics[b], abs=1e-10)


def test_simple_hypothesis_skips_refit(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.constant_family()
    cfg = make_cfg(bootstrap=64, theta0=np.array([1.0]))
    result = goftest.bootstrap_test(predictors, responses, family, cfg)
    assert result.theta_hat[0] == 1.0
    assert 0.0 <= result.p_value <= 1.0
    assert result.failed_replicates == 0


def test_multiplier_block_shared_across_bandwidths(rng):
    predictors, responses = sample_constant_model(rng)
    family = parfit.constant_family()
    draws = goftest.golden_section_draws((80, 100), rng)
    p_values = []
    for h in (0.4, 0.8):
        cfg = make_cfg(h=h, bootstrap=80)
        _, residuals, _ = goftest.null_bootstrap(predictors, responses, family, draws)
        values = goftest.statistic_from_residuals(goftest.node_cache(predictors, cfg), residuals)
        p_values.append(np.mean(values[0] <= values[1:]))
    assert all(0.0 <= p <= 1.0 for p in p_values)
    with pytest.raises(ValueError):
        goftest.null_bootstrap(predictors, responses, family, draws[:, :50])


def test_null_bootstrap_takes_a_block_of_b_rows_by_n(rng):
    """The multipliers are a (B >= 1, n) block: a vector, an empty block or
    a block of another width is refused before any fit."""
    predictors, responses = sample_constant_model(rng, n=30)
    family = parfit.constant_family()
    for shape in ((30,), (0, 30), (4, 29), (2, 4, 30)):
        with pytest.raises(ValueError, match="multipliers must have shape"):
            goftest.null_bootstrap(predictors, responses, family, np.ones(shape))
    draws = goftest.golden_section_draws((1, 30), rng)
    theta, residuals, failed = goftest.null_bootstrap(predictors, responses, family, draws, [1.0])
    assert theta.tolist() == [1.0] and residuals.shape == (2, 30) and failed == 0
    np.testing.assert_allclose(residuals[1], (responses - 1.0) * draws[0], rtol=0, atol=1e-14)


def test_bootstrap_test_draws_its_block_from_the_seed(rng):
    """``bootstrap_test`` is ``null_bootstrap`` on the (B, n) golden-section
    block of ``default_rng(seed)`` and one statistic call."""
    predictors, responses = sample_constant_model(rng, n=60)
    family = parfit.linear_family(1)
    cfg = make_cfg(bootstrap=30, seed=8)
    result = goftest.bootstrap_test(predictors, responses, family, cfg)
    draws = goftest.golden_section_draws((30, 60), np.random.default_rng(8))
    _, residuals, _ = goftest.null_bootstrap(predictors, responses, family, draws)
    values = goftest.streamed_statistic(predictors, cfg, residuals)[0]
    assert result.statistic == values[0]
    np.testing.assert_array_equal(result.bootstrap_statistics, values[1:])


def _stubborn_family():
    """Predictions ignore theta while the gradient pretends otherwise."""

    def predict(theta, points):
        points = np.atleast_2d(points)
        return np.zeros(points.shape[0])

    def grad(theta, points):
        points = np.atleast_2d(points)
        return np.ones((points.shape[0], 1))

    return parfit.custom_family(predict, grad, 1, kind="stubborn")


def test_bootstrap_aborts_when_refits_fail(rng):
    predictors, responses = sample_constant_model(rng, n=30)
    cfg = make_cfg(bootstrap=20)
    with pytest.raises(RuntimeError, match="refits failed"):
        goftest.bootstrap_test(predictors, responses, _stubborn_family(), cfg)


def test_simple_null_rejection_rate():
    """Simple-hypothesis size stays near nominal over Monte Carlo reps."""
    family = parfit.constant_family()
    quad = goftest.default_quadrature(1)
    rejected = 0
    reps = 200
    for trial in range(reps):
        trial_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=404, spawn_key=(trial,))
        )
        predictors, responses = sample_constant_model(trial_rng)
        cfg = goftest.GofConfig(
            fit=LocalFitConfig(0, 0.5), quadrature=quad, bootstrap=100,
            seed=404, theta0=np.array([1.0]),
        )
        draws = goftest.golden_section_draws((100, 100), trial_rng)
        _, residuals, _ = goftest.null_bootstrap(predictors, responses, family, draws, cfg.theta0)
        values = goftest.statistic_from_residuals(goftest.node_cache(predictors, cfg), residuals)
        rejected += np.mean(values[0] <= values[1:]) < 0.05
    assert 0.02 <= rejected / reps <= 0.08


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(bootstrap=0)


def test_center_scale_plugin_values():
    fit_cfg = LocalFitConfig(degree=0, bandwidth=0.2)
    variance = gof_asymptotic_variance(VON_MISES, 1, (0.5**2) * 2.0 * pi)
    center, scale = goftest.asymptotic_center_scale(fit_cfg, 1, 1000, 0.5 * 2.0 * pi, variance)
    assert center == pytest.approx(sqrt(pi) / 400.0, rel=1e-9)
    assert scale == pytest.approx(sqrt(0.626657), abs=1e-6)
    tighter, _ = goftest.asymptotic_center_scale(
        LocalFitConfig(degree=0, bandwidth=0.1), 1, 1000, 0.5 * 2.0 * pi, variance
    )
    assert tighter > center


def test_result_serialization_roundtrip(rng):
    import json

    predictors, responses = sample_constant_model(rng, n=50)
    cfg = make_cfg(bootstrap=40, seed=9)
    result = goftest.bootstrap_test(predictors, responses, parfit.constant_family(), cfg)
    payload = json.loads(result.to_json())
    assert payload["p_value"] == result.p_value
    assert payload["config"]["bootstrap"] == 40
    assert payload["config"]["seed"] == 9
    assert payload["bootstrap"]["replicates"] == 40
    assert "0.5" in payload["bootstrap"]["quantiles"]
