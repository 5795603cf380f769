from math import pi, sqrt

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirgof import goftest, locreg, simsuite
from dirgof.density import density_sample, uniform_model
from dirgof.kernels import VON_MISES, directional_kernel, kernel_constants
from dirgof.sphere import projection_basis, sample_uniform, tangent_bases


def circle(angles):
    angles = np.atleast_1d(angles)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def random_instance(rng, q, n):
    x = sample_uniform(q, 1, rng)[0]
    predictors = sample_uniform(q, n, rng)
    responses = rng.standard_normal(n)
    return x, predictors, responses


def test_local_constant_symmetric_pair():
    x = circle(0.0)[0]
    predictors = circle([0.5, -0.5])
    cfg = locreg.LocalFitConfig(degree=0, bandwidth=0.7)
    assert np.allclose(locreg.local_weights(x, predictors, cfg), [0.5, 0.5], atol=1e-15)


def test_local_constant_is_kernel_ratio(rng):
    x, predictors, _ = random_instance(rng, 2, 40)
    cfg = locreg.LocalFitConfig(degree=0, bandwidth=0.4)
    raw = oracles.kernel_weights(x, predictors, cfg)
    assert np.allclose(
        locreg.local_weights(x, predictors, cfg), raw / raw.sum(), atol=1e-15
    )


@pytest.mark.parametrize("degree", [0, 1])
def test_weights_sum_to_one(degree, rng):
    for _ in range(20):
        q = int(rng.integers(1, 4))
        x, predictors, _ = random_instance(rng, q, 60)
        cfg = locreg.LocalFitConfig(degree=degree, bandwidth=float(rng.uniform(0.2, 1.0)))
        w = locreg.local_weights(x, predictors, cfg)
        assert abs(w.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("degree", [0, 1])
def test_constant_responses_reproduced(degree, rng):
    x, predictors, _ = random_instance(rng, 2, 50)
    cfg = locreg.LocalFitConfig(degree=degree, bandwidth=0.5)
    fit = locreg.estimate(x, predictors, np.full(50, 3.25), cfg)
    assert fit.value == pytest.approx(3.25, abs=1e-12)


def test_projected_linear_reproduced(rng):
    x, predictors, _ = random_instance(rng, 2, 60)
    basis = projection_basis(x)
    slope = np.array([0.8, -1.1])
    responses = 0.7 + ((predictors - x) @ basis.columns) @ slope
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.5)
    fit = locreg.estimate(x, predictors, responses, cfg)
    assert fit.value == pytest.approx(0.7, abs=1e-9)
    assert np.max(np.abs(fit.gradient - slope)) < 1e-9


def test_fit_weights_agree_with_value(rng):
    x, predictors, responses = random_instance(rng, 1, 50)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.4)
    fit = locreg.estimate(x, predictors, responses, cfg)
    assert fit.value == pytest.approx(float(fit.weights @ responses), abs=1e-12)


def test_closed_form_circle_agreement(rng):
    angles = rng.uniform(0.0, 2.0 * pi, 50)
    responses = np.sin(2.0 * angles) + 0.3 * rng.standard_normal(50)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.35)
    eval_angles = rng.uniform(0.0, 2.0 * pi, 25)
    closed = oracles.circular_local_linear(eval_angles, angles, responses, 0.35)
    generic = [
        locreg.estimate(circle(a)[0], circle(angles), responses, cfg).value
        for a in eval_angles
    ]
    assert np.max(np.abs(closed - np.asarray(generic))) < 1e-9


def test_closed_form_sphere_agreement(rng):
    predictors = sample_uniform(2, 70, rng)
    responses = predictors[:, 2] + 0.3 * rng.standard_normal(70)
    azim = np.arctan2(predictors[:, 1], predictors[:, 0])
    polar = np.arccos(np.clip(predictors[:, 2], -1.0, 1.0))
    eval_points = sample_uniform(2, 20, rng)
    eval_angles = np.column_stack(
        [
            np.arctan2(eval_points[:, 1], eval_points[:, 0]),
            np.arccos(np.clip(eval_points[:, 2], -1.0, 1.0)),
        ]
    )
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.45)
    closed = oracles.spherical_local_linear(
        eval_angles, np.column_stack([azim, polar]), responses, 0.45
    )
    generic = [locreg.estimate(x, predictors, responses, cfg).value for x in eval_points]
    assert np.max(np.abs(closed - np.asarray(generic))) < 1e-8


def test_basis_choice_invariance(rng):
    x, predictors, responses = random_instance(rng, 3, 80)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.5)
    base = projection_basis(x).columns
    rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    sw = np.sqrt(oracles.kernel_weights(x, predictors, cfg))
    design = np.column_stack([np.ones(80), (predictors - x) @ (base @ rotation)])
    # weighted least squares on the rotated-basis design, one unit response per column
    coef_rot = np.linalg.lstsq(design * sw[:, None], np.diag(sw), rcond=None)[0]
    w_ref = locreg.local_weights(x, predictors, cfg)
    assert np.max(np.abs(w_ref - coef_rot[0])) < 1e-10
    fit_ref = locreg.estimate(x, predictors, responses, cfg)
    grad_rot = coef_rot[1:] @ responses
    assert np.allclose(rotation @ grad_rot, fit_ref.gradient, atol=1e-9)


def test_kernel_rescaling_leaves_weights(rng):
    def tripled(r):
        return 3.0 * np.exp(-np.asarray(r, dtype=float))

    scaled = directional_kernel(tripled, decay=(3.0, 1.0), tag="scaled")
    x, predictors, _ = random_instance(rng, 2, 50)
    for degree in (0, 1):
        w_base = locreg.local_weights(
            x, predictors, locreg.LocalFitConfig(degree, 0.4, VON_MISES)
        )
        w_scaled = locreg.local_weights(
            x, predictors, locreg.LocalFitConfig(degree, 0.4, scaled)
        )
        assert np.max(np.abs(w_base - w_scaled)) < 1e-12


def test_overparametrized_tangent_design_agrees(rng):
    """Pseudo-inverse fit of the (q+2)-column tangent-angle design.

    The design is exactly singular; its first coefficient must stay close to
    the projected fit for moderate bandwidths.
    """
    n = 2000
    angles = rng.uniform(0.0, 2.0 * pi, n)
    predictors = circle(angles)
    responses = np.cos(angles) + 0.2 * rng.standard_normal(n)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.2)
    for a in (0.3, 2.1, 4.4):
        x = circle(a)[0]
        w = oracles.kernel_weights(x, predictors, cfg)
        dots = np.clip(predictors @ x, -1.0, 1.0)
        eta = np.arccos(dots)
        sin_eta = np.sqrt(np.clip(1.0 - dots**2, 0.0, None))
        xi = np.where(
            sin_eta[:, None] > 1e-12,
            (predictors - dots[:, None] * x) / np.where(sin_eta == 0, 1.0, sin_eta)[:, None],
            predictors,
        )
        design = np.column_stack([np.ones(n), eta[:, None] * xi])
        gram = design.T @ (w[:, None] * design)
        beta = np.linalg.pinv(gram) @ design.T @ (w * responses)
        reference = locreg.estimate(x, predictors, responses, cfg).value
        assert beta[0] == pytest.approx(reference, abs=5e-3)


def test_smooth_parametric_contracts(rng):
    x, predictors, responses = random_instance(rng, 1, 40)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.5)
    rows, _ = locreg.weight_rows(sample_uniform(1, 8, rng), predictors, cfg)
    const = oracles.smooth_parametric(np.full(40, 2.5), rows)
    assert np.max(np.abs(const - 2.5)) < 1e-12
    u, v = rng.standard_normal(40), rng.standard_normal(40)
    lin = oracles.smooth_parametric(2.0 * u + 3.0 * v, rows)
    parts = 2.0 * oracles.smooth_parametric(u, rows) + 3.0 * oracles.smooth_parametric(v, rows)
    assert np.max(np.abs(lin - parts)) < 1e-12
    with pytest.raises(ValueError):
        oracles.smooth_parametric(u[:-1], rows)


def test_smoothing_own_responses_matches_estimate(rng):
    x, predictors, responses = random_instance(rng, 1, 40)
    cfg = locreg.LocalFitConfig(degree=0, bandwidth=0.5)
    rows, _ = locreg.weight_rows(x[None, :], predictors, cfg)
    smoothed = oracles.smooth_parametric(responses, rows)[0]
    assert smoothed == pytest.approx(
        locreg.estimate(x, predictors, responses, cfg).value, abs=1e-12
    )


def test_equivalent_kernel_against_estimate(rng):
    n = 2000
    predictors = density_sample(uniform_model(1), n, rng)
    angles = np.arctan2(predictors[:, 1], predictors[:, 0])
    responses = np.cos(angles) + 0.1 * rng.standard_normal(n)
    cfg0 = locreg.LocalFitConfig(degree=0, bandwidth=0.3)
    cfg1 = locreg.LocalFitConfig(degree=1, bandwidth=0.3)
    x = circle(1.2)[0]
    fhat = 1.0 / (2.0 * pi)
    equiv0 = oracles.equivalent_kernel_estimate(x, predictors, responses, cfg0, fhat)
    equiv1 = oracles.equivalent_kernel_estimate(x, predictors, responses, cfg1, fhat)
    assert equiv0 == equiv1
    reference = locreg.estimate(x, predictors, responses, cfg1).value
    assert equiv0 / reference == pytest.approx(1.0, abs=0.1)


def test_equivalent_kernel_single_point():
    x = np.array([1.0, 0.0])
    cfg = locreg.LocalFitConfig(degree=0, bandwidth=0.5)
    scale = kernel_constants(VON_MISES, 1).scale
    value = oracles.equivalent_kernel_estimate(x, x[None, :], np.array([2.0]), cfg, 0.4)
    assert value == pytest.approx(2.0 / (0.5 * scale * 0.4), rel=1e-12)


def test_bias_variance_plugin_values():
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.3)
    bias, variance = oracles.asymptotic_bias_variance(
        q=1, density=1.0 / (2.0 * pi), grad_inner=0.0, hessian_trace=0.0,
        sigma2=0.25, cfg=cfg, n=1000,
    )
    assert bias == 0.0
    assert variance == pytest.approx(sqrt(pi) / 1200.0, rel=1e-10)
    # flat design: both degrees share the same leading bias
    b0, _ = oracles.asymptotic_bias_variance(1, 0.5, 0.0, 2.0, 0.25, locreg.LocalFitConfig(0, 0.3), 1000)
    b1, _ = oracles.asymptotic_bias_variance(1, 0.5, 0.0, 2.0, 0.25, cfg, 1000)
    assert b0 == pytest.approx(b1, rel=1e-12)


def test_conditional_bias_tracks_curvature(rng):
    """Exact conditional bias of the linear fit against its leading term.

    The regression is the first coordinate on the circle, so the Hessian
    trace of its radial extension at angle zero is -1.
    """
    n = 4000
    x = circle(0.0)[0]
    for h in (0.15, 0.25, 0.4):
        cfg = locreg.LocalFitConfig(degree=1, bandwidth=h)
        predicted = 0.5 * (-1.0) * h**2
        biases = []
        for _ in range(40):
            angles = rng.uniform(0.0, 2.0 * pi, n)
            predictors = circle(angles)
            mean_values = np.cos(angles)
            fit = locreg.estimate(x, predictors, mean_values, cfg)
            biases.append(fit.value - 1.0)
        observed = float(np.mean(biases))
        assert observed == pytest.approx(predicted, rel=0.25)


def test_singular_cases(rng):
    predictors = circle(np.array([pi, pi + 0.01, pi - 0.01, pi + 0.02]))
    cfg = locreg.LocalFitConfig(degree=0, bandwidth=0.01)
    with pytest.raises(locreg.SingularGramError):
        locreg.local_weights(circle(0.0)[0], predictors, cfg)
    with pytest.raises(ValueError):
        locreg.local_weights(circle(0.0)[0], predictors[:2], locreg.LocalFitConfig(1, 0.5))


@pytest.mark.parametrize("degree", [0, 1])
def test_weight_rows_zero_at_empty_nodes_of_every_block(degree, rng):
    """30 points in a cap at the north pole leave 1209 of the 2304 nodes
    without kernel mass at h = 0.03, over several node blocks; both degrees
    give them zero rows and no flag, and every other row sums to 1 (to
    cond * eps at unflagged degree-1 nodes near the rank test's threshold)."""
    predictors = sample_uniform(2, 30, rng) + [0.0, 0.0, 3.0]
    predictors /= np.linalg.norm(predictors, axis=1, keepdims=True)
    nodes = goftest.default_quadrature(2).nodes
    cfg = locreg.LocalFitConfig(degree, 0.03)
    empty = ~locreg.kernel_weight_matrix(nodes, predictors, cfg).any(axis=1)
    assert empty.sum() == 1209
    assert sum(empty[block].any() for block in locreg.node_blocks(len(nodes))) > 1
    rows, flags = locreg.weight_rows(nodes, predictors, cfg)
    assert not np.any(rows[empty]) and not flags[empty].any()
    assert np.max(np.abs(rows[~empty].sum(axis=1) - 1.0)) < 1e-5


def test_ridge_fallback_flags_degenerate_design(rng):
    # all mass on one data point: the tangent columns collapse
    predictors = circle(np.array([0.3, 0.3, 0.3, 0.3, 3.0]))
    responses = np.ones(5)
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.05)
    fit = locreg.estimate(circle(0.3)[0], predictors, responses, cfg)
    assert fit.regularized
    rows, flags = locreg.weight_rows(circle(0.3), predictors, cfg)
    assert flags[0]


def test_config_validation():
    with pytest.raises(ValueError):
        locreg.LocalFitConfig(degree=2, bandwidth=0.5)
    for h in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            locreg.LocalFitConfig(degree=0, bandwidth=h)


def reference_rows(nodes, predictors, cfg):
    """Per-node weighted least squares with the rank test; a flagged node
    takes the local-constant row."""
    rows, flags = [], []
    for x in nodes:
        w = oracles.kernel_weights(x, predictors, cfg)
        if cfg.degree == 0:
            rows.append(w / w.sum())
            flags.append(False)
            continue
        design = np.column_stack(
            [np.ones(len(predictors)), (predictors - x) @ projection_basis(x).columns]
        )
        a = design * np.sqrt(w)[:, None]
        diag = np.abs(np.diag(np.linalg.qr(a)[1]))
        flagged = not diag.min() > 1e-10 * diag.max() > 0
        rows.append(w / w.sum() if flagged else np.linalg.pinv(a)[0] * np.sqrt(w))
        flags.append(flagged)
    return np.array(rows), np.array(flags)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_weight_rows_match_per_node_least_squares(q, degree, rng):
    """Blocked rows against per-node solves, across a block boundary.

    Data sit in a cap around the north pole plus four copies of the south
    pole.  Nodes in the cap have full-rank local designs; the kernel weights
    of nodes near the south pole vanish on the cap, so their designs see only
    the copies, have rank one and fall back to local constant.  Both kinds
    are shuffled through every block.
    """
    def around(pole, spread, count):
        points = pole + spread * rng.standard_normal((count, q + 1))
        return points / np.linalg.norm(points, axis=1, keepdims=True)

    north = np.eye(q + 1)[-1]
    predictors = np.vstack([around(north, 0.08, 60), np.tile(-north, (4, 1))])
    m = locreg.NODE_BLOCK + 100
    nodes = np.vstack([around(north, 0.05, m - 60), around(-north, 0.05, 60)])
    nodes = nodes[rng.permutation(m)]
    cfg = locreg.LocalFitConfig(degree=degree, bandwidth=0.04)
    rows, flags = locreg.weight_rows(nodes, predictors, cfg)
    ref_rows, ref_flags = reference_rows(nodes, predictors, cfg)
    assert np.array_equal(flags, ref_flags)
    if degree == 1:
        first = flags[: locreg.NODE_BLOCK]
        assert first.any() and not first.all()
        assert flags[locreg.NODE_BLOCK:].any()
    scale = np.abs(ref_rows).max(axis=1, keepdims=True)
    assert np.max(np.abs(rows - ref_rows) / scale) < 1e-10


def test_in_place_kernel_matrix_is_bit_identical_to_the_formula(rng):
    """The gaps are scaled in place on the product's array, or on a given
    ``out``: the same IEEE operations as L((1 - nodes @ X^T) / h^2), floored
    at WEIGHT_FLOOR, for the von Mises kernel and for a custom one."""
    predictors = sample_uniform(2, 120, rng)
    nodes = sample_uniform(2, 300, rng)
    custom = directional_kernel(lambda r: np.exp(-2.0 * r), decay=(1.0, 2.0), tag="fast")
    out = np.empty((len(nodes), len(predictors)))
    for h in np.geomspace(0.04, 1.5, 20):
        cfg = locreg.LocalFitConfig(degree=0, bandwidth=float(h))
        expected = cfg.kernel((1.0 - nodes @ predictors.T) / h**2)
        expected[expected < locreg.WEIGHT_FLOOR] = 0.0
        assert np.array_equal(locreg.kernel_weight_matrix(nodes, predictors, cfg), expected)
        for kernel in (VON_MISES, custom):
            cfg = locreg.LocalFitConfig(degree=0, bandwidth=float(h), kernel=kernel)
            expected = kernel((1.0 - nodes @ predictors.T) / h**2)
            expected[expected < locreg.WEIGHT_FLOOR] = 0.0
            out.fill(np.nan)
            assert locreg.kernel_weight_matrix(nodes, predictors, cfg, out=out) is out
            assert np.array_equal(out, expected)
            assert np.array_equal(locreg.kernel_weight_matrix(nodes, predictors, cfg), expected)


def test_fallback_rows_sum_to_one_where_kernel_weights_sit_at_the_floor():
    """S4 nodes whose kernel weights are all near WEIGHT_FLOOR.

    No weight lies below 1e-300, so the moments, divided by the kernel mass,
    and the root-weighted designs stay far above the subnormal range without
    any rescale; an exact power-of-two scaling of the kernel matrix must
    leave the flagged rows bit for bit as they are.  A flagged row is the
    local-constant row, so it sums to 1 and reproduces constants.
    """
    predictors, _ = simsuite.generate(
        simsuite.make_scenario("S4", 2), 250, np.random.default_rng(123)
    )
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.04)
    nodes = goftest.default_quadrature(2).nodes
    raw = locreg.kernel_weight_matrix(nodes, predictors, cfg)
    mass = raw.sum(axis=1) > 0
    nodes, raw = nodes[mass], raw[mass]
    rows, flags = locreg.weight_rows(nodes, predictors, cfg, raw=raw)
    assert (len(nodes), flags.sum()) == (2216, 1067)
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows[flags].sum(axis=1) - 1.0)) < 1e-12
    scaled, scaled_flags = locreg.weight_rows(nodes, predictors, cfg, raw=raw * 2.0**600)
    assert np.array_equal(scaled_flags, flags)
    assert np.array_equal(scaled[flags], rows[flags])
    ref_rows, ref_flags = reference_rows(nodes[~flags], predictors, cfg)
    assert not ref_flags.any()
    scale = np.abs(ref_rows).max(axis=1, keepdims=True)
    assert np.max(np.abs(rows[~flags] - ref_rows) / scale) < 1e-10

    # q=3: S2 rows scaled to peaks of 1e-290, so every weight lies between
    # about 1e-300 and 1e-290
    predictors, _ = simsuite.generate(
        simsuite.make_scenario("S2", 3), 250, np.random.default_rng(0)
    )
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=0.3)
    nodes = goftest.default_quadrature(3).nodes[:1100]
    raw = locreg.kernel_weight_matrix(nodes, predictors, cfg)
    tiny = raw * (1e-290 / raw.max(axis=1))[:, None]
    assert tiny.min() > locreg.WEIGHT_FLOOR and tiny.max() < 1.001e-290
    rows, flags = locreg.weight_rows(nodes, predictors, cfg, raw=tiny)
    ref_rows, ref_flags = locreg.weight_rows(nodes, predictors, cfg, raw=raw)
    assert np.all(np.isfinite(rows)) and np.array_equal(flags, ref_flags)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12
    scale = np.abs(ref_rows).max(axis=1, keepdims=True)
    assert np.max(np.abs(rows - ref_rows) / scale) < 1e-12


# (scenario, q, h): the moment gate passes from about 1 % to all of their nodes
GATE_CASES = [
    ("S2", 3, 0.04), ("S2", 3, 0.1), ("S2", 3, 0.5),
    ("S4", 2, 0.04), ("S4", 2, 0.1), ("S4", 1, 0.04),
]


def gate_case(scenario, q, h):
    """Scenario data at seed 0 and the default quadrature nodes with kernel
    mass; at q=3 only the first 1100 of its 20 000 nodes (three blocks)."""
    predictors, _ = simsuite.generate(
        simsuite.make_scenario(scenario, q), 250, np.random.default_rng(0)
    )
    cfg = locreg.LocalFitConfig(degree=1, bandwidth=h)
    nodes = goftest.default_quadrature(q).nodes[:1100]
    raw = locreg.kernel_weight_matrix(nodes, predictors, cfg)
    mass = raw.sum(axis=1) > 0
    return nodes[mass], predictors, cfg, raw[mass]


def test_moment_rows_match_qr_rows_across_the_gate(monkeypatch, rng):
    """Rows that mix the moment form and the stacked QR, block by block,
    against the stacked QR at every node: identical flags, rows within 1e-10
    relative, and so statistics within 1e-10 relative too."""
    masks = []
    moments = locreg._moment_rows

    def recorded(*args):
        fast = moments(*args)
        masks.append(fast)
        return fast

    monkeypatch.setattr(locreg, "_moment_rows", recorded)
    shares = []
    for scenario, q, h in GATE_CASES:
        nodes, predictors, cfg, raw = gate_case(scenario, q, h)
        start = len(masks)
        rows, flags = locreg.weight_rows(nodes, predictors, cfg, raw=raw)
        ref_rows, ref_flags = oracles.stacked_qr_weight_rows(nodes, predictors, raw)
        assert np.array_equal(flags, ref_flags)
        scale = np.abs(ref_rows).max(axis=1, keepdims=True)
        assert np.max(np.abs(rows - ref_rows) / scale) < 1e-10
        residuals = rng.standard_normal(len(predictors))
        stat, ref_stat = ((rows @ residuals) ** 2).sum(), ((ref_rows @ residuals) ** 2).sum()
        assert abs(stat - ref_stat) < 1e-10 * ref_stat
        shares.append(np.concatenate(masks[start:]).mean())
    assert min(shares) < 0.05 and max(shares) == 1.0
    assert any(fast.any() and not fast.all() for fast in masks)


def test_ambient_moment_rows_match_the_tangent_form():
    """The ambient (q+1)×(q+1) moment rows against the tangent-basis form of
    ``oracles.tangent_moment_rows`` on every GATE_CASES entry.  Gate masks are
    identical except at nodes whose gate quantity eps (1 + |t̄|^2) / λ_min(C)
    lies within 1e-6 relative of MOMENT_GATE.  Rows agree within 1e-12
    relative plus four times that quantity: it bounds how much each form
    amplifies the rounding of its moments, so near the gate both are about
    1e-11 off the stacked QR and off each other."""
    for scenario, q, h in GATE_CASES:
        nodes, predictors, cfg, raw = gate_case(scenario, q, h)
        ref_rows, ref_fast, gate = oracles.tangent_moment_rows(nodes, predictors, raw)
        coef = np.empty((len(nodes), 1, len(predictors)))
        fast = locreg._moment_rows(nodes, predictors, raw, coef[:, 0])
        near = np.abs(gate / locreg.MOMENT_GATE - 1.0) < 1e-6
        assert np.array_equal(fast | near, ref_fast | near)
        both = fast & ref_fast
        assert both.any()
        scale = np.abs(ref_rows[both]).max(axis=1)
        error = np.abs(coef[both, 0] - ref_rows[both]).max(axis=1) / scale
        assert np.all(error <= 1e-12 + 4.0 * gate[both])
        assert not np.any(coef[~fast])


def test_single_point_fits_are_the_stacked_qr_rows(rng):
    """``local_weights`` and ``estimate`` at one point are the stacked QR's
    rows on that one node, bit for bit, at up to four GATE_CASES nodes of
    each kind: inside the moment gate, outside it, and flagged by the rank
    test.  A single-point fit never takes the moment form."""
    for scenario, q, h in GATE_CASES:
        nodes, predictors, cfg, raw = gate_case(scenario, q, h)
        fast = locreg._moment_rows(nodes, predictors, raw, np.empty_like(raw))
        flags = oracles.stacked_qr_weight_rows(nodes, predictors, raw)[1]
        responses = rng.standard_normal(len(predictors))
        for kind in (fast, ~fast & ~flags, flags):
            picked = np.flatnonzero(kind)
            for x in nodes[picked[:: len(picked) // 4 + 1]]:
                ref_rows, ref_flags = oracles.stacked_qr_weight_rows(
                    x[None], predictors, oracles.kernel_weights(x, predictors, cfg)[None]
                )
                fit = locreg.estimate(x, predictors, responses, cfg)
                assert np.array_equal(locreg.local_weights(x, predictors, cfg), ref_rows[0])
                assert np.array_equal(fit.weights, ref_rows[0])
                assert fit.regularized == ref_flags[0]


def test_nodes_passing_the_moment_gate_pass_the_rank_test():
    """The R-diagonal ratio of a node that passes the gate is at least
    sqrt(λ_min(C) / (4 (1 + |t̄|^2))), so at least sqrt(eps / (4 gate)),
    some 2.4e-3: the rank test cannot flag it, and flags stay the QR's."""
    eps = np.finfo(float).eps
    floor = sqrt(eps / (4.0 * locreg.MOMENT_GATE))
    assert floor > 1e6 * locreg._RANK_TOL
    passed = 0
    for scenario, q, h in [("S2", 3, 0.1), ("S4", 2, 0.1), ("S4", 1, 0.04)]:
        nodes, predictors, cfg, raw = gate_case(scenario, q, h)
        tangent = np.einsum("nd,mdk->mnk", predictors, tangent_bases(nodes))
        sums = raw.sum(axis=1)
        tbar = np.einsum("mn,mnk->mk", raw, tangent) / sums[:, None]
        spread = (tangent - tbar[:, None, :]) * np.sqrt(raw / sums[:, None])[:, :, None]
        lam = np.linalg.eigvalsh(np.swapaxes(spread, 1, 2) @ spread)[:, 0]
        offset = 1.0 + (tbar**2).sum(axis=1)
        gate = lam * locreg.MOMENT_GATE >= eps * offset
        design = np.concatenate([np.ones(tangent.shape[:2] + (1,)), tangent], axis=2)
        r_mat = np.linalg.qr(design * np.sqrt(raw)[:, :, None], mode="r")
        diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
        ratio = diag.min(axis=1) / diag.max(axis=1)
        bound = np.sqrt(lam[gate] / (4.0 * offset[gate]))
        assert np.all(ratio[gate] >= bound * (1.0 - 1e-8))
        assert np.all(ratio[gate] >= floor * (1.0 - 1e-8))
        passed += gate.sum()
    assert passed > 0


# small rules: 256 nodes at q=1, 12 x 12 at q=2, 400 Monte Carlo nodes at q=3
PROPERTY_RULES = {1: None, 2: 12, 3: 400}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    q=st.integers(1, 3),
    degree=st.integers(0, 1),
    h=st.floats(0.02, 1.5),
    log_spread=st.floats(-3.0, 0.5),
    extra=st.integers(0, 6),
    copies=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rows_on_degenerate_designs(q, degree, h, log_spread, extra, copies, seed):
    """weight_rows and node_cache on data in a cap of random spread, with
    repeated points, down to n = q+2: every row is finite, an empty node's
    row is zero, and every other row sums to 1, within 1e-12 for degree 0
    and local-constant fallbacks and within 1e3 eps cond for unflagged
    degree-1 rows.  The R-diagonal rank test lets designs of condition
    number up to about 1e12 through, so those rows can be 1e-4 off."""
    rng = np.random.default_rng(seed)
    n = q + 2 + extra
    predictors = np.eye(q + 1)[-1] + 10.0**log_spread * rng.standard_normal((n, q + 1))
    predictors /= np.linalg.norm(predictors, axis=1, keepdims=True)
    predictors[n - copies:] = predictors[0]
    quadrature = goftest.default_quadrature(q, PROPERTY_RULES[q])
    cfg = locreg.LocalFitConfig(degree, h)
    raw = locreg.kernel_weight_matrix(quadrature.nodes, predictors, cfg)
    rows, flags = locreg.weight_rows(quadrature.nodes, predictors, cfg, raw=raw)
    empty = ~raw.any(axis=1)
    sums = rows.sum(axis=1)
    assert np.all(np.isfinite(rows))
    assert not np.any(rows[empty]) and not flags[empty].any()
    exact = ~empty & (flags | (degree == 0))
    assert np.all(np.abs(sums[exact] - 1.0) < 1e-12)
    loose = ~empty & ~exact
    if loose.any():
        nodes = quadrature.nodes[loose]
        tangent = (predictors[None] - nodes[:, None]) @ tangent_bases(nodes)
        design = np.concatenate([np.ones(tangent.shape[:2] + (1,)), tangent], axis=2)
        peak = raw[loose] / raw[loose].max(axis=1, keepdims=True)
        sv = np.linalg.svd(design * np.sqrt(peak)[:, :, None], compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]
        assert np.all(np.abs(sums[loose] - 1.0) <= 1e3 * np.finfo(float).eps * cond)
    gof = goftest.GofConfig(fit=cfg, quadrature=quadrature)
    if empty.all():
        with pytest.raises(locreg.SingularGramError):
            goftest.node_cache(predictors, gof)
        return
    cache = goftest.node_cache(predictors, gof)
    assert np.array_equal(cache.rows, rows) and np.array_equal(cache.regularized, flags)
    assert cache.empty_count == empty.sum() and not np.any(cache.node_factor[empty])

