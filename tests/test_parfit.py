from math import pi

import numpy as np
import oracles
import pytest

from dirgof import goftest, parfit, simsuite
from dirgof.sphere import sample_uniform

ALL_FAMILIES = [
    ("constant", lambda q: parfit.constant_family()),
    ("linear", lambda q: parfit.linear_family(q)),
    ("trig-s3", lambda q: parfit.trig_family(q)),
    ("damped-sine-s4", lambda q: parfit.damped_sine_family(q)),
]


def test_constant_fit_is_mean(rng):
    predictors = sample_uniform(1, 30, rng)
    responses = rng.standard_normal(30) + 4.0
    est = parfit.fit(parfit.constant_family(), predictors, responses)
    assert est.theta[0] == pytest.approx(responses.mean(), abs=1e-13)
    assert est.converged and est.iterations == 0


def test_linear_noiseless_interpolation(rng):
    family = parfit.linear_family(1)
    predictors = sample_uniform(1, 25, rng)
    truth = np.array([1.0, -1.5, 0.5])
    responses = parfit.predict_batch(family, truth, predictors)
    est = parfit.fit(family, predictors, responses)
    assert np.max(np.abs(est.theta - truth)) < 1e-8
    assert np.max(np.abs(est.residuals)) < 1e-10


def test_damped_sine_recovery_from_stated_init(rng):
    family = parfit.damped_sine_family(2)
    predictors = sample_uniform(2, 500, rng)
    truth = np.array([0.0, 3.0, 4.0])
    responses = parfit.predict_batch(family, truth, predictors)
    responses = responses + 0.1 * rng.standard_normal(500)
    est = parfit.fit(family, predictors, responses, theta_init=np.array([0.0, 2.0, 3.0]))
    assert est.converged
    assert np.max(np.abs(est.theta - truth)) < 0.1


def test_predict_batch_contracts(rng):
    points = sample_uniform(2, 15, rng)
    const = parfit.predict_batch(parfit.constant_family(), [2.0], points)
    assert np.all(const == 2.0)
    linear = parfit.linear_family(2)
    theta = np.array([0.4, 1.0, -2.0, 0.3])
    averaged = 0.5 * (
        parfit.predict_batch(linear, theta, points)
        + parfit.predict_batch(linear, theta, -points)
    )
    assert np.allclose(averaged, 0.4, atol=1e-12)
    trig = parfit.trig_family(2)
    at_pole = parfit.predict_batch(trig, np.array([0.2, 1.0, 1.5]), np.array([[1.0, 0.0, 0.0]]))
    assert at_pole[0] == pytest.approx(0.2 + 1.5, abs=1e-12)


def test_linear_families_residual_orthogonality(rng):
    for kind, build in ALL_FAMILIES[:3]:
        q = 2
        family = build(q)
        predictors = sample_uniform(q, 60, rng)
        responses = rng.standard_normal(60)
        est = parfit.fit(family, predictors, responses)
        design = family.design(predictors)
        assert np.max(np.abs(design.T @ est.residuals)) < 1e-8, kind


def test_constrained_linear_exact_constraint(rng):
    constraint = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    family = parfit.constrained_linear_family(constraint, 2)
    predictors = sample_uniform(2, 80, rng)
    responses = rng.standard_normal(80)
    est = parfit.fit(family, predictors, responses)
    slope = oracles.constrained_slope(family, est.theta)
    assert np.max(np.abs(constraint @ slope)) < 1e-12


def test_constrained_linear_recovers_feasible_truth(rng):
    constraint = np.array([[1.0, 1.0, 0.0]])
    family = parfit.constrained_linear_family(constraint, 2)
    predictors = sample_uniform(2, 60, rng)
    eta = np.array([0.5, -0.5, 0.8])
    responses = 0.3 + predictors @ eta
    est = parfit.fit(family, predictors, responses)
    assert est.theta[0] == pytest.approx(0.3, abs=1e-10)
    assert np.max(np.abs(oracles.constrained_slope(family, est.theta) - eta)) < 1e-10


@pytest.mark.parametrize("kind,build", ALL_FAMILIES)
def test_gradients_match_finite_differences(kind, build, rng):
    q = 2
    family = build(q)
    points = sample_uniform(q, 11, rng)
    eps = 1e-6
    for _ in range(100):
        theta = rng.uniform(0.5, 3.0, family.dim_theta)
        grad = family.grad_theta(theta, points)
        for j in range(family.dim_theta):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (
                parfit.predict_batch(family, up, points)
                - parfit.predict_batch(family, dn, points)
            ) / (2.0 * eps)
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(grad[:, j] - fd) / denom) < 1e-6, kind


def test_objective_never_increases(rng):
    family = parfit.damped_sine_family(1)
    predictors = sample_uniform(1, 200, rng)
    responses = parfit.predict_batch(family, np.array([1.0, 2.0, 2.5]), predictors)
    responses = responses + 0.3 * rng.standard_normal(200)
    start = np.array([0.0, 1.0, 1.0])
    initial = float(
        np.sum((responses - parfit.predict_batch(family, start, predictors)) ** 2)
    )
    est = parfit._levenberg_marquardt(family, predictors, responses[None, :], start)
    assert est.objective <= initial


def test_unconverged_fit_is_flagged(rng):
    family = parfit.damped_sine_family(1)
    predictors = sample_uniform(1, 200, rng)
    responses = parfit.predict_batch(family, np.array([0.0, 3.0, 4.0]), predictors)
    est = parfit._levenberg_marquardt(
        family, predictors, responses[None, :], np.array([0.0, 1.0, 1.0]), max_iter=1
    )
    assert not est.converged
    assert est.iterations == 1


def test_rank_deficient_design_raises(rng):
    family = parfit.linear_family(1)
    point = sample_uniform(1, 1, rng)
    predictors = np.repeat(point, 5, axis=0)
    with pytest.raises(parfit.RankDeficientError):
        parfit.fit(family, predictors, np.arange(5.0))


def test_fit_validates_inputs(rng):
    family = parfit.linear_family(1)
    with pytest.raises(ValueError):
        parfit.fit(family, sample_uniform(1, 2, rng), np.zeros(2))
    with pytest.raises(ValueError):
        parfit.fit(
            parfit.damped_sine_family(1),
            sample_uniform(1, 10, rng),
            np.zeros(10),
            theta_init=np.array([np.nan, 1.0, 1.0]),
        )


def test_fit_batch_matches_single_fits(rng):
    family = parfit.trig_family(1)
    predictors = sample_uniform(1, 50, rng)
    block = rng.standard_normal((6, 50))
    thetas, residuals, converged = parfit.fit_batch(family, predictors, block)
    assert converged.all()
    for i in range(6):
        single = parfit.fit(family, predictors, block[i])
        assert np.max(np.abs(thetas[i] - single.theta)) < 1e-10
        assert np.max(np.abs(residuals[i] - single.residuals)) < 1e-10


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize(
    "build",
    [
        lambda q: parfit.constant_family(),
        parfit.linear_family,
        parfit.trig_family,
        lambda q: parfit.constrained_linear_family(np.ones((1, q + 1)), q),
    ],
    ids=["constant", "linear", "trig", "constrained-linear"],
)
def test_linear_fits_match_triangular_solve_oracle(build, q, rng):
    family = build(q)
    predictors = sample_uniform(q, 120, rng)
    block = rng.standard_normal((200, 120)) + np.sin(3.0 * predictors[:, 0])
    want_thetas, want_residuals = oracles.triangular_least_squares(family, predictors, block)
    thetas, residuals, _ = parfit.fit_batch(family, predictors, block)
    # numpy and scipy may ship different BLAS builds: equal up to rounding,
    # with an absolute floor for entries near zero (the data are of order 1)
    np.testing.assert_allclose(thetas, want_thetas, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(residuals, want_residuals, rtol=1e-13, atol=1e-14)
    for y in block[[0, 99, 199]]:
        want_theta, want_resid = oracles.triangular_least_squares(family, predictors, y)
        single = parfit.fit(family, predictors, y)
        np.testing.assert_allclose(single.theta, want_theta, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(single.residuals, want_resid, rtol=1e-13, atol=1e-14)


def test_fit_batch_nonlinear(rng):
    family = parfit.damped_sine_family(1)
    predictors = sample_uniform(1, 300, rng)
    truth = np.array([0.0, 3.0, 4.0])
    base = parfit.predict_batch(family, truth, predictors)
    block = base[None, :] + 0.05 * rng.standard_normal((5, 300))
    thetas, _, converged = parfit.fit_batch(family, predictors, block)
    assert converged.all()
    assert np.max(np.abs(thetas - truth)) < 0.1


def test_fit_batch_rejects_mismatched_response_block(rng):
    predictors = sample_uniform(1, 50, rng)
    block = rng.standard_normal((4, 49))
    for family in (parfit.trig_family(1), parfit.damped_sine_family(1)):
        with pytest.raises(ValueError, match="49 columns.*50 points"):
            parfit.fit_batch(family, predictors, block)


def test_fit_rejects_mismatched_responses(rng):
    predictors = sample_uniform(1, 50, rng)
    responses = rng.standard_normal(49)
    for family in (parfit.linear_family(1), parfit.damped_sine_family(1)):
        with pytest.raises(ValueError, match="49 responses.*50 points"):
            parfit.fit(family, predictors, responses)


def _ignores_theta(theta, points):
    return np.zeros(len(points))


def _pretends_to_move(theta, points):
    return np.ones((len(points), 1))


def _cube(theta, points):
    return np.full(len(points), theta[0] ** 3)


def _cube_grad(theta, points):
    return np.full((len(points), 1), 3.0 * theta[0] ** 2)


def _cliff(theta, points):
    # every move of more than 5e-12 away from theta = 1 costs 1e6
    return np.full(len(points), theta[0] + 1e6 * (abs(theta[0] - 1.0) > 5e-12))


# with two points the Gram entry of the second parameter, 2 * TINY**2, is
# subnormal, so its damping underflows and the system is exactly singular
# while lambda is small; the cube makes the rows accept and reject apart, so
# one stacked solve meets singular and regular systems together
TINY = 1e-161


def _cube_and_tiny_slope(theta, points):
    return theta[0] ** 3 + TINY * theta[1] + 0.0 * points[:, 0]


def _cube_and_tiny_slope_grad(theta, points):
    return np.column_stack([np.full(len(points), 3.0 * theta[0] ** 2), np.full(len(points), TINY)])


def _s4_bootstrap_block(bootstrap):
    """Wild-bootstrap responses of one S4 null trial (q=2, n=250)."""
    scenario = simsuite.make_scenario("S4", 2)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    predictors, responses = simsuite.generate(scenario, 250, rng)
    fitted = parfit.predict_batch(
        scenario.family, parfit.fit(scenario.family, predictors, responses).theta, predictors
    )
    draws = goftest.golden_section_draws((bootstrap, 250), rng)
    return scenario.family, predictors, fitted + (responses - fitted) * draws


def _damped_sine_case(q, rows=40, theta0=None, **kw):
    rng = np.random.default_rng(100 + q)
    family = parfit.damped_sine_family(q)
    predictors = sample_uniform(q, 120, rng)
    base = parfit.predict_batch(family, np.array([0.5, 3.0, 4.0]), predictors)
    block = base + rng.uniform(0.05, 2.0, (rows, 1)) * rng.standard_normal((rows, 120))
    if theta0 is None:  # the warm start of fit_batch
        theta0 = parfit.fit(family, predictors, block.mean(axis=0)).theta
    return family, predictors, block, theta0, kw


def _s4_case():
    family, predictors, block = _s4_bootstrap_block(200)
    return family, predictors, block, parfit.fit(family, predictors, block.mean(axis=0)).theta, {}


def _give_up_case():
    # no step ever lowers the objective; centred rows shifted by d carry a
    # gradient 60 |d| against the stationarity bound ~0.031, so the rows
    # that give up past lambda = 1e12 land on both sides of it
    family = parfit.custom_family(_ignores_theta, _pretends_to_move, 1, kind="stubborn")
    z = np.random.default_rng(4).standard_normal(30)
    block = (z - z.mean()) + np.linspace(0.0, 0.002, 9)[:, None]
    return family, np.zeros((30, 2)), block, np.zeros(1), {}


def _last_try_case():
    # only the step at lambda = 1e12, about 1e-12 long, stays off the cliff
    family = parfit.custom_family(_cliff, _pretends_to_move, 1, kind="cliff")
    block = np.random.default_rng(6).uniform(-1.0, 0.5, (5, 4))
    return family, np.zeros((4, 2)), block, np.ones(1), {"max_iter": 3}


def _lambda_floor_case():
    # Gauss-Newton on theta**3 accepts every step, so lambda reaches its
    # 1e-12 floor before max_iter stops the rows mid-way
    family = parfit.custom_family(_cube, _cube_grad, 1, kind="cube")
    block = 1.0 + np.random.default_rng(5).standard_normal((6, 3))
    return family, np.zeros((3, 2)), block, np.array([100.0]), {"max_iter": 12}


def _singular_case():
    family = parfit.custom_family(
        _cube_and_tiny_slope, _cube_and_tiny_slope_grad, 2, kind="tiny-slope"
    )
    rng = np.random.default_rng(0)
    block = rng.standard_normal((8, 2)) * rng.uniform(0.01, 100.0, (8, 1))
    return family, np.zeros((2, 2)), block, np.array([2.0, 0.0]), {}


LOCK_STEP_CASES = {
    "damped-sine-q1": lambda: _damped_sine_case(1),
    "damped-sine-q2": lambda: _damped_sine_case(2),
    "damped-sine-q3": lambda: _damped_sine_case(3),
    "s4-bootstrap-block": _s4_case,
    "theta-init-seed": lambda: _damped_sine_case(2, theta0=np.array([0.0, 2.0, 3.0])),
    "max-iter-1": lambda: _damped_sine_case(2, rows=20, max_iter=1),
    "give-up-past-1e12": _give_up_case,
    "last-try-at-1e12": _last_try_case,
    "lambda-floor": _lambda_floor_case,
    "singular-damped-systems": _singular_case,
}


@pytest.mark.parametrize("case", sorted(LOCK_STEP_CASES))
def test_lock_step_solver_matches_per_row_oracle(case):
    family, predictors, block, theta0, kw = LOCK_STEP_CASES[case]()
    est = parfit._levenberg_marquardt(family, predictors, block, theta0, **kw)
    for i, row in enumerate(block):
        ref = oracles.levenberg_marquardt(family, predictors, row, theta0, **kw)
        assert np.array_equal(est.theta[i], ref.theta), (case, i)
        assert np.array_equal(est.residuals[i], ref.residuals), (case, i)
        assert est.converged[i] == ref.converged, (case, i)
        assert est.iterations[i] == ref.iterations, (case, i)
        assert est.objective[i] == ref.objective, (case, i)
    if case == "give-up-past-1e12":
        assert est.converged.any() and not est.converged.all()
    if case == "last-try-at-1e12":
        assert np.all(est.theta != theta0)


def test_s4_refits_give_up_and_go_through_fit_batch():
    family, predictors, block, theta0, _ = _s4_case()
    est = parfit._levenberg_marquardt(family, predictors, block, theta0)
    # most rows stop past lambda = 1e12 with a gradient above gtol and are
    # judged stationary there
    jac = family.grad_theta(est.theta, predictors)
    grad = 2.0 * np.einsum("rnk,rn->rk", jac, est.residuals)
    assert np.sum(np.linalg.norm(grad, axis=1) > 1e-8) > 50 and est.converged.all()
    thetas, residuals, converged = parfit.fit_batch(family, predictors, block)
    assert np.array_equal(thetas, est.theta) and np.array_equal(residuals, est.residuals)
    assert np.array_equal(converged, est.converged)


def test_fit_keeps_first_best_seed_like_the_per_row_oracle(rng):
    family = parfit.damped_sine_family(2)
    predictors = sample_uniform(2, 200, rng)
    truth = np.array([0.0, 3.0, 4.0])
    for init in ([0.0, 2.0, 3.0], [0.3, 1.0, 0.7], [0.0, 3.0, 4.0]):
        responses = parfit.predict_batch(family, truth, predictors)
        responses = responses + 0.2 * rng.standard_normal(200)
        seeds = [np.array(init), parfit._grid_init_damped_sine(family, predictors, responses)]
        refs = [oracles.levenberg_marquardt(family, predictors, responses, s) for s in seeds]
        ref = min(refs, key=lambda est: est.objective)
        est = parfit.fit(family, predictors, responses, theta_init=init)
        assert np.array_equal(est.theta, ref.theta)
        assert np.array_equal(est.residuals, ref.residuals)
        assert (est.converged, est.iterations, est.objective) == (
            ref.converged, ref.iterations, ref.objective
        )


def _one_theta_damped_sine_predict(theta, points):
    c, a, b = theta
    return c + a * np.sin(2.0 * pi * b * (1.0 / (2.0 + points[:, -1])))


def _one_theta_damped_sine_grad(theta, points):
    _, a, b = theta
    u = 1.0 / (2.0 + points[:, -1])
    phase = 2.0 * pi * b * u
    return np.column_stack(
        [np.ones(points.shape[0]), np.sin(phase), a * np.cos(phase) * 2.0 * pi * u]
    )


def test_custom_family_fits_like_the_built_in_damped_sine():
    built_in, predictors, block = _s4_bootstrap_block(60)
    # the kind selects the grid seed of fit, hence the warm start of fit_batch
    rebuilt = parfit.custom_family(
        _one_theta_damped_sine_predict, _one_theta_damped_sine_grad, 3, kind=built_in.kind
    )
    theta = np.array([[0.1, 2.0, 3.0], [0.0, 3.0, 4.0]])
    assert np.array_equal(rebuilt.predict(theta, predictors), built_in.predict(theta, predictors))
    assert np.array_equal(rebuilt.grad_theta(theta, predictors), built_in.grad_theta(theta, predictors))
    for got, want in zip(
        parfit.fit_batch(rebuilt, predictors, block), parfit.fit_batch(built_in, predictors, block)
    ):
        assert np.array_equal(got, want)
    single = parfit.fit(rebuilt, predictors, block[0], theta_init=[0.0, 2.0, 3.0])
    ref = parfit.fit(built_in, predictors, block[0], theta_init=[0.0, 2.0, 3.0])
    assert np.array_equal(single.theta, ref.theta) and single.iterations == ref.iterations
