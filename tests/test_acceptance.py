"""Acceptance suite: one test per release criterion, each printing a verdict.

Monte Carlo criteria run at desk scale with committed seeds, so reruns are
deterministic; the binomial bands and pilot floors they are checked against
are recorded inline or in tests/fixtures/.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from math import pi, sqrt
from pathlib import Path

import numpy as np
import oracles
import pytest
from scipy import special, stats

from dirgof import density, goftest, kernels, locreg, parfit, simsuite, sphere

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_exact_algebra(rng):
    with criterion(1, "exact algebra"):
        for degree in (0, 1):
            for _ in range(25):
                q = int(rng.integers(1, 4))
                x = sphere.sample_uniform(q, 1, rng)[0]
                predictors = sphere.sample_uniform(q, 50, rng)
                cfg = locreg.LocalFitConfig(degree, float(rng.uniform(0.25, 1.0)))
                weights = locreg.local_weights(x, predictors, cfg)
                assert abs(weights.sum() - 1.0) < 1e-10
                if degree == 0:
                    raw = oracles.kernel_weights(x, predictors, cfg)
                    assert np.max(np.abs(weights - raw / raw.sum())) < 1e-14

        # degree 1 reproduces projected-linear functions
        for _ in range(25):
            q = int(rng.integers(1, 4))
            x = sphere.sample_uniform(q, 1, rng)[0]
            predictors = sphere.sample_uniform(q, 60, rng)
            basis = sphere.projection_basis(x)
            slope = rng.standard_normal(q)
            level = float(rng.standard_normal())
            responses = level + ((predictors - x) @ basis.columns) @ slope
            fit = locreg.estimate(
                x, predictors, responses, locreg.LocalFitConfig(1, 0.5)
            )
            assert abs(fit.value - level) < 1e-9
            assert np.max(np.abs(fit.gradient - slope)) < 1e-9

        # basis invariants
        for _ in range(200):
            q = int(rng.integers(1, 5))
            x = sphere.sample_uniform(q, 1, rng)[0]
            cols = sphere.projection_basis(x).columns
            assert np.max(np.abs(cols.T @ cols - np.eye(q))) < 1e-10
            assert np.max(np.abs(cols.T @ x)) < 1e-10
            assert np.max(np.abs(cols @ cols.T + np.outer(x, x) - np.eye(q + 1))) < 1e-10

        # residual form of the statistic and reuse of cached weights
        predictors = sphere.sample_uniform(1, 80, rng)
        responses = 1.0 + 0.5 * rng.standard_normal(80)
        family = parfit.linear_family(1)
        cfg = goftest.GofConfig(
            fit=locreg.LocalFitConfig(0, 0.5),
            quadrature=goftest.default_quadrature(1),
            bootstrap=30,
            seed=77,
        )
        cache = goftest.node_cache(predictors, cfg)
        theta = parfit.fit(family, predictors, responses).theta
        fitted = parfit.predict_batch(family, theta, predictors)
        residual_form = goftest.statistic_from_residuals(cache, responses - fitted)
        direct_form = float(
            cache.node_factor @ (cache.rows @ responses - cache.rows @ fitted) ** 2
        )
        assert abs(residual_form - direct_form) < 1e-10

        result = goftest.bootstrap_test(predictors, responses, family, cfg)
        draws = goftest.golden_section_draws((30, 80), np.random.default_rng(77))
        for b in (0, 13, 29):
            star = fitted + (responses - fitted) * draws[b]
            theta_star = parfit.fit(family, predictors, star).theta
            scratch = goftest.statistic(predictors, star, family, theta_star, cfg)
            assert abs(scratch - result.bootstrap_statistics[b]) < 1e-10


def test_criterion_2_closed_form_oracles(rng):
    with criterion(2, "closed-form oracle equivalence"):
        for _ in range(200):
            n = int(rng.integers(30, 80))
            h = float(rng.uniform(0.25, 1.0))
            angles = rng.uniform(0.0, 2.0 * pi, n)
            predictors = np.column_stack([np.cos(angles), np.sin(angles)])
            responses = rng.standard_normal(n)
            a = float(rng.uniform(0.0, 2.0 * pi))
            closed = oracles.circular_local_linear(a, angles, responses, h)[0]
            generic = locreg.estimate(
                np.array([np.cos(a), np.sin(a)]),
                predictors,
                responses,
                locreg.LocalFitConfig(1, h),
            ).value
            assert abs(closed - generic) < 1e-8 * max(1.0, abs(generic))

        for _ in range(200):
            n = int(rng.integers(40, 90))
            h = float(rng.uniform(0.3, 1.0))
            predictors = sphere.sample_uniform(2, n, rng)
            responses = rng.standard_normal(n)
            angles = np.column_stack(
                [
                    np.arctan2(predictors[:, 1], predictors[:, 0]),
                    np.arccos(np.clip(predictors[:, 2], -1.0, 1.0)),
                ]
            )
            x = sphere.sample_uniform(2, 1, rng)[0]
            eval_angles = np.array(
                [[np.arctan2(x[1], x[0]), np.arccos(np.clip(x[2], -1.0, 1.0))]]
            )
            closed = oracles.spherical_local_linear(eval_angles, angles, responses, h)[0]
            generic = locreg.estimate(
                x, predictors, responses, locreg.LocalFitConfig(1, h)
            ).value
            assert abs(closed - generic) < 1e-8 * max(1.0, abs(generic))


def test_criterion_3_kernel_constants():
    with criterion(3, "kernel constants"):
        from math import gamma

        for q in (1, 2, 3):
            consts = kernels.kernel_constants(kernels.VON_MISES, q)
            exact_scale = (
                2.0 ** (q / 2.0 - 1.0) * sphere.surface_area(q - 1) * gamma(q / 2.0)
            )
            assert consts.scale == pytest.approx(exact_scale, rel=1e-6)
            assert consts.moment_ratio == pytest.approx(q / 2.0, rel=1e-6)
            assert consts.variance_factor == pytest.approx(
                (2.0 * sqrt(pi)) ** -q, rel=1e-6
            )
            factor = kernels.gof_asymptotic_variance(kernels.VON_MISES, q, 1.0)
            assert factor == pytest.approx((8.0 * pi) ** (-q / 2.0), rel=1e-6)

        for q in (1, 2, 3):
            nodes, weights = special.roots_jacobi(2048, q / 2.0 - 1.0, q / 2.0 - 1.0)
            for h in (0.2, 0.5, 1.0):
                const = kernels.normalizing_constant(kernels.VON_MISES, q, h)
                integral = (
                    const
                    * sphere.surface_area(q - 1)
                    * float(weights @ kernels.VON_MISES((1.0 - nodes) / h**2))
                )
                assert integral == pytest.approx(1.0, abs=1e-6)


def test_criterion_4_size_calibration():
    with criterion(4, "size calibration"):
        fixture = json.loads((FIXTURES / "power_pilot.json").read_text())
        seed = fixture["seed"]
        h_grid = [0.3, 0.5, 0.7, 1.0]
        for scenario_id in ("S1", "S2"):
            scenario = simsuite.make_scenario(scenario_id, 1)
            trace = simsuite.significance_trace(
                scenario, n=100, h_grid=h_grid, trials=500, bootstrap=200, seed=seed
            )
            level_column = list(trace.alphas).index(0.05)
            for i, h in enumerate(trace.h_grid):
                rate = trace.rejections[i, level_column]
                assert 0.026 <= rate <= 0.078, (scenario_id, h, rate)
            mid = list(trace.h_grid).index(0.5)
            ks_p = stats.kstest(trace.p_values[:, mid], "uniform").pvalue
            assert ks_p > 0.01, (scenario_id, ks_p)


def test_criterion_5_power():
    with criterion(5, "power exceeds size and grows with n"):
        fixture = json.loads((FIXTURES / "power_pilot.json").read_text())
        seed, h = fixture["seed"], fixture["h"]
        trials, bootstrap = fixture["trials"], fixture["bootstrap"]
        scenario = simsuite.make_scenario("S1", 1)

        def rejection(n, under_null):
            trace = simsuite.significance_trace(
                scenario, n=n, h_grid=[h], trials=trials, bootstrap=bootstrap,
                seed=seed, under_null=under_null,
            )
            return trace.rejections[0, list(trace.alphas).index(fixture["alpha"])]

        power_large = rejection(fixture["n_power"], under_null=False)
        power_small = rejection(fixture["n_small"], under_null=False)
        size_large = rejection(fixture["n_power"], under_null=True)

        stderr = sqrt(max(size_large * (1 - size_large), 1e-4) / trials)
        assert power_large > size_large + 3.0 * stderr
        assert power_large >= fixture["floor"]
        # reruns are seed-deterministic; the slack only covers BLAS variation
        assert power_large == pytest.approx(fixture["pilot_power_n250"], abs=0.02)
        assert power_small == pytest.approx(fixture["pilot_power_n100"], abs=0.02)
        assert power_large > power_small


def test_criterion_6_asymptotic_normality():
    with criterion(6, "asymptotic normality of the statistic"):
        n = 5000
        scenario = simsuite.make_scenario("QQ", 1)
        result = simsuite.qq_experiment(
            scenario, n=n, h=0.5 * n ** (-1.0 / 3.0), trials=200, seed=606
        )
        assert result.scale == pytest.approx(sqrt(0.626657), abs=1e-6)
        sw_p = stats.shapiro(result.values).pvalue
        assert sw_p > 0.01, sw_p


def test_criterion_7_sampler_and_quadrature(rng):
    with criterion(7, "sampler and quadrature identities"):
        for q in (1, 2):
            quad = sphere.build_quadrature(q, resolution=64)
            area = sphere.surface_area(q)
            d = q + 1
            for i in range(d):
                assert abs(quad.integrate(quad.nodes[:, i])) < 1e-8
                for j in range(d):
                    expected = area / d if i == j else 0.0
                    val = quad.integrate(quad.nodes[:, i] * quad.nodes[:, j])
                    assert abs(val - expected) < 1e-8
            cubic = quad.integrate(
                quad.nodes[:, 0] * quad.nodes[:, d - 1] ** 2
            )
            assert abs(cubic) < 1e-8

        quad = sphere.build_quadrature(3, resolution=150_000, seed=5)
        sq = quad.nodes[:, 2] ** 2
        assert abs(
            quad.integrate(sq) - sphere.surface_area(3) / 4.0
        ) < 3.0 * quad.standard_error(sq)

        for q, kappa in ((1, 5.0), (2, 5.0), (3, 2.0)):
            mu = np.zeros(q + 1)
            mu[-1] = 1.0
            draws = density.density_sample(density.vmf_model(mu, kappa), 10_000, rng)
            dots = draws @ mu
            d = q + 1
            expected = special.ive(d / 2.0, kappa) / special.ive(d / 2.0 - 1.0, kappa)
            assert abs(dots.mean() - expected) < 3.0 * dots.std() / sqrt(len(dots))


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI determinism"):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(17)
        scenario = simsuite.make_scenario("S2", 1)
        predictors, responses = simsuite.generate(scenario, 80, rng)
        with open(data, "w") as stream:
            stream.write("x1,x2,y\n")
            for row, y in zip(predictors, responses):
                stream.write(f"{float(row[0])!r},{float(row[1])!r},{float(y)!r}\n")

        commands = {
            "test": ["--command", "test", "--data", str(data), "--family", "linear",
                     "--h", "0.5", "--B", "60", "--seed", "3"],
            "trace": ["--command", "trace", "--scenario", "S1", "--q", "1", "--n", "40",
                      "--M", "6", "--B", "20", "--h-grid", "0.4,0.8", "--seed", "5"],
            "power": ["--command", "power", "--scenario", "S1", "--q", "1", "--n", "40",
                      "--M", "6", "--B", "20", "--h-grid", "0.5", "--seed", "5"],
            "qqcheck": ["--command", "qqcheck", "--scenario", "QQ", "--q", "1",
                        "--n", "80", "--M", "10", "--h", "0.3", "--seed", "5"],
        }
        for name, args in commands.items():
            outputs = []
            for variant, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
                out = tmp_path / f"{name}_{variant}.out"
                proc = subprocess.run(
                    [sys.executable, "-m", "dirgof", *args, *extra, "--out", str(out)],
                    capture_output=True,
                )
                assert proc.returncode == 0, (name, proc.stderr)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], name
