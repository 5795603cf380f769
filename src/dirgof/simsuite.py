"""Simulation scenarios and Monte Carlo drivers for size and power studies.

Four scenarios pair a parametric regression family with a design density,
a noise model and a deviation that switches the alternative on.  The driver
produces significance traces: empirical rejection proportions over a
bandwidth grid, computed from the same generated samples and the same
multiplier stream across the grid, which keeps the curves comparable
bandwidth to bandwidth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from math import pi, sqrt

import numpy as np

from . import density, goftest, parfit
from .kernels import VON_MISES, gof_asymptotic_variance
from .locreg import LocalFitConfig
from .sphere import surface_area

SCENARIO_IDS = ("S1", "S2", "S3", "S4")


def deviation_one(points) -> np.ndarray:
    """cos(2 pi x_1) (x_last^3 - 1) / log(2 + |x_last|); bounded by 2/log 2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    last = pts[:, -1]
    out = np.cos(2.0 * pi * pts[:, 0]) * (last**3 - 1.0) / np.log(2.0 + np.abs(last))
    if np.ndim(points) == 1:
        return float(out[0])
    return out


def deviation_two(points) -> np.ndarray:
    """cos(2 pi x_1^2 x_2) exp(x_last); bounded by e on the sphere."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.cos(2.0 * pi * pts[:, 0] ** 2 * pts[:, 1]) * np.exp(pts[:, -1])
    if np.ndim(points) == 1:
        return float(out[0])
    return out


_DEVIATIONS = {"d1": deviation_one, "d2": deviation_two}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A regression family with true parameter, design density and noise."""

    id: str
    q: int
    family: parfit.ParametricFamily
    theta0: np.ndarray
    design: density.DensityModel
    noise: str
    deviation: str | None
    deviation_coef: float
    noise_sd: float = 0.5

    def sigma(self, points) -> np.ndarray:
        """Conditional standard deviation at the given points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.noise == "hom":
            return np.full(pts.shape[0], self.noise_sd)
        het = density.named_model("M16s", self.q)
        return 0.25 + 3.0 * density.density_eval(het, pts)


def _mixture_with_uniform(model: density.DensityModel, share: float, q: int):
    """share * model + (1 - share) * uniform as one mixture."""
    comps = [
        (mu, kappa, share * weight)
        for mu, kappa, weight in zip(model.means, model.kappas, model.weights)
    ]
    pole = np.zeros(q + 1)
    pole[-1] = 1.0
    comps.append((pole, 0.0, 1.0 - share))
    return density.mixture_model(comps)


def make_scenario(scenario_id: str, q: int) -> Scenario:
    """Scenario presets S1-S4 with their published parameter values."""
    if q < 1:
        raise ValueError(f"dimension must be >= 1, got {q}")
    if scenario_id == "S1":
        return Scenario(
            id="S1",
            q=q,
            family=parfit.constant_family(),
            theta0=np.array([0.0]),
            design=density.named_model("M1", q),
            noise="het",
            deviation="d1",
            deviation_coef=0.75,
        )
    if scenario_id == "S2":
        return Scenario(
            id="S2",
            q=q,
            family=parfit.linear_family(q),
            theta0=np.array([1.0, -1.5] + [0.5] * q),
            design=_mixture_with_uniform(density.named_model("M4s", q), 0.6, q),
            noise="het",
            deviation="d1",
            deviation_coef=-0.75,
        )
    if scenario_id == "S3":
        return Scenario(
            id="S3",
            q=q,
            family=parfit.trig_family(q),
            theta0=np.array([0.0, 1.0, 1.5]),
            design=_mixture_with_uniform(density.named_model("M12s", q), 0.6, q),
            noise="hom",
            deviation="d2",
            deviation_coef=0.75,
        )
    if scenario_id == "S4":
        return Scenario(
            id="S4",
            q=q,
            family=parfit.damped_sine_family(q),
            theta0=np.array([0.0, 3.0, 4.0]),
            design=density.named_model("M20s", q),
            noise="hom",
            deviation="d2",
            deviation_coef=0.5,
        )
    if scenario_id == "QQ":
        # no-effect model with uniform design; the known-variance setting of
        # the asymptotic-normality experiment
        return Scenario(
            id="QQ",
            q=q,
            family=parfit.constant_family(),
            theta0=np.array([1.0]),
            design=density.named_model("M1", q),
            noise="hom",
            deviation=None,
            deviation_coef=0.0,
            noise_sd=sqrt(0.5),
        )
    raise ValueError(f"unknown scenario {scenario_id!r}; choose from {SCENARIO_IDS}")


def generate(
    scenario: Scenario,
    n: int,
    rng: np.random.Generator,
    under_null: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (predictors, responses); the alternative adds the deviation
    scaled by the scenario's ``deviation_coef``."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    predictors = density.density_sample(scenario.design, n, rng)
    mean = parfit.predict_batch(scenario.family, scenario.theta0, predictors)
    if not under_null and scenario.deviation_coef != 0.0 and scenario.deviation is not None:
        mean = mean + scenario.deviation_coef * _DEVIATIONS[scenario.deviation](predictors)
    noise = scenario.sigma(predictors) * rng.standard_normal(n)
    return predictors, mean + noise


def local_alternative_scale(n: int, h: float, q: int) -> float:
    """Critical drift rate (n h^(q/2))^(-1/2) separating power from level."""
    if n < 1 or h <= 0:
        raise ValueError("n and h must be positive")
    return (n * h ** (q / 2.0)) ** -0.5


@dataclass
class TraceResult:
    """Rejection proportions over a bandwidth grid, plus raw p-values."""

    scenario_id: str
    q: int
    n: int
    h_grid: np.ndarray
    alphas: np.ndarray
    rejections: np.ndarray
    p_values: np.ndarray
    trials: int
    bootstrap: int
    seed: int
    degree: int
    under_null: bool

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            ["scenario", "q", "n", "h", "alpha", "rejection_rate", "M", "B", "seed"]
        )
        for i, h in enumerate(self.h_grid):
            for j, alpha in enumerate(self.alphas):
                writer.writerow(
                    [
                        self.scenario_id,
                        self.q,
                        self.n,
                        f"{h:.17g}",
                        f"{alpha:.17g}",
                        f"{self.rejections[i, j]:.17g}",
                        self.trials,
                        self.bootstrap,
                        self.seed,
                    ]
                )


def _run_trials(trial, trials: int, workers: int) -> list:
    """``[trial(i) for i in range(trials)]``, over a process pool when workers > 1.

    Each trial seeds its own substream from its index, so the results do
    not depend on the worker count.
    """
    if workers <= 1:
        return [trial(i) for i in range(trials)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial, range(trials), chunksize=max(1, trials // (8 * workers))))


def _trial_p_values(
    trial: int, scenario, n, h_grid, bootstrap, degree, seed, under_null, local_alternative,
    quad_resolution,
) -> np.ndarray:
    """p-values over the bandwidth grid for one Monte Carlo trial."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    # a local alternative adds its h-dependent drift to null responses
    predictors, responses = generate(scenario, n, rng, under_null=under_null or local_alternative)
    multipliers = goftest.golden_section_draws((bootstrap, n), rng)
    out = np.empty(len(h_grid))
    residuals = resolution = None
    for i, h in enumerate(h_grid):
        fit = LocalFitConfig(degree=degree, bandwidth=float(h))
        rule = quad_resolution or goftest.default_resolution(scenario.q, fit)
        # the sorted grid meets each rule's bandwidths in one run: build it once
        if rule != resolution:
            resolution, quadrature = rule, goftest.default_quadrature(scenario.q, rule, seed=seed)
        cfg = goftest.GofConfig(
            fit=fit,
            quadrature=quadrature,
            bootstrap=bootstrap,
            seed=seed,
        )
        # the null bootstrap does not read h; a local alternative's drift does
        if local_alternative or residuals is None:
            y = responses
            if local_alternative:
                drift = local_alternative_scale(n, h, scenario.q) * scenario.deviation_coef
                y = responses + drift * _DEVIATIONS[scenario.deviation](predictors)
            _, residuals, _ = goftest.null_bootstrap(predictors, y, scenario.family, cfg, multipliers)
        values = goftest.streamed_statistic(predictors, cfg, residuals)[0]
        out[i] = np.mean(values[0] <= values[1:])
    return out


def significance_trace(
    scenario: Scenario,
    n: int,
    h_grid,
    trials: int,
    bootstrap: int,
    alphas=(0.01, 0.05, 0.10),
    seed: int = 0,
    degree: int = 0,
    under_null: bool = True,
    local_alternative: bool = False,
    quad_resolution: int | None = None,
    workers: int = 1,
) -> TraceResult:
    """Empirical rejection proportions per (bandwidth, level).

    Each trial reuses its generated sample, its multiplier block and its
    null bootstrap (null fit and refits) across the whole bandwidth grid;
    under ``local_alternative``, which needs ``under_null=False``, the
    responses move with h, so the null bootstrap reruns per h.
    ``quad_resolution`` pins one quadrature rule for the grid; by default
    ``goftest.default_resolution`` sizes it per h.  Trials are independent
    jobs over seeded substreams, so the result does not depend on the
    worker count.
    """
    h_grid = np.asarray(sorted(float(h) for h in h_grid))
    if h_grid.size == 0 or trials < 1 or bootstrap < 1:
        raise ValueError("need a nonempty grid and trials, bootstrap >= 1")
    if np.any(np.diff(h_grid) <= 0):
        raise ValueError("bandwidth grid has duplicates")
    for h in h_grid:  # refuses a bandwidth out of range before any trial runs
        LocalFitConfig(degree=degree, bandwidth=h)
    if local_alternative and under_null:
        raise ValueError("a local alternative drifts the responses: it needs under_null=False")
    if (local_alternative or not under_null) and scenario.deviation is None:
        raise ValueError(f"scenario {scenario.id} has no deviation to switch on")
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if np.any(np.diff(alphas) <= 0) or not np.all((alphas > 0) & (alphas < 1)):
        raise ValueError("significance levels must lie in (0, 1) without duplicates")
    trial = partial(
        _trial_p_values, scenario=scenario, n=n, h_grid=h_grid, bootstrap=bootstrap,
        degree=degree, seed=seed, under_null=under_null, local_alternative=local_alternative,
        quad_resolution=quad_resolution,
    )
    p_values = np.vstack(_run_trials(trial, trials, workers))
    rejections = np.stack(
        [(p_values[:, i][:, None] < alphas[None, :]).mean(axis=0) for i in range(h_grid.size)]
    )
    return TraceResult(
        scenario_id=scenario.id,
        q=scenario.q,
        n=n,
        h_grid=h_grid,
        alphas=alphas,
        rejections=rejections,
        p_values=p_values,
        trials=trials,
        bootstrap=bootstrap,
        seed=seed,
        degree=degree,
        under_null=under_null,
    )


@dataclass
class QqResult:
    """Standardized statistics for the asymptotic-normality experiment."""

    scenario_id: str
    q: int
    n: int
    h: float
    seed: int
    degree: int
    values: np.ndarray
    center: float
    scale: float


def _qq_trial(trial: int, scenario, n, h, degree, seed, quad_resolution) -> float:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    fit = LocalFitConfig(degree=degree, bandwidth=h)
    quadrature = goftest.default_quadrature(scenario.q, quad_resolution, seed=seed, fit=fit)
    predictors, responses = generate(scenario, n, rng, under_null=True)
    theta = parfit.fit(scenario.family, predictors, responses).theta
    cfg = goftest.GofConfig(
        fit=fit,
        quadrature=quadrature,
        bootstrap=1,
        seed=seed,
    )
    return goftest.statistic(predictors, responses, scenario.family, theta, cfg)


def qq_experiment(
    scenario: Scenario,
    n: int,
    h: float,
    trials: int,
    seed: int = 0,
    degree: int = 0,
    quad_resolution: int | None = None,
    workers: int = 1,
) -> QqResult:
    """Standardized statistics against the limiting normal law.

    Only homoscedastic scenarios qualify: the centering needs the conditional
    variance in closed form.  Values are standard normal in the limit.
    """
    if scenario.noise != "hom":
        raise ValueError("the normality experiment needs a known constant variance")
    sigma2 = scenario.noise_sd**2
    area = surface_area(scenario.q)
    variance = gof_asymptotic_variance(VON_MISES, scenario.q, sigma2**2 * area)
    fit_cfg = LocalFitConfig(degree=degree, bandwidth=h)
    center, scale = goftest.asymptotic_center_scale(
        fit_cfg, scenario.q, n, sigma2 * area, variance
    )
    trial = partial(
        _qq_trial, scenario=scenario, n=n, h=h, degree=degree, seed=seed,
        quad_resolution=quad_resolution,
    )
    stats = _run_trials(trial, trials, workers)
    values = np.array(
        [
            goftest.standardized_statistic(t, fit_cfg, scenario.q, n, center, scale)
            for t in stats
        ]
    )
    return QqResult(
        scenario_id=scenario.id,
        q=scenario.q,
        n=n,
        h=h,
        seed=seed,
        degree=degree,
        values=values,
        center=center,
        scale=scale,
    )
