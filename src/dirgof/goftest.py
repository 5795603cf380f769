"""Goodness-of-fit test for parametric regression with spherical predictors.

The statistic integrates, over the sphere, the squared gap between the
local fit of the responses and the locally smoothed parametric fit, weighted
by a kernel density estimate of the design (and an optional weight
function).  Because both smoothers share the same effective weights, the
gap reduces to the smoothed parametric residuals, so the weight rows, the
density estimate and the quadrature are computed once per bandwidth and
shared read-only across the wild bootstrap replicates.  They are built per
block of ``locreg.NODE_BLOCK`` nodes and the statistic's Gram matrix from
slices of ``GRAM_SLICE`` nodes, so the (m, n) weight rows are the one
node-by-data array a test call holds; a trace adds its cached chordal gaps.

Calibration follows a residual wild bootstrap with golden-section
multipliers: resampled responses are the parametric fit plus residuals
scaled by two-point multipliers (mean 0, variance 1), the parameter is
refitted under the composite hypothesis, and the p-value is the fraction
of replicate statistics at or above the observed one.  None of that reads
the bandwidth, so a bandwidth grid shares one ``null_bootstrap``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from . import locreg, parfit
from .kernels import kernel_constants, normalizing_constant
from .locreg import LocalFitConfig
from .sphere import SphereQuadrature, build_quadrature

GOLDEN_LOW = (1.0 - sqrt(5.0)) / 2.0
GOLDEN_HIGH = (1.0 + sqrt(5.0)) / 2.0
GOLDEN_PROB_LOW = (5.0 + sqrt(5.0)) / 10.0

DEFAULT_NODE_RESOLUTION = {1: 256, 2: 48}
DEFAULT_MC_NODES = 20_000
# q=2 degree-0 resolution by bandwidth, (lowest h, r) widest first: from these
# h the statistic is within 1e-11 relative of the 48 x 48 rule's for S1-S4
# samples of n >= 20 (BENCH_11.json); sparser data need larger h
Q2_DEGREE0_TIERS = ((0.82, 24), (0.66, 32))
MAX_FAILED_REPLICATE_FRACTION = 0.05
# nodes per slice of the Gram matrix; coarse, as a syrk over fewer nodes runs
# slower per flop (S1's 2304 x 500 rows: 5-9 % slower as 2048 + 256 nodes)
GRAM_SLICE = 8 * locreg.NODE_BLOCK


def default_resolution(q: int, fit: LocalFitConfig | None = None) -> int:
    """Resolution of the default rule: a q=2 degree-0 fit takes the coarsest
    tier of ``Q2_DEGREE0_TIERS`` its bandwidth reaches, anything else one
    fixed size per q."""
    if q == 2 and fit is not None and fit.degree == 0:
        for low, resolution in Q2_DEGREE0_TIERS:
            if fit.bandwidth >= low:
                return resolution
    return DEFAULT_NODE_RESOLUTION.get(q, DEFAULT_MC_NODES)


def default_quadrature(
    q: int, resolution: int | None = None, seed: int = 0, fit: LocalFitConfig | None = None
) -> SphereQuadrature:
    """Integration rule for the statistic; ``resolution`` pins it, else
    ``default_resolution(q, fit)`` sizes it.

    The p-value is exact for the discretized statistic whatever the rule, as
    the bootstrap replicates share its nodes; the rule only sets how closely
    that statistic tracks the integral.  At q=2 the 48 x 48 rule is under-
    resolved at small h (4e-4 relative at h = 0.1 for degree 0, 6e-3 for
    degree 1); q>=3 takes 20 000 Monte Carlo nodes, 0.7-3 % off at every h.
    """
    if resolution is None:
        resolution = default_resolution(q, fit)
    return build_quadrature(q, resolution=resolution, seed=seed)


def golden_section_draws(shape, rng: np.random.Generator) -> np.ndarray:
    """Two-point wild bootstrap multipliers with mean 0 and variance 1."""
    u = rng.uniform(size=shape)
    return np.where(u < GOLDEN_PROB_LOW, GOLDEN_LOW, GOLDEN_HIGH)


@dataclass(frozen=True, eq=False)
class GofConfig:
    """Everything the test needs besides the data and the null family."""

    fit: LocalFitConfig
    quadrature: SphereQuadrature
    bootstrap: int = 1000
    seed: int = 0
    hypothesis: str = "composite"
    theta0: np.ndarray | None = None
    weight_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.bootstrap < 1:
            raise ValueError(f"bootstrap size must be >= 1, got {self.bootstrap}")
        if self.hypothesis not in ("composite", "simple"):
            raise ValueError(f"hypothesis must be composite or simple: {self.hypothesis!r}")
        if self.hypothesis == "simple" and self.theta0 is None:
            raise ValueError("the simple hypothesis needs theta0")


@dataclass
class NodeCache:
    """Per-node quantities shared across bootstrap replicates (read-only)."""

    rows: np.ndarray
    node_factor: np.ndarray
    regularized: np.ndarray
    empty_count: int

    @property
    def regularized_count(self) -> int:
        return int(self.regularized.sum())


def node_cache(predictors, cfg: GofConfig, gaps=None) -> NodeCache:
    """Weight rows and the density/weight/quadrature factor at every node,
    built per block of ``locreg.NODE_BLOCK`` nodes so the rows are the one (m, n)
    array; ``gaps`` as in ``locreg.kernel_weight_matrix``, shared by a grid.
    A node with no kernel mass (f̂ = 0, a zero row) is counted; only a rule
    of such nodes raises."""
    predictors = np.asarray(predictors, dtype=float)
    q = predictors.shape[1] - 1
    nodes = cfg.quadrature.nodes
    m = len(nodes)
    wvals = np.ones(m) if cfg.weight_fn is None else np.asarray(
        cfg.weight_fn(nodes), dtype=float
    )
    if not np.all((wvals >= 0) & (wvals < np.inf)):
        raise ValueError("weight_fn must return finite, non-negative values")
    rows, flags, means = np.empty((m, len(predictors))), np.empty(m, dtype=bool), np.empty(m)
    for block in locreg.node_blocks(m):
        raw = locreg.kernel_weight_matrix(
            nodes[block], predictors, cfg.fit, gaps=None if gaps is None else gaps[block]
        )
        means[block] = raw.mean(axis=1)
        flags[block] = locreg.weight_rows(
            nodes[block], predictors, cfg.fit, raw=raw, out=rows[block]
        )[1]
    if not means.any():
        raise locreg.SingularGramError(f"all {m} nodes have all-zero kernel weights")
    fhat = normalizing_constant(cfg.fit.kernel, q, cfg.fit.bandwidth) * means
    return NodeCache(
        rows=rows,
        node_factor=cfg.quadrature.weights * fhat * wvals,
        regularized=flags,
        empty_count=int((means == 0).sum()),
    )


def statistic_from_residuals(cache: NodeCache, residuals) -> np.ndarray | float:
    """Quadrature of the squared smoothed residuals; rows of a matrix batch.

    A batch of r rows over n points and m nodes is the quadratic form e G e^T
    with the n x n Gram matrix G = S^T S, S = diag(sqrt(f)) R (a syrk, f >= 0,
    summed over slices of GRAM_SLICE nodes); it is evaluated that way when it
    takes fewer flops, n (m + 2 r) < 2 m r, and otherwise by smoothing every
    row at every node.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim == 1:
        return float(cache.node_factor @ (cache.rows @ residuals) ** 2)
    (m, n), r = cache.rows.shape, residuals.shape[0]
    if n * (m + 2 * r) < 2 * m * r:
        scale = np.sqrt(cache.node_factor)[:, None]
        first, *rest = locreg.node_blocks(m, GRAM_SLICE)
        gram = _scaled_gram(cache.rows[first], scale[first])
        for part in rest:
            gram += _scaled_gram(cache.rows[part], scale[part])
        return np.einsum("bi,bi->b", residuals @ gram, residuals)
    return cache.node_factor @ (cache.rows @ residuals.T) ** 2


def _scaled_gram(rows, scale):
    """S^T S of S = diag(scale) rows, a syrk; S lives only in this call."""
    root = rows * scale
    return root.T @ root


def statistic(predictors, responses, family: parfit.ParametricFamily, theta, cfg: GofConfig) -> float:
    """Test statistic for a fixed parameter value (no bootstrap)."""
    residuals = np.asarray(responses, dtype=float) - parfit.predict_batch(
        family, theta, predictors
    )
    return statistic_from_residuals(node_cache(predictors, cfg), residuals)


@dataclass
class GofResult:
    """Observed statistic, its bootstrap distribution and the p-value."""

    statistic: float
    bootstrap_statistics: np.ndarray
    p_value: float
    theta_hat: np.ndarray
    regularized_nodes: int
    empty_nodes: int
    failed_replicates: int
    config: dict

    def to_dict(self) -> dict:
        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        return {
            "config": self.config,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "theta_hat": [float(v) for v in np.atleast_1d(self.theta_hat)],
            "bootstrap": {
                "replicates": int(self.bootstrap_statistics.size),
                "quantiles": {
                    str(level): float(v)
                    for level, v in zip(
                        qs, np.quantile(self.bootstrap_statistics, qs)
                    )
                },
            },
            "flags": {
                "regularized_nodes": self.regularized_nodes,
                "empty_nodes": self.empty_nodes,
                "failed_replicates": self.failed_replicates,
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)


def _config_echo(cfg: GofConfig, n: int, q: int, family_kind: str) -> dict:
    return {
        "n": n,
        "q": q,
        "degree": cfg.fit.degree,
        "bandwidth": cfg.fit.bandwidth,
        "kernel": cfg.fit.kernel.tag,
        "bootstrap": cfg.bootstrap,
        "seed": cfg.seed,
        "hypothesis": cfg.hypothesis,
        "family": family_kind,
        "weight": "uniform" if cfg.weight_fn is None else "custom",
        "quadrature": {
            "scheme": cfg.quadrature.scheme,
            "nodes": cfg.quadrature.node_count,
        },
    }


def null_bootstrap(
    predictors, responses, family: parfit.ParametricFamily, cfg: GofConfig, multipliers=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Null fit and wild bootstrap refits: (theta_hat, residuals, failed refits).

    ``residuals`` stacks the observed residuals (row 0) on the (bootstrap, n)
    block of bootstrap residuals, so one statistic call evaluates both alike.
    ``multipliers`` may carry a precomputed (bootstrap, n) block of
    golden-section draws; the default draws them from the config seed.
    Nothing here reads the bandwidth, so one call serves a whole grid.
    """
    predictors = np.asarray(predictors, dtype=float)
    responses = np.asarray(responses, dtype=float)
    n = predictors.shape[0]
    if cfg.hypothesis == "simple":
        theta_hat = np.asarray(cfg.theta0, dtype=float)
    else:
        theta_hat = parfit.fit(family, predictors, responses).theta
    fitted = parfit.predict_batch(family, theta_hat, predictors)
    residuals = responses - fitted

    if multipliers is None:
        rng = np.random.default_rng(cfg.seed)
        multipliers = golden_section_draws((cfg.bootstrap, n), rng)
    else:
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (cfg.bootstrap, n):
            raise ValueError(
                f"multipliers must have shape {(cfg.bootstrap, n)}, got {multipliers.shape}"
            )

    star_responses = fitted[None, :] + residuals[None, :] * multipliers
    failed = 0
    if cfg.hypothesis == "simple":
        star_residuals = star_responses - fitted[None, :]
    else:
        _, star_residuals, converged = parfit.fit_batch(family, predictors, star_responses)
        failed = int((~converged).sum())
        if failed > MAX_FAILED_REPLICATE_FRACTION * cfg.bootstrap:
            raise RuntimeError(
                f"{failed} of {cfg.bootstrap} bootstrap refits failed to converge"
            )
    return np.atleast_1d(theta_hat), np.vstack([residuals, star_residuals]), failed


def bootstrap_test(predictors, responses, family: parfit.ParametricFamily, cfg: GofConfig) -> GofResult:
    """Run the full calibrated test at the configured bandwidth.

    Deterministic given (data, config): the null bootstrap, then one
    statistic call over the observed and all replicate residual rows.
    """
    predictors = np.asarray(predictors, dtype=float)
    n, dim = predictors.shape
    theta_hat, residuals, failed = null_bootstrap(predictors, responses, family, cfg)
    cache = node_cache(predictors, cfg)
    values = statistic_from_residuals(cache, residuals)
    if not np.all(np.isfinite(values)):
        raise RuntimeError("non-finite statistic: residuals too large to square, or not finite")
    observed, replicate_stats = float(values[0]), values[1:]
    return GofResult(
        statistic=observed,
        bootstrap_statistics=replicate_stats,
        p_value=float(np.mean(observed <= replicate_stats)),
        theta_hat=theta_hat,
        regularized_nodes=cache.regularized_count,
        empty_nodes=cache.empty_count,
        failed_replicates=failed,
        config=_config_echo(cfg, n, dim - 1, family.kind),
    )


def asymptotic_center_scale(
    fit_cfg: LocalFitConfig, q: int, n: int, sigma2_integral: float, asymptotic_variance: float
) -> tuple[float, float]:
    """Centering and scale of the limiting normal law of the statistic.

    The standardized value n h^(q/2) (T - center) / scale is asymptotically
    standard normal under the null; ``asymptotic_variance`` is the output of
    ``kernels.gof_asymptotic_variance`` and enters the scale as sqrt(2 v).
    """
    if sigma2_integral <= 0 or asymptotic_variance <= 0:
        raise ValueError("integrals entering center and scale must be positive")
    consts = kernel_constants(fit_cfg.kernel, q)
    center = consts.variance_factor * sigma2_integral / (n * fit_cfg.bandwidth**q)
    return center, sqrt(2.0 * asymptotic_variance)


def standardized_statistic(
    value: float, fit_cfg: LocalFitConfig, q: int, n: int, center: float, scale: float
) -> float:
    """Apply the limiting-law normalization to an observed statistic."""
    return n * fit_cfg.bandwidth ** (q / 2.0) * (value - center) / scale
