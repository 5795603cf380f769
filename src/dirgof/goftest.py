"""Goodness-of-fit test for parametric regression with spherical predictors.

The statistic integrates, over the sphere, the squared gap between the
local fit of the responses and the locally smoothed parametric fit, weighted
by a kernel density estimate of the design (and an optional weight
function).  Because both smoothers share the same effective weights, the
gap reduces to the smoothed parametric residuals, so the weight rows and
the density estimate are computed once per bandwidth for all the wild
bootstrap replicates at once.  The statistic is a quadratic form in the
residuals whose Gram matrix is a sum over nodes, so the rows are built one
slice of ``GRAM_SLICE`` nodes at a time (per block of ``locreg.NODE_BLOCK``)
into one reused (GRAM_SLICE, n) buffer and folded into the statistic as each
slice is built: no test call or trace bandwidth holds an (m, n) array, and
each block's kernel values come straight from its nodes.  ``node_cache``
collects the same slices into the rows for callers that want them.

Calibration follows a residual wild bootstrap with golden-section
multipliers: resampled responses are the parametric fit plus residuals
scaled by two-point multipliers (mean 0, variance 1), the parameter is
refitted under the composite null, and the p-value is the fraction
of replicate statistics at or above the observed one.  None of that reads
the bandwidth, so a bandwidth grid shares one ``null_bootstrap``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf, sqrt
from typing import Callable

import numpy as np

from . import locreg, parfit
from .kernels import BandwidthOverflowError, kernel_constants, normalizing_constant
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
    """Everything the test needs besides the data and the null family; a
    given ``theta0`` is the simple null, ``None`` the composite one."""

    fit: LocalFitConfig
    quadrature: SphereQuadrature
    bootstrap: int = 1000
    seed: int = 0
    theta0: np.ndarray | None = None
    weight_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.bootstrap < 1:
            raise ValueError(f"bootstrap size must be >= 1, got {self.bootstrap}")


@dataclass
class NodeCache:
    """Per-node quantities shared across bootstrap replicates (read-only)."""

    rows: np.ndarray
    node_factor: np.ndarray
    regularized: np.ndarray
    empty_count: int


def node_cache(predictors, cfg: GofConfig) -> NodeCache:
    """Weight rows and the density/weight/quadrature factor at every node, the
    slices of ``_node_slices`` in one (m, n) array.  A node with no kernel
    mass (f̂ = 0, a zero row) is counted; only a rule of such nodes raises."""
    m = cfg.quadrature.node_count
    rows, node_factor = np.empty((m, len(predictors))), np.empty(m)
    flags, means = np.empty(m, dtype=bool), np.empty(m)
    for part, part_rows, factor in _node_slices(predictors, cfg, flags, means):
        rows[part], node_factor[part] = part_rows, factor
    return NodeCache(rows, node_factor, regularized=flags, empty_count=int((means == 0).sum()))


def _node_slices(predictors, cfg: GofConfig, flags, means):
    """(slice, weight rows, node factor) for each slice of at most
    ``GRAM_SLICE`` nodes, in order.  The rows are built per ``locreg.NODE_BLOCK``
    block into one reused buffer, so they last until the next slice is drawn
    and the consumer may overwrite them.  ``flags`` and ``means`` (m,) receive
    every node's fallback flag and mean kernel value; a rule whose every node
    has no kernel mass raises after its last slice."""
    predictors = np.asarray(predictors, dtype=float)
    nodes = cfg.quadrature.nodes
    m = len(nodes)
    wvals = np.ones(m) if cfg.weight_fn is None else np.asarray(
        cfg.weight_fn(nodes), dtype=float
    )
    if not np.all((wvals >= 0) & (wvals < np.inf)):
        raise ValueError("weight_fn must return finite, non-negative values")
    norm = normalizing_constant(cfg.fit.kernel, predictors.shape[1] - 1, cfg.fit.bandwidth)
    buffer = np.empty((min(m, GRAM_SLICE), len(predictors)))
    for part in locreg.node_blocks(m, GRAM_SLICE):
        rows = buffer[: len(nodes[part])]
        for block in locreg.node_blocks(len(rows)):
            at = slice(part.start + block.start, part.start + block.stop)
            raw = locreg.kernel_weight_matrix(nodes[at], predictors, cfg.fit)
            means[at] = raw.mean(axis=1)
            flags[at] = locreg.weight_rows(
                nodes[at], predictors, cfg.fit, raw=raw, out=rows[block]
            )[1]
        yield part, rows, cfg.quadrature.weights[part] * (norm * means[part]) * wvals[part]
    if not means.any():
        raise locreg.SingularGramError(f"all {m} nodes have all-zero kernel weights")


def _quadratic_form(slices, m: int, residuals) -> np.ndarray | float:
    """``statistic_from_residuals`` summed over ``slices`` of m nodes in all;
    the Gram form scales the rows it is handed in place."""
    residuals = np.asarray(residuals, dtype=float)
    n, r = residuals.shape[-1], residuals.shape[0]
    gram_form = residuals.ndim == 2 and n * (m + 2 * r) < 2 * m * r
    total = 0.0
    for _, rows, factor in slices:
        if gram_form:  # S = diag(sqrt(f)) R, and S^T S a syrk
            rows *= np.sqrt(factor)[:, None]
            total += rows.T @ rows
        else:
            total += factor @ (rows @ residuals.T) ** 2
    values = np.einsum("bi,bi->b", residuals @ total, residuals) if gram_form else total
    if not np.all(np.isfinite(values)):
        raise RuntimeError("non-finite statistic: residuals too large to square, or not finite")
    return float(values) if residuals.ndim == 1 else values


def statistic_from_residuals(cache: NodeCache, residuals) -> np.ndarray | float:
    """Quadrature of the squared smoothed residuals; rows of a matrix batch.

    A batch of r rows over n points and m nodes is the quadratic form e G e^T
    with the n x n Gram matrix G = S^T S, S = diag(sqrt(f)) R (a syrk, f >= 0,
    summed over slices of GRAM_SLICE nodes); it is evaluated that way when it
    takes fewer flops, n (m + 2 r) < 2 m r, and otherwise by smoothing every
    row at every node, slice by slice.  A non-finite value raises RuntimeError.
    """
    m = cache.rows.shape[0]
    slices = (
        (part, cache.rows[part].copy(), cache.node_factor[part])
        for part in locreg.node_blocks(m, GRAM_SLICE)
    )
    return _quadratic_form(slices, m, residuals)


def streamed_statistic(predictors, cfg: GofConfig, residuals) -> tuple[np.ndarray | float, int, int]:
    """``statistic_from_residuals(node_cache(predictors, cfg), residuals)``
    and the counts of regularized and empty nodes, built one slice at a time,
    so that no (m, n) array of rows exists, only one (GRAM_SLICE, n) buffer."""
    m = cfg.quadrature.node_count
    flags, means = np.empty(m, dtype=bool), np.empty(m)
    slices = _node_slices(predictors, cfg, flags, means)
    values = _quadratic_form(slices, m, residuals)
    return values, int(flags.sum()), int((means == 0).sum())


def statistic(predictors, responses, family: parfit.ParametricFamily, theta, cfg: GofConfig) -> float:
    """Test statistic for a fixed parameter value (no bootstrap)."""
    residuals = np.asarray(responses, dtype=float) - parfit.predict_batch(
        family, theta, predictors
    )
    return streamed_statistic(predictors, cfg, residuals)[0]


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
        "hypothesis": "composite" if cfg.theta0 is None else "simple",
        "family": family_kind,
        "weight": "uniform" if cfg.weight_fn is None else "custom",
        "quadrature": {
            "scheme": cfg.quadrature.scheme,
            "nodes": cfg.quadrature.node_count,
        },
    }


def null_bootstrap(
    predictors, responses, family: parfit.ParametricFamily, multipliers, theta0=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Null fit and wild bootstrap refits: (theta_hat, residuals, failed refits).

    ``multipliers`` is a (B >= 1, n) block of golden-section draws; a given
    ``theta0`` is the simple null (no fit, no refits).  ``residuals`` stacks
    the observed residuals (row 0) on the (B, n) bootstrap residuals, so one
    statistic call evaluates both alike.  Nothing here reads the bandwidth.
    """
    predictors = np.asarray(predictors, dtype=float)
    responses = np.asarray(responses, dtype=float)
    multipliers = np.asarray(multipliers, dtype=float)
    n = predictors.shape[0]
    if multipliers.ndim != 2 or multipliers.shape[0] < 1 or multipliers.shape[1] != n:
        raise ValueError(f"multipliers must have shape (B >= 1, {n}), got {multipliers.shape}")
    if theta0 is not None:
        theta_hat = np.asarray(theta0, dtype=float)
    else:
        theta_hat = parfit.fit(family, predictors, responses).theta
    fitted = parfit.predict_batch(family, theta_hat, predictors)
    residuals = responses - fitted
    star_responses = fitted[None, :] + residuals[None, :] * multipliers
    failed = 0
    if theta0 is not None:
        star_residuals = star_responses - fitted[None, :]
    else:
        _, star_residuals, converged = parfit.fit_batch(family, predictors, star_responses)
        failed = int((~converged).sum())
        if failed > MAX_FAILED_REPLICATE_FRACTION * len(multipliers):
            raise RuntimeError(
                f"{failed} of {len(multipliers)} bootstrap refits failed to converge"
            )
    return np.atleast_1d(theta_hat), np.vstack([residuals, star_residuals]), failed


def bootstrap_test(predictors, responses, family: parfit.ParametricFamily, cfg: GofConfig) -> GofResult:
    """Run the full calibrated test at the configured bandwidth.

    Deterministic given (data, config): the null bootstrap, then one
    statistic call over the observed and all replicate residual rows.
    """
    predictors = np.asarray(predictors, dtype=float)
    n, dim = predictors.shape
    # the block dies with null_bootstrap's frame, before the statistic runs
    theta_hat, residuals, failed = null_bootstrap(
        predictors, responses, family,
        golden_section_draws((cfg.bootstrap, n), np.random.default_rng(cfg.seed)), cfg.theta0,
    )
    values, regularized, empty = streamed_statistic(predictors, cfg, residuals)
    observed, replicate_stats = float(values[0]), values[1:]
    return GofResult(
        statistic=observed,
        bootstrap_statistics=replicate_stats,
        p_value=float(np.mean(observed <= replicate_stats)),
        theta_hat=theta_hat,
        regularized_nodes=regularized,
        empty_nodes=empty,
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
    h = fit_cfg.bandwidth
    try:
        center = consts.variance_factor * sigma2_integral / (n * h**q)
    except ArithmeticError:  # h^q overflows, or underflows to 0
        center = inf
    if center == inf:
        raise BandwidthOverflowError(f"h^q at q={q} leaves the float range for bandwidth {h:g}")
    return center, sqrt(2.0 * asymptotic_variance)


def standardized_statistic(
    value: float, fit_cfg: LocalFitConfig, q: int, n: int, center: float, scale: float
) -> float:
    """Apply the limiting-law normalization to an observed statistic."""
    return n * fit_cfg.bandwidth ** (q / 2.0) * (value - center) / scale
