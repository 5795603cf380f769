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
collects the same slices into the rows for callers that want them.  The
Gram matrix, the form over the residual rows and the degree-0 rows are cut
into two fixed lanes (``_Lanes``): a helper thread runs the second, while
the caller runs the first and then waits, where the process may use two
CPUs and BLAS runs one thread; the cut never depends on whether it runs.

Calibration follows a residual wild bootstrap with golden-section
multipliers: resampled responses are the parametric fit plus residuals
scaled by two-point multipliers (mean 0, variance 1), the parameter is
refitted under the composite null, and the p-value is the fraction
of replicate statistics at or above the observed one.  None of that reads
the bandwidth, so a bandwidth grid shares one ``null_bootstrap``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
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
# residual rows per product of the form; a product over fewer rows runs
# slower per flop (S1's 1001 x 500 block: 3.5 % at 128 rows, 1.5 % at 256)
FORM_ROWS = 256
# the BLAS thread counts a helper thread needs at 1: a BLAS that runs its own
# threads already fills the cores (an S1 trial at two OpenBLAS threads took a
# median 0.360 s with the helper, 0.316 s without)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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


def bandwidth_configs(
    q: int, h_grid, degree: int, resolution: int | None = None, seed: int = 0
) -> list[GofConfig]:
    """One ``GofConfig`` per bandwidth of ``h_grid``, in its order, on the rule
    ``default_quadrature(q, resolution, seed, fit)`` builds; bandwidths that
    share a rule share one built object."""
    rules, configs = {}, []
    for h in h_grid:
        fit = LocalFitConfig(degree=degree, bandwidth=float(h))
        size = default_resolution(q, fit) if resolution is None else resolution
        if size not in rules:
            rules[size] = default_quadrature(q, size, seed=seed)
        configs.append(GofConfig(fit, rules[size]))
    return configs


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
    # degree 0 divides its kernel values in the buffer; degree 1 reads them
    # while it writes the rows, so it forms them in one reused block
    kernel_block = np.empty((min(m, locreg.NODE_BLOCK), len(predictors))) if cfg.fit.degree else None
    for part in locreg.node_blocks(m, GRAM_SLICE):
        rows = buffer[: len(nodes[part])]
        blocks = [slice(part.start + b.start, part.start + b.stop)
                  for b in locreg.node_blocks(len(rows))]
        fill = partial(_fill_rows, nodes, predictors, cfg.fit, rows, part.start, kernel_block,
                       flags, means)
        if kernel_block is None:  # degree 0: the lanes take alternate blocks
            _LANES.run(partial(fill, blocks[0::2]), partial(fill, blocks[1::2]))
        else:  # degree-1 rows run Python between their numpy calls, so two
            fill(blocks)  # threads would wait on each other for the interpreter
        yield part, rows, cfg.quadrature.weights[part] * (norm * means[part]) * wvals[part]
    if not means.any():
        raise locreg.SingularGramError(f"all {m} nodes have all-zero kernel weights")


def _fill_rows(nodes, predictors, fit, rows, offset, kernel_block, flags, means, blocks) -> None:
    """Weight rows of the rule's node ``blocks`` into ``rows``, whose first
    row is node ``offset``, with their fallback flags and mean kernel values;
    degree 1 forms the kernel values in ``kernel_block``."""
    for at in blocks:
        block = slice(at.start - offset, at.stop - offset)
        into = rows[block] if kernel_block is None else kernel_block[: len(rows[block])]
        raw = locreg.kernel_weight_matrix(nodes[at], predictors, fit, out=into)
        means[at] = raw.mean(axis=1)
        flags[at] = locreg.weight_rows(nodes[at], predictors, fit, raw=raw, out=rows[block])[1]


class _Lanes:
    """Two fixed lanes of work: the calling thread runs the first, and one
    persistent helper thread the second when a core is left idle
    (``_core_left_idle``), while the caller waits for it; otherwise the
    calling thread runs the second after the first.  The lanes write only
    through arrays their caller allocated, so what they compute never depends
    on which thread runs them, and a lane runs no lanes itself.  ``helper``
    forces the choice; ``None`` leaves it to the first call.  A forked child
    starts its own helper.  Under one-thread BLAS on two CPUs a
    ``trace-s1-q2-p0`` trial took 0.376 s with the lanes, 0.487 s without."""

    def __init__(self, helper: bool | None = None):
        self.helper = helper
        self._served = (None, None, None)  # (pid, jobs, posted) of that process's helper

    def run(self, first: Callable[[], None], second: Callable[[], None]) -> None:
        """``first()`` and ``second()``, both finished on return; an error of
        the first lane is raised before one of the second, as run in order."""
        if self.helper is None:
            self.helper = _core_left_idle()
        if not self.helper:
            first()
            second()
            return
        # one read and one write of the triple: two first calls at once each
        # post to the helper they started, and one of them stays idle
        pid, jobs, posted = self._served
        if pid != os.getpid():
            pid, jobs, posted = os.getpid(), deque(), threading.Semaphore(0)
            helper = threading.Thread(
                target=_serve, args=(jobs, posted, _current_cpu()), name="dirgof-lane-1",
                daemon=True,  # it waits for work for the life of the process
            )
            helper.start()
            self._served = (pid, jobs, posted)
        job = [second, threading.Event(), None]  # the lane, its end, its error
        jobs.append(job)
        posted.release()
        try:
            first()
        finally:
            job[1].wait()
        if job[2] is not None:
            raise job[2]


def _core_left_idle() -> bool:
    """Whether the process may use two CPUs while BLAS runs one thread: every
    variable of ``BLAS_THREAD_VARIABLES`` that is set says 1, and one is."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    counts = [os.environ[name].strip() for name in BLAS_THREAD_VARIABLES if name in os.environ]
    return cpus >= 2 and bool(counts) and all(count == "1" for count in counts)


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where Linux says (field 39 of its
    stat), else None."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _serve(jobs, posted, caller_cpu) -> None:
    """The helper's loop: per release of ``posted``, run the second lane of
    the next job of ``jobs`` and keep its error for the caller to raise.

    It first steps off ``caller_cpu`` and back to its full CPU mask: a
    scheduler that wakes a thread on the core it last ran on, idle siblings
    or not, would otherwise keep a helper that started on the caller's core
    there, and the two lanes would take turns on it (on a 2-vCPU VM, 18 of
    18 helpers started without the step shared the caller's core, and
    ``trace-s4-q2-p0`` fell from 6.92 to 5.80 trials/s in perfbench).
    """
    try:
        allowed = os.sched_getaffinity(0)
        if caller_cpu in allowed and len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {caller_cpu})
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):  # no affinity calls here: start where placed
        pass
    while True:
        posted.acquire()
        job = jobs.popleft()
        try:
            job[0]()
        except BaseException as exc:  # handed to the caller, which raises it
            job[2] = exc
        job[0] = None  # the lane's arrays die with the caller's references
        job[1].set()


_LANES = _Lanes()


def use_one_lane() -> None:
    """Run both lanes on the calling thread from now on, in this process: a
    pool worker calls it, so that N workers keep N cores busy, not 2 N."""
    _LANES.helper = False


def _quadratic_form(slices, m: int, residuals) -> np.ndarray | float:
    """``statistic_from_residuals`` summed over ``slices`` of m nodes in all;
    the Gram form scales the rows it is handed in place.

    The Gram form scales each slice on the calling thread, then cuts the n
    columns of the scaled rows at a = n/√2, S = [S1 S2]: lane 0 takes the
    syrk S1ᵀS1, lane 1 S2ᵀS1 and the syrk S2ᵀS2.  The form cuts the residual
    rows at half, and each lane takes its half in products of at most
    ``FORM_ROWS`` rows.  The cut depends only on (m, n, r).
    """
    residuals = np.asarray(residuals, dtype=float)
    n, r = residuals.shape[-1], residuals.shape[0]
    if not (residuals.ndim == 2 and n * (m + 2 * r) < 2 * m * r):
        total = 0.0
        for _, rows, factor in slices:
            total += factor @ (rows @ residuals.T) ** 2
        _check_finite(total)
        return float(total) if residuals.ndim == 1 else total
    # S = diag(sqrt(f)) R; a = n/√2 gives both lanes as many flops, and they
    # write the blocks below the diagonal, of the total or of one product
    a = round(n / sqrt(2.0))
    for k, (_, rows, factor) in enumerate(slices):
        if k == 0:
            total, product = np.empty((n, n)), None
        elif k == 1:
            product = np.empty((n, n))
        rows *= np.sqrt(factor)[:, None]
        _LANES.run(*(partial(_gram_blocks, rows, a, lane, total, product) for lane in (0, 1)))
    total[:a, a:] = total[a:, :a].T
    rows = product = None  # the slice buffer dies before the form
    cut = (r + 1) // 2
    values, products = np.empty(r), np.empty((2, min(FORM_ROWS, cut), n))
    _LANES.run(
        partial(_form_into, residuals[:cut], total, products[0], values[:cut]),
        partial(_form_into, residuals[cut:], total, products[1], values[cut:]),
    )
    return values


def _gram_blocks(rows, a, lane, total, product) -> None:
    """Lane 0's block S1ᵀS1 or lane 1's S2ᵀS1 and S2ᵀS2 of SᵀS, S = ``rows``
    = [S1 S2] cut at column ``a``, into ``total``; with a ``product``, into
    it and then added to ``total``."""
    first, second = slice(0, a), slice(a, None)
    blocks = [(first, first)] if lane == 0 else [(second, first), (second, second)]
    into = total if product is None else product
    for block in blocks:
        np.matmul(rows[:, block[0]].T, rows[:, block[1]], out=into[block])
        if product is not None:
            total[block] += product[block]


def _form_into(residuals, total, products, values) -> None:
    """``values`` = e G eᵀ for each row e of ``residuals``, ``FORM_ROWS`` rows
    per product, written through ``products``."""
    for start in range(0, len(residuals), FORM_ROWS):
        part = residuals[start : start + FORM_ROWS]
        product = np.matmul(part, total, out=products[: len(part)])
        np.einsum("bi,bi->b", product, part, out=values[start : start + FORM_ROWS])
    _check_finite(values)


def _check_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise RuntimeError("non-finite statistic: residuals too large to square, or not finite")


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
    del star_responses  # before the stacked block is made
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
