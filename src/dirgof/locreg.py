"""Projected local constant/linear regression on the q-sphere.

The estimator solves a kernel-weighted least squares problem whose design,
for degree 1, contains the data differences projected on the tangent space
at the evaluation point.  The fitted value is a linear combination of the
responses; those effective weights are the central object here because the
goodness-of-fit statistic reuses them across quadrature nodes and bootstrap
replicates.

Degree-1 solves run over blocks of nodes, through kernel-weighted moments
(normal equations only where the gate proves them safe) or else an orthogonal
factorization of the square-root-weighted design.  A rank-deficient node
falls back to a tiny ridge on the Gram matrix and is flagged ``regularized``
instead of aborting, so long bootstrap loops survive rare degenerate
resamples without hiding the degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import VON_MISES, DirectionalKernel
from .sphere import tangent_bases

WEIGHT_FLOOR = 1e-300
RIDGE_FACTOR = 1e-10
_RANK_TOL = 1e-10
# a node takes the moment form when eps (1 + |t̄|^2) / λ_min(C) is at most this
MOMENT_GATE = 1e-11
# nodes per stacked degree-1 factorization; bounds its memory at large m
NODE_BLOCK = 512


def node_blocks(count: int, size: int = NODE_BLOCK) -> list[slice]:
    """Slices that cover ``range(count)`` in order, ``size`` at a time."""
    return [slice(start, start + size) for start in range(0, count, size)]


class SingularGramError(RuntimeError):
    """All kernel weights vanished; no local fit exists at this point."""


@dataclass(frozen=True)
class LocalFitConfig:
    """Degree (0 local constant, 1 local linear), bandwidth and kernel."""

    degree: int
    bandwidth: float
    kernel: DirectionalKernel = VON_MISES

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError(
                f"bandwidth must be finite and positive, got {self.bandwidth}"
            )


@dataclass
class LocalFit:
    """Fitted value, projected gradient and the effective response weights."""

    value: float
    gradient: np.ndarray
    weights: np.ndarray
    regularized: bool = False


def kernel_weights(x, predictors, cfg: LocalFitConfig) -> np.ndarray:
    """Raw kernel values L((1 - x.X_i)/h^2); denormals are clamped to zero."""
    return kernel_weight_matrix(np.asarray(x, dtype=float)[None], predictors, cfg)[0]


def kernel_weight_matrix(nodes, predictors, cfg: LocalFitConfig, gaps=None) -> np.ndarray:
    """Raw kernel values between evaluation points (rows) and the sample;
    ``gaps`` may carry the h-free chordal gaps ``1 - nodes @ predictors.T``."""
    if gaps is None:
        gaps = 1.0 - np.asarray(nodes, dtype=float) @ np.asarray(predictors, dtype=float).T
    w = cfg.kernel(gaps / cfg.bandwidth**2)
    w[w < WEIGHT_FLOOR] = 0.0
    return w


def _check_size(n: int, q: int, cfg: LocalFitConfig) -> None:
    if cfg.degree == 1 and n < q + 2:
        raise ValueError(f"local linear fit needs n >= q+2 = {q + 2}, got {n}")
    if n < 1:
        raise ValueError("need at least one observation")


def _kernel_mass(raw) -> np.ndarray:
    """Row sums of kernel values; an empty row raises, counting every one."""
    sums = raw.sum(axis=1)
    if np.any(sums <= 0):
        raise SingularGramError(f"{int((sums <= 0).sum())} nodes have all-zero kernel weights")
    return sums


def _coefficient_weights(
    nodes, predictors, raw, degree: int, gradient: bool = True, out=None
):
    """Coefficient weights of the local fits at a stack of nodes.

    Returns (m, p, n) weights, so that ``weights[j] @ y`` is the coefficient
    vector at node j (fitted value first, then the projected gradient unless
    ``gradient`` is false), and the (m,) mask of nodes where the ridge
    fallback fired.  Degree 1 takes the moments where their gate passes and
    the stacked QR at every other node; degree 0 may write its (m, n) rows
    into ``out``.
    """
    sums = _kernel_mass(raw)
    if degree == 0:
        rows = np.divide(raw, sums[:, None], out=out)
        return rows[:, None, :], np.zeros(len(nodes), dtype=bool)
    # exact power-of-4 rescale to peak ~1: no row changes, but the moments
    # and Gram matrices of nodes near WEIGHT_FLOOR cannot reach subnormals
    raw = np.ldexp(raw, -2 * (np.frexp(raw.max(axis=1))[1] // 2)[:, None])
    coef, fast = _moment_coefficients(nodes, predictors, raw, gradient)
    flags = np.zeros(len(nodes), dtype=bool)
    if not fast.all():
        slow = ~fast
        qr_coef, flags[slow] = _qr_coefficients(nodes[slow], predictors, raw[slow])
        coef[slow] = qr_coef[:, : coef.shape[1]]
    return coef, flags


def _moment_coefficients(nodes, predictors, raw, gradient: bool):
    """Degree-1 coefficient weights from three kernel-weighted moments, filled
    only at the nodes of the returned mask, where the gate passes.

    With t_i = B^T X_i (B^T x = 0) of weighted mean t̄ and covariance C, the
    fitted-value row is k_i (α - v^T X_i) / S0, α = 1 + t̄^T C^-1 t̄ and
    v = B C^-1 t̄, and the gradient rows are k_i C^-1 (t_i - t̄) / S0.
    """
    d = predictors.shape[1]
    sums = raw.sum(axis=1)
    bases = tangent_bases(nodes)
    trans = np.swapaxes(bases, 1, 2)
    outer = (predictors[:, :, None] * predictors[:, None, :]).reshape(-1, d * d)
    second = (raw @ outer).reshape(-1, d, d)
    tbar = ((raw @ predictors)[:, None, :] @ bases)[:, 0] / sums[:, None]
    cov = trans @ second @ bases / sums[:, None, None] - tbar[:, :, None] * tbar[:, None, :]
    lam = np.linalg.eigvalsh(cov)[:, 0]
    # C = E[t t^T] - t̄ t̄^T cancels where the local cloud is narrow next to
    # its offset; the gate, false for λ_min <= 0 and NaN, keeps those nodes
    # out.  A node it lets in passes the rank test of _qr_coefficients: as
    # |t_i| <= 1 the Gram matrix G has λ_max(G/S0) <= 2 and λ_min(G/S0) >=
    # λ_min(C) / (2 (1 + |t̄|^2)), and R diagonals lie between the extreme
    # singular values, so their ratio is >= sqrt(eps / (4 MOMENT_GATE)) ~ 2.4e-3
    fast = lam * MOMENT_GATE >= np.finfo(float).eps * (1.0 + (tbar**2).sum(axis=1))
    coef = np.empty((len(nodes), d if gradient else 1, raw.shape[1]))
    tbar, bases, trans = tbar[fast], bases[fast], trans[fast]
    rhs = tbar[:, :, None]
    if gradient:
        rhs = np.concatenate([rhs, trans], axis=2)
    solved = np.linalg.solve(cov[fast], rhs)
    ct = solved[:, :, 0]
    alpha = 1.0 + (tbar * ct).sum(axis=1)
    v = (bases @ ct[:, :, None])[:, :, 0]
    scaled = raw[fast] / sums[fast, None]
    coef[fast, 0] = scaled * (alpha[:, None] - v @ predictors.T)
    if gradient:
        coef[fast, 1:] = scaled[:, None, :] * (solved[:, :, 1:] @ predictors.T - ct[:, :, None])
    return coef, fast


def _qr_coefficients(nodes, predictors, raw):
    """Degree-1 coefficient weights, R^-1 Q^T of the square-root-weighted
    designs scaled by the root weights; a node whose R diagonal fails the
    rank test takes a tiny ridge on its Gram matrix and is flagged."""
    centered = predictors[None, :, :] - nodes[:, None, :]
    tangent = centered @ tangent_bases(nodes)
    design = np.concatenate([np.ones(tangent.shape[:2] + (1,)), tangent], axis=2)
    sw = np.sqrt(raw)
    a = design * sw[:, :, None]
    q_mat, r_mat = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
    scale = _RANK_TOL * diag.max(axis=1)
    flags = ~((diag.min(axis=1) > scale) & (scale > 0))
    p = design.shape[2]
    # flagged R factors may be exactly singular; an identity stands in for
    # them until the ridge solve below overwrites their weights.  Inverting
    # the small triangular factors is several times cheaper than a stacked
    # solve with n right-hand sides; row 0 of R^-1 is the forward solve
    # R^T z = e1 that gives the fitted-value weights.
    r_mat[flags] = np.eye(p)
    coef = (np.linalg.inv(r_mat) @ np.swapaxes(q_mat, 1, 2)) * sw[:, None, :]
    a = a[flags]
    gram = np.swapaxes(a, 1, 2) @ a
    ridge = RIDGE_FACTOR * np.trace(gram, axis1=1, axis2=2) / p
    gram[:, np.arange(p), np.arange(p)] += ridge[:, None]
    weighted = np.swapaxes(design[flags], 1, 2) * raw[flags][:, None, :]
    coef[flags] = np.linalg.solve(gram, weighted)
    return coef, flags


def _fit_at(x, predictors, cfg: LocalFitConfig):
    """Coefficient weights (p, n) and the ridge flag at one point."""
    x = np.asarray(x, dtype=float)[None]
    predictors = np.asarray(predictors, dtype=float)
    _check_size(len(predictors), predictors.shape[1] - 1, cfg)
    raw = kernel_weight_matrix(x, predictors, cfg)
    coef, flags = _coefficient_weights(x, predictors, raw, cfg.degree)
    return coef[0], bool(flags[0])


def local_weights(x, predictors, cfg: LocalFitConfig) -> np.ndarray:
    """Effective response weights of the fitted value at x.

    They sum to 1 at an unregularized node; at a node where the ridge
    fallback fired they need not (a sum between 0.5 and 1 is common).
    """
    return _fit_at(x, predictors, cfg)[0][0]


def weight_rows(nodes, predictors, cfg: LocalFitConfig, raw=None, out=None):
    """Effective weights at many evaluation points.

    Returns an (m, n) matrix of rows and an (m,) mask of nodes where the
    ridge fallback fired.  Degree 0 is one vectorized division; degree 1
    runs in blocks of ``NODE_BLOCK`` nodes, which bounds the memory of the
    stacked factorizations.  ``raw`` may carry a precomputed kernel matrix to
    share with a density estimate, and ``out`` the (m, n) array to fill.
    """
    nodes = np.asarray(nodes, dtype=float)
    predictors = np.asarray(predictors, dtype=float)
    _check_size(len(predictors), predictors.shape[1] - 1, cfg)
    if raw is None:
        raw = kernel_weight_matrix(nodes, predictors, cfg)
    rows = np.empty_like(raw) if out is None else out
    if cfg.degree == 0:
        return rows, _coefficient_weights(nodes, predictors, raw, 0, out=rows)[1]
    flags = np.empty(len(nodes), dtype=bool)
    try:
        for block in node_blocks(len(nodes)):
            coef, flags[block] = _coefficient_weights(
                nodes[block], predictors, raw[block], 1, gradient=False
            )
            rows[block] = coef[:, 0]
    except SingularGramError:
        _kernel_mass(raw)  # raises again, counting the empty nodes of every block
        raise
    return rows, flags


def estimate(x, predictors, responses, cfg: LocalFitConfig) -> LocalFit:
    """Fit the projected local model at x and return value, gradient, weights."""
    coef, regularized = _fit_at(x, predictors, cfg)
    beta = coef @ np.asarray(responses, dtype=float)
    return LocalFit(
        value=float(beta[0]), gradient=beta[1:], weights=coef[0], regularized=regularized
    )
