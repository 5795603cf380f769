"""Projected local constant/linear regression on the q-sphere.

The estimator solves a kernel-weighted least squares problem whose design,
for degree 1, contains the data differences projected on the tangent space
at the evaluation point.  The fitted value is a linear combination of the
responses; those effective weights are the central object here because the
goodness-of-fit statistic reuses them across quadrature nodes and bootstrap
replicates.

Degree-1 rows are built over blocks of nodes.  Where a gate proves the
normal equations safe, three kernel-weighted moments give one (q+1)×(q+1)
system A = PΣP + xxᵀ in ambient coordinates (P = I - xxᵀ, Σ the local
covariance) and write fitted-value rows only; elsewhere, and at the one point
of ``estimate`` or ``local_weights``, an orthogonal factorization of the
square-root-weighted tangent design.  A node with no kernel mass gets a zero
row, and a degree-1 node whose design fails the rank test falls back to the
local-constant row and is flagged ``regularized``, so degenerate nodes abort
neither bootstrap loops nor bandwidth grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import VON_MISES, DirectionalKernel
from .sphere import tangent_bases

WEIGHT_FLOOR = 1e-300
_RANK_TOL = 1e-10
# a node takes the moment form when eps (1 + |Px̄|^2) / λ_min(A) <= this, for
# A = PΣP + xxᵀ: λ(A) = λ(C) ∪ {1} and eps (1 + |Px̄|^2) / this <= 5e-5 < 1
MOMENT_GATE = 1e-11
# nodes per stacked degree-1 factorization; bounds its memory at large m
NODE_BLOCK = 512
# admissible bandwidths: h^2 and 1/h^2 stay within 1e±300, so the kernel's
# (1 - x.X)/h^2 stays finite; the von Mises normalizer does so at q <= 2
# only (at q = 3 it overflows below h ≈ 6.3e-104, and kernels raises
# BandwidthOverflowError there)
BANDWIDTH_RANGE = (1e-150, 1e150)


def node_blocks(count: int, size: int = NODE_BLOCK) -> list[slice]:
    """Slices that cover ``range(count)`` in order, ``size`` at a time."""
    return [slice(start, start + size) for start in range(0, count, size)]


class SingularGramError(RuntimeError):
    """All kernel weights vanished at a point, or at every node of a rule."""


@dataclass(frozen=True)
class LocalFitConfig:
    """Degree (0 local constant, 1 local linear), bandwidth and kernel."""

    degree: int
    bandwidth: float
    kernel: DirectionalKernel = VON_MISES

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        low, high = BANDWIDTH_RANGE
        if not low <= self.bandwidth <= high:
            raise ValueError(f"bandwidth must lie in [{low:g}, {high:g}], got {self.bandwidth}")


@dataclass
class LocalFit:
    """Fitted value, projected gradient and the effective response weights."""

    value: float
    gradient: np.ndarray
    weights: np.ndarray
    regularized: bool = False


def kernel_weight_matrix(nodes, predictors, cfg: LocalFitConfig, out=None) -> np.ndarray:
    """Raw kernel values between evaluation points (rows) and the sample; the
    scaled gaps ``(1 - nodes @ predictors.T) / h^2`` are formed in place, in
    ``out`` (m, n) when given.  The von Mises kernel is evaluated there too,
    as exp((g - 1) / h^2): IEEE subtraction and division are symmetric in
    sign, so that is exp(-(1 - g) / h^2) bit for bit."""
    w = np.matmul(np.asarray(nodes, dtype=float), np.asarray(predictors, dtype=float).T, out=out)
    if cfg.kernel == VON_MISES:
        np.exp(np.divide(np.subtract(w, 1.0, out=w), cfg.bandwidth**2, out=w), out=w)
    else:
        w[...] = cfg.kernel(np.divide(np.subtract(1.0, w, out=w), cfg.bandwidth**2, out=w))
    if w.size and w.min() < WEIGHT_FLOOR:
        w[w < WEIGHT_FLOOR] = 0.0
    return w


def _check_size(n: int, q: int, cfg: LocalFitConfig) -> None:
    if cfg.degree == 1 and n < q + 2:
        raise ValueError(f"local linear fit needs n >= q+2 = {q + 2}, got {n}")
    if n < 1:
        raise ValueError("need at least one observation")


def _coefficient_weights(nodes, predictors, raw, degree: int, out):
    """Fitted-value rows of the local fits at a stack of nodes, written into
    ``out`` (m, n); returns the (m,) mask of nodes that fell back to local
    constant.  Degree 1 takes the moments where their gate passes and the
    stacked QR at every other node with kernel mass; an empty node's row is 0.
    """
    if degree == 0:
        sums = raw.sum(axis=1)
        sums[sums == 0] = 1.0  # an empty node's zero row, without 0/0
        np.divide(raw, sums[:, None], out=out)
        return np.zeros(len(nodes), dtype=bool)
    slow = ~_moment_rows(nodes, predictors, raw, out) & raw.any(axis=1)
    flags = np.zeros(len(nodes), dtype=bool)
    if slow.any():
        coef, flags[slow] = _qr_coefficients(nodes[slow], predictors, raw[slow])
        out[slow] = coef[:, 0]
    return flags


def _moment_rows(nodes, predictors, raw, out):
    """Degree-1 fitted-value rows from three kernel-weighted moments, written
    into ``out`` (m, n), and the mask of nodes where the gate passes; the rows
    of other nodes are zero.

    With x̄ = M1/S0, Σ = M2/S0 - x̄x̄ᵀ, P = I - xxᵀ and A = PΣP + xxᵀ, so that
    A⁻¹ = B C⁻¹ Bᵀ + xxᵀ for a tangent basis B and C = BᵀΣB, the fitted-value
    row is k_i (1 - (X_i - x̄)ᵀv) / S0 with v = A⁻¹Px̄.
    """
    m, d = nodes.shape
    # rows [1, Xᵀ, (X ⊗ X)ᵀ], whose kernel-weighted sums are S0, M1 and M2
    outer = np.einsum("ni,nj->ijn", predictors, predictors).reshape(d * d, -1)
    products = np.vstack([np.ones(len(predictors)), predictors.T, outer])
    moments = raw @ products.T
    sums = moments[:, :1, None]
    sums[sums == 0] = 1.0  # an empty node's zero moments fail the gate, without 0/0
    xbar = moments[:, 1 : d + 1, None] / sums
    along = nodes[:, :, None] * nodes[:, None, :]
    proj = np.eye(d) - along
    pxbar = proj @ xbar
    # PΣP = P (M2/S0) P - Px̄(Px̄)ᵀ: the mean comes off after the projection
    second = moments[:, d + 1 :].reshape(m, d, d) / sums
    ambient = proj @ second @ proj - pxbar * np.swapaxes(pxbar, 1, 2) + along
    # λ_min(A) > τ = eps (1 + |Px̄|^2) / MOMENT_GATE iff every pivot of the
    # LDLᵀ elimination of A - τI is positive: a few stacked passes, a quarter
    # of a stacked eigvalsh, and no LAPACK call sees a node the gate rejects.
    # Σ cancels where the local cloud is narrow next to its offset; the gate,
    # false for λ_min <= 0, keeps those nodes out.  A node it lets in has an
    # R-diagonal ratio >= sqrt(λ_min(C) / (4 (1 + |Px̄|^2))) >= 2.4e-3 in
    # _qr_coefficients, so the rank test cannot flag it: flags stay the QR's
    tau = np.finfo(float).eps / MOMENT_GATE * (1.0 + (pxbar**2).sum(axis=(1, 2)))
    shifted = ambient - tau[:, None, None] * np.eye(d)
    fast = np.ones(m, dtype=bool)
    for j in range(d):
        fast &= shifted[:, j, j] > 0
        column = shifted[:, j + 1 :, j, None] / np.where(fast, shifted[:, j, j], 1.0)[:, None, None]
        shifted[:, j + 1 :, j + 1 :] -= column * shifted[:, None, j, j + 1 :]
    lin = np.swapaxes(np.linalg.solve(ambient[fast], -pxbar[fast]), 1, 2)  # rows -vᵀ
    weights = np.zeros((m, d + 1))  # coefficients of [1, X_i] per row
    weights[fast, 0] = 1.0 - (lin @ xbar[fast])[:, 0, 0]
    weights[fast, 1:] = lin[:, 0]
    weights /= sums[:, 0]
    np.matmul(weights, products[: d + 1], out=out)
    out *= raw
    return fast


def _qr_coefficients(nodes, predictors, raw):
    """Degree-1 coefficient weights (m, q+1, n), R^-1 Q^T of the
    square-root-weighted designs scaled by the root weights, and the mask of
    nodes whose R diagonal fails the rank test.  Those nodes fall back to
    local constant: the fitted-value row k / sum(k) and a zero gradient."""
    centered = predictors[None, :, :] - nodes[:, None, :]
    tangent = centered @ tangent_bases(nodes)
    design = np.concatenate([np.ones(tangent.shape[:2] + (1,)), tangent], axis=2)
    sw = np.sqrt(raw)
    q_mat, r_mat = np.linalg.qr(design * sw[:, :, None])
    diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
    scale = _RANK_TOL * diag.max(axis=1)
    flags = ~((diag.min(axis=1) > scale) & (scale > 0))
    # flagged R factors may be exactly singular; an identity stands in for
    # them.  Inverting the small triangular factors is several times cheaper
    # than a stacked solve with n right-hand sides; row 0 of R^-1 is the
    # forward solve R^T z = e1 that gives the fitted-value weights.
    r_mat[flags] = np.eye(design.shape[2])
    coef = (np.linalg.inv(r_mat) @ np.swapaxes(q_mat, 1, 2)) * sw[:, None, :]
    coef[flags] = 0.0
    coef[flags, 0] = raw[flags] / raw[flags].sum(axis=1, keepdims=True)
    return coef, flags


def _fit_at(x, predictors, cfg: LocalFitConfig):
    """Coefficient weights (p, n) and the fallback flag at one point: the
    local-constant row, or the stacked QR on that one node."""
    x = np.asarray(x, dtype=float)[None]
    predictors = np.asarray(predictors, dtype=float)
    _check_size(len(predictors), predictors.shape[1] - 1, cfg)
    raw = kernel_weight_matrix(x, predictors, cfg)
    if not raw.any():
        raise SingularGramError("all kernel weights vanish at this point")
    if cfg.degree == 0:
        return raw / raw.sum(), False
    coef, flags = _qr_coefficients(x, predictors, raw)
    return coef[0], bool(flags[0])


def local_weights(x, predictors, cfg: LocalFitConfig) -> np.ndarray:
    """Effective response weights of the fitted value at x; they sum to 1,
    also where a degree-1 fit falls back to local constant."""
    return _fit_at(x, predictors, cfg)[0][0]


def weight_rows(nodes, predictors, cfg: LocalFitConfig, raw=None, out=None):
    """Effective weights at many evaluation points.

    Returns an (m, n) matrix of rows, zero at a node with no kernel mass and
    summing to 1 at any other, and an (m,) mask of nodes that fell back to
    local constant.  Both degrees run in blocks of ``NODE_BLOCK`` nodes, which
    bounds the memory of the stacked degree-1 factorizations.  ``raw`` may
    carry a precomputed kernel matrix to share with a density estimate, and
    ``out`` the (m, n) array to fill; at degree 0 ``out`` may be ``raw``,
    which the rows then overwrite.
    """
    nodes = np.asarray(nodes, dtype=float)
    predictors = np.asarray(predictors, dtype=float)
    _check_size(len(predictors), predictors.shape[1] - 1, cfg)
    if raw is None:
        raw = kernel_weight_matrix(nodes, predictors, cfg)
    rows = np.empty_like(raw) if out is None else out
    flags = np.empty(len(nodes), dtype=bool)
    for block in node_blocks(len(nodes)):
        flags[block] = _coefficient_weights(
            nodes[block], predictors, raw[block], cfg.degree, rows[block]
        )
    return rows, flags


def estimate(x, predictors, responses, cfg: LocalFitConfig) -> LocalFit:
    """Fit the projected local model at x and return value, gradient, weights."""
    coef, regularized = _fit_at(x, predictors, cfg)
    beta = coef @ np.asarray(responses, dtype=float)
    return LocalFit(
        value=float(beta[0]), gradient=beta[1:], weights=coef[0], regularized=regularized
    )
