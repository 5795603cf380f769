"""Reference implementations that library code never calls.

Closed-form local linear fits on the circle and the 2-sphere, against which
the tests compare the generic projected fit of ``dirgof.locreg``; the
stacked-QR local linear rows at every node, against which they compare the
moment rows the gate lets through; the one-response Levenberg-Marquardt
solver, against which they compare the lock-step solver of ``dirgof.parfit``
row by row; the QR least squares fit finished by scipy's triangular
solve, against which they compare the closed-form linear fits; and the
paper's closed forms that only check simulations: smoothing known model
values, the equivalent-kernel estimate, the leading bias and variance, the
tangent-normal decomposition of a sphere point, and the kernel density
estimate, against which they compare the density factor of the node cache.
"""

import numpy as np
from scipy.linalg import solve_triangular

from dirgof.kernels import VON_MISES, DirectionalKernel, kernel_constants, normalizing_constant
from dirgof.locreg import LocalFitConfig, kernel_weights
from dirgof.parfit import ThetaEstimate, predict_batch
from dirgof.sphere import projection_basis, tangent_bases


def circular_local_linear(
    eval_angles, data_angles, responses, h: float, kernel: DirectionalKernel = VON_MISES
) -> np.ndarray:
    """Closed-form degree 1 fit on the circle from sine-moment sums."""
    eval_angles = np.atleast_1d(np.asarray(eval_angles, dtype=float))
    data_angles = np.asarray(data_angles, dtype=float)
    responses = np.asarray(responses, dtype=float)
    diff = data_angles[None, :] - eval_angles[:, None]
    lw = kernel((1.0 - np.cos(diff)) / h**2)
    sin_d = np.sin(diff)
    s0 = lw.sum(axis=1)
    s1 = (lw * sin_d).sum(axis=1)
    s2 = (lw * sin_d**2).sum(axis=1)
    t0 = lw @ responses
    t1 = (lw * sin_d) @ responses
    return (s2 * t0 - s1 * t1) / (s2 * s0 - s1**2)


def spherical_local_linear(
    eval_angles, data_angles, responses, h: float, kernel: DirectionalKernel = VON_MISES
) -> np.ndarray:
    """Closed-form degree 1 fit on the 2-sphere from angular moment sums.

    Angles are (azimuth, polar) pairs for the embedding
    (sin(polar) cos(azimuth), sin(polar) sin(azimuth), cos(polar)).
    """
    eval_angles = np.atleast_2d(np.asarray(eval_angles, dtype=float))
    data_angles = np.asarray(data_angles, dtype=float)
    responses = np.asarray(responses, dtype=float)
    theta, phi = eval_angles[:, 0][:, None], eval_angles[:, 1][:, None]
    big_theta, big_phi = data_angles[:, 0][None, :], data_angles[:, 1][None, :]
    cos_dt = np.cos(big_theta - theta)
    lw = kernel(
        (1.0 - np.sin(phi) * np.sin(big_phi) * cos_dt - np.cos(phi) * np.cos(big_phi))
        / h**2
    )
    u = np.sin(big_phi) * np.sin(big_theta - theta)
    v = -np.cos(phi) * np.sin(big_phi) * cos_dt + np.sin(phi) * np.cos(big_phi)

    def s(j, k):
        return (lw * u**j * v**k).sum(axis=1)

    def t(j, k):
        return (lw * u**j * v**k) @ responses

    c0 = s(2, 0) * s(0, 2) - s(1, 1) ** 2
    c1 = s(1, 0) * s(0, 2) - s(0, 1) * s(1, 1)
    c2 = s(1, 0) * s(1, 1) - s(0, 1) * s(2, 0)
    numer = c0 * t(0, 0) - c1 * t(1, 0) + c2 * t(0, 1)
    denom = c0 * s(0, 0) - c1 * s(1, 0) + c2 * s(0, 1)
    return numer / denom


def stacked_qr_weight_rows(nodes, predictors, raw):
    """Local linear fitted-value rows (m, n) by one stacked QR at every node,
    with the R-diagonal rank test and the local-constant row k / sum(k) at
    every node it flags, and the (m,) mask of those nodes."""
    centered = predictors[None, :, :] - nodes[:, None, :]
    tangent = centered @ tangent_bases(nodes)
    design = np.concatenate([np.ones(tangent.shape[:2] + (1,)), tangent], axis=2)
    sw = np.sqrt(raw)
    q_mat, r_mat = np.linalg.qr(design * sw[:, :, None])
    diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
    scale = 1e-10 * diag.max(axis=1)
    flags = ~((diag.min(axis=1) > scale) & (scale > 0))
    r_mat[flags] = np.eye(design.shape[2])
    rows = (np.linalg.inv(r_mat) @ np.swapaxes(q_mat, 1, 2))[:, 0] * sw
    rows[flags] = raw[flags] / raw[flags].sum(axis=1, keepdims=True)
    return rows, flags


def levenberg_marquardt(family, points, responses, theta0, max_iter=200, gtol=1e-8):
    """Levenberg-Marquardt on one response vector, one damped solve at a time."""
    theta = np.asarray(theta0, dtype=float).copy()
    resid = responses - predict_batch(family, theta, points)
    objective = float(resid @ resid)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = family.grad_theta(theta, points)
        grad = 2.0 * (jac.T @ resid)
        if np.linalg.norm(grad) <= gtol:
            converged = True
            break
        hess = jac.T @ jac
        scale = np.diag(hess).copy()
        scale[scale <= 0] = 1.0
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * np.diag(scale), jac.T @ resid)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            cand_resid = responses - predict_batch(family, cand, points)
            cand_obj = float(cand_resid @ cand_resid)
            if cand_obj < objective:
                theta, resid, objective = cand, cand_resid, cand_obj
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # no downhill step within float precision; stationary if the
            # gradient is negligible on the scale of the objective (a stuck
            # solver far from a minimum carries a gradient of order n)
            converged = np.linalg.norm(grad) <= 1e-3 * (1.0 + objective)
            break
    return ThetaEstimate(
        theta=theta,
        residuals=resid,
        converged=converged,
        iterations=iterations,
        objective=objective,
    )


def triangular_least_squares(family, points, responses):
    """Linear-in-theta fit of a response vector or of each row of a block.

    QR of the design, then R theta = Q^T y by scipy's triangular solve.
    """
    design = family.design(points)
    q_mat, r_mat = np.linalg.qr(design)
    thetas = solve_triangular(r_mat, q_mat.T @ responses.T, lower=False).T
    return thetas, responses - thetas @ design.T


def smooth_parametric(model_values, rows) -> np.ndarray:
    """Apply precomputed weight rows to known function values at the data."""
    model_values = np.asarray(model_values, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != model_values.shape[0]:
        raise ValueError(
            f"length mismatch: rows act on {rows.shape[-1]} values, got {model_values.shape[0]}"
        )
    return rows @ model_values


def equivalent_kernel_estimate(
    x, predictors, responses, cfg: LocalFitConfig, density_at_x: float
) -> float:
    """Plain kernel average with the asymptotic equivalent-kernel weights.

    Diagnostic companion of ``estimate``: identical for degree 0 and 1 by
    construction, and asymptotically equivalent to the local fit.
    """
    if density_at_x <= 0:
        raise ValueError("density value at x must be positive")
    predictors = np.asarray(predictors, dtype=float)
    responses = np.asarray(responses, dtype=float)
    q = predictors.shape[1] - 1
    n = len(predictors)
    raw = kernel_weights(x, predictors, cfg)
    scale = kernel_constants(cfg.kernel, q).scale
    return float(
        (raw @ responses) / (n * cfg.bandwidth**q * scale * density_at_x)
    )


def asymptotic_bias_variance(
    q: int,
    density: float,
    grad_inner: float,
    hessian_trace: float,
    sigma2: float,
    cfg: LocalFitConfig,
    n: int,
) -> tuple[float, float]:
    """Leading conditional bias and variance of the local fit at a point.

    ``grad_inner`` is the inner product of the density and regression
    gradients (its extra bias term only enters the degree 0 fit);
    ``hessian_trace`` the trace of the regression Hessian under the radial
    extension.  Diagnostic values for validating simulations.
    """
    if density <= 0 or sigma2 <= 0:
        raise ValueError("density and conditional variance must be positive")
    consts = kernel_constants(cfg.kernel, q)
    curvature = hessian_trace
    if cfg.degree == 0:
        curvature = curvature + 2.0 * grad_inner / density
    bias = (consts.moment_ratio / q) * curvature * cfg.bandwidth**2
    variance = consts.variance_factor * sigma2 / (n * cfg.bandwidth**q * density)
    return bias, variance


def tangent_normal_point(x, t: float, xi) -> np.ndarray:
    """Map (t, xi) in [-1,1] x sphere^(q-1) to t*x + sqrt(1-t^2) B_x xi."""
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    basis = projection_basis(x)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (basis.columns.shape[1],):
        raise ValueError("xi must be a unit vector of length q")
    out = t * basis.base_point + np.sqrt(max(1.0 - t * t, 0.0)) * (basis.columns @ xi)
    return out / np.linalg.norm(out)


def kde(points, sample, h: float, kernel: DirectionalKernel) -> np.ndarray:
    """Directional kernel density estimate at one point or stacked rows.

    Average of normalized kernels centered at the sample: nonnegative and,
    up to quadrature error, integrating to one on the sphere.
    """
    sample = np.asarray(sample, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != sample.shape[1]:
        raise ValueError(
            f"dimension mismatch: points in R^{pts.shape[1]}, sample in R^{sample.shape[1]}"
        )
    q = sample.shape[1] - 1
    const = normalizing_constant(kernel, q, h)
    vals = const * kernel((1.0 - pts @ sample.T) / h**2).mean(axis=1)
    if np.ndim(points) == 1:
        return float(vals[0])
    return vals
