"""Parametric regression families on the sphere and least squares fitting.

Families that are linear in the parameter (constant, linear, constrained
linear, the fixed-frequency trigonometric family) are solved in closed form
through a QR factorization; the damped-sine family and custom families go
through damped Gauss-Newton (Levenberg-Marquardt), the damped sine seeded by
a coarse grid search.  One lock-step solver refits all rows of a response
block at once (the B bootstrap replicates, or the seeds of a single fit),
bit-identical to fitting each row alone.  All built-in families are
assembled from module-level functions and partials so scenario objects can
cross process boundaries.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from math import pi
from typing import Callable

import numpy as np


class RankDeficientError(RuntimeError):
    """The regression design of a linear-in-parameter family lost rank."""


@dataclass(frozen=True, eq=False)
class ParametricFamily:
    """Regression family m_theta with analytic parameter gradient.

    ``design`` is set for families linear in theta (prediction = design @
    theta) and enables the closed-form fit and batched refits.  Without it,
    ``predict`` and ``grad_theta`` also take a (R, dim_theta) parameter stack
    and return (R, n) predictions and (R, n, dim_theta) Jacobians.
    """

    kind: str
    dim_theta: int
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_theta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    design: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class ThetaEstimate:
    """Fitted parameter with residuals and solver diagnostics."""

    theta: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int
    objective: float


def _linear_predict(design_fn, theta, points):
    return design_fn(np.atleast_2d(points)) @ np.asarray(theta, dtype=float)


def _linear_grad(design_fn, theta, points):
    return design_fn(np.atleast_2d(points))


def _from_design(kind, dim_theta, design_fn, meta=None) -> ParametricFamily:
    return ParametricFamily(
        kind=kind,
        dim_theta=dim_theta,
        predict=partial(_linear_predict, design_fn),
        grad_theta=partial(_linear_grad, design_fn),
        design=design_fn,
        meta=meta or {},
    )


def _constant_design(points):
    return np.ones((points.shape[0], 1))


def _linear_design(points):
    return np.column_stack([np.ones(points.shape[0]), points])


def _constrained_design(null_basis, points):
    return np.column_stack([np.ones(points.shape[0]), points @ null_basis])


def _trig_design(points):
    return np.column_stack(
        [
            np.ones(points.shape[0]),
            np.sin(2.0 * pi * points[:, 1]),
            np.cos(2.0 * pi * points[:, 0]),
        ]
    )


def _damped_sine_phase(points):
    return 1.0 / (2.0 + points[:, -1])


def _damped_sine_predict(theta, points):
    """Predictions (..., n) for parameters (..., 3): one row per stacked theta."""
    theta = np.asarray(theta, dtype=float)
    u = _damped_sine_phase(np.atleast_2d(points))
    phase = (2.0 * pi * theta[..., 2])[..., None] * u
    return theta[..., 0, None] + theta[..., 1, None] * np.sin(phase)


def _damped_sine_grad(theta, points):
    """Jacobians (..., n, 3) for parameters (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    u = _damped_sine_phase(np.atleast_2d(points))
    phase = (2.0 * pi * theta[..., 2])[..., None] * u
    return np.stack(
        [np.ones_like(phase), np.sin(phase), theta[..., 1, None] * np.cos(phase) * 2.0 * pi * u],
        axis=-1,
    )


def constant_family() -> ParametricFamily:
    """m(x) = c."""
    return _from_design("constant", 1, _constant_design)


def linear_family(q: int) -> ParametricFamily:
    """m(x) = c + eta . x with theta = (c, eta)."""
    return _from_design("linear", q + 2, _linear_design)


def constrained_linear_family(constraint: np.ndarray, q: int) -> ParametricFamily:
    """Linear family with the slope confined to the null space of a matrix.

    The slope is reparameterized as eta = N beta where N spans the null
    space, so the constraint holds exactly for every fitted parameter.
    """
    constraint = np.atleast_2d(np.asarray(constraint, dtype=float))
    if constraint.shape[1] != q + 1:
        raise ValueError(
            f"constraint matrix must have q+1 = {q + 1} columns, got {constraint.shape[1]}"
        )
    from scipy.linalg import null_space

    null_basis = null_space(constraint)
    if null_basis.shape[1] == 0:
        raise ValueError("constraint matrix leaves no free slope directions")
    return _from_design(
        "constrained-linear",
        1 + null_basis.shape[1],
        partial(_constrained_design, null_basis),
        meta={"constraint": constraint, "null_basis": null_basis},
    )


def trig_family(q: int) -> ParametricFamily:
    """m(x) = c + a sin(2 pi x_2) + b cos(2 pi x_1); linear in (c, a, b)."""
    if q < 1:
        raise ValueError("the trigonometric family needs q >= 1")
    return _from_design("trig-s3", 3, _trig_design)


def damped_sine_family(q: int) -> ParametricFamily:
    """m(x) = c + a sin(2 pi b / (2 + x_last)); nonlinear in b."""
    return ParametricFamily(
        kind="damped-sine-s4",
        dim_theta=3,
        predict=_damped_sine_predict,
        grad_theta=_damped_sine_grad,
    )


def _one_theta_at_a_time(fn, theta, points):
    """Apply a one-parameter callable to each row of a (R, k) parameter stack."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        return fn(theta, points)
    return np.stack([fn(row, points) for row in theta])


def custom_family(predict, grad_theta, dim_theta, kind="custom") -> ParametricFamily:
    """Family from one-parameter callables ``predict(theta, points) -> (n,)``
    and ``grad_theta(theta, points) -> (n, dim_theta)``; the solver's
    stacked parameters are passed to them one row at a time."""
    return ParametricFamily(
        kind, dim_theta, partial(_one_theta_at_a_time, predict),
        partial(_one_theta_at_a_time, grad_theta),
    )


def predict_batch(family: ParametricFamily, theta, points) -> np.ndarray:
    """Model predictions at stacked points for a fixed parameter."""
    return np.asarray(family.predict(np.asarray(theta, dtype=float), points), dtype=float)


def _closed_form(family, points, ys):
    """(thetas, residuals) of a linear-in-theta family for each row of the
    (R, n) response stack ``ys``, over one QR of the design."""
    design = family.design(points)
    if np.linalg.matrix_rank(design) < family.dim_theta:
        raise RankDeficientError(
            f"design of family {family.kind!r} is rank deficient "
            f"({points.shape[0]} rows, {family.dim_theta} parameters)"
        )
    q_mat, r_mat = np.linalg.qr(design)
    thetas = np.linalg.solve(r_mat, q_mat.T @ ys.T).T
    fitted = thetas @ design.T
    return thetas, np.subtract(ys, fitted, out=fitted)


def _grid_init_damped_sine(family, points, responses):
    """Coarse (a, b) grid with the optimal intercept, seeding the solver."""
    best = None
    u = _damped_sine_phase(np.atleast_2d(points))
    for a in np.linspace(0.5, 5.0, 5):
        for b in np.linspace(0.5, 5.0, 5):
            s = a * np.sin(2.0 * pi * b * u)
            c = float(np.mean(responses - s))
            sse = float(np.sum((responses - c - s) ** 2))
            if best is None or sse < best[0]:
                best = (sse, np.array([c, a, b]))
    return best[1]


def _row_dots(left, right):
    """Row-wise dot products of two (R, n) stacks, one BLAS dot per row."""
    return (left[:, None, :] @ right[:, :, None])[:, 0, 0]


def _damped_steps(damped, rhs):
    """Solve stacked damped systems.  A singular one gets a zero step, which
    cannot lower the objective, so its row is rejected and lambda goes up."""
    try:
        return np.linalg.solve(damped, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        for i in range(len(rhs)):
            with suppress(np.linalg.LinAlgError):
                steps[i] = np.linalg.solve(damped[i], rhs[i])
        return steps


def _levenberg_marquardt(family, points, responses, theta0, max_iter=200, gtol=1e-8):
    """Levenberg-Marquardt on every row of a (R, n) response stack at once.

    Each row keeps its own theta, objective and damping lambda: a step that
    lowers the objective divides lambda by 10 (floor 1e-12), a rejected step
    or a singular system multiplies it by 10, and past 1e12 the row gives up.
    Stacked products and solves make the same BLAS and LAPACK calls per row
    as 2-D ones, so each row is bit-identical to a fit of that row alone.
    Returns a ThetaEstimate of stacked (R, ...) arrays.
    """
    rows = responses.shape[0]
    theta = np.array(np.broadcast_to(theta0, (rows, family.dim_theta)), dtype=float)
    resid = responses - predict_batch(family, theta, points)
    objective = _row_dots(resid, resid)
    lam = np.full(rows, 1e-3)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    active = np.arange(rows)
    diag = np.arange(family.dim_theta)
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        iterations[active] = it
        jac = family.grad_theta(theta[active], points)
        jtr = (jac.transpose(0, 2, 1) @ resid[active][:, :, None])[:, :, 0]
        grad = 2.0 * jtr
        gnorm = np.sqrt(_row_dots(grad, grad))
        converged[active[gnorm <= gtol]] = True
        moving = gnorm > gtol
        active, jac, jtr, gnorm = active[moving], jac[moving], jtr[moving], gnorm[moving]
        # a transposed view of the same buffer, like the 2-D jac.T, so numpy
        # picks the same BLAS routine for each row
        hess = jac.transpose(0, 2, 1) @ jac
        scale = hess[:, diag, diag].copy()
        scale[scale <= 0] = 1.0
        damping = np.zeros_like(hess)
        damping[:, diag, diag] = scale
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        while pending.size:
            idx = active[pending]
            damped = hess[pending] + lam[idx][:, None, None] * damping[pending]
            cand = theta[idx] + _damped_steps(damped, jtr[pending])
            cand_resid = responses[idx] - predict_batch(family, cand, points)
            cand_obj = _row_dots(cand_resid, cand_resid)
            better = cand_obj < objective[idx]
            won = idx[better]
            theta[won], resid[won], objective[won] = cand[better], cand_resid[better], cand_obj[better]
            lam[won] = np.maximum(lam[won] / 10.0, 1e-12)
            lam[idx[~better]] *= 10.0
            accepted[pending[better]] = True
            pending = pending[~better & (lam[idx] <= 1e12)]
        # no downhill step within float precision; stationary if the
        # gradient is negligible on the scale of the objective (a stuck
        # solver far from a minimum carries a gradient of order n)
        stuck = active[~accepted]
        converged[stuck] = gnorm[~accepted] <= 1e-3 * (1.0 + objective[stuck])
        active = active[accepted]
    return ThetaEstimate(theta, resid, converged, iterations, objective)


def fit(family: ParametricFamily, points, responses, theta_init=None) -> ThetaEstimate:
    """Least squares fit of the family; closed form when linear in theta."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float)
    if responses.shape != points.shape[:1]:
        raise ValueError(
            f"got {responses.size} responses but there are {points.shape[0]} points"
        )
    if points.shape[0] < family.dim_theta:
        raise ValueError(
            f"need n >= {family.dim_theta} observations, got {points.shape[0]}"
        )
    if family.design is not None:
        thetas, residuals = _closed_form(family, points, responses[None])
        resid = residuals[0]
        return ThetaEstimate(thetas[0], resid, True, 0, float(resid @ resid))
    seeds = []
    if theta_init is not None:
        theta_init = np.asarray(theta_init, dtype=float)
        if not np.all(np.isfinite(theta_init)):
            raise ValueError("theta_init must be finite")
        seeds.append(theta_init)
    if family.kind == "damped-sine-s4":
        # the sine frequency makes the objective multimodal; the grid seed
        # always participates so an unlucky init cannot trap the fit
        seeds.append(_grid_init_damped_sine(family, points, responses))
    if not seeds:
        seeds.append(np.zeros(family.dim_theta))
    # all seeds in one stacked solve; keep the first minimal objective
    stacked = np.broadcast_to(responses, (len(seeds), responses.size))
    est = _levenberg_marquardt(family, points, stacked, np.array(seeds))
    best = min(range(len(seeds)), key=lambda i: est.objective[i])
    return ThetaEstimate(
        est.theta[best], est.residuals[best], bool(est.converged[best]),
        int(est.iterations[best]), float(est.objective[best]),
    )


def fit_batch(family: ParametricFamily, points, response_matrix):
    """Fit many response vectors over a common design.

    Returns (thetas, residuals, converged) with one row per response vector.
    Linear-in-theta families reuse one QR factorization; others run one
    lock-step Levenberg-Marquardt over all rows from the fit of the row mean
    as a warm start.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ys = np.atleast_2d(np.asarray(response_matrix, dtype=float))
    if ys.shape[1] != points.shape[0]:
        raise ValueError(
            f"response block has {ys.shape[1]} columns but there are {points.shape[0]} points"
        )
    if family.design is not None:
        thetas, residuals = _closed_form(family, points, ys)
        return thetas, residuals, np.ones(ys.shape[0], dtype=bool)
    warm = fit(family, points, ys.mean(axis=0)).theta
    est = _levenberg_marquardt(family, points, ys, warm)
    return est.theta, est.residuals, est.converged
