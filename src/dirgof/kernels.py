"""Directional smoothing kernels and their moment constants.

A directional kernel is a nonnegative profile L on [0, infinity) applied to
the rescaled chordal distance (1 - x.y)/h^2.  Admissible kernels decay
exponentially, L(r) <= M exp(-alpha r); this is spot-checked on a log grid
at construction.  The von Mises profile exp(-r) takes its closed-form
normalizing constant, whose scaled Bessel function ``ive`` is computed here
from its ascending and Hankel series, so the default kernel needs numpy
only.  Custom kernels and the cached moment constants go through adaptive
quadrature (scipy.integrate), and the test-variance factor through
Gauss-Jacobi nodes (scipy.special); both are imported where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, gamma, inf, pi, sqrt
from typing import Callable

import numpy as np

from .sphere import surface_area


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class InadmissibleKernelError(ValueError):
    """Kernel profile violates nonnegativity or the declared decay bound."""


class BandwidthOverflowError(OverflowError):
    """A constant built from the bandwidth is out of float range at this q."""


def _von_mises_profile(r):
    # one fresh array, negated and exponentiated in place: exp(-r) bit for bit
    out = np.array(r, dtype=float)
    return np.exp(np.negative(out, out=out), out=out)[()]


@dataclass(frozen=True)
class DirectionalKernel:
    """Kernel profile with its declared exponential decay bound (M, alpha)."""

    fn: Callable[[np.ndarray], np.ndarray]
    tag: str = "custom"
    decay: tuple[float, float] = (1.0, 1.0)

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float))


def directional_kernel(
    fn: Callable, decay: tuple[float, float], tag: str = "custom"
) -> DirectionalKernel:
    """Build a kernel, spot-checking admissibility on a log grid of radii."""
    bound_m, alpha = decay
    if bound_m <= 0 or alpha <= 0:
        raise InadmissibleKernelError("decay bound (M, alpha) must be positive")
    kernel = DirectionalKernel(fn=fn, tag=tag, decay=(float(bound_m), float(alpha)))
    grid = np.geomspace(1e-8, 60.0 / alpha, 400)
    vals = kernel(grid)
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise InadmissibleKernelError("kernel profile must be finite and >= 0")
    envelope = bound_m * np.exp(-alpha * grid)
    if np.any(vals > envelope * (1.0 + 1e-9) + 1e-300):
        raise InadmissibleKernelError(
            "kernel profile exceeds the declared bound M*exp(-alpha*r)"
        )
    return kernel


VON_MISES = directional_kernel(_von_mises_profile, decay=(1.0, 1.0), tag="von-mises")


def _quad(fn, lo, hi, **kw) -> float:
    """scipy.integrate.quad wrapper that raises on non-convergence."""
    from scipy import integrate

    out = integrate.quad(
        fn, lo, hi, epsabs=1e-10, epsrel=1e-8, limit=200, full_output=1, **kw
    )
    if len(out) > 3:
        raise QuadratureError(f"nonconvergent-quadrature: {out[3]}")
    return float(out[0])


def radial_moment(kernel: DirectionalKernel, q: int, shift: int = 0) -> float:
    """Integral of L(r) r^(q/2 - 1 + shift) over (0, infinity).

    The unit interval part keeps the algebraic endpoint weight exact; the
    tail is mapped to (0, 1] by r = -log(u) to exploit exponential decay.
    """
    a = 0.5 * q - 1.0 + shift

    head = _quad(lambda r: float(kernel(r)), 0.0, 1.0, weight="alg", wvar=(a, 0.0))

    def tail(u):
        r = 1.0 - np.log(u)
        return float(kernel(r)) * r**a / u

    return head + _quad(tail, 0.0, 1.0)


@dataclass(frozen=True)
class KernelConstants:
    """Moment constants of an admissible kernel at a given dimension.

    ``scale`` is the small-bandwidth normalizing scale (the kernel analogue
    of the integral of a Euclidean kernel), ``scale_sq`` the same functional
    applied to the squared profile and ``moment_ratio`` the first-to-zeroth
    radial moment ratio driving the smoothing bias.
    """

    q: int
    scale: float
    scale_sq: float
    moment_ratio: float

    def __post_init__(self):
        if min(self.scale, self.scale_sq, self.moment_ratio) <= 0:
            raise ValueError("kernel constants must be strictly positive")

    @property
    def variance_factor(self) -> float:
        """scale_sq / scale^2, the variance inflation of the local fit."""
        return self.scale_sq / self.scale**2


@lru_cache(maxsize=None)
def kernel_constants(kernel: DirectionalKernel, q: int) -> KernelConstants:
    """Compute and cache the moment constants of a kernel for dimension q."""
    if q < 1:
        raise ValueError(f"dimension must be >= 1, got {q}")
    prefactor = 2.0 ** (0.5 * q - 1.0) * surface_area(q - 1)
    m0 = radial_moment(kernel, q, shift=0)
    m1 = radial_moment(kernel, q, shift=1)

    def fn_sq(r):
        return kernel(r) ** 2

    m0_sq = radial_moment(DirectionalKernel(fn=fn_sq, decay=kernel.decay), q, shift=0)
    return KernelConstants(
        q=q, scale=prefactor * m0, scale_sq=prefactor * m0_sq, moment_ratio=m1 / m0
    )


def normalizing_constant(kernel: DirectionalKernel, q: int, h: float) -> float:
    """Exact normalizing constant making the rescaled kernel a density.

    The von Mises kernel takes its closed form.  Any other kernel is
    computed from the finite radial integral of
    L(r) r^(q/2-1) (2 - r h^2)^(q/2-1) over (0, 2/h^2); the substitution
    r = 2 s / h^2 turns both endpoint factors into an algebraic weight that
    the quadrature handles exactly.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {h}")
    # equality, not identity: a kernel unpickled in a worker routes the same way
    if kernel == VON_MISES:
        return von_mises_normalizing_constant(q, h)
    a = 0.5 * q - 1.0
    kappa = 1.0 / h**2

    def fn(s):
        return float(kernel(2.0 * kappa * s))

    radial = _quad(fn, 0.0, 1.0, weight="alg", wvar=(a, a))
    lam_h = surface_area(q - 1) * (2.0 * kappa) ** (0.5 * q) * 2.0**a * radial
    return 1.0 / (lam_h * h**q)


def ive(order: float, x: float) -> float:
    """Exponentially scaled modified Bessel function e^-x I_order(x), x >= 0.

    Up to x = max(30, order^2) it sums the ascending series, whose terms are
    all positive, so nothing cancels.  Beyond, it sums Hankel's asymptotic
    series in 1/x, which terminates for half-integer orders and drops a
    term of relative size e^-2x (below 1e-26).  Both stop once a term falls
    below 1e-17 of the sum.  For the orders (q-1)/2 with q = 1..10 it agrees
    with 40-digit arithmetic to 1e-15 relative from x = 1e-10 to 1e8.
    """
    x = float(x)
    if x <= max(30.0, order * order):
        half = 0.5 * x
        term = total = 1.0
        k = 0
        while term > 1e-17 * total:
            k += 1
            # x/2 twice, not a rounded x^2/4: that error would grow with k
            term = term * half / k * half / (order + k)
            total += term
        return exp(-x) * half**order / gamma(order + 1.0) * total
    mu = 4.0 * order * order
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (-8.0 * k * x)
        total += term
    return total / sqrt(2.0 * pi * x)


def scaled_vmf_normalizer(q: int, kappa: float) -> float:
    """e^κ C_q(κ) = κ^ν / ((2π)^((q+1)/2) ive(ν, κ)), ν = (q-1)/2, for the
    von Mises-Fisher normalizer C_q(κ) on the q-sphere, κ > 0; the scaled
    Bessel function keeps it stable at large κ."""
    order = (q - 1) / 2.0
    return kappa**order / ((2.0 * pi) ** ((q + 1) / 2.0) * ive(order, kappa))


def von_mises_normalizing_constant(q: int, h: float) -> float:
    """Closed form of the normalizing constant for the exp(-r) profile, the
    scaled von Mises-Fisher normalizer at concentration 1/h^2; raises
    ``BandwidthOverflowError`` where that leaves the float range (small h
    at q >= 3, large h at q >= 4)."""
    try:
        value = scaled_vmf_normalizer(q, 1.0 / h**2)
    except ArithmeticError:  # κ^ν overflows, or κ^ν and ive both underflow
        value = inf
    if value == inf:
        raise BandwidthOverflowError(
            f"the von Mises kernel normalizer at q={q} leaves the float range for bandwidth {h:g}"
        )
    return value


def _fold_pair_profile(kernel, s, t, theta_nodes, theta_weights, q):
    """Angular average of L(s^2 + t^2 - 2 theta s t) over theta in [-1, 1].

    For q = 1 the average degenerates to the two endpoint terms; for q >= 2
    the (1-theta^2)^((q-3)/2) weight is folded into Gauss-Jacobi weights.
    """
    ss = s[:, None] ** 2
    tt = t[None, :] ** 2
    st = s[:, None] * t[None, :]
    if q == 1:
        return kernel(ss + tt - 2.0 * st) + kernel(ss + tt + 2.0 * st)
    acc = np.zeros((s.size, t.size))
    for node, weight in zip(theta_nodes, theta_weights):
        acc += weight * kernel(ss + tt - 2.0 * node * st)
    return acc


def _gof_variance_factor_at(kernel: DirectionalKernel, q: int, resolution: int) -> float:
    """Kernel part of the asymptotic test variance at a fixed resolution.

    Both radial integrals are computed in square-root coordinates, which
    removes the r^(q/2-1) endpoint singularity; the grid extent follows the
    declared decay rate.
    """
    alpha = kernel.decay[1]
    extent = sqrt(60.0 / alpha)
    u, gl_w = np.polynomial.legendre.leggauss(resolution)
    s = 0.5 * extent * (u + 1.0)
    w = 0.5 * extent * gl_w

    if q >= 2:
        from scipy import special

        theta_nodes, theta_weights = special.roots_jacobi(
            max(96, resolution // 2), (q - 3) / 2.0, (q - 3) / 2.0
        )
    else:
        theta_nodes = theta_weights = None

    pair = _fold_pair_profile(kernel, s, s, theta_nodes, theta_weights, q)
    inner = 2.0 * pair @ (w * s ** (q - 1) * kernel(s**2))
    outer = 2.0 * float((w * s ** (q - 1)) @ inner**2)

    if q == 1:
        gamma_factor = 2.0 ** (-0.5)
    else:
        gamma_factor = (
            surface_area(q - 1) * surface_area(q - 2) ** 2 * 2.0 ** (1.5 * q - 3.0)
        )
    scale = kernel_constants(kernel, q).scale
    return gamma_factor * scale ** (-4.0) * outer


@lru_cache(maxsize=None)
def _gof_variance_factor(kernel: DirectionalKernel, q: int, resolution: int) -> float:
    coarse = _gof_variance_factor_at(kernel, q, resolution)
    fine = _gof_variance_factor_at(kernel, q, 2 * resolution)
    if abs(fine - coarse) > 1e-7 * abs(fine) + 1e-12:
        raise QuadratureError(
            "nonconvergent-quadrature: test-variance factor did not stabilize "
            f"(resolution {resolution}: {coarse!r} vs {fine!r})"
        )
    return fine


def gof_asymptotic_variance(
    kernel: DirectionalKernel,
    q: int,
    sigma4_weight_integral: float,
    resolution: int = 220,
) -> float:
    """Half the variance of the limiting law of the scaled test statistic.

    ``sigma4_weight_integral`` is the surface integral of the squared
    conditional variance times the squared weight function, supplied by the
    caller; the kernel-dependent factor is computed here.  For the von Mises
    profile the factor equals (8 pi)^(-q/2).
    """
    if sigma4_weight_integral < 0:
        raise ValueError("the sigma^4 weight integral must be nonnegative")
    return sigma4_weight_integral * _gof_variance_factor(kernel, q, resolution)
