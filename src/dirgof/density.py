"""Densities on the q-sphere: the parametric design models.

The parametric models are von Mises-Fisher mixtures (uniform as the zero
concentration limit).  The named models M1/M4s/M12s/M20s/M16s are the design
densities used by the simulation scenarios; apart from the uniform M1 they
are documented stand-ins with fixed, reproducible parameters (see README),
and any mixture can be substituted through the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .kernels import ive
from .sphere import projection_basis, sample_uniform, surface_area, unit_vector

_T_GRID_SIZE = 4096
# the largest concentration the grid inverse CDF samples: up to it the bias of
# 1 - E[mu.X] stays below 1 % at q = 1-3 (0.75 % at q = 3, 400 000 draws),
# and it grows fast beyond (1.3 % at 300, 7.8 % at 1000)
MAX_SAMPLED_KAPPA = 200.0


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Mixture of von Mises-Fisher components on the q-sphere.

    ``kind`` is "uniform", "vmf" or "mixture".  Mixing weights are positive
    and sum to one; a zero concentration component is the uniform density.
    """

    q: int
    kind: str
    means: np.ndarray
    kappas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(self.weights > 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixing weights must be positive and sum to 1")
        if not np.all((self.kappas >= 0) & (self.kappas < np.inf)):
            raise ValueError("concentrations must be finite and nonnegative")


def uniform_model(q: int) -> DensityModel:
    mu = np.zeros(q + 1)
    mu[-1] = 1.0
    return DensityModel(
        q=q, kind="uniform", means=mu[None, :], kappas=np.zeros(1), weights=np.ones(1)
    )


def vmf_model(mu, kappa: float) -> DensityModel:
    mu = unit_vector(mu)
    return DensityModel(
        q=mu.size - 1,
        kind="vmf",
        means=mu[None, :],
        kappas=np.array([float(kappa)]),
        weights=np.ones(1),
    )


def mixture_model(components) -> DensityModel:
    """Build a mixture from (mean, kappa, weight) triples."""
    means = np.stack([unit_vector(mu) for mu, _, _ in components])
    kappas = np.array([float(k) for _, k, _ in components])
    weights = np.array([float(w) for _, _, w in components])
    return DensityModel(
        q=means.shape[1] - 1, kind="mixture", means=means, kappas=kappas, weights=weights
    )


def _log_vmf_normalizer(dim: int, kappa: float) -> float:
    """log C_dim(kappa) for the vMF density on the sphere in R^dim."""
    order = dim / 2.0 - 1.0
    if kappa < 1e-12:
        return -np.log(surface_area(dim - 1))
    return (
        order * np.log(kappa)
        - (dim / 2.0) * np.log(2.0 * pi)
        - np.log(ive(order, kappa))
        - kappa
    )


def density_eval(model: DensityModel, points) -> np.ndarray:
    """Evaluate the mixture density at one point or at stacked rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape[0])
    for mu, kappa, weight in zip(model.means, model.kappas, model.weights):
        log_c = _log_vmf_normalizer(model.q + 1, kappa)
        out += weight * np.exp(log_c + kappa * (pts @ mu))
    if np.ndim(points) == 1:
        return out[0]
    return out


def _tilt_inverse_cdf(kappa: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid inverse CDF of the cosine-tilt marginal, density ~ e^(kt)(1-t^2)^(q/2-1).

    For q = 1 the grid lives on the angle (the endpoint weight is singular in
    t but flat in the angle); for q >= 2 directly on t.
    """
    if q == 1:
        ang = np.linspace(-pi, pi, _T_GRID_SIZE)
        pdf = np.exp(kappa * (np.cos(ang) - 1.0))
        grid = ang
    else:
        grid = np.linspace(-1.0, 1.0, _T_GRID_SIZE)
        pdf = np.exp(kappa * (grid - 1.0)) * (1.0 - grid**2) ** (q / 2.0 - 1.0)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2.0)])
    cdf /= cdf[-1]
    return cdf, grid


def _sample_vmf(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    q = mu.size - 1
    if kappa < 1e-12:
        return sample_uniform(q, n, rng)
    cdf, grid = _tilt_inverse_cdf(kappa, q)
    u = rng.uniform(size=n)
    basis = projection_basis(mu)
    if q == 1:
        ang = np.interp(u, cdf, grid)
        return np.cos(ang)[:, None] * mu + np.sin(ang)[:, None] * basis.columns[:, 0]
    t = np.interp(u, cdf, grid)
    xi = sample_uniform(q - 1, n, rng)
    tangent = xi @ basis.columns.T
    out = t[:, None] * mu + np.sqrt(np.clip(1.0 - t**2, 0.0, None))[:, None] * tangent
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def density_sample(model: DensityModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the mixture, deterministic for a given generator."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if np.any(model.kappas > MAX_SAMPLED_KAPPA):
        raise ValueError(
            f"concentration {model.kappas.max():g} is above {MAX_SAMPLED_KAPPA:g}, "
            "the largest the sampler resolves"
        )
    if model.kind == "uniform":
        return sample_uniform(model.q, n, rng)
    counts = rng.multinomial(n, model.weights)
    blocks = [
        _sample_vmf(mu, kappa, count, rng)
        for mu, kappa, count in zip(model.means, model.kappas, counts)
        if count > 0
    ]
    out = np.concatenate(blocks, axis=0)
    return out[rng.permutation(n)]


def _pole_mixture(q: int, kappa: float) -> DensityModel:
    """Four components tilted off the last-axis pole, all weights equal.

    On the circle the tilts are four signed angles along the single tangent
    direction; for q >= 2 one fixed tilt in four tangent directions.
    """
    pole = np.zeros(q + 1)
    pole[-1] = 1.0
    comps = []
    if q == 1:
        for tilt in (-0.55, -0.2, 0.2, 0.55):
            mu = np.array([np.sin(tilt), np.cos(tilt)])
            comps.append((mu, kappa, 0.25))
    else:
        for j in range(4):
            direction = np.zeros(q + 1)
            direction[j % 2] = 1.0 if j < 2 else -1.0
            mu = np.cos(0.4) * pole + np.sin(0.4) * direction
            comps.append((mu, kappa, 0.25))
    return mixture_model(comps)


def named_model(name: str, q: int) -> DensityModel:
    """Design densities used by the simulation scenarios.

    M1 is the uniform density.  The starred names are fixed stand-ins:
    M4s a single unimodal component, M12s a three-component symmetric
    mixture, M20s a four-component mixture concentrated near the pole and
    M16s the bimodal mixture that drives the heteroskedastic noise.
    """
    pole = np.zeros(q + 1)
    pole[-1] = 1.0
    first = np.zeros(q + 1)
    first[0] = 1.0
    if name == "M1":
        return uniform_model(q)
    if name == "M4s":
        return vmf_model(pole, 2.0)
    if name == "M12s":
        angles = [0.0, 2.0 * pi / 3.0, 4.0 * pi / 3.0]
        comps = [
            (np.cos(a) * pole + np.sin(a) * first, 6.0, 1.0 / 3.0) for a in angles
        ]
        return mixture_model(comps)
    if name == "M20s":
        return _pole_mixture(q, kappa=10.0)
    if name == "M16s":
        return mixture_model([(first, 3.0, 0.5), (-first, 3.0, 0.5)])
    raise ValueError(f"unknown design density {name!r}")
