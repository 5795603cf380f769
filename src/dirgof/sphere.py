"""Geometry of the unit q-sphere in R^(q+1).

Unit vectors, orthonormal tangent bases, surface measure, uniform sampling
and numerical integration.  Points are plain numpy arrays of length q+1
(samples are stacked row-wise); the constructors below validate and
renormalize, so downstream code can assume exact unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np


# largest rule build_quadrature makes: a q=2 grid up to r = 1000, whose
# Gauss-Legendre companion matrix takes r^2 * 8 bytes = 8 MB, or 1e6 Monte
# Carlo nodes, 8 (q + 1) MB of coordinates; larger requests would allocate
# gigabytes before anything could refuse them
MAX_QUADRATURE_NODES = 1_000_000


class UnsupportedSchemeError(ValueError):
    """Requested quadrature scheme does not exist for this dimension."""


def surface_area(q: int) -> float:
    """Surface area of the unit sphere with intrinsic dimension q >= 0."""
    if q < 0:
        raise ValueError(f"dimension must be >= 0, got {q}")
    return 2.0 * pi ** ((q + 1) / 2.0) / gamma((q + 1) / 2.0)


def unit_vector(x, atol: float = 1e-6) -> np.ndarray:
    """Return x renormalized to unit length, rejecting far-off inputs."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("a sphere point must be a vector of length q+1 >= 2")
    nrm = float(np.linalg.norm(x))
    if not np.isfinite(nrm) or abs(nrm - 1.0) > atol:
        raise ValueError(f"vector norm {nrm} deviates from 1 by more than {atol}")
    return x / nrm


def unit_rows(points, atol: float = 1e-6) -> np.ndarray:
    """Validate and renormalize a stacked (n, q+1) array of sphere points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("expected an (n, q+1) array with q >= 1")
    nrm = np.linalg.norm(pts, axis=1)
    bad = ~np.isfinite(nrm) | (np.abs(nrm - 1.0) > atol)
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} rows deviate from unit norm by more than {atol}"
        )
    return pts / nrm[:, None]


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Semiorthogonal completion of a base point to a tangent-space basis.

    ``columns`` is (q+1) x q with columns orthonormal and orthogonal to
    ``base_point``, so columns @ columns.T == I - x x^T.
    """

    base_point: np.ndarray
    columns: np.ndarray


def _row_dots(a, b) -> np.ndarray:
    """Row-wise inner products as an (m, 1) column, each summed like a 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def tangent_bases(points) -> np.ndarray:
    """Deterministic orthonormal tangent bases of stacked points, (m, q+1, q).

    Per row, canonical basis vectors are orthogonalized in index order,
    skipping the index of the largest |x_i| so the pivot is never
    near-degenerate.  Any fixed rule is valid (local fits are invariant to
    the basis choice); a deterministic one keeps results reproducible.
    """
    pts = np.asarray(points, dtype=float)
    unit_rows(pts, atol=1e-12)
    # normalized like unit_vector, so one row matches projection_basis's base point
    pts = pts / np.sqrt(_row_dots(pts, pts))
    m, d = pts.shape
    skip = np.argmax(np.abs(pts), axis=1)
    order = np.arange(d - 1)
    others = order + (order >= skip[:, None])
    basis = [pts]
    for k in range(d - 1):
        v = np.zeros((m, d))
        v[np.arange(m), others[:, k]] = 1.0
        # two Gram-Schmidt sweeps for orthogonality well below 1e-10
        for _ in range(2):
            for b in basis:
                v = v - _row_dots(b, v) * b
        v /= np.sqrt(_row_dots(v, v))
        basis.append(v)
    return np.stack(basis[1:], axis=2)


def projection_basis(x) -> ProjectionBasis:
    """Tangent basis of one point: the one-row case of ``tangent_bases``."""
    x = np.asarray(x, dtype=float)
    return ProjectionBasis(
        base_point=unit_vector(x, atol=1e-12), columns=tangent_bases(x[None])[0]
    )


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes and positive weights for integration over the q-sphere.

    Weights sum to the surface area.  ``scheme`` is "exact-grid" for the
    deterministic circle/sphere rules and "monte-carlo" for seeded uniform
    nodes with equal weights.
    """

    q: int
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values) -> float:
        """Weighted sum approximating the surface integral of the values."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def standard_error(self, values) -> float:
        """Monte Carlo standard error of ``integrate``; zero for grids."""
        if self.scheme != "monte-carlo":
            return 0.0
        v = surface_area(self.q) * np.asarray(values, dtype=float)
        return float(np.std(v, ddof=1) / np.sqrt(v.size))


def build_quadrature(
    q: int, resolution: int = 256, scheme: str = "auto", seed: int = 0
) -> SphereQuadrature:
    """Construct a quadrature rule on the q-sphere.

    q=1 uses equally spaced angles (trapezoid, spectrally accurate for
    periodic integrands); q=2 a Gauss-Legendre x azimuth product rule in
    tangent-normal coordinates; q>=3 seeded Monte Carlo with equal weights.
    A rule of more than ``MAX_QUADRATURE_NODES`` nodes raises ValueError
    before anything is allocated.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    if scheme == "auto":
        scheme = "exact-grid" if q <= 2 else "monte-carlo"
    count = resolution**2 if (q, scheme) == (2, "exact-grid") else resolution
    if count > MAX_QUADRATURE_NODES:
        raise ValueError(
            f"resolution {resolution} asks for {count} nodes, "
            f"more than MAX_QUADRATURE_NODES = {MAX_QUADRATURE_NODES}"
        )
    if scheme == "exact-grid":
        if q == 1:
            angles = 2.0 * pi * np.arange(resolution) / resolution
            nodes = np.column_stack([np.cos(angles), np.sin(angles)])
            weights = np.full(resolution, 2.0 * pi / resolution)
        elif q == 2:
            t, gl_w = np.polynomial.legendre.leggauss(resolution)
            phi = 2.0 * pi * np.arange(resolution) / resolution
            s = np.sqrt(1.0 - t**2)
            nodes = np.column_stack(
                [
                    np.outer(s, np.cos(phi)).ravel(),
                    np.outer(s, np.sin(phi)).ravel(),
                    np.outer(t, np.ones_like(phi)).ravel(),
                ]
            )
            weights = np.outer(gl_w, np.full(resolution, 2.0 * pi / resolution)).ravel()
        else:
            raise UnsupportedSchemeError(
                f"exact-grid quadrature is only available for q <= 2, got q={q}"
            )
    elif scheme == "monte-carlo":
        rng = np.random.default_rng(seed)
        nodes = sample_uniform(q, resolution, rng)
        weights = np.full(resolution, surface_area(q) / resolution)
    else:
        raise UnsupportedSchemeError(f"unknown quadrature scheme {scheme!r}")
    return SphereQuadrature(q=q, nodes=nodes, weights=weights, scheme=scheme)


def sample_uniform(q: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly on the q-sphere (normalized Gaussians)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    z = rng.standard_normal((n, q + 1))
    return z / np.linalg.norm(z, axis=1, keepdims=True)
