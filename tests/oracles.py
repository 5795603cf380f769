"""Closed-form local linear fits on the circle and the 2-sphere.

Test oracles for ``dirgof.locreg``: library code never calls them, and the
tests compare the generic projected fit against these moment-sum formulas.
"""

import numpy as np

from dirgof.kernels import VON_MISES, DirectionalKernel


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
