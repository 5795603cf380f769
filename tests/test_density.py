from math import pi

import numpy as np
import oracles
import pytest
from scipy import special, stats

from dirgof import density
from dirgof.kernels import VON_MISES, normalizing_constant
from dirgof.sphere import build_quadrature, sample_uniform, surface_area

NAMED = ("M1", "M4s", "M12s", "M20s", "M16s")


def test_uniform_value_on_circle():
    model = density.uniform_model(1)
    assert density.density_eval(model, np.array([1.0, 0.0])) == pytest.approx(
        1.0 / (2.0 * pi), abs=1e-14
    )


def test_zero_concentration_is_uniform(rng):
    model = density.vmf_model(np.array([0.0, 0.0, 1.0]), 0.0)
    pts = sample_uniform(2, 50, rng)
    vals = density.density_eval(model, pts)
    assert np.max(np.abs(vals - 1.0 / surface_area(2))) < 1e-12


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("name", NAMED)
def test_named_models_integrate_to_one(q, name):
    quad = build_quadrature(q, resolution=256 if q == 1 else 64)
    model = density.named_model(name, q)
    assert quad.integrate(density.density_eval(model, quad.nodes)) == pytest.approx(
        1.0, abs=1e-4
    )


def test_mixture_weights_validated():
    mu = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        density.mixture_model([(mu, 1.0, 0.6), (-mu, 1.0, 0.5)])
    with pytest.raises(ValueError):
        density.mixture_model([(mu, -1.0, 1.0)])


@pytest.mark.parametrize("weight, kappa", [(np.nan, 2.0), (1.0, np.inf), (1.0, np.nan)])
def test_non_finite_components_rejected(weight, kappa):
    with pytest.raises(ValueError):
        density.mixture_model([(np.array([0.0, 1.0]), kappa, weight)])


def test_kde_single_point():
    x = np.array([0.0, 1.0])
    h = 0.5
    expected = normalizing_constant(VON_MISES, 1, h) * 1.0
    assert oracles.kde(x, x[None, :], h, VON_MISES) == pytest.approx(expected, rel=1e-12)


def test_kde_unit_integral(rng):
    sample = sample_uniform(1, 5000, rng)
    quad = build_quadrature(1, resolution=256)
    vals = oracles.kde(quad.nodes, sample, 0.4, VON_MISES)
    assert np.all(vals >= 0)
    assert quad.integrate(vals) == pytest.approx(1.0, abs=1e-6)


def test_kde_permutation_invariant(rng):
    sample = sample_uniform(2, 200, rng)
    x = sample_uniform(2, 5, rng)
    shuffled = sample[rng.permutation(len(sample))]
    assert np.allclose(
        oracles.kde(x, sample, 0.5, VON_MISES),
        oracles.kde(x, shuffled, 0.5, VON_MISES),
        atol=1e-14,
    )


def test_kde_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        oracles.kde(np.array([1.0, 0.0]), sample_uniform(2, 10, rng), 0.5, VON_MISES)


def test_kde_consistency_vmf(rng):
    model = density.vmf_model(np.array([0.0, 0.0, 1.0]), 2.0)
    n = 5000
    sample = density.density_sample(model, n, rng)
    quad = build_quadrature(2, resolution=48)
    est = oracles.kde(quad.nodes, sample, n ** (-1.0 / 6.0), VON_MISES)
    truth = density.density_eval(model, quad.nodes)
    assert np.max(np.abs(est - truth)) < 0.1


def test_kde_error_shrinks_with_n(rng):
    model = density.vmf_model(np.array([0.0, 1.0]), 2.0)
    quad = build_quadrature(1, resolution=256)
    truth = density.density_eval(model, quad.nodes)
    errs = []
    for n in (500, 5000):
        sample = density.density_sample(model, n, rng)
        est = oracles.kde(quad.nodes, sample, n ** (-1.0 / 5.0), VON_MISES)
        errs.append(quad.integrate((est - truth) ** 2))
    assert errs[1] < errs[0]


def test_uniform_sampler_matches_reference(rng):
    model = density.uniform_model(2)
    ours = density.density_sample(model, 10_000, rng)
    reference = sample_uniform(2, 10_000, rng)
    assert stats.ks_2samp(ours[:, 0], reference[:, 0]).pvalue > 0.01


@pytest.mark.parametrize("q,kappa", [(1, 5.0), (2, 5.0), (3, 2.0)])
def test_vmf_sampler_mean_resultant(q, kappa, rng):
    mu = np.zeros(q + 1)
    mu[-1] = 1.0
    sample = density.density_sample(density.vmf_model(mu, kappa), 10_000, rng)
    dots = sample @ mu
    d = q + 1
    expected = special.ive(d / 2.0, kappa) / special.ive(d / 2.0 - 1.0, kappa)
    assert abs(dots.mean() - expected) < 3.0 * dots.std() / np.sqrt(len(dots))


def test_antipodal_mixture_is_balanced(rng):
    mu = np.array([0.0, 0.0, 1.0])
    model = density.mixture_model([(mu, 10.0, 0.5), (-mu, 10.0, 0.5)])
    sample = density.density_sample(model, 10_000, rng)
    assert np.linalg.norm(sample.mean(axis=0)) < 0.05


def test_unknown_named_model():
    with pytest.raises(ValueError):
        density.named_model("M99", 1)
