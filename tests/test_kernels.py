import pickle
from math import gamma, pi, sqrt

import numpy as np
import pytest

from dirgof import kernels
from dirgof.sphere import build_quadrature, surface_area


def vm_scale_exact(q):
    return 2.0 ** (q / 2.0 - 1.0) * surface_area(q - 1) * gamma(q / 2.0)


def test_von_mises_profile_is_exp_of_minus_r_bit_for_bit(rng):
    r = rng.uniform(0.0, 800.0, (50, 40))
    kept = r.copy()
    assert np.array_equal(kernels._von_mises_profile(r), np.exp(-r))
    assert np.array_equal(r, kept)
    value = kernels._von_mises_profile(0.7)
    assert type(value) is np.float64 and value == np.exp(-0.7)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_von_mises_constants_match_closed_forms(q):
    consts = kernels.kernel_constants(kernels.VON_MISES, q)
    assert consts.scale == pytest.approx(vm_scale_exact(q), rel=1e-6)
    assert consts.moment_ratio == pytest.approx(q / 2.0, rel=1e-6)
    assert consts.variance_factor == pytest.approx((2.0 * sqrt(pi)) ** -q, rel=1e-6)


def test_circle_scale_value():
    consts = kernels.kernel_constants(kernels.VON_MISES, 1)
    assert consts.scale == pytest.approx(sqrt(2.0 * pi), rel=1e-9)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("h", [0.2, 0.5, 1.0])
def test_kernel_normalization_integral(q, h):
    """The normalized kernel integrates to one over the sphere.

    Oracle: fold the surface integral onto the cosine of the colatitude and
    evaluate with a fixed-order Gauss-Jacobi rule carrying the (1-t^2)
    surface weight exactly, a route independent of both the closed form and
    the adaptive radial quadrature inside normalizing_constant.
    """
    from scipy import special

    const = kernels.normalizing_constant(kernels.VON_MISES, q, h)
    t, w = special.roots_jacobi(2048, q / 2.0 - 1.0, q / 2.0 - 1.0)
    profile = kernels.VON_MISES((1.0 - t) / h**2)
    integral = const * surface_area(q - 1) * float(w @ profile)
    assert integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("q,res", [(1, 512), (2, 96)])
def test_kernel_normalization_on_surface_grid(q, res):
    h = 0.5
    quad = build_quadrature(q, resolution=res)
    pole = np.zeros(q + 1)
    pole[-1] = 1.0
    const = kernels.normalizing_constant(kernels.VON_MISES, q, h)
    vals = const * kernels.VON_MISES((1.0 - quad.nodes @ pole) / h**2)
    assert quad.integrate(vals) == pytest.approx(1.0, abs=1e-6)


# the von Mises profile under another tag: unequal to VON_MISES, so its
# normalizing constant still goes through the adaptive quadrature
_VON_MISES_TWIN = kernels.directional_kernel(
    lambda r: np.exp(-r), decay=(1.0, 1.0), tag="twin"
)


def test_von_mises_normalizer_closed_form_circle():
    """The quadrature route of normalizing_constant matches the closed form."""
    for q in (1, 2, 3):
        for h in np.geomspace(0.04, 1.5, 12):
            numeric = kernels.normalizing_constant(_VON_MISES_TWIN, q, h)
            closed = kernels.von_mises_normalizing_constant(q, h)
            assert numeric == pytest.approx(closed, rel=1e-12), (q, h)


# orders (q-1)/2 of the vMF normalizer for q = 1..10, over the whole range of
# concentrations 1/h^2 and on both sides of the series switch at x = 30
_IVE_ORDERS = [(q - 1) / 2.0 for q in range(1, 11)]
_IVE_ARGS = np.concatenate(
    [
        np.geomspace(1e-10, 1e8, 181),
        [29.0, 29.999999, np.nextafter(30.0, 0.0), 30.0],
        [np.nextafter(30.0, 31.0), 30.000001, 31.0],
    ]
)


def test_ive_matches_40_digit_bessel():
    """e^-x I_order(x) agrees with mpmath at 40 digits to 4e-15 relative.

    Orders 9.5 and 19.5 (q = 20, 40) check that the switch to Hankel's
    series moves out to x = order^2, where it no longer cancels.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for order in _IVE_ORDERS + [9.5, 19.5]:
            for x in _IVE_ARGS:
                exact = mpmath.besseli(order, x) * mpmath.exp(-x)
                rel = abs(mpmath.mpf(kernels.ive(order, x)) / exact - 1)
                assert rel <= 4e-15, (order, x, float(rel))


def test_ive_matches_scipy():
    from scipy import special

    for order in _IVE_ORDERS:
        ours = np.array([kernels.ive(order, x) for x in _IVE_ARGS])
        np.testing.assert_allclose(ours, special.ive(order, _IVE_ARGS), rtol=3e-14, atol=0)


def test_ive_at_zero():
    assert kernels.ive(0.0, 0.0) == 1.0
    for order in _IVE_ORDERS[1:]:
        assert kernels.ive(order, 0.0) == 0.0


def test_von_mises_normalizer_routes_to_closed_form():
    """VON_MISES, also as unpickled in a worker process, skips the quadrature."""
    for kernel in (kernels.VON_MISES, pickle.loads(pickle.dumps(kernels.VON_MISES))):
        for q, h in ((1, 0.5), (2, 0.04), (3, 1.5)):
            routed = kernels.normalizing_constant(kernel, q, h)
            assert routed == kernels.von_mises_normalizing_constant(q, h)


@pytest.mark.parametrize("q", [4, 5, 6])
def test_von_mises_normalizer_large_bandwidth_limit(q):
    """As h grows the kernel flattens to the uniform density 1/|S^q|; at
    q >= 4 the factors κ^ν and ive(ν, κ) of the closed form both underflow
    there, yet the normalizer stays finite up to the top of the range."""
    for h in np.geomspace(1e100, 1e150, 11):
        value = kernels.von_mises_normalizing_constant(q, h)
        assert value * surface_area(q) == pytest.approx(1.0, rel=1e-15, abs=0), (q, h)


def test_normalizing_constant_small_bandwidth_limit():
    h = 0.05
    for q in (1, 2):
        const = kernels.normalizing_constant(kernels.VON_MISES, q, h)
        scale = kernels.kernel_constants(kernels.VON_MISES, q).scale
        assert const * scale * h**q == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_gof_variance_von_mises_closed_form(q):
    value = kernels.gof_asymptotic_variance(kernels.VON_MISES, q, 1.0)
    assert value == pytest.approx((8.0 * pi) ** (-q / 2.0), rel=1e-6)


def test_gof_variance_reference_values():
    v = kernels.gof_asymptotic_variance(kernels.VON_MISES, 1, pi / 2.0)
    assert v == pytest.approx(0.313329, abs=5e-7)
    v2 = kernels.gof_asymptotic_variance(kernels.VON_MISES, 2, 1.0)
    assert v2 == pytest.approx(1.0 / (8.0 * pi), rel=1e-6)


def _gaussian_profile(r):
    return np.exp(-1.3 * np.asarray(r, dtype=float)) * (1.0 + 0.2 * np.cos(r))


def test_gof_variance_resolution_oracle():
    """Doubling the grid, the brute force value stays put for a custom kernel."""
    custom = kernels.directional_kernel(_gaussian_profile, decay=(1.3, 1.2), tag="bump")
    coarse = kernels._gof_variance_factor_at(custom, 2, 180)
    fine = kernels._gof_variance_factor_at(custom, 2, 360)
    assert coarse == pytest.approx(fine, rel=1e-5)


def test_scaled_kernel_keeps_all_ratios():
    def scaled(r):
        return 3.7 * np.exp(-np.asarray(r, dtype=float))

    kernel = kernels.directional_kernel(scaled, decay=(3.7, 1.0), tag="scaled")
    base = kernels.kernel_constants(kernels.VON_MISES, 2)
    other = kernels.kernel_constants(kernel, 2)
    assert other.moment_ratio == pytest.approx(base.moment_ratio, rel=1e-9)
    assert other.variance_factor == pytest.approx(base.variance_factor, rel=1e-9)


def test_inadmissible_kernels_rejected():
    with pytest.raises(kernels.InadmissibleKernelError):
        kernels.directional_kernel(lambda r: np.cos(r), decay=(1.0, 1.0))
    with pytest.raises(kernels.InadmissibleKernelError):
        # polynomial tail cannot satisfy an exponential bound
        kernels.directional_kernel(lambda r: 1.0 / (1.0 + r), decay=(1.0, 1.0))
    with pytest.raises(kernels.InadmissibleKernelError):
        kernels.directional_kernel(np.exp, decay=(1.0, -1.0))


def test_normalizing_constant_validates_bandwidth():
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            kernels.normalizing_constant(kernels.VON_MISES, 1, h)
