"""Nonparametric regression with spherical predictors and a calibrated
goodness-of-fit test for parametric regression models."""

from .density import (
    DensityModel,
    density_eval,
    density_sample,
    mixture_model,
    named_model,
    uniform_model,
    vmf_model,
)
from .goftest import (
    GofConfig,
    GofResult,
    asymptotic_center_scale,
    bootstrap_test,
    default_quadrature,
    golden_section_draws,
    statistic,
)
from .kernels import (
    VON_MISES,
    DirectionalKernel,
    KernelConstants,
    directional_kernel,
    gof_asymptotic_variance,
    kernel_constants,
    normalizing_constant,
    von_mises_normalizing_constant,
)
from .locreg import (
    LocalFit,
    LocalFitConfig,
    SingularGramError,
    estimate,
    local_weights,
    weight_rows,
)
from .parfit import (
    ParametricFamily,
    ThetaEstimate,
    constant_family,
    constrained_linear_family,
    custom_family,
    damped_sine_family,
    fit,
    linear_family,
    predict_batch,
    trig_family,
)
from .simsuite import (
    Scenario,
    TraceResult,
    deviation_one,
    deviation_two,
    generate,
    local_alternative_scale,
    make_scenario,
    qq_experiment,
    significance_trace,
)
from .sphere import (
    ProjectionBasis,
    SphereQuadrature,
    build_quadrature,
    projection_basis,
    sample_uniform,
    surface_area,
    unit_rows,
    unit_vector,
)

__version__ = "0.1.0"
