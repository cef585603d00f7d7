"""Horospherical sigma-model toolkit: exterior algebra, graph measures,
scaling symmetries, and statistical verification checks."""

from .core import (
    EstimationError,
    FieldConfig,
    InversionError,
    build_A,
    compute_beta,
    compute_theta,
    h_beta,
    log_rho_density,
    rho_density,
    s_from_beta_theta,
    spinor_det_sides,
    u_from_beta,
)
from .grassmann import (
    AlgebraMismatchError,
    DomainError,
    GeneratorSet,
    GrassmannElement,
    GroupElement,
    ParityError,
    SuperMatrix,
    berezin,
    berezin_pairs,
    even_det,
    even_matrix_inverse,
    sdet,
)
from .graphs import Graph, GraphError, GraphTower, extend_alpha, line_tower, single_edge, triangle, wired_subgraph
from .quadrature import (
    cartesian_expect_quadrature_1v,
    expect_quadrature_1v,
    super_expect_quadrature_1v,
    zeta_integral_1v,
)
from .sampler import (
    ChainConfig,
    Estimate,
    expect,
    expect_importance,
    fermion_weight,
    grassmann_reduce,
    psi_algebra,
    psi_vectors,
    sample_s_given_u,
    sample_u,
    super_expect,
)
from .scaling import (
    ScaleParams,
    laplace_closed_form,
    radon_nikodym,
    rescale_weights,
    scale_fields,
    theta_conditional_covariance,
    tilt,
)
from .supersym import bold_rho, compute_phi, super_jacobian, super_scale_pullback
from .verify import CheckSpec, Report, UnknownCheckError, default_specs, list_check_ids, run_check, run_suite

__version__ = "0.1.0"
