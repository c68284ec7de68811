"""Numerical toolkit for powers of Green kernels.

Continuum free-space and planar disk kernels with Hadamard power and
exponential transforms, lattice Green functions of the simple random
walk, killed Green matrices and potential-matrix tests, grid-discretized
Green operators with a complete-maximum-principle functional, and Monte
Carlo estimators for exit laws, stable subordinators, and occupation
integrals.
"""

from .domains import (
    Ball,
    Box,
    CubicSet,
    GridSpec,
    Intersection,
    cubic_open_set,
    domain_from_json,
    exterior_grid,
    grid_points,
    interior_grid,
    round_to_grid,
)
from .kernels import (
    KernelSpec,
    QuadratureError,
    RieszParams,
    ball_kernel_integral,
    disk_green_2d,
    free_green,
    green_constant,
    kernel_eval,
    riesz_params,
    volume_bound,
)
from .lattice import (
    POTENTIAL_KERNEL_CONSTANT,
    AsymmetricSolveError,
    KilledGreenMatrix,
    LatticeSet,
    exit_distribution,
    killed_green_entries,
    killed_green_matrix,
    killed_green_via_kernel,
    potential_kernel_2d,
    whole_space_green,
)
from .mc import (
    McEstimate,
    RieszEstimate,
    RngStream,
    StepBudgetError,
    estimate_boundary_term,
    estimate_riesz_potential,
    sample_half_stable,
    sample_stable_increment,
)
from .operators import (
    BallIndicator,
    ConvergenceReport,
    DiscreteOperator,
    ResourceLimitError,
    apply_operator,
    assemble,
    cmp_functional,
    converge,
)
from .potential import (
    PotentialReport,
    classify,
    cmp_inequality,
    hadamard_exp,
    hadamard_power,
    is_inverse_m_matrix,
    random_potential,
    sample_cmp,
)

__version__ = "0.1.0"
