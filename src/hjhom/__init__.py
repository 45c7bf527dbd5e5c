"""Periodic Hamilton-Jacobi homogenization laboratory.

Pipeline: Hamiltonian -> Lagrangian (its closed-form Legendre dual) -> lattice
metric problem -> homogenized metric / effective Hamiltonian -> oscillatory
and effective solvers -> convergence-rate measurements and structural
property checks.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    HJHomError,
    ResolutionError,
    UnreachableError,
)
from .hamiltonian import (
    CosinePotential,
    HamiltonianSpec,
    cosine_spec,
    evaluate_hamiltonian,
    normalize,
)
from .legendre import ConvexFunctionTable, LagrangianField, build_lagrangian, conjugate
from .metric import (
    Cone,
    DiscretePath,
    MetricTable,
    compute_metric_table,
    default_speed_cap,
    extract_minimizing_path,
    metric_point,
)
from .effective import (
    EffectiveModel,
    build_effective_model,
    cell_problem_oracle,
    effective_hamiltonian_quadrature_1d,
    effective_metric,
    flat_piece_radius_1d,
)
from .solver import (
    InitialData,
    SolutionField,
    affine_data,
    bump_data,
    cone_data,
    solve_effective,
    solve_fd_oracle,
    solve_oscillatory,
    zero_data,
)
from .properties import (
    ApproximateGeodesic,
    check_linear_growth,
    check_subadditivity,
    extract_approximate_geodesic,
    gap_vs_log_envelope,
)
from .surgery import (
    SpaceTimePath2D,
    find_crossing,
    path_surgery,
)
from .rates import RateReport, fit_rate
from .config import Config, ConfigError, parse_config, parse_config_text, spec_from_config

__version__ = "0.1.0"
