"""Constant-speed wavefronts of a delayed optimal-velocity car-following model.

The scalar profile equation ``z''(t) = h^2 V(z(t-1) - z(t)) + h z'(t)``
generates car trajectories ``x_j(t) = z(-t/h - j)``.  This package finds
the constant-speed profiles, continues their two existence branches over
the parameter ``h``, classifies their linearized stability against the
delay stability chart, locates oscillatory (Hopf-type) boundary crossings,
simulates the delayed equation and finite car chains, and reproduces the
reference experiments from the command line (``ovwave --help``).
"""

from .errors import (
    BracketError,
    ConfigError,
    ConsistencyError,
    DomainError,
    NumericalError,
    OvwaveError,
    ParameterError,
    RootFinderError,
    SingularityError,
    StepSizeError,
)
from .ovf import AxiomViolation, OvfSpec, make_vq, ovf_axiom_check
from .solver import (
    AffineTrajectory,
    Segment,
    SolverStats,
    Trajectory,
    gronwall_report,
    integrate,
    rhs,
    solution_offset_invariance_check,
    trajectory_to_csv,
)
from .waves import (
    BRANCH1,
    BRANCH2,
    DEGENERATE,
    CriticalPair,
    WavefrontPoint,
    branch_derivative,
    branch_eval,
    critical_pair,
    find_constant_speeds,
)
from .stability import (
    BOUNDARY_C1,
    BOUNDARY_OTHER,
    INSIDE_S,
    MARGINAL_HOPF,
    OUTSIDE_S,
    STABLE,
    UNDETERMINED,
    UNSTABLE,
    StabilityParams,
    StabilityVerdict,
    c1_boundary_beta,
    c1_curve,
    char_deriv,
    char_eval,
    classify_wavefront,
    hopf_crossing,
    region_classify,
    rightmost_roots,
    stability_params,
)
from .lattice import (
    LatticeRun,
    ansatz_residual,
    lattice_to_csv,
    leader_from_trajectory,
    simulate_followers,
    wavefront_to_lattice,
)
from .config import ExperimentConfig

__version__ = "0.1.0"
