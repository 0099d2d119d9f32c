"""Hydrodynamics of head-on encounters between model microswimmers.

Two force-free pushers swim straight at each other along their common axis.
Whether they can actually touch turns on the near-contact behavior of the
pair drag: under no-slip surfaces the drag diverges like 1 / gap and the
approach stalls exponentially, while a Navier slip length tames the
divergence to a log and lets the gap close in finite time. This package
computes the exact bipolar series for the mirror-symmetric Stokes flow, the
drag and propulsion coefficients built from it, and the resulting approach
dynamics, with a CLI for tabulation, simulation, sweeps, and self-checks.
"""

__version__ = "0.1.0"

from .drag import (
    BoundaryCondition,
    DragCoefficients,
    Provenance,
    coefficients,
    kappa_pass,
    kappa_prop,
    net_propulsion,
)
from .dynamics import (
    ExponentialBound,
    Mode,
    QuadratureReport,
    SwimmerScenario,
    TerminationKind,
    Trajectory,
    TrajectoryPoint,
    collision_time_quadrature,
    default_h_floor,
    noslip_lower_bound_fit,
    simulate,
)
from .errors import (
    ConfigError,
    DomainError,
    InvalidRegimeError,
    RegionError,
    SingularityError,
    StiffnessError,
    TruncationError,
)
from .geometry import (
    AxisymPoint,
    BipolarFrame,
    BipolarPoint,
    axis_zeta,
    frame_from_gap,
    from_bipolar,
    gegenbauer_minus_half,
    legendre_values,
    tip_height,
    to_bipolar,
)
from .series import (
    SeriesSolution,
    SeriesTruncation,
    axis_velocity,
    mode_profile,
    mode_profile_via_source,
    nonpenetration_report,
    passive_drag,
    propulsion_drag,
    solve_coefficients,
    stream_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
