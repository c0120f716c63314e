"""Numerical laboratory for Schrodinger dynamics with repulsive potentials:
exact quadratic (Mehler) propagation, split-step spectral evolution, classical
flows, Cook-method scattering diagnostics, asymptotic-velocity observables,
and symbol-level positive-commutator scans."""

from .classical import (
    PhasePoint,
    Trajectory,
    escape_exponent,
    flow,
    log_growth_rate,
    quadratic_closed_form,
    zero_energy_start,
)
from .errors import (
    ConfigurationError,
    DomainEscapeError,
    NoEscapeError,
    NumericalStateError,
    OracleScaleError,
    PhaseWindingError,
    RepscatError,
    SingularTimeError,
)
from .grids import (
    Grid,
    WaveFunction,
    boundary_mass_fraction,
    expectation,
    gaussian,
    inner,
    l2_distance,
    l2_norm,
    make_grid,
    random_state,
    to_momentum,
    to_position,
    transform,
)
from .mehler import (
    TrajectoryFactors,
    avron_herbst,
    chirped_spectrum,
    propagate_factored,
    propagate_kernel,
    trajectory_factors,
)
from .phasespace import (
    a2_bracket_closed_form,
    mourre_shell_scan,
    poisson_bracket,
    symbol_accel_alpha,
)
from .potentials import (
    QuadraticSpec,
    RepulsiveSpec,
    eval_quadratic,
    p_alpha,
    sigma_alpha,
)
from .scattering import (
    CookRecord,
    VelocityTrace,
    cook_scan,
    minimal_maximal_velocity_mass,
    velocity_trace,
    wave_operator,
)
from .splitstep import (
    EvolutionConfig,
    convergence_order,
    dense_oracle,
    evolution_config,
    propagate,
    strang_step,
    suggest_grid,
)

__version__ = "0.1.0"
