"""Simulation and verification lab for mean-field jump SDEs.

Dynamics with drift, compensated small jumps, and interlaced big jumps,
where every coefficient may depend on the law of the state.  The package
simulates the decoupled equation against frozen measure flows, finds
fixed-point flows by iteration, runs interacting particle systems, and
measures propagation-of-chaos rates against their predicted exponents.
"""

from .assumptions import AssumptionReport, check_coercivity, check_one_sided_lipschitz
from .chaos import (
    MomentReport,
    PoCConfig,
    RateReport,
    fit_loglog_slope,
    phi_rate,
    run_moment_experiment,
    run_strong_poc,
    run_weak_poc,
)
from .coefficients import (
    CoefficientSet,
    FAMILIES,
    build_cubic_interaction,
    build_frozen,
    build_linear_meanfield,
    register_family,
)
from .common_noise import (
    CommonRealization,
    ConditionalPicardResult,
    TwoLayerNoise,
    conditional_picard,
    run_conditional_poc,
    sample_common_realization,
)
from .errors import ConfigurationError, DivergenceError, IntegrabilityError, NonConvergenceError
from .initial import INITIAL_SAMPLERS, InitialLaw, normal_initial, point_initial, uniform_box_initial
from .measures import EmpiricalMeasure, MeasureFlow, beta_norm, interaction_term, lyapunov_diagnostic
from .noise import (
    AnnulusUniform,
    FixedMark,
    LevyBand,
    LevyModel,
    MARK_SAMPLERS,
    NuEstimate,
    RadialExponential,
    no_noise,
    nu_expectation,
)
from .solver import (
    CoupledResult,
    PathSolution,
    PicardResult,
    SimResult,
    SolverConfig,
    TimeGrid,
    picard_fixed_point,
    simulate_coupled,
    simulate_particle_system,
)
from .streams import Layer, NoiseStream, StreamContext
from .wasserstein import conditional_distance, flow_distance, w_p_1d, w_p_exact, w_p_sliced

__version__ = "0.1.0"
