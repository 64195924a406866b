"""Forward-jumping particles attracted to their center of mass.

Exact event-driven simulation of the n-particle process, closed-form and
numerical stationary laws for the two-particle gap, traveling-wave solutions
of the mean-field equation with their speeds, a record-process extreme-value
oracle, empirical-measure diagnostics, and a seeded experiment harness.
"""

from .model import (
    ArccotRate,
    CustomDensityJump,
    DeterministicJump,
    ExponentialJump,
    ExponentialRate,
    PiecewiseLinearRate,
    StepRate,
    SystemState,
    TabulatedRate,
    initial_state,
)
from .sim import (
    CoupledResult,
    EventLog,
    SimulationResult,
    simulate,
    simulate_coupled,
)
from .two_particle import (
    GapChain,
    GapDensity,
    boundary_limit_check,
    gap_chain,
    gap_rates,
    gap_stationary_pmf,
    gap_stationary_via_generator,
    master_residual,
)
from .mean_field import (
    DensityField,
    WaveProfile,
    digamma,
    gumbel_wave_cdf,
    gumbel_wave_pdf,
    laplace_wave_cdf,
    laplace_wave_pdf,
    mean_speed_arrays,
    pde_integrate,
    pde_step,
    profile_mean,
    wave_equation_residual,
    wave_profile,
    wave_speed,
)
from .extremes import (
    RecordPath,
    RecordPool,
    generalized_gumbel_cdf,
    generalized_gumbel_pdf,
    new_pool,
    pool_size,
    simulate_record,
)
from .measures import (
    Histogram,
    IDENTITY,
    TestFunction,
    build_histogram,
    ks_distance,
    residual_path,
    residual_scaling,
    wasserstein1,
)
from .harness import (
    ExperimentConfig,
    fit_speed,
    load_config,
    preset_config,
    run_scenario,
    save_config,
)

__version__ = "0.1.0"
