"""llglab: a spectral laboratory for sphere-valued spin-field dynamics.

The damped spin flow d_t m = -m x lap(m) - lam m x (m x lap(m)) on periodic
tori is solved two ways: directly by projected Runge-Kutta on the spectral
right-hand side, and through the moving-frame reduction to a covariant
complex Ginzburg-Landau system handled by Duhamel/Picard iteration.  Ball
norm estimators, semigroup decay checks, and structural-identity residuals
verify the analytic scaffolding numerically at desk scale.
"""

from .fields import (
    Grid,
    SpinField,
    Trajectory,
    Workspace,
    derivative,
    divergence,
    gradient,
    l2_norm,
    laplacian,
    load_snapshot,
    make_grid,
    pointwise_magnitude,
    save_snapshot,
    sup_norm,
)
from .morrey import (
    BallLattice,
    MorreyReport,
    XptReport,
    ball_lattice,
    morrey_norm,
    xpt_norm,
)
from .semigroup import (
    DecayReport,
    SemigroupParams,
    apply_grad_semigroup,
    apply_semigroup,
    default_decay_times,
    verify_decay,
    verify_decays,
)
from .frames import (
    GaugeState,
    IdentityResiduals,
    PoleProximity,
    TangentFrame,
    build_frame,
    check_identities,
    coulomb_gauge_fix,
    derive_gauge,
    gauge_fields_from_u,
    gauge_transform,
)
from .cgl import (
    CglConfig,
    NonContraction,
    exponent_window_check,
    fixed_point_residual,
    nonlinearity_F,
    picard_iterate,
    stability_experiment,
)
from .llg import (
    BlowupSuspected,
    EnergyLedger,
    LlgConfig,
    check_energy_inequality,
    check_equivalent_form,
    llg_rhs,
    solve,
    stability_cap,
)
from .initial_data import (
    InitialDataSpec,
    MollificationTooWeak,
    generate_initial_data,
    mollify_and_project,
    rough_raw_field,
    spectral_bump,
)
from .experiments import (
    cross_validate,
    cross_validate_refinement,
    decay_report,
    mild_initial_data,
    uniqueness_experiment,
)
from .config import ConfigError, LabConfig, parse_config
from .runner import run_config, run_experiment

__version__ = "0.1.0"
