"""Coupling simulators and explicit log-Sobolev machinery for diffusions
whose invariant measure has no explicit density."""

from .models import (
    EllipticModel,
    KineticModel,
    CompetitionKernel,
    DerivedEllipticFields,
    derive_elliptic_fields,
    make_competition_drift,
    normalize_kinetic,
    probe_one_sided_condition,
    make_scenario,
    SCENARIOS,
)
from .metric import MetricParams, MetricTable, metric_constants, build_metric, rho_star, g_quadratic
from .constants import (
    ConstantsReport,
    harnack_factor,
    hypercontractivity_t0,
    hypercontractivity_bound,
    interpolate_norm,
    lyapunov_bound,
    defective_lsi_constants,
    poincare_constant,
    sup_inner_drift,
    lsi_constant,
    perturbation_bound_elliptic,
    kinetic_value_lip_bound,
    constants_report,
)
from .simulate import (
    SimConfig,
    Trajectory,
    PairTrajectory,
    SimulationBlowUp,
    em_path,
    synchronous_pair,
    reflection_pair,
    harnack_pair,
    kinetic_coupled_pair,
    derive_seed,
)

__version__ = "0.1.0"
