"""Simulation and numerical verification for distribution-dependent SDEs."""

from .harnack import (
    CouplingConfig,
    CouplingResult,
    coupled_girsanov,
    density_bound_rhs,
    integration_by_parts_check,
    phi,
    power_harnack_constant,
    shift_coupling_verify,
    verify_log_harnack,
    xi_schedule,
)
from .measure import EmpiricalMeasure, TransportPlan, wasserstein
from .models import (
    CoefficientModel,
    ModelBounds,
    contraction_exponent_cc,
    contraction_exponent_tn,
    landau_model,
    landau_sigma0,
    linear_meanfield_model,
)
from .rng import NoiseSpec
from .sde import NumericalBlowupError, PathEnsemble, TimeGrid, euler_maruyama
from .solver import (
    LawCurve,
    PicardReport,
    estimate_contraction,
    find_invariant,
    moment_curve,
    particle_solve,
    picard_chain,
    picard_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel",
    "CouplingConfig",
    "CouplingResult",
    "EmpiricalMeasure",
    "LawCurve",
    "ModelBounds",
    "NoiseSpec",
    "NumericalBlowupError",
    "PathEnsemble",
    "PicardReport",
    "TimeGrid",
    "TransportPlan",
    "contraction_exponent_cc",
    "contraction_exponent_tn",
    "coupled_girsanov",
    "density_bound_rhs",
    "estimate_contraction",
    "euler_maruyama",
    "find_invariant",
    "integration_by_parts_check",
    "landau_model",
    "landau_sigma0",
    "linear_meanfield_model",
    "moment_curve",
    "particle_solve",
    "phi",
    "picard_chain",
    "picard_solve",
    "power_harnack_constant",
    "shift_coupling_verify",
    "verify_log_harnack",
    "wasserstein",
    "xi_schedule",
]
