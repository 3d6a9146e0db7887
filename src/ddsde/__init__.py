"""Simulation and numerical verification for distribution-dependent SDEs."""

from .harnack import (
    CouplingResult,
    coupled_girsanov,
    coupled_pairs_from_measures,
    density_bound_rhs,
    ibp_weights,
    phi,
    power_harnack_constant,
    shift_coupling_verify,
    simulate_coupled,
    verify_ibp,
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
from .sde import LawCurve, NumericalBlowupError, TimeGrid, euler_maruyama
from .solver import (
    PicardReport,
    estimate_contraction,
    evolve_states,
    find_invariant,
    moment_curve,
    picard_chain,
    picard_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel",
    "CouplingResult",
    "EmpiricalMeasure",
    "LawCurve",
    "ModelBounds",
    "NoiseSpec",
    "NumericalBlowupError",
    "PicardReport",
    "TimeGrid",
    "TransportPlan",
    "contraction_exponent_cc",
    "contraction_exponent_tn",
    "coupled_girsanov",
    "coupled_pairs_from_measures",
    "density_bound_rhs",
    "estimate_contraction",
    "euler_maruyama",
    "evolve_states",
    "find_invariant",
    "ibp_weights",
    "landau_model",
    "landau_sigma0",
    "linear_meanfield_model",
    "moment_curve",
    "phi",
    "picard_chain",
    "picard_solve",
    "power_harnack_constant",
    "shift_coupling_verify",
    "simulate_coupled",
    "verify_ibp",
    "verify_log_harnack",
    "wasserstein",
    "xi_schedule",
]
