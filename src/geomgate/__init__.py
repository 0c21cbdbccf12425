"""geomgate: rotating-field qubit gates, continuously tunable from dynamic
to purely geometric, with Monte Carlo fidelity estimation under quasi-static
control-field noise."""

__version__ = "0.1.0"

from .model import (
    DriveParams,
    InfeasibleParameters,
    PhaseTriple,
    TwoQubitParams,
    big_omega,
    chi_angle,
    omega_for_beta,
    phases,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from .evolve import (
    dynamic_phase_oracle,
    ideal_gate_u1,
    ideal_gate_u2,
    one_cycle_gate,
    propagator,
)
from .noise import NoiseSpec, RngStream, sample_input_state, sample_two_qubit_input
from .fidelity import FidelityEstimate, estimate_single, estimate_two_qubit
from .sweep import (
    EstimatorConfig,
    SweepPoint,
    SweepResult,
    sweep_fig1,
    sweep_fig2,
    sweep_fig3,
    sweep_fig4,
    sweep_generic,
)

__all__ = [
    "__version__",
    "DriveParams", "InfeasibleParameters", "PhaseTriple", "TwoQubitParams",
    "big_omega", "chi_angle", "omega_for_beta", "phases", "shifted_target",
    "two_qubit_from_alpha", "two_qubit_geometric_point", "zero_dynamic_omega1",
    "dynamic_phase_oracle", "ideal_gate_u1", "ideal_gate_u2",
    "one_cycle_gate", "propagator",
    "NoiseSpec", "RngStream", "sample_input_state", "sample_two_qubit_input",
    "FidelityEstimate", "estimate_single", "estimate_two_qubit",
    "EstimatorConfig", "SweepPoint", "SweepResult",
    "sweep_fig1", "sweep_fig2", "sweep_fig3", "sweep_fig4", "sweep_generic",
]
