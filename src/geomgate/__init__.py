"""geomgate: rotating-field qubit gates, continuously tunable from dynamic
to purely geometric, with Monte Carlo fidelity estimation under quasi-static
control-field noise."""

__version__ = "0.1.0"

#: every public name, by the submodule that defines it; the submodule and
#: each name are imported on first access (PEP 562), so importing the
#: package loads no submodule and no numpy
_SUBMODULES = {
    "model": ("DriveParams", "InfeasibleParameters", "PhaseTriple", "TwoQubitParams",
              "big_omega", "chi_angle", "omega_for_beta", "phases", "shifted_target",
              "two_qubit_from_alpha", "two_qubit_geometric_point", "zero_dynamic_omega1"),
    "evolve": ("dynamic_phase_oracle", "ideal_gate_u1", "one_cycle_gate", "propagator"),
    "noise": ("NoiseSpec", "RngStream", "sample_input_state", "sample_two_qubit_input"),
    "fidelity": ("FidelityEstimate", "estimate_single", "estimate_two_qubit", "EstimatorConfig"),
    "sweep": ("SweepPoint", "SweepResult", "sweep_fig1", "sweep_fig2", "sweep_fig3",
              "sweep_fig4", "sweep_generic"),
}
_LAZY = {name: module for module, names in _SUBMODULES.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES) | set(_LAZY))


__all__ = ["__version__", *_LAZY]
