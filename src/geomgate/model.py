"""Control-parameter bookkeeping and the closed forms of the phases and the gate.

A drive point is (omega, omega0, omega1): the rotation rate of the
transverse field, its strength, and the static longitudinal field. For one
drive cycle t in [0, 2*pi/omega] the cyclic states acquire the total phase

    gamma   = -pi * (1 + Omega/omega),          Omega = sqrt(omega0^2 + (omega1-omega)^2)
    gamma_d = -pi * (omega0^2 + omega1*(omega1-omega)) / (omega*Omega)
    gamma_g = -pi * (1 - (omega1-omega)/Omega) = gamma - gamma_d

where gamma_d is the dynamic part (time integral of the energy expectation)
and gamma_g the geometric part (half the swept solid angle). The gate is
purely geometric when gamma_d = 0.

All frequencies are unitless reals; only ratios matter.

The value types here and in noise, fidelity and sweep (all but EstimatorConfig)
are namedtuples, checked in __new__ (which unpickling and _replace call too);
their equality is tuple equality: DriveParams(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0).
"""

from __future__ import annotations

import math
from collections import namedtuple

#: the option vocabularies and the scan presets' names, here for the numpy-free CLI parser
GATE_MODELS = ("phase", "propagator")
CONTROL_MODES = ("fixed0", "fixed1", "unfixed")
BRANCHES = ("plus", "minus")
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")


class InfeasibleParameters(ValueError):
    """Requested parameter point violates a reality/domain constraint."""


def _check_fields(**fields):
    """Raise InfeasibleParameters for a field outside DriveParams' range."""
    for name, value in fields.items():
        if name == "omega1":
            if not abs(value) <= 1e100:
                raise InfeasibleParameters(f"omega1 must lie in [-1e100, 1e100], got {value}")
        elif not 1e-100 <= value <= 1e100:
            raise InfeasibleParameters(f"{name} must lie in [1e-100, 1e100], got {value}")


class DriveParams(namedtuple("DriveParams", "omega omega0 omega1")):
    """Single-qubit drive point.

    omega:  rotation rate of the transverse field, in [1e-100, 1e100]
    omega0: transverse field strength, in [1e-100, 1e100]
    omega1: longitudinal field strength, in [-1e100, 1e100]; in this range the
            squares of the fields and their sums, noisy ones included, are normal doubles
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, omega: float, omega0: float, omega1: float):
        _check_fields(omega=omega, omega0=omega0, omega1=omega1)
        return super().__new__(cls, omega, omega0, omega1)


class PhaseTriple(namedtuple("PhaseTriple", "gamma gamma_g gamma_d")):
    """Total, geometric and dynamic phase for one cycle, in radians."""

    __slots__ = ()


class TwoQubitParams(namedtuple("TwoQubitParams", "target coupling_j alpha")):
    """Target-qubit drive plus Ising coupling.

    The control qubit conditions the target's longitudinal frequency:
    control state d in {0, 1} shifts omega1 -> omega1 + (2*d - 1)*coupling_j.
    `alpha` records the generator J = alpha*omega0 when the point was built
    from one; it is bookkeeping only. Both blocks' fields must be in range.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, target: DriveParams, coupling_j: float, alpha: float | None = None):
        self = super().__new__(cls, target, coupling_j, alpha)
        blocks(self)
        return self


def big_omega(p: DriveParams) -> float:
    """Effective precession rate Omega = sqrt(omega0^2 + (omega1-omega)^2)."""
    return math.hypot(p.omega0, p.omega1 - p.omega)


def chi_angle(p: DriveParams) -> float:
    """Angle of the rotating-frame field axis from +z, in (0, pi).

    Computed as atan2(omega0, omega1-omega) so the omega1 < omega half-plane
    lands in (pi/2, pi); a single-argument arctan would be sign-ambiguous.
    """
    return math.atan2(p.omega0, p.omega1 - p.omega)


def phases(p: DriveParams) -> PhaseTriple:
    """Total/geometric/dynamic phase acquired over one drive cycle."""
    om = big_omega(p)
    gamma = -math.pi * (1.0 + om / p.omega)
    gamma_g = -math.pi * (1.0 - (p.omega1 - p.omega) / om)
    gamma_d = -math.pi * (p.omega0**2 + p.omega1 * (p.omega1 - p.omega)) / (p.omega * om)
    return PhaseTriple(gamma=gamma, gamma_g=gamma_g, gamma_d=gamma_d)


def cycle_entries(p: DriveParams) -> tuple[complex, complex, complex]:
    """One-cycle gate entries (u00, u01, u11), u10 == u01, of the gate
    -cos(a)*I + i*sin(a)*(omega0*sx + (omega1-omega)*sz)/Omega, a = pi*Omega/omega."""
    big = big_omega(p)
    a = math.pi * big / p.omega
    c, s = math.cos(a), math.sin(a)
    nz, nx = (p.omega1 - p.omega) / big, p.omega0 / big
    return -c + 1j * s * nz, 1j * s * nx, -c - 1j * s * nz


def gate_rows(p: DriveParams | TwoQubitParams) -> list:
    """Rows of the one-cycle gate: 2x2 at a drive point; block diagonal 4x4 in
    the basis |00>, |01>, |10>, |11> for a conditional gate, control first."""
    if isinstance(p, DriveParams):
        a, b, c = cycle_entries(p)
        return [[a, b], [b, c]]
    (a, b, c), (d, e, f) = (cycle_entries(blk) for blk in blocks(p))
    return [[a, b, 0j, 0j], [b, c, 0j, 0j], [0j, 0j, d, e], [0j, 0j, e, f]]


def _eta(beta: float) -> float:
    return 2.0 * beta - beta * beta


def omega_for_beta(omega0: float, omega1: float, beta: float, branch: str = "minus") -> float:
    """Drive rate omega that fixes the total phase to -beta*pi.

    Solves eta*omega^2 - 2*omega1*omega + (omega0^2 + omega1^2) = 0 with
    eta = 2*beta - beta^2, i.e. omega = (omega1 +- sqrt(D))/eta with
    discriminant D = omega1^2 - eta*(omega0^2 + omega1^2). The minus branch
    is the default. Reality of omega requires eta*omega0^2 <= (1-eta)*omega1^2.

    For beta in (1, 2) the resulting total phase is exactly -beta*pi; for
    beta in (0, 1) the same eta is reached from the mirror exponent and the
    attained phase is -(2-beta)*pi (gamma <= -pi always holds). The fields
    are checked first: out of range, their squares overflow or underflow.
    """
    _check_fields(omega0=omega0, omega1=omega1)
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    eta = _eta(beta)
    if not 0.0 < eta <= 1.0:
        raise InfeasibleParameters(f"beta={beta} gives eta={eta}, need 0 < eta <= 1")
    s = omega0 * omega0 + omega1 * omega1
    disc = omega1 * omega1 - eta * s
    # Zero-dynamic points sit exactly on the double root disc == 0, where a
    # few ulps of rounding residue would otherwise be amplified by the sqrt
    # (sqrt(eps) ~ 1e-8). Snap a narrow window around 0 to the root; points
    # farther than ~1e-11 relative from the line are untouched.
    if abs(disc) <= 4e-14 * eta * s:
        disc = 0.0
    elif disc < 0.0:
        raise InfeasibleParameters(
            "reality constraint eta*omega0^2 <= (1-eta)*omega1^2 violated "
            f"(omega0={omega0}, omega1={omega1}, beta={beta})"
        )
    root = math.sqrt(disc)
    omega = (omega1 + root) / eta if branch == "plus" else (omega1 - root) / eta
    if omega <= 0.0:
        raise InfeasibleParameters(f"solved omega={omega} is not positive")
    return omega


def zero_dynamic_omega1(omega0: float, beta: float) -> float:
    """Longitudinal frequency making the dynamic phase vanish at total phase -beta*pi.

    omega1 = omega0 * sqrt(eta/(1-eta)); requires 0 < eta < 1 (beta != 1).
    """
    eta = _eta(beta)
    if not 0.0 < eta < 1.0:
        raise InfeasibleParameters(f"beta={beta} gives eta={eta}, need 0 < eta < 1")
    return omega0 * math.sqrt(eta / (1.0 - eta))


def shifted_target(p2: TwoQubitParams, delta: int) -> DriveParams:
    """Target drive conditioned on the control state delta in {0, 1}."""
    if delta not in (0, 1):
        raise ValueError(f"delta must be 0 or 1, got {delta}")
    t = p2.target
    return DriveParams(
        omega=t.omega,
        omega0=t.omega0,
        omega1=t.omega1 + (2 * delta - 1) * p2.coupling_j,
    )


def blocks(p: DriveParams | TwoQubitParams) -> tuple[DriveParams, ...]:
    """The gate's 2x2 blocks in control order: (p,) for a drive point; the
    target at control 0 and at control 1 (shifted_target) for a conditional gate."""
    if isinstance(p, DriveParams):
        return (p,)
    return shifted_target(p, 0), shifted_target(p, 1)


def two_qubit_from_alpha(omega0: float, omega1: float, alpha: float) -> TwoQubitParams:
    """Two-qubit point from the one-parameter family J = alpha*omega0,
    omega = omega1 + sqrt(1+alpha^2)*omega0."""
    if not alpha > 0:
        raise InfeasibleParameters(f"alpha must be positive, got {alpha}")
    s = math.sqrt(1.0 + alpha * alpha)
    target = DriveParams(omega=omega1 + s * omega0, omega0=omega0, omega1=omega1)
    return TwoQubitParams(target=target, coupling_j=alpha * omega0, alpha=alpha)


def two_qubit_geometric_point(omega0: float, alpha: float) -> TwoQubitParams:
    """Two-qubit point where both conditional dynamic phases vanish.

    Sets omega1 = sqrt(1+alpha^2)*omega0, so omega = 2*omega1 and
    omega1^2 = omega0^2 + J^2 hold, making gamma_d zero for both control
    states.
    """
    return two_qubit_from_alpha(omega0, math.sqrt(1.0 + alpha * alpha) * omega0, alpha)
