"""Exact time evolution of the driven qubit and ideal gate construction.

The lab-frame Hamiltonian is

    H(t) = (omega0*sx*cos(omega*t) + omega0*sy*sin(omega*t) + omega1*sz) / 2.

Transforming with R(t) = exp(-i*omega*t*sz/2) removes the time dependence,
leaving the constant generator H_rot = (omega0*sx + (omega1-omega)*sz)/2, so

    U(t) = R(t) * V(t),      V(t) = exp(-i*t*H_rot)
         = R(t) * [cos(Omega*t/2)*I - i*sin(Omega*t/2)*(omega0*sx + (omega1-omega)*sz)/Omega].

At one cycle (t = 2*pi/omega) R = -I and the gate's eigenvectors are the
tilted-axis states [cos(chi/2), sin(chi/2)] and [-sin(chi/2), cos(chi/2)]
with eigenvalues exp(+-i*gamma); no global-phase freedom is left, so evolved
and formula-built gates can be compared entrywise.

The Runge-Kutta and quadrature oracles here exist to cross-check the closed
forms; nothing else depends on them. They integrate in rescaled units
(frequencies divided by omega, one cycle = 2*pi) so that large-magnitude inputs
like omega0 = 1e5 stay well-conditioned.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DriveParams, TwoQubitParams, gate_rows


def _propagator_entries(omega, w0, w1, t):
    """Entries (u00, u01, u10, u11) of U(t) = R(t) V(t); t may be an array."""
    det = w1 - omega
    big = np.hypot(w0, det)
    half_rot = 0.5 * omega * t
    a = 0.5 * big * t
    c, s = np.cos(a), np.sin(a)
    v00 = c - 1j * s * det / big
    v01 = -1j * s * w0 / big
    v11 = c + 1j * s * det / big
    r = np.exp(-1j * half_rot)
    rc = np.conj(r)
    return r * v00, r * v01, rc * v01, rc * v11


def propagator(p: DriveParams, t: float) -> np.ndarray:
    """Evolution operator U(t) from t=0, exact (Rabi formula)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    u00, u01, u10, u11 = _propagator_entries(p.omega, p.omega0, p.omega1, float(t))
    return np.array([[u00, u01], [u10, u11]], dtype=complex)


def one_cycle_gate(p: DriveParams) -> np.ndarray:
    """Gate after one full drive cycle, t = 2*pi/omega.

    Uses R(2*pi/omega) = -I exactly rather than evaluating exp(-i*pi), so
    the result matches ideal_gate_u1(gamma, chi) to machine precision.
    """
    return np.array(gate_rows(p), dtype=complex)


def ideal_gate_u1(gamma: float, chi: float) -> np.ndarray:
    """Gate with cyclic states on the chi-axis and eigenphases +-gamma.

    Diagonal entries exp(+i*gamma)*cos^2(chi/2) + exp(-i*gamma)*sin^2(chi/2)
    and its chi -> pi-chi partner; off-diagonal i*sin(chi)*sin(gamma).
    Unitary for all real (gamma, chi).
    """
    eg = np.exp(1j * gamma)
    emg = np.exp(-1j * gamma)
    c2 = math.cos(chi / 2.0) ** 2
    s2 = math.sin(chi / 2.0) ** 2
    off = 1j * math.sin(chi) * math.sin(gamma)
    return np.array(
        [[eg * c2 + emg * s2, off], [off, eg * s2 + emg * c2]], dtype=complex
    )


def ideal_gate_u2(p2: TwoQubitParams) -> np.ndarray:
    """Conditional 4x4 gate: one-cycle target gate per control state.

    Control in |0> applies the block at omega1 - J, control in |1> the block
    at omega1 + J; both run for the same cycle 2*pi/omega.
    """
    return np.array(gate_rows(p2), dtype=complex)


def _hamiltonian_entries(w0, w1, t):
    """Lab-frame H(t) entries (h00, h01); h10 = conj(h01), h11 = -h00."""
    h00 = 0.5 * w1
    h01 = 0.5 * w0 * (np.cos(t) - 1j * np.sin(t))
    return h00, h01


def ode_oracle(omega, omega0, omega1, t, steps: int) -> np.ndarray:
    """Classic fixed-step RK4 integration of i dU/dt = H(t) U, U(0) = I.

    Fully independent of the closed forms above: integrates the raw
    time-dependent Hamiltonian (in rescaled units) and converges to
    propagator at O(steps^-4). Vectorized over parameter triples:
    the arguments broadcast together, t giving each triple its end time
    (2*pi/omega for one cycle). Returns an array of shape (n, 2, 2).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    omega, omega0, omega1, t = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (omega, omega0, omega1, t)))
    if np.any(t < 0):
        raise ValueError(f"t must be >= 0, got {t.min()}")
    n = omega.shape[0]
    w0, w1 = omega0 / omega, omega1 / omega
    dt = omega * t / steps
    # entries of -i*H(t): a00 = -a11 constant, a01 = ax*exp(-i*t), a10 = ax*exp(i*t)
    a00, ax = -0.5j * w1, -0.5j * w0
    # u holds the entries (u00, u01, u10, u11) as rows; the stage slopes, the
    # stage input and one scratch row pair are work buffers, updated in place
    # in the summation order of the plain RK4 formulas
    u = np.zeros((4, n), dtype=complex)
    u[0] = u[3] = 1.0
    k1, k2, k3, k4, arg, tmp = np.empty((6, 4, n), dtype=complex)
    # the drive phase is evaluated once per distinct step size: one-cycle
    # runs all take 2*pi (up to rounding) in rescaled units
    dts, which = np.unique(dt, return_inverse=True)

    def drive(j):
        """(a01, a10) at the drive phase j*dt/2."""
        rot = np.exp(-0.5j * j * dts)[which]
        return ax * rot, ax * np.conj(rot)

    def rhs(v, a01, a10, out):
        """-i*H*v into out, by row pairs: a00*v[:2] + a01*v[2:], a10*v[:2] - a00*v[2:]."""
        np.add(np.multiply(a00, v[:2], out=out[:2]), np.multiply(a01, v[2:], out=tmp[:2]),
               out=out[:2])
        np.subtract(np.multiply(a10, v[:2], out=out[2:]), np.multiply(a00, v[2:], out=tmp[2:]),
                    out=out[2:])

    def stage(h, slope):
        """u + h*slope, into arg."""
        return np.add(u, np.multiply(h, slope, out=arg), out=arg)

    # the step sizes as complex numbers, as each multiply would cast them
    half, full, sixth = (h.astype(complex) for h in (0.5 * dt, dt, dt / 6.0))
    end = drive(0)
    for s in range(steps):
        start, mid, end = end, drive(2 * s + 1), drive(2 * s + 2)
        rhs(u, *start, k1)
        rhs(stage(half, k1), *mid, k2)
        rhs(stage(half, k2), *mid, k3)
        rhs(stage(full, k3), *end, k4)
        # u + sixth*(k1 + 2*k2 + 2*k3 + k4)
        np.add(k1, np.multiply(2.0, k2, out=arg), out=arg)
        np.add(arg, np.multiply(2.0, k3, out=tmp), out=arg)
        np.add(arg, k4, out=arg)
        np.add(u, np.multiply(sixth, arg, out=arg), out=u)
    return u.T.reshape(n, 2, 2)


def dynamic_phase_oracle(p: DriveParams, steps: int) -> float:
    """Dynamic phase over one cycle by direct quadrature.

    Evaluates -integral of <psi(t)|H(t)|psi(t)> dt along the exact trajectory
    psi(t) = U(t) psi(0) started from the cyclic state
    [cos(chi/2), sin(chi/2)], using composite Simpson on a uniform grid.
    Independent check of the closed-form gamma_d. steps must be even.
    """
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be a positive even number, got {steps}")
    # rescaled units: omega=1, one cycle = 2*pi
    w0 = p.omega0 / p.omega
    w1 = p.omega1 / p.omega
    chi = math.atan2(w0, w1 - 1.0)
    psi0 = np.array([math.cos(chi / 2.0), math.sin(chi / 2.0)], dtype=complex)

    t = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    u00, u01, u10, u11 = _propagator_entries(1.0, w0, w1, t)
    psi_a = u00 * psi0[0] + u01 * psi0[1]
    psi_b = u10 * psi0[0] + u11 * psi0[1]
    h00, h01 = _hamiltonian_entries(w0, w1, t)
    energy = (
        h00 * (np.abs(psi_a) ** 2 - np.abs(psi_b) ** 2)
        + 2.0 * np.real(np.conj(psi_a) * h01 * psi_b)
    )
    f = np.real(energy)
    h = 2.0 * np.pi / steps
    return float(-(h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))
