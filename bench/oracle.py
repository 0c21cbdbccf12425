"""Independent reference values for the benchmark's correctness checks.

Nothing here imports geomgate. The closed forms are written out again from
the paper's formulas, the one-cycle gate comes from a spectral matrix
exponential of the rotating-frame generator

    H_rot = (omega0*sx + (omega1 - omega)*sz) / 2,   U(T) = R(T) exp(-i T H_rot),

with T = 2*pi/omega and R(T) = -I, and the average gate fidelity comes from
deterministic quadrature instead of sampling:

* the relative noise deviation u ~ U[-1, 1] (one draw shared by both
  field channels) by Gauss-Legendre with U_NODES nodes;
* the target's polar angle theta ~ U[0, pi] by Gauss-Legendre with
  THETA_NODES nodes, both orthogonal state forms summed with weight 1/2;
* the azimuth phi exactly: the amplitude <psi|W|psi> is a + b e^{i phi} +
  d e^{-i phi}, so its mean square over phi is |a|^2 + |b|^2 + |d|^2;
* for an unfixed control, its polar angle by Gauss-Legendre as well, both
  forms; the control only weights the two blocks by |c0|^2 and
  |c1|^2 = 1 - |c0|^2, so its azimuth drops out.

Besides the mean fidelity F the oracle gives the two variances that fix the
estimator's exact standard error (standard_error), so a check can use a
tolerance that does not depend on the sampled stderr.

Noise conventions, as documented by the package: under the "phase" gate
model a block keeps its nominal cyclic axis and takes the eigenphases of
the gate at the fluctuated fields, with the relative deviation scaling the
block's whole longitudinal frequency omega1 -+ J; under "propagator" the
noisy block is the exact one-cycle gate at omega0*(1+d0*u) and
omega1*(1+d1*u) -+ J.
"""

from __future__ import annotations

import math

import numpy as np

U_NODES = 48
THETA_NODES = 16


def gauss_legendre(count: int, lo: float, hi: float):
    """Nodes and weights of a Gauss-Legendre rule for the mean over [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(count)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * w


# ---------------------------------------------------------------------------
# closed forms, recomputed


def total_phase(omega, omega0, omega1):
    return -math.pi * (1.0 + math.hypot(omega0, omega1 - omega) / omega)


def dynamic_phase(omega, omega0, omega1):
    big = math.hypot(omega0, omega1 - omega)
    return -math.pi * (omega0**2 + omega1 * (omega1 - omega)) / (omega * big)


def chi(omega, omega0, omega1):
    return math.atan2(omega0, omega1 - omega)


def single_point(omega0: float, delta_rel: float, beta: float):
    """(omega, omega1) on the fixed-total-phase family, or None if infeasible.

    omega1 = omega0*sqrt(eta/(1-eta)) + Delta with eta = 2*beta - beta^2,
    omega the minus root of eta*w^2 - 2*omega1*w + omega0^2 + omega1^2 = 0.
    Delta = 0 is the double root.
    """
    eta = 2.0 * beta - beta * beta
    omega1 = omega0 * math.sqrt(eta / (1.0 - eta)) + delta_rel * omega0
    if delta_rel == 0.0:
        return omega1 / eta, omega1
    disc = omega1 * omega1 - eta * (omega0 * omega0 + omega1 * omega1)
    if disc < 0.0:
        return None
    return (omega1 - math.sqrt(disc)) / eta, omega1


def two_qubit_point(omega0: float, omega1: float, alpha: float):
    """(omega, J) of the family J = alpha*omega0, omega = omega1 + sqrt(1+alpha^2)*omega0."""
    return omega1 + math.sqrt(1.0 + alpha * alpha) * omega0, alpha * omega0


# ---------------------------------------------------------------------------
# gates


def _spectrum(omega, w0, wl):
    """Eigen-decomposition of H_rot/omega, stacked over broadcast inputs."""
    w0, wl = np.broadcast_arrays(np.asarray(w0, float), np.asarray(wl, float))
    h = np.zeros(w0.shape + (2, 2), dtype=complex)
    det = 0.5 * (wl / omega - 1.0)
    h[..., 0, 0] = det
    h[..., 1, 1] = -det
    h[..., 0, 1] = h[..., 1, 0] = 0.5 * w0 / omega
    return np.linalg.eigh(h)


def _cycle_from(lam, vecs):
    """-exp(-2*pi*i*H) from eigenvalues lam and eigenvectors vecs of H = H_rot/omega."""
    phase = -np.exp(-2j * np.pi * lam)
    return (vecs * phase[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def one_cycle_gate(omega, w0, wl):
    """Gate after one drive cycle, shape (..., 2, 2)."""
    return _cycle_from(*_spectrum(omega, w0, wl))


def _block_error(omega, omega0, wl, u, spec, model, shift):
    """W(u) = U_ideal^dag U_noisy for one block, shape (len(u), 2, 2).

    wl is the physical longitudinal frequency, shift the conditional offset
    (-J, +J or 0).
    """
    d0, d1 = spec
    lam, vecs = _spectrum(omega, omega0, wl + shift)
    ideal = _cycle_from(lam, vecs)
    w0 = omega0 * (1.0 + d0 * u)
    if model == "propagator":
        noisy = one_cycle_gate(omega, w0, wl * (1.0 + d1 * u) + shift)
    else:
        lam_u, _ = _spectrum(omega, w0, (wl + shift) * (1.0 + d1 * u))
        noisy = _cycle_from(lam_u, vecs)
    return np.conj(np.swapaxes(ideal, -1, -2)) @ noisy


def _state_terms(w):
    """Per (u, theta, form): the phi-Fourier coefficients (a, b, d) of <psi|W|psi>."""
    theta, _ = gauss_legendre(THETA_NODES, 0.0, math.pi)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    # both forms: [c e^{-i phi/2}, s e^{i phi/2}] and [-s e^{-i phi/2}, c e^{i phi/2}]
    x = np.stack([c, s], axis=-1)
    y = np.stack([s, c], axis=-1)
    w = w[:, None, None, None]
    return (x[..., None] ** 2 * w[..., 0, 0] + y[..., None] ** 2 * w[..., 1, 1],
            (x * y)[..., None] * w[..., 0, 1], (x * y)[..., None] * w[..., 1, 0])


def _control_nodes():
    """Block weight p0 = |c0|^2 and quadrature weight per control node (both forms)."""
    theta, wt = gauss_legendre(THETA_NODES, 0.0, math.pi)
    p0 = np.concatenate([np.cos(0.5 * theta) ** 2, np.sin(0.5 * theta) ** 2])
    return p0, np.concatenate([wt, wt]) * 0.5


def _reference(terms, control_weights) -> tuple:
    """(F, Var_state g, E_state Var_u f) for the shot fidelity f = |<psi|W|psi>|^2.

    terms are (a, b, d) with axes (u, theta, form, control node); g is the
    per-state mean over u. With <psi|W|psi> = a + b e^{i phi} + d e^{-i phi}
    the loss 1 - f has phi-Fourier coefficients l0 = 1 - |a|^2 - |b|^2 -
    |d|^2 and, up to sign, l1 = a conj(d) + b conj(a) and l2 = b conj(d) at
    frequencies 1 and 2, so the phi-means of the loss and of its square are
    l0 and l0^2 + 2|l1|^2 + 2|l2|^2. The loss is carried instead of f so
    that variances near F = 1 do not cancel.
    """
    a, b, d = terms
    l0 = 1.0 - (abs(a) ** 2 + abs(b) ** 2 + abs(d) ** 2)
    l1 = a * np.conj(d) + b * np.conj(a)
    l2 = b * np.conj(d)
    _, wu = gauss_legendre(U_NODES, -1.0, 1.0)
    _, wt = gauss_legendre(THETA_NODES, 0.0, math.pi)
    state_w = np.einsum("t,f,c->tfc", wt, np.full(2, 0.5), control_weights)

    def over_u(x):
        return np.einsum("u,utfc->tfc", wu, x)

    loss = float(np.sum(state_w * over_u(l0)))
    loss_sq = float(np.sum(state_w * over_u(l0 * l0 + 2 * abs(l1) ** 2 + 2 * abs(l2) ** 2)))
    g0, g1, g2 = over_u(l0), over_u(l1), over_u(l2)
    mean_sq = float(np.sum(state_w * (g0 * g0 + 2 * abs(g1) ** 2 + 2 * abs(g2) ** 2)))
    return 1.0 - loss, mean_sq - loss * loss, loss_sq - mean_sq


def exact_single(omega, omega0, omega1, spec, model="phase") -> tuple:
    """(F, Var_state, E Var_shot) of the single-qubit gate under lock-step noise."""
    u, _ = gauss_legendre(U_NODES, -1.0, 1.0)
    terms = _state_terms(_block_error(omega, omega0, omega1, u, spec, model, 0.0))
    return _reference(terms, np.ones(1))


def exact_two_qubit(omega, omega0, omega1, coupling, spec, model="phase",
                    control="fixed0") -> tuple:
    """(F, Var_state, E Var_shot) of the conditional gate, control fixed0 or unfixed."""
    u, _ = gauss_legendre(U_NODES, -1.0, 1.0)
    low = _state_terms(_block_error(omega, omega0, omega1, u, spec, model, -coupling))
    if control == "fixed0":
        return _reference(low, np.ones(1))
    if control != "unfixed":
        raise ValueError(f"unsupported control mode {control!r}")
    high = _state_terms(_block_error(omega, omega0, omega1, u, spec, model, coupling))
    p0, weights = _control_nodes()
    mixed = tuple(p0 * lo + (1.0 - p0) * hi for lo, hi in zip(low, high))
    return _reference(mixed, weights)


def standard_error(reference: tuple, m: int, n: int) -> float:
    """Exact standard error of the two-level estimator's grand mean.

    A state's mean over m shots has variance Var_state g + E Var_shot f / m;
    the grand mean averages n independent states.
    """
    _, var_state, var_shot = reference
    return math.sqrt(max(var_state + var_shot / m, 0.0) / n)
