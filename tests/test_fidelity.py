"""Estimator checks: exactness, draw-layout reconstruction, quadrature oracle,
golden regressions, and stderr scaling."""

import math

import numpy as np
import pytest

from geomgate import fidelity
from geomgate.evolve import ideal_gate_u1, one_cycle_gate
from geomgate.fidelity import estimate_single, estimate_two_qubit
from geomgate.model import (
    DriveParams,
    TwoQubitParams,
    chi_angle,
    omega_for_beta,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from geomgate.noise import (
    NoiseSpec,
    RngStream,
    relative_draws,
    sample_input_state,
    sample_two_qubit_input,
)

SQRT3 = math.sqrt(3.0)

# fixed-seed references computed once at m = n = 5000 (large-sample runs of
# this estimator); tests compare small runs against them within 3 sigma
GOLDEN_SINGLE = (9.999241027050384e-01, 4.198988763029546e-07)
GOLDEN_TWO_QUBIT = (9.998055838138622e-01, 1.828752647305019e-06)


def pinned_single():
    w0 = 1e5
    w1 = zero_dynamic_omega1(w0, 1.5)
    return DriveParams(omega_for_beta(w0, w1, 1.5), w0, w1)


# --- shot_fidelity: the per-shot oracle of the reconstructions below -------


def shot_fidelity(psi_in, u_ideal, u_noisy):
    """Squared overlap |<psi_in| U_ideal^dag U_noisy |psi_in>|^2, capped at 1."""
    amp = np.vdot(u_ideal @ psi_in, u_noisy @ psi_in)
    return float(min(abs(amp) ** 2, 1.0))


def block_diag(a, b):
    """4x4 gate: block a on the control-0 sector (|00>, |01>), b on control-1."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = a, b
    return out


def test_shot_fidelity_identical_gates():
    p = pinned_single()
    u = one_cycle_gate(p)
    psi = sample_input_state(RngStream(1, (0,)))
    assert shot_fidelity(psi, u, u) == pytest.approx(1.0, abs=1e-12)


def test_shot_fidelity_global_phase_invariance():
    p = pinned_single()
    u = one_cycle_gate(p)
    psi = sample_input_state(RngStream(2, (0,)))
    for phi in (0.3, -1.7, math.pi):
        assert shot_fidelity(psi, u, np.exp(1j * phi) * u) == pytest.approx(1.0, abs=1e-12)
        assert shot_fidelity(psi, np.exp(1j * phi) * u, u) == pytest.approx(1.0, abs=1e-12)


def test_shot_fidelity_orthogonal_outcome():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert shot_fidelity(psi, np.eye(2), np.array([[0, 1], [1, 0]])) == 0.0


def test_shot_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        shot_fidelity(np.array([1, 0], dtype=complex), np.eye(2), np.eye(4))


# --- noiseless exactness ---------------------------------------------------


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("m,n", [(1, 1), (3, 7), (40, 11)])
def test_single_noiseless_is_one(gate_model, m, n):
    est = estimate_single(pinned_single(), NoiseSpec(0.0, 0.0), m, n,
                          RngStream(5).child(1), gate_model=gate_model)
    assert abs(est.mean - 1.0) <= 1e-12
    # one state gives no error estimate
    assert est.stderr <= 1e-12 if n > 1 else math.isnan(est.stderr)
    assert est.n_states == n


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("mode", ["fixed0", "fixed1", "unfixed"])
def test_two_qubit_noiseless_is_one(gate_model, mode):
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    est = estimate_two_qubit(p2, NoiseSpec(0.0, 0.0), 5, 9, RngStream(6).child(2),
                             control_mode=mode, gate_model=gate_model)
    assert abs(est.mean - 1.0) <= 1e-12


def strong_drives():
    """Points with omega0/omega ~ 1e9: one rounding step in the field magnitude
    moves the phase by ~1e-7, which shows in F, so a noisy magnitude that
    rounds apart from the ideal one leaves F below 1."""
    return [DriveParams(1.0, 1e9 * (1.0 + k / 7.0), 3e8 * (k - 11.5)) for k in range(24)]


def test_phase_noiseless_is_exactly_one():
    # under "phase" no noise gives d == 0 bit for bit, hence F == 1 exactly
    zero = NoiseSpec(0.0, 0.0)
    for p in strong_drives():
        assert estimate_single(p, zero, 3, 2, RngStream(5).child(1)).mean == 1.0
        p2 = TwoQubitParams(target=p, coupling_j=0.3 * p.omega0)
        for mode in ("fixed0", "fixed1"):
            est = estimate_two_qubit(p2, zero, 3, 2, RngStream(6).child(2), control_mode=mode)
            assert est.mean == 1.0


def test_cos_sin_half_angle_matches_libm():
    rng = np.random.default_rng(11)
    a = np.concatenate([rng.uniform(-1e4, 1e4, 100_000),
                        [(2 * k + 1) * math.pi for k in range(-20, 21)],
                        [0.0, 1e-300, -1e-300, 1e-20, -1e-20]])
    cos_a, sin_a = fidelity._cos_sin(a)
    assert np.isfinite(cos_a).all() and np.isfinite(sin_a).all()
    tol = 4 * 2.0**-52
    assert np.max(np.abs(cos_a - [math.cos(x) for x in a])) <= tol
    assert np.max(np.abs(sin_a - [math.sin(x) for x in a])) <= tol


def test_kernel_calls_no_libm_per_shot(monkeypatch):
    # numpy's float64 hypot, sin and cos can run through scalar libm, so the
    # per-shot kernel must not call them. The state map and the ideal entries
    # may, once per input state or per point
    sizes = []

    def counted(ufunc):
        def call(*args, **kwargs):
            sizes.append(max(np.size(x) for x in args))
            return ufunc(*args, **kwargs)
        return call

    for name in ("hypot", "sin", "cos"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    m, n = 64, 4
    estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), NoiseSpec(0.05, 0.05), m, n,
                       RngStream(4).child(2), control_mode="unfixed", gate_model="propagator")
    estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), m, n, RngStream(4).child(1))
    assert sizes and max(sizes) <= n


def test_estimates_within_unit_interval():
    p = pinned_single()
    for seed in range(4):
        est = estimate_single(p, NoiseSpec(0.3, 0.3), 50, 50, RngStream(seed).child(1))
        assert 0.0 <= est.mean <= 1.0
        assert est.stderr >= 0.0


def test_argument_validation():
    # the messages of EstimatorConfig, the check sweep_generic runs as well
    p = pinned_single()
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 0, 5, RngStream(0))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 5, 0, RngStream(0))
    with pytest.raises(ValueError, match="gate_model must be one of"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 5, 5, RngStream(0), gate_model="exact")
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    with pytest.raises(ValueError, match="control_mode must be one of"):
        estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 5, 5, RngStream(0), control_mode="both")


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("omega,omega0,omega1", [
    (1.0, 1e-100, 1.0), (1.0, 1e100, 1e100), (1e-100, 1e100, 1e100),
    (1e100, 1e-100, -1e100), (1e-100, 1e-100, -1e100),
], ids=["resonant", "strong", "slow-strong", "fast-weak", "slow-weak"])
def test_estimates_finite_at_the_field_range_edges(gate_model, omega, omega0, omega1):
    # no square or sum of squares leaves the normal doubles (RuntimeWarnings
    # fail the suite), so the estimate is a real fidelity
    est = estimate_single(DriveParams(omega, omega0, omega1), NoiseSpec(0.3, 0.3), 16, 4,
                          RngStream(5).child(1), gate_model=gate_model)
    assert 0.0 <= est.mean <= 1.0 and math.isfinite(est.stderr)


def test_one_state_gives_no_stderr():
    # a single state has no spread to estimate the error from
    est = estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 10, 1, RngStream(3).child(1))
    assert 0.0 < est.mean <= 1.0 and math.isnan(est.stderr)
    est = estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), NoiseSpec(0.05, 0.05),
                             10, 1, RngStream(3).child(2), gate_model="propagator")
    assert 0.0 < est.mean <= 1.0 and math.isnan(est.stderr)
    assert estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 10, 2,
                           RngStream(3).child(1)).stderr > 0.0


# --- draw-layout reconstruction oracle -------------------------------------
# rebuild the estimator from scalar primitives, walking the documented
# stream layout: one state stream child(0) and one noise stream child(1),
# each read in order, one input state after another


def reconstruct_single(p, spec, m, n, rng, gate_model):
    """Per-state mean fidelities of the first n input states."""
    ideal = one_cycle_gate(p)
    chi = chi_angle(p)
    states, noise = rng.child(0), rng.child(1)
    per_state = []
    for j in range(n):
        psi = sample_input_state(states)
        u0 = relative_draws(noise, m)
        u1 = relative_draws(noise, m) if spec.independent else u0
        shots = []
        for i in range(m):
            w0 = p.omega0 * (1.0 + spec.delta0 * u0[i])
            w1 = p.omega1 * (1.0 + spec.delta1 * u1[i])
            if gate_model == "propagator":
                noisy = one_cycle_gate(DriveParams(p.omega, w0, w1))
            else:
                gamma = -math.pi * (1.0 + math.hypot(w0, w1 - p.omega) / p.omega)
                noisy = ideal_gate_u1(gamma, chi)
            shots.append(shot_fidelity(psi, ideal, noisy))
        per_state.append(np.mean(shots))
    return per_state


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("independent", [False, True])
def test_single_matches_scalar_reconstruction(gate_model, independent):
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.05, independent=independent)
    rng = RngStream(321).child(1)
    est = estimate_single(p, spec, 6, 9, rng, gate_model=gate_model)
    want = reconstruct_single(p, spec, 6, 9, RngStream(321).child(1), gate_model)
    assert est.mean == pytest.approx(float(np.mean(want)), abs=1e-12)


@pytest.mark.parametrize("gate_model,independent", [("phase", False), ("propagator", True)])
def test_estimate_is_prefix_stable_in_n(gate_model, independent, monkeypatch):
    # state j reads row j of each block whatever n is: an estimate over n
    # states is the reconstruction over the first n rows of a longer block,
    # also when the states are read in chunks of two
    monkeypatch.setattr(fidelity, "_CHUNK_ELEMENTS", 2 * 6)
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.05, independent=independent)
    rows = reconstruct_single(p, spec, 6, 9, RngStream(808).child(1), gate_model)
    for n in (1, 4, 5, 9):
        est = estimate_single(p, spec, 6, n, RngStream(808).child(1), gate_model=gate_model)
        assert est.mean == pytest.approx(float(np.mean(rows[:n])), abs=1e-12)
        if n > 1:
            want = float(np.std(rows[:n], ddof=1) / math.sqrt(n))
            assert est.stderr == pytest.approx(want, abs=1e-12)


def test_two_qubit_matches_scalar_reconstruction():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    t = p2.target
    spec = NoiseSpec(0.1, 0.1)
    est = estimate_two_qubit(p2, spec, 5, 8, RngStream(99).child(2), control_mode="fixed0")
    ideal = block_diag(one_cycle_gate(shifted_target(p2, 0)),
                       one_cycle_gate(shifted_target(p2, 1)))
    chi0 = chi_angle(shifted_target(p2, 0))
    chi1 = chi_angle(shifted_target(p2, 1))
    states, noise = RngStream(99).child(2).child(0), RngStream(99).child(2).child(1)
    per_state = []
    for j in range(8):
        target = sample_input_state(states)
        psi = np.kron(np.array([1.0, 0.0], dtype=complex), target)
        u = relative_draws(noise, 5)
        shots = []
        for i in range(5):
            w0 = t.omega0 * (1.0 + 0.1 * u[i])
            blocks = []
            for sign, chi in ((-1.0, chi0), (+1.0, chi1)):
                wl = (t.omega1 + sign * p2.coupling_j) * (1.0 + 0.1 * u[i])
                gamma = -math.pi * (1.0 + math.hypot(w0, wl - t.omega) / t.omega)
                blocks.append(ideal_gate_u1(gamma, chi))
            shots.append(shot_fidelity(psi, ideal, block_diag(*blocks)))
        per_state.append(np.mean(shots))
    assert est.mean == pytest.approx(float(np.mean(per_state)), abs=1e-12)



@pytest.mark.parametrize("mode,gate_model", [
    ("unfixed", "phase"), ("unfixed", "propagator"), ("fixed1", "propagator"),
])
def test_two_qubit_modes_match_4x4_reconstruction(mode, gate_model):
    # full 4x4 products on kron input states: checks the control weighting,
    # the sampled-control draw order and where each model puts the +-J shift
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    t, j_c = p2.target, p2.coupling_j
    spec = NoiseSpec(0.1, 0.05, independent=True)
    base = RngStream(55).child(2)
    est = estimate_two_qubit(p2, spec, 5, 8, base, control_mode=mode, gate_model=gate_model)
    lo, hi = shifted_target(p2, 0), shifted_target(p2, 1)
    ideal = block_diag(one_cycle_gate(lo), one_cycle_gate(hi))
    states, noise = base.child(0), base.child(1)
    per_state = []
    for j in range(8):
        if mode == "unfixed":
            psi = sample_two_qubit_input(states)
        else:
            psi = np.kron(np.array([0.0, 1.0], dtype=complex), sample_input_state(states))
        u0 = relative_draws(noise, 5)
        u1 = relative_draws(noise, 5)
        shots = []
        for i in range(5):
            w0 = t.omega0 * (1.0 + 0.1 * u0[i])
            blocks = []
            for blk, sign in ((lo, -1.0), (hi, 1.0)):
                if gate_model == "propagator":
                    wl = t.omega1 * (1.0 + 0.05 * u1[i]) + sign * j_c
                    blocks.append(one_cycle_gate(DriveParams(t.omega, w0, wl)))
                else:
                    wl = blk.omega1 * (1.0 + 0.05 * u1[i])
                    gamma = -math.pi * (1.0 + math.hypot(w0, wl - t.omega) / t.omega)
                    blocks.append(ideal_gate_u1(gamma, chi_angle(blk)))
            shots.append(shot_fidelity(psi, ideal, block_diag(*blocks)))
        per_state.append(np.mean(shots))
    assert est.mean == pytest.approx(float(np.mean(per_state)), abs=1e-12)

def test_loop_order_exchange_bit_identical():
    # per-(state, shot) fidelities depend only on the rows read from the two
    # streams, so the noise-outer iteration reproduces the state-outer matrix
    # bit for bit
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.1)
    m, n = 7, 5
    base = RngStream(2468).child(1)

    def shot_matrix(noise_outer):
        states, noise = base.child(0), base.child(1)
        psis = [sample_input_state(states) for j in range(n)]
        draws = [relative_draws(noise, m) for j in range(n)]
        i00, i01, i11 = one_cycle_gate(p).ravel()[[0, 1, 3]]
        chi = chi_angle(p)
        c2, s2 = math.cos(chi / 2) ** 2, math.sin(chi / 2) ** 2
        out = np.empty((n, m))
        pairs = (
            [(j, i) for i in range(m) for j in range(n)]
            if noise_outer
            else [(j, i) for j in range(n) for i in range(m)]
        )
        for j, i in pairs:
            w0 = p.omega0 * (1.0 + spec.delta0 * draws[j][i])
            w1 = p.omega1 * (1.0 + spec.delta1 * draws[j][i])
            gamma = -np.pi * (1.0 + np.hypot(w0, w1 - p.omega) / p.omega)
            g00 = np.exp(1j * gamma) * c2 + np.exp(-1j * gamma) * s2
            g01 = 1j * math.sin(chi) * np.sin(gamma)
            g11 = np.exp(1j * gamma) * s2 + np.exp(-1j * gamma) * c2
            psi = psis[j]
            q0 = i00 * psi[0] + i01 * psi[1]
            q1 = i01 * psi[0] + i11 * psi[1]
            amp = np.conj(q0) * (g00 * psi[0] + g01 * psi[1]) + np.conj(q1) * (
                g01 * psi[0] + g11 * psi[1])
            out[j, i] = min(abs(amp) ** 2, 1.0)
        return out

    a = shot_matrix(noise_outer=False)
    b = shot_matrix(noise_outer=True)
    np.testing.assert_array_equal(a, b)


# --- regression against large-sample references ----------------------------


def test_single_golden_regression():
    est = estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 500, 500,
                          RngStream(31337).child(1))
    band = 3.0 * math.hypot(est.stderr, GOLDEN_SINGLE[1])
    assert abs(est.mean - GOLDEN_SINGLE[0]) <= band


def test_two_qubit_golden_regression():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    est = estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 500, 500,
                             RngStream(7777).child(2), control_mode="fixed0")
    band = 3.0 * math.hypot(est.stderr, GOLDEN_TWO_QUBIT[1])
    assert abs(est.mean - GOLDEN_TWO_QUBIT[0]) <= band


def test_byte_reproducibility():
    p = pinned_single()
    a = estimate_single(p, NoiseSpec(0.1, 0.1), 64, 64, RngStream(1).child(1))
    b = estimate_single(p, NoiseSpec(0.1, 0.1), 64, 64, RngStream(1).child(1))
    assert a == b


# --- deterministic quadrature oracle ----------------------------------------


def quadrature_fixed0(p2, delta0, delta1, nu=64, ntheta=24, nphi=24):
    """Exact average fidelity for a fixed-|0> control: averages the squared
    block-0 overlap over the shared relative deviation (Gauss-Legendre), a
    flat theta grid (Gauss-Legendre) and periodic phi (trapezoid), both
    orthogonal input forms weighted 1/2."""
    t = p2.target
    lo = shifted_target(p2, 0)
    ideal = one_cycle_gate(lo)
    chi = chi_angle(lo)
    c2, s2 = math.cos(chi / 2) ** 2, math.sin(chi / 2) ** 2
    xu, wu = np.polynomial.legendre.leggauss(nu)
    w0 = t.omega0 * (1.0 + delta0 * xu)
    wl = lo.omega1 * (1.0 + delta1 * xu)
    gamma = -np.pi * (1.0 + np.hypot(w0, wl - t.omega) / t.omega)
    g00 = np.exp(1j * gamma) * c2 + np.exp(-1j * gamma) * s2
    g01 = 1j * math.sin(chi) * np.sin(gamma)
    g11 = np.exp(1j * gamma) * s2 + np.exp(-1j * gamma) * c2

    xt, wt = np.polynomial.legendre.leggauss(ntheta)
    theta = 0.5 * math.pi * (xt + 1.0)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    wstate = np.outer(0.5 * wt, np.full(nphi, 1.0 / nphi)).ravel()
    c, s = np.cos(th.ravel() / 2.0), np.sin(th.ravel() / 2.0)
    em, ep = np.exp(-0.5j * ph.ravel()), np.exp(0.5j * ph.ravel())
    total = 0.0
    for p0, p1 in ((c * em, s * ep), (-s * em, c * ep)):
        q0 = ideal[0, 0] * p0 + ideal[0, 1] * p1
        q1 = ideal[1, 0] * p0 + ideal[1, 1] * p1
        amp = (np.conj(q0)[None, :] * (g00[:, None] * p0[None, :] + g01[:, None] * p1[None, :])
               + np.conj(q1)[None, :] * (g01[:, None] * p0[None, :] + g11[:, None] * p1[None, :]))
        total += 0.5 * float(((0.5 * wu)[:, None] * np.abs(amp) ** 2 * wstate[None, :]).sum())
    return total


def test_two_qubit_fixed0_matches_quadrature():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    exact = quadrature_fixed0(p2, 0.1, 0.1)
    # quadrature must be self-converged well below the MC band
    assert abs(exact - quadrature_fixed0(p2, 0.1, 0.1, nu=48, ntheta=20, nphi=16)) <= 1e-9
    est = estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 500, 500,
                             RngStream(424242).child(2), control_mode="fixed0")
    assert abs(est.mean - exact) <= 3.0 * est.stderr


# --- convergence -------------------------------------------------------------


def test_stderr_scaling_slope():
    # two-level averaging: stderr is measured across per-state means, so with
    # m fixed it falls as 1/sqrt(n) = 1/sqrt(m*n)
    p = pinned_single()
    m = 10
    ns = [10, 100, 1000, 10000]
    errs = [
        estimate_single(p, NoiseSpec(0.1, 0.1), m, n, RngStream(13).child(1)).stderr
        for n in ns
    ]
    slope = np.polyfit(np.log10([m * n for n in ns]), np.log10(errs), 1)[0]
    assert -0.6 <= slope <= -0.4

