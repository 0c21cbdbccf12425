"""Propagator checks against independent integration and eigen-structure oracles."""

import math

import numpy as np
import pytest

from geomgate.evolve import (
    dynamic_phase_oracle,
    ideal_gate_u1,
    ode_oracle,
    one_cycle_gate,
    propagator,
)
from geomgate.model import (
    DriveParams,
    TwoQubitParams,
    chi_angle,
    phases,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
)
SQRT3 = math.sqrt(3.0)


def unitarity_defect(m):
    """Largest elementwise deviation of m'm from the identity."""
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def random_params(rng, ratio_hi=4.0):
    scale = 10.0 ** rng.uniform(-2, 5)
    return DriveParams(
        omega=scale,
        omega0=scale * rng.uniform(0.1, 3.0),
        omega1=scale * rng.uniform(0.0, ratio_hi),
    )


def zero_dynamic_point(omega0=1e5):
    return DriveParams(omega=(4.0 * SQRT3 / 3.0) * omega0, omega0=omega0,
                       omega1=SQRT3 * omega0)


# --- propagator ---------------------------------------------------------


def test_propagator_t0_is_identity():
    p = DriveParams(2.0, 1.0, 0.5)
    np.testing.assert_allclose(propagator(p, 0.0), np.eye(2), atol=1e-15)


def test_propagator_rejects_negative_time():
    with pytest.raises(ValueError):
        propagator(DriveParams(2.0, 1.0, 0.5), -1.0)


def test_propagator_unitary():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = random_params(rng)
        t = rng.uniform(0.0, 10.0) / p.omega
        assert unitarity_defect(propagator(p, t)) <= 1e-12


def test_propagator_cyclic_state_phase():
    # one cycle multiplies the tilted-axis eigenstate by exp(i*gamma)
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_params(rng)
        chi = chi_angle(p)
        plus = np.array([math.cos(chi / 2.0), math.sin(chi / 2.0)], dtype=complex)
        out = propagator(p, 2.0 * math.pi / p.omega) @ plus
        expected = np.exp(1j * phases(p).gamma) * plus
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_propagator_opposite_cyclic_phases():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_params(rng)
        chi = chi_angle(p)
        plus = np.array([math.cos(chi / 2.0), math.sin(chi / 2.0)], dtype=complex)
        minus = np.array([-math.sin(chi / 2.0), math.cos(chi / 2.0)], dtype=complex)
        u = propagator(p, 2.0 * math.pi / p.omega)
        prod = np.vdot(plus, u @ plus) * np.vdot(minus, u @ minus)
        assert abs(prod - 1.0) <= 1e-10


# --- one-cycle gate vs the closed-form matrix ----------------------------


def test_one_cycle_gate_matches_propagator():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = random_params(rng)
        np.testing.assert_allclose(
            one_cycle_gate(p), propagator(p, 2.0 * math.pi / p.omega), atol=1e-12)


def test_one_cycle_gate_equals_ideal_form():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = random_params(rng)
        tri = phases(p)
        np.testing.assert_allclose(
            one_cycle_gate(p), ideal_gate_u1(tri.gamma, chi_angle(p)), atol=1e-10)


def test_one_cycle_gate_zero_dynamic_eigenphases():
    p = zero_dynamic_point()
    u = one_cycle_gate(p)
    vals = np.linalg.eigvals(u)
    target = {np.exp(-1.5j * math.pi), np.exp(1.5j * math.pi)}
    for v in vals:
        assert min(abs(v - t) for t in target) <= 1e-10


def test_one_cycle_gate_small_omega0_is_diagonal():
    # chi -> 0 or pi: eigenstates collapse onto the computational basis
    p = DriveParams(omega=2.0, omega0=1e-9, omega1=5.0)
    u = one_cycle_gate(p)
    assert abs(u[0, 1]) <= 1e-8 and abs(u[1, 0]) <= 1e-8
    expected = -np.exp(-1j * math.pi * (p.omega1 - p.omega) / p.omega)
    assert abs(u[0, 0] - expected) <= 1e-7


def test_one_cycle_gate_unit_determinant_modulus():
    rng = np.random.default_rng(6)
    for _ in range(200):
        det = np.linalg.det(one_cycle_gate(random_params(rng)))
        assert abs(abs(det) - 1.0) <= 1e-12


# --- closed-form gate ----------------------------------------------------


def test_ideal_gate_u1_trivial():
    sigma_x = np.array([[0, 1], [1, 0]])
    np.testing.assert_allclose(ideal_gate_u1(0.0, 1.234), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(ideal_gate_u1(math.pi / 2.0, math.pi / 2.0), 1j * sigma_x,
                               atol=1e-15)


def test_ideal_gate_u1_unitary_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(500):
        gamma = rng.uniform(-10.0, 10.0)
        chi = rng.uniform(-math.pi, 2.0 * math.pi)
        assert unitarity_defect(ideal_gate_u1(gamma, chi)) <= 1e-12


def test_ideal_gate_u1_eigendecomposition():
    rng = np.random.default_rng(8)
    for _ in range(200):
        gamma = rng.uniform(-6.0, 6.0)
        chi = rng.uniform(0.05, math.pi - 0.05)
        if min(abs(math.sin(gamma)), abs(math.cos(gamma))) < 1e-3:
            continue  # degenerate spectrum, eigenvectors not unique
        u = ideal_gate_u1(gamma, chi)
        vals, vecs = np.linalg.eig(u)
        plus = np.array([math.cos(chi / 2.0), math.sin(chi / 2.0)], dtype=complex)
        minus = np.array([-math.sin(chi / 2.0), math.cos(chi / 2.0)], dtype=complex)
        for target_val, target_vec in ((np.exp(1j * gamma), plus),
                                       (np.exp(-1j * gamma), minus)):
            k = int(np.argmin(np.abs(vals - target_val)))
            assert abs(vals[k] - target_val) <= 1e-10
            assert abs(abs(np.vdot(vecs[:, k], target_vec)) - 1.0) <= 1e-10


# --- conditional gate -----------------------------------------------------


def test_ideal_gate_u2_zero_coupling_is_tensor_product():
    base = DriveParams(omega=3.0, omega0=1.0, omega1=2.0)
    p2 = TwoQubitParams(target=base, coupling_j=0.0)
    u1 = one_cycle_gate(base)
    np.testing.assert_allclose(one_cycle_gate(p2), np.kron(np.eye(2), u1), atol=1e-14)


def test_ideal_gate_u2_routes_each_block():
    # control |0> gets the block at omega1 - J, control |1> the one at omega1 + J
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    u = one_cycle_gate(p2)
    for control in (0, 1):
        block = one_cycle_gate(shifted_target(p2, control))
        for target in (0, 1):
            ket = np.zeros(4)
            ket[2 * control + target] = 1.0
            want = np.zeros(4, dtype=complex)
            want[2 * control:2 * control + 2] = block[:, target]
            np.testing.assert_array_equal(u @ ket, want)
    assert np.abs(u[:2, :2] - u[2:, 2:]).max() > 0.1


def random_u2(rng):
    base = random_params(rng, ratio_hi=3.0)
    return one_cycle_gate(TwoQubitParams(target=base,
                                         coupling_j=base.omega0 * rng.uniform(0.0, 2.0)))


def test_ideal_gate_u2_sectors_exactly_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = random_u2(rng)
        assert np.all(u[:2, 2:] == 0) and np.all(u[2:, :2] == 0)


def test_ideal_gate_u2_unitary():
    rng = np.random.default_rng(17)
    for _ in range(50):
        assert unitarity_defect(random_u2(rng)) <= 1e-12


def test_ideal_gate_u2_geometric_point_blocks():
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    for delta in (0, 1):
        assert abs(phases(shifted_target(p2, delta)).gamma_d) <= 1e-10


def test_ideal_gate_u2_blocks_match_phase_formulas():
    rng = np.random.default_rng(9)
    for _ in range(100):
        base = random_params(rng, ratio_hi=3.0)
        p2 = TwoQubitParams(target=base, coupling_j=base.omega0 * rng.uniform(0.0, 2.0))
        u = one_cycle_gate(p2)
        for delta, block in ((0, u[:2, :2]), (1, u[2:, 2:])):
            blk = shifted_target(p2, delta)
            want = ideal_gate_u1(phases(blk).gamma, chi_angle(blk))
            np.testing.assert_allclose(block, want, atol=1e-10)


# --- Runge-Kutta oracle ---------------------------------------------------


def test_ode_oracle_t0():
    np.testing.assert_allclose(ode_oracle(2.0, 1.0, 0.5, 0.0, 5)[0], np.eye(2), atol=0)


def test_ode_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        ode_oracle(2.0, 1.0, 0.5, 1.0, 0)
    with pytest.raises(ValueError, match="t must be >= 0, got -1.0"):
        ode_oracle(2.0, 1.0, 0.5, [1.0, -1.0], 5)


def test_ode_oracle_fourth_order_convergence():
    p = DriveParams(omega=1.0, omega0=1.3, omega1=0.7)
    t = 2.0 * math.pi
    exact = propagator(p, t)
    errs = [np.abs(ode_oracle(p.omega, p.omega0, p.omega1, t, steps)[0] - exact).max()
            for steps in (100, 200, 400)]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.35)


def test_ode_oracle_matches_propagator():
    # five triples in one broadcast call, each at its own end time
    rng = np.random.default_rng(10)
    points, times = [], []
    for _ in range(5):
        points.append(random_params(rng, ratio_hi=3.0))
        times.append(rng.uniform(0.5, 2.0) * 2.0 * math.pi / points[-1].omega)
    fields = (np.array([getattr(p, f) for p in points]) for f in ("omega", "omega0", "omega1"))
    got = ode_oracle(*fields, np.array(times), 4000)
    for k, (p, t) in enumerate(zip(points, times)):
        np.testing.assert_allclose(got[k], propagator(p, t), atol=1e-8)


def test_ode_oracle_cycles_batch():
    rng = np.random.default_rng(11)
    omega = 10.0 ** rng.uniform(-1, 4, 32)
    w0 = omega * rng.uniform(0.1, 3.0, 32)
    w1 = omega * rng.uniform(0.0, 4.0, 32)
    batch = ode_oracle(omega, w0, w1, 2.0 * math.pi / omega, 2000)
    for k in range(32):
        p = DriveParams(omega[k], w0[k], w1[k])
        np.testing.assert_allclose(batch[k], one_cycle_gate(p), atol=1e-8)


# --- dynamic-phase quadrature oracle --------------------------------------


def test_dynamic_phase_oracle_zero_dynamic():
    assert abs(dynamic_phase_oracle(zero_dynamic_point(), 512)) <= 1e-6


def test_dynamic_phase_oracle_resonant():
    p = DriveParams(omega=2.0, omega0=3.0, omega1=2.0)
    got = dynamic_phase_oracle(p, 512)
    assert got == pytest.approx(-math.pi * 3.0 / 2.0, abs=1e-6)


def test_dynamic_phase_oracle_matches_formula():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = random_params(rng)
        want = phases(p).gamma_d
        got = dynamic_phase_oracle(p, 512)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_dynamic_phase_oracle_rejects_odd_steps():
    # composite Simpson needs an even number of intervals
    for steps in (0, 1, 511):
        with pytest.raises(ValueError, match="even"):
            dynamic_phase_oracle(zero_dynamic_point(), steps)
