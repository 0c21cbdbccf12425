"""Phase formulas, the drive-rate solver, and the zero-dynamic conditions."""

import math

import numpy as np
import pytest

from geomgate.model import (
    DriveParams,
    InfeasibleParameters,
    TwoQubitParams,
    big_omega,
    blocks,
    chi_angle,
    omega_for_beta,
    phases,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)

SQRT3 = math.sqrt(3.0)


def random_params(rng, scale_lo=-2, scale_hi=5):
    scale = 10.0 ** rng.uniform(scale_lo, scale_hi)
    omega = scale
    return DriveParams(
        omega=omega,
        omega0=omega * rng.uniform(0.1, 3.0),
        omega1=omega * rng.uniform(0.0, 4.0),
    )


def test_drive_params_validation():
    with pytest.raises(InfeasibleParameters):
        DriveParams(omega=0.0, omega0=1.0, omega1=1.0)
    with pytest.raises(InfeasibleParameters):
        DriveParams(omega=1.0, omega0=0.0, omega1=1.0)
    with pytest.raises(InfeasibleParameters):
        DriveParams(omega=1.0, omega0=1.0, omega1=math.inf)


@pytest.mark.parametrize("field,low,high", [
    ("omega", 1e-100, 1e100), ("omega0", 1e-100, 1e100), ("omega1", -1e100, 1e100),
])
def test_drive_params_field_range(field, low, high):
    # within the bounds every square and sum of squares of the fields is a
    # normal double; one step outside either bound is refused
    base = {"omega": 1.0, "omega0": 1.0, "omega1": 1.0}
    for value in (low, high):
        assert getattr(DriveParams(**{**base, field: value}), field) == value
    for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
        with pytest.raises(InfeasibleParameters, match=f"{field} must lie in"):
            DriveParams(**{**base, field: value})


def test_two_qubit_params_blocks_in_range():
    # each control state's block omega1 -+ J is a drive point of its own
    target = DriveParams(omega=1.0, omega0=1.0, omega1=0.0)
    assert TwoQubitParams(target, coupling_j=1e100).coupling_j == 1e100
    with pytest.raises(InfeasibleParameters, match="omega1 must lie in"):
        TwoQubitParams(target, coupling_j=math.nextafter(1e100, math.inf))


@pytest.mark.parametrize("omega1", [-5e99, 5e99], ids=["block0", "block1"])
def test_two_qubit_params_refuses_either_out_of_range_block(omega1):
    # at J = 1e100 exactly one block, omega1 - J or omega1 + J, leaves [-1e100, 1e100]:
    # the one on omega1's side of zero
    target = DriveParams(omega=1.0, omega0=1.0, omega1=omega1)
    with pytest.raises(InfeasibleParameters) as err:
        TwoQubitParams(target, coupling_j=1e100)
    bad = omega1 + math.copysign(1e100, omega1)
    assert str(err.value) == f"omega1 must lie in [-1e100, 1e100], got {bad}"


def test_blocks_in_control_order():
    p = DriveParams(omega=100.0, omega0=10.0, omega1=60.0)
    assert blocks(p) == (p,)
    p2 = TwoQubitParams(target=p, coupling_j=5.0)
    assert blocks(p2) == (shifted_target(p2, 0), shifted_target(p2, 1))
    assert [blk.omega1 for blk in blocks(p2)] == [55.0, 65.0]
    assert blocks(two_qubit_from_alpha(10.0, 60.0, SQRT3)) == tuple(
        shifted_target(two_qubit_from_alpha(10.0, 60.0, SQRT3), k) for k in (0, 1))


def test_big_omega_trivial():
    assert big_omega(DriveParams(2.0, 3.0, 2.0)) == 3.0
    # 3-4-5 triangle: detuning omega1 - omega = 4
    assert big_omega(DriveParams(1.0, 3.0, 5.0)) == 5.0


def test_big_omega_paper_scale_point():
    p = DriveParams(omega=(4.0 * SQRT3 / 3.0) * 1e5, omega0=1e5, omega1=SQRT3 * 1e5)
    np.testing.assert_allclose(big_omega(p), (2.0 / SQRT3) * 1e5, rtol=1e-14)


def test_chi_angle():
    assert chi_angle(DriveParams(2.0, 5.0, 2.0)) == pytest.approx(math.pi / 2, abs=1e-15)
    assert chi_angle(DriveParams(1.0, 3.0, 4.0)) == pytest.approx(math.pi / 4, abs=1e-15)
    # detuning negative at the zero-dynamic point: cos(chi) = -1/2
    p = DriveParams(omega=(4.0 * SQRT3 / 3.0) * 1e5, omega0=1e5, omega1=SQRT3 * 1e5)
    assert chi_angle(p) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_phases_zero_dynamic_point():
    p = DriveParams(omega=(4.0 * SQRT3 / 3.0) * 1e5, omega0=1e5, omega1=SQRT3 * 1e5)
    tri = phases(p)
    assert abs(tri.gamma_d) <= 1e-10 * abs(tri.gamma)
    assert tri.gamma == pytest.approx(-1.5 * math.pi, abs=1e-9)
    assert tri.gamma_g == pytest.approx(tri.gamma, abs=1e-9)


def test_phases_resonant_drive():
    # omega1 = omega: Omega = omega0, chi = pi/2
    p = DriveParams(omega=2.0, omega0=3.0, omega1=2.0)
    tri = phases(p)
    assert tri.gamma_d == pytest.approx(-math.pi * 3.0 / 2.0, rel=1e-14)
    assert tri.gamma_g == pytest.approx(-math.pi, rel=1e-14)
    assert tri.gamma == pytest.approx(-math.pi * (1.0 + 3.0 / 2.0), rel=1e-14)


def test_phase_identity_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        tri = phases(random_params(rng))
        worst = max(worst, abs(tri.gamma - tri.gamma_g - tri.gamma_d) / max(1.0, abs(tri.gamma)))
    assert worst <= 1e-10


def test_geometric_phase_solid_angle_form():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        p = random_params(rng)
        tri = phases(p)
        expected = -math.pi * (1.0 - math.cos(chi_angle(p)))
        assert abs(tri.gamma_g - expected) <= 1e-10 * max(1.0, abs(tri.gamma_g))


def test_omega_for_beta_factored_closed_form():
    # the minus branch at beta = 3/2 factors into 2*(2*omega1 - sqrt(omega1^2 - 3*omega0^2))/3
    rng = np.random.default_rng(44)
    count = 0
    while count < 1000:
        omega0 = 10.0 ** rng.uniform(-2, 5)
        # stay a hair off the double root, where both expressions are
        # dominated by sqrt-of-rounding noise
        omega1 = omega0 * rng.uniform(SQRT3 * (1.0 + 1e-6), 10.0)
        if omega1 ** 2 <= 3.0 * omega0 ** 2:
            continue
        count += 1
        got = omega_for_beta(omega0, omega1, 1.5)
        want = 2.0 * (2.0 * omega1 - math.sqrt(omega1 ** 2 - 3.0 * omega0 ** 2)) / 3.0
        assert abs(got - want) <= 1e-12 * want


def test_omega_for_beta_small_omega0_limit():
    omega1 = 7.0
    got = omega_for_beta(1e-9, omega1, 1.5)
    assert got == pytest.approx(2.0 * omega1 / 3.0, rel=1e-9)
    p = DriveParams(omega=got, omega0=1e-9, omega1=omega1)
    assert phases(p).gamma == pytest.approx(-1.5 * math.pi, abs=1e-9)


def test_omega_for_beta_reality_violation():
    with pytest.raises(InfeasibleParameters, match="reality"):
        omega_for_beta(1e5, 1e5, 1.5)


@pytest.mark.parametrize("omega0,omega1,field", [
    (1e200, 1.0, "omega0"), (1e-200, 1.0, "omega0"), (math.nan, 1.0, "omega0"),
    (1.0, 1e200, "omega1"), (1.0, -1e200, "omega1"), (1.0, math.inf, "omega1"),
])
def test_omega_for_beta_checks_the_fields_first(omega0, omega1, field):
    # out of range the fields' squares overflow or underflow, and the solver
    # would return a NaN omega: the given field is named, as DriveParams does
    with pytest.raises(InfeasibleParameters, match=f"^{field} must lie in"):
        omega_for_beta(omega0, omega1, 1.5)


def test_omega_for_beta_invalid_beta():
    with pytest.raises(InfeasibleParameters, match="eta"):
        omega_for_beta(1.0, 10.0, -0.5)
    with pytest.raises(InfeasibleParameters, match="eta"):
        omega_for_beta(1.0, 10.0, 2.5)


def test_omega_for_beta_total_phase_both_branches():
    # for beta in (1, 2) the solved omega pins gamma = -beta*pi exactly
    rng = np.random.default_rng(45)
    count = 0
    while count < 1000:
        beta = rng.uniform(1.05, 1.95)
        eta = 2.0 * beta - beta * beta
        omega0 = 10.0 ** rng.uniform(-1, 4)
        omega1 = omega0 * rng.uniform(0.1, 10.0)
        if eta * omega0 ** 2 > (1.0 - eta) * omega1 ** 2:
            continue
        count += 1
        for branch in ("minus", "plus"):
            omega = omega_for_beta(omega0, omega1, beta, branch=branch)
            tri = phases(DriveParams(omega=omega, omega0=omega0, omega1=omega1))
            assert abs(tri.gamma + beta * math.pi) <= 1e-9


def test_zero_dynamic_omega1_values():
    np.testing.assert_allclose(zero_dynamic_omega1(1e5, 1.5), SQRT3 * 1e5, rtol=1e-14)
    # eta(beta) = eta(2 - beta): the mirror exponent lands on the same line
    np.testing.assert_allclose(zero_dynamic_omega1(1.0, 0.5), SQRT3, rtol=1e-14)
    with pytest.raises(InfeasibleParameters):
        zero_dynamic_omega1(1.0, 1.0)


def test_zero_dynamic_composition():
    rng = np.random.default_rng(46)
    for _ in range(200):
        beta = rng.uniform(1.05, 1.95)
        omega0 = 10.0 ** rng.uniform(-1, 5)
        omega1 = zero_dynamic_omega1(omega0, beta)
        omega = omega_for_beta(omega0, omega1, beta)
        tri = phases(DriveParams(omega=omega, omega0=omega0, omega1=omega1))
        assert abs(tri.gamma_d) <= 1e-10 * abs(tri.gamma)


def test_shifted_target():
    base = DriveParams(omega=100.0, omega0=10.0, omega1=60.0)
    p2 = TwoQubitParams(target=base, coupling_j=5.0)
    assert shifted_target(p2, 0).omega1 == 55.0
    assert shifted_target(p2, 1).omega1 == 65.0
    none = TwoQubitParams(target=base, coupling_j=0.0)
    assert shifted_target(none, 0) == base
    assert shifted_target(none, 1) == base
    with pytest.raises(ValueError):
        shifted_target(p2, 2)


def test_shifted_target_phases_match_direct_formula():
    rng = np.random.default_rng(47)
    for _ in range(200):
        base = random_params(rng, 0, 2)
        p2 = TwoQubitParams(target=base, coupling_j=base.omega0 * rng.uniform(0.0, 3.0))
        for delta in (0, 1):
            blk = shifted_target(p2, delta)
            w1d = base.omega1 + (2 * delta - 1) * p2.coupling_j
            omd = math.hypot(base.omega0, w1d - base.omega)
            assert phases(blk).gamma == pytest.approx(
                -math.pi * (1.0 + omd / base.omega), rel=1e-12)


def test_two_qubit_geometric_point_examples():
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    t = p2.target
    np.testing.assert_allclose(t.omega1, 60.0, rtol=1e-14)
    np.testing.assert_allclose(p2.coupling_j, 30.0 * SQRT3, rtol=1e-14)
    np.testing.assert_allclose(t.omega, 120.0, rtol=1e-14)
    p2b = two_qubit_geometric_point(20.0, math.sqrt(8.0))
    np.testing.assert_allclose(p2b.target.omega1, 60.0, rtol=1e-14)


def test_two_qubit_geometric_point_identities():
    rng = np.random.default_rng(48)
    for _ in range(500):
        omega0 = 10.0 ** rng.uniform(-1, 4)
        alpha = rng.uniform(0.2, 15.0)
        p2 = two_qubit_geometric_point(omega0, alpha)
        t = p2.target
        # omega = 2*omega1 exactly by construction; omega1^2 = omega0^2 + J^2
        assert t.omega == 2.0 * t.omega1
        lhs, rhs = t.omega1 ** 2, omega0 ** 2 + p2.coupling_j ** 2
        assert abs(lhs - rhs) <= 1e-12 * lhs
        for delta in (0, 1):
            tri = phases(shifted_target(p2, delta))
            assert abs(tri.gamma_d) <= 1e-10


def test_two_qubit_from_alpha_invariants():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    assert p2.coupling_j == SQRT3 * 20.0
    assert p2.target.omega == 50.0 + math.sqrt(1.0 + 3.0) * 20.0
    with pytest.raises(InfeasibleParameters):
        two_qubit_from_alpha(20.0, 50.0, -1.0)
