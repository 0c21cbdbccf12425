"""Determinism of the stream machinery and distribution checks on the samplers."""

import math

import numpy as np
import pytest

from geomgate.noise import (
    NoiseSpec,
    RngStream,
    _input_amplitudes,
    relative_draws,
    sample_input_state,
    sample_two_qubit_input,
)


def state(theta, phi, partner):
    """The state of the draw row (theta/pi, phi/(2*pi), form bit)."""
    row = np.array([theta / math.pi, phi / (2.0 * math.pi), 0.25 if partner else 0.75])
    return np.array(_input_amplitudes(row), dtype=complex)


def test_noise_spec_bounds():
    NoiseSpec(0.0, 0.999)
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseSpec(0.0, 1.0)


def test_same_seed_and_path_replays_identical_sequence():
    a = RngStream(1234, (5, 6)).generator.uniform(0, 1, 100)
    b = RngStream(1234, (5, 6)).generator.uniform(0, 1, 100)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    base = RngStream(1234)
    seqs = [base.child(*path).generator.uniform(0, 1, 8)
            for path in [(0,), (1,), (0, 0), (0, 1), (1, 0)]]
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            assert not np.array_equal(seqs[i], seqs[j])


def test_child_path_composition():
    s = RngStream(7).child(1).child(2, 3)
    assert s.seed == 7 and s.path == (1, 2, 3)


def test_block_draw_equals_scalar_draws():
    # the estimator draws blocks; the scalar op must walk the same sequence
    block = relative_draws(RngStream(9, (4,)), 16)
    g = RngStream(9, (4,)).generator
    singles = np.array([g.uniform(-1.0, 1.0) for _ in range(16)])
    np.testing.assert_array_equal(block, singles)


def test_negative_seed_accepted():
    s = RngStream(-17)
    assert s.seed == (-17) & 0xFFFFFFFFFFFFFFFF
    s.generator.uniform()


def test_fluctuated_field_bounds_mean_and_variance():
    nominal, delta = 250.0, 0.1
    u = relative_draws(RngStream(2024, (0,)), 1_000_000)
    vals = nominal * (1.0 + delta * u)
    lo, hi = (1 - delta) * nominal, (1 + delta) * nominal
    assert vals.min() >= lo and vals.max() <= hi
    stderr = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - nominal) <= 3.0 * stderr
    assert vals.var() == pytest.approx((delta * nominal) ** 2 / 3.0, rel=0.01)


def test_state_forms():
    first = state(0.0, 0.0, False)
    np.testing.assert_allclose(first, [1.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        a = state(theta, phi, False)
        b = state(theta, phi, True)
        assert abs(np.vdot(a, b)) <= 1e-15


def test_sample_input_state_reads_block_rows():
    # one state per row of three doubles: consecutive calls on one stream walk
    # the rows of the block the estimator reads from its state stream
    block = RngStream(5, (0,)).generator.random((4, 3))
    s = RngStream(5, (0,))
    for row in block:
        np.testing.assert_array_equal(sample_input_state(s, haar=True),
                                      np.array(_input_amplitudes(row, True)))


def test_sample_input_state_normalized():
    s = RngStream(77, (0,))
    for _ in range(10_000):
        v = sample_input_state(s)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


def test_sample_input_state_theta_measures():
    # flat theta gives E[cos^2 theta] = 1/2; the sphere measure gives 1/3
    def mean_cos2(haar):
        s = RngStream(31415, (int(haar),))
        c2 = []
        for _ in range(20_000):
            v = sample_input_state(s, haar=haar)
            c2.append((abs(v[0]) ** 2 - abs(v[1]) ** 2) ** 2)
        return float(np.mean(c2))

    assert mean_cos2(False) == pytest.approx(0.5, abs=0.02)
    assert mean_cos2(True) == pytest.approx(1.0 / 3.0, abs=0.02)


def test_control_marginal_unpolarized():
    s = RngStream(99, (0,))
    sz = []
    for _ in range(20_000):
        v = sample_two_qubit_input(s)
        sz.append(abs(v[0]) ** 2 + abs(v[1]) ** 2 - abs(v[2]) ** 2 - abs(v[3]) ** 2)
    sz = np.asarray(sz)
    assert abs(sz.mean()) <= 4.0 * sz.std() / math.sqrt(sz.size)


def test_two_qubit_product_structure():
    np.testing.assert_allclose(
        np.kron(state(0.0, 0.0, False), state(math.pi, 0.0, False)),
        [0.0, 1.0, 0.0, 0.0], atol=1e-12)
    s = RngStream(11, (0,))
    for _ in range(2000):
        v = sample_two_qubit_input(s)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
