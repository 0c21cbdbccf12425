"""Determinism of the stream machinery and distribution checks on the samplers."""

import math
import tracemalloc

import numpy as np
import pytest

from geomgate.noise import (
    _PASS,
    NoiseSpec,
    RngStream,
    _input_amplitudes,
    _input_bloch,
    _philox,
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
    a = RngStream(1234, (5, 6)).random(100)
    b = RngStream(1234, (5, 6)).random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    base = RngStream(1234)
    seqs = [base.child(*path).random(8)
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
    s = RngStream(9, (4,))
    singles = np.array([relative_draws(s, 1)[0] for _ in range(16)])
    np.testing.assert_array_equal(block, singles)


def test_negative_seed_refused():
    # SeedSequence refuses a negative entropy, so such a seed names no stream;
    # keeping its low 64 bits would replay the stream of another seed
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(entropy=-17)
    with pytest.raises(ValueError, match=r"seed and path indices must be >= 0, got -17, \(\)"):
        RngStream(-17)


def test_wide_seed_keeps_all_its_bits():
    # a seed of 2**64 and above is hashed whole, as SeedSequence hashes it, so it
    # does not replay the seed of its low 64 bits
    for seed in (2**64 + 5, 2**64, 2**130 + 3):
        assert RngStream(seed).seed == seed
        assert not np.array_equal(RngStream(seed, (1,)).random(8),
                                  RngStream(seed % 2**64, (1,)).random(8))
        np.testing.assert_array_equal(RngStream(seed, (1,)).random(8),
                                      numpy_stream(seed, (1,)).random(8))


def test_negative_path_index_refused():
    # SeedSequence's spawn key takes non-negative integers only
    with pytest.raises(ValueError, match="path"):
        RngStream(1, (0, -1))


def numpy_stream(seed, path):
    """numpy's own generator on the stream (seed, path): the reference."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


# request sizes, in doubles, that cross the 4-word block, the smallest pass
# (4 * _PASS[0] words) and the largest (4 * _PASS[1] words)
SMALL, LARGE = 4 * _PASS[0], 4 * _PASS[1]
REQUESTS = [(1, 2, 3, 5, 7, 4, 1), (3,) * 200, (SMALL - 1, 2, SMALL, 6, 12000, 6),
            (LARGE + 3, 1, LARGE - 1, 2 * LARGE + 5), (6, 12000) * 3]


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1, 2**64 + 5])
def test_streams_match_numpy_philox_bit_for_bit(seed):
    # the stream is numpy's Generator(Philox(SeedSequence(entropy=seed,
    # spawn_key=path))) double for double, whatever sizes the draws come in
    for path in [(), (0,), (0, 1), (5, 6), (2**33, 0), (0, 0, 0)]:
        for sizes in REQUESTS:
            ours, ref = RngStream(seed, path), numpy_stream(seed, path)
            ours_u, ref_u = RngStream(seed, path), numpy_stream(seed, path)
            for n in sizes:
                np.testing.assert_array_equal(ours.random(n), ref.random(n))
                np.testing.assert_array_equal(relative_draws(ours_u, n),
                                              ref_u.uniform(-1.0, 1.0, n))
    np.testing.assert_array_equal(RngStream(seed, (3,)).random((5, 6)),
                                  numpy_stream(seed, (3,)).random((5, 6)))


def test_philox_known_answer():
    # Random123's known-answer vector for philox4x64-10: zero counter, zero key
    words = _philox(0, 1, np.zeros((2, 1), np.uint64))
    assert [f"{int(w):016x}" for w in words[0]] == [
        "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b"]


def test_large_draw_memory_is_bounded():
    # a pass of at most 4 * _PASS[1] words is converted straight into the
    # output, so a draw of 2M doubles holds little beside its own 15.3 MB
    tracemalloc.start()
    try:
        u = relative_draws(RngStream(3, (1,)), 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= u.nbytes + 2**20


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
    block = RngStream(5, (0,)).random((4, 3))
    s = RngStream(5, (0,))
    for row in block:
        np.testing.assert_array_equal(sample_input_state(s, haar=True),
                                      np.array(_input_amplitudes(row, True)))


@pytest.mark.parametrize("haar", [False, True])
def test_input_bloch_is_the_amplitudes_bloch_vector(haar):
    # the estimator reads a state row as its Bloch vector; it must be the one of
    # the amplitudes sample_input_state returns, the partner form's the opposite
    rows = RngStream(11, (0,)).random((4000, 3))
    a0, a1 = _input_amplitudes(rows, haar)
    overlap = a0.conjugate() * a1
    want = [2.0 * overlap.real, 2.0 * overlap.imag, abs(a0) ** 2 - abs(a1) ** 2]
    got = _input_bloch(rows, haar)
    for x, y in zip(got, want):
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sum(x * x for x in got), 1.0, rtol=0, atol=1e-15)
    partner = rows.copy()
    partner[:, 2] = 1.0 - partner[:, 2]
    for x, y in zip(_input_bloch(partner, haar), got):
        np.testing.assert_array_equal(x, -y)


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
