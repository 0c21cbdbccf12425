"""Kernel algebra checks: block_diag, overlap and the unitarity defect."""

import numpy as np
import pytest

from geomgate.qmath import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    block_diag,
    overlap,
    unitarity_defect,
)


def random_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_block_diag_trivial_and_routing():
    np.testing.assert_array_equal(block_diag(IDENTITY_2, IDENTITY_2), np.eye(4))
    g = block_diag(SIGMA_Z, IDENTITY_2)
    ket10 = np.zeros(4, dtype=complex)
    ket10[2] = 1.0
    np.testing.assert_array_equal(g @ ket10, ket10)


def test_block_diag_sectors_exactly_zero():
    rng = np.random.default_rng(5)
    g = block_diag(random_unitary(rng), random_unitary(rng))
    assert np.all(g[:2, 2:] == 0)
    assert np.all(g[2:, :2] == 0)


def test_block_diag_unitarity_iff_blocks_unitary():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = random_unitary(rng), random_unitary(rng)
        assert unitarity_defect(block_diag(a, b)) <= 1e-12
    assert unitarity_defect(block_diag(2.0 * SIGMA_X, IDENTITY_2)) > 1.0


def test_overlap_basics():
    rng = np.random.default_rng(23)
    v = random_state(rng)
    assert abs(overlap(v, v) - 1.0) <= 1e-14
    pair = np.array([v[0], v[1]]), np.array([-np.conj(v[1]), np.conj(v[0])])
    assert abs(overlap(*pair)) <= 1e-15


def test_overlap_completeness_relation():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = random_state(rng)
        a_perp = np.array([-np.conj(a[1]), np.conj(a[0])])
        b = random_state(rng)
        total = abs(overlap(a, b)) ** 2 + abs(overlap(a_perp, b)) ** 2
        assert abs(total - 1.0) <= 1e-12


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b = random_state(rng, 4), random_state(rng, 4)
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) <= 1e-15


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        overlap(np.array([1, 0], dtype=complex), np.zeros(4, dtype=complex))

