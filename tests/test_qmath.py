"""Kernel algebra checks: block_diag."""

import numpy as np

from geomgate.qmath import IDENTITY_2, SIGMA_X, SIGMA_Z, block_diag


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
        g = block_diag(random_unitary(rng), random_unitary(rng))
        assert np.abs(g.conj().T @ g - np.eye(4)).max() <= 1e-12
    g = block_diag(2.0 * SIGMA_X, IDENTITY_2)
    assert np.abs(g.conj().T @ g - np.eye(4)).max() > 1.0
