"""Small complex linear algebra kernel for 2x2 / 4x4 gates and state vectors.

Everything is a plain numpy array: state vectors are shape-(d,) complex
arrays, gates are shape-(d, d), with d restricted to 2 or 4. All functions
are pure; dimension mismatches raise ValueError.
"""

import numpy as np

COMPLEX = np.complex128

IDENTITY_2 = np.eye(2, dtype=COMPLEX)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=COMPLEX)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=COMPLEX)


def as_state(amplitudes) -> np.ndarray:
    """Coerce to a complex state vector of dimension 2 or 4."""
    v = np.asarray(amplitudes, dtype=COMPLEX)
    if v.ndim != 1 or v.shape[0] not in (2, 4):
        raise ValueError(f"state vector must have dimension 2 or 4, got shape {v.shape}")
    return v


def as_gate(entries) -> np.ndarray:
    """Coerce to a complex square matrix of dimension 2 or 4."""
    m = np.asarray(entries, dtype=COMPLEX)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise ValueError(f"gate must be 2x2 or 4x4, got shape {m.shape}")
    return m


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """4x4 block-diagonal gate from two 2x2 blocks.

    Block `a` acts on the control-0 sector (|00>, |01>), block `b` on the
    control-1 sector (|10>, |11>); the off-diagonal sectors are exactly zero.
    """
    a, b = as_gate(a), as_gate(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("block_diag expects two 2x2 blocks")
    out = np.zeros((4, 4), dtype=COMPLEX)
    out[:2, :2] = a
    out[2:, 2:] = b
    return out
