"""Seedable, path-keyed sampling of control fluctuations and input states.

Reproducibility contract: every random quantity is drawn from an RngStream
identified by (seed, path), non-negative integers of any width. Streams with distinct
paths are independent; the same (seed, path) replays bit-identical draws regardless of
evaluation order, worker count or platform; there is no global RNG state. A stream is
Philox4x64-10 (Salmon et al., SC11) under SeedSequence(entropy=seed,
spawn_key=path)'s key, run on uint64 arrays: numpy.random's doubles bit for
bit on any numpy version; numpy.random is unused (numpy 1.x imports it anyway).

Control noise is quasi-static: one fluctuation per gate run, frozen over
the cycle. The default draw is a single relative deviation u ~ U[-1, 1]
per shot scaled by the per-channel half-widths,

    omega0' = omega0 * (1 + delta0*u),    omega1' = omega1 * (1 + delta1*u),

so each parameter is flatly distributed in [(1-delta)*w, (1+delta)*w] and
the two channels fluctuate in lock-step (one field-amplitude error seen by
both). Setting NoiseSpec(independent=True) draws one u per channel instead.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np


class NoiseSpec(namedtuple("NoiseSpec", "delta0 delta1 independent")):
    """Relative half-widths of the flat fluctuation distributions.

    delta0 applies to omega0, delta1 to the longitudinal frequency. With
    independent=False (default) the two channels share one draw per shot.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, delta0: float, delta1: float, independent: bool = False):
        for name, d in (("delta0", delta0), ("delta1", delta1)):
            if not 0.0 <= d < 1.0:
                raise ValueError(f"{name} must satisfy 0 <= delta < 1, got {d}")
        return super().__new__(cls, delta0, delta1, independent)


# every uint64 operand is an np.uint64 or a uint64 array: under numpy 1.x's value-based
# casting uint64 with a Python int gives float64 or raises, and NEP 50 casts otherwise
_M32, _LO32, _S32, _S11 = 0xFFFFFFFF, np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
#: Philox4x64-10's multipliers (of words 0 and 2) and key increments, as columns
_MUL, _BUMP = np.array([[[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                        [[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]]], np.uint64)
#: counters per pass, at least and at most (a pass is ~180 ufunc calls at any size)
_PASS = (1 << 6, 1 << 12)


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix from the constant h, one 32-bit word a call."""
    def hashmix(v: int) -> int:
        nonlocal h
        v, h = v ^ h, h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _key(seed: int, path: tuple) -> np.ndarray:
    """The Philox key, a (2, 1) column, of numpy's SeedSequence(entropy=seed, spawn_key=path):
    seed's 32-bit words (4 if path is not empty) and path's, zeros too, hashed via a 4-word pool."""
    seed_words, *path_words = ([v >> s & _M32 for s in range(0, max(v.bit_length(), 1), 32)]
                               for v in (seed, *path))
    entropy = seed_words + ([0] * (4 - len(seed_words)) if path else []) + sum(path_words, [])
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(v) for v in (entropy + [0] * 4)[:4]]
    # each pool word d is mixed with the hash of every other, then of entropy[4:]
    for s, d in itertools.chain(itertools.permutations(range(4), 2),
                                itertools.product(range(4, len(entropy)), range(4))):
        r = (0xCA01F9DD * pool[d] - 0x4973F715 * hashmix(pool[s] if s < 4 else entropy[s])) & _M32
        pool[d] = r ^ r >> 16
    a, b, c, d = map(_hasher(0x8B51F9DD, 0x58F38DED), pool)
    return np.array([[a | b << 32], [c | d << 32]], np.uint64)


def _philox(first: int, count: int, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters (first + i, 0, 0, 0), i < count, as (count, 4)
    words: x holds words 0 and 2, which each round multiplies, y words 1 and 3."""
    x, y = np.zeros((2, 2, count), np.uint64)
    x[0] = np.arange(first, first + count, dtype=np.uint64)
    # numpy's uint64 multiply is faster on two arrays than on a broadcast column
    mul, mul_lo, mul_hi = (np.repeat(c, count, axis=1) for c in (_MUL, _MUL & _LO32, _MUL >> _S32))
    for _ in range(10):
        # the high words hi of mul*x from 32-bit halves: mid and lo stay below 2**64
        v0, v1 = x & _LO32, x >> _S32
        mid = v0 * mul_hi + (v0 * mul_lo >> _S32)
        lo = v1 * mul_lo + (mid & _LO32)
        hi = v1 * mul_hi + (mid >> _S32) + (lo >> _S32)
        # (x0, y0, x1, y1) <- (hi1 ^ y0 ^ k0, lo1, hi0 ^ y1 ^ k1, lo0), lo the low words
        x, y, key = hi[::-1] ^ y ^ key, (x * mul)[::-1], key + _BUMP
    return np.stack((x[0], y[0], x[1], y[1]), axis=1)


class RngStream:
    """One reproducible random stream, addressed by (seed, path).

    `child(*indices)` derives an independent sub-stream; drawing from a
    stream advances only that stream. Identical (seed, path) always replays
    the identical sequence.
    """

    __slots__ = ("seed", "path", "_key", "_counter", "_words")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed, self.path = int(seed), tuple(int(i) for i in path)
        if self.seed < 0 or any(i < 0 for i in self.path):
            raise ValueError(f"seed and path indices must be >= 0, got {self.seed}, {self.path}")
        self._key = None  # hashed at the first draw: a stream may only give children
        self._counter = 0  # the last counter used
        self._words = np.empty(0, np.uint64)  # generated and not drawn yet

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def random(self, shape) -> np.ndarray:
        """Doubles in [0, 1) of the given shape, row-major, in numpy Generator's order:
        counter 1 gives the first block of 4 words, blocks carry over between
        calls, and a word x gives the double (x >> 11) * 2**-53."""
        out = np.empty(shape)
        flat = out.reshape(-1)  # the part still to fill
        while flat.size:
            if not self._words.size:
                count = min(max((flat.size + 3) // 4, _PASS[0]), _PASS[1])
                self._key = _key(self.seed, self.path) if self._key is None else self._key
                self._words = _philox(self._counter + 1, count, self._key).reshape(-1)
                self._counter += count
            n = min(flat.size, self._words.size)
            np.multiply(self._words[:n] >> _S11, 2.0 ** -53, out=flat[:n])
            self._words, flat = self._words[n:].copy(), flat[n:]  # the copy frees a spent pass
        return out

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def relative_draws(rng: RngStream, n: int) -> np.ndarray:
    """n relative deviations u = -1 + 2*d ~ U[-1, 1), one per shot, as uniform(-1.0, 1.0)."""
    u = rng.random(n)
    return np.subtract(np.multiply(u, 2.0, out=u), 1.0, out=u)


def _input_amplitudes(u: np.ndarray, haar: bool = False):
    """Amplitudes (a0, a1) of the states drawn from rows u[..., :3] of doubles in [0, 1):
    theta = pi*u (arccos(1 - 2u) on the sphere measure), phi = 2*pi*u and a form bit,
    the partner form where u < 1/2."""
    theta = np.arccos(1.0 - 2.0 * u[..., 0]) if haar else np.pi * u[..., 0]
    phi = 2.0 * np.pi * u[..., 1]
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    partner = u[..., 2] < 0.5
    return np.where(partner, -s * em, c * em), np.where(partner, c * ep, s * ep)


def _input_bloch(u: np.ndarray, haar: bool = False) -> list:
    """Bloch vector [x, y, z] of _input_amplitudes' states, negated for the partner form."""
    theta = np.arccos(1.0 - 2.0 * u[..., 0]) if haar else np.pi * u[..., 0]
    sign, phi = np.where(u[..., 2] < 0.5, -1.0, 1.0), 2.0 * np.pi * u[..., 1]
    sin = sign * np.sin(theta)
    return [sin * np.cos(phi), sin * np.sin(phi), sign * np.cos(theta)]


def sample_input_state(rng: RngStream, haar: bool = False) -> np.ndarray:
    """Random qubit state [cos(t/2)e^{-ip/2}, sin(t/2)e^{ip/2}] or its
    orthogonal partner [-sin(t/2)e^{-ip/2}, cos(t/2)e^{ip/2}].

    theta is uniform on [0, pi] (set haar=True for the cos-weighted sphere
    measure instead), phi uniform on [0, 2*pi], and the partner form is
    taken with probability 1/2. Draw order: three doubles theta, phi, form, one row
    of the estimator's state block, which reads it as the Bloch vector (_input_bloch).
    """
    return np.array(_input_amplitudes(rng.random(3), haar), dtype=complex)


def sample_two_qubit_input(rng: RngStream, haar: bool = False) -> np.ndarray:
    """Product state (control sample) x (target sample) from one stream.

    Control is drawn first, then the target; both via sample_input_state.
    Basis order |00>, |01>, |10>, |11> with the first bit the control.
    """
    control = sample_input_state(rng, haar=haar)
    target = sample_input_state(rng, haar=haar)
    return np.kron(control, target)
