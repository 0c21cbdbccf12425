"""Seedable, path-keyed sampling of control fluctuations and input states.

Reproducibility contract: every random quantity is drawn from an RngStream
identified by (seed, path). Streams with distinct paths are independent;
the same (seed, path) replays bit-identical draws regardless of evaluation
order, worker count or platform. Streams are built on numpy's counter-based
Philox generator keyed through SeedSequence, so there is no global RNG
state anywhere.

Control noise is quasi-static: one fluctuation per gate run, frozen over
the cycle. The default draw is a single relative deviation u ~ U[-1, 1]
per shot scaled by the per-channel half-widths,

    omega0' = omega0 * (1 + delta0*u),    omega1' = omega1 * (1 + delta1*u),

so each parameter is flatly distributed in [(1-delta)*w, (1+delta)*w] and
the two channels fluctuate in lock-step (one field-amplitude error seen by
both). Setting NoiseSpec(independent=True) draws one u per channel instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Relative half-widths of the flat fluctuation distributions.

    delta0 applies to omega0, delta1 to the longitudinal frequency. With
    independent=False (default) the two channels share one draw per shot.
    """

    delta0: float
    delta1: float
    independent: bool = False

    def __post_init__(self):
        for name, d in (("delta0", self.delta0), ("delta1", self.delta1)):
            if not 0.0 <= d < 1.0:
                raise ValueError(f"{name} must satisfy 0 <= delta < 1, got {d}")


class RngStream:
    """One reproducible random stream, addressed by (seed, path).

    `child(*indices)` derives an independent sub-stream; drawing from a
    stream advances only that stream. Identical (seed, path) always replays
    the identical sequence.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(int(i) for i in path)
        self._gen = None

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # spawn_key (not entropy) carries the path: entropy tuples are
            # assembled into one integer, which silently drops trailing zeros
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def relative_draws(rng: RngStream, n: int) -> np.ndarray:
    """n relative deviations u ~ U[-1, 1), one per shot."""
    return rng.generator.uniform(-1.0, 1.0, n)


def _input_amplitudes(u: np.ndarray, haar: bool = False):
    """Amplitudes (a0, a1) of the states drawn from rows u[..., :3] of doubles
    in [0, 1): theta, phi and a form bit taken as u < 1/2 (the partner form).

    theta = pi*u (arccos(1 - 2u) on the sphere measure), phi = 2*pi*u.
    """
    theta = np.arccos(1.0 - 2.0 * u[..., 0]) if haar else np.pi * u[..., 0]
    phi = 2.0 * np.pi * u[..., 1]
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    partner = u[..., 2] < 0.5
    return np.where(partner, -s * em, c * em), np.where(partner, c * ep, s * ep)


def sample_input_state(rng: RngStream, haar: bool = False) -> np.ndarray:
    """Random qubit state [cos(t/2)e^{-ip/2}, sin(t/2)e^{ip/2}] or its
    orthogonal partner [-sin(t/2)e^{-ip/2}, cos(t/2)e^{ip/2}].

    theta is uniform on [0, pi] (set haar=True for the cos-weighted sphere
    measure instead), phi uniform on [0, 2*pi], and the partner form is
    taken with probability 1/2. Draw order: three doubles theta, phi, form,
    mapped by _input_amplitudes as one row of the estimator's state block.
    """
    return np.array(_input_amplitudes(rng.generator.random(3), haar), dtype=complex)


def sample_two_qubit_input(rng: RngStream, haar: bool = False) -> np.ndarray:
    """Product state (control sample) x (target sample) from one stream.

    Control is drawn first, then the target; both via sample_input_state.
    Basis order |00>, |01>, |10>, |11> with the first bit the control.
    """
    control = sample_input_state(rng, haar=haar)
    target = sample_input_state(rng, haar=haar)
    return np.kron(control, target)
