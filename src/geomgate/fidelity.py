"""Monte Carlo estimation of average gate fidelity under control noise.

Protocol (two-level averaging): draw an input state, average the squared
overlap |<psi_in| U_ideal^dag U_noisy |psi_in>|^2 over M quasi-static noise
configurations, repeat for N input states, and report the grand mean with a
standard error taken across the N per-state means.

Both estimators run one loop. Gates are block diagonal in the control qubit
(a single qubit is one block), and inputs are product states c x t, so a
shot's amplitude is the control-weighted sum over the 2x2 blocks k

    A = sum_k w_k <t| U_k^dag U_k' |t>,    w_k = |c_k|^2,

where U_k is the ideal block and U_k' its noisy version. A single qubit has
weights (1,); a control fixed to |0> or |1> has (1, 0) or (0, 1), and a
zero-weight block is skipped; an unfixed control is sampled per state.

Two noisy-gate constructions are available:

* ``gate_model="phase"`` (default): the fluctuation enters through the
  acquired cycle phases. Each block keeps its nominal cyclic-state axis chi
  and picks up the total phase gamma' recomputed from the fluctuated fields;
  for conditional gates the relative draw multiplies the block-effective
  longitudinal frequency omega1 +- J. U_k^dag U_k' is then diagonal in the
  block's cyclic basis and the block term has the closed form

      <t| U_k^dag U_k' |t> = cos(d) + i*z*sin(d),    d = gamma' - gamma,

  with z the target's cyclic population difference (its Bloch vector
  projected on the chi axis). For one block F = 1 - (1 - z^2)*sin^2(d): the
  fidelity loss tracks the dynamic-phase content of the gate, which is what
  the parameter scans in this package probe.
* ``gate_model="propagator"``: the noisy gate is the exact one-cycle
  propagator at the fluctuated fields (axis wobble included); for
  conditional gates the physical omega1 is fluctuated first and the shift
  +-J applied afterwards. The block term is linear in the noisy one-cycle
  entries, with coefficients computed once per state.

Draw layout per input state j (frozen; tests rely on it): the state comes
from stream child (j, 0), control first then target when the control is
sampled; the noise deviations come from child (j, 1) as one block of M
draws (two blocks, omega0 first, if NoiseSpec.independent). The layout
never depends on loop order, worker scheduling, or the deltas, so a sweep
reusing one base stream sees common random numbers across its points.

The core takes a batch of points that share the base stream: it draws each
state once and evaluates every point of the batch on those draws, so a
point's estimate is the same bit for bit in a batch of any size and in a
one-point call (estimate_single, estimate_two_qubit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import _cycle_entries
from .model import DriveParams, TwoQubitParams
from .noise import NoiseSpec, RngStream, relative_draws, sample_input_state

GATE_MODELS = ("phase", "propagator")
CONTROL_MODES = ("fixed0", "fixed1", "unfixed")


@dataclass(frozen=True)
class FidelityEstimate:
    """Grand-mean fidelity with its standard error and sample bookkeeping."""

    mean: float
    stderr: float
    n_states: int
    n_shots: int
    seed: int


#: elements of one (points, m) array; bounds the memory of a chunk of points
_CHUNK_ELEMENTS = 1 << 12
#: per-state means held at once; more points take more passes over the draws
_PASS_ELEMENTS = 1 << 20


def _columns(rows) -> np.ndarray:
    """Per-point tuples of numbers as one (fields, points, 1) array."""
    return np.array(list(zip(*rows)))[:, :, None]


def _estimate(params: list, spec: NoiseSpec, m: int, n: int, rng: RngStream,
              gate_model: str, haar: bool, control_mode: str | None) -> list:
    """Two-level average at each point; one FidelityEstimate per point.

    params holds DriveParams, one block each, or TwoQubitParams, whose blocks
    sit at the target's omega1 -+ J and are weighted by control_mode (read
    for these only). All points share the draws: each state is drawn once
    and every point is evaluated on it, on (points, m) arrays of at most
    _CHUNK_ELEMENTS elements per chunk. More points than _PASS_ELEMENTS // n
    take one pass over the draws per group.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if gate_model not in GATE_MODELS:
        raise ValueError(f"gate_model must be one of {GATE_MODELS}, got {gate_model!r}")
    size = max(1, _PASS_ELEMENTS // n)
    if len(params) > size:
        return [est for lo in range(0, len(params), size)
                for est in _estimate(params[lo:lo + size], spec, m, n, rng,
                                     gate_model, haar, control_mode)]
    # each point as (p, shifts): its blocks sit at longitudinal frequencies
    # p.omega1 + shift; weights None samples the control per state
    if isinstance(params[0], TwoQubitParams):
        if control_mode not in CONTROL_MODES:
            raise ValueError(f"control_mode must be one of {CONTROL_MODES}, got {control_mode!r}")
        weights = {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}.get(control_mode)
        points = [(p2.target, (-p2.coupling_j, p2.coupling_j)) for p2 in params]
    else:
        weights, points = (1.0,), [(p, (0.0,)) for p in params]
    step = max(1, _CHUNK_ELEMENTS // m)
    chunks = []
    for lo in range(0, len(points), step):
        chunk = points[lo:lo + step]
        blocks = []
        for k in range(len(chunk[0][1])):
            rows, ideals = [], []
            for p, shifts in chunk:
                wl = p.omega1 + shifts[k]
                big = math.hypot(p.omega0, wl - p.omega)
                # (cos chi, sin chi) of the block's cyclic axis
                rows.append((shifts[k], wl, big, (wl - p.omega) / big, p.omega0 / big))
                ideals.append(_cycle_entries(p.omega, p.omega0, wl))
            blocks.append((_columns(rows), ideals))
        consts = _columns([(p.omega, np.pi / p.omega, p.omega0, p.omega1) for p, _ in chunk])
        chunks.append((slice(lo, lo + len(chunk)), consts, blocks))

    per_state = np.empty((len(points), n))
    for j in range(n):
        state_rng = rng.child(j, 0)
        w = weights
        if w is None:
            c0, c1 = sample_input_state(state_rng, haar=haar)
            w = (abs(c0) ** 2, abs(c1) ** 2)
        t0, t1 = sample_input_state(state_rng, haar=haar)
        noise_rng = rng.child(j, 1)
        u0 = relative_draws(noise_rng, m)
        u1 = relative_draws(noise_rng, m) if spec.independent else u0
        scale = 1.0 + spec.delta1 * u1
        bz = abs(t0) ** 2 - abs(t1) ** 2
        bx = 2.0 * (t0.conjugate() * t1).real
        for rows, consts, blocks in chunks:
            omega, pio, omega0, omega1 = consts
            w0 = omega0 * (1.0 + spec.delta0 * u0)
            # the models differ in the noisy longitudinal field: "phase" scales
            # the block frequency omega1 + shift, "propagator" shifts omega1*scale
            if gate_model == "phase":
                re = im = 0.0
                for wk, (table, _) in zip(w, blocks):
                    if wk == 0.0:
                        continue
                    _, wl, big, cos_chi, sin_chi = table
                    d = pio * (big - np.hypot(w0, wl * scale - omega))
                    re = re + wk * np.cos(d)
                    im = im + (wk * (cos_chi * bz + sin_chi * bx)) * np.sin(d)
                fid = re * re + im * im
            else:
                # the noisy block is -cos(a)*I + i*sin(a)*(det*sz + w0*sx)/big
                # (evolve._cycle_entries), so its term is linear in cos(a) and
                # sin(a)/big with coefficients <t|U_k^dag P|t> for P = I, sz, sx,
                # taken per point in scalar arithmetic as in a one-point call
                amp = 0.0
                for wk, (table, ideals) in zip(w, blocks):
                    if wk == 0.0:
                        continue
                    shift = table[0]
                    coefs = []
                    for i00, i01, i11 in ideals:
                        q0 = wk * (i00 * t0 + i01 * t1).conjugate()
                        q1 = wk * (i01 * t0 + i11 * t1).conjugate()
                        coefs.append((q0 * t0 + q1 * t1, 1j * (q0 * t0 - q1 * t1),
                                      1j * (q0 * t1 + q1 * t0)))
                    c_i, c_z, c_x = _columns(coefs)
                    det = omega1 * scale + shift - omega
                    big = np.hypot(w0, det)
                    a = pio * big
                    amp = amp - c_i * np.cos(a) + (np.sin(a) / big) * (c_z * det + c_x * w0)
                fid = amp.real ** 2 + amp.imag ** 2
            per_state[rows, j] = np.minimum(fid, 1.0).mean(axis=1)

    # one state gives no spread, hence no standard error
    return [FidelityEstimate(mean=float(row.mean()),
                             stderr=float(row.std(ddof=1) / np.sqrt(n)) if n > 1 else math.nan,
                             n_states=n, n_shots=m, seed=rng.seed)
            for row in per_state]


def estimate_single(
    p: DriveParams,
    spec: NoiseSpec,
    m: int,
    n: int,
    rng: RngStream,
    gate_model: str = "phase",
    haar: bool = False,
) -> FidelityEstimate:
    """Average fidelity of the noisy one-cycle gate at drive point p.

    m noise shots per state, n input states. The drive rate omega is never
    fluctuated.
    """
    return _estimate([p], spec, m, n, rng, gate_model, haar, None)[0]


def estimate_two_qubit(
    p2: TwoQubitParams,
    spec: NoiseSpec,
    m: int,
    n: int,
    rng: RngStream,
    control_mode: str = "unfixed",
    gate_model: str = "phase",
    haar: bool = False,
) -> FidelityEstimate:
    """Average fidelity of the noisy conditional gate.

    Both blocks see the same fluctuation draw per shot (one physical field).
    control_mode fixes the control qubit to |0> or |1>, or samples it
    ("unfixed") as an independent single-qubit state.
    """
    return _estimate([p2], spec, m, n, rng, gate_model, haar, control_mode)[0]
