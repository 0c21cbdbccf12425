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
  +-J applied afterwards. Its block term is linear in cos(a), sin(a)/Omega'
  at the noisy cycle angle a, with real and imaginary per-state coefficients.

Per shot both models run only real arithmetic, sqrt and tan, which numpy
vectorises: cos and sin come from one tan of the half angle (_cos_sin).

Draw layout (version 2; tests rely on it): a batch reads two streams of
rng, each as a row-major block with one row per input state, in order and a
chunk of states at a time, so state j's draws do not depend on N. The state
stream rng.child(0) gives k doubles per row: theta, phi and a form bit
(noise.sample_input_state), for the control when it is sampled, then the
target. The noise stream rng.child(1) gives M deviations per row (2M, the
omega0 half first, if NoiseSpec.independent). The layout never depends on
loop order, worker scheduling or the deltas, so a sweep reusing one base
stream sees common random numbers across its points.

Every point of a batch is evaluated on each chunk of states, on (points,
states, M) arrays; the states per chunk depend on M only, so a point's
estimate is the same bit for bit in a batch of any size and in a one-point
call (estimate_single, estimate_two_qubit). EstimatorConfig is the one
input and one check of options; sweep.sweep_generic bounds the points per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolve import _cycle_entries
from .model import DriveParams, TwoQubitParams
from .noise import NoiseSpec, RngStream, _input_amplitudes, relative_draws

GATE_MODELS = ("phase", "propagator")
CONTROL_MODES = ("fixed0", "fixed1", "unfixed")


@dataclass(frozen=True)
class FidelityEstimate:
    """Grand-mean fidelity with its standard error over n_states input states."""

    mean: float
    stderr: float
    n_states: int


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration of the estimator, shared by every point of a sweep."""

    m: int = 500
    n: int = 500
    spec: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.1, 0.1))
    seed: int = 0
    gate_model: str = "phase"
    haar: bool = False
    control_mode: str = "unfixed"
    workers: int = 1

    def __post_init__(self):
        for key in ("m", "n", "workers"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key, choices in (("gate_model", GATE_MODELS), ("control_mode", CONTROL_MODES)):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")


#: a (points, states, m) chunk array holds at most max(_CHUNK_ELEMENTS, m) elements
_CHUNK_ELEMENTS = 1 << 12


def _column(values: list) -> np.ndarray:
    """Per-point numbers as one contiguous (points, 1, 1) array."""
    return np.array(values, dtype=float)[:, None, None]


def _cos_sin(a):
    """cos(a), sin(a) from t = tan(a/2); t*t cannot overflow for a double a."""
    t = np.tan(0.5 * a)
    tt = t * t
    return (1.0 - tt) / (1.0 + tt), (t + t) / (1.0 + tt)


def _estimate(params: list, cfg: EstimatorConfig, rng: RngStream) -> list:
    """Two-level average at each point; one FidelityEstimate per point.

    params holds DriveParams, one block each, or TwoQubitParams, whose blocks
    sit at the target's omega1 -+ J and are weighted by cfg.control_mode
    (read for these only). All points share the draws: each chunk of states
    is drawn once and every point is evaluated on it, on (points, states, m)
    arrays of at most max(_CHUNK_ELEMENTS, m) elements. The (points, n)
    per-state means are held at once, so a caller bounds the points per call.
    """
    m, n, spec, haar = cfg.m, cfg.n, cfg.spec, cfg.haar
    # each point as (p, shifts): its blocks sit at longitudinal frequencies
    # p.omega1 + shift; weights None samples the control per state
    if isinstance(params[0], TwoQubitParams):
        weights = {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}.get(cfg.control_mode)
        points = [(p2.target, (-p2.coupling_j, p2.coupling_j)) for p2 in params]
    else:
        weights, points = (1.0,), [(p, (0.0,)) for p in params]
    states = max(1, _CHUNK_ELEMENTS // m)
    step = max(1, _CHUNK_ELEMENTS // (min(states, n) * m))
    chunks = []
    for lo in range(0, len(points), step):
        chunk = points[lo:lo + step]
        omega, omega0, omega1 = (_column([getattr(p, f) for p, _ in chunk])
                                 for f in ("omega", "omega0", "omega1"))
        blocks = []
        for k in range(len(chunk[0][1])):
            if weights is not None and weights[k] == 0.0:
                continue
            shift = _column([shifts[k] for _, shifts in chunk])
            wl = omega1 + shift
            det = wl - omega
            # the noisy magnitude is this expression too: no noise gives d == 0
            big = np.sqrt(omega0 * omega0 + det * det)
            # the block's cyclic axis (cos chi, sin chi) and its ideal entries
            blocks.append((k, shift, wl, big, det / big, omega0 / big,
                           _cycle_entries(omega, omega0, wl)))
        chunks.append((slice(lo, lo + len(chunk)), omega, np.pi / omega, omega0, omega1, blocks))

    state_rng, noise_rng = rng.child(0), rng.child(1)
    width = 3 if weights is not None else 6
    per_state = np.empty((len(points), n))
    for first in range(0, n, states):
        count = min(states, n - first)
        u = state_rng.generator.random((count, width))
        t0, t1 = (a[None, :, None] for a in _input_amplitudes(u[:, -3:], haar))
        w = weights or [abs(a[None, :, None]) ** 2 for a in _input_amplitudes(u[:, :3], haar)]
        draws = relative_draws(noise_rng, count * m * (1 + spec.independent)).reshape(1, count, -1)
        # omega1 reads the last m columns: omega0's draws unless independent
        noisy0 = 1.0 + spec.delta0 * draws[..., :m]
        scale = 1.0 + spec.delta1 * draws[..., -m:]
        bz = abs(t0) ** 2 - abs(t1) ** 2
        bx = 2.0 * (t0.conjugate() * t1).real
        for rows, omega, pio, omega0, omega1, blocks in chunks:
            w0 = omega0 * noisy0
            w0sq = w0 * w0
            re = im = 0.0
            # the models differ in the noisy longitudinal field: "phase" scales
            # the block frequency omega1 + shift, "propagator" shifts omega1*scale
            if cfg.gate_model == "phase":
                for k, _, wl, big, cos_chi, sin_chi, _ in blocks:
                    det = wl * scale - omega
                    cos_d, sin_d = _cos_sin(pio * (big - np.sqrt(w0sq + det * det)))
                    re = re + w[k] * cos_d
                    im = im + (w[k] * (cos_chi * bz + sin_chi * bx)) * sin_d
            else:
                # the noisy block is -cos(a)*I + i*sin(a)*(det*sz + w0*sx)/big
                # (evolve._cycle_entries), so its term is linear in cos(a) and
                # sin(a)/big with coefficients <t|U_k^dag P|t> for P = I, sz, sx
                w1 = omega1 * scale
                for k, shift, _, _, _, _, (i00, i01, i11) in blocks:
                    q0 = w[k] * (i00 * t0 + i01 * t1).conjugate()
                    q1 = w[k] * (i01 * t0 + i11 * t1).conjugate()
                    c_1, c_z, c_x = (-(q0 * t0 + q1 * t1), 1j * (q0 * t0 - q1 * t1),
                                     1j * (q0 * t1 + q1 * t0))
                    det = w1 + (shift - omega)
                    big = np.sqrt(w0sq + det * det)
                    cos_a, sin_a = _cos_sin(pio * big)
                    sin_a = sin_a / big
                    re = re + c_1.real * cos_a + sin_a * (c_z.real * det + c_x.real * w0)
                    im = im + c_1.imag * cos_a + sin_a * (c_z.imag * det + c_x.imag * w0)
            fid = re * re + im * im
            per_state[rows, first:first + count] = np.minimum(fid, 1.0).mean(axis=-1)

    # one state gives no spread, hence no standard error
    return [FidelityEstimate(mean=float(row.mean()),
                             stderr=float(row.std(ddof=1) / np.sqrt(n)) if n > 1 else math.nan,
                             n_states=n)
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
    cfg = EstimatorConfig(m=m, n=n, spec=spec, gate_model=gate_model, haar=haar)
    return _estimate([p], cfg, rng)[0]


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
    cfg = EstimatorConfig(m=m, n=n, spec=spec, gate_model=gate_model, haar=haar,
                          control_mode=control_mode)
    return _estimate([p2], cfg, rng)[0]
