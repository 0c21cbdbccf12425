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
vectorises: cos and sin come from one tan of the half angle t (_cos_sin). The
propagator model runs its passes in place in work buffers (ufunc out=), one call
per step for all blocks stacked. Each block writes the basis rows r = 1/(1+t^2),
s*det and s*w0 with s = sin(a)/(2*Omega'), beside one row of ones (cos(a) = 2r-1);
one matmul against a table of real and imaginary coefficients (built for at most
_CHUNK_ELEMENTS (point, state) pairs at a time) sums them into each shot's
amplitude, and each state's mean fidelity is clamped at 1 ("phase": each shot's).

Under lock-step draws a point's basis rows depend on one draw u in [-1, 1], and
a "propagator" point with m >= _FIT_MIN_SHOTS sums its shots without visiting
them when the Chebyshev fit of module chebyshev resolves its rows' change from
u = 0. A shot's amplitude is 1 + e(u), with e the table against that change (the
amplitude is 1 at u = 0 in exact arithmetic), so a state's mean fidelity is 1
plus the mean of 2*Re(e) + |e|^2 over its draws, a polynomial in u that
chebyshev.weights sums exactly from the power sums of the state's draws; every
point of a batch shares them. The per-shot kernel runs for independent draws,
below the crossover _FIT_MIN_SHOTS and for a point the fit does not resolve. The
path is chosen in _paths only, from the point, the spec and m; sweep.sweep_generic
reads it to count the per-shot work that sizes its process pool.

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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import CONTROL_MODES, GATE_MODELS, DriveParams, TwoQubitParams, blocks, cycle_entries
from .noise import NoiseSpec, RngStream, _input_amplitudes, relative_draws


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
        for key in ("m", "n", "workers", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if key != "seed" and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        # RngStream keeps a seed's low 64 bits, so a wider seed would replay another
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        for key, choices in (("gate_model", GATE_MODELS), ("control_mode", CONTROL_MODES)):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")


#: the version of the draw layout above, which a sweep records as rng_layout
RNG_LAYOUT = 2

#: a (points, states, m) chunk array holds at most max(_CHUNK_ELEMENTS, m) elements
_CHUNK_ELEMENTS = 1 << 12

#: a lock-step propagator point with this many shots per state tries the Chebyshev
#: sum (module chebyshev); below it the per-shot kernel runs
_FIT_MIN_SHOTS = 128


def _column(values: list) -> np.ndarray:
    """Per-point numbers as one contiguous (points, 1, 1) array."""
    return np.array(values, dtype=float)[:, None, None]


def _cos_sin(a):
    """cos(a), sin(a) from t = tan(a/2); t*t cannot overflow for a double a."""
    t = np.tan(0.5 * a)
    tt = t * t
    return (1.0 - tt) / (1.0 + tt), (t + t) / (1.0 + tt)


def _ideal(gates: list, live: list) -> dict:
    """Each live block's ideal entries (model.cycle_entries) as (points, 1, 1) columns."""
    return {k: [np.array(c, dtype=complex)[:, None, None]
                for c in zip(*(cycle_entries(g[k]) for g in gates))] for k in live}


def _table(ideal: dict, sel: slice, w, t0, t1) -> np.ndarray:
    """Each selected point's coefficients per state, (points, states, 3*blocks + 1).

    The noisy block -cos(a)*I + i*sin(a)*(det*sz + w0*sx)/big (model.cycle_entries)
    has the term c_1*cos(a) + 2*s*(c_z*det + c_x*w0), c_P from <t|U_k^dag P|t>: the
    table holds 2*c_1, 2*c_z, 2*c_x of each block, then -sum_k c_1 for the ones row.
    """
    b = len(ideal)
    entries = [(k, [e[sel] for e in ideal[k]]) for k in ideal]
    c = np.zeros((len(entries[0][1][0]), t0.shape[1], 3 * b + 1), complex)
    for j, (k, (i00, i01, i11)) in enumerate(entries):
        q0 = w[k] * (i00 * t0 + i01 * t1).conjugate()
        q1 = w[k] * (i01 * t0 + i11 * t1).conjugate()
        q0t0, q1t1 = q0 * t0, q1 * t1
        minus_c1 = q0t0 + q1t1
        c[..., -1:] += minus_c1  # the ones row's -sum_k c_1
        np.multiply(-2.0, minus_c1, out=c[..., j:j + 1])
        np.multiply(2j, q0t0 - q1t1, out=c[..., b + j:b + j + 1])
        np.multiply(2j, q0 * t1 + q1 * t0, out=c[..., 2 * b + j:2 * b + j + 1])
    return c


def _paths(params: list, cfg: EstimatorConfig) -> tuple:
    """How _estimate evaluates the points: (weights, live, fit), chosen here only.

    weights are the blocks' control weights, None where the control is sampled per
    state; live lists the blocks of nonzero weight. fit is None when no point may
    take the Chebyshev sum (the "phase" model, independent draws, m below
    _FIT_MIN_SHOTS); otherwise it is chebyshev.fits's (resolved, change), and a
    point takes the sum where resolved, the per-shot kernel elsewhere. The choice
    reads each point, the spec and m only: the fit of some of the points is the
    slice of theirs (sweep.sweep_generic cuts it into its batches' shares).
    """
    fixed = {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}
    count = len(blocks(params[0]))
    weights = (1.0,) if count == 1 else fixed.get(cfg.control_mode)
    live = [k for k in range(count) if weights is None or weights[k] != 0.0]
    if cfg.gate_model != "propagator" or cfg.spec.independent or cfg.m < _FIT_MIN_SHOTS:
        return weights, live, None
    # imported only here: runs that fit nothing never load it
    from . import chebyshev

    return weights, live, chebyshev.fits(params, live, cfg.spec, _CHUNK_ELEMENTS)


def _estimate(params: list, cfg: EstimatorConfig, rng: RngStream,
              paths: tuple | None = None) -> list:
    """Two-level average at each point; one FidelityEstimate per point.

    params holds DriveParams or TwoQubitParams, whose blocks (model.blocks)
    are weighted by cfg.control_mode, read for a conditional gate only. paths
    is _paths(params, cfg), computed here when not given. All
    points share the draws: each chunk of states is drawn once and every
    point is evaluated on it, on (points, states, m) arrays of at most
    max(_CHUNK_ELEMENTS, m) elements. The (points, n) per-state means are
    held at once, so a caller bounds the points per call; a fitted point
    also holds its rows' change, 3*blocks*2*chebyshev.NODES doubles.
    """
    m, n, spec, haar = cfg.m, cfg.n, cfg.spec, cfg.haar
    # weights None samples the control per state
    weights, live, fit = paths or _paths(params, cfg)
    gates = [blocks(p) for p in params]
    states = max(1, _CHUNK_ELEMENTS // m)
    step = max(1, _CHUNK_ELEMENTS // (min(states, n) * m))
    points = len(params)
    # the points whose fit resolves their rows take the Chebyshev sum; the
    # per-shot kernel below runs on the rest, `shot`
    fitted = shot = ()
    if fit is not None:
        from . import chebyshev

        resolved, change = fit
        fitted, shot = np.flatnonzero(resolved), np.flatnonzero(~resolved)
        change = change[fitted]
        fit_ideal = _ideal([gates[i] for i in fitted], live)
        params, gates = [params[i] for i in shot], [gates[i] for i in shot]
        # the Chebyshev sum takes `pairs` (point, state) pairs at a time
        pairs = max(1, _CHUNK_ELEMENTS // (2 * chebyshev.NODES) // min(states, n))
    chunks = []
    for lo in range(0, len(params), step):
        chunk = params[lo:lo + step]
        # the physical fields; a drive point is its own target, with no coupling
        targets = [getattr(p, "target", p) for p in chunk]
        omega, omega0, omega1 = (_column([getattr(t, f) for t in targets])
                                 for f in ("omega", "omega0", "omega1"))
        # each model builds only what its kernel reads, per block of nonzero weight
        if cfg.gate_model == "phase":
            terms = []
            for k in live:
                # the block's frequency, rotation rate and cyclic axis (cos chi,
                # sin chi); the noisy rate is this expression too: no noise gives d == 0
                wl = _column([g[k].omega1 for g in gates[lo:lo + step]])
                det = wl - omega
                big = np.sqrt(omega0 * omega0 + det * det)
                terms.append((k, wl, big, det / big, omega0 / big))
        else:
            # (blocks, points, 1, 1): each block's shift (2k - 1)*J (shifted_target) minus omega
            coupling = _column([getattr(p, "coupling_j", 0.0) for p in chunk])
            terms = np.stack([(2 * k - 1) * coupling - omega for k in live])
        chunks.append((slice(lo, lo + len(chunk)), omega, np.pi / omega, omega0, omega1, terms))

    state_rng, noise_rng = rng.child(0), rng.child(1)
    width = 3 if weights is not None else 6
    per_state = np.empty((points, n))
    # the per-shot kernel's means, in the order of `shot` when some points are fitted
    per_shot = np.empty((len(params), n)) if len(fitted) else per_state
    if cfg.gate_model == "propagator":
        # a pass of states builds the table for `group` points (whole chunks) at a
        # time, at most _CHUNK_ELEMENTS (point, state) pairs
        ideal = _ideal(gates, live)
        group = step * max(1, _CHUNK_ELEMENTS // min(states, n) // step)
        views, b = {}, len(live)
    for first in range(0, n, states):
        count = min(states, n - first)
        u = state_rng.generator.random((count, width))
        t0, t1 = (a[None, :, None] for a in _input_amplitudes(u[:, -3:], haar))
        w = weights or [abs(a[None, :, None]) ** 2 for a in _input_amplitudes(u[:, :3], haar)]
        draws = relative_draws(noise_rng, count * m * (1 + spec.independent)).reshape(1, count, -1)
        if len(fitted):
            # each shot's amplitude is 1 + e(u), e = the table against the rows' change
            # from u = 0 (where the amplitude is 1 in exact arithmetic). Once the fit
            # resolves the rows, |1 + e|^2 - 1 = 2*Re(e) + |e|^2 has degree < 2*NODES
            # in u, so a state's sum of it over its shots is exact on the nodes y,
            # weighted from the power sums of its draws; the mean carries this loss
            weight = chebyshev.weights(draws[0])
            for lo in range(0, len(fitted), pairs):
                c = _table(fit_ideal, slice(lo, lo + pairs), w, t0, t1)
                e = np.matmul(np.stack((c.real, c.imag), axis=-2)[..., :-1],
                              change[lo:lo + pairs, None])
                re, im = e[..., 0, :], e[..., 1, :]
                # the state's mean fidelity minus 1
                excess = np.add.reduce(((re + re) + (re * re + im * im)) * weight, axis=-1) / m
                per_state[fitted[lo:lo + pairs], first:first + count] = np.minimum(
                    1.0 + excess, 1.0)
        if not chunks:
            continue
        # omega1 reads the last m columns: omega0's draws unless independent
        noisy0 = 1.0 + spec.delta0 * draws[..., :m]
        scale = 1.0 + spec.delta1 * draws[..., -m:]
        bz = abs(t0) ** 2 - abs(t1) ** 2
        bx = 2.0 * (t0.conjugate() * t1).real
        for rows, omega, pio, omega0, omega1, terms in chunks:
            # the models differ in the noisy longitudinal field: "phase" scales
            # the block frequency omega1 + shift, "propagator" shifts omega1*scale
            if cfg.gate_model == "phase":
                w0 = omega0 * noisy0
                w0sq = w0 * w0
                re = im = 0.0
                for k, wl, big, cos_chi, sin_chi in terms:
                    det = wl * scale - omega
                    cos_d, sin_d = _cos_sin(pio * (big - np.sqrt(w0sq + det * det)))
                    re = re + w[k] * cos_d
                    im = im + (w[k] * (cos_chi * bz + sin_chi * bx)) * sin_d
                fid = re * re + im * im
                np.minimum(fid, 1.0, out=fid)
                # fid.mean(axis=-1) without its Python overhead, the same sum and division
                per_state[rows, first:first + count] = np.add.reduce(fid, axis=-1) / m
                continue
            if rows.start % group == 0:
                c = _table(ideal, slice(rows.start, rows.start + group), w, t0, t1)
                table = np.stack((c.real, c.imag), axis=-2)
            shape = (rows.stop - rows.start, count, m)
            if shape not in views:
                # a chunk shape's buffers (at most four shapes): w0, w0sq, w1, (re, im),
                # big and t per block; the basis rows r, s*det, s*w0 per block, then ones
                work, basis = np.empty((5 + 2 * b, *shape)), np.ones((3 * b + 1, *shape))
                views[shape] = (*work[:3], work[3:5], *work[5:].reshape(2, b, *shape),
                                *np.split(basis[:-1], 3), np.moveaxis(basis, 0, 2),
                                np.moveaxis(work[3:5], 0, 2))
            w0, w0sq, w1, ri, big, t, r, sdet, sw0, basis_t, ri_t = views[shape]
            np.square(np.multiply(omega0, noisy0, out=w0), out=w0sq)
            np.multiply(omega1, scale, out=w1)
            # one call per step for all blocks; det is written where s*det goes
            np.add(w1, terms, out=sdet)
            np.multiply(sdet, sdet, out=big)
            np.sqrt(np.add(w0sq, big, out=big), out=big)
            np.tan(np.multiply(0.5 * pio, big, out=t), out=t)  # t = tan(a/2), as in _cos_sin
            np.add(1.0, np.multiply(t, t, out=r), out=r)
            np.divide(t, np.multiply(big, r, out=big), out=t)  # s = sin(a)/(2*big)
            np.divide(1.0, r, out=r)  # r = 1/(1 + t*t), so cos(a) = 2*r - 1
            np.multiply(t, sdet, out=sdet)
            np.multiply(t, w0, out=sw0)
            np.matmul(table[rows.start % group:][:shape[0]], basis_t, out=ri_t)
            # one sum of re^2 + im^2 per state; its mean is clamped at 1, so F stays <= 1
            fid = np.add(*np.square(ri, out=ri), out=ri[0])
            per_shot[rows, first:first + count] = np.minimum(np.add.reduce(fid, axis=-1) / m, 1.0)
    if len(fitted):
        per_state[shot] = per_shot

    # per_state.std(axis=1, ddof=1) by numpy's own steps, in per_state's buffer rather
    # than a (points, n) copy; one state gives no spread, hence no standard error
    means, errors = per_state.mean(axis=1), [math.nan] * points
    if n > 1:
        spread = np.square(np.subtract(per_state, means[:, None], out=per_state), out=per_state)
        errors = np.sqrt(np.add.reduce(spread, axis=1) / (n - 1)) / np.sqrt(n)
    return [FidelityEstimate(mean=float(mean), stderr=float(err), n_states=n)
            for mean, err in zip(means, errors)]


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
