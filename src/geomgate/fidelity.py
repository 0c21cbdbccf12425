"""Monte Carlo estimation of average gate fidelity under control noise.

Protocol (two-level averaging): draw an input state, average the squared
overlap |<psi_in| U_ideal^dag U_noisy |psi_in>|^2 over M quasi-static noise
configurations, repeat for N input states, and report the grand mean with a
standard error taken across the N per-state means.

Both estimators run one loop. Gates are block diagonal in the control qubit
(a single qubit is one block), and inputs are product states c x t, so a
shot's amplitude is the control-weighted sum over the 2x2 blocks k

    A = sum_k w_k <t| U_k^dag U_k' |t>,    w_k = |c_k|^2,

where U_k is the ideal block (model.cycle_entries) and U_k' its noisy version
-cos(a)*I + i*sin(a)*(n.sigma) at the noisy cycle angle a = pi*Omega'/omega.
A single qubit has weights (1,); a control fixed to |0> or |1> has (1, 0) or
(0, 1), and a zero-weight block is skipped; an unfixed control is sampled per state.

Both noisy-gate constructions are this one form, and the gate model is data
(_columns): where the draw enters the detuning, and the block axis n.

* ``gate_model="propagator"``: the exact one-cycle propagator at the fluctuated
  fields: the physical omega1 is fluctuated, then shifted by +-J, and n is the
  noisy field's axis (axis wobble included).
* ``gate_model="phase"`` (default): each block keeps its nominal cyclic axis chi
  and picks up the total phase recomputed from the fluctuated fields, with the
  draw scaling the block frequency omega1 +- J. Its closed form is
  <t| U_k^dag U_k' |t> = cos(d) + i*z*sin(d), d = gamma' - gamma, z the target's
  Bloch vector on the chi axis, so one block gives F = 1 - (1 - z^2)*sin^2(d):
  the loss tracks the gate's dynamic phase. It is the form's term under three
  substitutions: the ideal block -I, the cycle angle from its noise-free value
  (a = pi*(Omega' - Omega)/omega) and the axis held at its noise-free value. The
  first two together turn both blocks back by the noise-free angle about the held
  axis, which leaves U_k^dag U_k' as it is, so the kernel makes the third only.

Per shot a block writes the basis rows r = 1/(1 + t^2), s*det, s*w0 and sigma =
t*r from one tan of the half angle, t = tan(a/2), with s = sigma/Omega', so that
cos(a) = 2r - 1 and sin(a) = 2*sigma (_rows: real arithmetic, sqrt and tan, which
numpy vectorises, in place in work buffers). The amplitude is 1 at u = 0, so a
shot's is 1 + e, with e a table of per-state coefficients (_table) against the
rows' change from u = 0, and a state's mean fidelity is 1 plus the mean of
2*Re(e) + |e|^2, clamped at 1 (_means). No noise gives e == 0, hence F == 1.

Under lock-step draws the rows depend on one draw u in [-1, 1]. A point with m
>= _FIT_MIN_SHOTS sums its shots without visiting them when the Chebyshev fit of
module chebyshev resolves its rows' change: 2*Re(e) + |e|^2 is then a polynomial
in u, which chebyshev.weights sums exactly from the power sums of the state's
draws, shared by every point of a batch. This holds for both models; "phase"
fluctuates the coupling as well, so fewer of its points resolve (at the presets'
widths 625 of fig3's 961 with the control fixed to |0>, 55 of fig2's 255, none
of fig1's or fig4's). The per-shot kernel runs for independent draws, below the
crossover and for a point the fit does not resolve. The path is chosen in
_paths only, from the point, the config and m; sweep.sweep_generic reads it to
count the per-shot work that sizes its pool.

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

#: a lock-step point with this many shots per state tries the Chebyshev sum
#: (module chebyshev); below it the per-shot kernel runs
_FIT_MIN_SHOTS = 128


def _cos_sin(a):
    """cos(a), sin(a) from t = tan(a/2); t*t cannot overflow for a double a."""
    t = np.tan(0.5 * a)
    tt = t * t
    return (1.0 - tt) / (1.0 + tt), (t + t) / (1.0 + tt)


def _columns(params: list, live: list, cfg: EstimatorConfig) -> dict:
    """The gate model as data: the points' columns, arrays whose last axis is the
    point, with the live blocks first where a column is per block.

    omega0 and pio = pi/omega are the point's. Each block has the gain and offset
    of its noisy detuning det = gain*scale + offset, and its axis (noisy, held_z,
    held_x), the axis being noisy*(det, w0)/Omega' + held: "propagator" shifts
    omega1*scale by +-J and takes the noisy field's axis (1, 0, 0), "phase" scales
    the block frequency omega1 +- J and holds the axis at its noise-free value
    (0, cos chi, sin chi). The ideal entries are the same for both (_estimate).
    """
    targets = [getattr(p, "target", p) for p in params]
    omega, omega0, omega1 = (np.array([getattr(t, f) for t in targets], dtype=float)
                             for f in ("omega", "omega0", "omega1"))
    # each block's shift (2k - 1)*J (model.shifted_target); a drive point has no coupling
    shift = np.outer([2 * k - 1 for k in live], [getattr(p, "coupling_j", 0.0) for p in params])
    if cfg.gate_model == "phase":
        gain, offset = omega1 + shift, np.broadcast_to(-omega, shift.shape)
        det = gain + offset
        big = np.sqrt(omega0 * omega0 + det * det)
        axis = np.stack((np.zeros(shift.shape), det / big, omega0 / big))
    else:
        gain, offset = np.broadcast_to(omega1, shift.shape), shift - omega
        axis = np.stack((np.ones(shift.shape), *np.zeros((2, *shift.shape))))
    return {"omega0": omega0, "pio": np.pi / omega, "gain": gain, "offset": offset,
            "axis": axis}


def _cut(cols: dict, sel) -> dict:
    """The selected points' columns, shaped to broadcast against (points, states, m)."""
    return {key: col[..., sel, None, None] for key, col in cols.items()}


def _table(c: dict, w, t0, t1) -> np.ndarray:
    """Each point's coefficients per state against the rows of _rows, real then
    imaginary: (points, states, 2, 4*blocks).

    With c_P = w*<t|U^dag P|t> for the ideal block U, the noisy block
    -cos(a)*I + i*sin(a)*(n_z*sz + n_x*sx) has the term -c_I*cos(a) +
    2i*sigma*(c_z*n_z + c_x*n_x), sigma = sin(a)/2. With cos(a) = 2r - 1 and the
    axis n = noisy*(det, w0)/Omega' + held, the table holds -2*c_I, 2i*noisy*c_z,
    2i*noisy*c_x and 2i*(c_z*held_z + c_x*held_x); the constant c_I drops out of
    the rows' change from u = 0.
    """
    parts = []
    for k, (noisy, held_z, held_x) in enumerate(np.moveaxis(c["axis"], 1, 0)):
        # block by block: numpy's complex products round by the shape they run on
        i00, i01, i11 = c["ideal"][:, k]
        q0 = w[k] * (i00 * t0 + i01 * t1).conjugate()
        q1 = w[k] * (i01 * t0 + i11 * t1).conjugate()
        q0t0, q1t1 = q0 * t0, q1 * t1
        c_z, c_x = q0t0 - q1t1, q0 * t1 + q1 * t0
        parts.append((-2.0 * (q0t0 + q1t1), 2j * noisy * c_z, 2j * noisy * c_x,
                      2j * (c_z * held_z + c_x * held_x)))
    table = np.concatenate([x for kind in zip(*parts) for x in kind], axis=-1)
    return np.stack((table.real, table.imag), axis=-2)


def _rows(c: dict, noisy0, scale, work: np.ndarray) -> np.ndarray:
    """Each block's basis rows r, s*det, s*w0 and sigma at the noisy fields, (4,
    blocks, *shape), in work, (5*blocks + 2, *shape), which holds them, then w0,
    w0sq and big per block. One ufunc call per step for all blocks; det is written
    where s*det goes, t where sigma goes."""
    b = (len(work) - 2) // 5
    r, sdet, sw0, sigma = rows = work[:4 * b].reshape(4, b, *work.shape[1:])
    w0, w0sq, big = work[4 * b], work[4 * b + 1], work[4 * b + 2:]
    np.square(np.multiply(c["omega0"], noisy0, out=w0), out=w0sq)
    np.add(np.multiply(c["gain"], scale, out=sdet), c["offset"], out=sdet)
    np.sqrt(np.add(w0sq, np.square(sdet, out=big), out=big), out=big)
    np.tan(np.multiply(0.5 * c["pio"], big, out=sigma), out=sigma)
    np.divide(1.0, np.add(1.0, np.square(sigma, out=r), out=r), out=r)
    np.multiply(sigma, r, out=sigma)
    np.divide(sigma, big, out=big)
    np.multiply(big, sdet, out=sdet)
    np.multiply(big, w0, out=sw0)
    return rows


def _means(e: np.ndarray, out: np.ndarray, m: int, weight=None) -> np.ndarray:
    """Each state's mean fidelity: 1 plus the mean of its shots' 2*Re(e) + |e|^2
    (summed with the fit's weights, if given), clamped at 1, so F stays <= 1.
    e is (..., 2, shots), real then imaginary, and scratch; out takes the excess,
    rounded as (re + re) + (re*re + im*im)."""
    re, im = e[..., 0, :], e[..., 1, :]
    np.add(np.multiply(re, re, out=out), np.square(im, out=im), out=out)
    np.add(np.add(re, re, out=im), out, out=out)
    if weight is not None:
        np.multiply(out, weight, out=out)
    return np.minimum(1.0 + np.add.reduce(out, axis=-1) / m, 1.0)


def _paths(params: list, cfg: EstimatorConfig) -> tuple:
    """How _estimate evaluates the points: (weights, live, fit), chosen here only.

    weights are the blocks' control weights, None where the control is sampled per
    state; live lists the blocks of nonzero weight. fit is None when no point may
    take the Chebyshev sum (independent draws, m below _FIT_MIN_SHOTS); otherwise
    it is chebyshev.fits's (resolved, change), and a point takes the sum where
    resolved, the per-shot kernel elsewhere. The choice reads each point, the
    config and m only: the fit of some of the points is the slice of theirs
    (sweep.sweep_generic cuts it into its batches' shares).
    """
    fixed = {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}
    count = len(blocks(params[0]))
    weights = (1.0,) if count == 1 else fixed.get(cfg.control_mode)
    live = [k for k in range(count) if weights is None or weights[k] != 0.0]
    if cfg.spec.independent or cfg.m < _FIT_MIN_SHOTS:
        return weights, live, None
    # imported only here: runs that fit nothing never load it
    from . import chebyshev

    return weights, live, chebyshev.fits(params, live, cfg, _CHUNK_ELEMENTS)


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
    also holds its rows' change, 4*blocks*2*chebyshev.NODES doubles.
    """
    m, n, spec, haar = cfg.m, cfg.n, cfg.spec, cfg.haar
    # weights None samples the control per state
    weights, live, fit = paths or _paths(params, cfg)
    states = max(1, _CHUNK_ELEMENTS // m)
    step = max(1, _CHUNK_ELEMENTS // (min(states, n) * m))
    points, b = len(params), len(live)
    # the gate model's columns and each block's ideal entries (model.cycle_entries)
    gates = [blocks(p) for p in params]
    cols = dict(_columns(params, live, cfg), ideal=np.moveaxis(
        np.array([[cycle_entries(g[k]) for g in gates] for k in live]), -1, 0))
    # the points whose fit resolves their rows take the Chebyshev sum; the
    # per-shot kernel below runs on the rest, `shot`
    resolved, change = fit or (np.zeros(points, bool), None)
    fitted, shot = np.flatnonzero(resolved), np.flatnonzero(~resolved)
    if len(fitted):
        from . import chebyshev

        change = change[fitted]
        # the Chebyshev sum takes `pairs` (point, state) pairs at a time
        pairs = max(1, _CHUNK_ELEMENTS // (2 * chebyshev.NODES) // min(states, n))
    # each chunk of per-shot points with its rows at u = 0, where the kernel's
    # amplitude is 1: the rows are computed there as at the draws
    chunks = []
    for lo in range(0, len(shot), step):
        c = _cut(cols, shot[lo:lo + step])
        rows0 = _rows(c, 1.0, 1.0, np.empty((5 * b + 2, len(c["pio"]), 1, 1)))
        chunks.append((slice(lo, lo + len(c["pio"])), c, rows0))

    state_rng, noise_rng = rng.child(0), rng.child(1)
    width = 3 if weights is not None else 6
    per_state = np.empty((points, n))
    # a pass of states builds the table for `group` points (whole chunks) at a
    # time, at most _CHUNK_ELEMENTS (point, state) pairs
    group = step * max(1, _CHUNK_ELEMENTS // min(states, n) // step)
    views = {}
    for first in range(0, n, states):
        count = min(states, n - first)
        u = state_rng.generator.random((count, width))
        t0, t1 = (a[None, :, None] for a in _input_amplitudes(u[:, -3:], haar))
        # the live blocks' control weights, (blocks, 1, states or 1, 1)
        w = np.reshape([weights[k] for k in live] if weights else
                       [abs(a) ** 2 for a in _input_amplitudes(u[:, :3], haar)], (b, 1, -1, 1))
        draws = relative_draws(noise_rng, count * m * (1 + spec.independent)).reshape(1, count, -1)
        if len(fitted):
            # each shot's amplitude is 1 + e(u), e = the table against the rows' change
            # from u = 0. Once the fit resolves the rows, 2*Re(e) + |e|^2 has degree
            # < 2*NODES in u, so a state's sum of it over its shots is exact on the
            # nodes y, weighted from the power sums of its draws
            weight = chebyshev.weights(draws[0])
            for lo in range(0, len(fitted), pairs):
                e = np.matmul(_table(_cut(cols, fitted[lo:lo + pairs]), w, t0, t1),
                              change[lo:lo + pairs, None])
                per_state[fitted[lo:lo + pairs], first:first + count] = _means(
                    e, np.empty(e[..., 0, :].shape), m, weight)
        if not chunks:
            continue
        # omega1 reads the last m columns: omega0's draws unless independent
        noisy0 = 1.0 + spec.delta0 * draws[..., :m]
        scale = 1.0 + spec.delta1 * draws[..., -m:]
        for sel, c, rows0 in chunks:
            if sel.start % group == 0:
                table = _table(_cut(cols, shot[sel.start:sel.start + group]), w, t0, t1)
            shape = (sel.stop - sel.start, count, m)
            if shape not in views:
                # a chunk shape's work array (at most four shapes) and its views for
                # the matmul: (re, im) go where w0 and w0sq were
                work = np.empty((5 * b + 2, *shape))
                views[shape] = (work, np.moveaxis(work[:4 * b], 0, 2),
                                np.moveaxis(work[4 * b:4 * b + 2], 0, 2))
            work, basis_t, e = views[shape]
            # the same amplitude 1 + e as the fit's, e = the table against rows - rows0
            basis = _rows(c, noisy0, scale, work)
            np.subtract(basis, rows0, out=basis)
            np.matmul(table[sel.start % group:][:shape[0]], basis_t, out=e)
            per_state[shot[sel], first:first + count] = _means(e, work[-1], m)

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
