"""Monte Carlo estimation of average gate fidelity under control noise.

Protocol (two-level averaging): draw an input state, average the squared
overlap |<psi_in| U_ideal^dag U_noisy |psi_in>|^2 over M quasi-static noise
configurations, repeat for N input states, and report the grand mean with a
standard error taken across the N per-state means.

Both estimators run one loop. Gates are block diagonal in the control qubit
(a single qubit is one block), and inputs are product states c x t, so a
shot's amplitude is the control-weighted sum over the 2x2 blocks k

    A = sum_k w_k <t| U_k^dag U_k' |t>,    w_k = (1 +- z_c)/2,

where U_k is the ideal block (model.cycle_entries) and U_k' its noisy version
-cos(a)*I + i*sin(a)*(n.sigma) at the noisy cycle angle a = pi*Omega'/omega. Both
are in SU(2), so the term is real arithmetic on the target's Bloch vector (_table).
A single qubit has weights (1,); a control fixed to |0> or |1> has (1, 0) or (0, 1),
and a zero-weight block is skipped; an unfixed one is sampled, z_c its Bloch z.

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

A block's basis rows are r = 1/(1 + t^2), s*det, s*w0 and sigma = t*r, from one
tan of the half angle, t = tan(a/2), with s = sigma/Omega', so that cos(a) = 2r - 1
and sin(a) = 2*sigma; _rows alone computes them (real arithmetic, sqrt and tan,
which numpy vectorises, in place in work buffers), at a shot's draw or at a
Chebyshev node alike. The amplitude is 1 at u = 0, so a shot's is 1 + e, with e a
real table of per-state coefficients (_table) against the rows' change from u = 0, and
a state's mean fidelity is 1 plus the mean of 2*Re(e) + |e|^2, clamped at 1
(_means). No noise gives e == 0, hence F == 1.

Under lock-step draws the rows depend on one draw u in [-1, 1]. A point with m
>= _FIT_MIN_SHOTS sums its shots without visiting them when the Chebyshev fit
resolves its rows' change: 2*Re(e) + |e|^2 is then a polynomial in u, which
chebyshev.weights sums exactly from the power sums of the state's draws, shared
by every point of a batch. _change alone takes the rows' change at given u: for
the fit check in _paths, and at the nodes y for a fitted point, once, before the
states. This holds for both models; "phase" fluctuates the coupling as well, so
fewer of its points resolve (625 of fig3's 961 fixed0 points at the preset's
widths, none of fig1's or fig4's). The per-shot kernel, whose rows are taken at
each chunk of states' draws, runs for independent draws, below the crossover and
for a point the fit does not resolve. Both kinds of chunk run in one loop and end
in the same matrix product and _means. The path is chosen in _paths only, from
the point, the config and m, as a bool mask over the points; sweep.sweep_generic
computes it once per sweep, sizes its pool by the per-shot work it leaves and
passes each batch its slice.

Draw layout (version 2; tests rely on it): a batch reads two streams of
rng, each as a row-major block with one row per input state, in order and a
chunk of states at a time, so state j's draws do not depend on N. The state
stream rng.child(0) gives k doubles per row: theta, phi and a form bit
(noise.sample_input_state; read as a Bloch vector, noise._input_bloch), for the
control when it is sampled, then the target. The noise stream rng.child(1) gives
M deviations per row (2M, the omega0 half first, if NoiseSpec.independent). The
layout never depends on loop order, worker scheduling or the deltas, so a sweep
reusing one base stream sees common random numbers across its points.

Every point of a batch is evaluated on each chunk of states, on (points,
states, M or 2*NODES) arrays; the states per chunk depend on M only, and the table
rounds each element alone, so a point's estimate is the same bit for bit in a batch
of any size and in a one-point call (estimate_single, estimate_two_qubit).
EstimatorConfig is the one input and one check of options; sweep.sweep_generic
bounds the points per batch.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import CONTROL_MODES, GATE_MODELS, DriveParams, TwoQubitParams, blocks, cycle_entries
from .noise import NoiseSpec, RngStream, _input_bloch, relative_draws


class FidelityEstimate(namedtuple("FidelityEstimate", "mean stderr n_states")):
    """Grand-mean fidelity with its standard error over n_states input states."""

    __slots__ = ()


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration of the estimator, shared by every point of a sweep."""

    m: int = 500
    n: int = 500
    spec: NoiseSpec = NoiseSpec(0.1, 0.1)
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
        # the CLI's seeds are 64-bit words (RngStream takes any non-negative integer)
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


def _table(c: dict, w, b) -> np.ndarray:
    """Each point's coefficients per state against the rows of _rows, real then
    imaginary: (points, states, 2, 4*blocks), by real ufuncs on all blocks at once.

    With the ideal block -C*I + i*(Sz*sz + Sx*sx), the target's Bloch vector b, P =
    -(C*bz + Sx*by) and Q = Sz*by - C*bx, a block's w*<t|U^dag U'|t> is w*(C*cos(a) +
    sin(a)*(Sz*n_z + Sx*n_x)) + i*w*(cos(a)*(Sz*bz + Sx*bx) + sin(a)*(P*n_z + Q*n_x)).
    So each half (A, Y, Z) has 2w*(A, noisy*Y, noisy*Z, held_z*Y + held_x*Z) against
    the rows (cos(a) = 2r - 1, sin(a) = 2*sigma); its constant -w*A drops out.
    """
    (big_c, s_z, s_x), (noisy, held_z, held_x), (bx, by, bz) = c["ideal"], c["axis"], b
    halves = ((big_c, s_z, s_x),
              (s_z * bz + s_x * bx, -(big_c * bz + s_x * by), s_z * by - big_c * bx))
    table = np.stack(np.broadcast_arrays(*(2.0 * w * x for a, y, z in halves for x in (
        a, noisy * y, noisy * z, held_z * y + held_x * z))))[..., 0]
    # (2*4, blocks, points, states) to (points, states, 2, 4*blocks), contiguous for the matmul
    return np.ascontiguousarray(np.moveaxis(table, (0, 1), (2, 3))).reshape(*table.shape[2:], 2, -1)


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


def _weights(params: list, cfg: EstimatorConfig) -> tuple:
    """The blocks' control weights, None where the control is sampled per state,
    and the live blocks, those of nonzero weight."""
    fixed = {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}
    count = len(blocks(params[0]))
    weights = (1.0,) if count == 1 else fixed.get(cfg.control_mode)
    return weights, [k for k in range(count) if weights is None or weights[k] != 0.0]


def _change(c: dict, spec: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """The chunk c's basis rows at lock-step draws u less those at u = 0, (4, blocks,
    points, 1, len(u)), from one _rows call. The rows a block's axis does not read
    (s*det and s*w0 under a held axis, sigma under a noisy one) are zeroed: their
    coefficients in _table are exactly 0, so no product changes."""
    u = np.concatenate(([0.0], u))
    work = np.empty((5 * len(c["gain"]) + 2, len(c["pio"]), 1, len(u)))
    rows = _rows(c, 1.0 + spec.delta0 * u, 1.0 + spec.delta1 * u, work)
    change = rows[..., 1:] - rows[..., :1]
    change[1:3] *= c["axis"][0]
    change[3] *= 1.0 - c["axis"][0]
    return change


def _paths(params: list, cfg: EstimatorConfig) -> np.ndarray:
    """Per point, whether _estimate takes the Chebyshev sum: whether the fit of the
    rows' change (_change) on the nodes x meets it at the nodes y within
    chebyshev.TOLERANCE, never when it is not finite; all False, without loading
    chebyshev, for independent draws, m below _FIT_MIN_SHOTS or no points. It takes
    as many points at a time as keep a (blocks, points, 1 + len(u)) array within
    _CHUNK_ELEMENTS elements. A point's entry reads the point, the config and m
    only, so the mask of some of the points is the slice of theirs."""
    if cfg.spec.independent or cfg.m < _FIT_MIN_SHOTS or not params:
        return np.zeros(len(params), bool)
    # imported only here: runs that fit nothing never load it
    from .chebyshev import NODES, TOLERANCE, tables

    u, to_y, _ = tables()
    cols = _columns(params, _weights(params, cfg)[1], cfg)
    span = max(1, _CHUNK_ELEMENTS // (len(cols["gain"]) * (len(u) + 1)))
    resolved = []
    for lo in range(0, len(params), span):
        change = _change(_cut(cols, slice(lo, lo + span)), cfg.spec, u)
        at_x, at_y = change[..., :NODES], change[..., NODES:]
        resolved.append(np.abs(np.matmul(at_x, to_y) - at_y).max(axis=(0, 1, 3, 4)) <= TOLERANCE)
    return np.concatenate(resolved)


def _estimate(params: list, cfg: EstimatorConfig, rng: RngStream,
              resolved: np.ndarray | None = None) -> list:
    """Two-level average at each point; one FidelityEstimate per point.

    params holds DriveParams or TwoQubitParams, whose blocks (model.blocks)
    are weighted by cfg.control_mode, read for a conditional gate only. resolved
    is _paths(params, cfg), computed here when not given. All points share the
    draws: each chunk of states is drawn once and every point is evaluated on it,
    on (points, states, width) arrays of at most max(_CHUNK_ELEMENTS, width)
    elements, width the m shots of a per-shot point or the 2*chebyshev.NODES nodes
    of a fitted one. The (points, n) per-state means are held at once, so a caller
    bounds the points per call; a fitted point also holds its basis, the rows'
    change at the nodes (_change), 4*blocks*2*NODES doubles.
    """
    m, n, spec, haar = cfg.m, cfg.n, cfg.spec, cfg.haar
    # weights None samples the control per state
    weights, live = _weights(params, cfg)
    resolved = _paths(params, cfg) if resolved is None else resolved
    states = max(1, _CHUNK_ELEMENTS // m)
    points, b = len(params), len(live)
    # the gate model's columns and each block's ideal -C*I + i*(Sz*sz + Sx*sx) as (C, Sz, Sx)
    entries = [[cycle_entries(blocks(p)[k]) for p in params] for k in live]
    cols = dict(_columns(params, live, cfg), ideal=np.moveaxis(np.array(
        [[(-u00.real, u00.imag, u01.imag) for u00, u01, _ in row] for row in entries]), -1, 0))
    # the points whose fit resolves their rows take the Chebyshev sum on the nodes
    # y, the rest the per-shot kernel on their draws (nodes None)
    fitted, shot = np.flatnonzero(resolved), np.flatnonzero(~resolved)
    kinds = [(shot, None)]
    if len(fitted):
        from . import chebyshev

        kinds.insert(0, (fitted, chebyshev.tables()[0][chebyshev.NODES:]))
    # each chunk of points with one fixed array, a per-shot chunk's rows at u = 0 or a
    # fitted chunk's basis (_change); a pass of states builds the table for `group`
    # points (whole chunks) at a time, at most _CHUNK_ELEMENTS (point, state) pairs
    chunks = []
    for sel, nodes in kinds:
        width = m if nodes is None else len(nodes)
        step = max(1, _CHUNK_ELEMENTS // (min(states, n) * width))
        group = step * max(1, _CHUNK_ELEMENTS // min(states, n) // step)
        for lo in range(0, len(sel), step):
            idx = sel[lo:lo + step]
            c = _cut(cols, idx)
            if nodes is None:
                fixed = _rows(c, 1.0, 1.0, np.empty((5 * b + 2, len(idx), 1, 1)))
            else:
                fixed = np.moveaxis(_change(c, spec, nodes).reshape(4 * b, len(idx), 1, width), 0, 2)
            chunks.append((idx, sel[lo:lo + group] if lo % group == 0 else None, lo % group,
                           c, nodes is not None, fixed))

    state_rng, noise_rng = rng.child(0), rng.child(1)
    per_state = np.empty((points, n))
    views = {}
    for first in range(0, n, states):
        count = min(states, n - first)
        u = state_rng.random((count, 3 if weights is not None else 6))
        target = [x[None, :, None] for x in _input_bloch(u[:, -3:], haar)]
        # the live blocks' control weights, (blocks, 1, states or 1, 1); sampled, (1 +- z_c)/2
        w = np.reshape([weights[k] for k in live] if weights else
                       (1.0 + [[1.0], [-1.0]] * _input_bloch(u[:, :3], haar)[2]) / 2, (b, 1, -1, 1))
        draws = relative_draws(noise_rng, count * m * (1 + spec.independent)).reshape(1, count, -1)
        if len(fitted):
            # once the fit resolves the rows, 2*Re(e) + |e|^2 has degree < 2*NODES
            # in u, so a state's sum of it over its shots is exact on the nodes y,
            # weighted from the power sums of its draws
            weight = chebyshev.weights(draws[0])
        if len(shot):
            # omega1 reads the last m columns: omega0's draws unless independent
            noisy0 = 1.0 + spec.delta0 * draws[..., :m]
            scale = 1.0 + spec.delta1 * draws[..., -m:]
        for idx, grouped, offset, c, fit, fixed in chunks:
            if grouped is not None:
                table = _table(_cut(cols, grouped), w, target)
            shape = (len(idx), count, fixed.shape[-1] if fit else m)
            if shape not in views:
                # a chunk shape's work array (at most four shapes of each kind) and
                # its views for the matmul: (re, im) go where w0 and w0sq were
                work = np.empty((5 * b + 2, *shape))
                views[shape] = (work, np.moveaxis(work[:4 * b], 0, 2),
                                np.moveaxis(work[4 * b:4 * b + 2], 0, 2))
            work, basis, e = views[shape]
            if fit:
                basis = fixed
            else:
                rows = _rows(c, noisy0, scale, work)
                np.subtract(rows, fixed, out=rows)
            # each shot's amplitude is 1 + e, e = the table against the rows' change
            np.matmul(table[offset:offset + len(idx)], basis, out=e)
            per_state[idx, first:first + count] = _means(e, work[-1], m, weight if fit else None)

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
