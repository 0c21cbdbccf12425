"""Grid scans over control parameters, with four built-in scan presets.

Each preset resolves its grid into SweepPoints, evaluates the fidelity
estimator at every feasible point, and returns a SweepResult whose rows
carry the fidelity estimate plus the noise-free phases so fidelity/phase
correlations can be plotted without rerunning.

Determinism: a row's values depend only on (seed, point parameters, m, n,
noise spec, estimator options) - never on grid shape, point order, or the
worker count. All points of a sweep share one base random stream (common
random numbers), which makes curves smooth in the scan coordinate and
argmax localization stable. A sweep builds every row in process and runs
in process unless its per-shot work (m*n shots per feasible point that
runs the per-shot kernel, from one path mask per sweep) pays for more than
one process, _PROCESS_SHOTS each (sweep_generic). It cuts its feasible
points into contiguous batches, at least one per process and at most
_PASS_ELEMENTS // n points each; a batch reads the two draw streams of
fidelity's layout (rng_layout in the metadata, fidelity.RNG_LAYOUT) and
evaluates all of its points on them, with the values of one-point
estimates. fidelity.EstimatorConfig holds and checks the options.

Presets (defaults in PRESETS, each overridable by a keyword of its sweep_figN):

* fig1: single-qubit, total phase fixed at -beta*pi, axes (omega0,
  Delta/omega0) with omega1 on the zero-dynamic line plus Delta.
* fig2: single-qubit, omega0 fixed, one curve per delta1 at the delta0 of
  the noise spec, axis Delta/omega0.
* fig3: conditional gate, log-spaced (omega0, omega1) plane at fixed alpha,
  control fixed to |0>.
* fig4: conditional gate, omega1 fixed, one curve per alpha over an omega0
  grid, control unfixed.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import __version__
from .fidelity import RNG_LAYOUT, EstimatorConfig, _estimate, _paths
from .model import (
    PRESET_NAMES,
    DriveParams,
    InfeasibleParameters,
    blocks,
    chi_angle,
    omega_for_beta,
    phases,
    two_qubit_from_alpha,
    zero_dynamic_omega1,
)
from .noise import NoiseSpec, RngStream

SINGLE_STREAM_TAG = 1
TWO_QUBIT_STREAM_TAG = 2

SINGLE_COLUMNS = [
    "omega0", "delta_over_omega0", "omega1", "omega", "feasible",
    "F_mean", "F_stderr", "gamma", "gamma_g", "gamma_d", "chi", "m", "n", "seed",
]
TWO_QUBIT_COLUMNS = SINGLE_COLUMNS + [
    "alpha", "J", "gamma_d_0", "gamma_d_1", "chi_0", "chi_1", "control_mode",
]

#: per-state means a batch holds at once, (points, n); bounds its points
_PASS_ELEMENTS = 1 << 20

#: per-shot kernel shots (points * m * n) that pay for starting one worker process
_PROCESS_SHOTS = 1 << 22


class SweepPoint(namedtuple("SweepPoint", "coords kind params feasible reason",
                             defaults=(True, None))):
    """One grid point: named coordinates, kind ("single" or "two_qubit"), parameters.

    params is None when the point violates a reality constraint; the point
    is still emitted, flagged infeasible, with the violation recorded.
    """

    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "columns rows metadata")):
    """A scan's column names, its rows (dicts keyed by column name) and its metadata."""

    __slots__ = ()


def _point(coords: dict, kind: str, resolve) -> SweepPoint:
    """The point whose parameters resolve() returns; where they are infeasible
    the point is flagged with the violation, never given made-up values."""
    try:
        return SweepPoint(coords=coords, kind=kind, params=resolve())
    except InfeasibleParameters as err:
        return SweepPoint(coords=coords, kind=kind, params=None, feasible=False, reason=str(err))


def single_point(omega0: float, delta_rel: float, beta: float, branch: str) -> SweepPoint:
    """Single-qubit point at total phase -beta*pi, Delta/omega0 off the zero-dynamic line."""
    omega1 = zero_dynamic_omega1(omega0, beta) + delta_rel * omega0
    return _point({"omega0": omega0, "delta_over_omega0": delta_rel}, "single",
                  lambda: DriveParams(omega_for_beta(omega0, omega1, beta, branch), omega0, omega1))


def two_qubit_point(omega0: float, omega1: float, alpha: float) -> SweepPoint:
    """Conditional-gate point with coupling J = alpha*omega0."""
    return _point({"omega0": omega0, "omega1": omega1, "alpha": alpha}, "two_qubit",
                  lambda: two_qubit_from_alpha(omega0, omega1, alpha))


def _row(point: SweepPoint, cfg: EstimatorConfig) -> dict:
    """A point's row: coordinates, resolved parameters and noise-free phases;
    the base phase columns are block 0's, gamma_d_k and chi_k block k's."""
    columns = SINGLE_COLUMNS if point.kind == "single" else TWO_QUBIT_COLUMNS
    values = {**point.coords, "m": cfg.m, "n": cfg.n, "seed": cfg.seed,
              "feasible": point.feasible}
    if point.feasible:
        p = point.params
        # a drive point is its own target, with no coupling
        t = getattr(p, "target", p)
        values.update(omega0=t.omega0, omega1=t.omega1, omega=t.omega,
                      alpha=getattr(p, "alpha", None), J=getattr(p, "coupling_j", None),
                      control_mode=cfg.control_mode)
        for k, blk in enumerate(blocks(p)):
            tri, chi = phases(blk), chi_angle(blk)
            if k == 0:
                values.update(gamma=tri.gamma, gamma_g=tri.gamma_g, gamma_d=tri.gamma_d, chi=chi)
            values[f"gamma_d_{k}"], values[f"chi_{k}"] = tri.gamma_d, chi
    return {c: values.get(c) for c in columns}


def _eval_batch(args) -> list:
    """The estimates of a batch of feasible parameters, on the sweep's base stream;
    resolved is fidelity._paths of them."""
    params, cfg, resolved = args
    tag = SINGLE_STREAM_TAG if isinstance(params[0], DriveParams) else TWO_QUBIT_STREAM_TAG
    return _estimate(params, cfg, RngStream(cfg.seed).child(tag), resolved)


def sweep_generic(points: list[SweepPoint], cfg: EstimatorConfig,
                  metadata: dict | None = None) -> SweepResult:
    """Evaluate the configured estimator at every point, in point order.

    Every row is built here, in the calling process. The feasible points'
    parameters are cut into contiguous batches, at least one per process used
    and at most _PASS_ELEMENTS // cfg.n points each, whose estimates fill in
    their rows. The path mask (fidelity._paths) is computed once per sweep and
    sliced per batch. The processes are min(cfg.workers, os.cpu_count(),
    feasible points, per-shot work // _PROCESS_SHOTS), the per-shot work being
    m*n shots per point the mask leaves to the per-shot kernel: a fitted point
    counts none, since its cost does not grow with m and every batch repeats
    its draws and power sums. With at most one process the batches run in
    process, else in a pool of that many. Output is identical byte for byte
    whatever the batching.
    """
    if not points:
        raise ValueError("points must be non-empty")
    kinds = {p.kind for p in points}
    if len(kinds) != 1:
        raise ValueError(f"mixed point kinds in one sweep: {kinds}")
    columns = SINGLE_COLUMNS if points[0].kind == "single" else TWO_QUBIT_COLUMNS
    rows = [_row(point, cfg) for point in points]
    feasible = [row for row, point in zip(rows, points) if point.feasible]
    params = [point.params for point in points if point.feasible]
    resolved = _paths(params, cfg)
    shots = cfg.m * cfg.n * int(np.count_nonzero(~resolved))
    procs = min(cfg.workers, os.cpu_count() or 1, len(params), shots // _PROCESS_SHOTS)
    count = max(procs, math.ceil(len(params) / max(1, _PASS_ELEMENTS // cfg.n)))
    cuts = [slice(len(params) * b // count, len(params) * (b + 1) // count) for b in range(count)]
    jobs = [(params[cut], cfg, resolved[cut]) for cut in cuts]
    if procs > 1:
        # imported only here: one-process runs and the CLI's import never load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            batches = list(pool.map(_eval_batch, jobs))
    else:
        batches = [_eval_batch(job) for job in jobs]
    for row, est in zip(feasible, itertools.chain.from_iterable(batches)):
        row["F_mean"] = est.mean
        row["F_stderr"] = None if math.isnan(est.stderr) else est.stderr
    meta = {
        "version": __version__,
        "seed": cfg.seed,
        "m": cfg.m,
        "n": cfg.n,
        "delta0": cfg.spec.delta0,
        "delta1": cfg.spec.delta1,
        "independent": cfg.spec.independent,
        "gate_model": cfg.gate_model,
        "haar": cfg.haar,
        "workers": cfg.workers,
        "rng_layout": RNG_LAYOUT,
    }
    if points[0].kind == "two_qubit":
        meta["control_mode"] = cfg.control_mode
    if metadata:
        meta.update(metadata)
    return SweepResult(columns=columns, rows=rows, metadata=meta)


# ---------------------------------------------------------------------------
# presets


class Preset(namedtuple("Preset", "spec control_mode options grids")):
    """One figure's defaults, read both by its sweep_figN and by the CLI.

    options maps each keyword of sweep_figN that the CLI fills from the option
    of the same name to its default; a `_list` keyword is filled from its
    option without the suffix, one given value making a one-entry list.
    grids maps the keywords only a library call can change. control_mode is
    None for a single-qubit preset, which has no control qubit.
    """

    __slots__ = ()


_FIG1, _FIG2, _FIG3, _FIG4 = (
    Preset(NoiseSpec(0.1, 0.1), None, {"beta": 1.5, "branch": "minus"}, {
        "omega0_grid": tuple((0.25 * k) * 1e5 for k in range(1, 9)),
        "delta_grid": tuple(np.linspace(0.0, 4.0, 41))}),
    Preset(NoiseSpec(0.1, 0.1), None, {
        "delta1_list": (0.01, 0.02, 0.04, 0.06, 0.1), "omega0": 1e5, "beta": 1.5,
        "branch": "minus"}, {
        "delta_grid": tuple(np.linspace(0.0, 5.0, 51))}),
    Preset(NoiseSpec(0.1, 0.1), "fixed0", {"alpha": math.sqrt(3)}, {
        "omega0_grid": tuple(np.logspace(math.log10(5.0), math.log10(50.0), 31)),
        "omega1_grid": tuple(np.logspace(math.log10(10.0), math.log10(100.0), 31))}),
    Preset(NoiseSpec(0.05, 0.05), "unfixed", {"omega1": 60.0}, {
        "omega0_grid": tuple(np.linspace(2.0, 40.0, 39)),
        "alpha_list": tuple(math.sqrt(a) for a in (3, 8, 15, 35, 143))}),
)
PRESETS = dict(zip(PRESET_NAMES, (_FIG1, _FIG2, _FIG3, _FIG4), strict=True))


def sweep_fig1(omega0_grid=_FIG1.grids["omega0_grid"], delta_grid=_FIG1.grids["delta_grid"],
               beta: float = _FIG1.options["beta"], branch: str = _FIG1.options["branch"],
               cfg: EstimatorConfig | None = None) -> SweepResult:
    """Single-qubit scan over (omega0, Delta/omega0) at fixed total phase -beta*pi."""
    cfg = cfg or EstimatorConfig(spec=_FIG1.spec)
    points = [single_point(w0, d, beta, branch) for w0 in omega0_grid for d in delta_grid]
    meta = {"preset": "fig1", "beta": beta, "branch": branch,
            "omega0_grid": list(omega0_grid), "delta_grid": list(delta_grid)}
    return sweep_generic(points, cfg, meta)


def sweep_fig2(delta_grid=_FIG2.grids["delta_grid"], delta1_list=_FIG2.options["delta1_list"],
               omega0: float = _FIG2.options["omega0"], beta: float = _FIG2.options["beta"],
               branch: str = _FIG2.options["branch"],
               cfg: EstimatorConfig | None = None) -> dict:
    """Single-qubit curves versus Delta/omega0, one per delta1 value.

    Every curve runs at cfg.spec with its own delta1. Returns
    {delta1: SweepResult}. The phase columns are noise-independent, so they
    repeat across the returned results.
    """
    cfg = cfg or EstimatorConfig(spec=_FIG2.spec)
    points = [single_point(omega0, d, beta, branch) for d in delta_grid]
    meta = {"preset": "fig2", "beta": beta, "branch": branch, "omega0": omega0,
            "delta_grid": list(delta_grid), "delta1_list": list(delta1_list)}
    out = {}
    for d1 in delta1_list:
        sub = replace(cfg, spec=cfg.spec._replace(delta1=d1))
        out[d1] = sweep_generic(points, sub, meta)
    return out


def sweep_fig3(omega0_grid=_FIG3.grids["omega0_grid"], omega1_grid=_FIG3.grids["omega1_grid"],
               alpha: float = _FIG3.options["alpha"],
               cfg: EstimatorConfig | None = None) -> SweepResult:
    """Conditional-gate scan over a log-spaced (omega0, omega1) plane."""
    cfg = cfg or EstimatorConfig(spec=_FIG3.spec, control_mode=_FIG3.control_mode)
    points = [two_qubit_point(w0, w1, alpha) for w0 in omega0_grid for w1 in omega1_grid]
    meta = {"preset": "fig3", "alpha": alpha,
            "omega0_grid": list(omega0_grid), "omega1_grid": list(omega1_grid)}
    return sweep_generic(points, cfg, meta)


def sweep_fig4(omega0_grid=_FIG4.grids["omega0_grid"], alpha_list=_FIG4.grids["alpha_list"],
               omega1: float = _FIG4.options["omega1"],
               cfg: EstimatorConfig | None = None) -> SweepResult:
    """Conditional-gate curves versus omega0 at fixed omega1, one per alpha."""
    cfg = cfg or EstimatorConfig(spec=_FIG4.spec, control_mode=_FIG4.control_mode)
    points = [two_qubit_point(w0, omega1, a) for a in alpha_list for w0 in omega0_grid]
    meta = {"preset": "fig4", "omega1": omega1, "alpha_list": list(alpha_list),
            "omega0_grid": list(omega0_grid)}
    return sweep_generic(points, cfg, meta)
