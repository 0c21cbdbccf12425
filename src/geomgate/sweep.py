"""Grid scans over control parameters, with four built-in scan presets.

Each preset resolves its grid into SweepPoints, evaluates the fidelity
estimator at every feasible point, and returns a SweepResult whose rows
carry the fidelity estimate plus the noise-free phases so fidelity/phase
correlations can be plotted without rerunning.

Determinism: a row's values depend only on (seed, point parameters, m, n,
noise spec, estimator options) - never on grid shape, point order, or the
worker count. All points of a sweep share one base random stream (common
random numbers), which makes curves smooth in the scan coordinate and
argmax localization stable. A sweep cuts its points into contiguous
batches, at least one per process and at most _PASS_ELEMENTS // n points
each; a batch reads the two draw streams of fidelity's layout (rng_layout=2
in the metadata) and evaluates all of its points on them, with the values
of one-point estimates. fidelity.EstimatorConfig holds and checks the options.

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

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .fidelity import EstimatorConfig, _estimate
from .model import (
    DriveParams,
    InfeasibleParameters,
    TwoQubitParams,
    chi_angle,
    omega_for_beta,
    phases,
    shifted_target,
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


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: named coordinates plus resolved parameters.

    params is None when the point violates a reality constraint; the point
    is still emitted, flagged infeasible, with the violation recorded.
    """

    coords: dict
    kind: str  # "single" | "two_qubit"
    params: DriveParams | TwoQubitParams | None
    feasible: bool = True
    reason: str | None = None


@dataclass
class SweepResult:
    columns: list
    rows: list  # list of dicts keyed by column name
    metadata: dict


def single_point(omega0: float, delta_rel: float, beta: float, branch: str) -> SweepPoint:
    """Single-qubit point at total phase -beta*pi, Delta/omega0 off the zero-dynamic line."""
    coords = {"omega0": omega0, "delta_over_omega0": delta_rel}
    omega1 = zero_dynamic_omega1(omega0, beta) + delta_rel * omega0
    try:
        omega = omega_for_beta(omega0, omega1, beta, branch=branch)
        params = DriveParams(omega=omega, omega0=omega0, omega1=omega1)
    except InfeasibleParameters as err:
        return SweepPoint(coords=coords, kind="single", params=None,
                          feasible=False, reason=str(err))
    return SweepPoint(coords=coords, kind="single", params=params)


def two_qubit_point(omega0: float, omega1: float, alpha: float) -> SweepPoint:
    """Conditional-gate point with coupling J = alpha*omega0."""
    coords = {"omega0": omega0, "omega1": omega1, "alpha": alpha}
    try:
        params = two_qubit_from_alpha(omega0, omega1, alpha)
    except InfeasibleParameters as err:
        return SweepPoint(coords=coords, kind="two_qubit", params=None,
                          feasible=False, reason=str(err))
    return SweepPoint(coords=coords, kind="two_qubit", params=params)


def _row(point: SweepPoint, cfg: EstimatorConfig) -> dict:
    """A point's row: coordinates, resolved parameters and noise-free phases."""
    columns = SINGLE_COLUMNS if point.kind == "single" else TWO_QUBIT_COLUMNS
    row = {c: None for c in columns}
    row.update({"m": cfg.m, "n": cfg.n, "seed": cfg.seed,
                "feasible": point.feasible})
    for key, val in point.coords.items():
        if key in row:
            row[key] = val
    if not point.feasible:
        return row
    if point.kind == "single":
        p = point.params
        row["omega0"], row["omega1"], row["omega"] = p.omega0, p.omega1, p.omega
        tri = phases(p)
        row["gamma"], row["gamma_g"], row["gamma_d"] = tri.gamma, tri.gamma_g, tri.gamma_d
        row["chi"] = chi_angle(p)
    else:
        p2 = point.params
        t = p2.target
        row["omega0"], row["omega1"], row["omega"] = t.omega0, t.omega1, t.omega
        row["alpha"], row["J"] = p2.alpha, p2.coupling_j
        row["control_mode"] = cfg.control_mode
        lo, hi = shifted_target(p2, 0), shifted_target(p2, 1)
        tri0, tri1 = phases(lo), phases(hi)
        row["gamma"], row["gamma_g"], row["gamma_d"] = tri0.gamma, tri0.gamma_g, tri0.gamma_d
        row["chi"] = chi_angle(lo)
        row["gamma_d_0"], row["gamma_d_1"] = tri0.gamma_d, tri1.gamma_d
        row["chi_0"], row["chi_1"] = chi_angle(lo), chi_angle(hi)
    return row


def _eval_batch(args) -> list:
    """Rows of a batch of points, with one estimate over all its feasible points."""
    points, cfg = args
    rows = [_row(point, cfg) for point in points]
    feasible = [k for k, point in enumerate(points) if point.feasible]
    if not feasible:
        return rows
    tag = SINGLE_STREAM_TAG if points[0].kind == "single" else TWO_QUBIT_STREAM_TAG
    ests = _estimate([points[k].params for k in feasible], cfg, RngStream(cfg.seed).child(tag))
    for k, est in zip(feasible, ests):
        rows[k]["F_mean"] = est.mean
        rows[k]["F_stderr"] = None if math.isnan(est.stderr) else est.stderr
    return rows


def sweep_generic(points: list[SweepPoint], cfg: EstimatorConfig,
                  metadata: dict | None = None) -> SweepResult:
    """Evaluate the configured estimator at every point, in point order.

    The points are cut into contiguous batches, at least one per process
    used, min(cfg.workers, os.cpu_count(), len(points)), and at most
    _PASS_ELEMENTS // cfg.n points each. With one process the batches run in
    process; with more they go to a pool of that many. Output is identical
    byte for byte whatever the batching.
    """
    if not points:
        raise ValueError("points must be non-empty")
    kinds = {p.kind for p in points}
    if len(kinds) != 1:
        raise ValueError(f"mixed point kinds in one sweep: {kinds}")
    columns = SINGLE_COLUMNS if points[0].kind == "single" else TWO_QUBIT_COLUMNS
    procs = min(cfg.workers, os.cpu_count() or 1, len(points))
    count = max(procs, math.ceil(len(points) / max(1, _PASS_ELEMENTS // cfg.n)))
    cuts = [len(points) * b // count for b in range(count + 1)]
    jobs = [(points[lo:hi], cfg) for lo, hi in zip(cuts, cuts[1:])]
    if procs > 1:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            batches = list(pool.map(_eval_batch, jobs))
    else:
        batches = [_eval_batch(job) for job in jobs]
    rows = [row for batch in batches for row in batch]
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
        "rng_layout": 2,
    }
    if points[0].kind == "two_qubit":
        meta["control_mode"] = cfg.control_mode
    if metadata:
        meta.update(metadata)
    return SweepResult(columns=columns, rows=rows, metadata=meta)


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    """One figure's defaults, read both by its sweep_figN and by the CLI.

    options maps each keyword of sweep_figN that the CLI fills from the option
    of the same name to its default; a `_list` keyword is filled from its
    option without the suffix, one given value making a one-entry list.
    grids maps the keywords only a library call can change. control_mode is
    None for a single-qubit preset, which has no control qubit.
    """

    spec: NoiseSpec
    control_mode: str | None
    options: dict
    grids: dict


PRESETS = {
    "fig1": Preset(NoiseSpec(0.1, 0.1), None, {"beta": 1.5, "branch": "minus"}, {
        "omega0_grid": tuple((0.25 * k) * 1e5 for k in range(1, 9)),
        "delta_grid": tuple(np.linspace(0.0, 4.0, 41))}),
    "fig2": Preset(NoiseSpec(0.1, 0.1), None, {
        "delta1_list": (0.01, 0.02, 0.04, 0.06, 0.1), "omega0": 1e5, "beta": 1.5,
        "branch": "minus"}, {
        "delta_grid": tuple(np.linspace(0.0, 5.0, 51))}),
    "fig3": Preset(NoiseSpec(0.1, 0.1), "fixed0", {"alpha": math.sqrt(3)}, {
        "omega0_grid": tuple(np.logspace(math.log10(5.0), math.log10(50.0), 31)),
        "omega1_grid": tuple(np.logspace(math.log10(10.0), math.log10(100.0), 31))}),
    "fig4": Preset(NoiseSpec(0.05, 0.05), "unfixed", {"omega1": 60.0}, {
        "omega0_grid": tuple(np.linspace(2.0, 40.0, 39)),
        "alpha_list": tuple(math.sqrt(a) for a in (3, 8, 15, 35, 143))}),
}
_FIG1, _FIG2, _FIG3, _FIG4 = PRESETS.values()


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
    out = {}
    for d1 in delta1_list:
        sub = replace(cfg, spec=replace(cfg.spec, delta1=d1))
        meta = {"preset": "fig2", "beta": beta, "branch": branch, "omega0": omega0,
                "delta_grid": list(delta_grid), "delta1_list": list(delta1_list)}
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
