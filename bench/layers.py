"""Traced run: a workload's inputs through geomgate's public functions, in process.

One round resolves the grid (model), replays the documented draw layout for
every feasible point (noise: state from child(j, 0), shots from
child(j, 1)), calls the estimator once per point (fidelity), runs the sweep
executor at 1 worker and, if the workload uses more, again at its worker
count (sweep), writes the CSV and times a fresh interpreter's import (cli).
Each call is wrapped in a span; the per-layer metrics are sums over spans,
and the spans are written next to the run record. Only public names are
called, so a change to the package's private helpers leaves this file
working.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from geomgate import (
    DriveParams,
    EstimatorConfig,
    InfeasibleParameters,
    NoiseSpec,
    RngStream,
    SweepPoint,
    chi_angle,
    estimate_single,
    estimate_two_qubit,
    omega_for_beta,
    phases,
    sample_input_state,
    sample_two_qubit_input,
    shifted_target,
    sweep_generic,
    two_qubit_from_alpha,
    zero_dynamic_omega1,
)
from geomgate.cli import write_csv
from geomgate.noise import relative_draws
from geomgate.sweep import SINGLE_STREAM_TAG, TWO_QUBIT_STREAM_TAG

import workloads as wls


class Tracer:
    """In-memory spans: name, start, end and the id of the enclosing span."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, root: int) -> list:
        """Durations of the spans called name that are direct children of root."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["parent"] == root]


def resolve(wl, grid) -> list:
    """SweepPoints for the workload's grid points, with the closed forms evaluated."""
    out = []
    for p in grid:
        if wl.kind == "single":
            coords = {"omega0": p.omega0, "delta_over_omega0": p.delta_rel}
            try:
                w1 = zero_dynamic_omega1(p.omega0, 1.5) + p.delta_rel * p.omega0
                params = DriveParams(omega_for_beta(p.omega0, w1, 1.5), p.omega0, w1)
            except InfeasibleParameters as err:
                out.append(SweepPoint(coords, "single", None, False, str(err)))
                continue
            blocks = [params]
        else:
            coords = {"omega0": p.omega0, "omega1": p.omega1, "alpha": p.alpha}
            params = two_qubit_from_alpha(p.omega0, p.omega1, p.alpha)
            blocks = [shifted_target(params, 0), shifted_target(params, 1)]
        for blk in blocks:
            phases(blk)
            chi_angle(blk)
        out.append(SweepPoint(coords, wl.kind, params))
    return out


def replay_draws(wl, base: RngStream, feasible: int) -> int:
    """Draw what the estimator draws at every feasible point; returns streams made."""
    streams = 0
    for _ in range(feasible):
        for j in range(wl.n):
            state = base.child(j, 0)
            if wl.control == "unfixed":
                sample_two_qubit_input(state)
            else:
                sample_input_state(state)
            relative_draws(base.child(j, 1), wl.m)
            streams += 2
    return streams


def import_times(env: dict, root: Path):
    """(geomgate, scipy) cumulative import seconds from `python -X importtime`.

    The scipy figure sums the scipy modules not imported by another scipy
    module; it reads 0 once the package no longer imports scipy.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import geomgate"],
                          capture_output=True, text=True, env=env, cwd=root, timeout=120)
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    geomgate_us = scipy_us = 0
    for k, (level, name, cum) in enumerate(entries):
        if name == "geomgate":
            geomgate_us = cum
        if name.split(".")[0] != "scipy":
            continue
        parent = next((e[1] for e in entries[k + 1:] if e[0] < level), "")
        if parent.split(".")[0] != "scipy":
            scipy_us += cum
    return proc.returncode, geomgate_us / 1e6, scipy_us / 1e6


def traced_round(wl, seed, workers, tracer, grid, exact, tally, env, root, out_dir) -> dict:
    tag = SINGLE_STREAM_TAG if wl.kind == "single" else TWO_QUBIT_STREAM_TAG
    cfg = EstimatorConfig(m=wl.m, n=wl.n, spec=NoiseSpec(*wl.spec), seed=seed,
                          gate_model=wl.model, control_mode=wl.control or "unfixed")
    csv_path = out_dir / f"{wl.name}.traced.csv"
    with tracer.span("round") as rnd:
        with tracer.span("model.resolve"):
            points = resolve(wl, grid)
        feasible = sum(p.feasible for p in points)
        with tracer.span("noise.draw"):
            streams = replay_draws(wl, RngStream(seed).child(tag), feasible)
        estimates = []
        for p in points:
            if not p.feasible:
                estimates.append(None)
                continue
            rng = RngStream(seed).child(tag)
            with tracer.span("fidelity.point"):
                if wl.kind == "single":
                    est = estimate_single(p.params, cfg.spec, wl.m, wl.n, rng,
                                          gate_model=wl.model)
                else:
                    est = estimate_two_qubit(p.params, cfg.spec, wl.m, wl.n, rng,
                                             control_mode=wl.control, gate_model=wl.model)
            estimates.append(est)
        with tracer.span("sweep.sequential"):
            seq = sweep_generic(points, cfg, {"preset": wl.name})
        pooled = seq
        if workers > 1:
            with tracer.span("sweep.pool"):
                pooled = sweep_generic(points, replace(cfg, workers=workers),
                                       {"preset": wl.name})
        with tracer.span("cli.write"):
            write_csv(pooled, str(csv_path))
        with tracer.span("cli.import"):
            code, import_s, import_scipy_s = import_times(env, root)
    tally.op("python -X importtime -c 'import geomgate'", [f"exit code {code}"] if code else [])

    rows = wls.read_rows(csv_path)
    for k, (point, est) in enumerate(zip(grid, estimates)):
        row = rows[k] if k < len(rows) else None
        if row is None:
            tally.op(f"row {k}", ["missing from the CSV"])
            continue
        problems = wls.checked(wls.check_row, wl, row, point, exact[k], seed)
        if seq.rows[k] != pooled.rows[k]:
            problems.append(f"{workers}-worker row differs from the 1-worker sweep")
        if est is not None and (row["F_mean"], row["F_stderr"], row["n"]) != (
                "%.12e" % est.mean, "%.12e" % est.stderr, str(est.n_states)):
            problems.append(f"CSV F={row['F_mean']}+-{row['F_stderr']} differs from the "
                            f"1-worker estimate {est.mean!r}+-{est.stderr!r}")
        tally.op(f"row {k}", problems)

    root_id = rnd["id"]
    draw_s = sum(tracer.durations("noise.draw", root_id))
    point_s = tracer.durations("fidelity.point", root_id)
    seq_s = sum(tracer.durations("sweep.sequential", root_id))
    pool_s = sum(tracer.durations("sweep.pool", root_id)) or seq_s
    output = csv_path.stat().st_size + Path(str(csv_path) + ".meta").stat().st_size
    return {
        "model.resolve_s": (sum(tracer.durations("model.resolve", root_id)), "s"),
        "model.points_feasible": (feasible, "count"),
        "model.points_infeasible": (len(points) - feasible, "count"),
        "noise.draw_s": (draw_s, "s"),
        "noise.draw_us_per_state": (1e6 * draw_s / (feasible * wl.n), "us"),
        "noise.streams": (streams, "count"),
        "fidelity.point_s.p50": (float(np.percentile(point_s, 50)), "s"),
        "fidelity.point_s.p90": (float(np.percentile(point_s, 90)), "s"),
        "fidelity.kernel_s": (sum(point_s) - draw_s, "s"),
        "fidelity.shots": (feasible * wl.m * wl.n, "count"),
        "sweep.overhead_s": (seq_s - sum(point_s), "s"),
        "sweep.pool_efficiency": (sum(point_s) / (workers * pool_s), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (import_scipy_s, "s"),
        "cli.write_s": (sum(tracer.durations("cli.write", root_id)), "s"),
        "cli.output_bytes": (output, "bytes"),
    }


def run_traced(wl, args, record, tally, env, root: Path, out_dir: Path):
    """Whole traced rounds for about args.seconds; per-layer medians over the rounds."""
    workers = record["workers"]
    grid = wl.points()
    exact = wls.exact_fidelities(wl, grid)
    tracer = Tracer()
    rounds, round_s = [], []
    start = time.perf_counter()
    while wls.another_round(start, round_s, args.seconds):
        began = time.perf_counter()
        rounds.append(traced_round(wl, args.seed, workers, tracer, grid, exact, tally,
                                   env, root, out_dir))
        round_s.append(time.perf_counter() - began)
    spans = out_dir / f"{wl.name}.seed{args.seed}.spans.json"
    spans.write_text(json.dumps(tracer.spans) + "\n")
    record["layer_samples"] = [{k: v for k, (v, _) in r.items()} for r in rounds]
    record["spans"] = spans.name
    return {k: (statistics.median([r[k][0] for r in rounds]), unit)
            for k, (_, unit) in rounds[0].items()}
