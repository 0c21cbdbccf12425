"""Sweep determinism, feasibility flagging, and preset structure at desk scale."""

import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from geomgate import chebyshev, fidelity, sweep
from geomgate.fidelity import estimate_single, estimate_two_qubit
from geomgate.model import DriveParams, TwoQubitParams
from geomgate.noise import NoiseSpec, RngStream
from geomgate.sweep import (
    SINGLE_COLUMNS,
    TWO_QUBIT_COLUMNS,
    SINGLE_STREAM_TAG,
    TWO_QUBIT_STREAM_TAG,
    EstimatorConfig,
    SweepPoint,
    single_point,
    two_qubit_point,
    sweep_fig1,
    sweep_fig2,
    sweep_fig4,
    sweep_generic,
)

SQRT3 = math.sqrt(3.0)

FAST = EstimatorConfig(m=60, n=60, spec=NoiseSpec(0.1, 0.1), seed=7)


def test_single_point_resolution():
    pt = single_point(1e5, 0.0, 1.5, "minus")
    assert pt.feasible
    assert pt.params.omega1 == pytest.approx(SQRT3 * 1e5, rel=1e-12)


def test_infeasible_points_flagged_not_dropped():
    # Delta/omega0 < 0 walks off the reality constraint
    points = [single_point(1e5, d, 1.5, "minus") for d in (-0.5, -0.2, 0.0, 0.5)]
    bad = [p for p in points if not p.feasible]
    assert len(bad) == 2
    assert all("reality" in p.reason for p in bad)
    res = sweep_generic(points, FAST)
    assert len(res.rows) == 4
    for row, pt in zip(res.rows, points):
        assert row["feasible"] == pt.feasible
        if not pt.feasible:
            assert row["F_mean"] is None and row["gamma_d"] is None
        else:
            assert 0.0 <= row["F_mean"] <= 1.0


def test_rows_carry_nominal_phases():
    res = sweep_generic([single_point(1e5, 0.0, 1.5, "minus")], FAST)
    row = res.rows[0]
    assert row["gamma"] == pytest.approx(-1.5 * math.pi, abs=1e-9)
    assert abs(row["gamma_d"]) <= 1e-9
    assert row["chi"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
    assert res.columns == SINGLE_COLUMNS


def test_point_order_permutation_invariance():
    deltas = [0.0, 0.3, 0.9, 1.8]
    points = [single_point(1e5, d, 1.5, "minus") for d in deltas]
    res_fwd = sweep_generic(points, FAST)
    res_rev = sweep_generic(points[::-1], FAST)
    for row in res_fwd.rows:
        twin = next(r for r in res_rev.rows
                    if r["delta_over_omega0"] == row["delta_over_omega0"])
        assert twin == row


def test_worker_count_does_not_change_rows(real_pools, monkeypatch):
    # 14400 per-shot shots: a lowered threshold makes them start a real pool
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, 0.5, 1.0, 2.0)]
    seq = sweep_generic(points, FAST)
    par = sweep_generic(points, EstimatorConfig(m=60, n=60, spec=NoiseSpec(0.1, 0.1),
                                                seed=7, workers=2))
    assert real_pools == [2]
    assert seq.rows == par.rows


def test_grid_shape_does_not_change_values():
    # the same coordinate must give the same row whatever grid surrounds it
    lone = sweep_generic([single_point(1e5, 1.0, 1.5, "minus")], FAST)
    embedded = sweep_generic(
        [single_point(1e5, d, 1.5, "minus") for d in (0.0, 1.0, 3.0)], FAST)
    row = next(r for r in embedded.rows if r["delta_over_omega0"] == 1.0)
    assert row == lone.rows[0]


def test_fig1_preset_structure():
    cfg = EstimatorConfig(m=150, n=150, spec=NoiseSpec(0.1, 0.1), seed=11)
    res = sweep_fig1(omega0_grid=[1e5], delta_grid=np.linspace(0.0, 4.0, 21), cfg=cfg)
    assert len(res.rows) == 21
    fmax = max(res.rows, key=lambda r: r["F_mean"])
    assert fmax["delta_over_omega0"] <= 0.2 + 1e-12  # argmax at Delta=0, one step slack
    assert abs(fmax["gamma_d"]) <= 1e-9 or fmax["delta_over_omega0"] > 0.0
    assert res.metadata["preset"] == "fig1"


def test_fig2_preset_returns_curve_per_delta1():
    cfg = EstimatorConfig(m=50, n=50, seed=3)
    out = sweep_fig2(delta_grid=[0.0, 1.0], delta1_list=[0.01, 0.1], cfg=cfg)
    assert set(out.keys()) == {0.01, 0.1}
    for d1, res in out.items():
        assert len(res.rows) == 2
        assert res.metadata["delta1"] == d1
        assert res.metadata["delta0"] == 0.1


def test_fig2_runs_at_the_given_noise_spec():
    # delta0 and the channel coupling come from cfg.spec; delta1 from each curve
    cfg = EstimatorConfig(m=3, n=3, spec=NoiseSpec(0.3, 0.3, independent=True))
    res = sweep_fig2(delta_grid=[0.0], delta1_list=[0.01], cfg=cfg)[0.01]
    assert (res.metadata["delta0"], res.metadata["delta1"]) == (0.3, 0.01)
    assert res.metadata["independent"] is True
    direct = sweep_generic([single_point(1e5, 0.0, 1.5, "minus")],
                           EstimatorConfig(m=3, n=3, spec=NoiseSpec(0.3, 0.01, independent=True)))
    assert res.rows[0]["F_mean"] == direct.rows[0]["F_mean"]


def test_fig3_preset_argmax_on_diagonal():
    cfg = EstimatorConfig(m=120, n=120, spec=NoiseSpec(0.1, 0.1), seed=5,
                          control_mode="fixed0")
    ratios = (0.7, 0.85, 1.0, 1.2, 1.4)
    points = [two_qubit_point(w0, f * 2.0 * w0, SQRT3)
              for w0 in (10.0, 20.0) for f in ratios]
    res = sweep_generic(points, cfg)
    for w0 in (10.0, 20.0):
        rows = [r for r in res.rows if r["omega0"] == w0]
        best = max(rows, key=lambda r: r["F_mean"])
        assert best["omega1"] == pytest.approx(2.0 * w0, rel=1e-12)


def test_fig4_preset_single_alpha_argmax():
    cfg = EstimatorConfig(m=200, n=200, spec=NoiseSpec(0.05, 0.05), seed=2,
                          control_mode="unfixed")
    res = sweep_fig4(omega0_grid=np.arange(24.0, 37.0), alpha_list=[SQRT3], cfg=cfg)
    best = max(res.rows, key=lambda r: r["F_mean"])
    assert abs(best["omega0"] - 30.0) <= 1.0 + 1e-12
    assert res.columns == TWO_QUBIT_COLUMNS
    assert all(r["control_mode"] == "unfixed" for r in res.rows)


def test_two_qubit_rows_have_block_phases():
    cfg = EstimatorConfig(m=30, n=30, spec=NoiseSpec(0.05, 0.05), seed=1)
    res = sweep_generic([two_qubit_point(30.0, 60.0, SQRT3)], cfg)
    row = res.rows[0]
    assert abs(row["gamma_d_0"]) <= 1e-9 and abs(row["gamma_d_1"]) <= 1e-9
    assert row["J"] == pytest.approx(30.0 * SQRT3, rel=1e-12)
    assert row["gamma_d"] == row["gamma_d_0"]


def test_sweep_generic_rejects_bad_input():
    with pytest.raises(ValueError):
        sweep_generic([], FAST)
    with pytest.raises(ValueError):
        sweep_generic([single_point(1e5, 0.0, 1.5, "minus"),
                       two_qubit_point(30.0, 60.0, SQRT3)], FAST)


# --- batched evaluation: shared draws across the points of a batch -----------

BATCH_CASES = [
    ("single", EstimatorConfig(m=9, n=7, spec=NoiseSpec(0.1, 0.05), seed=4)),
    ("single", EstimatorConfig(m=9, n=7, spec=NoiseSpec(0.1, 0.05, True), seed=4,
                               gate_model="propagator", haar=True)),
    ("two_qubit", EstimatorConfig(m=8, n=6, spec=NoiseSpec(0.1, 0.1), seed=5,
                                  control_mode="fixed0")),
    ("two_qubit", EstimatorConfig(m=8, n=6, spec=NoiseSpec(0.1, 0.1, True), seed=5,
                                  control_mode="fixed1", gate_model="propagator")),
    ("two_qubit", EstimatorConfig(m=8, n=6, spec=NoiseSpec(0.05, 0.05), seed=6,
                                  control_mode="unfixed", haar=True)),
    ("two_qubit", EstimatorConfig(m=8, n=6, spec=NoiseSpec(0.05, 0.05, True), seed=6,
                                  control_mode="unfixed", gate_model="propagator")),
    # lock-step propagator above the crossover, on grids that hold a point the
    # fit refuses: the Chebyshev sum and the per-shot kernel in one batch
    ("single-unresolved", EstimatorConfig(m=fidelity._FIT_MIN_SHOTS + 32, n=5,
                                          spec=NoiseSpec(0.02, 0.02), seed=4,
                                          gate_model="propagator")),
    ("two_qubit-unresolved", EstimatorConfig(m=fidelity._FIT_MIN_SHOTS + 8, n=6,
                                             spec=NoiseSpec(0.05, 0.05), seed=5,
                                             control_mode="unfixed", gate_model="propagator",
                                             haar=True)),
    ("two_qubit-unresolved", EstimatorConfig(m=fidelity._FIT_MIN_SHOTS, n=4,
                                             spec=NoiseSpec(0.1, 0.05), seed=6,
                                             control_mode="fixed1", gate_model="propagator")),
]


def batch_points(kind):
    # a multi-point grid with an infeasible point inside it
    single = kind.startswith("single")
    if single:
        points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, -0.5, 0.4, 1.3, 2.9)]
    else:
        points = [two_qubit_point(w0, w1, SQRT3)
                  for w0, w1 in ((10.0, 20.0), (20.0, 30.0), (30.0, 60.0), (12.0, 50.0))]
    if kind.endswith("unresolved"):
        # a slow drive under strong fields: its rows vary too fast in u for the fit
        drive = DriveParams(1.0, 100.0, 100.0)
        params = drive if single else TwoQubitParams(target=drive, coupling_j=30.0)
        coords = {"omega0": 100.0, "delta_over_omega0": 0.0} if single else {
            "omega0": 100.0, "omega1": 100.0, "alpha": 0.3}
        points.insert(2, SweepPoint(coords, points[0].kind, params))
    return points


def assert_both_paths(points, cfg):
    """The batch's feasible points hold one the fit refuses and some it resolves."""
    resolved = fidelity._paths([p.params for p in points if p.feasible], cfg)
    assert np.count_nonzero(~resolved) == 1 and resolved.any()


def one_point_estimate(point, cfg):
    if point.kind == "single":
        return estimate_single(point.params, cfg.spec, cfg.m, cfg.n,
                               RngStream(cfg.seed).child(SINGLE_STREAM_TAG),
                               gate_model=cfg.gate_model, haar=cfg.haar)
    return estimate_two_qubit(point.params, cfg.spec, cfg.m, cfg.n,
                              RngStream(cfg.seed).child(TWO_QUBIT_STREAM_TAG),
                              control_mode=cfg.control_mode,
                              gate_model=cfg.gate_model, haar=cfg.haar)


@pytest.mark.parametrize("kind,cfg", BATCH_CASES)
def test_batched_rows_equal_one_point_estimates(kind, cfg):
    points = batch_points(kind)
    res = sweep_generic(points, cfg)
    assert any(p.feasible for p in points)
    if kind.endswith("unresolved"):
        assert_both_paths(points, cfg)
    for row, point in zip(res.rows, points):
        if not point.feasible:
            assert row["F_mean"] is None and row["F_stderr"] is None
            continue
        est = one_point_estimate(point, cfg)
        assert (row["F_mean"], row["F_stderr"], row["n"]) == (est.mean, est.stderr, cfg.n)


@pytest.mark.parametrize("kind,cfg", BATCH_CASES)
def test_rows_do_not_depend_on_chunking(kind, cfg, monkeypatch):
    points = batch_points(kind)
    whole = sweep_generic(points, cfg)
    # one point and one state per chunk (and one point per fit check chunk),
    # then three states per chunk
    for elements in (1, 3 * cfg.m):
        monkeypatch.setattr(fidelity, "_CHUNK_ELEMENTS", elements)
        assert sweep_generic(points, cfg).rows == whole.rows
    # all states and two points per chunk over three feasible points: the last
    # chunk's one point reads shorter views of the propagator's work buffers
    monkeypatch.setattr(fidelity, "_CHUNK_ELEMENTS", 2 * cfg.n * cfg.m)
    assert sweep_generic(points[:-1], cfg).rows == whole.rows[:-1]
    monkeypatch.setattr(sweep, "_PASS_ELEMENTS", 2 * cfg.n)  # two points per pass
    assert sweep_generic(points, cfg).rows == whole.rows


@pytest.fixture
def child_calls(monkeypatch):
    """The indices of every RngStream.child call, in order."""
    calls = []
    child = RngStream.child

    def counted(self, *indices):
        calls.append(indices)
        return child(self, *indices)

    monkeypatch.setattr(RngStream, "child", counted)
    return calls


def test_sweep_builds_the_streams_once_per_batch(child_calls):
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, 0.5, 1.0, 1.5, 2.0)]
    for n in (1, 11, 3000):
        child_calls.clear()
        sweep_generic(points, EstimatorConfig(m=5, n=n, spec=NoiseSpec(0.1, 0.1), seed=2))
        # one batch: the base stream, then its state and noise streams
        assert child_calls == [(SINGLE_STREAM_TAG,), (0,), (1,)]


@pytest.mark.parametrize("delta_rel,bad,message", [
    (-3.0, {"m": 0, "n": 0}, "m must be >= 1, got 0"),  # infeasible: nothing estimated
    (0.0, {"workers": 0}, "workers must be >= 1, got 0"),
    (-3.0, {"gate_model": "bogus"}, "gate_model must be one of"),
    (-3.0, {"control_mode": "both"}, "control_mode must be one of"),
], ids=["zero-counts", "zero-workers", "gate-model", "control-mode"])
def test_sweep_rejects_bad_config(delta_rel, bad, message):
    # the library refuses these itself, before anything runs or is reported
    with pytest.raises(ValueError, match=message):
        sweep_generic([single_point(1e5, delta_rel, 1.5, "minus")],
                      EstimatorConfig(**{"m": 3, "n": 3, **bad}))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: runs the map in process."""

    started = []

    def __init__(self, max_workers):
        RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.started = []
    # sweep_generic imports the pool class where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.started


def test_one_point_runs_in_process(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cfg = EstimatorConfig(m=20, n=20, spec=NoiseSpec(0.1, 0.1), seed=7, workers=2)
    res = sweep_generic([single_point(1e5, 0.0, 1.5, "minus")], cfg)
    assert recording_pool == []
    assert res.metadata["workers"] == 2


def test_pool_never_exceeds_the_cpus(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, 0.5, 1.0, 2.0)]
    res = sweep_generic(points, EstimatorConfig(m=20, n=20, seed=7, workers=8))
    assert recording_pool == []  # one CPU: one batch, in process
    assert res.metadata["workers"] == 8


def test_pass_bound_cuts_more_batches_in_process(recording_pool, child_calls, monkeypatch):
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, 0.5, 1.0, 1.5, 2.0)]
    cfg = EstimatorConfig(m=5, n=7, spec=NoiseSpec(0.1, 0.1), seed=2)
    whole = sweep_generic(points, cfg)
    child_calls.clear()
    monkeypatch.setattr(sweep, "_PASS_ELEMENTS", 2 * cfg.n)  # two points per batch
    assert sweep_generic(points, cfg).rows == whole.rows
    # batches of 1, 2 and 2 points, each with its own streams, and no pool
    assert child_calls == [(SINGLE_STREAM_TAG,), (0,), (1,)] * 3
    assert recording_pool == []


def test_block_out_of_range_is_infeasible():
    # the target is in range, its control-0 block at omega1 - J = -1.9e100 is not
    point = two_qubit_point(1e100, -9e99, 1.0)
    assert not point.feasible and "omega1 must lie in" in point.reason
    row = sweep_generic([point], FAST).rows[0]
    assert row["feasible"] is False and row["F_mean"] is None


def test_pool_maps_contiguous_batches(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)  # 18000 per-shot shots start a pool
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, -0.5, 0.5, 1.0, 2.0)]
    seq = sweep_generic(points, FAST)
    par = sweep_generic(points, EstimatorConfig(m=60, n=60, spec=NoiseSpec(0.1, 0.1),
                                                seed=7, workers=8))
    assert recording_pool == [3]
    assert par.rows == seq.rows


def test_phase_sweep_below_the_threshold_runs_in_process(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, 0.5, 1.0, 2.0)]
    cfg = EstimatorConfig(m=20, n=20, spec=NoiseSpec(0.1, 0.1), seed=7, workers=2)
    assert 4 * cfg.m * cfg.n < 2 * sweep._PROCESS_SHOTS
    res = sweep_generic(points, cfg)
    assert recording_pool == []
    assert res.metadata["workers"] == 2


def test_fitted_points_start_no_pool(recording_pool, monkeypatch):
    # the Chebyshev sum's cost does not split across processes, so lock-step
    # propagator points that all take it start no pool at any m*n
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)
    points = [two_qubit_point(w0, 60.0, SQRT3) for w0 in (2.0, 10.0, 21.0, 40.0)]
    cfg = EstimatorConfig(m=fidelity._FIT_MIN_SHOTS, n=5, spec=NoiseSpec(0.05, 0.05), seed=3,
                          gate_model="propagator", workers=4)
    assert fidelity._paths([p.params for p in points], cfg).all()
    res = sweep_generic(points, cfg)
    assert recording_pool == []
    assert res.rows == sweep_generic(points, replace(cfg, workers=1)).rows


def test_a_sweep_fits_once_over_all_its_batches(child_calls, monkeypatch):
    # the path mask is computed once per sweep and each batch gets its slice, so
    # a fitted grid cut into several batches calls the fit once, over every
    # feasible point, and gives the rows of one batch
    points = [two_qubit_point(w0, 60.0, SQRT3) for w0 in (2.0, 10.0, 21.0, 30.0, 40.0)]
    points.insert(1, two_qubit_point(1e100, -9e99, 1.0))  # infeasible
    cfg = EstimatorConfig(m=fidelity._FIT_MIN_SHOTS, n=5, spec=NoiseSpec(0.05, 0.05), seed=3,
                          gate_model="propagator")
    whole = sweep_generic(points, cfg)
    # the fit check takes the rows' change at the nodes x and y, the estimator's
    # fitted chunks at the nodes y only; record each check's points by pi/omega
    fits, change = [], fidelity._change
    monkeypatch.setattr(fidelity, "_change", lambda c, spec, u: (
        len(u) == 3 * chebyshev.NODES and fits.append(list(c["pio"].ravel()))) or change(c, spec, u))
    monkeypatch.setattr(sweep, "_PASS_ELEMENTS", 2 * cfg.n)  # two points per batch
    child_calls.clear()
    assert sweep_generic(points, cfg).rows == whole.rows
    assert child_calls.count((TWO_QUBIT_STREAM_TAG,)) == 3
    feasible = [p.params for p in points if p.feasible]
    assert fits == [[math.pi / p.target.omega for p in feasible]]
    assert fidelity._paths(feasible, cfg).all()


@pytest.mark.parametrize("figure,mode,counts", [
    ("fig1", None, (0, 0)),
    ("fig2", None, (55, 104)),
    ("fig3", "fixed0", (625, 610)),
    ("fig3", "fixed1", (0, 555)),
    ("fig3", "unfixed", (0, 555)),
    ("fig4", "unfixed", (0, 195)),
], ids=["fig1", "fig2", "fig3-fixed0", "fig3-fixed1", "fig3-unfixed", "fig4"])
def test_fit_resolves_the_stated_preset_counts(figure, mode, counts, monkeypatch):
    # the points the 8-node fit resolves at each preset's own noise widths, under
    # "phase" then "propagator", as the README and the fidelity docstring state
    # them; fig2 counts its five delta1 curves together
    scans = []
    monkeypatch.setattr(sweep, "sweep_generic",
                        lambda points, cfg, meta: scans.append((points, cfg)))
    preset, got = sweep.PRESETS[figure], []
    for model in ("phase", "propagator"):
        scans.clear()
        getattr(sweep, f"sweep_{figure}")(cfg=EstimatorConfig(
            m=fidelity._FIT_MIN_SHOTS, n=2, spec=preset.spec, gate_model=model,
            control_mode=mode or "unfixed"))
        got.append(sum(int(np.count_nonzero(fidelity._paths(
            [p.params for p in points if p.feasible], cfg))) for points, cfg in scans))
    assert tuple(got) == counts


@pytest.mark.parametrize("k,workers,cpus", [
    (1, 8, 4), (2, 8, 4), (3, 8, 4), (6, 8, 4), (4, 2, 4), (12, 8, 16),
])
def test_pool_size_follows_the_per_shot_work(recording_pool, monkeypatch, k, workers, cpus):
    # per-shot work of k * _PROCESS_SHOTS pays for k processes
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    points = [single_point(1e5, 0.1 * j, 1.5, "minus") for j in range(12)]
    cfg = EstimatorConfig(m=10, n=10, spec=NoiseSpec(0.1, 0.1), seed=7, workers=workers)
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 12 * cfg.m * cfg.n // k)
    res = sweep_generic(points, cfg)
    procs = min(workers, cpus, k)
    assert recording_pool == ([procs] if procs > 1 else [])
    assert res.rows == sweep_generic(points, replace(cfg, workers=1)).rows


def test_one_feasible_point_among_infeasible_ones_starts_no_pool(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)
    points = [single_point(1e5, d, 1.5, "minus") for d in (0.0, -3.0, -2.0)]
    assert [p.feasible for p in points] == [True, False, False]
    res = sweep_generic(points, EstimatorConfig(m=20, n=20, seed=7, workers=2))
    assert recording_pool == []
    assert res.rows[0]["F_mean"] is not None
