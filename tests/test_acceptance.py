"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Statistical criteria run at the sample sizes stated in
their descriptions with fixed seeds, so they are exactly reproducible.
"""

import math
import os
import time

import numpy as np
import pytest

from geomgate import sweep
from geomgate.cli import write_csv
from geomgate.evolve import (
    dynamic_phase_oracle,
    ideal_gate_u1,
    ode_oracle,
    one_cycle_gate,
    propagator,
)
from geomgate.fidelity import estimate_single, estimate_two_qubit
from geomgate.model import (
    DriveParams,
    chi_angle,
    omega_for_beta,
    phases,
    shifted_target,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from geomgate.noise import NoiseSpec, RngStream
from geomgate.sweep import EstimatorConfig, sweep_fig1, sweep_fig2, sweep_fig3, sweep_fig4

SQRT3 = math.sqrt(3.0)
SEED = 20240809


def report(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _random_param_arrays(count, rng):
    scale = 10.0 ** rng.uniform(-2.0, 5.0, count)
    w0 = scale * rng.uniform(0.1, 3.0, count)
    w1 = scale * rng.uniform(0.0, 4.0, count)
    return scale, w0, w1


def test_criterion_1_analytic_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    count = 10_000
    omega, w0, w1 = _random_param_arrays(count, rng)
    params = [DriveParams(omega[k], w0[k], w1[k]) for k in range(count)]

    worst_identity = 0.0
    worst_gate = 0.0
    for p in params:
        tri = phases(p)
        worst_identity = max(
            worst_identity,
            abs(tri.gamma - tri.gamma_g - tri.gamma_d) / max(1.0, abs(tri.gamma)))
        diff = np.abs(one_cycle_gate(p) - ideal_gate_u1(tri.gamma, chi_angle(p))).max()
        worst_gate = max(worst_gate, float(diff))

    rk4 = ode_oracle(omega, w0, w1, 2.0 * math.pi / omega, 10_000)
    worst_ode = 0.0
    for k, p in enumerate(params):
        diff = np.abs(rk4[k] - propagator(p, 2.0 * math.pi / p.omega)).max()
        worst_ode = max(worst_ode, float(diff))

    worst_dyn = 0.0
    for p in params:
        err = abs(dynamic_phase_oracle(p, 512) - phases(p).gamma_d)
        worst_dyn = max(worst_dyn, err)

    elapsed = time.time() - t0
    ok = (worst_identity <= 1e-10 and worst_gate <= 1e-10
          and worst_ode <= 1e-8 and worst_dyn <= 1e-6 and elapsed <= 60.0)
    report(1, ok,
           f"10^4 params: |gamma-gg-gd| {worst_identity:.2e} (<=1e-10), "
           f"gate vs closed form {worst_gate:.2e} (<=1e-10), "
           f"RK4 {worst_ode:.2e} (<=1e-8), "
           f"dynamic-phase quadrature {worst_dyn:.2e} (<=1e-6), "
           f"runtime {elapsed:.1f}s (<=60s)")


def test_criterion_2_total_phase_solver():
    rng = np.random.default_rng(102)
    worst_form = 0.0
    worst_phase = 0.0
    count = 0
    while count < 1000:
        omega0 = 10.0 ** rng.uniform(-2.0, 5.0)
        omega1 = omega0 * rng.uniform(SQRT3 * (1.0 + 1e-6), 10.0)
        if omega1 * omega1 <= 3.0 * omega0 * omega0:
            continue
        count += 1
        got = omega_for_beta(omega0, omega1, 1.5)
        reference = 2.0 * (2.0 * omega1 - math.sqrt(omega1 ** 2 - 3.0 * omega0 ** 2)) / 3.0
        worst_form = max(worst_form, abs(got - reference) / reference)
        tri = phases(DriveParams(got, omega0, omega1))
        worst_phase = max(worst_phase, abs(tri.gamma + 1.5 * math.pi))
    ok = worst_form <= 1e-12 and worst_phase <= 1e-9
    report(2, ok,
           f"solver vs factored closed form {worst_form:.2e} (<=1e-12 rel), "
           f"|gamma + 1.5*pi| {worst_phase:.2e} (<=1e-9)")


def test_criterion_3_zero_dynamic_conditions():
    rng = np.random.default_rng(103)
    worst_single = 0.0
    for _ in range(2000):
        beta = rng.uniform(1.05, 1.95)
        omega0 = 10.0 ** rng.uniform(-1.0, 5.0)
        omega1 = zero_dynamic_omega1(omega0, beta)
        omega = omega_for_beta(omega0, omega1, beta)
        worst_single = max(worst_single, abs(phases(DriveParams(omega, omega0, omega1)).gamma_d))

    worst_block = 0.0
    worst_omega = 0.0
    worst_pyth = 0.0
    for _ in range(2000):
        omega0 = 10.0 ** rng.uniform(-1.0, 4.0)
        alpha = rng.uniform(0.2, 15.0)
        p2 = two_qubit_geometric_point(omega0, alpha)
        for delta in (0, 1):
            worst_block = max(worst_block, abs(phases(shifted_target(p2, delta)).gamma_d))
        t = p2.target
        worst_omega = max(worst_omega, abs(t.omega - 2.0 * t.omega1) / t.omega)
        worst_pyth = max(
            worst_pyth,
            abs(t.omega1 ** 2 - omega0 ** 2 - p2.coupling_j ** 2) / t.omega1 ** 2)
    ok = (worst_single <= 1e-9 and worst_block <= 1e-9
          and worst_omega <= 1e-12 and worst_pyth <= 1e-12)
    report(3, ok,
           f"|gamma_d| single {worst_single:.2e}, blocks {worst_block:.2e} (<=1e-9); "
           f"omega=2*omega1 {worst_omega:.2e}, omega1^2=omega0^2+J^2 {worst_pyth:.2e} "
           f"(<=1e-12 rel)")


def test_criterion_4_noiseless_fidelity():
    w0 = 1e5
    w1 = zero_dynamic_omega1(w0, 1.5)
    p = DriveParams(omega_for_beta(w0, w1, 1.5), w0, w1)
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    spec = NoiseSpec(0.0, 0.0)
    worst = 0.0
    for m, n in ((1, 1), (7, 3), (50, 20)):
        for model in ("phase", "propagator"):
            est = estimate_single(p, spec, m, n, RngStream(SEED).child(1), gate_model=model)
            worst = max(worst, abs(est.mean - 1.0))
            for mode in ("fixed0", "fixed1", "unfixed"):
                est2 = estimate_two_qubit(p2, spec, m, n, RngStream(SEED).child(2),
                                          control_mode=mode, gate_model=model)
                worst = max(worst, abs(est2.mean - 1.0))
    ok = worst <= 1e-12
    report(4, ok, f"noiseless estimates deviate from 1 by {worst:.2e} (<=1e-12)")


def test_criterion_5_fig1_structure():
    t0 = time.time()
    cfg = EstimatorConfig(m=300, n=300, spec=NoiseSpec(0.1, 0.1), seed=SEED)
    res = sweep_fig1(omega0_grid=[1e5], delta_grid=np.linspace(0.0, 4.0, 41), cfg=cfg)
    rows = res.rows
    best = max(range(len(rows)), key=lambda k: rows[k]["F_mean"])
    argmax_ok = best <= 1  # Delta = 0 within one grid step
    mono_ok = True
    for a, b in zip(rows, rows[1:]):
        band = 3.0 * math.hypot(a["F_stderr"], b["F_stderr"])
        if b["F_mean"] - a["F_mean"] > band:
            mono_ok = False
            break
    elapsed = time.time() - t0
    ok = argmax_ok and mono_ok and elapsed <= 300.0
    report(5, ok,
           f"argmax at grid index {best} (Delta/omega0={rows[best]['delta_over_omega0']:.1f}, "
           f"want 0 +-1 step), monotone non-increasing={mono_ok}, "
           f"runtime {elapsed:.1f}s (<=300s single-threaded)")


def test_criterion_6_fig2_regime_change():
    cfg = EstimatorConfig(m=500, n=500, seed=SEED)
    curves = sweep_fig2(delta_grid=np.linspace(0.0, 5.0, 51),
                        delta1_list=[0.1, 0.01], cfg=cfg)

    big = curves[0.1].rows
    best = max(range(len(big)), key=lambda k: big[k]["F_mean"])
    global_max_ok = best == 0

    small = curves[0.01].rows
    f0, se0 = small[0]["F_mean"], small[0]["F_stderr"]
    plateau, sep = small[-1]["F_mean"], small[-1]["F_stderr"]
    # dip: some grid point near Delta ~ omega0 at least 3 sigma below both ends
    dip_ok = False
    dip_at = None
    for row in small:
        if not 0.2 <= row["delta_over_omega0"] <= 2.0:
            continue
        f, se = row["F_mean"], row["F_stderr"]
        if (f0 - f > 3.0 * math.hypot(se, se0)
                and plateau - f > 3.0 * math.hypot(se, sep)):
            dip_ok = True
            dip_at = row["delta_over_omega0"]
            break
    crossover_ok = plateau - f0 > 3.0 * math.hypot(se0, sep)
    ok = global_max_ok and dip_ok and crossover_ok
    report(6, ok,
           f"delta1=0.1 global max at Delta=0: {global_max_ok}; "
           f"delta1=0.01 dip at Delta/omega0={dip_at} (>=3 sigma below both ends): {dip_ok}; "
           f"F(5*omega0)-F(0) = {plateau - f0:+.2e} >= 3 sigma: {crossover_ok}")


def test_criterion_7_fig4_maxima(tmp_path):
    grid = np.arange(2.0, 41.0)  # step 1
    arrows = {math.sqrt(3): 30.0, math.sqrt(8): 20.0, math.sqrt(15): 15.0,
              math.sqrt(35): 10.0, math.sqrt(143): 5.0}
    cfg = EstimatorConfig(m=300, n=300, spec=NoiseSpec(0.05, 0.05), seed=SEED,
                          control_mode="unfixed")
    t0 = time.time()
    res = sweep_fig4(omega0_grid=grid, alpha_list=list(arrows), cfg=cfg)
    sequential = time.time() - t0

    argmax_ok = True
    found = []
    for alpha, arrow in arrows.items():
        rows = [r for r in res.rows if r["alpha"] == alpha]
        best = max(rows, key=lambda r: r["F_mean"])
        found.append(f"alpha^2={alpha**2:.0f}: {best['omega0']:.0f}")
        if abs(best["omega0"] - arrow) > 1.0 + 1e-9:
            argmax_ok = False

    # parallel run must be byte-identical; speedup is measured best-of-two
    # (wall clock on a shared box is noisy; the hard contract is identity)
    seq_csv, par_csv = str(tmp_path / "seq.csv"), str(tmp_path / "par.csv")
    write_csv(res, seq_csv)
    workers = min(os.cpu_count() or 1, 4)
    par_cfg = EstimatorConfig(m=300, n=300, spec=NoiseSpec(0.05, 0.05),
                              seed=SEED, control_mode="unfixed", workers=workers)
    parallel = math.inf
    for rep in range(2):
        t0 = time.time()
        par = sweep_fig4(omega0_grid=grid, alpha_list=list(arrows), cfg=par_cfg)
        parallel = min(parallel, time.time() - t0)
        if rep == 0:
            write_csv(par, par_csv)
    with open(seq_csv, "rb") as a, open(par_csv, "rb") as b:
        identical = a.read() == b.read()
    speedup = sequential / parallel if parallel > 0 else float("inf")
    speedup_ok = (os.cpu_count() or 1) < 2 or sequential < 4.0 or speedup >= 1.05

    ok = argmax_ok and identical and sequential <= 900.0 and speedup_ok
    report(7, ok,
           f"argmax per curve [{', '.join(found)}] (want 30/20/15/10/5 +-1); "
           f"sequential {sequential:.1f}s (<=900s); {workers}-worker run "
           f"byte-identical={identical}, speedup x{speedup:.2f}")


def test_criterion_8_fig3_structure():
    n_axis = 21
    omega0_grid = np.logspace(math.log10(5.0), math.log10(50.0), n_axis)
    omega1_grid = np.logspace(math.log10(10.0), math.log10(100.0), n_axis)
    cfg = EstimatorConfig(m=300, n=300, spec=NoiseSpec(0.1, 0.1), seed=SEED,
                          control_mode="fixed0")
    res = sweep_fig3(omega0_grid=omega0_grid, omega1_grid=omega1_grid, cfg=cfg)
    ok = True
    worst = 0
    for i in range(n_axis):
        rows = res.rows[i * n_axis:(i + 1) * n_axis]
        best = max(range(n_axis), key=lambda k: rows[k]["F_mean"])
        # the omega1 = 2*omega0 line crosses row i exactly at column i
        off = abs(best - i)
        worst = max(worst, off)
        if off > 1:
            ok = False
    report(8, ok,
           f"21x21 grid: argmax over omega1 sits on the omega1=2*omega0 "
           f"diagonal within {worst} grid step(s) (<=1) for all omega0")


def test_criterion_9_determinism_and_convergence(tmp_path, real_pools, monkeypatch):
    # byte-identical CSV across 1/4/8 workers and across consecutive runs; the
    # 75.6k per-shot shots start real pools only below a lowered threshold
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)
    cpus = max(2, os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    delta_grid = np.linspace(0.0, 4.0, 21)
    blobs = {}
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("w1b", 1)):
        cfg = EstimatorConfig(m=60, n=60, spec=NoiseSpec(0.1, 0.1), seed=SEED,
                              workers=workers)
        res = sweep_fig1(omega0_grid=[1e5], delta_grid=delta_grid, cfg=cfg)
        path = str(tmp_path / f"{tag}.csv")
        write_csv(res, path)
        with open(path, "rb") as fh:
            blobs[tag] = fh.read()
    same = blobs["w1"] == blobs["w4"] == blobs["w8"] == blobs["w1b"]
    assert real_pools == [min(4, cpus), min(8, cpus)]

    # stderr slope on log-log over m*n in [1e2, 1e6] (m fixed, n growing:
    # the standard error is taken across per-state means)
    w0 = 1e5
    w1 = zero_dynamic_omega1(w0, 1.5)
    p = DriveParams(omega_for_beta(w0, w1, 1.5), w0, w1)
    m = 10
    ns = [10, 100, 1000, 10_000, 100_000]
    errs = [estimate_single(p, NoiseSpec(0.1, 0.1), m, n, RngStream(SEED).child(1)).stderr
            for n in ns]
    slope = float(np.polyfit(np.log10([m * n for n in ns]), np.log10(errs), 1)[0])
    slope_ok = -0.6 <= slope <= -0.4

    ok = same and slope_ok
    report(9, ok,
           f"CSV byte-identical across workers 1/4/8 and reruns: {same}; "
           f"stderr slope vs m*n = {slope:.3f} (within [-0.6, -0.4])")
