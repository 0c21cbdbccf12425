"""Workloads, the round schedule and the correctness checks of both run modes.

A workload is one `python -m geomgate ...` scan plus the gate reports that
time a cold CLI start at points of the same kind. Its grid is fixed; the
seed given to the benchmark becomes the scan's `--seed` and picks the gate
points, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import math
import os
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

import oracle

#: |F_mean - F_exact| may reach K_SIGMA exact standard errors before a row fails
K_SIGMA = 6.0
#: the reported F_stderr must lie within this factor of the exact standard error
STDERR_FACTOR = 5.0
#: relative tolerance on parameters and phases against the recomputed closed forms
REL_TOL = 1e-9
SQRT3 = math.sqrt(3.0)
FIG4_ALPHAS = tuple(math.sqrt(a) for a in (3, 8, 15, 35, 143))


@dataclass(frozen=True)
class Point:
    """One expected CSV row: grid coordinates and the recomputed parameters."""

    omega0: float
    omega1: float | None  # None when infeasible
    omega: float | None
    coupling: float = 0.0
    alpha: float | None = None
    delta_rel: float | None = None

    @property
    def feasible(self) -> bool:
        return self.omega is not None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "single" | "two_qubit"
    args: tuple  # CLI arguments before --seed/--m/--n/--workers/--out
    m: int
    n: int
    workers: int
    spec: tuple  # (delta0, delta1), lock-step
    model: str
    control: str | None

    def points(self) -> list:
        return _POINTS[self.name]()

    def gate_args(self, seed: int, k: int) -> list:
        """Arguments of the k-th `geomgate gate` call of a run: a zero-dynamic point."""
        rng = random.Random(f"{self.name}:{seed}:{k}")
        if self.kind == "single":
            return ["gate", "--beta", "1.5", "--omega0", repr(rng.uniform(0.25e5, 2e5)),
                    "--zero-dynamic"]
        if self.name == "fig3-phase":
            alpha, w0 = SQRT3, rng.uniform(5.0, 50.0)
        else:
            alpha, w0 = rng.choice(FIG4_ALPHAS), rng.uniform(2.0, 40.0)
        return ["gate", "--two-qubit", "--alpha", repr(alpha), "--omega0", repr(w0)]


def _fig3_points():
    g0 = np.logspace(math.log10(5.0), math.log10(50.0), 31)
    g1 = np.logspace(math.log10(10.0), math.log10(100.0), 31)
    out = []
    for w0 in g0:
        for w1 in g1:
            omega, j = oracle.two_qubit_point(w0, w1, SQRT3)
            out.append(Point(w0, w1, omega, j, SQRT3))
    return out


def _fig4_points():
    out = []
    for alpha in FIG4_ALPHAS:
        for w0 in np.linspace(2.0, 40.0, 39):
            omega, j = oracle.two_qubit_point(w0, 60.0, alpha)
            out.append(Point(w0, 60.0, omega, j, alpha))
    return out


FIG1_OMEGA0 = 1e5
FIG1_GRID = (-0.4, 3.6, 21)  # Delta/omega0 START:STOP:NUM; the first two points are infeasible


def fig1_deltas():
    start, stop, num = FIG1_GRID
    step = (stop - start) / (num - 1)
    return [start + step * k for k in range(num)]


def _fig1_points():
    out = []
    for d in fig1_deltas():
        solved = oracle.single_point(FIG1_OMEGA0, d, 1.5)
        if solved is None:
            out.append(Point(FIG1_OMEGA0, None, None, delta_rel=d))
        else:
            omega, w1 = solved
            out.append(Point(FIG1_OMEGA0, w1, omega, delta_rel=d))
    return out


_POINTS = {"fig3-phase": _fig3_points, "fig1-manystates": _fig1_points,
           "fig4-propagator": _fig4_points}

WORKLOADS = {
    "fig3-phase": Workload(
        "fig3-phase", "two_qubit", ("reproduce", "fig3"), m=12, n=12, workers=1,
        spec=(0.1, 0.1), model="phase", control="fixed0"),
    "fig1-manystates": Workload(
        "fig1-manystates", "single",
        ("sweep", "--beta", "1.5", "--omega0", repr(FIG1_OMEGA0),
         "--grid-delta-rel=%r:%r:%d" % FIG1_GRID),
        m=8, n=400, workers=1, spec=(0.1, 0.1), model="phase", control=None),
    "fig4-propagator": Workload(
        "fig4-propagator", "two_qubit",
        ("reproduce", "fig4", "--gate-model", "propagator"),
        m=12000, n=12, workers=2, spec=(0.05, 0.05), model="propagator", control="unfixed"),
}


def another_round(start: float, round_s: list, seconds: float) -> bool:
    """Whether a run that began at `start` (perf_counter) starts another whole round.

    It does while a round of the median length so far would end less than
    half a round past `seconds`, so a run measures `seconds` on average
    instead of overrunning by half a round.
    """
    if not round_s:
        return True
    return time.perf_counter() - start + statistics.median(round_s) / 2 < seconds


def workers_used(wl: Workload) -> int:
    return max(1, min(wl.workers, os.cpu_count() or 1))


def exact_fidelities(wl: Workload, points) -> list:
    """Quadrature reference (F, Var_state, E Var_shot) per point (None where infeasible)."""
    out = []
    for p in points:
        if not p.feasible:
            out.append(None)
        elif wl.kind == "single":
            out.append(oracle.exact_single(p.omega, p.omega0, p.omega1, wl.spec, wl.model))
        else:
            out.append(oracle.exact_two_qubit(p.omega, p.omega0, p.omega1, p.coupling,
                                              wl.spec, wl.model, wl.control))
    return out


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct


def _close(got, want: float) -> bool:
    return math.isclose(float(got), want, rel_tol=REL_TOL, abs_tol=REL_TOL)


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_row(wl: Workload, row: dict, point: Point, exact, seed: int) -> list:
    """One CSV row against the recomputed point and the quadrature oracle."""
    problems = []
    if row.get("feasible") != ("1" if point.feasible else "0"):
        return [f"feasible={row.get('feasible')!r}, want {int(point.feasible)}"]
    if not point.feasible:
        return [] if row["F_mean"] == "" else ["infeasible row carries F_mean"]
    for key, want in (("omega0", point.omega0), ("omega1", point.omega1),
                      ("omega", point.omega)):
        if not _close(row[key], want):
            problems.append(f"{key}={row[key]} want {want!r}")
    if wl.kind == "two_qubit" and not _close(row["J"], point.coupling):
        problems.append(f"J={row['J']} want {point.coupling!r}")
    block_omega1 = point.omega1 - point.coupling
    for key, want in (("gamma", oracle.total_phase(point.omega, point.omega0, block_omega1)),
                      ("gamma_d", oracle.dynamic_phase(point.omega, point.omega0, block_omega1)),
                      ("chi", oracle.chi(point.omega, point.omega0, block_omega1))):
        if not _close(row[key], want):
            problems.append(f"{key}={row[key]} want {want!r}")
    if (row["m"], row["n"], row["seed"]) != (str(wl.m), str(wl.n), str(seed)):
        problems.append(f"m,n,seed = {row['m']},{row['n']},{row['seed']}")
    f_mean, f_err = float(row["F_mean"]), float(row["F_stderr"])
    sigma = oracle.standard_error(exact, wl.m, wl.n)
    if not f_mean <= 1.0:
        problems.append(f"F_mean={f_mean} > 1")
    if abs(f_mean - exact[0]) > K_SIGMA * sigma:
        problems.append(f"F_mean={f_mean} vs exact {exact[0]:.12e}: "
                        f"{abs(f_mean - exact[0]) / sigma:.1f} sigma > {K_SIGMA}")
    if not sigma / STDERR_FACTOR <= f_err <= sigma * STDERR_FACTOR:
        problems.append(f"F_stderr={f_err} vs exact standard error {sigma:.6e}")
    return problems


def check_properties(wl: Workload, rows: list, points: list) -> list:
    """Scan-level properties the method must show."""
    if wl.name == "fig3-phase":
        side = 31
        g1 = np.log([p.omega1 for p in points[:side]])
        problems = []
        for i in range(side):
            f = [float(r["F_mean"]) for r in rows[i * side:(i + 1) * side]]
            diag = int(np.argmin(np.abs(g1 - math.log(2.0 * points[i * side].omega0))))
            best = int(np.argmax(f))
            if abs(best - diag) > 1:
                problems.append(f"omega0 row {i}: argmax column {best}, diagonal {diag}")
        return problems
    if wl.name == "fig1-manystates":
        feas = [(float(r["F_mean"]), p.delta_rel) for r, p in zip(rows, points) if p.feasible]
        step = (FIG1_GRID[1] - FIG1_GRID[0]) / (FIG1_GRID[2] - 1)
        best = max(feas)[1]
        if abs(best) > step * (1 + 1e-9):
            return [f"argmax at Delta/omega0={best}, want 0 within {step}"]
    return []


def parse_gate_report(text: str) -> dict:
    """`geomgate gate` output: scalar fields per block and the gate matrix."""
    fields, rows, block = {}, [], ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("block "):
            block = stripped.split(":")[0].replace(" ", "") + "."
            key, val = stripped.split(":", 1)[1].split("=")
            fields[block + key.strip()] = float(val)
        elif stripped.startswith("("):
            rows.append([complex(z.strip("()")) for z in stripped.split()])
        elif "=" in stripped:
            key, val = stripped.split("=")
            fields[block + key.strip()] = float(val)
    fields["gate"] = np.array(rows)
    return fields


def check_gate(wl: Workload, args: list, text: str) -> list:
    """A gate report on the zero-dynamic line against the recomputed closed forms."""
    got = parse_gate_report(text)
    w0 = float(args[args.index("--omega0") + 1])
    problems = []
    if wl.kind == "single":
        solved = oracle.single_point(w0, 0.0, 1.5)
        omega, w1 = solved
        blocks = {"": w1}
        gate = oracle.one_cycle_gate(omega, w0, w1)
    else:
        alpha = float(args[args.index("--alpha") + 1])
        w1 = math.sqrt(1.0 + alpha * alpha) * w0
        omega, j = oracle.two_qubit_point(w0, w1, alpha)
        blocks = {"block0.": w1 - j, "block1.": w1 + j}
        gate = np.zeros((4, 4), dtype=complex)
        gate[:2, :2] = oracle.one_cycle_gate(omega, w0, w1 - j)
        gate[2:, 2:] = oracle.one_cycle_gate(omega, w0, w1 + j)
        if not _close(got.get("J", math.nan), j):
            problems.append(f"J={got.get('J')} want {j!r}")
    for key, want in (("omega", omega), ("omega0", w0), ("omega1", w1)):
        if not _close(got.get(key, math.nan), want):
            problems.append(f"{key}={got.get(key)} want {want!r}")
    for prefix, wl_eff in blocks.items():
        g_d = got.get(prefix + "gamma_d", math.nan)
        want = oracle.dynamic_phase(omega, w0, wl_eff)
        if not (abs(g_d) <= REL_TOL and abs(want) <= REL_TOL):
            problems.append(f"{prefix}gamma_d={g_d} (closed form {want!r}), want 0")
        for key, value in (("gamma", oracle.total_phase(omega, w0, wl_eff)),
                           ("chi", oracle.chi(omega, w0, wl_eff))):
            if not _close(got.get(prefix + key, math.nan), value):
                problems.append(f"{prefix}{key}={got.get(prefix + key)} want {value!r}")
    if got["gate"].shape != gate.shape or np.abs(got["gate"] - gate).max() > REL_TOL:
        problems.append("gate matrix differs from the recomputed one-cycle gate")
    return problems


def checked(check, *args) -> list:
    """The problems a check finds; output it cannot parse is a problem too."""
    try:
        return check(*args)
    except (KeyError, ValueError, IndexError) as err:
        return [f"unreadable output: {err!r}"]
