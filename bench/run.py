#!/usr/bin/env python3
"""Scan benchmark for geomgate.

    python3 bench/run.py --workload fig1-manystates --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is taken from ./src,
nothing needs installing. With --trace 0 every round is a fresh
`python -m geomgate ...` process and the end-to-end metrics are printed;
with --trace 1 the same inputs run in process through the package's public
functions and per-layer metrics are printed (see layers.py). Whole rounds
repeat for about --seconds (see workloads.another_round). Every output row is
checked against an independent quadrature oracle (oracle.py) and the
properties in workloads.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run record (versions, git commit, worker
count, per-round samples) is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads, here and in every child

import workloads as wls  # noqa: E402  (numpy loads after the pins)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: no single CLI process may take longer than this
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SIM_SEED", None)
    return env


def spawn(args: list, log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run `python <args>` from the checkout root; (wall s, exit code, peak RSS MB).

    The peak RSS is the child's rusage from wait4, which covers the child and
    the workers it reaped: the largest single process, not their sum.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the scan and its pool workers
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(wl, args, workers: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": scipy_version, "cpu_count": os.cpu_count(), "workers": workers,
        "thread_pins": THREAD_PINS, "m": wl.m, "n": wl.n,
    }


class Tally:
    """Operations attempted and failed; problems go to stderr, the first few in full."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {what}: {'; '.join(problems[:3])}", file=sys.stderr)
        return not problems


def gate_call(wl, seed: int, k: int, tally: Tally) -> float:
    """One cold `geomgate gate` process, checked; returns its wall time."""
    gate = wl.gate_args(seed, k)
    log = OUT / f"{wl.name}.gate.log"
    wall, code, _ = spawn(["-m", "geomgate", *gate], log)
    problems = [f"exit code {code}"] if code else wls.checked(wls.check_gate, wl, gate,
                                                              log.read_text())
    tally.op(" ".join(gate), problems)
    return wall


def scan_round(wl, seed: int, workers: int, points, exact, tally: Tally, first_csv):
    """One CLI scan and its checks; returns (wall s, peak MB, CSV bytes)."""
    csv_path = OUT / f"{wl.name}.csv"
    meta = Path(str(csv_path) + ".meta")
    for stale in (csv_path, meta):
        stale.unlink(missing_ok=True)
    args = ["-m", "geomgate", *wl.args, "--seed", str(seed), "--m", str(wl.m),
            "--n", str(wl.n), "--workers", str(workers), "--out", str(csv_path)]
    wall, code, rss = spawn(args, OUT / f"{wl.name}.scan.log")
    problems = []
    if code:
        problems.append(f"exit code {code}")
    if not meta.exists():
        problems.append("no .meta sidecar")
    rows = wls.read_rows(csv_path) if not problems else []
    if not problems and len(rows) != len(points):
        problems.append(f"{len(rows)} rows, want {len(points)}")
    blob = csv_path.read_bytes() if not problems else b""
    if not problems:
        problems += wls.checked(wls.check_properties, wl, rows, points)
    if first_csv is not None and blob != first_csv:
        problems.append("CSV differs from the first round of this run")
    scan_ok = tally.op("scan " + " ".join(args[2:]), problems)
    for k, point in enumerate(points):
        if not scan_ok:
            tally.op(f"row {k}", ["scan failed"])
        else:
            tally.op(f"row {k}", wls.checked(wls.check_row, wl, rows[k], point, exact[k], seed))
    return wall, rss, blob


def run_untraced(wl, args, record: dict, tally: Tally) -> dict:
    """Rounds of one gate call and one scan for about args.seconds.

    Set-up calls are spread over the run like the scans, so a slow spell of
    the machine weighs on both medians alike; call 0 only warms the file
    cache and is not timed.
    """
    workers = record["workers"]
    points = wl.points()
    exact = wls.exact_fidelities(wl, points)
    feasible = sum(p.feasible for p in points)
    gate_call(wl, args.seed, 0, tally)
    setup, walls, rss, rounds, first = [], [], [], [], None
    start = time.perf_counter()
    while wls.another_round(start, rounds, args.seconds):
        began = time.perf_counter()
        setup.append(gate_call(wl, args.seed, len(walls) + 1, tally))
        wall, peak, blob = scan_round(wl, args.seed, workers, points, exact, tally, first)
        first = blob if first is None else first
        walls.append(wall)
        rss.append(peak)
        rounds.append(time.perf_counter() - began)
    record.update(setup_samples_s=setup, scan_samples_s=walls, rss_samples_mb=rss)
    return {
        "scan_s": (statistics.median(walls), "s"),
        "shots_per_s": (statistics.median([feasible * wl.m * wl.n / w for w in walls]), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def main(argv=None) -> int:
    # a terminated run unwinds through spawn, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomgate" / "__init__.py").is_file():
        print(f"error: no geomgate sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = wls.WORKLOADS[args.workload]
    record = run_record(wl, args, wls.workers_used(wl))
    tally = Tally()
    if args.trace:
        sys.path.insert(0, str(SRC))
        import layers
        metrics = layers.run_traced(wl, args, record, tally, child_env(), ROOT, OUT)
    else:
        metrics = run_untraced(wl, args, record, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    path = OUT / f"{wl.name}.seed{args.seed}.trace{args.trace}.run.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
