#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against BENCHMARK.json's bounds.

    python3 bench/compare.py collect bench/out/set-a --seeds 1-10
    python3 bench/compare.py collect bench/out/set-b --seeds 11-20
    python3 bench/compare.py diff bench/out/set-a bench/out/set-b

`collect` runs bench/run.py untraced, for BENCHMARK.json's run_seconds, once
per workload and seed (one at a time) and keeps each run's result line.
`diff` prints, per workload and end-to-end metric, each set's median and
quartiles, the spread (Q3 - Q1) / median and, with two sets, the change of
the second median against the first in the metric's worse direction. A
spread must stay within the metric's bound, a change within the bound, and
the two sets must fail the same share of operations. Exit code 1 if any of
these does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(ns) -> int:
    spec = load_spec()
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    for wl in spec["workloads"]:
        name = wl["name"]
        for seed in ns.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = {"workload": name, "seed": seed, "result": result}
            (out / f"{name}.seed{seed}.json").write_text(json.dumps(record) + "\n")
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)
    return 0


def load_set(path: str) -> dict:
    """{workload: [result, ...]} for the runs in a directory."""
    runs = {}
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text())
        runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values: list):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def diff(ns) -> int:
    spec = load_spec()
    sets = [load_set(p) for p in ns.sets]
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        if any(name not in s for s in sets):
            print(f"{name}: no runs in {'/'.join(ns.sets)}")
            ok = False
            continue
        shares = [(sum(r["failed"] for r in s[name]), sum(r["attempted"] for r in s[name]))
                  for s in sets]
        print(f"{name}: runs {'/'.join(str(len(s[name])) for s in sets)}, failed "
              + "/".join(f"{f} of {a}" for f, a in shares))
        if len(sets) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  failed share differs between the sets")
            ok = False
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            line = f"  {key:<12}"
            stats = []
            for s in sets:
                med, q1, q3, spread = summary([r["metrics"][key]["value"] for r in s[name]])
                stats.append(med)
                flag = "" if spread <= bound else " SPREAD>BOUND"
                ok = ok and not flag
                line += f" | median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.1%}{flag}"
            if len(sets) == 2:
                worse = (stats[1] - stats[0]) / stats[0]
                if metric["better"] == "higher":
                    worse = -worse
                within = worse <= bound
                ok = ok and within
                line += f" | worse by {worse:+.1%} (bound {bound:.0%}) " + (
                    "within" if within else "OUT OF BOUND")
            print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="cmd", required=True)
    c = subs.add_parser("collect", help="run the benchmark once per workload and seed")
    c.add_argument("out", help="directory for this set's results")
    c.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    c.set_defaults(func=collect)
    d = subs.add_parser("diff", help="summarise one set, or compare two")
    d.add_argument("sets", nargs="+", help="one or two directories written by collect")
    d.set_defaults(func=diff)
    ns = parser.parse_args(argv)
    if ns.cmd == "diff" and len(ns.sets) > 2:
        parser.error("diff takes one or two sets")
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
