"""Command-line front end: gate reports, fidelity points, sweeps, presets.

Subcommands
    gate       print the solved drive parameters, phases and gate matrix
    fidelity   Monte Carlo fidelity at one parameter point (one CSV row)
    sweep      generic grid scan, CSV output
    reproduce  run a built-in figure preset (fig1..fig4)

Configuration values may come from a key=value config file (--config); CLI
flags override file values. The default seed comes from --seed, else the
SIM_SEED environment variable, else 0. Every CSV gets a sidecar
<name>.meta recording the full configuration; reruns with an identical
configuration are byte-identical, whatever --workers is.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys

from . import __version__
from .model import (
    DriveParams,
    InfeasibleParameters,
    TwoQubitParams,
    big_omega,
    chi_angle,
    omega_for_beta,
    phases,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from .evolve import ideal_gate_u2, one_cycle_gate
from .noise import NoiseSpec
from .sweep import (
    EstimatorConfig,
    SweepResult,
    _single_point,
    _two_qubit_point,
    sweep_fig1,
    sweep_fig2,
    sweep_fig3,
    sweep_fig4,
    sweep_generic,
    SweepPoint,
)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _fmt(value) -> str:
    """Stable CSV/report formatting: 13 significant digits, '.' separator."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.12e" % value
    return str(value)


def read_config(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _kv_lines(mapping: dict):
    for key, val in mapping.items():
        if isinstance(val, (list, tuple)):
            val = ",".join(_fmt(v) for v in val)
        else:
            val = _fmt(val)
        yield f"{key}={val}\n"


def _write_atomic(files: dict) -> None:
    """Write each {path: lines} to a temporary file beside its path, then
    rename them all into place; on error no temporary file is left."""
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    try:
        for path, lines in files.items():
            with open(tmps[path], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def write_kv(path: str, mapping: dict) -> None:
    _write_atomic({path: _kv_lines(mapping)})


def write_csv(result: SweepResult, path: str) -> None:
    """CSV plus its .meta sidecar; an error leaves neither file half written."""
    rows = (",".join(_fmt(row[c]) for c in result.columns) + "\n" for row in result.rows)
    _write_atomic({path: itertools.chain([",".join(result.columns) + "\n"], rows),
                   path + ".meta": _kv_lines(result.metadata)})


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_grid(text: str) -> list:
    """START:STOP:NUM inclusive linear grid, or a comma list of values."""
    if ":" in text:
        start, stop, num = text.split(":")
        num = int(num)
        if num < 1:
            raise ValueError(f"grid needs >= 1 points, got {num}")
        if num == 1:
            return [float(start)]
        step = (float(stop) - float(start)) / (num - 1)
        return [float(start) + step * k for k in range(num)]
    return [float(v) for v in text.split(",")]


class _Settings:
    """Layered lookup: CLI flag, then config file, then hard default.

    A config key that names no option of the subcommand is an error, so a
    misspelt key cannot silently fall back to its default.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = read_config(ns.config) if getattr(ns, "config", None) else {}
        # every option dest; not the subcommand bookkeeping or the positional
        options = set(vars(ns)) - {"command", "func", "config", "figure"}
        unknown = sorted(set(self.file) - options)
        if unknown:
            raise ValueError(f"{ns.config}: unknown config key(s): {', '.join(unknown)}")

    def get(self, key: str, default=None, parse=float):
        cli = getattr(self.ns, key, None)
        if cli is not None:
            return cli
        if key in self.file:
            raw = self.file[key]
            if parse is bool:
                return _parse_bool(raw)
            return parse(raw)
        return default

    def seed(self) -> int:
        explicit = self.get("seed", default=None, parse=int)
        if explicit is not None:
            return explicit
        env = os.environ.get("SIM_SEED")
        return int(env) if env else 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file supplying defaults")
    sub.add_argument("--seed", type=int, help="RNG seed (default: $SIM_SEED or 0)")


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, help="total phase targeted as -beta*pi")
    sub.add_argument("--omega", type=float, help="drive rotation rate (direct entry)")
    sub.add_argument("--omega0", type=float, help="transverse field strength")
    sub.add_argument("--omega1", type=float, help="longitudinal field strength")
    sub.add_argument("--delta", type=float,
                     help="offset added to the zero-dynamic omega1 (absolute)")
    sub.add_argument("--branch", choices=["plus", "minus"],
                     help="root branch of the drive-rate solver (default minus)")
    sub.add_argument("--two-qubit", action="store_true", dest="two_qubit",
                     help="conditional two-qubit gate")
    sub.add_argument("--alpha", type=float, help="coupling generator J = alpha*omega0")
    sub.add_argument("--coupling-j", type=float, dest="coupling_j",
                     help="Ising coupling J (direct entry)")
    sub.add_argument("--zero-dynamic", action="store_true", dest="zero_dynamic",
                     help="place omega1 on the zero-dynamic-phase line (with --beta)")


def _add_estimator(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta0", type=float, help="relative half-width on omega0")
    sub.add_argument("--delta1", type=float, help="relative half-width on omega1")
    sub.add_argument("--independent", action="store_const", const=True,
                     help="draw the two noise channels independently")
    sub.add_argument("--m", type=int, help="noise shots per input state")
    sub.add_argument("--n", type=int, help="number of input states")
    sub.add_argument("--control-mode", choices=["fixed0", "fixed1", "unfixed"],
                     dest="control_mode", help="control-qubit handling (two-qubit)")
    sub.add_argument("--gate-model", choices=["phase", "propagator"], dest="gate_model",
                     help="noisy-gate construction (default: phase)")
    sub.add_argument("--haar", action="store_const", const=True,
                     help="sample input states from the sphere measure")
    sub.add_argument("--workers", type=int, help="parallel worker processes")
    sub.add_argument("--out", help="output CSV path")


def _resolve_single(s: _Settings) -> tuple[DriveParams, float | None]:
    """DriveParams from flags; returns (params, delta_rel or None)."""
    omega0 = s.get("omega0")
    if omega0 is None:
        raise InfeasibleParameters("--omega0 is required")
    omega = s.get("omega")
    branch = s.get("branch", "minus", parse=str)
    if omega is not None:
        omega1 = s.get("omega1")
        if omega1 is None:
            raise InfeasibleParameters("--omega1 is required with --omega")
        return DriveParams(omega=omega, omega0=omega0, omega1=omega1), None
    beta = s.get("beta")
    if beta is None:
        raise InfeasibleParameters("give either --omega or --beta")
    omega1 = s.get("omega1")
    if omega1 is not None and s.get("zero_dynamic", False, parse=bool):
        raise InfeasibleParameters("--zero-dynamic and --omega1 are mutually exclusive")
    delta_rel = None
    if omega1 is None:
        delta = s.get("delta", 0.0)
        omega1 = zero_dynamic_omega1(omega0, beta) + delta
        delta_rel = delta / omega0
    omega = omega_for_beta(omega0, omega1, beta, branch=branch)
    return DriveParams(omega=omega, omega0=omega0, omega1=omega1), delta_rel


def _resolve_two_qubit(s: _Settings) -> TwoQubitParams:
    omega0 = s.get("omega0")
    if omega0 is None:
        raise InfeasibleParameters("--omega0 is required")
    alpha = s.get("alpha")
    omega1 = s.get("omega1")
    omega = s.get("omega")
    coupling = s.get("coupling_j")
    if omega is not None and coupling is not None:
        if omega1 is None:
            raise InfeasibleParameters("--omega1 is required with --omega")
        target = DriveParams(omega=omega, omega0=omega0, omega1=omega1)
        return TwoQubitParams(target=target, coupling_j=coupling, alpha=alpha)
    if alpha is None:
        raise InfeasibleParameters("two-qubit points need --alpha (or --omega with --coupling-j)")
    if omega1 is None:
        return two_qubit_geometric_point(omega0, alpha)
    return two_qubit_from_alpha(omega0, omega1, alpha)


def _signed(x: float) -> str:
    s = _fmt(x)
    return s if s.startswith("-") else "+" + s


def _gate_lines(m) -> list:
    return ["  " + "  ".join("(%s%sj)" % (_fmt(z.real), _signed(z.imag)) for z in row)
            for row in m]


def cmd_gate(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    lines = []
    if s.get("two_qubit", False, parse=bool):
        p2 = _resolve_two_qubit(s)
        t = p2.target
        lines += [f"omega   = {_fmt(t.omega)}",
                  f"omega0  = {_fmt(t.omega0)}",
                  f"omega1  = {_fmt(t.omega1)}",
                  f"J       = {_fmt(p2.coupling_j)}"]
        if p2.alpha is not None:
            lines.append(f"alpha   = {_fmt(p2.alpha)}")
        for d in (0, 1):
            blk = shifted_target(p2, d)
            tri = phases(blk)
            lines += [f"block {d}: omega1_eff = {_fmt(blk.omega1)}",
                      f"  Omega    = {_fmt(big_omega(blk))}",
                      f"  chi      = {_fmt(chi_angle(blk))}",
                      f"  gamma    = {_fmt(tri.gamma)}",
                      f"  gamma_g  = {_fmt(tri.gamma_g)}",
                      f"  gamma_d  = {_fmt(tri.gamma_d)}"]
        lines.append("gate (4x4, basis |00>,|01>,|10>,|11>):")
        lines += _gate_lines(ideal_gate_u2(p2))
    else:
        p, _ = _resolve_single(s)
        tri = phases(p)
        lines += [f"omega   = {_fmt(p.omega)}",
                  f"omega0  = {_fmt(p.omega0)}",
                  f"omega1  = {_fmt(p.omega1)}",
                  f"Omega   = {_fmt(big_omega(p))}",
                  f"chi     = {_fmt(chi_angle(p))}",
                  f"gamma   = {_fmt(tri.gamma)}",
                  f"gamma_g = {_fmt(tri.gamma_g)}",
                  f"gamma_d = {_fmt(tri.gamma_d)}",
                  "gate (2x2):"]
        lines += _gate_lines(one_cycle_gate(p))
    print("\n".join(lines))
    return 0


def _estimator_config(s: _Settings, default_spec: NoiseSpec,
                      default_mode: str = "unfixed") -> EstimatorConfig:
    workers = s.get("workers", 1, parse=int)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spec = NoiseSpec(
        s.get("delta0", default_spec.delta0),
        s.get("delta1", default_spec.delta1),
        s.get("independent", default_spec.independent, parse=bool),
    )
    return EstimatorConfig(
        m=s.get("m", 500, parse=int),
        n=s.get("n", 500, parse=int),
        spec=spec,
        seed=s.seed(),
        gate_model=s.get("gate_model", "phase", parse=str),
        haar=s.get("haar", False, parse=bool),
        control_mode=s.get("control_mode", default_mode, parse=str),
        workers=workers,
    )


def cmd_fidelity(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    cfg = _estimator_config(s, NoiseSpec(0.0, 0.0))
    if s.get("two_qubit", False, parse=bool):
        p2 = _resolve_two_qubit(s)
        point = SweepPoint(coords={"alpha": p2.alpha}, kind="two_qubit", params=p2)
    else:
        p, delta_rel = _resolve_single(s)
        coords = {} if delta_rel is None else {"delta_over_omega0": delta_rel}
        point = SweepPoint(coords=coords, kind="single", params=p)
    result = sweep_generic([point], cfg, {"preset": "point"})
    row = result.rows[0]
    print(",".join(result.columns))
    print(",".join(_fmt(row[c]) for c in result.columns))
    print(f"F = {_fmt(row['F_mean'])} +- {_fmt(row['F_stderr']) or 'nan'} "
          f"(m={row['m']}, n={row['n']}, seed={row['seed']})")
    out = s.get("out", None, parse=str)
    if out:
        write_csv(result, out)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    if s.get("two_qubit", False, parse=bool):
        cfg = _estimator_config(s, NoiseSpec(0.05, 0.05))
        alpha = s.get("alpha")
        if alpha is None:
            raise InfeasibleParameters("--alpha is required for a two-qubit sweep")
        omega1 = s.get("omega1", 60.0)
        grid = s.get("grid_omega0", None, parse=_parse_grid) or \
            _parse_grid("2:40:39")
        points = [_two_qubit_point(w0, omega1, alpha) for w0 in grid]
        meta = {"preset": "sweep", "alpha": alpha, "omega1": omega1,
                "omega0_grid": grid}
    else:
        cfg = _estimator_config(s, NoiseSpec(0.1, 0.1))
        beta = s.get("beta", 1.5)
        branch = s.get("branch", "minus", parse=str)
        omega0 = s.get("omega0", 1e5)
        grid = s.get("grid_delta_rel", None, parse=_parse_grid) or \
            _parse_grid("0:4:41")
        points = [_single_point(omega0, d, beta, branch) for d in grid]
        meta = {"preset": "sweep", "beta": beta, "branch": branch,
                "omega0": omega0, "delta_grid": grid}
    result = sweep_generic(points, cfg, meta)
    out = s.get("out", "sweep.csv", parse=str)
    write_csv(result, out)
    print(f"wrote {out} ({len(result.rows)} rows)")
    return 0


#: drive options (from _add_params) that each preset reads; the rest are refused
_PRESET_OPTIONS = {"fig1": {"beta", "branch"}, "fig2": {"omega0", "beta", "branch"},
                   "fig3": {"alpha"}, "fig4": {"omega1"}}
_DRIVE_OPTIONS = ("beta", "omega", "omega0", "omega1", "delta", "branch", "two_qubit",
                  "alpha", "coupling_j", "zero_dynamic")


def cmd_reproduce(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    fig = ns.figure
    unread = []
    for key in _DRIVE_OPTIONS:
        if key in _PRESET_OPTIONS[fig]:
            continue
        if getattr(ns, key) not in (None, False):
            unread.append("--" + key.replace("_", "-"))
        elif key in s.file:
            unread.append(key)
    if unread:
        raise ValueError(f"reproduce {fig} does not read {', '.join(unread)}")
    out = s.get("out", f"{fig}.csv", parse=str)
    written = []
    if fig == "fig1":
        cfg = _estimator_config(s, NoiseSpec(0.1, 0.1))
        result = sweep_fig1(beta=s.get("beta", 1.5),
                            branch=s.get("branch", "minus", parse=str), cfg=cfg)
        write_csv(result, out)
        written.append((out, len(result.rows)))
    elif fig == "fig2":
        cfg = _estimator_config(s, NoiseSpec(0.1, 0.1))
        d1 = s.get("delta1", None)
        results = sweep_fig2(
            delta1_list=[d1] if d1 is not None else None,
            omega0=s.get("omega0", 1e5),
            beta=s.get("beta", 1.5),
            delta0=s.get("delta0", 0.1),
            branch=s.get("branch", "minus", parse=str),
            cfg=cfg,
        )
        stem, ext = os.path.splitext(out)
        for val, result in results.items():
            path = f"{stem}_delta1_{val:g}{ext or '.csv'}"
            write_csv(result, path)
            written.append((path, len(result.rows)))
    elif fig == "fig3":
        cfg = _estimator_config(s, NoiseSpec(0.1, 0.1), default_mode="fixed0")
        result = sweep_fig3(alpha=s.get("alpha", math.sqrt(3)), cfg=cfg)
        write_csv(result, out)
        written.append((out, len(result.rows)))
    elif fig == "fig4":
        cfg = _estimator_config(s, NoiseSpec(0.05, 0.05))
        result = sweep_fig4(omega1=s.get("omega1", 60.0), cfg=cfg)
        write_csv(result, out)
        written.append((out, len(result.rows)))
    else:  # unreachable through argparse choices
        raise ValueError(f"unknown figure {fig!r}")
    for path, nrows in written:
        print(f"wrote {path} ({nrows} rows)")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and a digit, such as the grid
    -0.4:3.6:21, as a value rather than an option (the rule of Python 3.13;
    older versions take only plain negative numbers)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomgate",
        description="Rotating-field qubit gates and their fidelity under control noise",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gate", help="solve one gate point and print phases and matrix")
    _add_common(g)
    _add_params(g)
    g.set_defaults(func=cmd_gate)

    f = subs.add_parser("fidelity", help="Monte Carlo fidelity at one point")
    _add_common(f)
    _add_params(f)
    _add_estimator(f)
    f.set_defaults(func=cmd_fidelity)

    w = subs.add_parser("sweep", help="generic grid scan to CSV")
    _add_common(w)
    _add_params(w)
    _add_estimator(w)
    w.add_argument("--grid-delta-rel", dest="grid_delta_rel", type=_parse_grid,
                   help="Delta/omega0 grid as START:STOP:NUM or comma list")
    w.add_argument("--grid-omega0", dest="grid_omega0", type=_parse_grid,
                   help="omega0 grid as START:STOP:NUM or comma list")
    w.set_defaults(func=cmd_sweep)

    r = subs.add_parser("reproduce", help="run a built-in figure preset")
    r.add_argument("figure", choices=["fig1", "fig2", "fig3", "fig4"])
    _add_common(r)
    _add_params(r)
    _add_estimator(r)
    r.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (InfeasibleParameters, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
