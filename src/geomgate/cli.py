"""Command-line front end: gate reports, fidelity points, sweeps, presets.

Subcommands
    gate       print the solved drive parameters, phases and gate matrix
    fidelity   Monte Carlo fidelity at one parameter point (one CSV row)
    sweep      generic grid scan, CSV output
    reproduce  run a built-in figure preset (fig1..fig4)

Configuration values may come from a key=value config file (--config); CLI
flags override file values. A subcommand refuses, before it estimates or
writes anything, any option it does not read, whether given as a flag or
as a config key. The default seed comes from --seed, else the SIM_SEED
environment variable, else 0. Every CSV gets a sidecar <name>.meta
recording the full configuration; reruns with an identical configuration
are byte-identical, whatever --workers is. Preset defaults live in
sweep.PRESETS.
"""

from __future__ import annotations

import argparse
import itertools
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
from .fidelity import CONTROL_MODES, GATE_MODELS
from .noise import NoiseSpec
from .sweep import (
    PRESETS,
    EstimatorConfig,
    SweepPoint,
    SweepResult,
    single_point,
    sweep_fig1,
    sweep_fig2,
    sweep_fig3,
    sweep_fig4,
    sweep_generic,
    two_qubit_point,
)

_SWEEPS = {"fig1": sweep_fig1, "fig2": sweep_fig2, "fig3": sweep_fig3, "fig4": sweep_fig4}

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
    misspelt key cannot silently fall back to its default. Every key asked
    for is recorded, so refuse_unread() can name the options given that the
    command never read.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = read_config(ns.config) if getattr(ns, "config", None) else {}
        # every option dest; not the subcommand bookkeeping or the positional
        self.options = [k for k in vars(ns) if k not in {"command", "func", "config", "figure"}]
        unknown = sorted(set(self.file) - set(self.options))
        if unknown:
            raise ValueError(f"{ns.config}: unknown config key(s): {', '.join(unknown)}")
        self.read = set()

    def get(self, key: str, default=None, parse=float):
        self.read.add(key)
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

    def refuse_unread(self) -> None:
        """Raise ValueError naming each option given, as a flag or a config
        key, that no get() has asked for."""
        unread = []
        for key in self.options:
            if key in self.read:
                continue
            if getattr(self.ns, key) is not None:
                unread.append("--" + key.replace("_", "-"))
            elif key in self.file:
                unread.append(key)
        if unread:
            command = " ".join(filter(None, (self.ns.command, getattr(self.ns, "figure", None))))
            raise ValueError(f"{command} does not read {', '.join(unread)}")


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
    sub.add_argument("--two-qubit", action="store_const", const=True, dest="two_qubit",
                     help="conditional two-qubit gate")
    sub.add_argument("--alpha", type=float, help="coupling generator J = alpha*omega0")
    sub.add_argument("--coupling-j", type=float, dest="coupling_j",
                     help="Ising coupling J (direct entry)")
    sub.add_argument("--zero-dynamic", action="store_const", const=True, dest="zero_dynamic",
                     help="place omega1 on the zero-dynamic-phase line (with --beta)")


def _add_estimator(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta0", type=float, help="relative half-width on omega0")
    sub.add_argument("--delta1", type=float, help="relative half-width on omega1")
    sub.add_argument("--independent", action="store_const", const=True,
                     help="draw the two noise channels independently")
    sub.add_argument("--m", type=int, help="noise shots per input state")
    sub.add_argument("--n", type=int, help="number of input states")
    sub.add_argument("--control-mode", choices=CONTROL_MODES,
                     dest="control_mode", help="control-qubit handling (two-qubit)")
    sub.add_argument("--gate-model", choices=GATE_MODELS, dest="gate_model",
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
    if omega is not None:
        omega1 = s.get("omega1")
        if omega1 is None:
            raise InfeasibleParameters("--omega1 is required with --omega")
        return DriveParams(omega=omega, omega0=omega0, omega1=omega1), None
    beta = s.get("beta")
    if beta is None:
        raise InfeasibleParameters("give either --omega or --beta")
    branch = s.get("branch", "minus", parse=str)
    omega1 = s.get("omega1")
    # read either way: without --omega1 the zero-dynamic line is the default
    if s.get("zero_dynamic", False, parse=bool) and omega1 is not None:
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
    coupling = s.get("coupling_j")
    if coupling is not None:
        omega = s.get("omega")
        if omega is None or omega1 is None:
            raise InfeasibleParameters("--coupling-j needs --omega and --omega1")
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
    two_qubit = s.get("two_qubit", False, parse=bool)
    p = _resolve_two_qubit(s) if two_qubit else _resolve_single(s)[0]
    s.refuse_unread()
    lines = []
    if two_qubit:
        t = p.target
        lines += [f"omega   = {_fmt(t.omega)}",
                  f"omega0  = {_fmt(t.omega0)}",
                  f"omega1  = {_fmt(t.omega1)}",
                  f"J       = {_fmt(p.coupling_j)}"]
        if p.alpha is not None:
            lines.append(f"alpha   = {_fmt(p.alpha)}")
        for d in (0, 1):
            blk = shifted_target(p, d)
            tri = phases(blk)
            lines += [f"block {d}: omega1_eff = {_fmt(blk.omega1)}",
                      f"  Omega    = {_fmt(big_omega(blk))}",
                      f"  chi      = {_fmt(chi_angle(blk))}",
                      f"  gamma    = {_fmt(tri.gamma)}",
                      f"  gamma_g  = {_fmt(tri.gamma_g)}",
                      f"  gamma_d  = {_fmt(tri.gamma_d)}"]
        lines.append("gate (4x4, basis |00>,|01>,|10>,|11>):")
        lines += _gate_lines(ideal_gate_u2(p))
    else:
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


def _estimator_config(s: _Settings, spec: NoiseSpec, control_mode: str | None) -> EstimatorConfig:
    """Estimator options given as flags or config keys, else the given spec and
    control mode, else EstimatorConfig's; control_mode None reads no --control-mode."""
    given = {key: s.get(key, parse=parse) for key, parse in
             (("m", int), ("n", int), ("workers", int), ("gate_model", str), ("haar", bool))}
    if control_mode is not None:
        given["control_mode"] = s.get("control_mode", control_mode, parse=str)
    spec = NoiseSpec(
        s.get("delta0", spec.delta0),
        s.get("delta1", spec.delta1),
        s.get("independent", spec.independent, parse=bool),
    )
    return EstimatorConfig(spec=spec, seed=s.seed(),
                           **{key: val for key, val in given.items() if val is not None})


def cmd_fidelity(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    two_qubit = s.get("two_qubit", False, parse=bool)
    cfg = _estimator_config(s, NoiseSpec(0.0, 0.0), "unfixed" if two_qubit else None)
    if two_qubit:
        p2 = _resolve_two_qubit(s)
        point = SweepPoint(coords={"alpha": p2.alpha}, kind="two_qubit", params=p2)
    else:
        p, delta_rel = _resolve_single(s)
        coords = {} if delta_rel is None else {"delta_over_omega0": delta_rel}
        point = SweepPoint(coords=coords, kind="single", params=p)
    out = s.get("out", None, parse=str)
    s.refuse_unread()
    result = sweep_generic([point], cfg, {"preset": "point"})
    row = result.rows[0]
    print(",".join(result.columns))
    print(",".join(_fmt(row[c]) for c in result.columns))
    print(f"F = {_fmt(row['F_mean'])} +- {_fmt(row['F_stderr']) or 'nan'} "
          f"(m={row['m']}, n={row['n']}, seed={row['seed']})")
    if out:
        write_csv(result, out)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    """A two-qubit sweep is one fig4 curve, a single-qubit one a fig1 line at
    fig2's omega0; each on a grid of its own, with the presets' defaults."""
    s = _Settings(ns)
    if s.get("two_qubit", False, parse=bool):
        fig4 = PRESETS["fig4"]
        cfg = _estimator_config(s, fig4.spec, fig4.control_mode)
        alpha = s.get("alpha")
        if alpha is None:
            raise InfeasibleParameters("--alpha is required for a two-qubit sweep")
        omega1 = s.get("omega1", fig4.options["omega1"])
        grid = s.get("grid_omega0", None, parse=_parse_grid) or list(fig4.grids["omega0_grid"])
        points = [two_qubit_point(w0, omega1, alpha) for w0 in grid]
        meta = {"preset": "sweep", "alpha": alpha, "omega1": omega1,
                "omega0_grid": grid}
    else:
        fig1 = PRESETS["fig1"]
        cfg = _estimator_config(s, fig1.spec, None)
        beta = s.get("beta", fig1.options["beta"])
        branch = s.get("branch", fig1.options["branch"], parse=str)
        omega0 = s.get("omega0", PRESETS["fig2"].options["omega0"])
        grid = s.get("grid_delta_rel", None, parse=_parse_grid) or list(fig1.grids["delta_grid"])
        points = [single_point(omega0, d, beta, branch) for d in grid]
        meta = {"preset": "sweep", "beta": beta, "branch": branch,
                "omega0": omega0, "delta_grid": grid}
    out = s.get("out", "sweep.csv", parse=str)
    s.refuse_unread()
    result = sweep_generic(points, cfg, meta)
    write_csv(result, out)
    print(f"wrote {out} ({len(result.rows)} rows)")
    return 0


def _preset_option(s: _Settings, key: str, default):
    """A preset keyword from the option of the same name; a `_list` keyword
    from its option without the suffix, whose one value makes the list."""
    if isinstance(default, tuple):
        value = s.get(key.removesuffix("_list"))
        return default if value is None else (value,)
    return s.get(key, default, parse=type(default))


def cmd_reproduce(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    preset = PRESETS[ns.figure]
    cfg = _estimator_config(s, preset.spec, preset.control_mode)
    kwargs = {key: _preset_option(s, key, default) for key, default in preset.options.items()}
    out = s.get("out", f"{ns.figure}.csv", parse=str)
    s.refuse_unread()
    results = _SWEEPS[ns.figure](cfg=cfg, **kwargs)
    if isinstance(results, SweepResult):
        results = {out: results}
    else:  # one file per delta1 curve
        stem, ext = os.path.splitext(out)
        results = {f"{stem}_delta1_{val:g}{ext or '.csv'}": result
                   for val, result in results.items()}
    for path, result in results.items():
        write_csv(result, path)
        print(f"wrote {path} ({len(result.rows)} rows)")
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
    r.add_argument("figure", choices=list(PRESETS))
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
