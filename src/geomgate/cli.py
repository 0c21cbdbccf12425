"""Command-line front end: gate reports, fidelity points, sweeps, presets.

Subcommands
    gate       print the solved drive parameters, phases and gate matrix
    fidelity   Monte Carlo fidelity at one parameter point (one CSV row)
    sweep      generic grid scan, CSV output
    reproduce  run a built-in figure preset (fig1..fig4)

Configuration values may come from a key=value config file (--config), each
parsed as its flag's value; CLI flags override file values. A subcommand
refuses, before it estimates or writes anything, any option it does not
read, whether given as a flag or as a config key. The default seed comes
from --seed, else the SIM_SEED environment variable, else 0. Every CSV gets
a sidecar <name>.meta recording the full configuration; reruns with an
identical configuration are byte-identical, whatever --workers is. Preset
defaults live in sweep.PRESETS.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__
from .model import (
    BRANCHES,
    CONTROL_MODES,
    GATE_MODELS,
    PRESET_NAMES,
    DriveParams,
    InfeasibleParameters,
    TwoQubitParams,
    big_omega,
    blocks,
    chi_angle,
    gate_rows,
    omega_for_beta,
    phases,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)

# only the commands that estimate import numpy's modules, when they run
if TYPE_CHECKING:
    from .fidelity import EstimatorConfig
    from .noise import NoiseSpec
    from .sweep import SweepResult

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
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored.
    An empty or repeated key is an error naming the file and the line."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if not key or key in out:
                problem = f"repeated key {key!r}" if key else "empty key"
                raise ValueError(f"{path}:{lineno}: {problem} in {raw!r}")
            out[key] = val
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
    """START:STOP:NUM inclusive linear grid, or a comma list of values; the
    numbers given and the grid's values must be finite."""
    try:
        if ":" in text:
            start, stop, num = text.split(":")
            start, stop, num = float(start), float(stop), int(num)
        else:
            values = given = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"grid must be START:STOP:NUM or a comma list, got {text!r}") from None
    if ":" in text:
        if num < 1:
            raise ValueError(f"grid needs >= 1 points, got {num}")
        values = [start] if num == 1 else [start + (stop - start) / (num - 1) * k
                                           for k in range(num)]
        given = [start, stop]
    if not all(map(math.isfinite, given + values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    return values


def _grid_argument(text: str) -> list:
    """_parse_grid for a flag: argparse then gives the reason a grid is refused."""
    try:
        return _parse_grid(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


#: every option, dest -> (parser, help); the parser reads the flag's value and
#: the config key's. A parser of bool makes a flag, a tuple the choices of a string
_OPTIONS = {
    "config": (str, "key=value config file supplying defaults"),
    "seed": (int, "RNG seed (default: $SIM_SEED or 0)"),
    "beta": (float, "total phase targeted as -beta*pi"),
    "omega": (float, "drive rotation rate (direct entry)"),
    "omega0": (float, "transverse field strength"),
    "omega1": (float, "longitudinal field strength"),
    "delta": (float, "offset added to the zero-dynamic omega1 (absolute)"),
    "branch": (BRANCHES, "root branch of the drive-rate solver (default minus)"),
    "two_qubit": (bool, "conditional two-qubit gate"),
    "alpha": (float, "coupling generator J = alpha*omega0"),
    "coupling_j": (float, "Ising coupling J (direct entry)"),
    "zero_dynamic": (bool, "place omega1 on the zero-dynamic-phase line (with --beta)"),
    "delta0": (float, "relative half-width on omega0"),
    "delta1": (float, "relative half-width on omega1"),
    "independent": (bool, "draw the two noise channels independently"),
    "m": (int, "noise shots per input state"),
    "n": (int, "number of input states"),
    "control_mode": (CONTROL_MODES, "control-qubit handling (two-qubit)"),
    "gate_model": (GATE_MODELS, "noisy-gate construction (default: phase)"),
    "haar": (bool, "sample input states from the sphere measure"),
    "workers": (int, "at most this many worker processes"),
    "out": (str, "output CSV path"),
    "grid_delta_rel": (_parse_grid, "Delta/omega0 grid as START:STOP:NUM or comma list"),
    "grid_omega0": (_parse_grid, "omega0 grid as START:STOP:NUM or comma list"),
}

#: each subcommand's options, in the order of its --help and of its errors
_GATE_OPTIONS = ("config", "seed", "beta", "omega", "omega0", "omega1", "delta", "branch",
                 "two_qubit", "alpha", "coupling_j", "zero_dynamic")
_RUN_OPTIONS = _GATE_OPTIONS + ("delta0", "delta1", "independent", "m", "n", "control_mode",
                                "gate_model", "haar", "workers", "out")
_SWEEP_OPTIONS = _RUN_OPTIONS + ("grid_delta_rel", "grid_omega0")


class _Settings:
    """Layered lookup: CLI flag, then config file, then hard default.

    A config key that names no option of the subcommand is an error, so a
    misspelt key cannot silently fall back to its default. A key's value is
    parsed as its flag's value, when the key is read. Every key asked for is
    recorded, so refuse_unread() can name the options given that the command
    never read. A value read from the config file or SIM_SEED has its source
    in `source`, as its errors name it; a flag names itself.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = read_config(ns.config) if ns.config else {}
        # the subcommand's options in their order; --config names no value
        self.options = [k for k in vars(ns) if k in _OPTIONS and k != "config"]
        unknown = sorted(set(self.file) - set(self.options))
        if unknown:
            raise ValueError(f"{ns.config}: unknown config key(s): {', '.join(unknown)}")
        self.read = set()
        self.source = {}

    def get(self, key: str, default=None):
        self.read.add(key)
        cli = getattr(self.ns, key, None)
        if cli is not None:
            return cli
        if key not in self.file:
            return default
        raw = self.file[key]
        self.source[key] = f"{self.ns.config}: {key}"
        parse = _OPTIONS[key][0]
        try:
            if parse is bool:
                return _parse_bool(raw)
            if isinstance(parse, tuple) and raw not in parse:
                choices = ", ".join(map(repr, parse))
                raise ValueError(f"invalid choice: {raw!r} (choose from {choices})")
            return raw if isinstance(parse, tuple) else parse(raw)
        except ValueError as err:
            raise ValueError(f"{self.source[key]}: {err}") from err

    def seed(self) -> int:
        explicit = self.get("seed")
        if explicit is not None:
            return explicit
        env = os.environ.get("SIM_SEED")
        if env:
            self.source["seed"] = "SIM_SEED"
        try:
            return int(env) if env else 0
        except ValueError as err:
            raise ValueError(f"SIM_SEED: {err}") from err

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


def _resolve(s: _Settings) -> tuple[DriveParams | TwoQubitParams, dict]:
    """The drive point the options name, and its coordinates for a fidelity
    row: Delta/omega0 for a point on the zero-dynamic line shifted by --delta."""
    two_qubit = s.get("two_qubit", False)
    omega0 = s.get("omega0")
    if omega0 is None:
        raise InfeasibleParameters("--omega0 is required")
    if two_qubit:
        return _two_qubit(s, omega0), {}
    omega = s.get("omega")
    if omega is not None:
        omega1 = s.get("omega1")
        if omega1 is None:
            raise InfeasibleParameters("--omega1 is required with --omega")
        return DriveParams(omega=omega, omega0=omega0, omega1=omega1), {}
    beta = s.get("beta")
    if beta is None:
        raise InfeasibleParameters("give either --omega or --beta")
    branch = s.get("branch", "minus")
    omega1 = s.get("omega1")
    # read either way: without --omega1 the zero-dynamic line is the default
    if s.get("zero_dynamic", False) and omega1 is not None:
        raise InfeasibleParameters("--zero-dynamic and --omega1 are mutually exclusive")
    coords = {}
    if omega1 is None:
        delta = s.get("delta", 0.0)
        omega1 = zero_dynamic_omega1(omega0, beta) + delta
        coords = {"delta_over_omega0": delta / omega0}
    omega = omega_for_beta(omega0, omega1, beta, branch=branch)
    return DriveParams(omega=omega, omega0=omega0, omega1=omega1), coords


def _two_qubit(s: _Settings, omega0: float) -> TwoQubitParams:
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


def _block_lines(p: DriveParams, indent: str = "", width: int = 7) -> list:
    """Report lines of one block: rotation rate, axis angle and phases."""
    tri = phases(p)
    return [f"{indent}{name:<{width}} = {_fmt(value)}" for name, value in (
        ("Omega", big_omega(p)), ("chi", chi_angle(p)), ("gamma", tri.gamma),
        ("gamma_g", tri.gamma_g), ("gamma_d", tri.gamma_d))]


def cmd_gate(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    p, _ = _resolve(s)
    s.refuse_unread()
    two_qubit = isinstance(p, TwoQubitParams)
    t = p.target if two_qubit else p
    lines = [f"omega   = {_fmt(t.omega)}",
             f"omega0  = {_fmt(t.omega0)}",
             f"omega1  = {_fmt(t.omega1)}"]
    if two_qubit:
        lines.append(f"J       = {_fmt(p.coupling_j)}")
        if p.alpha is not None:
            lines.append(f"alpha   = {_fmt(p.alpha)}")
        for d, blk in enumerate(blocks(p)):
            lines.append(f"block {d}: omega1_eff = {_fmt(blk.omega1)}")
            lines += _block_lines(blk, "  ", 8)
        lines.append("gate (4x4, basis |00>,|01>,|10>,|11>):")
    else:
        lines += _block_lines(p)
        lines.append("gate (2x2):")
    lines += _gate_lines(gate_rows(p))
    print("\n".join(lines))
    return 0


def _estimator_config(s: _Settings, spec: NoiseSpec, control_mode: str | None) -> EstimatorConfig:
    """Estimator options given as flags or config keys, else the given spec and
    control mode, else EstimatorConfig's; control_mode None reads no --control-mode."""
    from .fidelity import EstimatorConfig
    from .noise import NoiseSpec

    given = {key: s.get(key) for key in ("m", "n", "workers", "gate_model", "haar")}
    if control_mode is not None:
        given["control_mode"] = s.get("control_mode", control_mode)
    try:
        spec = NoiseSpec(
            s.get("delta0", spec.delta0),
            s.get("delta1", spec.delta1),
            s.get("independent", spec.independent),
        )
        return EstimatorConfig(spec=spec, seed=s.seed(),
                               **{key: val for key, val in given.items() if val is not None})
    except ValueError as err:
        # a bound's message starts with its field: name the file or variable that set it
        source = s.source.get(str(err).split(" ", 1)[0])
        if source is None:
            raise
        raise ValueError(f"{source}: {err}") from err


def cmd_fidelity(ns: argparse.Namespace) -> int:
    from .noise import NoiseSpec
    from .sweep import SweepPoint, sweep_generic

    s = _Settings(ns)
    two_qubit = s.get("two_qubit", False)
    cfg = _estimator_config(s, NoiseSpec(0.0, 0.0), "unfixed" if two_qubit else None)
    p, coords = _resolve(s)
    point = SweepPoint(coords=coords, kind="two_qubit" if two_qubit else "single", params=p)
    out = s.get("out")
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
    from .sweep import PRESETS, single_point, sweep_generic, two_qubit_point

    s = _Settings(ns)
    if s.get("two_qubit", False):
        fig4 = PRESETS["fig4"]
        cfg = _estimator_config(s, fig4.spec, fig4.control_mode)
        alpha = s.get("alpha")
        if alpha is None:
            raise InfeasibleParameters("--alpha is required for a two-qubit sweep")
        omega1 = s.get("omega1", fig4.options["omega1"])
        grid = s.get("grid_omega0") or list(fig4.grids["omega0_grid"])
        points = [two_qubit_point(w0, omega1, alpha) for w0 in grid]
        meta = {"preset": "sweep", "alpha": alpha, "omega1": omega1,
                "omega0_grid": grid}
    else:
        fig1 = PRESETS["fig1"]
        cfg = _estimator_config(s, fig1.spec, None)
        beta = s.get("beta", fig1.options["beta"])
        branch = s.get("branch", fig1.options["branch"])
        omega0 = s.get("omega0", PRESETS["fig2"].options["omega0"])
        grid = s.get("grid_delta_rel") or list(fig1.grids["delta_grid"])
        points = [single_point(omega0, d, beta, branch) for d in grid]
        meta = {"preset": "sweep", "beta": beta, "branch": branch,
                "omega0": omega0, "delta_grid": grid}
    out = s.get("out", "sweep.csv")
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
    return s.get(key, default)


def cmd_reproduce(ns: argparse.Namespace) -> int:
    from . import sweep

    s = _Settings(ns)
    preset = sweep.PRESETS[ns.figure]
    cfg = _estimator_config(s, preset.spec, preset.control_mode)
    kwargs = {key: _preset_option(s, key, default) for key, default in preset.options.items()}
    out = s.get("out", f"{ns.figure}.csv")
    s.refuse_unread()
    run = {"fig1": sweep.sweep_fig1, "fig2": sweep.sweep_fig2, "fig3": sweep.sweep_fig3,
           "fig4": sweep.sweep_fig4}[ns.figure]
    results = run(cfg=cfg, **kwargs)
    if isinstance(results, sweep.SweepResult):
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

    for name, func, summary, options in (
            ("gate", cmd_gate, "solve one gate point and print phases and matrix", _GATE_OPTIONS),
            ("fidelity", cmd_fidelity, "Monte Carlo fidelity at one point", _RUN_OPTIONS),
            ("sweep", cmd_sweep, "generic grid scan to CSV", _SWEEP_OPTIONS),
            ("reproduce", cmd_reproduce, "run a built-in figure preset", _RUN_OPTIONS)):
        sub = subs.add_parser(name, help=summary)
        if name == "reproduce":
            sub.add_argument("figure", choices=list(PRESET_NAMES))
        for dest in options:
            parse, text = _OPTIONS[dest]
            flag = "--" + dest.replace("_", "-")
            if parse is bool:
                sub.add_argument(flag, dest=dest, action="store_const", const=True, help=text)
            elif isinstance(parse, tuple):
                sub.add_argument(flag, dest=dest, choices=parse, help=text)
            else:
                sub.add_argument(flag, dest=dest, help=text,
                                 type=_grid_argument if parse is _parse_grid else parse)
        sub.set_defaults(func=func)
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
