"""Command-line front end: gate reports, fidelity points, sweeps, presets.

Subcommands
    gate       print the solved drive parameters, phases and gate matrix
    fidelity   Monte Carlo fidelity at one parameter point (one CSV row)
    sweep      generic grid scan, CSV output
    reproduce  run a built-in figure preset (fig1..fig4)

Configuration values may come from a key=value config file (--config), each
parsed as its flag's value when the command starts; flags, spelt in full,
override file values. A subcommand refuses, before it estimates or writes
anything, any option it does not read, whether given as a flag or as a
config key. The seed comes from --seed or its key, else the SIM_SEED
environment variable, else 0. Every CSV gets a sidecar <name>.meta
recording the full configuration; reruns with an identical configuration
are byte-identical, whatever --workers is. Preset defaults: sweep.PRESETS.

A command loads only what it runs. main() gives options to the named
subcommand's parser alone; `gate` runs here, on model's closed forms in
math; fidelity, sweep and reproduce run in module scans, whose import loads
fidelity, noise, sweep and numpy.

A CLI process (`python -m geomgate`, the `geomgate` script) enters through
run(): it turns the cyclic garbage collector off before a command imports
numpy and freezes every object before the interpreter exits, so the process
makes no collection during a scan and none at exit. main() leaves the
collector alone, so tests and library callers that run it in process keep
theirs.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import re
import sys

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
    """Parse a flat key=value UTF-8 file; '#' starts a comment, blank lines ignored.
    Each error names the file, and the line where it can (an empty or repeated key)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
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
    rename them all into place; on error no temporary file is left, nor a
    path this call has already moved into place, and the error names the path."""
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    placed = []
    try:
        for path, lines in files.items():
            with open(tmps[path], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException as err:
        for name in [*tmps.values(), *placed]:
            if os.path.isfile(name):
                os.remove(name)
        if isinstance(err, OSError) and err.filename in tmps.values():
            raise OSError(err.errno, err.strerror, path) from None
        raise


def _csv_files(result, path: str) -> dict:
    """A SweepResult's CSV lines and .meta sidecar lines, by the path each goes to."""
    rows = (",".join(_fmt(row[c]) for c in result.columns) + "\n" for row in result.rows)
    return {path: itertools.chain([",".join(result.columns) + "\n"], rows),
            path + ".meta": _kv_lines(result.metadata)}


def write_csv(result, path: str) -> None:
    """A SweepResult's CSV plus its .meta sidecar; an error leaves neither half written."""
    _write_atomic(_csv_files(result, path))


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
        raise argparse.ArgumentTypeError(
            f"grid must be START:STOP:NUM or a comma list, got {text!r}") from None
    if ":" in text:
        if num < 1:
            raise argparse.ArgumentTypeError(f"grid needs >= 1 points, got {num}")
        values = [start] if num == 1 else [start + (stop - start) / (num - 1) * k
                                           for k in range(num)]
        given = [start, stop]
    if not all(map(math.isfinite, given + values)):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    return values


def _parse_float(text: str) -> float:
    """A float option's value, refused unless finite, as a grid's values are."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


_parse_float.__name__ = "float"  # argparse names it where float() refuses a flag's value


#: every option, dest -> (parser, help); the parser reads the flag's value and
#: the config key's, and argparse shows an ArgumentTypeError's reason as it is.
#: A parser of bool makes a flag, a tuple the choices of a string
_OPTIONS = {
    "config": (str, "key=value config file supplying defaults"),
    "seed": (int, "RNG seed (default: $SIM_SEED or 0)"),
    "beta": (_parse_float, "total phase targeted as -beta*pi"),
    "omega": (_parse_float, "drive rotation rate (direct entry)"),
    "omega0": (_parse_float, "transverse field strength"),
    "omega1": (_parse_float, "longitudinal field strength"),
    "delta": (_parse_float, "offset added to the zero-dynamic omega1 (absolute)"),
    "branch": (BRANCHES, "root branch of the drive-rate solver (default minus)"),
    "two_qubit": (bool, "conditional two-qubit gate"),
    "alpha": (_parse_float, "coupling generator J = alpha*omega0"),
    "coupling_j": (_parse_float, "Ising coupling J (direct entry)"),
    "zero_dynamic": (bool, "keep omega1 on the zero-dynamic-phase line (with --beta), "
                           "the default without --omega1; refuses --omega1 and --delta"),
    "delta0": (_parse_float, "relative half-width on omega0"),
    "delta1": (_parse_float, "relative half-width on omega1"),
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

#: each subcommand's options, those it can read, in the order of its --help and errors
_GATE_OPTIONS = ("config", "beta", "omega", "omega0", "omega1", "delta", "branch",
                 "two_qubit", "alpha", "coupling_j", "zero_dynamic")
_ESTIMATOR_OPTIONS = ("delta0", "delta1", "independent", "m", "n", "control_mode",
                      "gate_model", "haar")
# fidelity runs one point, which never starts a worker process: it takes no --workers
_RUN_OPTIONS = ("config", "seed") + _GATE_OPTIONS[1:] + _ESTIMATOR_OPTIONS + ("out",)
_REPRODUCE_OPTIONS = ("config", "seed", "beta", "omega0", "omega1", "branch",
                      "alpha") + _ESTIMATOR_OPTIONS + ("workers", "out")
_SWEEP_OPTIONS = _REPRODUCE_OPTIONS + ("two_qubit", "grid_delta_rel", "grid_omega0")


class _Settings:
    """A subcommand's options, each resolved once, when built, in the
    subcommand's option order: the flag if given; else the config key, parsed
    as the flag's value; else, for seed only, SIM_SEED.

    A config key that names no option of the subcommand is an error, so a
    misspelt key cannot silently fall back to its default; so is a malformed
    value, even of an option the run would not read. A value taken from the
    config file or SIM_SEED has its source in `source`, as its errors name
    it; a flag names itself. Every key get() asks for is recorded, so
    refuse_unread() can name the options given that the command never read.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        file = read_config(ns.config) if ns.config else {}
        # the subcommand's options in their order; --config names no value
        options = [k for k in vars(ns) if k in _OPTIONS and k != "config"]
        unknown = sorted(set(file) - set(options))
        if unknown:
            raise ValueError(f"{ns.config}: unknown config key(s): {', '.join(unknown)}")
        self.values, self.source, self.read = {}, {}, set()
        for key in options:
            value, parse = getattr(ns, key), _OPTIONS[key][0]
            if value is not None:  # a flag, parsed by argparse
                self.values[key] = value
                continue
            if key in file:
                value, self.source[key] = file[key], f"{ns.config}: {key}"
            elif key == "seed" and os.environ.get("SIM_SEED"):
                value, self.source[key] = os.environ["SIM_SEED"], "SIM_SEED"
            else:
                continue
            try:
                if isinstance(parse, tuple) and value not in parse:
                    choices = ", ".join(map(repr, parse))
                    raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
                self.values[key] = (_parse_bool(value) if parse is bool
                                    else value if isinstance(parse, tuple) else parse(value))
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"{self.source[key]}: {err}") from err

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.values.get(key, default)

    def refuse_unread(self) -> None:
        """Raise ValueError naming each option given, as a flag or a config
        key, that no get() has asked for (every command with a seed reads it,
        so SIM_SEED is never named)."""
        unread = [key if key in self.source else "--" + key.replace("_", "-")
                  for key in self.values if key not in self.read]
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
    off_line = "--omega1" if omega1 is not None else "--delta" if s.get("delta") is not None else ""
    # read either way: the zero-dynamic line is the default, which both of those leave
    if s.get("zero_dynamic", False) and off_line:
        raise InfeasibleParameters(f"--zero-dynamic and {off_line} are mutually exclusive")
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


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and a digit, such as the grid
    -0.4:3.6:21, as a value rather than an option (the rule of Python 3.13;
    older versions take only plain negative numbers)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # flags spelt in full, as keys are
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is registered, for the help and the
    choices; with a command named, only that one gets its options, which is
    all that parsing an argv that runs it needs."""
    parser = _Parser(
        prog="geomgate",
        description="Rotating-field qubit gates and their fidelity under control noise",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, summary, options in (
            ("gate", "solve one gate point and print phases and matrix", _GATE_OPTIONS),
            ("fidelity", "Monte Carlo fidelity at one point", _RUN_OPTIONS),
            ("sweep", "generic grid scan to CSV", _SWEEP_OPTIONS),
            ("reproduce", "run a built-in figure preset", _REPRODUCE_OPTIONS)):
        sub = subs.add_parser(name, help=summary)
        if command not in (None, name):
            continue
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
                sub.add_argument(flag, dest=dest, type=parse, help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first token that is not an option: top-level options take no value
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    ns = build_parser(command).parse_args(argv)
    try:
        if ns.command == "gate":
            return cmd_gate(ns)
        from . import scans

        return getattr(scans, f"cmd_{ns.command}")(ns)
    except (InfeasibleParameters, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point: main() with the cyclic collector off. A CLI
    process makes few reference cycles and lives for one command, so the
    collector's passes during the run and the interpreter's collections at
    exit only cost time; freezing moves every object out of their reach.
    A usage error's SystemExit takes the same path."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
