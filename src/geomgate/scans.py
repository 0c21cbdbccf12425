"""The command line's scan commands: fidelity, sweep and reproduce, the last two
through one step, _scan, on the presets' sweep functions (_SWEEPS). cli.main
imports this module only to run one, so a `gate` report loads neither it nor numpy.
"""

from __future__ import annotations

import argparse
import os

from . import sweep
from .cli import _csv_files, _fmt, _resolve, _Settings, _write_atomic, write_csv
from .fidelity import EstimatorConfig
from .model import InfeasibleParameters
from .noise import NoiseSpec

_SWEEPS = {"fig1": sweep.sweep_fig1, "fig2": sweep.sweep_fig2, "fig3": sweep.sweep_fig3,
           "fig4": sweep.sweep_fig4}


def _estimator_config(s: _Settings, spec: NoiseSpec, control_mode: str | None) -> EstimatorConfig:
    """Estimator options given as flags or config keys, else the given spec and
    control mode, else EstimatorConfig's; control_mode None reads no --control-mode."""
    given = {key: s.get(key) for key in ("m", "n", "workers", "gate_model", "haar")}
    if control_mode is not None:
        given["control_mode"] = s.get("control_mode", control_mode)
    try:
        spec = NoiseSpec(
            s.get("delta0", spec.delta0),
            s.get("delta1", spec.delta1),
            s.get("independent", spec.independent),
        )
        return EstimatorConfig(spec=spec, seed=s.get("seed", 0),
                               **{key: val for key, val in given.items() if val is not None})
    except ValueError as err:
        # a bound's message starts with its field: name the file or variable that set it
        source = s.source.get(str(err).split(" ", 1)[0])
        if source is None:
            raise
        raise ValueError(f"{source}: {err}") from err


def _out_file(out: str | None) -> str | None:
    """An --out path (None: no file), refused before anything runs unless it names
    a file, not a directory nor a path ending in a separator, in a directory that exists."""
    if out is not None and (not os.path.basename(out) or os.path.isdir(out)):
        raise ValueError(f"--out must name a file, got {out!r}")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"{out}: no such directory: {os.path.dirname(out)!r}")
    return out


def cmd_fidelity(ns: argparse.Namespace) -> int:
    s = _Settings(ns)
    two_qubit = s.get("two_qubit", False)
    cfg = _estimator_config(s, NoiseSpec(0.0, 0.0), "unfixed" if two_qubit else None)
    p, coords = _resolve(s)
    point = sweep.SweepPoint(coords=coords, kind="two_qubit" if two_qubit else "single", params=p)
    out = _out_file(s.get("out") or None)  # an empty --out writes no file
    s.refuse_unread()
    result = sweep.sweep_generic([point], cfg, {"preset": "point"})
    row = result.rows[0]
    print(",".join(result.columns))
    print(",".join(_fmt(row[c]) for c in result.columns))
    print(f"F = {_fmt(row['F_mean'])} +- {_fmt(row['F_stderr']) or 'nan'} "
          f"(m={row['m']}, n={row['n']}, seed={row['seed']})")
    if out:
        write_csv(result, out)
    return 0


def _preset_option(s: _Settings, key: str, default):
    """A preset keyword from the option of the same name; a `_list` keyword
    from its option without the suffix, whose one value makes the list."""
    if isinstance(default, tuple):
        value = s.get(key.removesuffix("_list"))
        return default if value is None else (value,)
    return s.get(key, default)


def _scan(s: _Settings, figure: str, default_out: str, **keywords) -> int:
    """Run a preset's sweep function on its options (_preset_option) and the keywords
    given; a preset of several curves writes one file per delta1 value beside --out."""
    preset = sweep.PRESETS[figure]
    cfg = _estimator_config(s, preset.spec, preset.control_mode)
    kwargs = {key: _preset_option(s, key, default) for key, default in preset.options.items()}
    out = _out_file(s.get("out", default_out))
    s.refuse_unread()
    results = _SWEEPS[figure](cfg=cfg, **kwargs, **keywords)
    if isinstance(results, sweep.SweepResult):
        results = {out: results}
    else:  # one file per delta1 curve
        stem, ext = os.path.splitext(out)
        results = {f"{stem}_delta1_{val:g}{ext or '.csv'}": result
                   for val, result in results.items()}
    # one write for all the files, so an error leaves none of them
    _write_atomic({name: lines for path, result in results.items()
                   for name, lines in _csv_files(result, path).items()})
    for path, result in results.items():
        print(f"wrote {path} ({len(result.rows)} rows)")
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    """A single-qubit sweep is one fig1 line at fig2's omega0, a two-qubit
    sweep one fig4 curve: each on its own grid if given, else its preset's."""
    s = _Settings(ns)
    if not s.get("two_qubit", False):
        omega0 = s.get("omega0", sweep.PRESETS["fig2"].options["omega0"])
        return _scan(s, "fig1", "sweep.csv", omega0_grid=(omega0,),
                     delta_grid=s.get("grid_delta_rel", sweep.PRESETS["fig1"].grids["delta_grid"]))
    alpha = s.get("alpha")
    if alpha is None:
        raise InfeasibleParameters("--alpha is required for a two-qubit sweep")
    return _scan(s, "fig4", "sweep.csv", alpha_list=(alpha,),
                 omega0_grid=s.get("grid_omega0", sweep.PRESETS["fig4"].grids["omega0_grid"]))


def cmd_reproduce(ns: argparse.Namespace) -> int:
    return _scan(_Settings(ns), ns.figure, f"{ns.figure}.csv")
