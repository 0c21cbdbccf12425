"""Command-line surface: reports, CSV stability, config files, seeds."""

import argparse
import gc
import importlib
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

import geomgate
from geomgate import cli
from geomgate import sweep
from geomgate.cli import main, read_config, write_csv
from geomgate.evolve import one_cycle_gate
from geomgate.fidelity import EstimatorConfig, estimate_two_qubit
from geomgate.model import (
    DriveParams,
    TwoQubitParams,
    omega_for_beta,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from geomgate.noise import NoiseSpec, RngStream
from geomgate.sweep import SweepResult

SQRT3 = math.sqrt(3.0)
#: a two-qubit point entered directly: drive rate, fields and coupling
DIRECT = ["--omega", "90", "--omega0", "30", "--omega1", "40", "--coupling-j", "5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    out = {}
    for line in text.splitlines():
        m = re.match(r"^\s*([A-Za-z_0-9]+)\s*=\s*(\S+)$", line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


# --- gate -------------------------------------------------------------------


def test_gate_zero_dynamic_report(capsys):
    code, out, _ = run_cli(capsys, "gate", "--beta", "1.5", "--omega0", "1e5",
                           "--zero-dynamic")
    assert code == 0
    vals = parse_report(out)
    assert vals["omega1"] == pytest.approx(SQRT3 * 1e5, rel=1e-12)
    assert abs(vals["gamma_d"]) <= 1e-9
    assert vals["gamma"] == pytest.approx(-1.5 * math.pi, abs=1e-9)
    assert "gate (2x2):" in out


def test_gate_infeasible_is_an_error(capsys):
    code, _, err = run_cli(capsys, "gate", "--beta", "1.5", "--omega0", "1e5",
                           "--omega1", "1e5")
    assert code == 1
    assert "reality constraint" in err
    assert "eta*omega0^2 <= (1-eta)*omega1^2" in err
    # a geometric two-qubit point's alpha is refused by two_qubit_from_alpha
    result = run_cli(capsys, "gate", "--two-qubit", "--alpha", "-1", "--omega0", "1")
    assert result == (1, "", "error: alpha must be positive, got -1.0\n")


@pytest.mark.parametrize("argv", [
    ["fidelity", "--omega", "1", "--omega0", "1e154", "--omega1", "1e154", "--delta0", "0.1",
     "--delta1", "0.1", "--m", "4", "--n", "4"],
    ["fidelity", "--omega", "1", "--omega0", "1e-170", "--omega1", "1"],
    ["gate", "--omega", "1", "--omega0", "1e155", "--omega1", "1"],
    ["gate", "--beta", "1.5", "--omega0", "1e200"],
    ["gate", "--beta", "1.5", "--omega0", "1e-200"],
], ids=["fidelity-large", "fidelity-small", "gate-large", "gate-beta-large", "gate-beta-small"])
def test_fields_out_of_range_are_an_error(tmp_path, capsys, argv):
    # squares of these fields overflow or underflow: no made-up row, no traceback
    if argv[0] == "fidelity":
        argv = argv + ["--out", str(tmp_path / "z.csv")]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err.startswith("error: omega0 must lie in [1e-100, 1e100]")
    assert list(tmp_path.iterdir()) == []


def test_gate_two_qubit_geometric_report(capsys):
    code, out, _ = run_cli(capsys, "gate", "--two-qubit", "--alpha", "1.7320508",
                           "--omega0", "30")
    assert code == 0
    vals = parse_report(out)
    assert vals["omega1"] == pytest.approx(60.0, rel=1e-6)
    assert vals["omega"] == pytest.approx(120.0, rel=1e-6)
    assert vals["J"] == pytest.approx(51.961524, rel=1e-6)
    assert "gate (4x4" in out


def test_gate_needs_parameters(capsys):
    code, _, err = run_cli(capsys, "gate", "--beta", "1.5")
    assert code == 1 and "omega0" in err
    # a direct two-qubit entry names the drive rate and omega1 with the coupling
    code, _, err = run_cli(capsys, "gate", "--two-qubit", "--alpha", "1.7", "--omega0", "30",
                           "--coupling-j", "5")
    assert code == 1 and "--coupling-j needs --omega and --omega1" in err
    # each missing drive parameter has its own message, single and two-qubit
    for argv, message in (
            (["gate", "--omega", "90", "--omega0", "30"], "--omega1 is required with --omega"),
            (["gate", "--omega0", "30"], "give either --omega or --beta"),
            (["fidelity", "--omega1", "40", "--omega0", "30"], "give either --omega or --beta"),
            (["gate", "--two-qubit", "--alpha", "1.7"], "--omega0 is required"),
            (["gate", "--two-qubit", "--omega0", "30"],
             "two-qubit points need --alpha (or --omega with --coupling-j)"),
            (["fidelity", "--two-qubit", "--omega", "90", "--omega0", "30"],
             "two-qubit points need --alpha (or --omega with --coupling-j)"),
            (["sweep", "--two-qubit", "--m", "2", "--n", "2"],
             "--alpha is required for a two-qubit sweep")):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def printed(z):
    """z as the report prints it, read back: each part to 13 significant digits."""
    return complex(float("%.12e" % z.real), float("%.12e" % z.imag))


def report_matrix(text):
    """The gate matrix of a report, one list of complex entries per row."""
    return [[complex(z) for z in re.findall(r"\(([^()]*j)\)", line)]
            for line in text.splitlines() if line.startswith("  (")]


ZERO_DYNAMIC_OMEGA1 = zero_dynamic_omega1(1e5, 1.5)


@pytest.mark.parametrize("argv,params", [
    (["gate", "--beta", "1.5", "--omega0", "1e5", "--zero-dynamic"],
     DriveParams(omega_for_beta(1e5, ZERO_DYNAMIC_OMEGA1, 1.5), 1e5, ZERO_DYNAMIC_OMEGA1)),
    (["gate", "--two-qubit", "--alpha", "1.7320508", "--omega0", "30"],
     two_qubit_geometric_point(30.0, 1.7320508)),
    (["gate", "--two-qubit", "--alpha", "1.2", "--omega0", "30", "--omega1", "40"],
     two_qubit_from_alpha(30.0, 40.0, 1.2)),
    (["gate", "--two-qubit", *DIRECT], TwoQubitParams(DriveParams(90.0, 30.0, 40.0), 5.0)),
    (["gate", "--two-qubit", *DIRECT, "--alpha", "0.5"],
     TwoQubitParams(DriveParams(90.0, 30.0, 40.0), 5.0, alpha=0.5)),
], ids=["single", "two-qubit", "two-qubit-omega1", "two-qubit-direct", "two-qubit-direct-alpha"])
def test_gate_report_matrix_is_the_library_gate(capsys, argv, params):
    # the report reads the scalar closed form; the library gates build their
    # arrays from the same entries
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report_matrix(out) == [[printed(z) for z in row] for row in one_cycle_gate(params)]
    # a two-qubit report gives J, and alpha only where the point records one
    vals = parse_report(out)
    assert vals.get("J") == pytest.approx(getattr(params, "coupling_j", None), rel=1e-12)
    assert vals.get("alpha") == getattr(params, "alpha", None)


# --- fidelity -----------------------------------------------------------------


def test_fidelity_noiseless_point(capsys):
    code, out, _ = run_cli(capsys, "fidelity", "--beta", "1.5", "--omega0", "1e5",
                           "--delta0", "0", "--delta1", "0", "--m", "20", "--n", "20",
                           "--seed", "1")
    assert code == 0
    assert "F = 1.000000000000e+00 +-" in out
    header, row, _ = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["F_mean"]) == pytest.approx(1.0, abs=1e-12)
    assert float(cells["F_stderr"]) <= 1e-12


def test_fidelity_same_seed_identical_output(capsys):
    argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--delta0", "0.1",
            "--delta1", "0.1", "--m", "40", "--n", "40", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_fidelity_csv_row_matches_summary(capsys):
    noise = ["--delta0", "0.05", "--delta1", "0.05", "--m", "30", "--n", "30", "--seed", "4"]
    code, out, _ = run_cli(capsys, "fidelity", "--two-qubit", "--alpha", "1.7320508",
                           "--omega0", "30", *noise)
    assert code == 0
    header, row, summary = out.strip().splitlines()
    cols = header.split(",")
    cells = row.split(",")
    fmean = cells[cols.index("F_mean")]
    assert fmean in summary
    assert cells[cols.index("control_mode")] == "unfixed"
    # a direct two-qubit entry records no alpha and no Delta, and its row is
    # the library's estimate
    code, out, _ = run_cli(capsys, "fidelity", "--two-qubit", *DIRECT, *noise)
    assert code == 0
    header, row, summary = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["alpha"], cells["delta_over_omega0"], cells["J"], cells["omega"]) == (
        "", "", "5.000000000000e+00", "9.000000000000e+01")
    est = estimate_two_qubit(TwoQubitParams(DriveParams(90.0, 30.0, 40.0), 5.0),
                             NoiseSpec(0.05, 0.05), 30, 30,
                             RngStream(4).child(sweep.TWO_QUBIT_STREAM_TAG))
    assert cells["F_mean"] == cli._fmt(est.mean)
    assert cells["F_stderr"] == cli._fmt(est.stderr)


# --- CSV / metadata / determinism ---------------------------------------------


def fast_fig1_args(tmp_path, name, extra=()):
    out = tmp_path / name
    return out, ["reproduce", "fig1", "--m", "25", "--n", "25", "--seed", "5",
                 "--out", str(out), *extra]


def test_reproduce_fig1_writes_csv_and_meta(tmp_path, capsys):
    out, argv = fast_fig1_args(tmp_path, "fig1.csv")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("omega0,delta_over_omega0,omega1,omega,feasible,F_mean")
    assert len(lines) == 1 + 8 * 41
    meta = read_config(str(out) + ".meta")
    assert meta["preset"] == "fig1"
    assert meta["seed"] == "5"
    assert "omega0_grid" in meta and "version" in meta


def test_csv_number_format(tmp_path, capsys):
    out, argv = fast_fig1_args(tmp_path, "fmt.csv")
    run_cli(capsys, *argv)
    row = out.read_text().splitlines()[1].split(",")
    # scientific notation, 13 significant digits, '.' separator
    assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", row[0])
    assert row[4] in ("0", "1")


def test_reruns_and_workers_are_byte_identical(tmp_path, capsys, real_pools, monkeypatch):
    # fig1 at m = n = 25 is below the pool threshold: lowered, it starts a real pool
    monkeypatch.setattr(sweep, "_PROCESS_SHOTS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out1, argv1 = fast_fig1_args(tmp_path, "a.csv")
    out2, argv2 = fast_fig1_args(tmp_path, "b.csv", extra=["--workers", "2"])
    run_cli(capsys, *argv1)
    run_cli(capsys, *argv2)
    assert real_pools == [2]
    assert out1.read_bytes() == out2.read_bytes()
    out3, argv3 = fast_fig1_args(tmp_path, "c.csv")
    run_cli(capsys, *argv3)
    assert out1.read_bytes() == out3.read_bytes()


def test_reproduce_fig2_one_file_per_delta1(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, msg, _ = run_cli(capsys, "reproduce", "fig2", "--m", "10", "--n", "10",
                           "--seed", "2", "--delta1", "0.01", "--out", str(out))
    assert code == 0
    target = tmp_path / "fig2_delta1_0.01.csv"
    assert target.exists()
    meta = read_config(str(target) + ".meta")
    assert float(meta["delta1"]) == 0.01
    assert float(meta["delta0"]) == 0.1


def test_sweep_generic_command(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "sweep", "--beta", "1.5", "--omega0", "1e5",
                         "--grid-delta-rel", "0:2:5", "--delta0", "0.1",
                         "--delta1", "0.1", "--m", "20", "--n", "20",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


@pytest.mark.parametrize("argv,figure,keywords", [
    (["--beta", "1.5", "--omega0", "2e5", "--grid-delta-rel", "0:1:2"], "fig1",
     {"omega0_grid": (2e5,), "delta_grid": [0.0, 1.0]}),
    (["--two-qubit", "--alpha", "1.7", "--grid-omega0", "2:40:3"], "fig4",
     {"alpha_list": (1.7,), "omega0_grid": [2.0, 21.0, 40.0]}),
], ids=["single", "two-qubit"])
def test_sweep_is_its_presets_sweep_function(tmp_path, capsys, argv, figure, keywords):
    # a sweep is one fig1 line or one fig4 curve: its CSV and .meta are those
    # of the preset's sweep function, so the .meta records that preset's keys
    out = tmp_path / "scan.csv"
    assert run_cli(capsys, "sweep", *argv, "--m", "4", "--n", "2", "--out", str(out))[0] == 0
    run = getattr(sweep, f"sweep_{figure}")
    write_csv(run(cfg=EstimatorConfig(spec=sweep.PRESETS[figure].spec, m=4, n=2), **keywords),
              str(tmp_path / "lib.csv"))
    for suffix in ("", ".meta"):
        assert (tmp_path / f"scan.csv{suffix}").read_bytes() == \
            (tmp_path / f"lib.csv{suffix}").read_bytes()
    meta = read_config(str(out) + ".meta")
    assert meta["preset"] == figure and set(keywords) <= set(meta)
    assert "omega0" not in meta and "alpha" not in meta


def test_sweep_point_value_matches_fidelity_command(tmp_path, capsys):
    # common stream keying: a lone fidelity run reproduces the sweep row
    out = tmp_path / "scan.csv"
    run_cli(capsys, "sweep", "--beta", "1.5", "--omega0", "1e5",
            "--grid-delta-rel", "0:2:3", "--delta0", "0.1", "--delta1", "0.1",
            "--m", "30", "--n", "30", "--seed", "8", "--out", str(out))
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    middle = rows[1].split(",")
    _, point_out, _ = run_cli(capsys, "fidelity", "--beta", "1.5", "--omega0", "1e5",
                              "--delta", str(1.0 * 1e5), "--delta0", "0.1",
                              "--delta1", "0.1", "--m", "30", "--n", "30", "--seed", "8")
    point_cells = point_out.splitlines()[1].split(",")
    assert point_cells[cols.index("F_mean")] == middle[cols.index("F_mean")]
    assert point_cells[cols.index("F_stderr")] == middle[cols.index("F_stderr")]


@pytest.mark.parametrize("flag,grid,first", [
    ("--grid-delta-rel", "-0.4:0.4:3", "-4.000000000000e-01"),
    ("--grid-omega0", "-2:40:3", "-2.000000000000e+00"),
])
def test_sweep_grid_with_negative_start(tmp_path, capsys, flag, grid, first):
    # the space-separated form, not only --flag=-0.4:...; negative grid points
    # are infeasible rows, not parse errors
    out = tmp_path / "neg.csv"
    params = ["--beta", "1.5", "--omega0", "1e5"] if flag == "--grid-delta-rel" \
        else ["--two-qubit", "--alpha", "1.7320508"]
    code, _, err = run_cli(capsys, "sweep", *params, flag, grid, "--m", "4", "--n", "4",
                           "--out", str(out))
    assert code == 0, err
    header, *rows = out.read_text().splitlines()
    col = header.split(",").index("delta_over_omega0" if flag == "--grid-delta-rel" else "omega0")
    assert len(rows) == 3 and rows[0].split(",")[col] == first


def test_fidelity_one_state_leaves_stderr_empty(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, printed, _ = run_cli(capsys, "fidelity", "--beta", "1.5", "--omega0", "1e5",
                               "--delta0", "0.1", "--delta1", "0.1", "--m", "10",
                               "--n", "1", "--out", str(out))
    assert code == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["F_stderr"] == "" and cells["n"] == "1"
    assert float(cells["F_mean"]) > 0.99
    assert printed.splitlines()[1] == row
    assert "+- nan" in printed.splitlines()[2]


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_reproduce_passes_branch(tmp_path, capsys, figure):
    base = ["reproduce", figure, "--m", "6", "--n", "6", "--seed", "3"]
    if figure == "fig2":
        base += ["--delta1", "0.01"]
    runs = {}
    for branch in ("minus", "plus"):
        out = tmp_path / f"{branch}.csv"
        code, _, err = run_cli(capsys, *base, "--branch", branch, "--out", str(out))
        assert code == 0, err
        if figure == "fig2":
            out = tmp_path / f"{branch}_delta1_0.01.csv"
        assert read_config(str(out) + ".meta")["branch"] == branch
        runs[branch] = out.read_text()
    assert runs["minus"] != runs["plus"]


@pytest.mark.parametrize("figure,argv,named", [
    ("fig4", ["--alpha", "3", "--omega0", "10"], ["--alpha", "--omega0"]),
    ("fig3", ["--omega1", "20"], ["--omega1"]),
    ("fig1", ["--alpha", "3"], ["--alpha"]),
    ("fig2", ["--omega1", "2"], ["--omega1"]),
    ("fig3", ["config:omega0=10"], ["omega0"]),
    ("fig1", ["--control-mode", "fixed1"], ["--control-mode"]),
    (None, ["sweep", "--beta", "1.5", "--omega0", "1e5", "--grid-delta-rel", "0:1:2",
            "--omega1", "7", "--alpha", "3"], ["--omega1", "--alpha"]),
    (None, ["sweep", "--beta", "1.5", "--grid-omega0", "2:40:3"], ["--grid-omega0"]),
    (None, ["sweep", "--grid-delta-rel", "0:1:2", "--control-mode", "fixed1"],
     ["--control-mode"]),
    (None, ["sweep", "--two-qubit", "--alpha", "1.7", "--grid-delta-rel", "0:1:2"],
     ["--grid-delta-rel"]),
    (None, ["gate", "--two-qubit", "--alpha", "1.7", "--omega0", "30", "--beta", "9"],
     ["--beta"]),
    (None, ["gate", "--two-qubit", "--alpha", "1.7", "--omega0", "30", "--omega", "9"],
     ["--omega"]),
    (None, ["gate", "--beta", "1.5", "--omega0", "1e5", "--omega1", "2e5", "--delta", "5"],
     ["--delta"]),
    (None, ["gate", "--beta", "1.5", "--omega0", "1e5", "--alpha", "5"], ["--alpha"]),
    (None, ["fidelity", "--omega", "3", "--omega0", "1", "--omega1", "2", "--beta", "1.5",
            "--branch", "plus"], ["--beta", "--branch"]),
    (None, ["fidelity", "--beta", "1.5", "--omega0", "1e5", "config:control_mode=fixed1"],
     ["control_mode"]),
])
def test_reproduce_rejects_unread_drive_options(tmp_path, capsys, figure, argv, named):
    # any subcommand (reproduce when a figure is given) refuses an option it
    # does not read, before it estimates or writes anything
    out = tmp_path / "preset.csv"
    if argv[-1].startswith("config:"):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(argv[-1][len("config:"):] + "\n")
        argv = argv[:-1] + ["--config", str(cfg)]
    if figure is not None:
        argv = ["reproduce", figure, *argv]
    if argv[0] != "gate":
        argv += ["--m", "4", "--n", "4", "--out", str(out)]
    code, printed, err = run_cli(capsys, *argv)
    assert code == 1 and printed == ""
    assert err.startswith(f"error: {' '.join(argv[:2 if figure else 1])} does not read ")
    assert all(name in err for name in named), err
    assert os.listdir(tmp_path) in ([], ["preset.cfg"])


@pytest.mark.parametrize("argv,option", [
    (["gate", "--beta", "1.5", "--omega0", "1e5", "--zero-dynamic"], "seed"),
    *[(["sweep", "--beta", "1.5", "--grid-delta-rel", "0:1:2"], option)
      for option in ("omega", "delta", "coupling_j", "zero_dynamic")],
    *[(["sweep", "--two-qubit", "--alpha", "1.7"], option)
      for option in ("omega", "delta", "coupling_j", "zero_dynamic")],
    *[(["reproduce", figure], option) for figure in ("fig1", "fig2", "fig3", "fig4")
      for option in ("omega", "delta", "two_qubit", "coupling_j", "zero_dynamic")],
    # one point never starts a worker process
    (["fidelity", "--beta", "1.5", "--omega0", "1e5"], "workers"),
])
def test_options_a_command_never_reads_are_refused(tmp_path, capsys, argv, option):
    # an option a subcommand reads under no input is not one of its options:
    # argparse refuses it as a flag (exit 2) and the config check as a key
    # (exit 1), before anything is estimated or written
    if argv[0] != "gate":
        argv = argv + ["--m", "4", "--n", "4", "--out", str(tmp_path / "x.csv")]
    flag = "--" + option.replace("_", "-")
    bool_flag = option in ("two_qubit", "zero_dynamic")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ([flag] if bool_flag else [flag, "3"]))
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{option}={1 if bool_flag else 3}\n")
    result = run_cli(capsys, *argv, "--config", str(cfg))
    assert result == (1, "", f"error: {cfg}: unknown config key(s): {option}\n")
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    # a decoding error names the file, as every other config error does
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfebeta=1.5\n")
    result = run_cli(capsys, "gate", "--config", str(cfg), "--beta", "1.5", "--omega0", "1e5",
                     "--zero-dynamic")
    assert result == (1, "", f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in "
                             "position 0: invalid start byte\n")


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # an editor's UTF-8 byte-order mark is not part of the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfbeta=1.5\n")
    assert read_config(str(cfg)) == {"beta": "1.5"}
    result = run_cli(capsys, "gate", "--config", str(cfg), "--omega0", "1e5")
    assert result[0] == 0 and result == run_cli(capsys, "gate", "--beta", "1.5", "--omega0", "1e5")


def test_config_file_turns_on_flags(tmp_path, capsys):
    # a config key gives a flag exactly as the flag does
    cfg = tmp_path / "flags.cfg"
    for text, flags in (("two_qubit=1\nalpha=1.7320508\nomega0=30\n",
                         ["--two-qubit", "--alpha", "1.7320508", "--omega0", "30"]),
                        ("beta=1.5\nomega0=1e5\nzero_dynamic=1\n",
                         ["--beta", "1.5", "--omega0", "1e5", "--zero-dynamic"]),
                        ("two_qubit=off\nbeta=1.5\nomega0=1e5\n",
                         ["--beta", "1.5", "--omega0", "1e5"])):
        cfg.write_text(text)
        code, from_file, err = run_cli(capsys, "gate", "--config", str(cfg))
        assert code == 0, err
        assert from_file == run_cli(capsys, "gate", *flags)[1]
    cfg.write_text("beta=1.5\nomega0=1e5\nzero_dynamic=1\nomega1=5\n")
    code, printed, err = run_cli(capsys, "gate", "--config", str(cfg))
    assert code == 1 and printed == "" and "mutually exclusive" in err
    # a malformed value is refused before any drive parameter is missed
    cfg.write_text("two_qubit=maybe\n")
    assert run_cli(capsys, "gate", "--config", str(cfg)) == (
        1, "", f"error: {cfg}: two_qubit: expected a boolean, got 'maybe'\n")
    # of several malformed values, the first in the option order is named
    cfg.write_text("two_qubit=maybe\nbeta=x\n")
    assert run_cli(capsys, "gate", "--config", str(cfg)) == (
        1, "", f"error: {cfg}: beta: could not convert string to float: 'x'\n")


def subcommand_parsers():
    """{name: parser} of every subcommand."""
    actions = cli.build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


#: a sample value per value parser of the option table
SAMPLES = {cli._parse_float: "2.5", int: "3", str: "x.csv", cli._parse_grid: "0:1:3"}


def test_every_option_reads_alike_as_flag_and_as_config_key(tmp_path):
    # a config key's value parses exactly as its flag's; walking the parsers
    # covers an option as soon as it is added
    parser = cli.build_parser()
    cfg = tmp_path / "one.cfg"
    covered = set()
    for command, sub in subcommand_parsers().items():
        head = [command, "fig1"] if command == "reproduce" else [command]
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "config"):
                continue
            if action.const is True:
                value, flag = "1", [action.option_strings[0]]
            else:
                value = action.choices[0] if action.choices else SAMPLES[action.type]
                flag = [action.option_strings[0], value]
            cfg.write_text(f"{action.dest}={value}\n")
            from_flag, from_file = (cli._Settings(parser.parse_args(head + argv)).get(action.dest)
                                    for argv in (flag, ["--config", str(cfg)]))
            assert type(from_file) is type(from_flag) and from_file == from_flag, \
                (command, action.dest, from_flag, from_file)
            covered.add(action.dest)
    assert covered == set(cli._OPTIONS) - {"config"}


def test_reproduce_choices_are_the_presets():
    figure = next(a for a in subcommand_parsers()["reproduce"]._actions if a.dest == "figure")
    assert tuple(figure.choices) == tuple(sweep.PRESETS)


@pytest.mark.parametrize("key,value,message,flag_message", [
    ("m", "2.5", "invalid literal for int() with base 10: '2.5'", "invalid int value: '2.5'"),
    ("seed", "1.5", "invalid literal for int() with base 10: '1.5'", "invalid int value: '1.5'"),
    ("zero_dynamic", "maybe", "expected a boolean, got 'maybe'", None),
    ("gate_model", "foo", "invalid choice: 'foo' (choose from 'phase', 'propagator')",
     "invalid choice: 'foo'"),
    ("control_mode", "both", "invalid choice: 'both' (choose from 'fixed0', 'fixed1', 'unfixed')",
     "invalid choice: 'both'"),
    ("branch", "sideways", "invalid choice: 'sideways' (choose from 'plus', 'minus')",
     "invalid choice: 'sideways'"),
], ids=["m", "seed", "zero_dynamic", "gate_model", "control_mode", "branch"])
def test_bad_config_value_names_its_file_and_key(tmp_path, capsys, key, value, message,
                                                 flag_message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={value}\n")
    if key == "control_mode":  # read by two-qubit points only
        argv = ["fidelity", "--two-qubit", "--alpha", "1.7320508", "--omega0", "30", "--n", "4"]
    else:
        argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--n", "4"]
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: {key}: {message}\n"
    if flag_message is None:  # a flag, which takes no value
        return
    # the same value as a flag stays argparse's usage error
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: {flag_message}" in capsys.readouterr().err


def test_bad_sim_seed_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SIM_SEED", "abc")
    result = run_cli(capsys, "fidelity", "--beta", "1.5", "--omega0", "1e5", "--n", "4")
    assert result == (1, "", "error: SIM_SEED: invalid literal for int() with base 10: 'abc'\n")


def test_unread_error_keeps_option_order(tmp_path, capsys):
    # flags and config keys are named in the subcommand's option order
    cfg = tmp_path / "c.cfg"
    cfg.write_text("coupling_j=2\nalpha=4\n")
    result = run_cli(capsys, "gate", "--omega", "3", "--omega0", "1e5", "--omega1", "2",
                     "--branch", "plus", "--config", str(cfg))
    assert result == (1, "", "error: gate does not read --branch, alpha, coupling_j\n")


@pytest.mark.parametrize("argv,key,value,message", [
    (["gate", "--beta", "1.5", "--omega0", "1e5"], "alpha", "abc",
     "could not convert string to float: 'abc'"),
    (["fidelity", "--beta", "1.5", "--omega0", "1e5"], "control_mode", "both",
     "invalid choice: 'both' (choose from 'fixed0', 'fixed1', 'unfixed')"),
    (["reproduce", "fig1"], "alpha", "1e400", "value must be finite, got '1e400'"),
    (["sweep", "--beta", "1.5"], "grid_omega0", "0:1", "grid must be START:STOP:NUM or a "
     "comma list, got '0:1'"),
], ids=["gate-alpha", "fidelity-control_mode", "fig1-alpha", "sweep-grid_omega0"])
def test_malformed_value_of_an_unread_option_is_refused_as_malformed(
        tmp_path, capsys, monkeypatch, argv, key, value, message):
    # every option is parsed when the command starts, whether the run reads it
    # or not: the error names the file and the key, and nothing is written
    monkeypatch.chdir(tmp_path)
    if argv[0] != "gate":
        argv = argv + ["--m", "2", "--n", "2"]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (
        1, "", f"error: {cfg}: {key}: {message}\n")
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_a_given_value_leaves_the_sources_below_it_unparsed(tmp_path, capsys, monkeypatch):
    # a flag wins over its config key, and a config seed over SIM_SEED: the
    # value that loses is never parsed, malformed or not
    argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--delta0", "0.1", "--delta1",
            "0.1", "--n", "5"]
    expected = run_cli(capsys, *argv, "--m", "6", "--seed", "21")
    assert expected[0] == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m=abc\nseed=21\n")
    assert run_cli(capsys, *argv, "--m", "6", "--config", str(cfg)) == expected
    cfg.write_text("m=6\nseed=21\n")
    for env in ("31", "abc"):
        monkeypatch.setenv("SIM_SEED", env)
        assert run_cli(capsys, *argv, "--config", str(cfg)) == expected


@pytest.mark.parametrize("argv,prefix", [
    (["gate", "--beta", "1.5", "--omega0", "1e5"], ["--zero"]),
    (["gate", "--omega0", "1e5", "--zero-dynamic"], ["--bet", "1.5"]),
    (["fidelity", "--beta", "1.5", "--omega0", "1e5"], ["--see", "3"]),
    (["sweep", "--beta", "1.5"], ["--grid-delta", "0:1:2"]),
    (["sweep", "--beta", "1.5"], ["--delta", "0.1"]),
    (["reproduce", "fig1"], ["--work", "1"]),
], ids=["gate-flag", "gate-value", "fidelity", "sweep", "sweep-ambiguous", "reproduce"])
def test_a_prefix_of_a_flag_is_refused(tmp_path, capsys, argv, prefix):
    # a flag is spelt in full, as a config key is; --delta, a prefix of
    # --delta0 and --delta1, is unknown to a sweep rather than ambiguous
    if argv[0] != "gate":
        argv = argv + ["--m", "2", "--n", "2", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + prefix)
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(prefix)}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["gate", "fidelity"])
def test_zero_dynamic_refuses_delta(tmp_path, capsys, command):
    # --delta moves the point off the line --zero-dynamic asks for, as --omega1 does
    line = [command, "--beta", "1.5", "--omega0", "1e5"]
    if command == "fidelity":
        line += ["--m", "2", "--n", "2", "--out", str(tmp_path / "x.csv")]
    argv = line + ["--zero-dynamic"]
    refused = (1, "", "error: --zero-dynamic and --delta are mutually exclusive\n")
    assert run_cli(capsys, *argv, "--delta", "3e4") == refused
    cfg = tmp_path / "c.cfg"
    cfg.write_text("delta=3e4\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == refused
    assert os.listdir(tmp_path) == ["c.cfg"]
    # the line is the default, so without --delta the flag changes nothing
    on_line = run_cli(capsys, *argv)
    assert on_line[0] == 0 and on_line == run_cli(capsys, *line)


def readme_command_lines():
    """Arguments of each `geomgate ...` line in the README's Command line section."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in section.splitlines()
            if line.startswith("geomgate ")]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_lines_run(tmp_path, capsys, argv):
    # at tiny sizes, with the output under tmp_path where the command writes one
    reads = subcommand_parsers()[argv[0]]._option_string_actions
    for flag, value in (("--m", "2"), ("--n", "2"), ("--out", str(tmp_path / "out.csv"))):
        if flag in reads:
            argv = argv + [flag, value]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert ("--out" in reads) == bool(os.listdir(tmp_path))


def test_benchmark_command_lines_run(tmp_path, capsys, monkeypatch):
    # the argument forms the scan benchmark passes, at tiny sizes
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    workloads = importlib.import_module("workloads")
    for wl in workloads.WORKLOADS.values():
        out = tmp_path / f"{wl.name}.csv"
        code, _, err = run_cli(capsys, *wl.args, "--seed", "1", "--m", "2", "--n", "2",
                               "--workers", str(wl.workers), "--out", str(out))
        assert code == 0 and out.exists(), (wl.name, err)
        code, printed, err = run_cli(capsys, *wl.gate_args(1, 0))
        assert code == 0 and "gate (" in printed, (wl.name, err)


def benchmark_and_readme_argvs():
    """The argument lists of the scan benchmark's commands and of the README's."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    argvs = readme_command_lines()
    for wl in workloads.WORKLOADS.values():
        argvs.append([*wl.args, "--seed", "1", "--m", "2", "--n", "2",
                      "--workers", str(wl.workers), "--out", "x.csv"])
        argvs.append(list(wl.gate_args(1, 0)))
    return argvs


@pytest.mark.parametrize("command", ["gate", "fidelity", "sweep", "reproduce"])
def test_one_commands_parser_reads_as_the_full_one(capsys, command):
    # main() builds the options of the command it runs only: its help and what
    # it parses are the full parser's
    full, one = cli.build_parser(), cli.build_parser(command)
    helps = []
    for parser in (full, one):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--beta" in helps[0]
    argvs = [argv for argv in benchmark_and_readme_argvs() if argv[0] == command]
    assert argvs
    for argv in argvs:
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv)), argv


def test_write_csv_leaves_no_partial_output(tmp_path, capsys, monkeypatch):
    # a failure while the rows are written leaves neither the target nor a
    # temporary file, and an earlier output stays as it was
    out, argv = fast_fig1_args(tmp_path, "fig1.csv")
    calls = []
    fmt = cli._fmt
    # scans imports _fmt by name: loaded here first, it would keep the patched one
    importlib.import_module("geomgate.scans")

    def failing(value):
        calls.append(value)
        if len(calls) > 200:
            raise OSError("disk full")
        return fmt(value)

    monkeypatch.setattr(cli, "_fmt", failing)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "disk full" in err
    assert os.listdir(tmp_path) == []
    out.write_text("previous\n")
    calls.clear()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 1
    assert os.listdir(tmp_path) == ["fig1.csv"] and out.read_text() == "previous\n"


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError):
        write_csv(SweepResult(["seed"], [{"seed": 1}], {"seed": 1}), str(tmp_path / "run.csv"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,blocked", [
    (["fidelity", "--beta", "1.5", "--omega0", "1e5", "--m", "4", "--n", "3"], "out.csv.meta"),
    (["reproduce", "fig2", "--m", "4", "--n", "3"], "out_delta1_0.04.csv.meta"),
], ids=["fidelity", "fig2"])
def test_failed_later_rename_leaves_no_output(tmp_path, capsys, argv, blocked):
    # a directory where a later file goes fails its rename after the earlier
    # files are in place; they are taken out again, so no half of the output is
    # left: the CSV of a pair, or fig2's first curves
    (tmp_path / blocked).mkdir()
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 1 and "Is a directory" in err and "wrote" not in out
    assert os.listdir(tmp_path) == [blocked]


@pytest.mark.parametrize("argv", [
    ["fidelity", "--beta", "1.5", "--omega0", "1e5"],
    ["sweep", "--beta", "1.5", "--omega0", "1e5"],
    ["reproduce", "fig2"],
], ids=["fidelity", "sweep", "fig2"])
def test_scan_into_a_missing_directory_is_refused_first(tmp_path, capsys, monkeypatch, argv):
    # refused before anything is estimated: the run used to print its row, or
    # scan to the end, and then fail naming its temporary file
    def never(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(sweep, "sweep_generic", never)
    out = tmp_path / "missing" / "x.csv"
    code, printed, err = run_cli(capsys, *argv, "--m", "4", "--n", "2", "--out", str(out))
    assert (code, printed) == (1, "")
    assert err == f"error: {out}: no such directory: '{out.parent}'\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,out", [
    *[(argv, out) for argv in (["sweep", "--beta", "1.5", "--omega0", "1e5"],
                               ["reproduce", "fig1"], ["reproduce", "fig2"])
      for out in ("", "d", "d" + os.sep, "e" + os.sep)],
    *[(["fidelity", "--beta", "1.5", "--omega0", "1e5"], out)
      for out in ("d", "d" + os.sep, "e" + os.sep)],
], ids=[*[f"{name}-{form}" for name in ("sweep", "fig1", "fig2")
          for form in ("empty", "directory", "directory-separator", "separator")],
        "fidelity-directory", "fidelity-directory-separator", "fidelity-separator"])
def test_out_that_names_no_file_is_refused_first(tmp_path, capsys, monkeypatch, argv, out):
    # refused before anything is estimated or printed, as a flag or a config
    # key: the run used to scan to the end and then fail on the path, or (fig2
    # into d/) write its curves as d/_delta1_0.01.csv and so on; d exists, e does not
    def never(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(sweep, "sweep_generic", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "c.cfg").write_text(f"out={out}\n")
    refused = (1, "", f"error: --out must name a file, got {out!r}\n")
    assert run_cli(capsys, *argv, "--m", "4", "--n", "2", "--out", out) == refused
    assert run_cli(capsys, *argv, "--m", "4", "--n", "2", "--config", "c.cfg") == refused
    assert sorted(os.listdir(tmp_path)) == ["c.cfg", "d"] and os.listdir(tmp_path / "d") == []


def test_fidelity_reads_an_empty_out_as_no_file(tmp_path, capsys, monkeypatch):
    # as a flag or a config key; the scans refuse it (above)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("out=\n")
    argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--m", "4", "--n", "2"]
    code, printed, err = run_cli(capsys, *argv, "--out", "")
    assert (code, err) == (0, "") and printed.startswith("omega0,") and "F = " in printed
    assert run_cli(capsys, *argv, "--config", "c.cfg") == (0, printed, "")
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_write_errors_name_the_destination(tmp_path):
    # not the temporary file beside it, whether its open or its rename fails
    result = SweepResult(["seed"], [{"seed": 1}], {"seed": 1})
    for out in (tmp_path / "missing" / "run.csv", tmp_path / "run.csv"):
        with pytest.raises(OSError) as err:
            write_csv(result, str(out))
        assert str(err.value).endswith(f": '{out}'") and ".tmp" not in str(err.value)
        (tmp_path / "run.csv").mkdir(exist_ok=True)  # blocks the second one's rename
    assert os.listdir(tmp_path) == ["run.csv"]


# --- config file and seed sources -----------------------------------------------


def test_config_file_roundtrip_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=1.5\nomega0=1e5\ndelta0=0.1\ndelta1=0.1\nm=30\nn=30\nseed=21\n")
    back = read_config(str(cfg))
    assert float(back["omega0"]) == 1e5 and int(back["m"]) == 30

    argv_flags = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--delta0", "0.1",
                  "--delta1", "0.1", "--m", "30", "--n", "30", "--seed", "21"]
    _, out_flags, _ = run_cli(capsys, *argv_flags)
    _, out_cfg, _ = run_cli(capsys, "fidelity", "--config", str(cfg))
    assert out_flags == out_cfg

    # CLI flag wins over the file value
    _, out_override, _ = run_cli(capsys, "fidelity", "--config", str(cfg),
                                 "--seed", "22")
    assert out_override != out_cfg


def test_config_file_comments_and_errors(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nm=5  # trailing\n\nn=6\n")
    assert read_config(str(cfg)) == {"m": "5", "n": "6"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config(str(bad))
    # a repeated key would silently run its last value; an empty key names none
    bad.write_text("m=5\nn=6\nm = 7\n")
    with pytest.raises(ValueError) as err:
        read_config(str(bad))
    assert str(err.value) == f"{bad}:3: repeated key 'm' in 'm = 7\\n'"
    bad.write_text("# comment\n=7\n")
    with pytest.raises(ValueError) as err:
        read_config(str(bad))
    assert str(err.value) == f"{bad}:2: empty key in '=7\\n'"


def test_sim_seed_env(tmp_path, capsys, monkeypatch):
    argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--delta0", "0.1",
            "--delta1", "0.1", "--m", "25", "--n", "25"]
    monkeypatch.setenv("SIM_SEED", "31")
    _, out_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("SIM_SEED")
    _, out_31, _ = run_cli(capsys, *argv, "--seed", "31")
    assert out_env == out_31
    monkeypatch.setenv("SIM_SEED", "31")
    _, out_override, _ = run_cli(capsys, *argv, "--seed", "32")
    assert out_override != out_31


def assert_grid_refused(tmp_path, capsys, grid, reason):
    """The flag exits 2 and the config key 1, both with the same reason."""
    out = tmp_path / "s.csv"
    argv = ["sweep", "--beta", "1.5", "--omega0", "1e5", "--m", "2", "--n", "2",
            "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--grid-delta-rel", grid])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --grid-delta-rel: {reason}\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"grid_delta_rel={grid}\n")
    code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and stdout == ""
    assert err == f"error: {cfg}: grid_delta_rel: {reason}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("grid", ["0:inf:3", "nan,1", "1,-inf", "-1e308:1e308:3", "0:nan:1",
                                  "0:1:0"])
def test_non_finite_grid_refused(tmp_path, capsys, grid):
    # 0:inf:3 used to write rows at nan, inf, inf: start + inf*0 is nan
    reason = ("grid needs >= 1 points, got 0" if grid == "0:1:0"
              else f"grid values must be finite, got '{grid}'")
    assert_grid_refused(tmp_path, capsys, grid, reason)


@pytest.mark.parametrize("argv,key,value", [
    (["sweep", "--beta", "1.5"], "omega0", "nan"),
    (["sweep", "--two-qubit"], "alpha", "nan"),
    (["reproduce", "fig4"], "omega1", "inf"),
    (["reproduce", "fig2"], "omega0", "inf"),
    (["fidelity", "--beta", "1.5", "--omega0", "1e5"], "delta", "1e400"),
    (["fidelity", "--beta", "1.5", "--omega0", "1e5"], "delta1", "-inf"),
    (["gate", "--beta", "1.5"], "omega0", "nan"),
], ids=["sweep-omega0", "sweep-alpha", "fig4-omega1", "fig2-omega0", "fidelity-delta",
        "fidelity-delta1", "gate-omega0"])
def test_non_finite_float_option_refused(tmp_path, capsys, monkeypatch, argv, key, value):
    # every row of these runs used to be infeasible, written with exit 0: the flag
    # exits 2 and the config key 1, both with the same reason, and nothing is written
    monkeypatch.chdir(tmp_path)
    argv = argv + ([] if argv[0] == "gate" else ["--m", "2", "--n", "2"])
    flag, reason = "--" + key.replace("_", "-"), f"value must be finite, got {value!r}"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [f"{flag}={value}"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {reason}\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (
        1, "", f"error: {cfg}: {key}: {reason}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_every_float_option_refuses_non_finite_values(tmp_path):
    # each float option of each subcommand, as a flag and as a config key
    parser, cfg = cli.build_parser(), tmp_path / "c.cfg"
    covered = set()
    for command, sub in subcommand_parsers().items():
        head = [command, "fig1"] if command == "reproduce" else [command]
        for action in sub._actions:
            if action.type is not cli._parse_float:
                continue
            with pytest.raises(SystemExit):
                parser.parse_args(head + [action.option_strings[0], "nan"])
            cfg.write_text(f"{action.dest}=-inf\n")
            ns = parser.parse_args(head + ["--config", str(cfg)])
            with pytest.raises(ValueError, match=f"^{cfg}: {action.dest}: value must be finite"):
                cli._Settings(ns)
            covered.add(action.dest)
    assert covered == {key for key, (parse, _) in cli._OPTIONS.items() if parse is cli._parse_float}


@pytest.mark.parametrize("grid", ["0:1", "0:1:2:3", "0:1:2.5", "0,one"])
def test_malformed_grid_refused(tmp_path, capsys, grid):
    # a wrong count of parts or a non-integral NUM names the forms a grid takes
    reason = f"grid must be START:STOP:NUM or a comma list, got '{grid}'"
    assert_grid_refused(tmp_path, capsys, grid, reason)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
def test_seed_outside_64_bits_refused(tmp_path, capsys, monkeypatch, seed):
    # the CLI's seeds are 64-bit words: a stream refuses -1, and 2**64 and above,
    # which a stream would take, lie outside the range the CSV and .meta promise
    out = tmp_path / "f.csv"
    argv = ["fidelity", "--beta", "1.5", "--omega0", "1e5", "--m", "2", "--n", "2",
            "--out", str(out)]
    message = f"seed must lie in [0, 2**64), got {seed}"
    assert run_cli(capsys, *argv, "--seed", seed) == (1, "", f"error: {message}\n")
    monkeypatch.setenv("SIM_SEED", seed)
    assert run_cli(capsys, *argv) == (1, "", f"error: SIM_SEED: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,message", [
    ("fidelity", "m", "0", "m must be >= 1, got 0"),
    ("sweep", "workers", "0", "workers must be >= 1, got 0"),
    ("fidelity", "delta0", "1.5", "delta0 must satisfy 0 <= delta < 1, got 1.5"),
    ("fidelity", "seed", "-1", "seed must lie in [0, 2**64), got -1"),
], ids=["m", "workers", "delta0", "seed"])
def test_value_out_of_range_names_its_file_and_key(tmp_path, capsys, command, key, value,
                                                   message):
    # the estimator's bounds refuse the value; a config file's is named as a
    # parse error is, a flag's carries the estimator's message alone (only the
    # scans take --workers)
    out = tmp_path / "f.csv"
    argv = [command, "--beta", "1.5", "--omega0", "1e5", "--n", "4", "--out", str(out)]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={value}\n")
    result = run_cli(capsys, *argv, "--config", str(cfg))
    assert result == (1, "", f"error: {cfg}: {key}: {message}\n")
    assert run_cli(capsys, *argv, f"--{key}", value) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_sweep_at_invalid_beta_is_an_error(tmp_path, capsys):
    # beta itself is refused for the whole sweep, not flagged at every point
    out = tmp_path / "s.csv"
    result = run_cli(capsys, "sweep", "--beta", "2.5", "--m", "2", "--n", "2",
                     "--out", str(out))
    assert result == (1, "", "error: beta=2.5 gives eta=-1.25, need 0 < eta < 1\n")
    assert not out.exists()


def test_config_unknown_key_is_an_error(tmp_path, capsys):
    # a misspelt key must not run at its default (here: zero noise)
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("beta=1.5\nomega0=1e5\ndleta0=0.3\nm=5\nn=5\n")
    code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
    assert code == 1 and out == ""
    assert "dleta0" in err
    # a key that is an option of another subcommand only is unknown here too
    cfg.write_text("beta=1.5\nomega0=1e5\ndelta0=0.1\n")
    code, _, err = run_cli(capsys, "gate", "--config", str(cfg))
    assert code == 1 and "delta0" in err


@pytest.mark.parametrize("key,value,in_config", [
    ("workers", "0", False), ("workers", "-3", False), ("workers", "0", True),
    ("m", "0", False), ("n", "-2", False), ("m", "0", True), ("n", "0", True),
], ids=["0", "-3", "config", "m", "n", "config-m", "config-n"])
def test_workers_below_one_rejected(tmp_path, capsys, key, value, in_config):
    # every point of this grid is infeasible, so the estimator never runs and
    # only the CLI can refuse a count below 1
    out = tmp_path / "s.csv"
    argv = ["sweep", "--beta", "1.5", "--omega0", "1e5", "--grid-delta-rel", "-3:-2:2",
            "--out", str(out)]
    options = {"m": "5", "n": "5", key: value}
    if in_config:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={options.pop(key)}\n")
        argv += ["--config", str(cfg)]
    for option, text in options.items():
        argv += [f"--{option}", text]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert f"{key} must be >= 1" in err
    assert not out.exists()


# --- import cost ------------------------------------------------------------------


def fresh_output(code):
    """What code prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(geomgate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # every CLI call pays the package import; scipy alone used to cost most of it
    code = ("import sys, geomgate; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_output(code) == "[]"


def test_import_loads_no_process_pool():
    # only a sweep on more than one process starts a pool; the CLI's import,
    # which every call pays, leaves concurrent.futures unloaded
    assert fresh_output("import sys, geomgate.cli; "
                        "print('concurrent.futures' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["gate", "--beta", "1.5", "--omega0", "1e5", "--zero-dynamic"],
    ["gate", "--two-qubit", "--alpha", "1.7320508", "--omega0", "30"],
], ids=["single", "two-qubit"])
def test_gate_loads_no_numpy(argv):
    # a gate report is closed forms in math only; a cold call pays no numpy import,
    # nor the scan commands, dataclasses (with inspect) or typing. Without site
    # (python -S), which may preload modules of its own
    loads = ("numpy", "dataclasses", "inspect", "typing", "geomgate.scans")
    code = (f"import sys\nfrom geomgate import cli\nassert cli.main({argv!r}) == 0\n"
            f"print(sorted(set({loads!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomgate.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv,fitted", [
    (["sweep", "--beta", "1.5", "--omega0", "1e5", "--grid-delta-rel=-0.4:3.6:21",
      "--m", "8", "--n", "400", "--workers", "1", "--out", "s.csv"], False),
    (["reproduce", "fig4", "--gate-model", "propagator", "--m", "12000", "--n", "12",
      "--out", "f.csv"], True),
], ids=["per-shot", "fit"])
def test_scan_loads_no_numpy_random(argv, fitted, tmp_path):
    # the streams are computed on plain arrays: a scan pays neither numpy.random's
    # import nor the _hashlib that numpy.random's use of secrets loads, beyond what
    # `import numpy` loads itself (nothing on numpy 2.x, both on numpy 1.x). Every
    # sweep computes its path mask, but only a scan that fits loads chebyshev
    loads = {"numpy.random", "_hashlib", "geomgate.chebyshev"}
    report = ("import atexit, sys\n"
              f"atexit.register(lambda: print(*{loads!r} & set(sys.modules)))\n")
    scan = (f"import runpy\nsys.argv[1:] = {argv!r}\n"
            "runpy.run_module('geomgate', run_name='__main__', alter_sys=True)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomgate.__file__)))
    loaded = []
    for script in (report + "import numpy\n", report + scan):
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(proc.stdout.splitlines()[-1].split()))
    baseline, scanned = loaded
    assert scanned - baseline == ({"geomgate.chebyshev"} if fitted else set())


# --- process entry point --------------------------------------------------------


def run_module(argv, cwd):
    """`python -m geomgate argv` in a fresh interpreter. Its output pipes close
    only when every process that holds them has exited, pool workers included."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomgate.__file__)))
    return subprocess.run([sys.executable, "-m", "geomgate", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


SMALL_SWEEP = ["sweep", "--beta", "1.5", "--omega0", "1e5", "--grid-delta-rel=-0.4:1.6:6",
               "--m", "4", "--n", "6", "--seed", "5", "--out", "s.csv"]


def test_module_sweep_matches_main_in_process(tmp_path, capsys, monkeypatch):
    (tmp_path / "module").mkdir()
    (tmp_path / "inproc").mkdir()
    proc = run_module(SMALL_SWEEP, tmp_path / "module")
    assert proc.returncode == 0 and proc.stderr == ""
    monkeypatch.chdir(tmp_path / "inproc")
    code, out, err = run_cli(capsys, *SMALL_SWEEP)
    assert (code, out, err) == (0, proc.stdout, "")
    for name in ("s.csv", "s.csv.meta"):
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "inproc" / name).read_bytes()


def test_module_handled_error_exits_1_and_writes_nothing(tmp_path):
    proc = run_module([*SMALL_SWEEP, "--m", "0"], tmp_path)  # the last --m counts
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "m must be >= 1" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_module_usage_error_exits_2(tmp_path):
    proc = run_module(["sweep", "--no-such-option"], tmp_path)
    assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_module_pool_run_exits_and_joins_its_workers(tmp_path):
    # 195 * 2 * 30000 per-shot shots start two worker processes where two CPUs
    # exist; the pipes closing shows that none outlives the CLI process
    proc = run_module(["reproduce", "fig4", "--gate-model", "propagator", "--m", "30000",
                       "--n", "2", "--independent", "--control-mode", "fixed1",
                       "--workers", "2", "--out", "p.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "wrote p.csv (195 rows)\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_callers_collector_alone(tmp_path, monkeypatch, enabled):
    monkeypatch.chdir(tmp_path)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(SMALL_SWEEP) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        with pytest.raises(SystemExit):
            main(["sweep", "--no-such-option"])
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (["gate", "--beta", "1.5", "--omega0", "1e5", "--zero-dynamic"], 0),
    (["gate", "--beta", "1.5", "--omega0", "1e200"], 1),
    (["gate", "--no-such-option"], 2),
], ids=["report", "error", "usage"])
def test_run_exits_without_the_collector(argv, code):
    # what the interpreter's exit sees: the collector off and every object frozen
    script = ("import atexit, gc, sys\nfrom geomgate import cli\n"
              "atexit.register(lambda: print('gc', gc.isenabled(), gc.get_freeze_count() > 0))\n"
              f"sys.argv[1:] = {argv!r}\ncli.run()\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomgate.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "gc False True"
