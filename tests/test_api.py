"""The public API holds only what the package, demos, benchmark or README use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import geomgate

ROOT = Path(__file__).resolve().parents[1]


def caller_lines():
    """Lines of every file a public name may be used from, tests excluded."""
    files = [f for f in sorted((ROOT / "src" / "geomgate").glob("*.py"))
             if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "README.md")
    return [line for f in files for line in f.read_text(encoding="utf-8").splitlines()]


def test_every_public_name_has_a_caller():
    lines = caller_lines()
    unused = []
    for name in geomgate.__all__:
        word = re.escape(name)
        use = re.compile(rf"\b{word}\b")
        definition = re.compile(rf"\s*(def|class)\s+{word}\b|{word}\s*[:=]")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def test_every_public_name_resolves_and_is_listed():
    # every name loads on first access; dir() lists it before that
    listed = dir(geomgate)
    for name in geomgate.__all__:
        assert name in listed
        assert getattr(geomgate, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        geomgate.no_such_name
    # the import loads no submodule, and the submodules resolve as package
    # attributes too; a fresh interpreter, so no other test has imported them yet
    src = Path(geomgate.__file__).resolve().parents[1]
    code = ("import sys, geomgate\n"
            "assert [m for m in sys.modules if m.startswith('geomgate.')] == []\n"
            "for name in ('model', 'evolve', 'noise', 'fidelity', 'sweep'):\n"
            "    assert name in dir(geomgate)\n"
            "print(sorted(geomgate.sweep.PRESETS), geomgate.evolve.one_cycle_gate.__name__)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['fig1',", "'fig2',", "'fig3',", "'fig4']", "one_cycle_gate"]


# --- value types ------------------------------------------------------------------


def value_types():
    """One instance of every value type, built as the demos and bench/layers.py build them."""
    from geomgate.sweep import PRESETS, SweepResult

    drive = geomgate.DriveParams(2.0, 1.0, 1.5)
    two = geomgate.TwoQubitParams(target=drive, coupling_j=0.25, alpha=0.25)
    spec = geomgate.NoiseSpec(0.05, 0.1)
    return {
        "DriveParams": drive,
        "TwoQubitParams": two,
        "PhaseTriple": geomgate.phases(drive),
        "NoiseSpec": spec,
        "FidelityEstimate": geomgate.FidelityEstimate(mean=0.99, stderr=0.01, n_states=4),
        "SweepPoint": geomgate.SweepPoint({"omega0": 1.0}, "single", drive),
        "infeasible SweepPoint": geomgate.SweepPoint({"omega0": 1.0}, "single", None, False, "why"),
        "SweepResult": SweepResult(["seed"], [{"seed": 1}], {"seed": 1}),
        "Preset": PRESETS["fig4"],
        "EstimatorConfig": geomgate.EstimatorConfig(m=3, n=4, spec=spec, seed=5,
                                                    control_mode="fixed1", workers=2),
    }


def test_value_types_construct_by_position_and_keyword():
    drive = geomgate.DriveParams(omega=2.0, omega0=1.0, omega1=1.5)
    assert drive == geomgate.DriveParams(2.0, 1.0, 1.5)
    assert (drive.omega, drive.omega0, drive.omega1) == (2.0, 1.0, 1.5)
    assert repr(drive) == "DriveParams(omega=2.0, omega0=1.0, omega1=1.5)"
    two = geomgate.TwoQubitParams(drive, 0.25)
    assert (two.target, two.coupling_j, two.alpha) == (drive, 0.25, None)
    assert two == geomgate.TwoQubitParams(target=drive, coupling_j=0.25, alpha=None)
    assert repr(two) == ("TwoQubitParams(target=DriveParams(omega=2.0, omega0=1.0, omega1=1.5), "
                         "coupling_j=0.25, alpha=None)")
    spec = geomgate.NoiseSpec(0.05, 0.1)
    assert (spec.delta0, spec.delta1, spec.independent) == (0.05, 0.1, False)
    assert geomgate.NoiseSpec(*(0.05, 0.1, True)) == geomgate.NoiseSpec(0.05, 0.1,
                                                                        independent=True)
    point = geomgate.SweepPoint(coords={"omega0": 1.0}, kind="single", params=drive)
    assert (point.feasible, point.reason) == (True, None)
    assert point == geomgate.SweepPoint({"omega0": 1.0}, "single", drive, True, None)
    tri = geomgate.phases(drive)
    assert tri == geomgate.PhaseTriple(gamma=tri.gamma, gamma_g=tri.gamma_g, gamma_d=tri.gamma_d)
    est = geomgate.FidelityEstimate(0.99, 0.01, 4)
    assert (est.mean, est.stderr, est.n_states) == (0.99, 0.01, 4)
    fig4 = value_types()["Preset"]
    assert (fig4.spec, fig4.control_mode, fig4.options["omega1"]) == (
        geomgate.NoiseSpec(0.05, 0.05), "unfixed", 60.0)


@pytest.mark.parametrize("name", list(value_types()))
def test_value_types_are_immutable_hashable_and_pickle(name):
    import copy
    import pickle

    value = value_types()[name]
    field = next(iter(getattr(value, "_fields", None) or value.__dataclass_fields__))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    twin = copy.deepcopy(value)
    assert twin == value and twin is not value
    if name in ("DriveParams", "TwoQubitParams", "PhaseTriple", "NoiseSpec", "FidelityEstimate",
                "EstimatorConfig"):
        assert hash(twin) == hash(value)
    # a pool job carries SweepPoints and an EstimatorConfig, a worker returns rows
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and repr(back) == repr(value)


@pytest.mark.parametrize("make, message", [
    (lambda: geomgate.DriveParams(0.0, 1.0, 1.0), "omega must lie in [1e-100, 1e100], got 0.0"),
    (lambda: geomgate.DriveParams(omega=1.0, omega0=1e101, omega1=1.0),
     "omega0 must lie in [1e-100, 1e100], got 1e+101"),
    (lambda: geomgate.DriveParams(1.0, 1.0, float("nan")),
     "omega1 must lie in [-1e100, 1e100], got nan"),
    (lambda: geomgate.TwoQubitParams(geomgate.DriveParams(1.0, 1.0, 1e100), 1e100),
     "omega1 must lie in [-1e100, 1e100], got 2e+100"),
    (lambda: geomgate.NoiseSpec(1.0, 0.1), "delta0 must satisfy 0 <= delta < 1, got 1.0"),
    (lambda: geomgate.NoiseSpec(0.1, delta1=-0.5), "delta1 must satisfy 0 <= delta < 1, got -0.5"),
    (lambda: geomgate.EstimatorConfig(m=0), "m must be >= 1, got 0"),
    # _replace builds through the same checks
    (lambda: geomgate.DriveParams(1.0, 1.0, 1.0)._replace(omega=0.0),
     "omega must lie in [1e-100, 1e100], got 0.0"),
    (lambda: value_types()["TwoQubitParams"]._replace(coupling_j=1e101),
     "omega1 must lie in [-1e100, 1e100], got -1e+101"),
    (lambda: geomgate.NoiseSpec(0.1, 0.1)._replace(delta1=1.0),
     "delta1 must satisfy 0 <= delta < 1, got 1.0"),
])
def test_value_types_keep_their_checks(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_estimator_config_derives_by_dataclasses_replace():
    # bench/layers.py and the sweep tests derive configs this way; the check reruns
    import dataclasses

    cfg = value_types()["EstimatorConfig"]
    assert dataclasses.replace(cfg, workers=1) == geomgate.EstimatorConfig(
        m=3, n=4, spec=geomgate.NoiseSpec(0.05, 0.1), seed=5, control_mode="fixed1", workers=1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        dataclasses.replace(cfg, workers=0)
