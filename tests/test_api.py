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
