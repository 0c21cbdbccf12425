"""The public API holds only what the package, demos, benchmark or README use."""

import re
from pathlib import Path

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
