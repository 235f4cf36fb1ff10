"""Every code reference in the prose docs resolves.

README.md, DESIGN.md and ``docs/*.md`` name modules and objects in code
spans: file paths such as ``repro/core/buffers.py`` or, under a
subpackage, ``core/buffers.py``; objects such as
``core/isa.py::opcode_mask`` or ``tfhe/bootstrap.blind_rotate_batch``;
and dotted names such as ``repro.tfhe.noise.decision_margin``.  When a
module or name is deleted, its rows must go with it; this test finds the
ones left behind.  A path resolves when the file exists under
``src/repro``; a name resolves when its longest importable prefix is a
module and the rest is an attribute chain on it, the last link possibly
an annotated instance field.  A slash-separated name with neither
``.py`` nor an attribute (``tfhe/bootstrap_batch``) is a telemetry name,
not a path.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

SRC = ROOT / "src" / "repro"
PACKAGES = sorted(d.name for d in SRC.iterdir() if (d / "__init__.py").is_file())

FENCE = re.compile(r"^(```|~~~).*?^\1", re.M | re.S)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(
    r"(?<![\w/.])(?:src/)?(repro/\w+(?:/\w+)*|(?:%s)(?:/\w+)+)(\.py)?((?:(?:\.|::)[A-Za-z_]\w*)*)"
    % "|".join(PACKAGES)
)
NAME = re.compile(r"(?<![\w/.])repro(?:\.[A-Za-z_]\w*)+")


def _references(doc):
    """``(line, reference)`` for every path and dotted name in a code span."""
    text = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), doc.read_text())
    for lineno, line in enumerate(text.splitlines(), start=1):
        for span in CODE_SPAN.findall(line):
            for path, py, attrs in PATH.findall(span):
                if py or attrs:
                    yield lineno, path + py + attrs
            for name in NAME.findall(span):
                yield lineno, name


def _resolves(ref):
    if "/" in ref:
        path, _, attrs = re.match(r"([\w/]+)(\.py)?(.*)", ref).groups()
        path = path[len("repro/"):] if path.startswith("repro/") else path
        if not (SRC / (path + ".py")).is_file():
            return False
        if not attrs:
            return True
        ref = "repro." + path.replace("/", ".") + attrs.replace("::", ".")
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return attr in _fields(obj) and attr == parts[-1]
            obj = getattr(obj, attr)
        return True
    return False


def _fields(cls):
    """Annotated instance fields of a class (a dataclass's ``bsk_table``)."""
    if not isinstance(cls, type):
        return set()
    return {name for klass in cls.__mro__ for name in vars(klass).get("__annotations__", {})}


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.relative_to(ROOT).as_posix())
def test_code_references_resolve(doc):
    stale = [f"{doc.name}:{lineno}: {ref}"
             for lineno, ref in _references(doc) if not _resolves(ref)]
    assert not stale, "stale code references:\n" + "\n".join(stale)


def test_the_scan_finds_references():
    found = {ref for doc in DOCS for _, ref in _references(doc)}
    assert any("/" in ref for ref in found) and any("." in ref for ref in found)
