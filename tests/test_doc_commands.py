"""Every ``repro`` command the prose docs show parses.

README.md, DESIGN.md and ``docs/*.md`` show CLI invocations in code
spans and fenced blocks: ``repro <verb> ...``, ``python -m repro <verb>
...`` or ``python -m repro.cli <verb> ...``, optionally behind a ``$``
prompt and environment assignments.  Each must parse with the CLI's own
parser (:func:`repro.cli.build_parser`) once comments, pipes and
redirections are stripped, so neither a renamed verb or flag nor prose
shorthand such as ``--set I/II/III`` survives in the docs.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^(```|~~~)[^\n]*\n(.*?)^\1", re.M | re.S)
CODE_SPAN = re.compile(r"`([^`]+)`")
COMMAND = re.compile(
    r"(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*(?:python3?\s+-m\s+repro(?:\.cli)?|repro)\s+(\S.*)"
)
#: Where a shell line stops being the command: a comment, a pipe, a
#: command separator.
END = re.compile(r"\s#|\s\|\s|&&|;")
#: ``> out``, ``>> out``, ``2>&1``, ``< in``.
REDIRECT = re.compile(r"(?:^|\s)\d*(?:>>?|<)(?:&\d+|\s*\S+)")


def _commands(doc):
    """``(shown text, argv)`` of every command in ``doc``."""
    text = doc.read_text()
    lines = [line for m in FENCE.finditer(text) for line in m.group(2).splitlines()]
    lines += [" ".join(span.split()) for span in CODE_SPAN.findall(FENCE.sub("", text))]
    for line in lines:
        match = COMMAND.fullmatch(line.strip())
        if match:
            command = REDIRECT.sub("", END.split(match.group(1))[0])
            yield line.strip(), shlex.split(command)


def _parse_error(argv):
    """The parser's complaint about ``argv`` (None when it parses)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return err.getvalue().strip().splitlines()[-1]
    return None


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.relative_to(ROOT).as_posix())
def test_doc_commands_parse(doc):
    bad = [f"{doc.name}: {shown}\n    {error}" for shown, argv in _commands(doc)
           for error in [_parse_error(argv)] if error]
    assert not bad, "doc commands the CLI rejects:\n" + "\n".join(bad)


def test_the_scan_finds_commands():
    argvs = [argv for doc in DOCS for _, argv in _commands(doc)]
    assert len(argvs) > 40
    assert {"simulate", "verify", "obs"} <= {argv[0] for argv in argvs}


@pytest.mark.parametrize("line, argv", [
    ("$ python -m repro obs profile --set I --json  # report",
     ["obs", "profile", "--set", "I", "--json"]),
    ("PYTHONPATH=src python -m repro.cli verify --json > out.json 2>&1",
     ["verify", "--json"]),
    ("repro obs metrics | head", ["obs", "metrics"]),
])
def test_comments_pipes_and_redirections_are_stripped(tmp_path, line, argv):
    doc = tmp_path / "doc.md"
    doc.write_text(f"```\n{line}\n```\nSee `{line}`.\n")
    assert [a for _, a in _commands(doc)] == [argv, argv]


def test_prose_shorthand_is_rejected():
    assert _parse_error(["obs", "noise", "--measure", "--set", "I/II/III"])
    assert _parse_error(["noise", "--workload", "adder"])
