"""The ``repro verify --json`` document is a versioned, golden-pinned
schema downstream tooling can depend on.

Structure (keys, nesting, types) must match the golden byte-for-byte in
shape; float *values* are compared with tolerance (libm ``erfc``/``log2``
may differ in the last ulp across platforms).  An intentional schema
change bumps ``repro.observability.SCHEMA_VERSION`` (the one envelope
every ``--json`` document shares) and regenerates the golden via
``python tests/verify/_golden.py``.
"""

import json
import math

import pytest

from repro.observability import SCHEMA_VERSION, json_document
from repro.verify.cli import report_document

from ._golden import GOLDEN_DOC, build_document


def _assert_close(actual, golden, where="$"):
    assert type(actual) is type(golden), (
        f"{where}: type {type(actual).__name__} != {type(golden).__name__}"
    )
    if isinstance(actual, dict):
        assert sorted(actual) == sorted(golden), (
            f"{where}: keys {sorted(actual)} != {sorted(golden)}"
        )
        for key in actual:
            _assert_close(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(actual, list):
        assert len(actual) == len(golden), f"{where}: length mismatch"
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_close(a, g, f"{where}[{i}]")
    elif isinstance(actual, float):
        assert math.isclose(actual, golden, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {actual} != {golden}"
        )
    else:
        assert actual == golden, f"{where}: {actual!r} != {golden!r}"


def test_document_matches_golden():
    with open(GOLDEN_DOC) as fh:
        golden = json.load(fh)
    _assert_close(build_document(), golden)


def test_document_carries_schema_version():
    doc = build_document()
    assert doc["schema_version"] == SCHEMA_VERSION
    with open(GOLDEN_DOC) as fh:
        golden = json.load(fh)
    assert golden["schema_version"] == SCHEMA_VERSION, (
        "schema version changed without regenerating the golden file "
        "(python tests/verify/_golden.py)"
    )


def test_document_round_trips_through_json():
    doc = build_document()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_empty_report_list_is_ok():
    doc = json_document(report_document([]))
    assert doc == {"schema_version": SCHEMA_VERSION, "ok": True,
                   "reports": []}


@pytest.mark.parametrize("section", ["occupancy", "noise_budget"])
def test_attachment_sections_are_nested_per_report(section):
    doc = build_document()
    program_report = doc["reports"][0]
    assert section in program_report
    assert "schema_version" not in program_report[section]  # top level only
    # Reports without attachments must not carry the sections at all.
    assert section not in doc["reports"][1]
    assert section not in doc["reports"][2]
