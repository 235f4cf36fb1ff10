"""The ``repro verify`` command: exit codes, filtering, JSON, lint mode."""

import json

from repro.cli import main


def test_list_rules_prints_both_catalogs(capsys):
    assert main(["verify", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "VER001" in out and "VER006" in out
    assert "RPR001" in out and "RPR006" in out


def test_single_target_verifies_clean(capsys):
    assert main(["verify", "--strict", "--target", "xgboost@III"]) == 0
    out = capsys.readouterr().out
    assert "xgboost@III: clean" in out


def test_unknown_target_is_usage_error(capsys):
    assert main(["verify", "--target", "definitely-not-shipped"]) == 2


def test_json_output_parses(capsys):
    assert main(["verify", "--json", "--target", "xgboost@III"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["reports"][0]["subject"] == "xgboost@III"


def test_lint_clean_file(tmp_path, capsys):
    clean = tmp_path / "tfhe" / "clean.py"
    clean.parent.mkdir()
    clean.write_text("from .torus import to_torus\n\nx = to_torus(1)\n")
    assert main(["verify", "--strict", "--lint", str(tmp_path)]) == 0


def test_lint_violation_fails_only_in_strict(tmp_path, capsys):
    bad = tmp_path / "tfhe" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("x = acc & 0xFFFFFFFF\n")
    assert main(["verify", "--lint", str(tmp_path)]) == 0  # report only
    assert main(["verify", "--strict", "--lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out


def test_lint_suppressed_violation_passes_strict(tmp_path):
    excused = tmp_path / "tfhe" / "excused.py"
    excused.parent.mkdir()
    excused.write_text(
        "x = acc & 0xFFFFFFFF  # repro: allow[RPR001] exactness shown in docs\n"
    )
    assert main(["verify", "--strict", "--lint", str(tmp_path)]) == 0


def test_lint_missing_or_python_free_path_is_usage_error(tmp_path, capsys):
    # A typo in a lint gate's path must not pass as a clean lint.
    missing = tmp_path / "does_not_exist"
    assert main(["verify", "--strict", "--lint", str(missing)]) == 2
    assert f"cannot lint: no such path: {missing}" in capsys.readouterr().out
    notes = tmp_path / "README.md"
    notes.write_text("# notes\n")
    assert main(["verify", "--strict", "--lint", str(notes)]) == 2
    assert f"no python file under {notes}" in capsys.readouterr().out


def _write_encoded_stream(path):
    from repro.core.accelerator import MorphlingConfig
    from repro.core.isa_encoding import encode_stream
    from repro.core.scheduler import LayerDemand, SwScheduler
    from repro.params import get_params

    scheduler = SwScheduler(MorphlingConfig(), get_params("III"))
    stream = scheduler.schedule([LayerDemand("l0", bootstraps=3)])
    path.write_bytes(encode_stream(stream))
    return stream


def test_binary_blob_verifies_clean(tmp_path, capsys):
    blob = tmp_path / "program.bin"
    stream = _write_encoded_stream(blob)
    assert len(stream) > 0
    assert main(["verify", "--strict", "--binary", str(blob)]) == 0
    out = capsys.readouterr().out
    assert str(blob) in out and "clean" in out


def test_binary_json_report_names_the_file(tmp_path, capsys):
    blob = tmp_path / "program.bin"
    _write_encoded_stream(blob)
    assert main(["verify", "--json", "--binary", str(blob)]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["reports"][0]["subject"] == str(blob)


def test_binary_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--binary", str(tmp_path / "nope.bin")]) == 2
    assert "cannot verify" in capsys.readouterr().out


def test_binary_garbage_is_usage_error(tmp_path, capsys):
    blob = tmp_path / "garbage.bin"
    blob.write_bytes(b"\x00\x01not an instruction stream")
    assert main(["verify", "--binary", str(blob)]) == 2
    assert "cannot verify" in capsys.readouterr().out


def test_repo_sources_lint_clean():
    """The shipped tree must stay lint-clean (same gate CI runs)."""
    import os

    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert main(["verify", "--strict", "--lint", package_dir]) == 0


def test_repo_sources_have_no_finding_and_two_suppressions():
    """No error or warning in ``src/repro``, and exactly the two known
    ``allow[...]`` markers: a new suppression is a diff to this list."""
    import os
    import tokenize

    import repro
    from repro.verify import lint_paths
    from repro.verify.lint import iter_python_files
    from repro.verify.suppressions import SUPPRESS_RE

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert lint_paths([package_dir]).diagnostics == []
    markers = []
    for path in iter_python_files([package_dir]):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                match = SUPPRESS_RE.search(tok.string)
                if tok.type == tokenize.COMMENT and match:
                    rel = os.path.relpath(path, package_dir)
                    markers.append((rel.replace(os.sep, "/"), match.group(1)))
    assert sorted(markers) == [
        ("tfhe/bootstrap.py", "RPR002"),
        ("tfhe/bootstrap.py", "RPR002"),
    ]
