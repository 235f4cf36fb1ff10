"""Smoke tests: the examples that drive the scheduler path still run.

Each runs as ``__main__`` in-process (``runpy``), on the parameters the
script itself picks, and must finish without raising and print its
scheduled Table VI row.
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


@pytest.mark.parametrize("script", ["encrypted_xgboost.py", "encrypted_inference.py"])
def test_example_runs(script, capsys):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    assert "Morphling" in capsys.readouterr().out
