"""Smoke tests: every script in ``examples/`` still runs.

Each runs as ``__main__`` in-process (``runpy``), on the parameters the
script itself picks, and must finish without raising and print the line
it exists to show.
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: Script -> a substring its output must contain.
EXPECTED_OUTPUT = {
    "encrypted_xgboost.py": "Morphling",
    "encrypted_inference.py": "Morphling",
    "quickstart.py": "Morphling simulated bootstrap performance",
    "design_space_exploration.py": "efficiency knee",
    "pipeline_visualization.py": "steady-state:",
}


def test_every_example_is_covered():
    scripts = {f for f in os.listdir(EXAMPLES) if f.endswith(".py")}
    assert scripts == set(EXPECTED_OUTPUT)


@pytest.mark.parametrize("script", list(EXPECTED_OUTPUT))
def test_example_runs(script, capsys):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    assert EXPECTED_OUTPUT[script] in capsys.readouterr().out
