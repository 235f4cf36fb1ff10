"""The import surface of the TFHE substrate stays small.

``import repro.tfhe`` pays for every module it loads, in every process
and every pool lane.  This pins the count in a fresh interpreter and
names the only telemetry modules it may pull in, so the serving
telemetry deleted from ``repro.observability`` cannot come back through
an import.
"""

import json
import os
import subprocess
import sys

#: The telemetry modules ``import repro.tfhe`` loads: registry, tracer,
#: perf counters, noise tracker, bus and exporters.
OBSERVABILITY_MODULES = {
    "repro.observability",
    "repro.observability.bus",
    "repro.observability.counters",
    "repro.observability.export",
    "repro.observability.noise",
    "repro.observability.registry",
    "repro.observability.tracer",
}

#: ``repro`` modules ``import repro.tfhe`` may load.
MAX_REPRO_MODULES = 35


def _loaded_repro_modules():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import json, sys, repro.tfhe; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_repro_tfhe_loads_only_the_kept_telemetry():
    modules = _loaded_repro_modules()
    telemetry = {m for m in modules if m.startswith("repro.observability")}
    assert telemetry == OBSERVABILITY_MODULES
    assert len(modules) <= MAX_REPRO_MODULES, modules
