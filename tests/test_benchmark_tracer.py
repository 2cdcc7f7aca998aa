"""The surface of the library that the benchmark's tracer (perfbench/tracing.py)
patches and reads, checked in milliseconds: a refactor that drops a traced
name or a field the tracer reads fails here.  The tracer is imported from its
file and only used, never changed."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import spinbench
from spinbench import recycling

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# a `--trace 1` worker's order: import, then install the tracer at once, the array layer not yet
# loaded; prints whether numpy was loaded before the install, whether the install patched
# heisenberg_gate (in its module and as the package's name) and whether restore put it back
WORKER_ORDER = """
import importlib.util, json, sys
import spinbench, spinbench.cli
cold = "numpy" in sys.modules
spec = importlib.util.spec_from_file_location("spinbench_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
gate = spinbench.protocols.heisenberg_gate
patched = getattr(gate, "__wrapped__", None) is not None and spinbench.heisenberg_gate is gate
tracer.restore()
restored = not hasattr(spinbench.protocols.heisenberg_gate, "__wrapped__")
print(json.dumps([cold, patched, restored]))
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("spinbench_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute of every spinbench module, and ProgramChannel's own."""
    snap = {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "spinbench" or name.startswith("spinbench."))
            for attr, value in vars(mod).items()}
    snap.update((("ProgramChannel", attr), value)
                for attr, value in vars(spinbench.channel_lab.ProgramChannel).items())
    return snap


def _changed(before, after):
    return sorted("%s.%s" % key for key in before.keys() | after.keys()
                  if before.get(key) is not after.get(key))


def test_tracer_patches_and_restores_the_traced_names():
    tracer = _load_tracing().Tracer()
    before = _snapshot()
    tracer.install()
    try:
        patched = _changed(before, _snapshot())
        tracer.active = True
        curve = recycling.recycling_curve(41 / 2, math.pi, 5)
        tracer.active = False
    finally:
        tracer.restore()
    assert "spinbench.recycling.recycling_curve" in patched
    assert "ProgramChannel.__post_init__" in patched
    assert curve.mode == "exact"
    assert ("recycling.curve", "recycling_curve") in {span[3:5] for span in tracer.spans}
    assert tracer.layer_metrics(1, 0, 0)["recycling.exact_share"] == 1.0
    assert _changed(before, _snapshot()) == []


def test_tracer_installs_right_after_import():
    # the test above snapshots every module first, which loads each lazy one; a worker does not
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", WORKER_ORDER, str(TRACING)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True, True]
