"""scipy stays off the import path: only the calls that need it load it.

The test process may already hold scipy, so each check runs in a fresh
interpreter that reports after every step whether ``scipy`` is loaded.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# argv (a list) for spinbench.cli.main, or the name of a library call
SCRIPT = """
import contextlib, io, json, sys
import spinbench, spinbench.cli
from spinbench.covariant_opt import locate_transition

report = [["import", None, "scipy" in sys.modules]]
for step in json.loads(sys.argv[1]):
    if step == "locate_transition":
        result = locate_transition(0.5)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            result = spinbench.cli.main(step)
    report.append([step, result, "scipy" in sys.modules])
print(json.dumps(report))
"""


def _scipy_after_each(steps):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(steps)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_numpy_only_calls_leave_scipy_unloaded(tmp_path):
    data = tmp_path / "exp.csv"
    data.write_text("label,two_j,theta_rad,measured_avg_fidelity,std_err\n"
                    "run-a,3,3.141592653589793,0.69,0.005\n")
    steps = [
        ["fidelity", "--two-j", "3", "--theta", "pi"],
        ["sweep", "--two-j-range", "1:4", "--thetas", "0.7,pi", "--methods",
         "opt_exact,opt_asymptotic,mo_exact,mo_asymptotic,heisenberg_sim,mo_sim,worst_case"],
        ["longevity", "--two-j", "41", "--theta", "pi", "--n-max", "50"],
        ["spin-k", "--two-j", "3", "--two-k", "1", "--theta", "2.0"],
        ["certify", "--input", str(data)],
    ]
    report = _scipy_after_each(steps)
    assert [code for _, code, _ in report[1:]] == [0] * len(steps)
    assert [loaded for _, _, loaded in report] == [False] * (len(steps) + 1)


def test_calls_that_need_scipy_load_it():
    report = _scipy_after_each([["spin-k", "--two-j", "3", "--two-k", "2", "--theta", "2.0"],
                                "locate_transition"])
    (_, _, at_import), (_, code, after_chart), (_, transition, after_locate) = report
    assert (at_import, code, after_chart, after_locate) == (False, 0, True, True)
    # the root is the closed form, so the wrappers forward their arguments
    assert abs(transition - (math.pi - 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(7.0))))) <= 1e-12
