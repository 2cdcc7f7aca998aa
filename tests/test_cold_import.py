"""scipy and hashlib stay off the import path: only the calls that need them load them.

The test process may already hold scipy, so each check runs in a fresh
interpreter that reports after every step whether ``scipy`` is loaded.
The Monte-Carlo step reports how many digests hashlib made during it:
numpy.random loads hashlib itself (through ``secrets``), so there the
check is that the channels take no digest of their gate.
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

def coherent_program(n):
    j, k = spinbench.HalfInteger(3), spinbench.HalfInteger(1)
    return spinbench.ProgramChannel(spinbench.heisenberg_gate(j, k, 1.0),
                                    spinbench.spin_coherent_state(j, n), j, k)

# the import step's result is whether hashlib is loaded
report = [["import", "hashlib" in sys.modules, "scipy" in sys.modules]]
for step in json.loads(sys.argv[1]):
    if step == "locate_transition":
        result = locate_transition(0.5)
    elif step == "average_fidelity_mc":
        import hashlib, numpy.random
        digests = []

        def counted(make):
            return lambda *args, **kwargs: digests.append(make) or make(*args, **kwargs)

        for name in hashlib.__all__:
            if callable(getattr(hashlib, name)):
                setattr(hashlib, name, counted(getattr(hashlib, name)))
        result = [spinbench.average_fidelity_mc(coherent_program, 2.0, 50, 5)[0], len(digests)]
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
        ["spin-k", "--two-j", "3", "--two-k", "2", "--theta", "2.0"],
        ["certify", "--input", str(data)],
        "average_fidelity_mc",  # coherent states take no binomial from scipy.special
    ]
    report = _scipy_after_each(steps)
    assert report[0] == ["import", False, False]  # neither is on the start-up path
    assert [code for _, code, _ in report[1:-1]] == [0] * (len(steps) - 1)
    mean, digests = report[-1][1]
    assert 0.0 < mean <= 1.0 and digests == 0
    assert [loaded for _, _, loaded in report] == [False] * (len(steps) + 1)


def test_calls_that_need_scipy_load_it():
    # a spin-3/2 target's worst case is a chart search refined by Nelder-Mead
    report = _scipy_after_each([["spin-k", "--two-j", "3", "--two-k", "3", "--theta", "2.0"],
                                "locate_transition"])
    (_, _, at_import), (_, code, after_chart), (_, transition, after_locate) = report
    assert (at_import, code, after_chart, after_locate) == (False, 0, True, True)
    # the root is the closed form, so the wrappers forward their arguments
    assert abs(transition - (math.pi - 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(7.0))))) <= 1e-12
