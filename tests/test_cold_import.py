"""numpy, scipy and hashlib stay off the import path: only the calls that need them load them.

The test process may already hold them, so each check runs in a fresh
interpreter.  `import spinbench, spinbench.cli` loads no numpy, and the calls
that need none (certify and the closed-form sweeps) run with numpy made
unimportable.  The scipy checks report after every step whether ``scipy`` is
loaded.  The Monte-Carlo step reports how many digests hashlib made during it:
numpy.random loads hashlib itself (through ``secrets``), so there the
check is that the channels take no digest of their gate.
"""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from make_cli_corpus import ALL_METHODS, CORPUS

import spinbench

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name of spinbench 0.4.0, by the module its package imported it from
API_0_4_0 = {
    "channel_lab": ["KrausChannel", "ProgramChannel", "average_fidelity_from_entanglement",
                    "average_fidelity_mc", "entanglement_fidelity", "worst_case_fidelity"],
    "closed_forms": ["FidelityValue", "coupling_angle", "interaction_time", "mo_benchmark",
                     "mo_benchmark_asymptotic", "mo_optimal_angle", "optimal_fidelity",
                     "optimal_fidelity_asymptotic", "spin_k_entanglement_asymptotic",
                     "spin_k_fidelity_asymptotic", "spin_k_mo_asymptotic", "spin_k_worst_case_asymptotic",
                     "worst_case_asymptotic"],
    "covariant_opt": ["CovariantChannelParams", "ProgramMoments", "abcd_coefficients",
                      "covariant_entanglement_fidelity", "locate_transition", "maximize_covariant_fidelity"],
    "protocols": ["StrategyFidelities", "heisenberg_gate", "simulate_mo_strategy",
                  "simulate_optimal_qubit_strategy", "simulate_spin_k", "simulate_spin_k_mo"],
    "recycling": ["Longevity", "ProgramDistribution", "RecyclingCurve", "advantage_longevity",
                  "asymptotic_distribution", "complementary_step", "fresh_program", "per_m_fidelity",
                  "per_m_fidelity_asymptotic", "recycling_curve"],
    "spin_algebra": ["DIM_CAP", "Direction", "HalfInteger", "SpinOperators", "as_half_integer",
                     "make_spin_operators", "rotation_unitary", "spin_coherent_state", "total_spin_projectors"],
}
# the names `spin_algebra` defined at 0.4.0 and `scalars` defines now
MOVED = ["MAX_DOUBLED_SPIN", "HalfInteger", "ToleranceError", "_is_complex", "as_angle",
         "as_half_integer", "as_spin"]
# a sweep's --methods when none is given
DEFAULT_METHODS = ("opt_exact", "mo_exact")

# whether the import loaded numpy; then, with numpy unimportable, [exit code, stdout, stderr]
# of each argv (a list) run through spinbench.cli.main
NUMPY_FREE = """
import contextlib, io, json, sys
import spinbench, spinbench.cli
report = ["numpy" in sys.modules]
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spinbench.cli.main(argv)
    report.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(report))
"""

# argv (a list) for spinbench.cli.main, or the name of a library call
SCRIPT = """
import contextlib, io, json, sys
import numpy
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
        result = [locate_transition(0.5), locate_transition(1)]
    elif step == "qubit_worst_case":  # a general qubit channel takes the Bloch route
        mats = numpy.linalg.qr(numpy.arange(1.0, 9.0).reshape(4, 2) + 1j * numpy.eye(4, 2))[0]
        result = spinbench.worst_case_fidelity(spinbench.KrausChannel(mats.reshape(2, 2, 2)),
                                               numpy.eye(2))[0]
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
        "locate_transition",    # both transitions are closed forms
        "qubit_worst_case",     # the Bloch quadratic's root is bisected
    ]
    report = _scipy_after_each(steps)
    assert report[0] == ["import", False, False]  # neither is on the start-up path
    assert [code for _, code, _ in report[1:-3]] == [0] * (len(steps) - 3)
    mean, digests = report[-3][1]
    assert 0.0 < mean <= 1.0 and digests == 0
    half, one = report[-2][1]
    assert abs(half - (math.pi - 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(7.0))))) <= 1e-15
    assert abs(one - math.acos((1.0 + math.sqrt(1275.0)) / 49.0)) <= 1e-15
    assert 0.0 < report[-1][1] < 1.0
    assert [loaded for _, _, loaded in report] == [False] * (len(steps) + 1)


def test_calls_that_need_scipy_load_it():
    # a spin-3/2 target's worst case is a chart search refined by Nelder-Mead
    report = _scipy_after_each([["spin-k", "--two-j", "3", "--two-k", "3", "--theta", "2.0"]])
    (_, _, at_import), (_, code, after_chart) = report
    assert (at_import, code, after_chart) == (False, 0, True)


def test_certify_and_closed_form_sweeps_run_without_numpy():
    cases = json.loads(CORPUS.read_text())
    expected = [(case["argv"], [case["exit"], case["stdout"], case["stderr"]])
                for case in cases if case["argv"][0] == "certify"]
    # each CSV sweep of every method, on the default methods: its rows of those methods
    for case in cases:
        argv = case["argv"]
        if argv[0] == "sweep" and argv[-2:] == ["--methods", ALL_METHODS]:
            lines = case["stdout"].splitlines(keepends=True)
            rows = [line for line in lines[1:] if next(csv.reader([line]))[3] in DEFAULT_METHODS]
            expected.append((argv[:-2], [0, "".join(lines[:1] + rows), ""]))
    assert len(expected) == 5  # two certify files, three sweeps
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE, json.dumps([argv for argv, _ in expected])],
                          env=env, cwd=CORPUS.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded, *results = json.loads(done.stdout)
    assert loaded is False
    for (argv, want), got in zip(expected, results):
        assert got == want, argv


def test_every_public_name_resolves_to_its_module_object():
    for module, names in API_0_4_0.items():
        defining = importlib.import_module("spinbench." + module)
        for name in names:
            namespace = {}
            exec("from spinbench import %s" % name, namespace)
            assert namespace[name] is getattr(spinbench, name) is getattr(defining, name), name
            assert name in dir(spinbench), name
    for name in MOVED:  # re-exported as the same objects
        assert getattr(spinbench.spin_algebra, name) is getattr(spinbench.scalars, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spinbench.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from spinbench import no_such_name", {})
