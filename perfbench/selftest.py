"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all), plays one round untraced and one round
traced on the same seed, in this process, and checks that

* both rounds give identical output digests, so tracing changes no result;
* every call passed its checks, apart from inputs with a non-finite field;
* the traced round recorded spans, and after it every attribute the tracer
  patched (in every spinbench module, on ProgramChannel and the bound
  ``minimize`` names) is the original object again.

Exits 0 when every check holds, 1 otherwise.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spinbench  # noqa: E402
import spinbench.cli  # noqa: E402,F401
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def snapshot():
    """Every attribute of every spinbench module, and ProgramChannel's own."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "spinbench" or name.startswith("spinbench.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    for attr, value in vars(spinbench.channel_lab.ProgramChannel).items():
        snap[("ProgramChannel", attr)] = value
    return snap


def changed(before, after):
    return sorted("%s.%s" % key for key in before.keys() | after.keys()
                  if before.get(key) is not after.get(key))


def check_workload(name, workdir):
    problems = []
    args = worker.parse_args(["--t0", "0", "--workload", name, "--seed", "7",
                              "--rounds", "1", "--workdir", workdir])
    before = snapshot()
    plain = worker.play(args, None)
    tracer = Tracer()
    tracer.install()
    patched = changed(before, snapshot())
    try:
        traced = worker.play(args, tracer)
    finally:
        tracer.restore()
    leftover = changed(before, snapshot())
    if not patched:
        problems.append("the tracer patched nothing")
    if leftover:
        problems.append("not restored after the traced run: %s" % ", ".join(leftover))
    if plain["digest"] != traced["digest"]:
        problems.append("traced and untraced digests differ")
    if not tracer.spans:
        problems.append("the traced round recorded no spans")
    for run in (plain, traced):
        problems += run["unexpected"]
    print("%-14s %3d calls, %3d attributes patched, %6d spans, digest %s: %s"
          % (name, plain["attempted"], len(patched), len(tracer.spans), plain["digest"][:16],
             "ok" if not problems else "FAILED"))
    return problems


def main(argv):
    names = argv or list(WORKLOADS)
    workdir = tempfile.mkdtemp(prefix=".perfbench_selftest_", dir=os.path.dirname(HERE))
    try:
        problems = [p for name in names for p in check_workload(name, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
