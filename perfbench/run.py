"""spinbench benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src/spinbench``, imported from source.  Each run starts fresh worker
processes (worker.py), so no cache survives from one run to the next.

--trace 0  times the workload untraced and prints the end-to-end metrics.
           set-up time is the median over several fresh imports.  Times are
           scaled to a reference speed of the machine (see worker.py); the
           `#` lines give them as measured too.
--trace 1  plays the workload for half the time untraced and for half traced,
           each in its own fresh worker on the same inputs, and prints the
           per-layer metrics (per round of the workload) and the tracing
           overhead, traced wall_s / untraced wall_s.  The spans are written
           to .perfbench_spans/<workload>-<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A call that fails a check counts in `failed` and makes the run
incorrect.  Outputs that reproduce the known open defect of the certify
boundary (a non-finite field, ROADMAP item 4) are counted on the `#` lines
and, traced, as cli.known_defects; they are not failures.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")   # a traced run's spans, one JSON list a line
# percentile level of call_tail_ms per workload: high, with at least ten calls
# beyond it in a run of this benchmark's length, and between two call slots of
# similar cost, so the level does not sit on a jump in the latency distribution
TAIL_LEVEL = {"points": 95.0, "small-j-sweep": 70.0, "large-j": 80.0, "optimizer": 75.0}
SETUP_PROBES = 4          # fresh imports besides the worker's own
RUN_BUDGET_S = 170       # every worker of a run ends within this


def worker(extra, deadline):
    """Run worker.py in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one BLAS thread: on a small shared machine idle BLAS threads spinning on
    # the other cores make timings (and the --threads 2 sweeps) noisy
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, WORKER, "--t0", repr(time.perf_counter())] + extra
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited with %d" % (" ".join(extra), proc.returncode))
    return json.loads(lines[-1])


def play(args, seconds, trace, workdir, deadline):
    os.makedirs(workdir, exist_ok=True)
    extra = []
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        extra = ["--spans", os.path.join(SPANS_DIR, "%s-%d.jsonl" % (args.workload, args.seed))]
    return worker(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(seconds), "--trace", str(trace), "--workdir", workdir,
                   "--tail-level", repr(TAIL_LEVEL[args.workload])] + extra, deadline)


def report(declared, values):
    """The metrics BENCHMARK.json declares, with its units, printed one a line."""
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-40s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="spinbench benchmark")
    p.add_argument("--workload", required=True, choices=sorted(TAIL_LEVEL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the worker,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "spinbench", "__init__.py")):
        print("no spinbench sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.trace:
            plain = play(args, args.seconds / 2, 0, workdir, deadline)
            runs = [plain, play(args, args.seconds / 2, 1, workdir, deadline)]
            layers = runs[1]["layers"]
            # rounds are drawn from the seed alone, so both workers played the
            # same inputs in their common rounds
            n = min(len(r["round_walls"]) for r in runs)
            layers["trace.overhead"] = sum(runs[1]["round_walls"][:n]) / sum(plain["round_walls"][:n])
            metrics = report(declared["per_layer"], layers)
        else:
            probes = [worker(["--probe"], deadline) for _ in range(SETUP_PROBES)]
            run = play(args, args.seconds, 0, workdir, deadline)
            runs = [run]
            for key in ("setup_s", "raw_setup_s"):
                run[key] = statistics.median([p[key] for p in probes] + [run[key]])
            metrics = report(declared["end_to_end"], run)
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    unexpected = [u for r in runs for u in r["unexpected"]]
    for line in unexpected[:20]:
        print("FAILED %s" % line, file=sys.stderr)
    print("# environment: %s" % ", ".join("%s %s" % kv for kv in runs[0]["environment"].items()))
    for r in runs:
        print("# as measured: wall_s %.6g s, call_p50_ms %.6g ms, call_tail_ms %.6g ms, setup_s %.6g s; "
              "reference kernel %.4g ms (median)" % (r["raw"]["wall_s"], r["raw"]["call_p50_ms"],
                                                     r["raw"]["call_tail_ms"], r["raw_setup_s"], r["reference_ms"]))
        print("# %s seed %d: %d rounds, %d calls, %d failed, %d show the known defect, "
              "call_tail_ms at p%g, digest %s"
              % (args.workload, args.seed, r["rounds"], r["calls"], r["failed"], r["known_defects"],
                 r["tail_level"], r["digest"][:16]))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
