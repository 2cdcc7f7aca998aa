"""One benchmark run in a fresh process: a single closed-loop client.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  ``--t0`` is the
parent's ``perf_counter()`` just before it started this process; the clock is
system-wide, so ``setup_s`` covers interpreter start plus ``import spinbench``.
With ``--probe`` the process stops after the import and reports only that.

Otherwise it plays rounds of the workload, one call at a time, until another
round would more likely end after ``--seconds`` than before (and at least two
rounds; with ``--rounds``, exactly that many), checks every output and prints
one JSON line.

Every time it reports is scaled to a reference speed of the machine.  The
benchmark runs on a small share of a shared host, whose speed changes by up
to 2x for minutes at a time as other tenants come and go: more than the bounds allow
between two runs of the same code.  So a fixed reference kernel, which uses
nothing from spinbench, is timed before every call, and each call's time is
multiplied by the kernel's reference time / its median time near the call.
Set-up time is scaled by the kernel times taken right after the import.  The
times as measured are reported beside the scaled ones.
"""

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--rounds", type=int, default=0, help="play exactly this many rounds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir")
    p.add_argument("--tail-level", type=float, default=99.0)
    p.add_argument("--spans", help="traced runs: write the spans here")
    return p.parse_args(argv)


MIN_ROUNDS = 2            # the per-slot medians need more than one sample
REF_WINDOW = 5            # a call is scaled by the kernel times of the calls within 5 of it
TAIL_LADDER = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0]


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(n, preferred):
    """`preferred` if at least ten of the n calls lie beyond it, else the
    highest level on the ladder that has ten beyond."""
    for level in [preferred] + TAIL_LADDER:
        if level <= preferred and n * (1 - level / 100.0) >= 10:
            return level
    return 50.0


def _digest(result):
    from workloads import CliResult
    h = hashlib.sha256()
    if isinstance(result, CliResult):
        h.update(("%r\n" % result.code).encode())
        h.update(result.stdout.encode())
    else:
        h.update(repr(_plain(result)).encode())
    return h.hexdigest()


def _plain(x):
    """The numbers inside a library result, for the digest."""
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if hasattr(x, "tolist"):
        return x.tolist()
    if dataclasses.is_dataclass(x):
        return [_plain(getattr(x, f.name)) for f in dataclasses.fields(x)]
    return x


@functools.lru_cache(maxsize=None)
def _symmetric(n):
    import numpy as np
    a = np.random.default_rng(0).standard_normal((n, n))
    return a + a.T


def _interpreter_kernel():
    """Small dense eigenproblems and interpreter work (building, encoding and
    summing small objects), like the CLI calls."""
    import numpy as np
    for _ in range(4):
        np.linalg.eigh(_symmetric(40))
    rows = [{"i": i, "x": math.sqrt(i)} for i in range(300)]
    json.dumps(rows)
    return sum(r["x"] for r in rows)


def _dense_kernel():
    """A mid-sized eigenproblem and matrix product, like the large-j calls."""
    import numpy as np
    np.linalg.eigh(_symmetric(160))
    return _symmetric(300) @ _symmetric(300)


# kind of work -> (kernel, its median time on the machine of the record in
# perfbench/README.md in its usual state, so that scaled times read as that
# machine's times).  The machine's state slows kinds of work differently:
# small interpreter-bound work most, dense linear algebra about half as much.
KERNELS = {"interpreter": (_interpreter_kernel, 0.0012), "dense": (_dense_kernel, 0.0036)}


def reference_s(kind):
    """Time one run of the reference kernel of this kind.  It runs once
    untimed first, so that what the previous call left in the caches does
    not count."""
    kernel = KERNELS[kind][0]
    kernel()
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scaled(times, refs, kind):
    """Each time times the kernel's reference time / its median time within REF_WINDOW calls."""
    return [t * KERNELS[kind][1] / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def setup_scale():
    """Reference / median time of a few runs of the interpreter kernel (an
    import is interpreter work), after one to warm up."""
    reference_s("interpreter")
    times = [reference_s("interpreter") for _ in range(2 * REF_WINDOW + 1)]
    return KERNELS["interpreter"][1] / statistics.median(times)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": "%s %s" % (blas["name"], blas["version"]),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "nproc": os.cpu_count()}


def play(args, tracer):
    from workloads import KERNEL_KIND, CliResult, KnownDefect, output_rows, rounds

    stream = rounds(args.workload, args.seed, args.workdir)
    latencies, refs, round_walls, slot_times = [], [], [], []
    attempted = failed = known_defects = 0
    unexpected = []
    rows_out = bytes_out = 0
    digest = hashlib.sha256()
    peak_rss_mb = None
    start = time.perf_counter()
    for r, calls in enumerate(stream):
        if args.rounds and r >= args.rounds:
            break
        times = []
        for call in calls:
            # collect what the previous call and its check left behind, so a
            # call pays only for the garbage it makes itself
            gc.collect()
            refs.append(reference_s(KERNEL_KIND[args.workload]))
            if tracer is not None:
                tracer.call_id += 1
                tracer.active = True
            t = time.perf_counter()
            try:
                result = call.run()
                error = None
            except Exception as exc:   # a raising call is a failed call, not a dead run
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
            problems = [error] if error else call.check(result)
            attempted += 1
            times.append(dt)
            latencies.append(dt)
            faults = [p for p in problems if not isinstance(p, KnownDefect)]
            if faults:
                failed += 1
                unexpected.append("%s: %s" % (call.kind, "; ".join(faults)))
            elif problems:
                known_defects += 1
            digest.update(("%s %s\n" % (call.kind, _digest(result))).encode())
            if isinstance(result, CliResult):
                rows_out += output_rows(result) if result.code == 0 else 0
                bytes_out += len(result.stdout.encode())
        round_walls.append(sum(times))
        slot_times.append(times)
        if r + 1 == MIN_ROUNDS:
            # the caches keep growing with every round a fast machine fits in
            # the run; the first rounds are the same work on every machine
            peak_rss_mb = _peak_rss_mb()
        # stop where another round would more likely end past the budget than before it
        elapsed = time.perf_counter() - start
        if not args.rounds and r + 1 >= MIN_ROUNDS and elapsed + statistics.mean(round_walls) / 2 > args.seconds:
            break
    # time to solution for one round of the problem set: each call slot of
    # the round at its median over the rounds played, so one slow call
    # (another tenant of the machine) does not move the figure
    scaled_iter = iter(scaled(latencies, refs, KERNEL_KIND[args.workload]))
    scaled_slots = [[next(scaled_iter) for _ in times] for times in slot_times]
    return dict(latencies=[t for times in scaled_slots for t in times], raw_latencies=latencies,
                round_walls=[sum(times) for times in scaled_slots],
                wall_s=sum(statistics.median(slot) for slot in zip(*scaled_slots)),
                raw_wall_s=sum(statistics.median(slot) for slot in zip(*slot_times)),
                reference_ms=1e3 * statistics.median(refs), attempted=attempted,
                peak_rss_mb=peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb(),
                failed=failed, unexpected=unexpected, known_defects=known_defects, rows_out=rows_out,
                bytes_out=bytes_out, digest=digest.hexdigest())


def main(argv=None):
    args = parse_args(argv)
    import spinbench
    import spinbench.cli  # noqa: F401
    raw_setup_s = time.perf_counter() - args.t0
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(spinbench.__file__).startswith(src + os.sep):
        print("spinbench imported from %s, not from %s" % (spinbench.__file__, src), file=sys.stderr)
        return 2
    setup_s = raw_setup_s * setup_scale()
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    gc.freeze()   # keep the imported modules out of every later collection
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        out = play(args, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    lat = sorted(out["latencies"])
    raw_lat = sorted(out["raw_latencies"])
    level = tail_level(len(lat), args.tail_level)
    n_rounds = len(out["round_walls"])
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "environment": environment(),
        "rounds": n_rounds,
        "calls": len(lat),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "unexpected": out["unexpected"],
        "known_defects": out["known_defects"],
        "digest": out["digest"],
        "wall_s": out["wall_s"],
        "round_walls": out["round_walls"],
        "call_p50_ms": 1e3 * percentile(lat, 50.0),
        "call_tail_ms": 1e3 * percentile(lat, level),
        "raw": {"wall_s": out["raw_wall_s"], "call_p50_ms": 1e3 * percentile(raw_lat, 50.0),
                "call_tail_ms": 1e3 * percentile(raw_lat, level)},
        "reference_ms": out["reference_ms"],
        "tail_level": level,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(n_rounds, out["rows_out"], out["bytes_out"])
        result["layers"]["cli.known_defects"] = out["known_defects"] / n_rounds
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
