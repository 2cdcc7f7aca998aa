"""Seeded workloads: each is an endless stream of rounds of checked calls.

A round is one instance of the workload's fixed problem set: the same mix of
call kinds and sizes every time, with the concrete arguments drawn from the
seed.  Every call is either ``spinbench.cli.main(argv)`` with stdout captured
or a public library function, and comes with a check of its output.  Checks
return a list of problems; an empty list means the output is correct.  A
problem that is a ``KnownDefect`` is an open defect of the program, reproduced
on purpose: it is counted and reported, but the call does not fail.

The program only sees the generated argv, files and arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List

import spinbench
import spinbench.cli

PI = math.pi
F_17_24 = 17.0 / 24.0
F_29_45 = 29.0 / 45.0
SIM_TOL = 1e-9          # |sim - closed form| the CLI reports on qubit sim rows
ANCHOR_TOL = 1e-12
EXIT_OK, EXIT_DATA = 0, 2   # README, "Exit codes"
REPORT_FIELDS = ["two_j", "two_k", "theta_rad", "method", "step", "value",
                 "uncertainty", "mode_notes"]
CERTIFY_FIELDS = ["label", "two_j", "theta_rad", "measured_avg_fidelity", "std_err"]
SWEEP_ORDER = ("opt_exact", "opt_asymptotic", "mo_exact", "mo_asymptotic",
               "heisenberg_sim", "mo_sim", "worst_case")
BOUNDED = {"opt_exact", "mo_exact", "heisenberg_sim", "mo_sim", "worst_case",
           "recycling", "spin_k_sim"}

# angle literals as a CLI user types them, with the value parse_theta gives
ANGLES = [("pi", PI), ("pi/2", 0.5 * PI), ("3/4*pi", 0.75 * PI), ("pi/3", float(Fraction(1, 3)) * PI),
          ("pi/4", 0.25 * PI), ("2/3*pi", float(Fraction(2, 3)) * PI), ("0.7", 0.7),
          ("1.3", 1.3), ("2.0", 2.0), ("2.6", 2.6), ("2.9", 2.9)]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


class KnownDefect(str):
    """A check finding that reproduces a documented open defect (ROADMAP
    item 4: a non-finite field at the certify boundary).  The worker counts
    it per round; any other finding fails the call."""


def cli_call(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = spinbench.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def output_rows(result) -> int:
    """Data rows in a CLI output, for the bytes/rows counters."""
    if not isinstance(result, CliResult) or not result.stdout:
        return 0
    if result.stdout.startswith("{"):
        doc = json.loads(result.stdout)
        return len(doc.get("rows", [])) + len(doc.get("results", [])) + len(doc.get("row_errors", []))
    return result.stdout.count("\n") - 1


# ---------------------------------------------------------------------------
# output checks


def _close(a, b, tol):
    return abs(a - b) <= tol


def _exit_ok(res: CliResult, expected=EXIT_OK):
    if res.code != expected:
        return ["exit %r, expected %d: %s" % (res.code, expected, res.stderr.strip()[:200])]
    return []


def parse_report(res: CliResult, fmt):
    """Rows of a report output as dicts with typed fields."""
    if fmt == "json":
        doc = json.loads(res.stdout)
        if doc.get("schema") != "spinbench/1":
            raise ValueError("schema %r" % doc.get("schema"))
        return doc["rows"]
    reader = csv.DictReader(io.StringIO(res.stdout))
    if reader.fieldnames != REPORT_FIELDS:
        raise ValueError("CSV header %r" % reader.fieldnames)
    return [{
        "two_j": int(r["two_j"]), "two_k": int(r["two_k"]),
        "theta_rad": float(r["theta_rad"]), "method": r["method"],
        "step": int(r["step"]) if r["step"] else None, "value": float(r["value"]),
        "uncertainty": float(r["uncertainty"]), "mode_notes": r["mode_notes"],
    } for r in reader]


def check_rows(rows) -> List[str]:
    """Checks every report row carries: finite, bounded, small sim residual,
    and the headline values at (2j = 3, theta = pi)."""
    problems = []
    for r in rows:
        v, u, m = r["value"], r["uncertainty"], r["method"]
        if not (math.isfinite(v) and math.isfinite(u) and u >= 0):
            problems.append("non-finite or negative field in %r" % (r,))
            continue
        if m in BOUNDED and "asymptotic" not in r["mode_notes"] and not -1e-12 <= v <= 1 + u + 1e-12:
            problems.append("%s value %r outside [0, 1]" % (m, v))
        if r["two_k"] == 1 and m in ("heisenberg_sim", "mo_sim") and u > SIM_TOL:
            problems.append("%s |sim - closed form| = %g at 2j=%d" % (m, u, r["two_j"]))
        if r["two_j"] == 3 and r["two_k"] == 1 and r["theta_rad"] == PI:
            want = {"opt_exact": F_17_24, "heisenberg_sim": F_17_24,
                    "mo_exact": F_29_45, "mo_sim": F_29_45}.get(m)
            tol = ANCHOR_TOL if m.endswith("exact") else SIM_TOL
            if want is not None and not _close(v, want, tol):
                problems.append("%s at 2j=3, theta=pi is %r, expected %r" % (m, v, want))
    return problems


def _checked_report(fmt, expected_keys, extra=None):
    """Check for a report command: exit 0, parseable, the expected
    (two_j, theta, method) rows in order, per-row checks, then `extra`."""
    def check(res: CliResult):
        problems = _exit_ok(res)
        if problems:
            return problems
        try:
            rows = parse_report(res, fmt)
        except (ValueError, KeyError) as exc:
            return ["unparseable %s output: %s" % (fmt, exc)]
        keys = [(r["two_j"], r["theta_rad"], r["method"]) for r in rows]
        if keys != expected_keys:
            return ["%d rows do not match the %d expected (two_j, theta, method) rows in order"
                    % (len(keys), len(expected_keys))]
        problems = check_rows(rows)
        if extra is not None and not problems:
            problems = extra(rows)
        return problems
    return check


def _worst_below_average(rows) -> List[str]:
    avg = {(r["two_j"], r["theta_rad"]): r["value"] for r in rows if r["method"] == "heisenberg_sim"}
    return ["worst case %r above average %r at 2j=%d" % (r["value"], avg[(r["two_j"], r["theta_rad"])], r["two_j"])
            for r in rows
            if r["method"] == "worst_case" and (r["two_j"], r["theta_rad"]) in avg
            and r["value"] > avg[(r["two_j"], r["theta_rad"])] + 1e-12]


def sweep_call(two_js, angles, methods, fmt, threads=1, same_as=None) -> Call:
    """One `sweep`; with `same_as`, a dict filled by an earlier call on the
    identical argv, the output must also be byte-identical to that one."""
    span = "%d:%d:%d" % (two_js[0], two_js[-1], two_js[1] - two_js[0])
    argv = ["sweep", "--two-j-range", span, "--thetas", ",".join(a for a, _ in angles),
            "--methods", ",".join(methods), "--format", fmt, "--threads", str(threads)]
    order = [m for m in SWEEP_ORDER if m in methods]
    keys = [(tj, th, m) for tj in two_js for _, th in angles for m in order]
    check = _checked_report(fmt, keys, _worst_below_average)

    def check_identical(res):
        problems = check(res)
        if same_as is not None:
            if "stdout" not in same_as:
                same_as["stdout"] = res.stdout
            elif res.stdout != same_as["stdout"]:
                problems.append("sweep output differs between --threads 1 and --threads %d" % threads)
        return problems
    return Call("sweep", lambda: cli_call(argv), check_identical)


def fidelity_call(two_j, angle) -> Call:
    argv = ["fidelity", "--two-j", str(two_j), "--theta", angle[0]]
    methods = ["opt_exact", "opt_asymptotic", "mo_exact", "mo_asymptotic", "heisenberg_sim", "mo_sim"]
    keys = [(two_j, angle[1], m) for m in methods]
    return Call("fidelity", lambda: cli_call(argv), _checked_report("csv", keys))


def spin_k_call(two_j, two_k, angle) -> Call:
    argv = ["spin-k", "--two-j", str(two_j), "--two-k", str(two_k), "--theta", angle[0],
            "--format", "json"]
    methods = ["spin_k_sim", "worst_case", "mo_sim", "opt_asymptotic", "mo_asymptotic", "worst_case"]
    keys = [(two_j, angle[1], m) for m in methods]

    def extra(rows):
        sim, worst = rows[0]["value"], rows[1]["value"]
        if worst > sim + 1e-12:
            return ["spin-k worst case %r above average %r" % (worst, sim)]
        return []
    return Call("spin-k", lambda: cli_call(argv), _checked_report("json", keys, extra))


def longevity_call(two_j, angle, n_max) -> Call:
    argv = ["longevity", "--two-j", str(two_j), "--theta", angle[0], "--n-max", str(n_max)]
    keys = [(two_j, angle[1], "recycling")] * n_max + [(two_j, angle[1], "mo_exact")]

    def extra(rows):
        steps = [r["step"] for r in rows[:-1]]
        if steps != list(range(1, n_max + 1)):
            return ["recycling steps are not 1..%d" % n_max]
        bench = rows[-1]["value"]
        crossings = [r["step"] for r in rows[:-1] if "crossing" in r["mode_notes"]]
        below = [r["step"] for r in rows[:-1] if r["value"] < bench - 1e-12]
        first = below[:1]
        if crossings != first:
            return ["crossing marked at %r, first use below the benchmark is %r" % (crossings, first)]
        if (not crossings) != ("no_crossing_within_n_max" in rows[-1]["mode_notes"]):
            return ["benchmark row note %r disagrees with the crossing" % rows[-1]["mode_notes"]]
        return []
    return Call("longevity", lambda: cli_call(argv), _checked_report("csv", keys, extra))


def certify_call(path, good, bad_lines, nonfinite=None) -> Call:
    """`good` lists (label, two_j, theta, measured, std_err) of valid rows;
    `bad_lines` the 1-based file lines that must come back as row errors;
    `nonfinite` the (label, line) of a row with a non-finite field, or None.

    That row must come back as a row error too.  Today it may not: a
    non-finite angle rejects the whole file, and a non-finite error is
    certified.  Those two outcomes are the known defect; every other check
    still applies to the rest of the file."""
    argv = ["certify", "--input", path]
    expected_code = EXIT_OK if good else EXIT_DATA
    want_lines = sorted(bad_lines + ([nonfinite[1]] if nonfinite else []))

    def check(res: CliResult):
        if nonfinite and res.code != expected_code and not res.stdout:
            return [KnownDefect("file with a non-finite field on line %d rejected whole (exit %r)"
                                % (nonfinite[1], res.code))]
        problems = _exit_ok(res, expected_code)
        if problems:
            return problems
        try:
            doc = json.loads(res.stdout)
        except ValueError as exc:
            return ["unparseable certify output: %s" % exc]
        if doc.get("schema") != "spinbench/1":
            return ["schema %r" % doc.get("schema")]
        lines = sorted(e["line"] for e in doc["row_errors"])
        results = doc["results"]
        if nonfinite and any(r["label"] == nonfinite[0] for r in results):
            problems.append(KnownDefect("row with a non-finite field on line %d certified" % nonfinite[1]))
            lines = sorted(lines + [nonfinite[1]])
            results = [r for r in results if r["label"] != nonfinite[0]]
        if lines != want_lines:
            problems.append("row errors on lines %r, expected %r" % (lines, want_lines))
        if [r["label"] for r in results] != [g[0] for g in good]:
            return problems + ["results %d, expected %d good rows" % (len(results), len(good))]
        for res_row, g in zip(results, good):
            problems += _check_verdict(res_row, g)
        counts = {}
        for res_row in doc["results"]:
            counts[res_row["verdict"]] = counts.get(res_row["verdict"], 0) + 1
        if counts != doc["summary"]:
            problems.append("summary %r does not count the verdicts %r" % (doc["summary"], counts))
        return problems
    return Call("certify", lambda: cli_call(argv), check)


def _check_verdict(row, good) -> List[str]:
    """The verdict follows from the row's own numbers by the documented rule."""
    _, two_j, theta, measured, std_err = good
    bench, bound = row["mo_benchmark"], row["optimal_fidelity"]
    if (row["two_j"], row["theta_rad"], row["measured_avg_fidelity"], row["std_err"]) != (
            two_j, theta, measured, std_err):
        return ["certify echoed %r for input %r" % (row, good)]
    if not (math.isfinite(bench) and math.isfinite(bound) and 0 <= bench <= bound + 1e-12 <= 1 + 2e-12):
        return ["benchmark %r / bound %r out of order" % (bench, bound)]
    if two_j == 3 and theta == PI and not (_close(bench, F_29_45, ANCHOR_TOL) and _close(bound, F_17_24, ANCHOR_TOL)):
        return ["certify at 2j=3, theta=pi: benchmark %r, bound %r" % (bench, bound)]
    if measured > bound + 3 * std_err:
        want = "suspect-above-quantum-bound"
    elif std_err > 0:
        z = (measured - bench) / std_err
        want = "quantum-enhanced" if z >= 3 else "classical-reachable" if z <= -3 else "inconclusive"
    else:
        want = ("quantum-enhanced" if measured > bench else
                "classical-reachable" if measured < bench else "inconclusive")
    if row["verdict"] != want:
        return ["verdict %r, expected %r for %r" % (row["verdict"], want, good)]
    return []


# ---------------------------------------------------------------------------
# certify input files


MALFORMED = [
    lambda lbl: "%s,three,2.0,0.7,0.01" % lbl,          # spin not an integer
    lambda lbl: "%s,5,2.0" % lbl,                          # missing fields
    lambda lbl: "%s,5,2.0,1.25,0.01" % lbl,              # fidelity above 1
    lambda lbl: "%s,5,2.0,0.7,-0.01" % lbl,              # negative std_err
    lambda lbl: "%s,0,2.0,0.7,0.01" % lbl,               # spin 0
    lambda lbl: "%s,7,two,0.7,0.01" % lbl,               # angle not a number
]
NONFINITE = ["nan", "inf", "-inf"]


def write_certify_file(rng, path, n_rows, with_nonfinite):
    """A certify input with valid rows, a few malformed ones and, optionally,
    one row with a non-finite field.  Returns (good rows, bad line numbers,
    (label, line) of the non-finite row or None).  The spins of the rows are
    drawn one from each of n_rows equal strata of 1..400, so every file
    costs about the same."""
    lines = [",".join(CERTIFY_FIELDS)]
    good, bad, nonfinite = [], [], None
    bad_at = set(rng.sample(range(n_rows), rng.randint(0, 3)))
    nonfinite_at = rng.randrange(n_rows) if with_nonfinite else None
    for i in range(n_rows):
        label = "exp%03d" % i
        lineno = len(lines) + 1
        if i == nonfinite_at:
            fields = [label, str(rng.randint(1, 200)), repr(rng.uniform(0.1, PI)),
                      repr(rng.uniform(0.5, 1.0)), repr(rng.uniform(0.001, 0.05))]
            fields[rng.choice([2, 3, 4])] = rng.choice(NONFINITE)
            lines.append(",".join(fields))
            nonfinite = (label, lineno)
        elif i in bad_at:
            lines.append(rng.choice(MALFORMED)(label))
            bad.append(lineno)
        else:
            if rng.random() < 0.1:
                two_j, theta = 3, PI
            else:
                two_j = rng.randint(1 + 400 * i // n_rows, 400 * (i + 1) // n_rows)
                theta = rng.uniform(0.05, PI)
            # near the benchmark/quantum window so every verdict occurs
            base = rng.choice([0.55, 0.7, 0.85, 0.95, 0.99])
            measured = min(1.0, max(0.0, base + rng.gauss(0.0, 0.03)))
            std_err = rng.choice([0.0, rng.uniform(0.001, 0.05)])
            lines.append("%s,%d,%r,%r,%r" % (label, two_j, theta, measured, std_err))
            good.append((label, two_j, theta, measured, std_err))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return good, bad, nonfinite


# ---------------------------------------------------------------------------
# library calls (optimizer workload)


def maximize_call(j, theta) -> Call:
    def check(result):
        fe = result[0]
        if j == 0.5 and theta == PI:
            want = 5.0 / 9.0
        else:
            want = spinbench.optimal_fidelity(j, theta).value
        if abs((2 * fe + 1) / 3 - want) >= 1e-6:   # tier-1 criterion 3 tolerance
            return ["maximize_covariant_fidelity(%r, %r): %r vs closed form %r"
                    % (j, theta, (2 * fe + 1) / 3, want)]
        return []
    return Call("maximize", lambda: spinbench.maximize_covariant_fidelity(j, theta), check)


def locate_call(j) -> Call:
    def check(disp):
        if disp is None:
            return ["locate_transition(%r) found no transition" % j]
        if j == 0.5:
            want, tol = PI - 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(7.0))), 1e-3
        else:
            want, tol = 0.23 * PI, 0.02
        if abs(disp - want) >= tol:   # tier-1 criterion 3 tolerances
            return ["locate_transition(%r) = %r, expected %r +- %g" % (j, disp, want, tol)]
        return []
    return Call("locate", lambda: spinbench.locate_transition(j), check)


def mc_call(two_j, theta, samples, seed) -> Call:
    def run():
        j = spinbench.HalfInteger(two_j)
        gate = spinbench.heisenberg_gate(j, 0.5, spinbench.coupling_angle(j, theta))

        def builder(n):
            return spinbench.ProgramChannel(gate, spinbench.spin_coherent_state(j, n), j,
                                            spinbench.HalfInteger(1))
        return spinbench.average_fidelity_mc(builder, theta, samples, seed)

    def check(result):
        mean, stderr = result
        want = spinbench.optimal_fidelity(two_j / 2, theta).value
        if not (stderr > 0 and abs(mean - want) <= 5 * stderr):
            return ["MC mean %r +- %r, closed form %r at 2j=%d" % (mean, stderr, want, two_j)]
        return []
    return Call("mc", run, check)


def worst_case_call(two_j, theta) -> Call:
    """Worst case of the exchange-coupled channel on a spin-1 target."""
    z = spinbench.Direction(0.0, 0.0, 1.0)

    def run():
        j, k = spinbench.HalfInteger(two_j), spinbench.HalfInteger(2)
        ch = spinbench.ProgramChannel(spinbench.heisenberg_gate(j, k, theta),
                                      spinbench.spin_coherent_state(j, z), j, k)
        v = spinbench.rotation_unitary(spinbench.make_spin_operators(k), z, theta)
        return ch, v, spinbench.worst_case_fidelity(ch, v, grid=16)

    def check(result):
        ch, v, (fw, state) = result
        favg = spinbench.average_fidelity_from_entanglement(spinbench.entanglement_fidelity(ch, v), 3)
        if not (0.0 <= fw <= favg + 1e-12 and abs(complex(state.conj() @ state) - 1.0) < 1e-12):
            return ["worst case %r not in [0, average %r] at 2j=%d" % (fw, favg, two_j)]
        return []
    return Call("worst_case", run, check)


# ---------------------------------------------------------------------------
# the workloads


def _angles(rng, n, anchor=False):
    picks = rng.sample(ANGLES[1:], n - 1 if anchor else n)
    return ([ANGLES[0]] if anchor else []) + picks


# the 2j stride of each sweep slot of a `points` round: a slot's spins span
# the same range in every round, so the slot costs about the same each time
POINTS_STRIDES = (11, 5, 9, 7)


def points(rng, workdir) -> Iterator[List[Call]]:
    """Closed-form and quadrature traffic: 4 wide sweeps (with MO quadrature,
    CSV and JSON alternating) and 8 certify files of 30 rows, one with a
    non-finite field."""
    methods = ["opt_exact", "opt_asymptotic", "mo_exact", "mo_asymptotic", "mo_sim"]
    for r in itertools.count():
        calls = []
        for i, stride in enumerate(POINTS_STRIDES):
            lo = 3 if i == 0 else rng.randint(1, 6)
            two_js = [lo + stride * n for n in range(24)]
            calls.append(sweep_call(two_js, _angles(rng, 3, anchor=i == 0), methods,
                                    "csv" if i % 2 == 0 else "json"))
        nonfinite = rng.randrange(8)
        certify = []
        for i in range(8):
            path = os.path.join(workdir, "certify_%d_%d.csv" % (r, i))
            certify.append(certify_call(path, *write_certify_file(rng, path, 30, i == nonfinite)))
        # each sweep followed by two certify calls, so that a slow stretch
        # of the machine does not fall on one kind of call only
        yield [c for i, sweep in enumerate(calls) for c in [sweep] + certify[2 * i:2 * i + 2]]


def small_j_sweep(rng, workdir) -> Iterator[List[Call]]:
    """Qubit worst-case traffic: one small-j sweep with many angles per j,
    run with --threads 1 and again with --threads 2 on identical argv.  The
    lowest 2j cycles through six bands of 3..38, so every run of more than a
    few rounds plays about the same spins."""
    methods = ["opt_exact", "mo_exact", "heisenberg_sim", "worst_case"]
    for r in itertools.count():
        lo = 3 if r == 0 else 3 + 6 * (r % 6) + rng.randrange(6)
        two_js = [lo, lo + 1]
        angles = _angles(rng, 6, anchor=r == 0 or rng.random() < 0.3)
        same = {}
        yield [sweep_call(two_js, angles, methods, "csv", threads, same) for threads in (1, 2)]


# Narrow, disjoint bands of doubled spins: round r takes the r-th offset from
# the middle of each band outwards (the seed picks which of each mirrored pair
# comes first), so no j repeats in a run, every round costs about the same,
# and the spins a run plays centre on each band whatever their number.  A run
# ends when the bands are used up.
BAND_WIDTH = 12
FIDELITY_BANDS = (24, 74, 124, 174, 224, 289)
SPIN_K_BANDS = (36, 86, 139)
LONGEVITY_EXACT_BANDS = (12, 108)       # 2j <= 120: exact per-use fidelities
LONGEVITY_ASYMPTOTIC_BANDS = (301, 500)  # 2j > 120: large-j per-use fidelities


def large_j(rng, workdir) -> Iterator[List[Call]]:
    """Cold dense-operator traffic: every call at a j not seen before in the
    run.  fidelity over a 2j ladder to 300, spin-k (k = 1) to 2j = 150,
    longevity in exact mode (2j <= 120) and asymptotic mode (2j > 120)."""
    bands = FIDELITY_BANDS + SPIN_K_BANDS + LONGEVITY_EXACT_BANDS + LONGEVITY_ASYMPTOTIC_BANDS
    middle_out = sorted(range(BAND_WIDTH), key=lambda o: abs(o - (BAND_WIDTH - 1) / 2))
    offsets = {lo: [o for pair in zip(middle_out[::2], middle_out[1::2]) for o in rng.sample(pair, 2)]
               for lo in bands}
    for r in range(BAND_WIDTH):
        calls = [fidelity_call(lo + offsets[lo][r], rng.choice(ANGLES)) for lo in FIDELITY_BANDS]
        calls += [spin_k_call(lo + offsets[lo][r], 2, rng.choice(ANGLES)) for lo in SPIN_K_BANDS]
        for lo in LONGEVITY_EXACT_BANDS + LONGEVITY_ASYMPTOTIC_BANDS:
            two_j = lo + offsets[lo][r]
            calls.append(longevity_call(two_j, rng.choice(ANGLES[:6]), two_j // 2 + rng.randint(1, 20)))
        yield calls


def optimizer(rng, workdir) -> Iterator[List[Call]]:
    """Library cross-validation: the covariant optimizer and both program
    transitions, Haar Monte-Carlo and spin-1-target worst cases.  Spins cycle
    with the round, so every run plays the same sizes in the same order."""
    seed_base = rng.getrandbits(32)
    for r in itertools.count():
        heavy = [maximize_call(0.5, PI),
                 maximize_call((1.5, 2.0, 2.5, 3.0)[r % 4], rng.uniform(1.2, PI)),
                 locate_call(0.5), locate_call(1.0)]
        mc = [mc_call(3 + i, rng.uniform(0.5, PI), 200, seed_base + 16 * r + i) for i in range(4)]
        # twelve worst-case calls of one size put the median and p75 of the
        # run's latencies inside one cluster rather than on the edge of two;
        # one angle from each twelfth of [0.5, pi], since the search's cost
        # depends on the angle
        worst = [worst_case_call(4, 0.5 + (PI - 0.5) * (i + rng.random()) / 12) for i in range(12)]
        # spread the short calls between the long ones, so that a slow
        # stretch of the machine does not fall on one kind of call only
        yield [c for i in range(4) for c in [heavy[i], mc[i]] + worst[3 * i:3 * i + 3]]


WORKLOADS = {
    "points": points,
    "small-j-sweep": small_j_sweep,
    "large-j": large_j,
    "optimizer": optimizer,
}
# the reference kernel each workload's times are scaled by (worker.KERNELS):
# the one whose time moves with the machine's state as the workload's calls
# do.  The optimizer's calls are small minimizations, but in runs through
# slow stretches their time moved as little as the dense kernel's did.
KERNEL_KIND = {
    "points": "interpreter",
    "small-j-sweep": "interpreter",
    "large-j": "dense",
    "optimizer": "dense",
}


def rounds(name, seed, workdir) -> Iterator[List[Call]]:
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)), workdir)
