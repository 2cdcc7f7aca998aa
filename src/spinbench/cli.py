"""Command-line interface: single-point reports, sweeps, longevity curves,
spin-k reports, and certification of experimental data.

All spins cross the interface as doubled integers (``--two-j 3`` means
j = 3/2), angles in radians with ``pi`` literals and a sign (``pi``, ``-pi``,
``0.5*pi``, ``pi/3``, ``-3/4*pi``, ``-1e3``).  Output is CSV (default) or JSON
with schema tag "spinbench/1"; identical invocations produce identical bytes.
A sweep runs on one thread: its --threads is checked (>= 1), echoed in the
JSON, and ignored.

A report row is a `FidelityReport`, a plain named tuple; the row builders
evaluate the closed forms through `closed_forms`' plain-float kernels, and
`check_reports` checks every row in one pass before a writer formats a byte
(and every row `read_reports_csv` reads).

Exit codes: 0 success, 1 usage error, 2 data/input error, 3 numerical
tolerance failure.  A sweep grid of more than SWEEP_POINTS_CAP (2j, theta)
points is a usage error, refused before any spin list is built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional

from . import closed_forms, protocols, recycling
from .spin_algebra import MAX_DOUBLED_SPIN, HalfInteger, ToleranceError, as_spin

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = "spinbench/1"

SWEEP_METHODS = (
    "opt_exact",
    "opt_asymptotic",
    "mo_exact",
    "mo_asymptotic",
    "heisenberg_sim",
    "mo_sim",
    "worst_case",
)
METHODS = frozenset(SWEEP_METHODS + ("recycling", "spin_k_sim"))

SWEEP_POINTS_CAP = 100_000

CSV_FIELDS = ("two_j", "two_k", "theta_rad", "method", "step", "value", "uncertainty", "mode_notes")
CERTIFY_FIELDS = ("label", "two_j", "theta_rad", "measured_avg_fidelity", "std_err")
# the fields of each certify result, in document order
RESULT_FIELDS = CERTIFY_FIELDS + ("mo_benchmark", "optimal_fidelity", "z_score", "verdict")


class FidelityReport(NamedTuple):
    """One report row; `check_reports` checks it before it is written."""
    two_j: int
    two_k: int
    theta_rad: float
    method: str
    value: float
    uncertainty: float = 0.0
    mode_notes: str = ""
    step: Optional[int] = None


def check_reports(rows):
    """Refuse the first row of `rows` (a list of FidelityReports) that no report may hold: an unknown
    method or a negative uncertainty (ValueError), a non-finite angle, value or uncertainty,
    or a value outside [0, 1] on a row that is not asymptotic (ToleranceError)."""
    inf = math.inf
    for _, _, theta, method, value, uncertainty, notes, _ in rows:
        if method not in METHODS:
            raise ValueError("unknown method %r" % (method,))
        # the writers print floats with repr, which JSON has no token for
        # when the float is not finite
        if not (-inf < theta < inf and -inf < value < inf and -inf < uncertainty < inf):
            field, x = next((field, x) for field, x in (
                ("theta_rad", theta), ("value", value), ("uncertainty", uncertainty)) if not math.isfinite(x))
            raise ToleranceError("%s %s %r is not finite" % (method, field, x))
        if uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")
        # asymptotic rows (an *_asymptotic method, or the note "asymptotic" in
        # mode_notes) may leave [0, 1] at small j; everything exact or
        # simulated must stay inside
        if not (-1e-12 <= value <= 1.0 + 1e-12 or method.endswith("_asymptotic")
                or "asymptotic" in notes.split(";")):
            raise ToleranceError("%s value %r escapes [0, 1]" % (method, value))


@dataclass(frozen=True)
class ExperimentRecord:
    label: str
    two_j: int
    theta_rad: float
    measured_avg_fidelity: float
    std_err: float

    def __post_init__(self):
        if not 1 <= self.two_j <= MAX_DOUBLED_SPIN:
            raise ValueError("two_j must be in [1, 2**53]")
        if not math.isfinite(self.theta_rad):
            raise ValueError("theta_rad must be finite")
        if not 0.0 <= self.measured_avg_fidelity <= 1.0:
            raise ValueError("measured_avg_fidelity must lie in [0, 1]")
        if not math.isfinite(self.std_err):
            raise ValueError("std_err must be finite")
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")


def format_float(x) -> str:
    """Shortest representation that round-trips (repr never needs > 17 digits)."""
    return repr(float(x))


def parse_theta(text: str) -> float:
    """Radians, with pi literals and a sign: '2.1', 'pi', '-pi', '0.5*pi', 'pi/3', '-3/4*pi'."""
    t = text.strip().lower().replace(" ", "")
    if not t:
        raise argparse.ArgumentTypeError("empty angle")
    try:
        if "pi" not in t:
            value = float(t)
        else:
            left, _, right = t.partition("pi")
            coeff = Fraction(1)
            if left in ("-", "+"):
                left += "1*"
            if left:
                if not left.endswith("*"):
                    raise ValueError(left)
                coeff *= Fraction(left[:-1])
            if right:
                if not right.startswith("/"):
                    raise ValueError(right)
                coeff /= Fraction(right[1:])
            value = float(coeff) * math.pi
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError("cannot parse angle %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("angle must be finite, got %r" % text)
    return value


def parse_two_j(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("spin must be a doubled integer, got %r" % text)
    if not 1 <= v <= MAX_DOUBLED_SPIN:
        raise argparse.ArgumentTypeError("doubled spin must be in [1, 2**53]")
    return v


def parse_two_j_range(text: str):
    """'3:9' or '3:9:2' (doubled, inclusive) or a comma list '3,4,20'."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                lo, hi, stride = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, stride = parts
            else:
                raise ValueError(text)
            if stride < 1 or hi < lo:
                raise ValueError(text)
            count = (hi - lo) // stride + 1  # counted before any list is built
            if count > SWEEP_POINTS_CAP:
                raise argparse.ArgumentTypeError(
                    "spin range %r holds %d spins, more than the cap of %d sweep points"
                    % (text, count, SWEEP_POINTS_CAP))
            values = list(range(lo, hi + 1, stride))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse spin range %r" % text)
    if not values or min(values) < 1 or max(values) > MAX_DOUBLED_SPIN:
        raise argparse.ArgumentTypeError("spin range must contain doubled spins in [1, 2**53]")
    return values


def parse_theta_list(text: str):
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty angle grid")
    return [parse_theta(p) for p in items]


def parse_methods(text: str):
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty method list")
    for name in names:
        if name not in SWEEP_METHODS:
            raise argparse.ArgumentTypeError(
                "unknown method %r (choose from %s)" % (name, ", ".join(SWEEP_METHODS))
            )
    # canonical order, duplicates dropped
    return [m for m in SWEEP_METHODS if m in names]


# ---------------------------------------------------------------------------
# report rows


def fidelity_rows(two_j, theta):
    return sweep_rows([two_j], [theta], SWEEP_METHODS[:-1])  # all but worst_case


def spin_k_rows(two_j, two_k, theta):
    j = HalfInteger(two_j)
    k = HalfInteger(two_k)
    # the tuned interaction angle is only known for the qubit target; beyond
    # that the plain choice f = theta is the one with controlled asymptotics
    if two_k == 1:
        sim = protocols.simulate_optimal_qubit_strategy(j, theta)
    else:
        sim = protocols.simulate_spin_k(j, k, theta)
    mo_val = protocols.simulate_spin_k_mo(j, k, theta)
    asym_avg = closed_forms.spin_k_fidelity_asymptotic(j, k, theta).value
    asym_mo = closed_forms.spin_k_mo_asymptotic(j, k, theta).value
    asym_w = closed_forms.spin_k_worst_case_asymptotic(j, k, theta).value
    return [
        FidelityReport(two_j, two_k, theta, "spin_k_sim", sim.average,
                       abs(sim.average - asym_avg),
                       "entanglement=%s" % format_float(sim.entanglement)),
        FidelityReport(two_j, two_k, theta, "worst_case", sim.worst_case,
                       abs(sim.worst_case - asym_w), "chart_upper_bound" if two_k >= 3 else "",
                       step=0),
        FidelityReport(two_j, two_k, theta, "mo_sim", mo_val, abs(mo_val - asym_mo),
                       "gauss_jacobi_nodes=%d" % (two_k + 1)),
        FidelityReport(two_j, two_k, theta, "opt_asymptotic", asym_avg),
        FidelityReport(two_j, two_k, theta, "mo_asymptotic", asym_mo),
        FidelityReport(two_j, two_k, theta, "worst_case", asym_w, 0.0, "asymptotic", step=1),
    ]


def longevity_rows(two_j, theta, n_max):
    j = HalfInteger(two_j)
    curve = recycling.recycling_curve(j, theta, n_max)
    life = recycling.curve_longevity(j, theta, curve)
    bench = closed_forms._mo_value(j.value, theta)
    rows = []
    for n, value in curve.points:
        notes = curve.mode
        if life.steps == n:
            notes += ";crossing;asymptotic_L=%s" % format_float(life.asymptotic)
        rows.append(FidelityReport(two_j, 1, theta, "recycling", value, 0.0, notes, n))
    bench_notes = "benchmark" if life.steps is not None else "benchmark;no_crossing_within_n_max"
    rows.append(FidelityReport(two_j, 1, theta, "mo_exact", bench, 0.0, bench_notes))
    return rows


def sweep_rows(two_j_values, thetas, methods):
    """Rows of every (2j, theta) point, 2j major, each point's `methods` in canonical order.
    Each method is one column over the grid: a closed form is one kernel call per point, the
    MO simulation one stacked evaluation over the grid, the strategy simulation one per spin."""
    js = [as_spin(HalfInteger(two_j), "program spin") for two_j in two_j_values]
    grid_two_j = [j.doubled for j in js for _ in thetas]
    grid_j = [j.value for j in js for _ in thetas]
    grid_theta = list(thetas) * len(js)
    if "mo_sim" in methods:
        mo = [x for row in protocols.simulate_mo_strategies(js, thetas) for x in row]
    if "heisenberg_sim" in methods or "worst_case" in methods:
        sims = [protocols.simulate_strategies(j, 0.5, thetas, [closed_forms.coupling_angle(j, t) for t in thetas])
                for j in js]
        average = [x for sim in sims for x in sim.average]
        worst_case = [x for sim in sims for x in sim.worst_case]
    fo = list(map(closed_forms._optimal_value, grid_j, grid_theta))
    fm = list(map(closed_forms._mo_value, grid_j, grid_theta))

    def large_j(form):
        coeff, denom = closed_forms.QUBIT_TERMS[form]
        return list(map(closed_forms._large_j_value, grid_j, repeat(coeff), repeat(denom), grid_theta))

    def residuals(simulated, forms):
        return [abs(x - v) for x, v in zip(simulated, forms)]

    zeros = repeat(0.0)
    rows = [None] * (len(grid_theta) * len(methods))
    for column, method in enumerate(methods):
        if method == "opt_exact":
            values, uncertainties = fo, zeros
            notes = [closed_forms.OPTIMAL_NOTES.get(two_j, "") for two_j in grid_two_j]
        elif method == "opt_asymptotic":
            values, uncertainties, notes = large_j("average"), zeros, repeat("")
        elif method == "mo_exact":
            values, uncertainties, notes = fm, zeros, repeat("")
        elif method == "mo_asymptotic":
            values, uncertainties, notes = large_j("mo"), zeros, repeat("")
        elif method == "heisenberg_sim":
            values, uncertainties, notes = average, residuals(average, fo), repeat("")
        elif method == "mo_sim":
            values, uncertainties, notes = mo, residuals(mo, fm), repeat("gauss_jacobi_nodes=2")
        else:  # worst_case
            values, uncertainties = worst_case, residuals(worst_case, large_j("worst_case"))
            notes = repeat("vs_asymptotic")
        rows[column::len(methods)] = map(FidelityReport._make, zip(
            grid_two_j, repeat(1), grid_theta, repeat(method), values, uncertainties, notes, repeat(None)))
    return rows


# ---------------------------------------------------------------------------
# serialization


def _csv_field(text):
    """`text` as csv.writer(..., lineterminator="\\n") writes it as the second field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def write_reports_csv(rows, fh):
    """The bytes csv.writer(fh, lineterminator="\\n") writes for the header and `rows` (a list),
    checked by `check_reports` first, in one template pass: a field csv quotes is only ever a
    mode_notes (the others are numbers and method names), so each distinct one is quoted once."""
    check_reports(rows)
    notes_text = {notes: _csv_field(notes) for notes in {row.mode_notes for row in rows}}
    fh.write(",".join(CSV_FIELDS) + "\n")
    fh.write("".join(["%s,%s,%s,%s,%s,%s,%s,%s\n" % (
        two_j, two_k, format_float(theta), method, "" if step is None else step,
        format_float(value), format_float(uncertainty), notes_text[notes])
        for two_j, two_k, theta, method, value, uncertainty, notes, step in rows]))


def read_reports_csv(fh):
    """The rows of a CSV report, checked by `check_reports`."""
    reader = csv.DictReader(fh)
    if reader.fieldnames != list(CSV_FIELDS):
        raise ValueError("unexpected CSV header %r" % (reader.fieldnames,))
    rows = [FidelityReport(
        two_j=int(rec["two_j"]), two_k=int(rec["two_k"]),
        theta_rad=float(rec["theta_rad"]), method=rec["method"],
        value=float(rec["value"]), uncertainty=float(rec["uncertainty"]),
        mode_notes=rec["mode_notes"],
        step=int(rec["step"]) if rec["step"] != "" else None,
    ) for rec in reader]
    check_reports(rows)
    return rows


def _rows_to_json(command, rows, extra=None):
    doc = {"schema": SCHEMA_VERSION, "command": command}
    if extra:
        doc.update(extra)
    doc["rows"] = [{field: getattr(r, field) for field in CSV_FIELDS} for r in rows]
    return doc


def _json_row(fields):
    """One row of `fields` as json.dumps(..., indent=2) lays it out in a list of the document."""
    return "    {\n%s\n    }" % ",\n".join('      "%s": %%s' % field for field in fields)


_JSON_ROW = _json_row(CSV_FIELDS)
_RESULT_ROW = _json_row(RESULT_FIELDS)


def _write_json(doc, key, cells, template, fh):
    """The bytes of json.dumps(doc, indent=2) and a newline, once doc[key], the empty list in
    `doc`, holds one row per tuple of `cells`: the JSON texts of the row's values, put into
    `template` by one format instead of the pure-Python encoder that `indent` selects."""
    text = json.dumps(doc, indent=2)
    if cells:  # a string's newline is escaped, so the key's line is the document's own
        text = text.replace('\n  "%s": []' % key, '\n  "%s": [\n%s\n  ]' % (
            key, ",\n".join([template % c for c in cells])), 1)
    fh.write(text + "\n")


def write_reports_json(rows, command, extra, fh):
    """The bytes of json.dumps(_rows_to_json(command, rows, extra), indent=2)
    and a newline (see `_write_json`).  The rows (a list) are checked by `check_reports`
    first, so their floats are finite and their repr is JSON's; strings go
    through json's own ASCII escaper."""
    check_reports(rows)
    quote = json.encoder.encode_basestring_ascii
    _write_json(_rows_to_json(command, [], extra), "rows", [(
        two_j, two_k, format_float(theta), quote(method), "null" if step is None else step,
        format_float(value), format_float(uncertainty), quote(notes),
    ) for two_j, two_k, theta, method, value, uncertainty, notes, step in rows], _JSON_ROW, fh)


def _emit(rows, command, fmt, out_path, extra=None):
    buf = io.StringIO()
    if fmt == "json":
        write_reports_json(rows, command, extra, buf)
    else:
        write_reports_csv(rows, buf)
    _write(buf.getvalue(), out_path)


def _write(payload, out_path):
    """Write to `out_path`, or to stdout when it is not given."""
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# certification


def _z_score(record, bench):
    if record.std_err > 0:
        return (record.measured_avg_fidelity - bench) / record.std_err
    diff = record.measured_avg_fidelity - bench
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def classify_experiment(record: ExperimentRecord):
    """Verdict + numbers for one experiment row.

    A measurement more than 3 sigma above the optimal quantum value is flagged
    as suspect before any enhancement claim; otherwise the z-score against the
    measure-and-operate benchmark decides.
    """
    jv = HalfInteger(record.two_j).value
    bench = closed_forms._mo_value(jv, record.theta_rad)
    bound = closed_forms._optimal_value(jv, record.theta_rad)
    z = _z_score(record, bench)
    if record.measured_avg_fidelity > bound + 3 * record.std_err:
        verdict = "suspect-above-quantum-bound"
    elif z >= 3:
        verdict = "quantum-enhanced"
    elif z <= -3:
        verdict = "classical-reachable"
    else:
        verdict = "inconclusive"
    return {
        "label": record.label,
        "two_j": record.two_j,
        "theta_rad": record.theta_rad,
        "measured_avg_fidelity": record.measured_avg_fidelity,
        "std_err": record.std_err,
        "mo_benchmark": bench,
        "optimal_fidelity": bound,
        "z_score": None if not math.isfinite(z) else z,
        "verdict": verdict,
    }


def _certify_doc(results, row_errors):
    """The certify document: each result, each row error, and the count of each verdict."""
    summary = {}
    for res in results:
        summary[res["verdict"]] = summary.get(res["verdict"], 0) + 1
    return {"schema": SCHEMA_VERSION, "command": "certify", "results": results,
            "row_errors": row_errors, "summary": summary}


def write_certify_json(results, row_errors, fh):
    """The bytes of json.dumps(_certify_doc(results, row_errors), indent=2) and a
    newline (see `_write_json`).  The floats of a result are finite: the record's
    are checked by `ExperimentRecord`, the closed forms' by their kernels, and a
    z-score that is not is None."""
    quote = json.encoder.encode_basestring_ascii
    doc = _certify_doc(results, row_errors)
    doc["results"] = []
    _write_json(doc, "results", [(
        quote(r["label"]), r["two_j"], format_float(r["theta_rad"]),
        format_float(r["measured_avg_fidelity"]), format_float(r["std_err"]),
        format_float(r["mo_benchmark"]), format_float(r["optimal_fidelity"]),
        "null" if r["z_score"] is None else format_float(r["z_score"]), quote(r["verdict"]),
    ) for r in results], _RESULT_ROW, fh)


def read_experiment_csv(fh):
    """Parse certify input; returns (records, row_errors)."""
    reader = csv.DictReader(fh)
    if reader.fieldnames != list(CERTIFY_FIELDS):
        raise ValueError(
            "certify input must have header %s, got %r"
            % (",".join(CERTIFY_FIELDS), reader.fieldnames)
        )
    records, errors = [], []
    for lineno, rec in enumerate(reader, start=2):
        try:
            if None in rec:  # DictReader keeps the fields past the header's under None
                raise ValueError("row has %d fields, the header %d"
                                 % (len(CERTIFY_FIELDS) + len(rec[None]), len(CERTIFY_FIELDS)))
            records.append(ExperimentRecord(
                label=rec["label"],
                two_j=int(rec["two_j"]),
                theta_rad=float(rec["theta_rad"]),
                measured_avg_fidelity=float(rec["measured_avg_fidelity"]),
                std_err=float(rec["std_err"]),
            ))
        except (TypeError, ValueError) as exc:
            errors.append({"line": lineno, "error": str(exc)})
    return records, errors


# ---------------------------------------------------------------------------
# commands


def cmd_report(args):
    """Emit the rows of `fidelity`, `sweep`, `longevity` or `spin-k`."""
    extra = {"threads": args.threads} if args.command == "sweep" else None
    _emit(args.rows(args), args.command, args.format, args.out, extra)
    return EXIT_OK


def cmd_certify(args):
    try:
        with open(args.input, newline="", encoding="utf-8") as fh:
            records, row_errors = read_experiment_csv(fh)
    except OSError as exc:
        print("cannot read %s: %s" % (args.input, exc), file=sys.stderr)
        return EXIT_DATA
    results = [classify_experiment(rec) for rec in records]
    buf = io.StringIO()
    write_certify_json(results, row_errors, buf)
    _write(buf.getvalue(), args.out)
    if not results:
        print("no usable rows in %s" % args.input, file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the interface reserves 2 for data
    # errors, so route usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _add_common(sp, rows):
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    # `rows` names its builder in its body, so the builder is looked up in this
    # module at call time (a patched `sweep_rows` is reached by a cached parser)
    sp.set_defaults(func=cmd_report, rows=rows)


@functools.cache
def build_parser():
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(prog="spinbench",
                     description="Fidelity benchmarks for quantum-programmed rotation gates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", parents=[], help="closed forms + simulations at one point")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--theta", type=parse_theta, required=True)
    _add_common(p, lambda a: fidelity_rows(a.two_j, a.theta))

    p = sub.add_parser("sweep", help="grid of (j, theta) points")
    p.add_argument("--two-j-range", type=parse_two_j_range, required=True, dest="two_j_range")
    p.add_argument("--thetas", type=parse_theta_list, required=True)
    p.add_argument("--methods", type=parse_methods, default=["opt_exact", "mo_exact"])
    p.add_argument("--threads", type=int, default=1, help="ignored: a sweep runs on one thread")
    _add_common(p, lambda a: sweep_rows(a.two_j_range, a.thetas, a.methods))

    p = sub.add_parser("longevity", help="fidelity of each reuse of one program")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--theta", type=parse_theta, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_common(p, lambda a: longevity_rows(a.two_j, a.theta, a.n_max))

    p = sub.add_parser("spin-k", help="spin-k target: simulations + asymptotics")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--two-k", type=parse_two_j, required=True, dest="two_k")
    p.add_argument("--theta", type=parse_theta, required=True)
    _add_common(p, lambda a: spin_k_rows(a.two_j, a.two_k, a.theta))

    p = sub.add_parser("certify", help="judge experimental data against the benchmark")
    p.add_argument("--input", required=True, help="CSV with header %s" % ",".join(CERTIFY_FIELDS))
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.set_defaults(func=cmd_certify)
    return parser


def _join_angles(argv):
    """argv with each token after --theta or --thetas (or a prefix down to --th) that starts
    with a single '-' joined to its option ('--theta=-pi'): argparse reads it as an option."""
    joined = []
    for token in argv:
        if (joined and len(joined[-1]) >= 4 and "--thetas".startswith(joined[-1])
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_angles(sys.argv[1:] if argv is None else argv))
    if getattr(args, "n_max", 1) < 1:
        parser.error("--n-max must be >= 1")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
    if args.command == "sweep":
        points = len(args.two_j_range) * len(args.thetas)
        if points > SWEEP_POINTS_CAP:
            parser.error("sweep grid of %d (2j, theta) points exceeds the cap of %d"
                         % (points, SWEEP_POINTS_CAP))
    try:
        return args.func(args)
    except ToleranceError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
