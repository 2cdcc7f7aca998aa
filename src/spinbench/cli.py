"""Command-line interface: single-point reports, sweeps, longevity curves,
spin-k reports, and certification of experimental data.

All spins cross the interface as doubled integers (``--two-j 3`` means
j = 3/2), angles in radians with ``pi`` literals (``pi``, ``0.5*pi``,
``pi/3``, ``3/4*pi``).  Output is CSV (default) or JSON with schema tag
"spinbench/1"; identical invocations produce identical bytes, independent of
--threads.

Exit codes: 0 success, 1 usage error, 2 data/input error, 3 numerical
tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import closed_forms, protocols, recycling
from .spin_algebra import HalfInteger, ToleranceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = "spinbench/1"

METHODS = (
    "opt_exact",
    "opt_asymptotic",
    "mo_exact",
    "mo_asymptotic",
    "heisenberg_sim",
    "mo_sim",
    "worst_case",
    "recycling",
    "spin_k_sim",
)
_BOUNDED_METHODS = frozenset(
    ["opt_exact", "mo_exact", "heisenberg_sim", "mo_sim", "worst_case", "recycling", "spin_k_sim"]
)
SWEEP_METHODS = (
    "opt_exact",
    "opt_asymptotic",
    "mo_exact",
    "mo_asymptotic",
    "heisenberg_sim",
    "mo_sim",
    "worst_case",
)

CSV_FIELDS = ("two_j", "two_k", "theta_rad", "method", "step", "value", "uncertainty", "mode_notes")
CERTIFY_FIELDS = ("label", "two_j", "theta_rad", "measured_avg_fidelity", "std_err")


@dataclass(frozen=True)
class FidelityReport:
    two_j: int
    two_k: int
    theta_rad: float
    method: str
    value: float
    uncertainty: float = 0.0
    mode_notes: str = ""
    step: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")
        # asymptotic companion rows (tagged in mode_notes) may leave [0, 1]
        # at small j; everything exact or simulated must stay inside
        if self.method in _BOUNDED_METHODS and "asymptotic" not in self.mode_notes:
            if not (-1e-12 <= self.value <= 1.0 + self.uncertainty + 1e-12):
                raise ToleranceError(
                    "%s value %r escapes [0, 1 + uncertainty]" % (self.method, self.value)
                )


@dataclass(frozen=True)
class ExperimentRecord:
    label: str
    two_j: int
    theta_rad: float
    measured_avg_fidelity: float
    std_err: float

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError("two_j must be >= 1")
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
    """Radians, with pi literals: '2.1', 'pi', '0.5*pi', 'pi/3', '3/4*pi'."""
    t = text.strip().lower().replace(" ", "")
    if not t:
        raise argparse.ArgumentTypeError("empty angle")
    try:
        if "pi" not in t:
            value = float(t)
        else:
            left, _, right = t.partition("pi")
            coeff = Fraction(1)
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
    if v < 1:
        raise argparse.ArgumentTypeError("doubled spin must be >= 1")
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
            values = list(range(lo, hi + 1, stride))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse spin range %r" % text)
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("spin range must contain doubled spins >= 1")
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


def _mo_order(jv, kv=0.5):
    # Gauss-Legendre is exact once the order clears the polynomial degree
    return max(64, int(math.ceil(jv + 2 * kv)) + 4)


def _point_rows(two_j, theta, methods):
    """Rows for one (j, theta) point, restricted to `methods`, canonical order."""
    j = HalfInteger(two_j)
    jv = j.value
    need_sim = "heisenberg_sim" in methods or "worst_case" in methods
    sim = protocols.simulate_optimal_qubit_strategy(j, theta) if need_sim else None
    fo = closed_forms.optimal_fidelity(jv, theta)
    fm = closed_forms.mo_benchmark(jv, theta)
    rows = []
    for method in methods:
        if method == "opt_exact":
            rows.append(FidelityReport(two_j, 1, theta, method, fo.value, mode_notes=fo.note))
        elif method == "opt_asymptotic":
            rows.append(FidelityReport(
                two_j, 1, theta, method, closed_forms.optimal_fidelity_asymptotic(jv, theta).value))
        elif method == "mo_exact":
            rows.append(FidelityReport(two_j, 1, theta, method, fm.value, mode_notes=fm.note))
        elif method == "mo_asymptotic":
            rows.append(FidelityReport(
                two_j, 1, theta, method, closed_forms.mo_benchmark_asymptotic(jv, theta).value))
        elif method == "heisenberg_sim":
            rows.append(FidelityReport(
                two_j, 1, theta, method, sim.average, abs(sim.average - fo.value)))
        elif method == "mo_sim":
            order = _mo_order(jv)
            value = protocols.simulate_mo_strategy(jv, theta, order)
            rows.append(FidelityReport(
                two_j, 1, theta, method, value, abs(value - fm.value),
                "quadrature_order=%d" % order))
        elif method == "worst_case":
            asym = closed_forms.worst_case_asymptotic(jv, theta).value
            rows.append(FidelityReport(
                two_j, 1, theta, method, sim.worst_case,
                abs(sim.worst_case - asym), "vs_asymptotic"))
    return rows


def fidelity_rows(two_j, theta):
    return _point_rows(
        two_j, theta,
        ["opt_exact", "opt_asymptotic", "mo_exact", "mo_asymptotic", "heisenberg_sim", "mo_sim"])


def spin_k_rows(two_j, two_k, theta):
    j = HalfInteger(two_j)
    k = HalfInteger(two_k)
    jv, kv = j.value, k.value
    # the tuned interaction angle is only known for the qubit target; beyond
    # that the plain choice f = theta is the one with controlled asymptotics
    f = closed_forms.coupling_angle(jv, theta) if two_k == 1 else theta
    sim = protocols.simulate_spin_k(j, k, theta, f=f, grid=16)
    order = _mo_order(jv, kv)
    mo_val = protocols.simulate_spin_k_mo(j, k, theta, order)
    asym_avg = closed_forms.spin_k_fidelity_asymptotic(jv, kv, theta).value
    asym_mo = closed_forms.spin_k_mo_asymptotic(jv, kv, theta).value
    asym_w = closed_forms.spin_k_worst_case_asymptotic(jv, kv, theta).value
    return [
        FidelityReport(two_j, two_k, theta, "spin_k_sim", sim.average,
                       abs(sim.average - asym_avg),
                       "entanglement=%s" % format_float(sim.entanglement)),
        FidelityReport(two_j, two_k, theta, "worst_case", sim.worst_case,
                       abs(sim.worst_case - asym_w), "", step=0),
        FidelityReport(two_j, two_k, theta, "mo_sim", mo_val, abs(mo_val - asym_mo),
                       "quadrature_order=%d" % order),
        FidelityReport(two_j, two_k, theta, "opt_asymptotic", asym_avg),
        FidelityReport(two_j, two_k, theta, "mo_asymptotic", asym_mo),
        FidelityReport(two_j, two_k, theta, "worst_case", asym_w, 0.0, "asymptotic", step=1),
    ]


def longevity_rows(two_j, theta, n_max):
    j = HalfInteger(two_j)
    curve = recycling.recycling_curve(j, theta, n_max)
    life = recycling.curve_longevity(j, theta, curve)
    bench = closed_forms.mo_benchmark(j.value, theta).value
    rows = []
    for n, value in curve.points:
        notes = curve.mode
        if life.steps == n:
            notes += ";crossing;asymptotic_L=%s" % format_float(life.asymptotic)
        rows.append(FidelityReport(two_j, 1, theta, "recycling", value, 0.0, notes, step=n))
    bench_notes = "benchmark" if life.steps is not None else "benchmark;no_crossing_within_n_max"
    rows.append(FidelityReport(two_j, 1, theta, "mo_exact", bench, 0.0, bench_notes))
    return rows


def sweep_rows(two_j_values, thetas, methods, threads):
    points = [(tj, th) for tj in two_j_values for th in thetas]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_point_rows, tj, th, methods) for tj, th in points]
            chunks = [f.result() for f in futures]
    else:
        chunks = [_point_rows(tj, th, methods) for tj, th in points]
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# serialization


def write_reports_csv(rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow([
            r.two_j, r.two_k, format_float(r.theta_rad), r.method,
            "" if r.step is None else r.step,
            format_float(r.value), format_float(r.uncertainty), r.mode_notes,
        ])


def read_reports_csv(fh):
    reader = csv.DictReader(fh)
    if reader.fieldnames != list(CSV_FIELDS):
        raise ValueError("unexpected CSV header %r" % (reader.fieldnames,))
    rows = []
    for rec in reader:
        rows.append(FidelityReport(
            two_j=int(rec["two_j"]), two_k=int(rec["two_k"]),
            theta_rad=float(rec["theta_rad"]), method=rec["method"],
            value=float(rec["value"]), uncertainty=float(rec["uncertainty"]),
            mode_notes=rec["mode_notes"],
            step=int(rec["step"]) if rec["step"] != "" else None,
        ))
    return rows


def _rows_to_json(command, rows, extra=None):
    doc = {"schema": SCHEMA_VERSION, "command": command}
    if extra:
        doc.update(extra)
    doc["rows"] = [
        {
            "two_j": r.two_j, "two_k": r.two_k, "theta_rad": r.theta_rad,
            "method": r.method, "step": r.step, "value": r.value,
            "uncertainty": r.uncertainty, "mode_notes": r.mode_notes,
        }
        for r in rows
    ]
    return doc


def _emit(rows, command, fmt, out_path, extra=None):
    if fmt == "json":
        payload = json.dumps(_rows_to_json(command, rows, extra), indent=2) + "\n"
    else:
        buf = io.StringIO()
        write_reports_csv(rows, buf)
        payload = buf.getvalue()
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
    j = HalfInteger(record.two_j)
    bench = closed_forms.mo_benchmark(j.value, record.theta_rad).value
    bound = closed_forms.optimal_fidelity(j.value, record.theta_rad).value
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


def cmd_fidelity(args):
    rows = fidelity_rows(args.two_j, args.theta)
    _emit(rows, "fidelity", args.format, args.out)
    return EXIT_OK


def cmd_sweep(args):
    rows = sweep_rows(args.two_j_range, args.thetas, args.methods, args.threads)
    _emit(rows, "sweep", args.format, args.out,
          extra={"threads": args.threads})
    return EXIT_OK


def cmd_longevity(args):
    rows = longevity_rows(args.two_j, args.theta, args.n_max)
    _emit(rows, "longevity", args.format, args.out)
    return EXIT_OK


def cmd_spin_k(args):
    rows = spin_k_rows(args.two_j, args.two_k, args.theta)
    _emit(rows, "spin-k", args.format, args.out)
    return EXIT_OK


def cmd_certify(args):
    try:
        with open(args.input, newline="") as fh:
            records, row_errors = read_experiment_csv(fh)
    except OSError as exc:
        print("cannot read %s: %s" % (args.input, exc), file=sys.stderr)
        return EXIT_DATA
    results = [classify_experiment(rec) for rec in records]
    summary = {}
    for res in results:
        summary[res["verdict"]] = summary.get(res["verdict"], 0) + 1
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "certify",
        "results": results,
        "row_errors": row_errors,
        "summary": summary,
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
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


def _add_common(sp):
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--threads", type=int, default=1)


def build_parser():
    parser = _Parser(prog="spinbench",
                     description="Fidelity benchmarks for quantum-programmed rotation gates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", parents=[], help="closed forms + simulations at one point")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--theta", type=parse_theta, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("sweep", help="grid of (j, theta) points")
    p.add_argument("--two-j-range", type=parse_two_j_range, required=True, dest="two_j_range")
    p.add_argument("--thetas", type=parse_theta_list, required=True)
    p.add_argument("--methods", type=parse_methods, default=["opt_exact", "mo_exact"])
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("longevity", help="fidelity of each reuse of one program")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--theta", type=parse_theta, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_common(p)
    p.set_defaults(func=cmd_longevity)

    p = sub.add_parser("spin-k", help="spin-k target: simulations + asymptotics")
    p.add_argument("--two-j", type=parse_two_j, required=True, dest="two_j")
    p.add_argument("--two-k", type=parse_two_j, required=True, dest="two_k")
    p.add_argument("--theta", type=parse_theta, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spin_k)

    p = sub.add_parser("certify", help="judge experimental data against the benchmark")
    p.add_argument("--input", required=True, help="CSV with header %s" % ",".join(CERTIFY_FIELDS))
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n_max", 1) < 1:
        parser.error("--n-max must be >= 1")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
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
