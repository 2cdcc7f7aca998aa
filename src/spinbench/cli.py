"""Command-line interface: single-point reports, sweeps, longevity curves,
spin-k reports, and certification of experimental data.

All spins cross the interface as doubled integers (``--two-j 3`` means
j = 3/2), angles in radians with ``pi`` literals and a sign (``pi``, ``-pi``,
``0.5*pi``, ``pi/3``, ``-3/4*pi``, ``-1e3``).  Output is CSV (default) or JSON
with schema tag "spinbench/1"; identical invocations produce identical bytes.
A sweep runs on one thread: its --threads is checked (>= 1), echoed in the
JSON, and ignored.

A report is a `ReportColumns`, one list per field, from the row builders to
the writers, and `check_reports` checks every row in one pass before a writer
formats a byte.  `fidelity`, `sweep` and `spin-k` rows come from one route
table (see `_report_rows`).  A simulated row's uncertainty is its distance to
the exact form of its quantity where one exists, else to the large-j form,
which its note then names `vs_asymptotic`; every other row's is 0.0.  A row is
a `FidelityReport`, a plain named tuple, as `read_reports_csv` returns it
(checked too); a library caller's numpy scalars are stored as the Python
numbers they equal.  One row writer, `_report_texts`, serves reports (CSV and
JSON, each formed by `_report_document`) and certify (JSON, its results and
row errors transposed to columns once): it formats each field that repeats
(spin, angle, step, method, note, label, verdict, line, message) once per
distinct entry, and any other entry by entry.  One row reader, `_read_csv`,
serves report and certify input: it names each row by the file line it starts
on, skips blank lines, refuses a row with more or fewer fields than the
header, and drops a byte-order mark that starts the file.

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
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import NamedTuple, Optional

from . import closed_forms, protocols, recycling
from .scalars import MAX_DOUBLED_SPIN, HalfInteger, ToleranceError, as_spin

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = "spinbench/1"

SWEEP_POINTS_CAP = 100_000

CSV_FIELDS = ("two_j", "two_k", "theta_rad", "method", "step", "value", "uncertainty", "mode_notes")
CERTIFY_FIELDS = ("label", "two_j", "theta_rad", "measured_avg_fidelity", "std_err")
# the fields of each certify result, in document order
RESULT_FIELDS = CERTIFY_FIELDS + ("mo_benchmark", "optimal_fidelity", "z_score", "verdict")


class FidelityReport(NamedTuple):
    """One report row, as `read_reports_csv` returns it."""
    two_j: int
    two_k: int
    theta_rad: float
    method: str
    value: float
    uncertainty: float = 0.0
    mode_notes: str = ""
    step: Optional[int] = None


class ReportColumns(NamedTuple):
    """A report as one list per field of `FidelityReport`, in its order: row i is entry i of each.
    The row builders return one, and `check_reports` checks it before a writer formats a byte."""
    two_j: list
    two_k: list
    theta_rad: list
    method: list
    value: list
    uncertainty: list
    mode_notes: list
    step: list


def report_columns(report):
    """`report` as ReportColumns: a ReportColumns as it is, rows (FidelityReports) transposed,
    each number stored as the Python int or float it equals (a numpy scalar's repr is not its
    value's, and a numpy float32 computes in single precision)."""
    if isinstance(report, ReportColumns):
        return report
    two_j, two_k, theta, method, value, uncertainty, notes, step = list(zip(*report)) or [()] * 8
    return ReportColumns(
        list(map(operator.index, two_j)), list(map(operator.index, two_k)), list(map(float, theta)), list(method),
        list(map(float, value)), list(map(float, uncertainty)), list(notes),
        [None if x is None else operator.index(x) for x in step])


def check_reports(report):
    """Refuse the first row of `report` (ReportColumns, or a list of FidelityReports) that no
    report may hold: an unknown method or a negative uncertainty (ValueError), a non-finite
    angle, value or uncertainty, or a value outside [0, 1] on a row that is not asymptotic
    (ToleranceError)."""
    _, _, thetas, methods, values, uncertainties, notes, _ = report_columns(report)
    inf = math.inf
    for theta, method, value, uncertainty, note in zip(thetas, methods, values, uncertainties, notes):
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
                or "asymptotic" in note.split(";")):
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
        # a numpy scalar is kept as the Python number it equals (see `report_columns`)
        object.__setattr__(self, "two_j", operator.index(self.two_j))
        for field in ("theta_rad", "measured_avg_fidelity", "std_err"):
            object.__setattr__(self, field, float(getattr(self, field)))


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


class _Route(NamedTuple):
    """A report's row at each (2j, theta) point: method, step, value source and note (a text or a note source)."""
    method: str
    step: Optional[int]
    value: tuple
    note: object


# the routes of a sweep by method, in canonical order; `fidelity` prints all but the worst case
_SWEEP_ROUTES = {route.method: route for route in (
    _Route("opt_exact", None, ("exact", "average"), ("note", "optimal")),
    _Route("opt_asymptotic", None, ("large_j", "average"), ""),
    _Route("mo_exact", None, ("exact", "mo"), ""),
    _Route("mo_asymptotic", None, ("large_j", "mo"), ""),
    _Route("heisenberg_sim", None, ("sim", "average"), ""),
    _Route("mo_sim", None, ("sim", "mo"), ("note", "nodes")),
    _Route("worst_case", None, ("sim", "worst_case"), ("note", "chart")),  # exact for 2k <= 2; a chart's bound above
)}
_SPIN_K_ROUTES = (
    _Route("spin_k_sim", None, ("sim", "average"), ("note", "entanglement")),
    _SWEEP_ROUTES["worst_case"]._replace(step=0),
    *map(_SWEEP_ROUTES.get, ("mo_sim", "opt_asymptotic", "mo_asymptotic")),
    _Route("worst_case", 1, ("large_j", "worst_case"), "asymptotic"),
)
SWEEP_METHODS = tuple(_SWEEP_ROUTES)
METHODS = frozenset(SWEEP_METHODS + tuple(route.method for route in _SPIN_K_ROUTES)) | {"recycling"}
_EXACT_FORMS = {"average": closed_forms._optimal_value, "mo": closed_forms._mo_value}  # a qubit target's


def _report_rows(two_j_values, thetas, two_k, routes):
    """The report of `routes` at every (2j, theta) point, 2j major, for a spin-k target.  A source is
    a (kind, name) column over the grid, `column(kind, name)`, formed once if a route reads it: a
    "note", or an "exact" or "large_j" closed form, point by point, the strategy's and the MO
    "sim"ulation by one stacked evaluation each (the worst case only if a route reads it)."""
    js = [as_spin(HalfInteger(two_j), "program spin") for two_j in two_j_values]
    k = HalfInteger(two_k)
    two_js = [j.doubled for j in js for _ in thetas]
    grid_j = [j.value for j in js for _ in thetas]
    grid_theta = list(thetas) * len(js)

    @functools.cache
    def column(kind, name):
        if (kind, name) == ("sim", "mo"):
            return protocols.simulate_mo_strategies(js, thetas) if two_k == 1 else [
                protocols.simulate_spin_k_mo(j, k, theta) for j in js for theta in thetas]
        if (kind, name) == ("sim", "strategy"):  # a qubit target's at the tuned interaction angle
            fs = [closed_forms.coupling_angle(j, theta) for j in js for theta in thetas] if two_k == 1 else None
            return protocols.simulate_strategies(js, k, thetas, fs, worst_case=("sim", "worst_case") in sources)
        if kind == "sim":
            return getattr(column("sim", "strategy"), name)
        if kind == "exact":
            return list(map(_EXACT_FORMS[name], grid_j, grid_theta))
        if kind == "large_j":
            coeff, denom = closed_forms._large_j_terms(k)[name]
            return list(map(closed_forms._large_j_value, grid_j, repeat(coeff), repeat(denom), grid_theta))
        if name == "optimal":
            return [closed_forms.OPTIMAL_NOTES.get(two_j, "") for two_j in two_js]
        if name == "entanglement":
            return ["entanglement=%s" % format_float(x) for x in column("sim", "entanglement")]
        texts = {"nodes": "gauss_jacobi_nodes=%d" % (two_k + 1), "chart": "chart_upper_bound" if two_k >= 3 else ""}
        return [texts[name]] * points

    width, points, sources = len(routes), len(grid_theta), [route.value for route in routes]
    # a row is a (point, route) pair, so each route's column fills every width-th row
    values, uncertainties, notes = [None] * (width * points), [0.0] * (width * points), [None] * (width * points)
    for i, (_, _, (kind, quantity), note) in enumerate(routes):
        values[i::width] = column(kind, quantity)
        notes[i::width] = [note] * points if type(note) is str else column(*note)
        if kind == "sim":  # against the exact form of the quantity where one exists, else the large-j one
            form = "exact" if two_k == 1 and quantity in _EXACT_FORMS else "large_j"
            uncertainties[i::width] = [abs(x - r) for x, r in zip(column(kind, quantity), column(form, quantity))]
            if form == "large_j":
                notes[i::width] = [n + ";vs_asymptotic" if n else "vs_asymptotic" for n in notes[i::width]]
    return ReportColumns([two_j for two_j in two_js for _ in routes], [two_k] * len(values),
                         [theta for theta in grid_theta for _ in routes], [route.method for route in routes] * points,
                         values, uncertainties, notes, [route.step for route in routes] * points)


def fidelity_rows(two_j, theta):
    return sweep_rows([two_j], [theta], SWEEP_METHODS[:-1])  # all but worst_case


def spin_k_rows(two_j, two_k, theta):
    return _report_rows([two_j], [theta], two_k, _SPIN_K_ROUTES)


def longevity_rows(two_j, theta, n_max):
    j = HalfInteger(two_j)
    curve = recycling.recycling_curve(j, theta, n_max)
    life = recycling.curve_longevity(j, theta, curve)
    steps = [n for n, _ in curve.points]
    notes = [curve.mode] * len(steps)
    if life.steps is not None:
        notes[steps.index(life.steps)] += ";crossing;asymptotic_L=%s" % format_float(life.asymptotic)
    rows = len(steps) + 1
    return ReportColumns(
        [two_j] * rows, [1] * rows, [theta] * rows, ["recycling"] * len(steps) + ["mo_exact"],
        [value for _, value in curve.points] + [closed_forms._mo_value(j.value, theta)], [0.0] * rows,
        notes + ["benchmark" if life.steps is not None else "benchmark;no_crossing_within_n_max"],
        steps + [None])


def sweep_rows(two_j_values, thetas, methods):
    """The report of every (2j, theta) point, 2j major, each point's `methods` in canonical order."""
    return _report_rows(two_j_values, thetas, 1, [_SWEEP_ROUTES[m] for m in SWEEP_METHODS if m in methods])


# ---------------------------------------------------------------------------
# serialization


def _csv_field(text):
    """`text` as csv.writer(..., lineterminator="\\n") writes it as the second field of a row."""
    if "," not in text and '"' not in text and "\n" not in text and "\r" not in text:
        return text  # nothing csv quotes, in any Python version
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


# the rows a writer formats and writes at a time, so that it holds no text of a whole wide report
_CHUNK_ROWS = 4096


class _Layout(NamedTuple):
    """How a format writes the rows of a document: a row is `open`, each field as its key (`key`
    formatted with the field's name) and its text, joined by `separator`, then `end`; rows are
    joined by `between`.  A string is written by `quote` and None as `null`."""
    open: str
    key: str
    separator: str
    end: str
    between: str
    quote: object
    null: str


_CSV = _Layout("", "", ",", "\n", "", _csv_field, "")
_JSON = _Layout("    {\n      ", '"{}": ', ",\n      ", "\n    }", ",\n", json.encoder.encode_basestring_ascii, "null")

# the floats a row measures or derives: never None, seldom repeated, so formatted entry by entry
_MEASURED = frozenset(("value", "uncertainty", "measured_avg_fidelity", "std_err", "mo_benchmark",
                       "optimal_fidelity"))


@functools.cache
def _affixes(fields, layout):
    """Each of `fields` with the texts before and after its own in a row of `layout`, and whether
    it is measured."""
    return tuple((field, (layout.separator if i else layout.open) + layout.key.format(field),
                  "" if i < len(fields) - 1 else layout.end, field in _MEASURED) for i, field in enumerate(fields))


def _nullable(text, null, column):
    """text(x) for each entry x of `column`, but `null` for None."""
    return (null if x is None else text(x) for x in column)


def _report_texts(columns, fields, layout):
    """The rows of a document as text in `layout`, one text per _CHUNK_ROWS rows, formed as they
    are taken: `columns` holds the entries of each of `fields`, row i being entry i of each.  Ints
    are written by str, floats by repr, strings by layout.quote and None as layout.null.  A field
    whose entries repeat (at most half of them distinct) is formatted once per distinct entry,
    with its key, unless it holds a float zero (0.0 == -0.0, but each prints its own sign); any
    other field entry by entry."""
    quote, null = layout.quote, layout.null
    pieces = []  # iterables over the rows: a row's text is the texts they give for it, in turn
    for (field, before, after, measured), column in zip(_affixes(fields, layout), columns):
        text = quote if column and type(column[0]) is str else repr
        distinct = () if measured else set(column)
        if distinct and 2 * len(distinct) <= len(column) and not (
                0 in distinct and any(type(x) is float for x in distinct)):
            texts = {x: before + (null if x is None else text(x)) + after for x in distinct}
            pieces.append(map(texts.__getitem__, column))
            continue
        if before:
            pieces.append(repeat(before))
        pieces.append(_nullable(text, null, column) if None in distinct else map(text, column))
        if after:
            pieces.append(repeat(after))
    rows = map("".join, zip(*pieces))
    return (layout.between.join(islice(rows, _CHUNK_ROWS)) for _ in range(0, len(columns[0]), _CHUNK_ROWS))


_in_csv_order = operator.attrgetter(*CSV_FIELDS)  # a ReportColumns' lists in CSV_FIELDS order


def _report_document(report, fmt, command="", extra=None):
    """The texts of `report` (ReportColumns, or FidelityReports) as a "csv" or "json" document
    (see the writers), formed as they are taken; `report` is checked by this call, before any
    output is opened, so that a refused report writes nothing and a wide one is never held as text."""
    report = report_columns(report)
    check_reports(report)
    texts = _report_texts(_in_csv_order(report), CSV_FIELDS, _CSV if fmt == "csv" else _JSON)
    if fmt == "csv":
        return chain([",".join(CSV_FIELDS) + "\n"], texts)
    return _json_document(_rows_to_json(command, [], extra), {"rows": texts})


def write_reports_csv(report, fh):
    """The bytes csv.writer(fh, lineterminator="\\n") writes for the header and the rows of
    `report` (ReportColumns, or FidelityReports), checked by `check_reports` first: a field csv
    quotes is only ever a mode_notes (the others are numbers and method names), and a note that
    needs quotes is quoted by `csv` itself (see `_csv_field`)."""
    fh.writelines(_report_document(report, "csv"))


def _rows_to_json(command, rows, extra=None):
    doc = {"schema": SCHEMA_VERSION, "command": command}
    if extra:
        doc.update(extra)
    doc["rows"] = [{field: getattr(r, field) for field in CSV_FIELDS} for r in rows]
    return doc


def _json_document(doc, lists):
    """The texts of json.dumps(doc, indent=2) and a newline, once each doc[key], an empty list
    in `doc`, holds the items that lists[key] gives as texts (texts of consecutive items, each
    as json lays out an item of the list and joined by ",\\n"), keys in document order: passed
    on as they come instead of through the pure-Python encoder that `indent` selects."""
    # a string's newline is escaped, so each key's line is the document's own
    tail = json.dumps(doc, indent=2)
    for key, texts in lists.items():
        head, opening, tail = tail.partition('\n  "%s": [' % key)
        yield head + opening
        separator = "\n"
        for text in texts:
            yield separator + text
            separator = ",\n"
        tail = ("\n  " if separator == ",\n" else "") + tail
    yield tail + "\n"


def write_reports_json(report, command, extra, fh):
    """The bytes of json.dumps(_rows_to_json(command, rows, extra), indent=2) and a newline (see
    `_json_document`), for the rows of `report` (ReportColumns, or FidelityReports).  They are
    checked by `check_reports` first, so their floats are finite and their repr is JSON's;
    strings go through json's own ASCII escaper."""
    fh.writelines(_report_document(report, "json", command, extra))


def _write(texts, out_path):
    """Write `texts` to `out_path`, or to stdout when it is not given."""
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _read_csv(fh, fields, header_error, parse):
    """(parse(*row) for each row of the CSV text `fh` after its header, {"line": n, "error": message}
    for each row with more or fewer fields than `fields` or whose parse raises ValueError), n the
    file line the row starts on.  Blank lines are skipped, and a U+FEFF (the byte-order mark of a
    spreadsheet's "CSV UTF-8" export) that starts the first line is dropped before it is parsed.
    A header other than `fields` is refused with ValueError(header_error % header)."""
    lines = iter(fh)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(chain([first] if first else [], lines))  # an empty file has no header
    header = next(reader, None)
    if header != list(fields):
        raise ValueError(header_error % (header,))
    values, errors = [], []
    line = reader.line_num + 1  # the line the next row starts on
    for row in reader:
        if row:  # not a blank line
            try:
                if len(row) != len(fields):
                    raise ValueError("row has %d fields, the header %d" % (len(row), len(fields)))
                values.append(parse(*row))
            except ValueError as exc:
                errors.append({"line": line, "error": str(exc)})
        line = reader.line_num + 1
    return values, errors


def _report_row(two_j, two_k, theta, method, step, value, uncertainty, notes):
    return FidelityReport(int(two_j), int(two_k), float(theta), method, float(value), float(uncertainty), notes,
                          int(step) if step else None)


def read_reports_csv(fh):
    """The rows of a CSV report, checked by `check_reports`; a row with more or fewer fields
    than the header, or a field that does not parse, is refused with ValueError, the first
    such row by its line."""
    rows, errors = _read_csv(fh, CSV_FIELDS, "unexpected CSV header %r", _report_row)
    if errors:
        raise ValueError("line %(line)d: %(error)s" % errors[0])
    check_reports(rows)
    return rows


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


def _json_rows(dicts, fields):
    """The texts of `dicts`, each holding `fields` in that order, as JSON list items: their
    columns, transposed once, written by `_report_texts`."""
    columns = list(zip(*map(operator.itemgetter(*fields), dicts))) or [()] * len(fields)
    return _report_texts(columns, fields, _JSON)


def _certify_json(results, row_errors):
    """The texts of a certify document (see `write_certify_json`)."""
    doc = dict(_certify_doc(results, row_errors), results=[], row_errors=[])
    return _json_document(doc, {"results": _json_rows(results, RESULT_FIELDS),
                                "row_errors": _json_rows(row_errors, ("line", "error"))})


def write_certify_json(results, row_errors, fh):
    """The bytes of json.dumps(_certify_doc(results, row_errors), indent=2) and a
    newline (see `_json_document`), its results and row errors written by `_report_texts` as
    columns.  The floats of a result are finite: the record's are checked by `ExperimentRecord`,
    the closed forms' by their kernels, and a z-score that is not is None."""
    fh.writelines(_certify_json(results, row_errors))


def read_experiment_csv(fh):
    """Parse certify input; returns (records, row_errors), each row error the line a refused row
    starts on and the message refusing it (see `_read_csv`)."""
    return _read_csv(fh, CERTIFY_FIELDS, "certify input must have header %s, got %%r" % ",".join(CERTIFY_FIELDS),
                     lambda label, two_j, theta, fidelity, std_err: ExperimentRecord(
                         label, int(two_j), float(theta), float(fidelity), float(std_err)))


# ---------------------------------------------------------------------------
# commands


def cmd_report(args):
    """Emit the rows of `fidelity`, `sweep`, `longevity` or `spin-k`."""
    extra = {"threads": args.threads} if args.command == "sweep" else None
    _write(_report_document(args.rows(args), args.format, args.command, extra), args.out)
    return EXIT_OK


def cmd_certify(args):
    try:
        with open(args.input, newline="", encoding="utf-8") as fh:
            records, row_errors = read_experiment_csv(fh)
    except OSError as exc:
        print("cannot read %s: %s" % (args.input, exc), file=sys.stderr)
        return EXIT_DATA
    results = [classify_experiment(rec) for rec in records]
    _write(_certify_json(results, row_errors), args.out)
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
