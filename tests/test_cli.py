import codecs
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from make_cli_corpus import report_rows, run_cli

from spinbench import channel_lab, cli, optimal_fidelity, protocols, recycling, spin_algebra
from spinbench.cli import (
    CERTIFY_FIELDS,
    CSV_FIELDS,
    ExperimentRecord,
    FidelityReport,
    ToleranceError,
    classify_experiment,
    format_float,
    main,
    parse_methods,
    parse_theta,
    parse_theta_list,
    parse_two_j,
    parse_two_j_range,
    read_reports_csv,
    write_reports_csv,
    write_reports_json,
)

PI = math.pi
_TOO_BIG = "9" * 401  # a doubled spin beyond 2**53, and beyond a float's range


# ---------------------------------------------------------------------------
# parsing


def test_parse_theta():
    assert parse_theta("pi") == PI
    assert parse_theta("0.5*pi") == 0.5 * PI
    assert parse_theta("pi/3") == PI / 3
    assert parse_theta("3/4*pi") == 0.75 * PI
    assert parse_theta("2.1") == 2.1
    assert parse_theta(" Pi ") == PI
    assert parse_theta("-pi") == parse_theta("-1*pi") == -PI
    assert parse_theta("+pi") == PI
    assert parse_theta("-pi/3") == -PI / 3


@pytest.mark.parametrize("bad", ["", "two*pi", "pi*2", "1/0*pi", "pipi", "3..1",
                                 "nan", "inf", "-inf", "1e400", "1e400*pi", "--pi", "-", "-*pi"])
def test_parse_theta_rejects(bad):
    with pytest.raises(Exception):
        parse_theta(bad)


def test_parse_two_j():
    assert parse_two_j("3") == 3
    for bad in ("0", "-2", "1.5", "j"):
        with pytest.raises(Exception):
            parse_two_j(bad)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--two-j", _TOO_BIG, "--theta", "pi"],
    ["sweep", "--two-j-range", "3," + _TOO_BIG, "--thetas", "pi"],
    ["longevity", "--two-j", _TOO_BIG, "--theta", "pi", "--n-max", "2"],
    ["spin-k", "--two-j", _TOO_BIG, "--two-k", "1", "--theta", "pi"],
    ["fidelity", "--two-j", str(2**53 + 1), "--theta", "pi"],
])
def test_oversized_spin_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "[1, 2**53]" in capsys.readouterr().err


def test_parse_two_j_range():
    assert parse_two_j_range("3:6") == [3, 4, 5, 6]
    assert parse_two_j_range("3:9:2") == [3, 5, 7, 9]
    assert parse_two_j_range("4,2,8") == [4, 2, 8]
    for bad in ("9:3", "0:5", "a:b", "", "3:9:0", "3:9:2:1"):
        with pytest.raises(Exception):
            parse_two_j_range(bad)


def test_parse_methods_canonicalizes():
    assert parse_methods("mo_exact,opt_exact,opt_exact") == ["opt_exact", "mo_exact"]
    with pytest.raises(Exception):
        parse_methods("recycling")  # not a sweep method
    with pytest.raises(Exception):
        parse_methods("")


def test_parse_theta_list():
    assert parse_theta_list("pi/2,pi") == [PI / 2, PI]
    with pytest.raises(Exception):
        parse_theta_list("")


def test_format_float_round_trips():
    for x in (1 / 3, 0.1, 2**-30, 17 / 24, PI):
        assert float(format_float(x)) == x
    assert len(format_float(1 / 3).replace("-", "").replace(".", "")) <= 17


# ---------------------------------------------------------------------------
# report records


def test_report_validation():
    # a row is a plain named tuple; check_reports refuses what no report may hold
    def check(*args, **kwargs):
        cli.check_reports([FidelityReport(3, 1, PI, "opt_exact", 0.5), FidelityReport(*args, **kwargs)])

    with pytest.raises(ValueError):
        check(3, 1, PI, "nonsense", 0.5)
    with pytest.raises(ValueError):
        check(3, 1, PI, "opt_exact", 0.5, uncertainty=-0.1)
    with pytest.raises(ToleranceError):
        check(3, 1, PI, "opt_exact", 1.7)
    # an uncertainty does not widen [0, 1], and only the note "asymptotic"
    # (not a note that contains the word) lets a row leave it
    with pytest.raises(ToleranceError, match=r"escapes \[0, 1\]"):
        check(1, 4, 1.0, "spin_k_sim", 1.7, 1.0)
    with pytest.raises(ToleranceError):
        check(3, 1, PI, "worst_case", 1.7, 1.0, "vs_asymptotic")
    with pytest.raises(ToleranceError):
        check(3, 1, PI, "recycling", -0.5, 0.0, "exact;crossing;asymptotic_L=2.0", step=1)
    # asymptotic companions may leave [0, 1] when tagged
    check(1, 1, PI, "worst_case", -3.0, mode_notes="asymptotic", step=1)
    check(3, 1, PI, "opt_asymptotic", 1.7)
    # but no row holds a non-finite number, which JSON could not print
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ToleranceError, match="not finite"):
            check(3, 1, PI, "mo_asymptotic", bad)
        with pytest.raises(ToleranceError, match="not finite"):
            check(1, 1, PI, "worst_case", bad, mode_notes="asymptotic", step=1)
        with pytest.raises(ToleranceError, match="not finite"):
            check(3, 1, PI, "opt_exact", 0.5, uncertainty=bad)
        with pytest.raises(ToleranceError, match="not finite"):
            check(3, 1, bad, "opt_exact", 0.5)
    header = ",".join(CSV_FIELDS) + "\n"
    with pytest.raises(ToleranceError, match="not finite"):
        read_reports_csv(io.StringIO(header + "3,1,1.0,mo_asymptotic,,nan,inf,\n"))


def test_experiment_record_validation():
    ExperimentRecord("ok", 3, PI, 0.7, 0.01)
    with pytest.raises(ValueError):
        ExperimentRecord("bad", 0, PI, 0.7, 0.01)
    with pytest.raises(ValueError):
        ExperimentRecord("bad", 3, PI, 1.2, 0.01)
    with pytest.raises(ValueError):
        ExperimentRecord("bad", 3, PI, 0.7, -0.01)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ExperimentRecord("bad", 3, bad, 0.7, 0.01)
        with pytest.raises(ValueError):
            ExperimentRecord("bad", 3, PI, 0.7, bad)


def _roundtrip(rows):
    buf = io.StringIO()
    write_reports_csv(rows, buf)
    return read_reports_csv(io.StringIO(buf.getvalue()))


def test_csv_round_trip_simple():
    rows = [
        FidelityReport(3, 1, PI, "opt_exact", 17 / 24, mode_notes="a;b, c"),
        FidelityReport(200, 2, 0.5, "recycling", 0.93, 0.0, "exact", step=7),
    ]
    assert _roundtrip(rows) == rows


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_reports_csv(io.StringIO("a,b,c\n1,2,3\n"))


@pytest.mark.parametrize("row, fields", [("3,1,1.0,opt_exact,,0.5,0.0,,extra", 9),
                                         ("3,1,1.0,opt_exact,,0.5,0.0", 7),
                                         ("3,1,1.0,opt_exact,,0.5", 6)])
def test_csv_rejects_a_row_of_another_length(row, fields):
    # a field past the header's is not dropped, and a missing one is not read as an empty note
    text = ",".join(CSV_FIELDS) + "\n3,1,1.0,opt_exact,,0.5,0.0,\n" + row + "\n"
    with pytest.raises(ValueError, match="^line 3: row has %d fields, the header 8$" % fields):
        read_reports_csv(io.StringIO(text))


@pytest.mark.parametrize("row, fields", [("run,3,1.0,0.7,0.01,9", 6), ("run,3,1.0,0.7", 4), ("run", 1)])
def test_certify_refuses_a_row_of_another_length(row, fields):
    # the report reader's rule and message, as a row error
    text = ",".join(CERTIFY_FIELDS) + "\nok,3,1.0,0.7,0.01\n" + row + "\n"
    records, errors = cli.read_experiment_csv(io.StringIO(text))
    assert [r.label for r in records] == ["ok"]
    assert errors == [{"line": 3, "error": "row has %d fields, the header 5" % fields}]


def test_readers_name_the_line_a_row_starts_on():
    # a blank line is no row, and a quoted field may span lines: a row is named by its first line
    text = ",".join(CERTIFY_FIELDS) + '\nok,3,1.0,0.7,0.01\n\nspin,0,1.0,0.7,0.01\n"two\nlines",0,1.0,0.7,0.01\nshort,3\n'
    records, errors = cli.read_experiment_csv(io.StringIO(text))
    assert [r.label for r in records] == ["ok"]
    assert errors == [{"line": 4, "error": "two_j must be in [1, 2**53]"},
                      {"line": 5, "error": "two_j must be in [1, 2**53]"},
                      {"line": 7, "error": "row has 2 fields, the header 5"}]
    header, row = ",".join(CSV_FIELDS) + "\n", "3,1,1.0,opt_exact,,0.5,0.0,"
    for text, message in ((header + row + "\n\n" + row + ',"a\nb"\n' + row + "\n", "line 4: row has 9 fields"),
                          (header + "\n" + row + '"a\nb"\n' + row[:-1] + "\n", "line 5: row has 7 fields")):
        with pytest.raises(ValueError, match="^%s, the header 8$" % message):
            read_reports_csv(io.StringIO(text))


def test_a_report_with_a_byte_order_mark_reads_back():
    rows = [FidelityReport(3, 1, PI, "opt_exact", 17 / 24), FidelityReport(3, 1, PI, "mo_exact", 29 / 45)]
    buf = io.StringIO()
    write_reports_csv(rows, buf)
    assert read_reports_csv(io.StringIO("\ufeff" + buf.getvalue())) == rows


def test_numpy_scalars_print_as_the_python_numbers_they_equal():
    # a library caller's numpy scalars are stored as the Python numbers they equal, so that
    # every document prints those numbers' bytes and certify computes in double precision
    def texts(rows, record):
        csv_text, json_text, certify_text = io.StringIO(), io.StringIO(), io.StringIO()
        write_reports_csv(rows, csv_text)
        write_reports_json(rows, "fidelity", None, json_text)
        cli.write_certify_json([classify_experiment(record)], [], certify_text)
        return csv_text.getvalue(), json_text.getvalue(), certify_text.getvalue()

    for kind in (np.float64, np.float32):
        x = [float(kind(v)) for v in (2.0, 0.3, 0.01, 0.7)]
        rows = [FidelityReport(np.int64(3), np.int64(1), kind(2.0), "opt_exact", kind(0.3), kind(0.01), step=np.int64(7))]
        record = ExperimentRecord("a", np.int64(3), kind(2.0), kind(0.7), kind(0.01))
        assert [type(v) for v in (record.two_j, record.theta_rad, record.measured_avg_fidelity, record.std_err)] \
            == [int, float, float, float]
        assert texts(rows, record) == texts([FidelityReport(3, 1, x[0], "opt_exact", x[1], x[2], step=7)],
                                            ExperimentRecord("a", 3, x[0], x[3], x[2]))


def test_the_first_bad_row_is_refused():
    # a report with two bad rows is refused by the earlier one's message, whichever it is
    good = FidelityReport(3, 1, PI, "opt_exact", 0.5)
    negative = FidelityReport(3, 1, PI, "opt_exact", 0.5, uncertainty=-0.1)
    nonfinite = FidelityReport(3, 1, PI, "mo_exact", math.nan)
    for check in (cli.check_reports, lambda rows: write_reports_csv(cli.report_columns(rows), io.StringIO())):
        with pytest.raises(ValueError, match="^uncertainty must be >= 0$"):
            check([good, negative, nonfinite])
        with pytest.raises(ToleranceError, match="^mo_exact value nan is not finite$"):
            check([good, nonfinite, negative])


_notes = st.text(alphabet=list("abcxyz;=_ ,0123456789."), max_size=12)
# angles from a small pool as well, so that a report repeats them, with both signed zeros
# (equal as dict keys, but printed apart); zero uncertainties of both signs, and step 0
_angles = st.one_of(st.sampled_from([0.0, -0.0, 0.5, PI]), st.floats(0, 2 * PI, allow_nan=False))
_uncertainties = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1, allow_nan=False))
_steps = st.one_of(st.none(), st.just(0), st.integers(0, 10**6))
_bounded = st.builds(
    FidelityReport,
    two_j=st.integers(1, 400), two_k=st.integers(1, 6),
    theta_rad=_angles,
    method=st.sampled_from(["opt_exact", "mo_exact", "recycling"]),
    value=st.floats(0, 1, allow_nan=False),
    uncertainty=_uncertainties,
    mode_notes=_notes,
    step=_steps,
)
_unbounded = st.builds(
    FidelityReport,
    two_j=st.integers(1, 400), two_k=st.integers(1, 6),
    theta_rad=_angles,
    method=st.sampled_from(["opt_asymptotic", "mo_asymptotic"]),
    value=st.floats(-3, 3, allow_nan=False),
    uncertainty=_uncertainties,
    mode_notes=_notes,
    step=_steps,
)


@given(st.lists(st.one_of(_bounded, _unbounded), max_size=8))
def test_csv_round_trip_property(rows):
    assert _roundtrip(rows) == rows


# quotes, backslash, control characters and non-ASCII, which JSON escapes
_json_notes = st.text(alphabet=st.one_of(
    st.sampled_from(list('abc;=_ ,."\\/\x00\x07\x1f\n\t\u00e9\u2028\U0001f600')),
    st.characters()), max_size=12)


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1e308, -0.0, 5e-324]))
# a certify result: its values in document order; labels, spins, angles (both signed zeros
# among them) and z-scores from small pools as well, so that a document repeats them
_result = st.tuples(
    st.one_of(st.sampled_from(["run-a", "", "\u00e9"]), st.text()),
    st.one_of(st.sampled_from([1, 3]), st.integers(1, 2**53)),
    st.one_of(st.sampled_from([0.0, -0.0, PI]), _finite), st.floats(0, 1), _finite, _finite, _finite,
    st.one_of(st.none(), st.sampled_from([0.0, -0.0]), _finite),
    st.sampled_from(["quantum-enhanced", "classical-reachable", "inconclusive", "suspect-above-quantum-bound"]),
).map(lambda values: dict(zip(cli.RESULT_FIELDS, values)))
# row errors from small pools as well, so that a document repeats their lines and messages
_row_error = st.builds(dict, line=st.one_of(st.sampled_from([2, 3]), st.integers(2, 10**6)),
                       error=st.one_of(st.sampled_from(["row has 3 fields, the header 5", ""]), st.text()))


@given(st.lists(st.one_of(_bounded, _unbounded), max_size=8), _json_notes,
       st.sampled_from(["sweep", "fidelity"]),
       st.one_of(st.none(), st.builds(dict, threads=st.integers(1, 64))),
       st.lists(_result, max_size=8), st.lists(_row_error, max_size=8))
def test_json_writer_matches_json_dumps(rows, notes, command, extra, results, row_errors):
    # reports: the empty row list, step None and int, extra with and without
    # threads; certify: empty results (and so an empty summary), empty row
    # errors, a z-score of None, any text in labels and error messages
    rows = [r._replace(mode_notes=r.mode_notes + notes) for r in rows]
    for report in (rows, cli.report_columns(rows)):
        buf = io.StringIO()
        write_reports_json(report, command, extra, buf)
        assert buf.getvalue() == json.dumps(cli._rows_to_json(command, rows, extra), indent=2) + "\n"
    buf = io.StringIO()
    cli.write_certify_json(results, row_errors, buf)
    assert buf.getvalue() == json.dumps(cli._certify_doc(results, row_errors), indent=2) + "\n"


@given(st.lists(st.one_of(_bounded, _unbounded), max_size=8), _json_notes)
def test_csv_writer_matches_csv_module(rows, notes):
    # the template writer writes the bytes of csv.writer, whatever the notes
    # hold: separators, quotes, line breaks, control characters, non-ASCII
    rows = [r._replace(mode_notes=r.mode_notes + notes) for r in rows]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([r.two_j, r.two_k, format_float(r.theta_rad), r.method, "" if r.step is None else r.step,
                      format_float(r.value), format_float(r.uncertainty), r.mode_notes] for r in rows)
    for report in (rows, cli.report_columns(rows)):
        buf = io.StringIO()
        write_reports_csv(report, buf)
        assert buf.getvalue() == want.getvalue()


def test_writers_cross_the_chunk_boundary():
    # the writers form _CHUNK_ROWS rows at a time: a report one row past two chunks, and a
    # certify document one result past one, with fields formatted per distinct entry (spins,
    # methods, notes, steps, verdicts) and entry by entry (angles, values, labels, z-scores)
    rng = random.Random(33)
    rows = [FidelityReport(rng.choice([3, 41]), 1, rng.uniform(0, 2 * PI), rng.choice(["opt_exact", "recycling"]),
                           rng.random(), rng.choice([0.0, rng.random()]), rng.choice(["", "a;b", 'q"t,e']),
                           rng.choice([None, 0, 7])) for _ in range(2 * cli._CHUNK_ROWS + 1)]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([r.two_j, r.two_k, format_float(r.theta_rad), r.method, "" if r.step is None else r.step,
                      format_float(r.value), format_float(r.uncertainty), r.mode_notes] for r in rows)
    buf = io.StringIO()
    write_reports_csv(rows, buf)
    assert buf.getvalue() == want.getvalue()
    buf = io.StringIO()
    write_reports_json(rows, "sweep", {"threads": 1}, buf)
    assert buf.getvalue() == json.dumps(cli._rows_to_json("sweep", rows, {"threads": 1}), indent=2) + "\n"
    results = [dict(zip(cli.RESULT_FIELDS, (
        "exp%d" % i, rng.choice([1, 3]), rng.uniform(0, PI), rng.random(), rng.random(), rng.random(), rng.random(),
        rng.choice([None, rng.gauss(0, 5)]), rng.choice(["inconclusive", "quantum-enhanced"]))))
        for i in range(cli._CHUNK_ROWS + 1)]
    buf = io.StringIO()
    cli.write_certify_json(results, [], buf)
    assert buf.getvalue() == json.dumps(cli._certify_doc(results, []), indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _run_csv(capsys, argv):
    assert main(argv) == 0
    return read_reports_csv(io.StringIO(capsys.readouterr().out))


def test_fidelity_command_flip(capsys):
    rows = _run_csv(capsys, ["fidelity", "--two-j", "3", "--theta", "pi"])
    by_method = {r.method: r for r in rows}
    assert len(rows) == 6
    assert abs(by_method["opt_exact"].value - 17 / 24) < 1e-12
    assert abs(by_method["mo_exact"].value - 29 / 45) < 1e-12
    assert by_method["heisenberg_sim"].uncertainty < 1e-9
    assert by_method["mo_sim"].uncertainty <= 1e-15
    assert by_method["mo_sim"].mode_notes == "gauss_jacobi_nodes=2"


@pytest.mark.parametrize("argv", [
    ["fidelity", "--two-j", "3", "--theta", "-0.5*pi"],
    ["fidelity", "--two-j", "3", "--theta", "-1e300"],
    ["fidelity", "--two-j", "3", "--theta", "-1e3"],
    ["fidelity", "--two-j", "3", "--theta", "-pi/3"],
    ["fidelity", "--two-j", "3", "--theta", "+pi"],
    ["fidelity", "--two-j", "3", "--theta=-pi"],
    ["longevity", "--two-j", "3", "--theta", "-pi", "--n-max", "3"],
    ["spin-k", "--two-j", "3", "--two-k", "2", "--theta", "-3/4*pi"],
    ["sweep", "--two-j-range", "1:2", "--thetas", "-1e3,2"],
    ["sweep", "--two-j-range", "1:2", "--thetas", "-1,4.0"],
])
def test_negative_angles_reach_the_angle_parser(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, ""), (argv, code, err)
    assert out.startswith("two_j,")


def test_negative_pi_prints_the_bytes_of_its_product_form(monkeypatch):
    code, out, _ = run_cli(["fidelity", "--two-j", "3", "--theta", "-pi"])
    assert (code, out) == run_cli(["fidelity", "--two-j", "3", "--theta=-1*pi"])[:2]
    assert code == 0
    # the console script calls main() with no argv: the angle is joined there too
    monkeypatch.setattr("sys.argv", ["spinbench", "fidelity", "--two-j", "3", "--theta", "-pi"])
    assert run_cli(None)[:2] == (code, out)
    # a missing value stays a usage error
    code, out, err = run_cli(["fidelity", "--two-j", "3", "--theta", "--format", "json"])
    assert (code, out) == (1, "") and "expected one argument" in err


def test_abbreviated_angle_options_take_a_negative_angle():
    # argparse takes any unambiguous prefix of an option; a negative angle
    # after one is joined to it, as after the full name
    for cmd, full, abbreviations in (
            (["fidelity", "--two-j", "3"], "--theta", ("--thet", "--the", "--th")),
            (["sweep", "--two-j-range", "1:2", "--methods", "opt_exact,worst_case"], "--thetas",
             ("--theta", "--thet", "--the"))):
        want = run_cli(cmd + [full + "=-pi"])
        assert want[0] == 0 and want[2] == ""
        for option in abbreviations:
            assert run_cli(cmd + [option, "-pi"]) == want, option
    # --th is also a prefix of sweep's --threads: argparse refuses it as ambiguous
    code, out, err = run_cli(["sweep", "--two-j-range", "1:2", "--th", "-pi"])
    assert (code, out) == (1, "") and "ambiguous option" in err


def test_fidelity_command_j2_value(capsys):
    rows = _run_csv(capsys, ["fidelity", "--two-j", "4", "--theta", "pi"])
    opt = [r for r in rows if r.method == "opt_exact"][0]
    assert abs(opt.value - 0.76) < 1e-12


def test_fidelity_command_zero_angle(capsys):
    rows = _run_csv(capsys, ["fidelity", "--two-j", "5", "--theta", "0"])
    for r in rows:
        assert abs(r.value - 1.0) < 1e-9


def test_fidelity_command_branch_note(capsys):
    rows = _run_csv(capsys, ["fidelity", "--two-j", "1", "--theta", "pi"])
    opt = [r for r in rows if r.method == "opt_exact"][0]
    assert "branch" in opt.mode_notes


def test_json_format(capsys):
    assert main(["fidelity", "--two-j", "3", "--theta", "pi", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "spinbench/1"
    assert doc["command"] == "fidelity"
    assert len(doc["rows"]) == 6
    assert {"two_j", "method", "value", "uncertainty"} <= set(doc["rows"][0])


def test_sweep_ordering_and_gap(capsys):
    rows = _run_csv(capsys, [
        "sweep", "--two-j-range", "3:6", "--thetas", "pi/2,pi",
        "--methods", "mo_exact,opt_exact"])
    keys = [(r.two_j, r.theta_rad) for r in rows]
    expected = [(tj, th) for tj in (3, 4, 5, 6) for th in (PI / 2, PI) for _ in range(2)]
    assert keys == expected  # two_j major, theta minor, method last
    # within each point: canonical method order, and the quantum gap is open
    for i in range(0, len(rows), 2):
        assert rows[i].method == "opt_exact" and rows[i + 1].method == "mo_exact"
        assert rows[i].value > rows[i + 1].value


def test_sweep_json_header_has_no_seed(capsys):
    assert main(["sweep", "--two-j-range", "3", "--thetas", "pi", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["schema", "command", "threads", "rows"]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--two-j-range", "3", "--thetas", "pi", "--seed", "1"])
    assert exc.value.code == 1


def test_report_commands_share_one_cached_parser_and_row_schema(capsys, monkeypatch, request):
    # main builds its parser once, each report command writes JSON rows keyed
    # by CSV_FIELDS, and a row builder patched after the parser was built is
    # still the one called
    built = []

    class Counted(cli._Parser):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            if self.prog == "spinbench":  # not a subcommand's parser
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    for argv in (["fidelity", "--two-j", "3", "--theta", "pi"],
                 ["sweep", "--two-j-range", "3:4", "--thetas", "pi", "--methods", "worst_case"],
                 ["longevity", "--two-j", "3", "--theta", "pi", "--n-max", "2"],
                 ["spin-k", "--two-j", "3", "--two-k", "2", "--theta", "pi"]):
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == argv[0]
        assert doc["rows"] and all(tuple(row) == CSV_FIELDS for row in doc["rows"])
    assert len(built) == 1

    calls = []

    def patched(two_j_values, thetas, methods):
        calls.append((two_j_values, thetas, methods))
        return cli.ReportColumns([], [], [], [], [], [], [], [])

    monkeypatch.setattr(cli, "sweep_rows", patched)
    assert main(["sweep", "--two-j-range", "3", "--thetas", "pi"]) == 0
    assert capsys.readouterr().out == ",".join(CSV_FIELDS) + "\n"
    assert calls == [([3], [PI], ["opt_exact", "mo_exact"])]
    assert len(built) == 1


def test_sweep_byte_determinism(tmp_path):
    # one argv run twice gives the same bytes, and --threads changes none of them
    args = ["sweep", "--two-j-range", "3:5", "--thetas", "pi/2,2.0,pi",
            "--methods", "opt_exact,mo_sim,heisenberg_sim"]
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / (name + ".csv")
        assert main(args + ["--threads", threads, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_runs_on_the_calling_thread(capsys, monkeypatch):
    def no_thread(self):
        raise AssertionError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(["sweep", "--two-j-range", "3:5", "--thetas", "pi/2,2.0,pi",
                 "--methods", "opt_exact,heisenberg_sim,worst_case", "--threads", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9 * 3


def test_sweep_simulates_each_spin_once(capsys, monkeypatch):
    # one stacked strategy evaluation and one stacked MO evaluation per sweep,
    # each over the whole grid, and no call of the per-point functions
    calls = []

    def counted(name):
        fn = getattr(protocols, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("simulate_strategies", "simulate_mo_strategies", "simulate_spin_k",
                 "simulate_optimal_qubit_strategy", "simulate_mo_strategy"):
        monkeypatch.setattr(protocols, name, counted(name))
    assert main(["sweep", "--two-j-range", "3:5", "--thetas", "0.3,pi/2,2.0,pi,4.0",
                 "--methods", ",".join(cli.SWEEP_METHODS)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 5 * 7
    assert sorted(calls) == ["simulate_mo_strategies", "simulate_strategies"]


def test_report_paths_build_no_fidelity_value(capsys, monkeypatch, tmp_path):
    # sweep and certify rows call the closed forms' plain-float kernels, once per point
    def refuse(*args, **kwargs):
        raise AssertionError("a FidelityValue was built on the report path")

    monkeypatch.setattr(cli.closed_forms, "FidelityValue", refuse)
    spins = ",".join(str(1 + 11 * n) for n in range(24))
    assert main(["sweep", "--two-j-range", spins, "--thetas", "0.3,pi/2,2.0,pi,4.0",
                 "--methods", ",".join(cli.SWEEP_METHODS)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 24 * 5 * 7
    path = tmp_path / "rows.csv"
    path.write_text(",".join(CERTIFY_FIELDS) + "\n" + "".join(
        "run%d,%d,%r,0.7,0.01\n" % (i, 1 + 13 * i, 0.1 * i) for i in range(30)))
    assert main(["certify", "--input", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 30


def test_report_paths_build_no_row_tuple(capsys, monkeypatch):
    # the row builders hand their columns to the writers (a FidelityReport is only the
    # row type that read_reports_csv returns), and take their closed forms from the kernels
    def refuse(name):
        def build(*args, **kwargs):
            raise AssertionError("a %s was built on the report path" % name)
        return build

    monkeypatch.setattr(cli, "FidelityReport", refuse("FidelityReport"))
    monkeypatch.setattr(cli.closed_forms, "FidelityValue", refuse("FidelityValue"))
    for argv in (["sweep", "--two-j-range", "1:6", "--thetas", "0.3,pi", "--methods", ",".join(cli.SWEEP_METHODS)],
                 ["fidelity", "--two-j", "3", "--theta", "pi"],
                 ["longevity", "--two-j", "41", "--theta", "pi", "--n-max", "30"],
                 ["spin-k", "--two-j", "41", "--two-k", "2", "--theta", "2.0"]):
        for fmt in ("csv", "json"):
            assert main(argv + ["--format", fmt]) == 0, argv
            assert capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_bad_row_is_refused_before_any_output(capsys, monkeypatch, tmp_path, fmt):
    # a simulation that returns NaN at one point: check_reports refuses the row
    # before the writer formats a byte, so neither stdout nor --out gets any
    simulate = protocols.simulate_strategies

    def nan_at_one_point(js, k, thetas, fs=None, worst_case=True):  # at 2j = 4, theta = 2.0 of the grid
        sim = simulate(js, k, thetas, fs, worst_case)
        return sim._replace(average=[math.nan if p == 4 else x for p, x in enumerate(sim.average)])

    monkeypatch.setattr(protocols, "simulate_strategies", nan_at_one_point)
    argv = ["sweep", "--two-j-range", "3:5", "--thetas", "0.3,2.0,pi",
            "--methods", "opt_exact,heisenberg_sim", "--format", fmt]
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical failure: heisenberg_sim value nan is not finite\n"
    assert not out.exists()


def test_no_worst_case_is_computed_unless_printed(monkeypatch):
    # fidelity prints no worst case, nor does a sweep without worst_case among its methods: with
    # the worst-case search raising, both print the same bytes; a sweep that prints it reaches it
    argvs = [["fidelity", "--two-j", "41", "--theta", "2.0"],
             ["sweep", "--two-j-range", "1:6", "--thetas", "0.3,pi",
              "--methods", "opt_exact,heisenberg_sim,mo_sim", "--format", "json"]]
    before = [run_cli(argv) for argv in argvs]

    def refused(*args, **kwargs):
        raise AssertionError("worst case computed")

    monkeypatch.setattr(protocols, "_worst_cases", refused)
    assert [run_cli(argv) for argv in argvs] == before
    with pytest.raises(AssertionError, match="^worst case computed$"):
        run_cli(["sweep", "--two-j-range", "3", "--thetas", "pi", "--methods", "worst_case"])


def test_sweep_rows_are_the_rows_of_single_points():
    # a sweep stacks each spin's angles, and its MO quadrature over all its
    # spins; every row it shares with `fidelity` is that command's row, byte
    # for byte, on small spins and on spins far apart
    thetas = ["0", "0.3", "1.0", "pi/2", "2.0", "2.9", "pi", "4.0", "-1", "-pi/3", "7.5", "1e16"]
    wide = [61, 97, 150, 999, 2001, 4099, 40001, 10**6 + 1, 2**31 + 7, 2**53 - 1, 2**53]
    for spins, methods in ((range(1, 61), cli.SWEEP_METHODS), (wide, ("mo_exact", "mo_sim"))):
        code, out, err = run_cli(["sweep", "--two-j-range", ",".join(map(str, spins)),
                                  "--thetas", ",".join(thetas), "--methods", ",".join(methods)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        rows = {tuple(line.split(",")[:4]): line for line in lines[1:]}
        assert len(rows) == len(lines) - 1 == len(spins) * len(thetas) * len(methods)
        for two_j in spins:
            for theta in thetas:
                code, out, err = run_cli(["fidelity", "--two-j", str(two_j), "--theta", theta])
                assert (code, err) == (0, "")
                for line in out.splitlines()[1:]:
                    if line.split(",")[3] in methods:
                        assert rows[tuple(line.split(",")[:4])] == line


def test_qubit_rows_do_not_depend_on_the_blas_kernels():
    # numpy's OpenBLAS picks its kernels from the CPU it runs on, and
    # OPENBLAS_CORETYPE=Prescott forces the generic ones; no qubit row goes
    # through a BLAS product, so each prints the same bytes under both
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def run(argv, **kernel):
        done = subprocess.run([sys.executable, "-m", "spinbench.cli"] + argv, env=dict(env, **kernel),
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout

    for argv in (["sweep", "--two-j-range", "1:60", "--thetas=0.3,2.0,pi,4.0,-1",
                  "--methods", ",".join(cli.SWEEP_METHODS)],
                 ["spin-k", "--two-j", "6", "--two-k", "1", "--theta", "2.0"]):
        assert run(argv, OPENBLAS_CORETYPE="Prescott") == run(argv), argv


@pytest.mark.parametrize("fault", ["block", "quadratic"])
def test_a_failure_at_one_angle_of_a_sweep_names_it(capsys, monkeypatch, skew_kraus, fault):
    # an exchange block column off norm 1 (Kraus operators not complete), or a
    # worst-case quadratic off F on its state, at the third of five angles
    if fault == "block":
        skew_kraus(2)
        message = "theta = 2.0: Kraus operators are not complete"
    else:
        batch = channel_lab._fidelity_batch
        monkeypatch.setattr(channel_lab, "_fidelity_batch",
                            lambda mats, states: batch(mats, states) + (np.arange(len(states)) == 2) * 1e-9)
        message = "theta = 2.0: qubit quadratic differs from F on its state"
    assert main(["sweep", "--two-j-range", "3:4", "--thetas", "0.3,1.0,2.0,pi,4.0",
                 "--methods", "heisenberg_sim,worst_case"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("numerical failure: " + message)


def test_qubit_targets_never_take_the_bloch_route(capsys, monkeypatch):
    # every CLI qubit point has its program along the rotation axis, where
    # each V^dag K_a lies on one diagonal
    def refuse(mats):
        raise AssertionError("a CLI qubit point took the Bloch-sphere route")

    monkeypatch.setattr(channel_lab, "_qubit_minimum", refuse)
    methods = ",".join(cli.SWEEP_METHODS)
    for argv in (["sweep", "--two-j-range", "1:24", "--thetas", "0,0.3,2.0,pi,4.0,-1",
                  "--methods", methods],
                 ["fidelity", "--two-j", "41", "--theta", "2.0"],
                 ["spin-k", "--two-j", "6", "--two-k", "1", "--theta", "pi"]):
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_sweep_empty_grid_writes_nothing(tmp_path):
    out = tmp_path / "nope.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--two-j-range", "3:5", "--thetas", "", "--out", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


def test_sweep_rejects_unknown_method():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--two-j-range", "3:5", "--thetas", "pi", "--methods", "spin_k_sim"])
    assert exc.value.code == 1


def test_longevity_command(capsys):
    rows = _run_csv(capsys, ["longevity", "--two-j", "80", "--theta", "pi", "--n-max", "30"])
    assert len(rows) == 31
    crossing = [r for r in rows if "crossing" in r.mode_notes]
    assert len(crossing) == 1 and crossing[0].step == 21
    assert "asymptotic_L=20.0" in crossing[0].mode_notes
    bench = rows[-1]
    assert bench.method == "mo_exact" and bench.mode_notes == "benchmark"
    values = [r.value for r in rows[:-1]]
    assert values == sorted(values, reverse=True)


def test_longevity_is_exact_beyond_dense_cap(capsys):
    # the joint program (x) qubit space has 2004 > DIM_CAP states at 2j = 1001;
    # the curve builds no operator, sector or per-m state at any spin
    for two_j in (1001, 99999999999):
        t0 = time.perf_counter()
        rows = _run_csv(capsys, ["longevity", "--two-j", str(two_j), "--theta", "pi",
                                 "--n-max", "3"])
        assert time.perf_counter() - t0 < 1.0
        assert [r.mode_notes for r in rows[:-1]] == ["exact"] * 3
        assert abs(rows[0].value - optimal_fidelity(two_j / 2, PI).value) < 1e-12


def test_longevity_never_steps_the_chain(capsys, monkeypatch):
    # the curve comes from the moment recursions and the crossing is read off it
    calls = []
    step = recycling.complementary_step

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(recycling, "complementary_step", counted)
    for two_j, n_max in ((80, 30), (80, 5), (1001, 3)):
        calls.clear()
        rows = _run_csv(capsys, ["longevity", "--two-j", str(two_j), "--theta", "pi",
                                 "--n-max", str(n_max)])
        assert len(rows) == n_max + 1
        assert calls == []


def test_longevity_no_crossing_flag(capsys):
    rows = _run_csv(capsys, ["longevity", "--two-j", "80", "--theta", "pi", "--n-max", "5"])
    assert rows[-1].mode_notes == "benchmark;no_crossing_within_n_max"


def test_longevity_rejects_zero_horizon():
    with pytest.raises(SystemExit) as exc:
        main(["longevity", "--two-j", "80", "--theta", "pi", "--n-max", "0"])
    assert exc.value.code == 1


def test_threads_must_be_positive():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--two-j-range", "3", "--thetas", "pi", "--threads", "0"])
    assert exc.value.code == 1


def test_spin_k_command_matches_qubit_path(capsys):
    krows = _run_csv(capsys, ["spin-k", "--two-j", "6", "--two-k", "1", "--theta", "2.0"])
    frows = _run_csv(capsys, ["fidelity", "--two-j", "6", "--theta", "2.0"])
    ksim = [r for r in krows if r.method == "spin_k_sim"][0]
    fsim = [r for r in frows if r.method == "heisenberg_sim"][0]
    assert abs(ksim.value - fsim.value) < 1e-12
    worst = [r for r in krows if r.method == "worst_case"]
    assert [r.step for r in worst] == [0, 1]
    assert "asymptotic" in worst[1].mode_notes


def test_spin_k_qubit_mo_row_is_the_fidelity_row():
    # at 2k = 1 the spin-k rows are those of the qubit commands, measured against the same
    # references: spin_k_sim is fidelity's heisenberg_sim, mo_sim is fidelity's (rotating by the
    # tuned conditional angle), and the step-0 worst case is sweep's worst_case, note and all
    def rows(argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        return {(row["method"], row["step"]): [row["value"], row["uncertainty"], row["mode_notes"]]
                for row in report_rows(out)[1]}

    for two_j in ("1", "2", "6", "41", "150"):
        for theta in ("0.3", "2.0", "pi", "4.0"):
            spin_k = rows(["spin-k", "--two-j", two_j, "--two-k", "1", "--theta", theta])
            fidelity = rows(["fidelity", "--two-j", two_j, "--theta", theta])
            sweep = rows(["sweep", "--two-j-range", two_j, "--thetas", theta, "--methods", "worst_case"])
            assert spin_k[("spin_k_sim", "")][:2] == fidelity[("heisenberg_sim", "")][:2], (two_j, theta)
            assert spin_k[("mo_sim", "")] == fidelity[("mo_sim", "")], (two_j, theta)
            assert spin_k[("worst_case", "0")] == sweep[("worst_case", "")], (two_j, theta)


def test_spin_k_labels_the_chart_bound(capsys):
    # the worst case is exact for 2k <= 2 and a chart search's upper bound above; its uncertainty
    # is the distance to the large-j form, which the note names
    for two_k, note in (("1", "vs_asymptotic"), ("2", "vs_asymptotic"), ("3", "chart_upper_bound;vs_asymptotic")):
        rows = _run_csv(capsys, ["spin-k", "--two-j", "3", "--two-k", two_k, "--theta", "2.0"])
        assert [r.mode_notes for r in rows if r.method == "worst_case"] == [note, "asymptotic"]


def test_spin_k_refuses_oversized_worst_case_search(capsys, monkeypatch):
    # a spin-2 target's chart has 8^4 * 16^3 points even with the redundant phase
    # fixed: refused before allocating, also at 2j = 1, whose 2 nonzero Kraus
    # operators would fit the budget but whose 5-amplitude states would not.
    # The size depends only on d, so no Kraus family is built, and the message
    # names d and the 2k+1 operators instead of a 1264-digit count at 2k = 600
    def unreachable(*args, **kwargs):
        raise AssertionError("the strategy's channel was built")

    monkeypatch.setattr(protocols, "_strategy_kraus", unreachable)
    for two_j, two_k in (("6", "4"), ("1", "4"), ("3", "600")):
        t0 = time.perf_counter()
        assert main(["spin-k", "--two-j", two_j, "--two-k", two_k, "--theta", "pi"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "exceeds the budget" in err and "d = %d" % (int(two_k) + 1) in err
        assert len(err) < 200


def test_spin_k_refusals_build_no_spin_matrices(capsys, monkeypatch):
    # the dimension cap and the chart budget are checked on 2k + 1 alone, before
    # the target's dense (2k+1)^2 spin matrices are built
    def unreachable(doubled_j):
        raise AssertionError("spin matrices built at 2j = %d" % doubled_j)

    monkeypatch.setattr(spin_algebra, "_spin_matrices", unreachable)
    for two_k, message in (("2001", "dimension 2002 exceeds cap 2001"),
                           ("2000", "exceeds the budget")):
        assert main(["spin-k", "--two-j", "3", "--two-k", two_k, "--theta", "pi"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv,message", [
    # spin matrices and a chart over the states of a 2002-dimensional target
    (["spin-k", "--two-j", "3", "--two-k", "2001", "--theta", "pi"],
     "dimension 2002 exceeds cap 2001"),
    # one output row per use
    (["longevity", "--two-j", "41", "--theta", "pi", "--n-max", "99999999999"],
     "n_max must be in [1, 100000]"),
])
def test_unbounded_work_is_refused_before_it_starts(capsys, argv, message):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_mo_sim_is_exact_at_any_spin(capsys):
    # two Gauss-Jacobi nodes at every j: no order grows with the spin
    t0 = time.perf_counter()
    rows = _run_csv(capsys, ["sweep", "--two-j-range", "99999999999999", "--thetas", "pi",
                             "--methods", "mo_sim"])
    assert time.perf_counter() - t0 < 1.0
    assert [r.method for r in rows] == ["mo_sim"]
    assert rows[0].uncertainty <= 1e-15


@pytest.mark.parametrize("argv", [
    ["--two-j-range", "1:99999999999999", "--thetas", "pi"],
    ["--two-j-range", "1:99999999999999999999", "--thetas", "pi"],  # len(range) overflows
    ["--two-j-range", "1:60000", "--thetas", "pi/2,pi"],
])
def test_oversized_sweep_grid_is_refused_before_it_starts(capsys, argv):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["sweep"] + argv)
    assert exc.value.code == 1
    assert time.perf_counter() - t0 < 5.0
    assert "error:" in capsys.readouterr().err
    assert len(parse_two_j_range("1:%d" % cli.SWEEP_POINTS_CAP)) == cli.SWEEP_POINTS_CAP


def test_fidelity_beyond_the_dense_cap(capsys):
    # the strategy is built from 2k+1 total-M sectors, so no dimension
    # bounds 2j here
    rows = _run_csv(capsys, ["fidelity", "--two-j", "3001", "--theta", "pi"])
    by_method = {r.method: r for r in rows}
    assert by_method["heisenberg_sim"].uncertainty < 1e-12
    assert abs(by_method["heisenberg_sim"].value - optimal_fidelity(1500.5, PI).value) < 1e-12


def test_spin_k_zero_angle(capsys):
    rows = _run_csv(capsys, ["spin-k", "--two-j", "6", "--two-k", "2", "--theta", "0"])
    for r in rows:
        if "sim" in r.method or r.step == 0:
            assert abs(r.value - 1.0) < 1e-9


def test_unwritable_output_path():
    code = main(["fidelity", "--two-j", "3", "--theta", "pi",
                 "--out", "/no/such/directory/report.csv"])
    assert code == 2


# ---------------------------------------------------------------------------
# certification


def _certify_file(tmp_path, rows):
    path = tmp_path / "exp.csv"
    lines = [",".join(CERTIFY_FIELDS)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_certify_reference_verdicts(tmp_path, capsys):
    path = _certify_file(tmp_path, [
        ("run-a", 3, PI, 0.69, 0.005),
        ("run-b", 3, PI, 0.64444, 0.01),
        ("run-c", 3, PI, 0.95, 0.01),
        ("run-d", 3, PI, 0.60, 0.01),
    ])
    assert main(["certify", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    verdicts = [r["verdict"] for r in doc["results"]]
    assert verdicts == [
        "quantum-enhanced", "inconclusive", "suspect-above-quantum-bound",
        "classical-reachable",
    ]
    assert doc["summary"]["quantum-enhanced"] == 1
    assert doc["row_errors"] == []
    first = doc["results"][0]
    assert abs(first["mo_benchmark"] - 29 / 45) < 1e-12
    assert abs(first["optimal_fidelity"] - 17 / 24) < 1e-12
    assert first["z_score"] > 3


def test_certify_zero_stderr_cases():
    sus = classify_experiment(ExperimentRecord("s", 3, PI, 0.95, 0.0))
    assert sus["verdict"] == "suspect-above-quantum-bound"
    assert sus["z_score"] is None
    flat = classify_experiment(ExperimentRecord("f", 3, PI, 29 / 45, 0.0))
    assert flat["verdict"] == "inconclusive" and flat["z_score"] == 0.0


def test_certify_judges_against_the_benchmark_at_any_angle():
    # mo_benchmark(3/2, 1e16) at 400 digits is 0.690744878934502649; with
    # theta - tau formed at theta = 1e16 it reads 0.6307, which would make
    # this row quantum-enhanced
    row = classify_experiment(ExperimentRecord("far", 3, 1e16, 0.66, 0.005))
    assert abs(row["mo_benchmark"] - 0.69074487893450264889) <= 1.2e-16
    assert row["verdict"] == "classical-reachable"


def test_certify_bad_rows_counted(tmp_path, capsys):
    # a row with a field past the header's is an error too, not cut to the header
    path = _certify_file(tmp_path, [
        ("ok", 3, PI, 0.69, 0.005),
        ("bad", 0, PI, 0.69, 0.005),
        ("worse", 3, PI, 1.4, 0.005),
        ("longer", 3, 2.0, 0.7, 0.01, 9),
    ])
    assert main(["certify", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 1
    assert [e["line"] for e in doc["row_errors"]] == [3, 4, 5]
    assert doc["row_errors"][2]["error"] == "row has 6 fields, the header 5"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_certify_non_finite_fields_are_row_errors(tmp_path, capsys, bad):
    path = _certify_file(tmp_path, [
        ("ok", 3, PI, 0.69, 0.005),
        ("angle", 3, bad, 0.69, 0.005),
        ("error", 3, PI, 0.69, bad),
        ("also-ok", 4, PI, 0.70, 0.01),
    ])
    assert main(["certify", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in doc["results"]] == ["ok", "also-ok"]
    assert [e["line"] for e in doc["row_errors"]] == [3, 4]
    assert all("finite" in e["error"] for e in doc["row_errors"])


def test_certify_oversized_spin_is_a_row_error(tmp_path, capsys):
    path = _certify_file(tmp_path, [
        ("ok", 3, PI, 0.69, 0.005),
        ("huge", int(_TOO_BIG), PI, 0.69, 0.005),
    ])
    assert main(["certify", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in doc["results"]] == ["ok"]
    assert [e["line"] for e in doc["row_errors"]] == [3]
    assert "2**53" in doc["row_errors"][0]["error"]


def test_certify_all_bad_rows_is_data_error(tmp_path, capsys):
    path = _certify_file(tmp_path, [("bad", 0, PI, 0.69, 0.005)])
    assert main(["certify", "--input", path]) == 2
    capsys.readouterr()


def test_certify_missing_file():
    assert main(["certify", "--input", "/no/such/file.csv"]) == 2


def test_certify_wrong_header(tmp_path, capsys):
    path = tmp_path / "wrong.csv"
    path.write_text("a,b\n1,2\n")
    assert main(["certify", "--input", str(path)]) == 2
    capsys.readouterr()


def test_certify_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    # a spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order mark, which is not
    # part of the first field name, also when that name is quoted
    plain = Path(_certify_file(tmp_path, [("run-a", 3, PI, 0.69, 0.005), ("run-b", 4, 2.0, 0.7, 0.01)]))
    assert main(["certify", "--input", str(plain)]) == 0
    want = capsys.readouterr()
    for text in (plain.read_bytes(), b'"label"' + plain.read_bytes()[len(b"label"):]):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert main(["certify", "--input", str(marked)]) == 0
        assert capsys.readouterr() == want


def test_csv_header_constant_matches_docs():
    assert CSV_FIELDS == ("two_j", "two_k", "theta_rad", "method", "step",
                          "value", "uncertainty", "mode_notes")
    assert CERTIFY_FIELDS == ("label", "two_j", "theta_rad",
                              "measured_avg_fidelity", "std_err")


# ---------------------------------------------------------------------------
# every argv maps to an exit code


# (admitted values, other values) per flag; "99999999999" spins pass the
# parser and run in every command
_FLAG_VALUES = {
    "--two-j": (["1", "3", "41", "99999999999"], ["0", "-2", "1.5", "x", _TOO_BIG]),
    "--two-k": (["1", "2", "4"], ["0", "x"]),
    "--theta": (["pi", "0", "2.0", "pi/3"], ["nan", "inf", "", "1/0*pi"]),
    "--n-max": (["1", "5", "99999999999"], ["0", "-3", "x"]),
    "--two-j-range": (["3:5", "1,4", "99999999999"],
                      ["5:3", "0:2", "1:99999999999999", "1:99999999999999999999", "a",
                       _TOO_BIG]),
    "--thetas": (["pi", "pi/2,pi"], ["", "nan"]),
    "--methods": (["opt_exact", "heisenberg_sim,worst_case", "mo_sim"], ["recycling", ""]),
    "--format": (["csv", "json"], ["xml"]),
    "--threads": (["1", "2", "64"], ["0"]),
    "--input": (["good.csv"], ["bad.csv", "missing.csv"]),
}
_COMMAND_FLAGS = {
    "fidelity": ["--two-j", "--theta", "--format"],
    "sweep": ["--two-j-range", "--thetas", "--methods", "--threads"],
    "longevity": ["--two-j", "--theta", "--n-max"],
    "spin-k": ["--two-j", "--two-k", "--theta", "--format"],
    "certify": ["--input"],
    "nope": [],
}


def _flag(name):
    # an admitted value three times in four, else another value or no flag
    admitted, other = _FLAG_VALUES[name]
    value = st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(admitted) if i else st.sampled_from([None] + other))
    return st.tuples(st.just(name), value)


def _invocation(command):
    # each of the command's flags, or not, and maybe one more flag of any command
    extra = st.none() | st.sampled_from(sorted(_FLAG_VALUES)).flatmap(_flag)
    return st.tuples(st.just(command),
                     st.tuples(*[_flag(name) for name in _COMMAND_FLAGS[command]], extra))


_argv = st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(_invocation)


@pytest.fixture(scope="module")
def certify_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("certify")
    header = ",".join(CERTIFY_FIELDS)
    (path / "good.csv").write_text(header + "\nrun,3,pi,0.69,0.005\nrun,3,3.14,0.69,0.005\n")
    (path / "bad.csv").write_text(header + "\nrun,0,nan,1.5,-1\n")
    return path


@settings(max_examples=40, deadline=None)
@given(_argv)
def test_every_argv_exits_with_a_documented_code(certify_dir, case):
    command, flags = case
    argv = [command]
    for flag, value in filter(None, flags):
        if value is not None:
            argv += [flag, str(certify_dir / value) if flag == "--input" else value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())


def test_a_route_with_an_unknown_note_source_is_refused():
    route = cli._Route("opt_exact", None, ("exact", "average"), ("note", "chrat"))
    with pytest.raises(KeyError, match="chrat"):
        cli._report_rows([3], [0.5], 1, (route,))
