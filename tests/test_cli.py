import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from spinbench import cli, optimal_fidelity, protocols, recycling
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


@pytest.mark.parametrize("bad", ["", "two*pi", "pi*2", "1/0*pi", "pipi", "3..1",
                                 "nan", "inf", "-inf", "1e400", "1e400*pi"])
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
    for bad in ("9:3", "0:5", "a:b", "", "3:9:0"):
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
    with pytest.raises(ValueError):
        FidelityReport(3, 1, PI, "nonsense", 0.5)
    with pytest.raises(ValueError):
        FidelityReport(3, 1, PI, "opt_exact", 0.5, uncertainty=-0.1)
    with pytest.raises(ToleranceError):
        FidelityReport(3, 1, PI, "opt_exact", 1.7)
    # asymptotic companions may leave [0, 1] when tagged
    FidelityReport(1, 1, PI, "worst_case", -3.0, mode_notes="asymptotic", step=1)
    FidelityReport(3, 1, PI, "opt_asymptotic", 1.7)


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


_notes = st.text(alphabet=list("abcxyz;=_ ,0123456789."), max_size=12)
_bounded = st.builds(
    FidelityReport,
    two_j=st.integers(1, 400), two_k=st.integers(1, 6),
    theta_rad=st.floats(0, 2 * PI, allow_nan=False),
    method=st.sampled_from(["opt_exact", "mo_exact", "recycling"]),
    value=st.floats(0, 1, allow_nan=False),
    uncertainty=st.floats(0, 1, allow_nan=False),
    mode_notes=_notes,
    step=st.one_of(st.none(), st.integers(0, 10**6)),
)
_unbounded = st.builds(
    FidelityReport,
    two_j=st.integers(1, 400), two_k=st.integers(1, 6),
    theta_rad=st.floats(0, 2 * PI, allow_nan=False),
    method=st.sampled_from(["opt_asymptotic", "mo_asymptotic"]),
    value=st.floats(-3, 3, allow_nan=False),
    uncertainty=st.floats(0, 1, allow_nan=False),
    mode_notes=_notes,
    step=st.one_of(st.none(), st.integers(0, 10**6)),
)


@given(st.lists(st.one_of(_bounded, _unbounded), max_size=8))
def test_csv_round_trip_property(rows):
    assert _roundtrip(rows) == rows


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


def test_sweep_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--two-j-range", "3:5", "--thetas", "pi/2,2.0,pi",
            "--methods", "opt_exact,mo_sim,heisenberg_sim"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_spin_k_refuses_oversized_worst_case_search(capsys, monkeypatch):
    # a spin-2 target's chart has 8^4 * 16^3 points even with the redundant phase
    # fixed: refused before allocating, also at 2j = 1, whose 2 Kraus operators
    # would fit the budget but whose 5-amplitude states would not.  The size
    # depends only on d and the Kraus count, so no Kraus family is built, and
    # the message names them instead of a 1264-digit count at 2k = 600
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


def test_certify_bad_rows_counted(tmp_path, capsys):
    path = _certify_file(tmp_path, [
        ("ok", 3, PI, 0.69, 0.005),
        ("bad", 0, PI, 0.69, 0.005),
        ("worse", 3, PI, 1.4, 0.005),
    ])
    assert main(["certify", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 1
    assert [e["line"] for e in doc["row_errors"]] == [3, 4]


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
    "--threads": (["1", "2"], ["0"]),
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
