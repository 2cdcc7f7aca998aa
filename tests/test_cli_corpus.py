"""The CLI against its checked-in corpus (tests/data/cli_corpus.json).

Exit codes, stderr, the row set and every closed-form or asymptotic value must
match exactly.  A value from numpy linear algebra (a simulation, a quadrature,
a worst-case search, a recycling curve) may move by up to ULP_TOLERANCE ulp
(see `_ulps`), because numpy and LAPACK builds differ in the last bits; each
such move is counted and printed, so that one on the machine that wrote the
corpus still shows.  ``make_cli_corpus.py`` regenerates the file.
"""

import json
import math
import warnings

from make_cli_corpus import CORPUS, changed_rows, exit_mismatches, report_rows, run_case

ULP_TOLERANCE = 4
# rows whose value comes through numpy linear algebra, unless labelled asymptotic
NUMERICAL_METHODS = {"heisenberg_sim", "mo_sim", "worst_case", "spin_k_sim", "recycling"}
# mode_notes items "key=<float>" that carry a numerical value
NUMERICAL_NOTES = {"entanglement"}


def _within(got, want, bound, where, moves):
    """Whether the float text `got` is within `bound` of `want`; a move within it is recorded."""
    a, b = float(got), float(want)
    if a == b:
        return True
    if abs(a - b) <= bound:
        moves.append("%s: %r -> %r (by %.3g, within %.3g)" % (where, b, a, abs(a - b), bound))
        return True
    return False


def _ulps(text):
    """ULP_TOLERANCE ulp of a value, taken at no less than 1/2: a fidelity is
    formed from terms up to 1, so one near 0 carries their absolute rounding."""
    return ULP_TOLERANCE * math.ulp(max(abs(float(text)), 0.5))


def _notes_match(got, want, where, moves):
    items_got, items_want = got.split(";"), want.split(";")
    if len(items_got) != len(items_want):
        return False
    for g, w in zip(items_got, items_want):
        key, _, value = w.partition("=")
        if key in NUMERICAL_NOTES and g.startswith(key + "="):
            if not _within(g[len(key) + 1:], value, _ulps(value), where + " " + key, moves):
                return False
        elif g != w:
            return False
    return True


def _row_mismatch(got, want, where, moves):
    """The first field of a report row that moved beyond its tolerance, or None."""
    numerical = (want.get("method") in NUMERICAL_METHODS  # a certify result has no method
                 and "asymptotic" not in want["mode_notes"].split(";"))
    for field, value in want.items():
        if got[field] == value:
            continue
        if not numerical:
            return field
        if field == "value" and _within(got[field], value, _ulps(value), where + " value", moves):
            continue
        # |value - reference| moves with the value, plus its own rounding
        if field == "uncertainty" and _within(got[field], value,
                                              _ulps(want["value"]) + math.ulp(float(value)),
                                              where + " uncertainty", moves):
            continue
        if field == "mode_notes" and _notes_match(got[field], value, where, moves):
            continue
        return field
    return None


def _case_failures(case, moves):
    """Run one corpus case: a line for each way it differs from the corpus beyond the bounds
    above (the first field of a row only); moves within them are recorded in `moves`."""
    argv = " ".join(case["argv"])
    code, out, err = run_case(case["argv"])
    if (code, err) != (case["exit"], case["stderr"]):
        return ["%s: exit %r, stderr %r; corpus has exit %r, stderr %r"
                % (argv, code, err, case["exit"], case["stderr"])]
    if out == case["stdout"]:
        return []
    if not case["stdout"]:
        return ["%s: printed %r, corpus has nothing" % (argv, out[:200])]
    head, rows = report_rows(out)
    want_head, want_rows = report_rows(case["stdout"])
    if head != want_head or len(rows) != len(want_rows):
        return ["%s: header or row count differs" % argv]
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        if row.keys() != want.keys():
            return ["%s row %d: fields differ" % (argv, i)]
        field = _row_mismatch(row, want, "%s row %d" % (argv, i), moves)
        if field is not None:
            return ["%s row %d: %s is %r, corpus has %r" % (argv, i, field, row[field], want[field])]
    return []


def test_cli_matches_corpus():
    cases = json.loads(CORPUS.read_text())
    moves, failures = [], []
    for case in cases:
        failures += _case_failures(case, moves)
    print("cli corpus: %d argv, %d values within %d ulp of the corpus"
          % (len(cases), len(moves), ULP_TOLERANCE))
    for move in moves:
        print("  " + move)
    if moves:
        warnings.warn("%d CLI corpus values moved within %d ulp (see the test's output)"
                      % (len(moves), ULP_TOLERANCE))
    assert not failures, "\n".join(failures[:20])


def test_qubit_rows_call_no_lapack(no_lapack):
    # every qubit row is formed without LAPACK: the exchange sectors and the two-node rule by
    # one Jacobi rotation, the worst case by a quadratic in |psi_0|^2.  With numpy's
    # eigensolvers and numpy.roots raising, every corpus case of fidelity, sweep, longevity,
    # certify and spin-k at 2k = 1 still gives its exit code and its corpus output, compared
    # as above: libm may still round a value differently on another machine
    cases = [case for case in json.loads(CORPUS.read_text())
             if case["argv"][0] != "spin-k" or case["argv"][case["argv"].index("--two-k") + 1] == "1"]
    assert {case["argv"][0] for case in cases} == {"fidelity", "sweep", "longevity", "certify", "spin-k"}
    failures = [line for case in cases for line in _case_failures(case, [])]
    assert not failures, "\n".join(failures[:20])


def test_only_the_refusals_exit_other_than_0():
    assert not exit_mismatches(json.loads(CORPUS.read_text()))


def test_regeneration_names_the_fields_that_moved():
    head = "two_j,two_k,theta_rad,method,step,value,uncertainty,mode_notes\n"
    old = head + "1,1,2.0,worst_case,,0.5,0.25,vs_asymptotic\n1,1,2.0,mo_sim,,0.7,0.0,\n"
    new = head + "1,1,2.0,worst_case,,0.5000000000000001,0.25,vs_asymptotic\n1,1,2.0,mo_sim,,0.7,0.0,\n"
    assert changed_rows(old, new) == ["row 0: value 0.5 -> 0.5000000000000001 (1 ulp)"]
    # a move is counted in ulp of max(|v|, 1/2), as the corpus test bounds it, a note's float too
    entangled = old.replace("mo_sim,,0.7,0.0,", "spin_k_sim,,0.7,0.25,entanglement=0.125")
    moved = entangled.replace("0.7,0.25,entanglement=0.125",
                              "0.7000000000000004,0.25,entanglement=0.12500000000000033")
    assert changed_rows(entangled, moved) == [
        "row 1: value 0.7 -> 0.7000000000000004 (4 ulp)",
        "row 1: mode_notes entanglement=0.125 -> entanglement=0.12500000000000033 (3 ulp)"]
    assert changed_rows(old, old.replace("vs_asymptotic", "asymptotic")) == [
        "row 0: mode_notes vs_asymptotic -> asymptotic"]
    assert changed_rows(old, old + "1,1,2.0,mo_sim,,0.7,0.0,\n") == ["2 rows -> 3 rows"]
    assert changed_rows(old, "") == ["stdout %r -> ''" % old[:200]]
