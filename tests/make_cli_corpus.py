"""Regenerate tests/data/cli_corpus.json, the checked-in CLI corpus.

Each case is one argv run in-process through ``spinbench.cli.main``, with its
exit code, stdout and stderr, from the corpus's own directory, so that the
certify cases name their checked-in input files by a relative path.
``test_cli_corpus.py`` runs every argv again and compares.  Run from the
repository root:

    PYTHONPATH=src python tests/make_cli_corpus.py

Regenerating the file is a test-data change: the change that does it names
the rows that moved, and why.  Before it overwrites the file, the script
prints each case whose output changed, with its argv and the fields of each
row that differ; a moved float is followed by its distance in ulp, taken at
max(|v|, 1/2) as ``test_cli_corpus.py`` takes it.  It writes no corpus in which a case other than REFUSALS
exits other than 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import pathlib

from spinbench import cli

CORPUS = pathlib.Path(__file__).with_name("data") / "cli_corpus.json"

ALL_METHODS = "opt_exact,opt_asymptotic,mo_exact,mo_asymptotic,heisenberg_sim,mo_sim,worst_case"

# a usage error, a chart over budget, a horizon over the cap and a certify
# file without a usable row: the only cases that may exit other than 0
REFUSALS = [["fidelity", "--two-j", "0", "--theta", "pi"],
            ["spin-k", "--two-j", "300", "--two-k", "4", "--theta", "2.0"],
            ["longevity", "--two-j", "3", "--theta", "pi", "--n-max", "100001"],
            ["certify", "--input", "certify_bad_rows.csv"]]


def corpus_argv():
    """Every argv of the corpus, in file order."""
    argv = [["fidelity", "--two-j", str(two_j), "--theta", theta]
            for two_j in (1, 2, 3, 6, 41, 150, 999, 10**6 + 1, 2**53 - 1)
            for theta in ("1e-3", "0.5*pi", "2.0", "pi")]
    argv.append(["sweep", "--two-j-range", "1:24", "--thetas", "0.3,2.0", "--methods", ALL_METHODS])
    # every fourth spin only in JSON, whose rows take three times the bytes
    argv.append(["sweep", "--two-j-range", "1:24:4", "--thetas", "pi/3", "--methods", ALL_METHODS,
                 "--threads", "2", "--format", "json"])
    argv += [["spin-k", "--two-j", str(two_j), "--two-k", str(two_k), "--theta", theta]
             for two_j in (1, 2, 6, 41, 150) for two_k in (1, 2) for theta in ("0.3", "2.0", "pi")]
    # a spin-3/2 target searches a chart, ~0.2 s per call: a few points only
    argv += [["spin-k", "--two-j", two_j, "--two-k", "3", "--theta", theta]
             for two_j, theta in (("1", "0.3"), ("6", "pi"), ("150", "2.0"))]
    argv += [["longevity", "--two-j", "1", "--theta", "2.0", "--n-max", "12"],
             ["longevity", "--two-j", "41", "--theta", "pi", "--n-max", "30"],
             ["longevity", "--two-j", "1999", "--theta", "0.5*pi", "--n-max", "25", "--format", "json"]]
    # angles outside [0, pi]: every row is even and 2pi-periodic in theta
    argv += [["fidelity", "--two-j", "3", "--theta", "1e16"],
             ["sweep", "--two-j-range", "1:4", "--thetas", "-1,4.0", "--methods", ALL_METHODS],
             ["spin-k", "--two-j", "5", "--two-k", "2", "--theta", "1e16"],
             ["spin-k", "--two-j", "5", "--two-k", "2", "--theta", "4.0"],
             ["longevity", "--two-j", "41", "--theta", "-2.0", "--n-max", "30"],
             ["fidelity", "--two-j", "3", "--theta", "-pi"]]
    # MO quadrature over spins far apart, in one sweep
    argv.append(["sweep", "--two-j-range", "1:2001:40", "--thetas", "0.3,2.0,pi",
                 "--methods", "mo_exact,mo_sim", "--format", "json"])
    # repeated spins and angles, a signed zero angle and zero uncertainties,
    # which a writer that formats each distinct field once must keep apart
    argv += [["sweep", "--two-j-range", "3,3,5", "--thetas=0,-0,pi,pi", "--methods", ALL_METHODS] + fmt
             for fmt in ([], ["--format", "json"])]
    argv.append(["spin-k", "--two-j", "41", "--two-k", "2", "--theta", "2.0", "--format", "json"])
    # every verdict, a zero std_err, the 2j = 3, theta = pi anchor, each kind of
    # malformed row, non-finite fields, a label with a quote, a backslash and a
    # non-ASCII character, and a row with a field past the header's
    argv.append(["certify", "--input", "certify_rows.csv"])
    return argv + REFUSALS


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_case(argv):
    """`run_cli` in the corpus's directory, where the certify inputs are."""
    cwd = os.getcwd()
    os.chdir(CORPUS.parent)
    try:
        return run_cli(argv)
    finally:
        os.chdir(cwd)


def report_rows(text):
    """(header and other non-row fields, rows as {field: str}) of CSV or JSON report
    output; a certify document's rows are its results."""
    if text.startswith("{"):
        doc = json.loads(text)
        rows = doc.pop("rows" if "rows" in doc else "results")
        return doc, [{field: "" if v is None else repr(v) if isinstance(v, float) else str(v)
                      for field, v in row.items()} for row in rows]
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [dict(zip(lines[0], line)) for line in lines[1:]]


def ulps_moved(old, new):
    """The largest distance between the floats of two field texts, in ulp of max(|v|, 1/2) at
    the old value v, over the items of a mode_notes field ("key=<float>;..."); None unless every
    item that differs is a float on both sides."""
    items_old, items_new = old.split(";"), new.split(";")
    if len(items_old) != len(items_new):
        return None
    distance = 0.0
    for a, b in zip(items_old, items_new):
        if a == b:
            continue
        try:
            x, y = float(a.rpartition("=")[2]), float(b.rpartition("=")[2])
        except ValueError:
            return None
        distance = max(distance, abs(x - y) / math.ulp(max(abs(x), 0.5)))
    return distance


def changed_rows(old, new):
    """Lines "row <n>: <field> <old> -> <new>" for each field that differs
    between two report outputs, a moved float followed by "(<d> ulp)"; anything
    else that differs is one line."""
    if not (old and new):
        return ["stdout %r -> %r" % (old[:200], new[:200])]
    (old_head, old_rows), (new_head, new_rows) = report_rows(old), report_rows(new)
    lines = [] if old_head == new_head else ["header %r -> %r" % (old_head, new_head)]
    if len(old_rows) != len(new_rows):
        lines.append("%d rows -> %d rows" % (len(old_rows), len(new_rows)))
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        for field in dict.fromkeys([*a, *b]):
            if a.get(field) != b.get(field):
                ulps = None if None in (a.get(field), b.get(field)) else ulps_moved(a[field], b[field])
                lines.append("row %d: %s %s -> %s%s" % (i, field, a.get(field), b.get(field),
                                                        "" if ulps is None else " (%.3g ulp)" % ulps))
    return lines


def exit_mismatches(cases):
    """A line for each case that is refused but not in REFUSALS, or in it but not refused."""
    return ["%s: exit %r" % (" ".join(case["argv"]), case["exit"]) for case in cases
            if (case["exit"] != 0) != (case["argv"] in REFUSALS)]


def print_moves(old_cases, cases):
    """Print each case whose exit code, stdout or stderr differs from the old corpus."""
    before = {json.dumps(case["argv"]): case for case in old_cases}
    for case in cases:
        old = before.get(json.dumps(case["argv"]))
        if old == case:
            continue
        print(" ".join(case["argv"]))
        if old is None:
            print("  new case")
            continue
        for key in ("exit", "stderr"):
            if old[key] != case[key]:
                print("  %s %r -> %r" % (key, old[key], case[key]))
        if old["stdout"] != case["stdout"]:
            for line in changed_rows(old["stdout"], case["stdout"]):
                print("  " + line)


def main():
    cases = []
    for argv in corpus_argv():
        code, out, err = run_case(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    mismatches = exit_mismatches(cases)
    if mismatches:
        raise SystemExit("not writing %s: only its refusals may exit other than 0\n%s"
                         % (CORPUS, "\n".join(mismatches)))
    if CORPUS.exists():
        print_moves(json.loads(CORPUS.read_text()), cases)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print("wrote %d cases, %d bytes, to %s" % (len(cases), CORPUS.stat().st_size, CORPUS))


if __name__ == "__main__":
    main()
