"""What every report row's uncertainty is measured against, on every fidelity, sweep and spin-k
case of the CLI corpus, run again.

A simulated row's uncertainty is its distance to a reference: the exact form of the same
quantity where one exists (a qubit target's average and MO fidelity), else the large-j form,
and then its note names `vs_asymptotic`.  Every other row, exact or asymptotic, has no
reference and prints 0.0.  The references are formed here from the public closed forms, and
checked against the reference row where the report prints one.  The simulated rows of small
spins (2j <= 41, 2k <= 2) are also checked against routes that share no code with the
library's (see `independent_routes`).
"""

import json
from functools import cache

from independent_routes import dense_strategy, spin_k_mo_from_moments
from make_cli_corpus import CORPUS, report_rows, run_case

from spinbench.closed_forms import (
    coupling_angle, folded_angle, mo_benchmark, mo_optimal_angle, optimal_fidelity, spin_k_fidelity_asymptotic,
    spin_k_mo_asymptotic, spin_k_worst_case_asymptotic)
from spinbench.scalars import HalfInteger

# the quantity a simulated row measures, by method (the step-1 worst case is the large-j form)
QUANTITY = {"heisenberg_sim": "average", "spin_k_sim": "average", "mo_sim": "mo", "worst_case": "worst_case"}
# each quantity's large-j form, and the (method, step) of the row that prints it
LARGE_J = {"average": (spin_k_fidelity_asymptotic, ("opt_asymptotic", "")),
           "mo": (spin_k_mo_asymptotic, ("mo_asymptotic", "")),
           "worst_case": (spin_k_worst_case_asymptotic, ("worst_case", "1"))}
DENSE_TOLERANCE = 1e-12


def _reference(quantity, two_j, two_k, theta):
    """(the reference's value, the (method, step) of the row that prints it, whether it is the
    large-j form)."""
    j, k = HalfInteger(two_j), HalfInteger(two_k)
    if two_k == 1 and quantity == "average":
        return optimal_fidelity(j, theta).value, ("opt_exact", ""), False
    if two_k == 1 and quantity == "mo":
        return mo_benchmark(j, theta).value, ("mo_exact", ""), False
    form, printed = LARGE_J[quantity]
    return form(j, k, theta).value, printed, True


@cache
def _dense(two_j, two_k, theta):
    """The strategy at a point as the CLI runs it: a qubit target at the tuned interaction angle
    and theta as given, a larger one at f = theta, folded."""
    j, k = HalfInteger(two_j), HalfInteger(two_k)
    if two_k == 1:
        return dense_strategy(j, k, theta, coupling_angle(j, theta))
    return dense_strategy(j, k, folded_angle(theta), folded_angle(theta))


def _independent_value(method, two_j, two_k, theta):
    """A simulated row's value by a route that shares no code with the library's: the MO
    fidelity of a qubit target at the tuned conditional angle and theta folded, of a larger one
    rotating by theta as given; the strategy's through the whole gate."""
    if method != "mo_sim":
        return getattr(_dense(two_j, two_k, theta), QUANTITY[method])
    if two_k > 1:
        return spin_k_mo_from_moments(two_j, two_k, theta)
    folded = folded_angle(theta)
    return spin_k_mo_from_moments(two_j, 1, folded, mo_optimal_angle(HalfInteger(two_j), folded))


def test_every_uncertainty_is_the_distance_to_its_reference():
    met, independent = set(), 0
    for case in json.loads(CORPUS.read_text()):
        if case["argv"][0] not in ("fidelity", "sweep", "spin-k") or case["exit"] != 0:
            continue
        code, out, err = run_case(case["argv"])
        assert (code, err) == (0, ""), case["argv"]
        _, rows = report_rows(out)
        printed = {(row["two_j"], row["theta_rad"], row["method"], row["step"]): float(row["value"])
                   for row in rows}
        for row in rows:
            where = (" ".join(case["argv"]), row["method"], row["two_j"], row["theta_rad"], row["step"])
            two_j, two_k, theta = int(row["two_j"]), int(row["two_k"]), float(row["theta_rad"])
            value, notes = float(row["value"]), row["mode_notes"].split(";")
            if row["method"] not in QUANTITY or row["step"] == "1":  # exact or asymptotic
                assert row["uncertainty"] == "0.0" and "vs_asymptotic" not in notes, where
                continue
            reference, (method, step), large_j = _reference(QUANTITY[row["method"]], two_j, two_k, theta)
            assert printed.get((row["two_j"], row["theta_rad"], method, step), reference) == reference, where
            assert float(row["uncertainty"]) == abs(value - reference), where
            assert ("vs_asymptotic" in notes) == large_j, where
            met.add((row["method"], two_k, large_j))
            if two_j <= 41 and two_k <= 2:
                want = _independent_value(row["method"], two_j, two_k, theta)
                assert abs(value - want) <= DENSE_TOLERANCE, (where, value, want)
                independent += 1
    # every kind of simulated row at every target spin of the corpus, with its kind of reference
    assert met == {("heisenberg_sim", 1, False), ("mo_sim", 1, False), ("worst_case", 1, True),
                   ("spin_k_sim", 1, False), ("spin_k_sim", 2, True), ("spin_k_sim", 3, True),
                   ("mo_sim", 2, True), ("mo_sim", 3, True), ("worst_case", 2, True), ("worst_case", 3, True)}
    assert independent > 200
