import math

import pytest
from hypothesis import given, strategies as st

from spinbench.closed_forms import (
    FidelityValue,
    coupling_angle,
    interaction_time,
    mo_benchmark,
    mo_benchmark_asymptotic,
    mo_optimal_angle,
    optimal_fidelity,
    optimal_fidelity_asymptotic,
    spin_k_entanglement_asymptotic,
    spin_k_fidelity_asymptotic,
    spin_k_mo_asymptotic,
    spin_k_worst_case_asymptotic,
    worst_case_asymptotic,
)
from spinbench.spin_algebra import ToleranceError

PI = math.pi

# Reference values at theta = pi, exact rationals.
FLIP_ORACLES = [
    (0.5, 5.0 / 9.0),
    (1.0, 11.0 / 15.0),
    (1.5, 17.0 / 24.0),
    (2.0, 0.76),
]


@pytest.mark.parametrize("j,expected", FLIP_ORACLES)
def test_optimal_fidelity_at_pi(j, expected):
    got = optimal_fidelity(j, PI)
    assert got.kind == "exact"
    assert abs(got.value - expected) < 1e-14


def test_mo_benchmark_at_pi():
    assert abs(mo_benchmark(1.5, PI).value - 29.0 / 45.0) < 1e-14


def test_optimal_beats_mo():
    for j in (0.5, 1.0, 1.5, 3.0, 10.0):
        for theta in (0.3, 1.0, PI / 2, 2.5, PI):
            assert optimal_fidelity(j, theta).value >= mo_benchmark(j, theta).value - 1e-12


def test_identity_rotation_is_free():
    for j in (0.5, 1.0, 1.5, 4.0):
        assert abs(optimal_fidelity(j, 0.0).value - 1.0) < 1e-12
        assert abs(mo_benchmark(j, 0.0).value - 1.0) < 1e-12


def test_j_half_branch_structure():
    # interior branch takes over exactly at cos(theta) = -(4+sqrt7)/9
    theta_t = 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(7.0)))
    left = optimal_fidelity(0.5, theta_t - 1e-8).value
    right = optimal_fidelity(0.5, theta_t + 1e-8).value
    assert abs(left - right) < 1e-6  # continuous at the switch
    # interior expression at pi
    assert abs(optimal_fidelity(0.5, PI).value - 5.0 / 9.0) < 1e-14
    # boundary expression well away from pi
    c = math.cos(0.5)
    boundary = 1.0 / 3.0 + (3.0 + 2.0 * c + math.sqrt(5.0 + 4.0 * c)) / 12.0
    assert abs(optimal_fidelity(0.5, 0.5).value - boundary) < 1e-14


def test_j1_is_pointwise_max_of_branches():
    for theta in (0.4, 1.5, 2.2, 2.6, 3.0, PI):
        c = math.cos(theta)
        central = 1.0 / 3.0 + 0.4 * (1.0 - c) / 2.0
        got = optimal_fidelity(1.0, theta).value
        assert got >= central - 1e-13
        assert got >= optimal_fidelity_asymptotic(1.0, theta).value - 0.2
    # near pi the central program wins and j=1 beats j=3/2
    assert optimal_fidelity(1.0, PI).value > optimal_fidelity(1.5, PI).value


@given(st.floats(min_value=0.0, max_value=2 * PI), st.sampled_from([0.5, 1.0, 1.5, 2.5, 7.0]))
def test_optimal_fidelity_bounds_and_symmetry(theta, j):
    fv = optimal_fidelity(j, theta)
    assert 1.0 / 3.0 - 1e-12 <= fv.value <= 1.0 + 1e-12
    mirrored = optimal_fidelity(j, 2 * PI - theta)
    assert abs(fv.value - mirrored.value) < 1e-12


def test_mo_benchmark_reflection():
    for j in (0.5, 2.0, 6.5):
        for theta in (0.7, 1.9, 2.8):
            assert abs(mo_benchmark(j, 2 * PI - theta).value - mo_benchmark(j, theta).value) < 1e-14


def test_mo_angle_endpoints_and_range():
    for j in (0.5, 1.0, 4.0, 50.0):
        assert abs(mo_optimal_angle(j, 0.0)) < 1e-14
        assert abs(mo_optimal_angle(j, PI) - PI) < 1e-12
        taus = [mo_optimal_angle(j, t) for t in (0.2, 1.0, 2.0, 3.0)]
        assert all(0.0 <= tau <= PI for tau in taus)
        assert taus == sorted(taus)  # increasing in theta


def test_mo_angle_approaches_theta_at_large_j():
    assert abs(mo_optimal_angle(1000.0, 1.3) - 1.3) < 2e-3


def test_coupling_angle_values():
    # f = atan2((2j+1)s, 1+(2j+1)c), lifted to [0, 2pi)
    assert abs(coupling_angle(0.5, PI) - PI) < 1e-12
    assert coupling_angle(3.0, 0.0) == 0.0
    for j in (0.5, 1.5, 9.0):
        for theta in (0.3, 1.2, 2.0, 2.9):
            f = coupling_angle(j, theta)
            assert 0.0 <= f < 2 * PI
            # same right triangle, arccos form
            tj1 = 2.0 * j + 1.0
            norm = math.sqrt(1.0 + 2.0 * tj1 * math.cos(theta) + tj1**2)
            assert abs(f - math.acos((1.0 + tj1 * math.cos(theta)) / norm)) < 1e-12


def test_interaction_time():
    j, theta, alpha = 2.0, 1.1, 0.25
    t = interaction_time(j, theta, alpha)
    assert abs(t - coupling_angle(j, theta) / (5.0 * alpha)) < 1e-15
    assert abs(interaction_time(0.5, PI, 1.0) - PI / 2.0) < 1e-12
    with pytest.raises(ValueError):
        interaction_time(j, theta, 0.0)


def test_pi_is_the_hardest_angle_and_fidelity_grows_with_j():
    # grid minimum sits at theta = pi, and a larger program never hurts
    thetas = [2.0 * PI * i / 100.0 for i in range(100)]
    prev = None
    for doubled in range(3, 21):  # j = 3/2 .. 10
        vals = [optimal_fidelity(doubled / 2.0, th).value for th in thetas]
        assert min(vals) == vals[50]
        if prev is not None:
            assert all(v >= p - 1e-12 for v, p in zip(vals, prev))
        prev = vals


def test_asymptotic_forms_track_exact_at_large_j():
    j = 200.0
    for theta in (PI / 2, PI):
        drop = 1.0 - math.cos(theta)
        exact = optimal_fidelity(j, theta).value
        assert abs((1.0 - exact) * 3.0 * j / drop - 1.0) < 0.02
        mo = mo_benchmark(j, theta).value
        assert abs((1.0 - mo) / (1.0 - exact) - 2.0) < 0.02
        asym = optimal_fidelity_asymptotic(j, theta)
        assert asym.kind == "asymptotic"
        assert abs(asym.value - exact) < 2e-5
        assert abs(mo_benchmark_asymptotic(j, theta).value - mo) < 1e-4


def test_asymptotic_may_leave_unit_interval():
    # small-j asymptotics are labelled, not clamped
    assert worst_case_asymptotic(0.5, PI).value < 0.0
    with pytest.raises(ToleranceError):
        FidelityValue(-3.0, "exact")
    with pytest.raises(ValueError):
        FidelityValue(0.5, "estimated")


def test_spin_k_reduces_to_qubit_at_k_half():
    for j in (10.0, 80.0):
        for theta in (0.9, 2.4):
            assert spin_k_fidelity_asymptotic(j, 0.5, theta).value == pytest.approx(
              optimal_fidelity_asymptotic(j, theta).value, abs=1e-15)
            assert spin_k_mo_asymptotic(j, 0.5, theta).value == pytest.approx(
              mo_benchmark_asymptotic(j, theta).value, abs=1e-15)
            assert spin_k_worst_case_asymptotic(j, 0.5, theta).value == pytest.approx(
              worst_case_asymptotic(j, theta).value, abs=1e-15)


def test_spin_k_coefficients():
    j, theta = 100.0, PI
    drop = 2.0  # 1 - cos(pi)
    # k = 1: average 1 - 3*drop/(3j), entanglement 1 - 4*drop/(3j),
    # worst case 1 - 2.25*drop/j, MO 1 - 6*drop/(3j)
    assert abs(spin_k_fidelity_asymptotic(j, 1.0, theta).value - (1.0 - 3.0 * drop / (3 * j))) < 1e-15
    assert abs(spin_k_entanglement_asymptotic(j, 1.0, theta).value - (1.0 - 4.0 * drop / (3 * j))) < 1e-15
    assert abs(spin_k_worst_case_asymptotic(j, 1.0, theta).value - 0.955) < 1e-15
    assert abs(spin_k_mo_asymptotic(j, 1.0, theta).value - (1.0 - 6.0 * drop / (3 * j))) < 1e-15
    # parity constant: even integer k -> 0, otherwise 1/4
    even = spin_k_worst_case_asymptotic(j, 2.0, theta).value
    assert abs(even - (1.0 - 6.0 * drop / j)) < 1e-15
    half = spin_k_worst_case_asymptotic(j, 1.5, theta).value
    assert abs(half - (1.0 - 4.0 * drop / j)) < 1e-15
