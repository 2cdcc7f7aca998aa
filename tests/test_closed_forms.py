import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinbench.channel_lab import KrausChannel, average_fidelity_from_entanglement, entanglement_fidelity
from spinbench.closed_forms import (
    FidelityValue,
    _J_ONE_SWITCH_COS,
    _eq5_value,
    _optimal_value,
    coupling_angle,
    folded_angle,
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
from spinbench.protocols import _strategy_kraus, simulate_mo_strategy, simulate_spin_k, simulate_spin_k_mo
from spinbench.spin_algebra import Z_AXIS, HalfInteger, ToleranceError, make_spin_operators, rotation_unitary

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


def _j1_max_of_branches(theta):
    # the j = 1 optimum as the larger of its coherent and central branches: the oracle of its switch
    c = math.cos(theta)
    return min(max(_eq5_value(1.0, c), 1.0 / 3.0 + 0.4 * (1.0 - c) / 2.0), 1.0)


def _neighbours(x, n):
    """The 2n + 1 doubles nearest x, in order, x among them."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_j1_is_pointwise_max_of_branches():
    # the branch chosen by the switch cosine is the larger one, bitwise: on a grid over [0, 2pi]
    # and at the 4001 doubles nearest each switch angle
    switch = math.acos(_J_ONE_SWITCH_COS)
    thetas = np.linspace(0.0, 2 * PI, 200001).tolist()
    thetas += _neighbours(switch, 2000) + _neighbours(2 * PI - switch, 2000)
    assert [_optimal_value(1.0, t) for t in thetas] == [_j1_max_of_branches(t) for t in thetas]
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


# the measure-and-operate optimum at 2j = 3, from its closed form evaluated
# with mpmath at 400 digits at each angle's exact binary value
MO_LARGE_ANGLE = [
    (1e6, 0.98653334050673130536),
    (1e16, 0.69074487893450264889),
    (-1e16, 0.69074487893450264889),
    (1e300, 0.69820285338781657959),
    (4.0, 0.68681524655380784083),
    (-1.0, 0.90355901836677533123),
]


@pytest.mark.parametrize("theta, want", MO_LARGE_ANGLE)
def test_mo_benchmark_and_simulation_at_any_angle(theta, want):
    # theta - tau in floating point loses tau at large |theta|: formed
    # unfolded, theta = 1e16 gives 0.6307 and theta = 1e300 gives 0.359
    exact = mo_benchmark(1.5, theta).value
    assert abs(exact - want) <= math.ulp(want)
    assert abs(simulate_mo_strategy(1.5, theta) - exact) <= 2.2e-16


def test_folded_angle():
    for theta in (0.0, 1e-300, 1.0, 2.0, PI):
        assert folded_angle(theta) == theta
    for theta in (-1.0, 4.0, 2 * PI - 2.0, 2.0 + 2 * PI, -2.0 - 40 * PI, 1e16, 1e300, -1e300):
        folded = folded_angle(theta)
        assert 0.0 <= folded <= PI
        assert abs(math.cos(folded) - math.cos(theta)) <= 1e-15


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
    for bad_theta, alpha in ((math.nan, 1.0), (math.inf, 1.0), (theta, 0.0), (theta, -1.0),
                             (theta, math.nan), (theta, math.inf), (None, 1.0), ("1.0", 1.0), (1j, 1.0),
                             (theta, None), (np.complex128(2 + 0j), 1.0), (np.complex64(1j), 1.0),
                             (theta, np.complex128(1 + 0j))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns when it drops an imaginary part
            with pytest.raises(ValueError, match="^need a finite theta and a coupling constant in"):
                interaction_time(1.5, bad_theta, alpha)


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


@pytest.mark.parametrize("form", [optimal_fidelity_asymptotic, mo_benchmark_asymptotic,
                                  worst_case_asymptotic])
def test_large_j_forms_refuse_spins_below_half(form):
    # j = 0 divided by zero and j = -1 gave a value above 1
    for j, shown in ((0, "0"), (-1, "-1")):
        with pytest.raises(ValueError, match="^program spin must be >= 1/2, got %s$" % shown):
            form(j, 1.0)


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
    # worst case 1 - 2*drop/j, MO 1 - 6*drop/(3j)
    assert abs(spin_k_fidelity_asymptotic(j, 1.0, theta).value - (1.0 - 3.0 * drop / (3 * j))) < 1e-15
    assert abs(spin_k_entanglement_asymptotic(j, 1.0, theta).value - (1.0 - 4.0 * drop / (3 * j))) < 1e-15
    assert abs(spin_k_worst_case_asymptotic(j, 1.0, theta).value - 0.96) < 1e-15
    assert abs(spin_k_mo_asymptotic(j, 1.0, theta).value - (1.0 - 6.0 * drop / (3 * j))) < 1e-15
    # constant: integer k -> 0, half-integer k -> 1/4
    even = spin_k_worst_case_asymptotic(j, 2.0, theta).value
    assert abs(even - (1.0 - 6.0 * drop / j)) < 1e-15
    odd = spin_k_worst_case_asymptotic(j, 3.0, theta).value
    assert abs(odd - (1.0 - 12.0 * drop / j)) < 1e-15
    half = spin_k_worst_case_asymptotic(j, 1.5, theta).value
    assert abs(half - (1.0 - 4.0 * drop / j)) < 1e-15


@pytest.mark.parametrize("theta", [1.0, 2.0])
@pytest.mark.parametrize("two_k", range(1, 11))
def test_spin_k_slopes_match_the_exact_strategy(two_k, theta):
    # slope = infidelity * j / (1 - cos theta), from the exact strategy at f = theta
    two_j = 2 * 10**6
    j, k = HalfInteger(two_j), HalfInteger(two_k)
    scale = j.value / (1.0 - math.cos(theta))

    def slope(value):
        return (1.0 - value) * scale

    v = rotation_unitary(make_spin_operators(k), Z_AXIS, theta)
    fe = entanglement_fidelity(KrausChannel(_strategy_kraus([j], k, [theta])[0]), v)
    favg = average_fidelity_from_entanglement(fe, two_k + 1)
    pairs = [(slope(fe), slope(spin_k_entanglement_asymptotic(j, k, theta).value)),
             (slope(favg), slope(spin_k_fidelity_asymptotic(j, k, theta).value)),
             (slope(simulate_spin_k_mo(j, k, theta)), slope(spin_k_mo_asymptotic(j, k, theta).value))]
    if two_k <= 2:  # where the worst case has an exact route
        pairs.append((slope(simulate_spin_k(j, k, theta).worst_case),
                      slope(spin_k_worst_case_asymptotic(j, k, theta).value)))
    for exact, asymptotic in pairs:
        assert abs(exact - asymptotic) <= 1e-3 * asymptotic
