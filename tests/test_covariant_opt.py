import dataclasses
import math
import re

import numpy as np
import pytest

from spinbench.closed_forms import optimal_fidelity
from spinbench.spin_algebra import as_half_integer
from spinbench.covariant_opt import (
    CovariantChannelParams,
    _linear_terms,
    _optimum_at_moments,
    ProgramMoments,
    abcd_coefficients,
    check_moments,
    check_params,
    covariant_entanglement_fidelity,
    gamma_a_cap,
    gamma_d_cap,
    locate_transition,
    maximize_covariant_fidelity,
    moments_lower_bound,
    params_from_gammas,
)

PI = math.pi


def _identity_params(j):
    # alpha = beta = 0, gamma block rank one with negative coupling: the
    # channel that leaves the target alone
    ca, cd = gamma_a_cap(j), gamma_d_cap(j)
    return params_from_gammas(j, ca, cd, -math.sqrt(ca * cd))


def _random_feasible(j, rng):
    ca, cd = gamma_a_cap(j), gamma_d_cap(j)
    ga = rng.uniform(0.0, ca)
    gd = 0.5 if j == 0.5 else rng.uniform(0.0, cd)
    r = rng.uniform(0.0, 1.0) * math.sqrt(ga * gd)
    ph = rng.uniform(0.0, 2 * PI)
    return params_from_gammas(j, ga, gd, r * complex(math.cos(ph), math.sin(ph)))


def _random_moments(j, rng):
    dim = int(round(2 * j)) + 1
    p = rng.dirichlet(np.ones(dim))
    m = j - np.arange(dim)
    return ProgramMoments(float(p @ m), float(p @ m**2))


def test_trace_constraints_fill_alpha_beta():
    p = params_from_gammas(2.0, 0.8, 0.7, 0.1j)
    check_params(2.0, p)
    assert p.gamma_c == complex(0.1j).conjugate()
    jv = 2.0
    c1 = (2 * jv + 3) / (2 * jv + 2) * p.alpha + (2 * jv + 1) / (2 * jv + 2) * p.gamma_a
    c2 = (2 * jv - 1) / (2 * jv) * p.beta + (2 * jv + 1) / (2 * jv) * p.gamma_d
    assert abs(c1 - 1.0) < 1e-12 and abs(c2 - 1.0) < 1e-12
    assert p.alpha >= 0.0 and p.beta >= 0.0


def test_j_half_special_casing():
    with pytest.raises(ValueError):
        params_from_gammas(0.5, 1.0, 0.3, 0.0)  # gamma_d must be 1/2
    p = params_from_gammas(0.5, 1.0, 0.5, 0.0)
    assert p.beta == 0.0
    check_params(0.5, p)
    with pytest.raises(ValueError, match="at j=1/2: need beta = 0 and gamma_d = 1/2"):
        check_params(0.5, CovariantChannelParams(p.alpha, 0.0, p.gamma_a, 0.3, 0.0))


def test_check_params_rejections():
    with pytest.raises(ValueError):
        check_params(1.0, CovariantChannelParams(-0.2, 0.1, 0.5, 0.5, 0.0))
    # PSD violation in the gamma block
    good = params_from_gammas(1.0, 0.5, 0.5, 0.0)
    bad = CovariantChannelParams(good.alpha, good.beta, 0.5, 0.5, 0.9)
    with pytest.raises(ValueError):
        check_params(1.0, bad)
    # broken trace constraint
    with pytest.raises(ValueError):
        check_params(1.0, CovariantChannelParams(0.9, good.beta, 0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="second trace-preservation constraint violated"):
        check_params(1.0, CovariantChannelParams(good.alpha, good.beta + 0.3, 0.5, 0.5, 0.0))
    # a non-finite field is an input error, not a fidelity that escapes [0, 1]
    for bad in (math.nan, math.inf, -math.inf):
        # alpha is filled in from gamma_a, so it is the first field found
        with pytest.raises(ValueError, match=r"^alpha must be finite, got "):
            abcd_coefficients(1.5, params_from_gammas(1.5, bad, 0.5, 0j))
        with pytest.raises(ValueError, match=r"^gamma_a must be finite, got %r$" % bad):
            check_params(1.0, CovariantChannelParams(good.alpha, good.beta, bad, 0.5, 0.0))
        with pytest.raises(ValueError, match=r"^gamma_b must be finite, got %s$" % re.escape(repr(complex(0.1, bad)))):
            check_params(1.0, CovariantChannelParams(good.alpha, good.beta, 0.5, 0.5, complex(0.1, bad)))
        with pytest.raises(ValueError, match=r"^beta must be finite"):
            check_params(1.0, CovariantChannelParams(good.alpha, bad, 0.5, 0.5, 0.0))


def test_moment_hull():
    assert moments_lower_bound(1.0, 0.0) == 0.0
    assert moments_lower_bound(1.0, 0.5) == 0.5
    assert moments_lower_bound(1.0, 1.0) == 1.0
    assert moments_lower_bound(1.5, 0.0) == 0.25
    assert moments_lower_bound(1.5, -1.5) == 2.25
    check_moments(1.0, ProgramMoments(0.5, 0.5))
    with pytest.raises(ValueError):
        check_moments(1.0, ProgramMoments(0.5, 0.3))  # below the chord
    with pytest.raises(ValueError):
        check_moments(1.0, ProgramMoments(1.2, 1.44))  # |x| > j
    with pytest.raises(ValueError):
        check_moments(1.0, ProgramMoments(0.0, 1.5))  # y > j^2
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^jz_mean must be finite, got %r$" % bad):
            check_moments(1.5, ProgramMoments(bad, 1.0))
        with pytest.raises(ValueError, match=r"^jz2_mean must be finite, got %r$" % bad):
            check_moments(1.5, ProgramMoments(0.5, bad))
        with pytest.raises(ValueError, match=r"^jz_mean must be finite"):
            covariant_entanglement_fidelity(1.5, 2.0, params_from_gammas(1.5, 0.5, 0.5, 0j),
                                            ProgramMoments(bad, 1.0))


def test_random_distributions_give_feasible_moments():
    rng = np.random.default_rng(2)
    for j in (0.5, 1.0, 2.5):
        for _ in range(200):
            check_moments(j, _random_moments(j, rng))


def test_identity_channel_costs_cos_half_squared():
    # do-nothing channel vs rotation by theta: F_e = cos^2(theta/2),
    # independent of the program moments
    for j in (0.5, 1.0, 2.5):
        p = _identity_params(j)
        a, b, c, d = abcd_coefficients(j, p)
        assert abs(a) < 1e-12 and abs(b - 1.0) < 1e-12
        assert abs(c) < 1e-12 and abs(d) < 1e-12
        for theta in (0.0, 0.9, 2.2, PI):
            for moments in (ProgramMoments(j, j * j), ProgramMoments(0.0, 0.25)):
                fe = covariant_entanglement_fidelity(j, theta, p, moments)
                assert abs(fe - math.cos(theta / 2.0) ** 2) < 1e-12


def test_c_coefficient_vanishes_for_real_coupling():
    p = params_from_gammas(1.5, 0.7, 0.6, 0.3)
    _, _, c, _ = abcd_coefficients(1.5, p)
    assert abs(c) < 1e-15
    p = params_from_gammas(1.5, 0.7, 0.6, 0.3j)
    _, _, c, _ = abcd_coefficients(1.5, p)
    assert abs(c) > 1e-3


def test_diagonal_b_coefficient():
    # with gamma_b = 0 the theta-independent term is ((j+1)ga + j*gd)/(2(2j+1))
    jv = 2.0
    p = params_from_gammas(jv, 0.6, 0.4, 0.0)
    _, b, _, _ = abcd_coefficients(jv, p)
    assert abs(b - ((jv + 1) * 0.6 + jv * 0.4) / (2 * (2 * jv + 1))) < 1e-14


def test_random_channels_never_beat_the_optimum():
    rng = np.random.default_rng(8)
    for j, theta in ((1.0, 2.0), (1.5, PI)):
        bound = optimal_fidelity(j, theta).value  # average fidelity
        for _ in range(4000):
            p = _random_feasible(j, rng)
            mom = _random_moments(j, rng)
            fe = covariant_entanglement_fidelity(j, theta, p, mom)
            assert (2 * fe + 1) / 3 <= bound + 1e-9


def test_optimizer_reproduces_closed_form():
    fe, params, moments = maximize_covariant_fidelity(1.5, 2.0)
    check_params(1.5, params)
    assert (moments.jz_mean, moments.jz2_mean) == (1.5, 2.25)
    assert abs((2 * fe + 1) / 3 - optimal_fidelity(1.5, 2.0).value) < 1e-12


def test_optimizer_j_half_central_at_pi():
    fe, params, moments = maximize_covariant_fidelity(0.5, PI)
    assert abs((2 * fe + 1) / 3 - 5.0 / 9.0) < 1e-12
    assert moments.jz_mean == 0.0
    # interior branch: gamma_a strictly below its cap
    assert params.gamma_a < gamma_a_cap(0.5) - 1e-3


@pytest.mark.parametrize("two_j", range(1, 11))
def test_optimizer_returns_a_feasible_channel_at_the_closed_form(two_j):
    j = two_j / 2
    for theta in (0.3, 0.7, 1.2, 2.0, 2.6, 3.0, PI):
        fe, params, moments = maximize_covariant_fidelity(j, theta)
        check_params(j, params)
        check_moments(j, moments)
        assert abs(covariant_entanglement_fidelity(j, theta, params, moments) - fe) < 1e-13
        assert abs((2 * fe + 1) / 3 - optimal_fidelity(j, theta).value) < 1e-12
        # the coherent program |j,j> is optimal away from the small-j windows
        if two_j >= 3:
            assert (moments.jz_mean, moments.jz2_mean) == (j, j * j)


def test_j_half_transition_is_exact():
    theta = PI - locate_transition(0.5)
    assert abs(math.cos(theta) + (4.0 + math.sqrt(7.0)) / 9.0) <= 1e-10
    # the optimal gamma_a sits at its cap before the switch and leaves it after
    cap = gamma_a_cap(0.5)
    assert maximize_covariant_fidelity(0.5, theta - 1e-3)[1].gamma_a == cap
    assert maximize_covariant_fidelity(0.5, theta + 1e-3)[1].gamma_a < cap


def _central_gain(j):
    """The optimizer's gain of the central branch over the coherent one at theta;
    its root on [0.05, pi] is the transition (the oracle of locate_transition).

    At j = 1/2 the optimal gamma_a leaves its cap where the slope of F_e along
    the edge gamma_d = 1/2 at gamma_a = cap_a, for the coherent moments
    (1/2, 1/4), turns negative.  For j >= 1 the switch is where the central
    program's optimum overtakes the coherent one.
    """
    j = as_half_integer(j)
    if j.doubled == 1:
        cap = gamma_a_cap(j)

        def gain(theta):
            _, pa, _, z = _linear_terms(j, theta, 0.5, 0.25)
            return -(pa + abs(z) * math.sqrt(0.5 / cap) / 2.0)
    else:
        def gain(theta):
            f_cen, _ = _optimum_at_moments(j, theta, 0.0, moments_lower_bound(j, 0.0))
            f_coh, _ = _optimum_at_moments(j, theta, j.value, j.value**2)
            return f_cen - f_coh
    return gain


@pytest.mark.parametrize("j", [0.5, 1.0])
def test_transition_is_the_root_of_the_optimizers_gain(j):
    from scipy.optimize import brentq

    gain = _central_gain(j)
    assert gain(math.pi) > 0.0
    root = brentq(gain, 0.05, PI, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps)
    assert abs((PI - root) - locate_transition(j)) <= 1e-12


def test_no_transition_above_j_one():
    # the coherent program wins even at pi, so the central branch never does
    for two_j in range(3, 41):
        assert _central_gain(two_j / 2)(PI) <= 0.0
        assert locate_transition(two_j / 2) is None


def test_gamma_caps():
    assert abs(gamma_a_cap(0.5) - 1.5) < 1e-15
    assert abs(gamma_d_cap(0.5) - 0.5) < 1e-15
    assert abs(gamma_a_cap(3.0) - 8.0 / 7.0) < 1e-15
    assert abs(gamma_d_cap(3.0) - 6.0 / 7.0) < 1e-15


def test_a_channel_off_by_5e_10_is_refused_before_its_fidelity():
    # with a slack of 1e-9 this channel passed check_params, then put F_e at 1.00000000025;
    # the message prints the deviation, which %g printed as "(1 != 1)"
    _, params, moments = maximize_covariant_fidelity(1.5, 0.0)
    off = dataclasses.replace(params, gamma_a=params.gamma_a + 5e-10, gamma_d=params.gamma_d + 5e-10)
    message = r"^first trace-preservation constraint violated \(off by 4\.000000330961484e-10\)$"
    with pytest.raises(ValueError, match=message):
        check_params(1.5, off)
    with pytest.raises(ValueError, match=message):
        covariant_entanglement_fidelity(1.5, 0.0, off, moments)


def test_moments_of_large_spins_are_checked_relative_to_their_size():
    # at j = 100, y ~ j^2 rounds by more than 1e-12: moments that a distribution reaches, computed
    # as p @ m and p @ m**2, were refused against an absolute slack of 1e-12
    rng = np.random.default_rng(0)
    for j in (100.0, 100.5):
        m = np.arange(-j, j + 1)
        for _ in range(200):  # a mixture of two adjacent m, on the hull's lower chord
            i, w = rng.integers(0, len(m) - 1), rng.random()
            p = np.zeros(len(m))
            p[i], p[i + 1] = w, 1.0 - w
            check_moments(j, ProgramMoments(float(p @ m), float(p @ m**2)))
        for i in range(len(m) - 30, len(m) - 1):  # |j, j> with 1e-16 of a nearby m: x can land an ulp past j
            p = np.zeros(len(m))
            p[-1], p[i] = 1.0, 1e-16
            p /= p.sum()
            check_moments(j, ProgramMoments(float(p @ m), float(p @ m**2)))
        check_moments(j, ProgramMoments(j, j * j))
        for x, y in ((j + 1e-6, j * j), (0.5, 0.25 - 1e-6), (j - 0.5, j * j - j + 0.5 - 1e-6)):
            with pytest.raises(ValueError, match="not realizable"):
                check_moments(j, ProgramMoments(x, y))
