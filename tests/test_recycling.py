import math

import numpy as np
import pytest

from spinbench.closed_forms import coupling_angle, mo_benchmark, optimal_fidelity
from spinbench.protocols import heisenberg_gate
from spinbench.recycling import (
    N_MAX_CAP,
    ProgramDistribution,
    advantage_longevity,
    asymptotic_distribution,
    complementary_step,
    curve_longevity,
    fresh_program,
    kernel_factor,
    per_m_fidelity,
    per_m_fidelity_asymptotic,
    recycling_curve,
)
from spinbench.spin_algebra import (
    Z_AXIS,
    as_half_integer,
    make_spin_operators,
    rotation_unitary,
)

PI = math.pi


def _brute_force_step(j, f, probs):
    """Diagonal of Tr_target[U (diag(p) (x) I/2) U^dag] for the exchange gate."""
    jh = as_half_integer(j)
    dc = jh.doubled + 1
    u = heisenberg_gate(jh, 0.5, f)
    t = u.reshape(dc, 2, dc, 2)
    rho = 0.5 * np.einsum("aiml,m,biml->ab", t, probs, t.conj())
    return np.real(np.diag(rho))


def _chain_step(j, g, probs):
    # independent re-implementation of the hop rates, with a free factor g
    jh = as_half_integer(j)
    jv = jh.value
    m = jv - np.arange(jh.doubled + 1)
    denom = (1.0 + 2.0 * jv) ** 2
    down = (jv + m) * (1.0 + jv - m) / denom * g
    up = (jv - m) * (1.0 + jv + m) / denom * g
    out = (1.0 - down - up) * probs
    out[1:] += down[:-1] * probs[:-1]
    out[:-1] += up[1:] * probs[1:]
    return out


def test_chain_matches_brute_force_at_tuned_angle():
    rng = np.random.default_rng(1)
    for j in (2.5, 4.0):
        for theta in (0.8, 2.0, PI):
            p = rng.dirichlet(np.ones(as_half_integer(j).doubled + 1))
            stepped = complementary_step(j, theta, ProgramDistribution(j, p))
            brute = _brute_force_step(j, coupling_angle(j, theta), p)
            assert np.abs(stepped.probs - brute).max() < 1e-12


def test_chain_matches_brute_force_at_any_angle():
    # the rate structure is a property of the gate, not of the tuning:
    # g = 1 - cos(f) works for every interaction angle f
    rng = np.random.default_rng(2)
    for f in (0.6, 1.9, 4.4):
        p = rng.dirichlet(np.ones(6))
        assert np.abs(_chain_step(2.5, 1.0 - math.cos(f), p) - _brute_force_step(2.5, f, p)).max() < 1e-12


def test_kernel_factor_variants():
    # at theta = pi the tuned angle is pi for every j: the factor is 2
    for j in (0.5, 3.0, 41.0):
        assert abs(kernel_factor(j, PI) - 2.0) < 1e-12
    assert kernel_factor(0.5, 0.3) > 0.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        ProgramDistribution(1.0, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        ProgramDistribution(1.0, np.array([0.8, 0.3, -0.1]))
    with pytest.raises(ValueError):
        ProgramDistribution(1.0, np.array([0.5, 0.4, 0.2]))  # sums to 1.1
    for bad in (math.nan, math.inf, -math.inf):  # NaN passes every range comparison
        with pytest.raises(ValueError, match=r"^probs must be finite, got %r$" % bad):
            ProgramDistribution(1, [bad] * 3)
        with pytest.raises(ValueError, match=r"^probs must be finite, got %r$" % bad):
            ProgramDistribution(1, [1.0, 0.0, bad])
    assert fresh_program(3.5).mean_drop() == 0.0
    with pytest.raises(ValueError, match="different spin"):
        complementary_step(2.0, 1.0, fresh_program(1.5))


def test_long_run_stays_normalized():
    # the chain conserves the sum exactly, so each float step keeps it to rounding
    for j, steps in ((100.0, 500), (999.5, 2000)):
        dist = fresh_program(j)
        for _ in range(steps):
            dist = complementary_step(j, PI, dist)
            assert abs(dist.probs.sum() - 1.0) <= 1e-14
        assert dist.probs.min() >= 0.0


def test_per_m_top_state_is_the_tuned_strategy():
    for j, theta in ((3.0, 2.0), (1.5, PI)):
        assert abs(per_m_fidelity(j, theta, j) - optimal_fidelity(j, theta).value) < 1e-12


def test_per_m_rejects_bad_m():
    with pytest.raises(ValueError):
        per_m_fidelity(2.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        per_m_fidelity(2.0, 1.0, 3.0)
    # the asymptotic form refuses the same m with the same message
    for m in (5, 1):
        for form in (per_m_fidelity, per_m_fidelity_asymptotic):
            with pytest.raises(ValueError, match="^m = %d is not a magnetic quantum number for j = 3/2$" % m):
                form(1.5, 1.0, m)


def test_per_m_exact_vs_asymptotic_frozen():
    j, theta, m = 100.0, PI, 97.0
    exact = per_m_fidelity(j, theta, m)
    asym = per_m_fidelity_asymptotic(j, theta, m)
    assert abs(exact - 0.9543740666) < 1e-9
    assert abs(asym - 0.9533333333) < 1e-9
    # the gap is O(1/j^2) with a coefficient near 10 at this drop
    assert 8.0 < (exact - asym) * j * j < 12.0
    # same coefficient at doubled j (genuine 1/j^2 scaling)
    gap2 = (per_m_fidelity(200.0, PI, 197.0) - per_m_fidelity_asymptotic(200.0, PI, 197.0))
    assert 8.0 < gap2 * 4.0e4 < 12.0


def test_per_m_matches_dense_gate_contraction():
    # second route: reshape the dense gate into the Kraus family of every
    # program state |j,m> and contract with the target rotation
    for two_j in (1, 2, 3, 7, 20, 40, 41):
        jh = as_half_integer(two_j / 2)
        dc = two_j + 1
        for theta in (0.3, 1.0, 2.0, 2.9, PI):
            v = rotation_unitary(make_spin_operators(0.5), Z_AXIS, theta)
            t = heisenberg_gate(jh, 0.5, coupling_angle(jh, theta)).reshape(dc, 2, dc, 2)
            overlaps = np.einsum("il,aiml->am", v.conj(), t)  # Tr[V^dag K_a] per program m
            fe = np.sum(np.abs(overlaps) ** 2, axis=0) / 4.0
            dense = (2.0 * fe + 1.0) / 3.0
            closed = [per_m_fidelity(jh, theta, (two_j - 2 * drop) / 2) for drop in range(dc)]
            assert np.abs(np.array(closed) - dense).max() < 1e-12


def test_per_m_decreases_with_drop_near_top():
    v = [per_m_fidelity(20.0, 2.0, 20.0 - drop) for drop in range(10)]
    assert np.all(np.diff(v) < 0.0)


def test_recycling_curve_basics():
    curve = recycling_curve(10.0, 2.4, 40)
    assert curve.mode == "exact"
    ns, vals = zip(*curve.points)
    assert ns == tuple(range(1, 41))
    assert abs(vals[0] - optimal_fidelity(10.0, 2.4).value) < 1e-12
    assert np.all(np.diff(vals) <= 1e-12)  # degrades monotonically
    big = recycling_curve(500.5, PI, 40)
    assert big.mode == "exact"
    assert np.all(np.diff([v for _, v in big.points]) <= 1e-12)
    for horizon in (0, N_MAX_CAP + 1):
        with pytest.raises(ValueError, match="n_max must be in"):
            recycling_curve(10.0, 2.4, horizon)
    for horizon in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match="^n_max must be an integer, got %r$" % horizon):
            recycling_curve(10.0, 2.4, horizon)
    assert recycling_curve(10.0, 2.4, np.int64(3)) == recycling_curve(10.0, 2.4, 3)


def _stepped_chain(j, theta, n_max):
    # the oracle: the distribution each use n = 1 .. n_max sees, stepped use by use
    dist, history = fresh_program(j), []
    for _ in range(n_max):
        history.append(dist.probs)
        dist = complementary_step(j, theta, dist)
    return np.array(history)


def test_curve_matches_the_stepped_chain():
    n_max = 600
    for two_j in (1, 2, 3, 7, 41, 120, 501, 1999):
        j = as_half_integer(two_j / 2)
        ms = fresh_program(j).m_values()
        for theta in (0.3, 1.0, 2.0, 2.9, PI):
            per_m = np.array([per_m_fidelity(j, theta, m) for m in ms])
            stepped = _stepped_chain(j, theta, n_max) @ per_m
            curve = recycling_curve(j, theta, n_max)
            assert [n for n, _ in curve.points] == list(range(1, n_max + 1))
            got = np.array([v for _, v in curve.points])
            assert np.abs(got - stepped).max() < 1e-12, (two_j, theta)


def test_chain_moments_follow_the_recursions():
    # E[m] -> (1 - 2c) E[m] and E[m^2] -> (1 - 6c) E[m^2] + 2c j(j+1), c = g/(2j+1)^2
    rng = np.random.default_rng(3)
    for j in (0.5, 1.0, 2.5, 20.0, 150.5):
        for theta in (0.4, 2.0, PI):
            c = kernel_factor(j, theta) / (2.0 * j + 1.0) ** 2
            dist = ProgramDistribution(j, rng.dirichlet(np.ones(int(2 * j) + 1)))
            m = dist.m_values()
            out = complementary_step(j, theta, dist)
            assert abs(m @ out.probs - (1.0 - 2.0 * c) * (m @ dist.probs)) < 1e-12
            second = (1.0 - 6.0 * c) * (m * m @ dist.probs) + 2.0 * c * j * (j + 1.0)
            assert abs(m * m @ out.probs - second) < 1e-12 * max(1.0, j * j)


def test_spin_half_curve_is_finite_over_the_whole_horizon():
    # at j = 1/2 the factor 1 - 6c reaches -2 and 1 - 2c reaches 0 at theta = pi
    for theta in (PI, 2.5):
        curve = recycling_curve(0.5, theta, N_MAX_CAP)
        got = np.array([v for _, v in curve.points])
        assert np.all(np.isfinite(got))
        # the two-state chain, with its transition matrix read off complementary_step
        columns = [complementary_step(0.5, theta, ProgramDistribution(0.5, e)).probs
                   for e in np.eye(2)]
        step, probs = np.column_stack(columns), fresh_program(0.5).probs
        per_m = np.array([per_m_fidelity(0.5, theta, m) for m in (0.5, -0.5)])
        stepped = np.empty(N_MAX_CAP)
        for n in range(N_MAX_CAP):
            stepped[n] = per_m @ probs
            probs = step @ probs
        assert np.abs(got - stepped).max() < 1e-12


def test_degraded_fidelity_tracks_linear_growth_model():
    # large-j model: F_n ~ 1 - (1-c)/(3j) * (1 + n(1-c)/j); the exact curve is
    # 1.5 % from it at j = 200, theta = pi, n = 100
    j, theta, n = 200.0, PI, 100
    curve = recycling_curve(j, theta, n)
    got = curve.points[-1][1]
    model = 1.0 - (1.0 - math.cos(theta)) / (3.0 * j) * (1.0 + n * (1.0 - math.cos(theta)) / j)
    assert abs((1.0 - got) / (1.0 - model) - 1.0) < 0.05


def test_longevity_frozen_values():
    assert advantage_longevity(40.0, PI).steps == 21
    assert advantage_longevity(100.0, PI).steps == 51
    assert advantage_longevity(100.0, PI / 2).steps == 102
    lon = advantage_longevity(100.0, PI)
    assert abs(lon.asymptotic - 50.0) < 1e-12
    # the exact count runs one or two uses past the large-j estimate j/(1 - cos theta)
    for j in (40.0, 100.0, 400.0, 1000.0):
        for theta in (PI, PI / 2):
            lon = advantage_longevity(j, theta)
            assert 1 <= lon.steps - lon.asymptotic <= 2, (j, theta, lon)
    assert advantage_longevity(50.0, 1e-9).steps is None       # no degradation
    assert curve_longevity(100.0, PI, recycling_curve(100.0, PI, 10)).steps is None
    # crossings past 2000 uses: the horizon is 3 j/(1 - cos theta) + 20 up to N_MAX_CAP
    assert advantage_longevity(5000.0, PI).steps == 2501
    assert advantage_longevity(2000.0, PI / 2).steps == 2002


def test_longevity_insensitive_to_per_step_retuning():
    # re-optimizing the interaction angle before every use does not extend the
    # advantage window (frozen: identical step counts at j = 40, 50 and 100)
    for j, n_max in ((40.0, 60), (50.0, 80), (100.0, 80)):
        jh = as_half_integer(j)
        dc = jh.doubled + 1
        vg = rotation_unitary(make_spin_operators(0.5), Z_AXIS, PI)
        f0 = coupling_angle(jh, PI)
        tables, gs = [], []
        for f in np.linspace(f0 - 0.4, min(f0 + 0.4, 2 * PI), 21):
            t = heisenberg_gate(jh, 0.5, f).reshape(dc, 2, dc, 2)
            fe = np.sum(np.abs(np.einsum("il,aiml->am", vg.conj(), t)) ** 2, axis=0) / 4.0
            tables.append((2.0 * fe + 1.0) / 3.0)
            gs.append(1.0 - math.cos(f))
        bench = mo_benchmark(jh, PI).value
        probs = fresh_program(j).probs.copy()
        tuned_steps = None
        for n in range(1, n_max + 1):
            vals = [tab @ probs for tab in tables]
            i = int(np.argmax(vals))
            if vals[i] < bench - 1e-12:
                tuned_steps = n
                break
            probs = _chain_step(j, gs[i], probs)
        fixed_steps = advantage_longevity(j, PI).steps
        assert tuned_steps is not None
        assert abs(tuned_steps - fixed_steps) <= 3
        assert tuned_steps == fixed_steps


def test_asymptotic_distribution_shape():
    for n in (-1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^n must be finite and >= 0, got %r$" % n):
            asymptotic_distribution(10.0, PI, n)
    for j, shown in ((0, "0"), (-1, "-1")):  # j = 0 divided by zero
        with pytest.raises(ValueError, match="^program spin must be >= 1/2, got %s$" % shown):
            asymptotic_distribution(j, PI, 3)
    for two_j in (1, 2, 20, 201):  # no use yet: the fresh program
        assert np.array_equal(asymptotic_distribution(two_j / 2, PI, 0).probs,
                              fresh_program(two_j / 2).probs)
    # after 50 uses at j=200 the geometric shape matches the iterated chain
    j, theta, n = 200.0, PI, 50
    dist = fresh_program(j)
    for _ in range(n):
        dist = complementary_step(j, theta, dist)
    geo = asymptotic_distribution(j, theta, n)
    tv = 0.5 * np.abs(dist.probs - geo.probs).sum()
    assert tv < 0.05
    assert abs(dist.mean_drop() / geo.mean_drop() - 1.0) < 0.05

