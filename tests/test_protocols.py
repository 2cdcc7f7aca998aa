import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from spinbench import channel_lab, cli, closed_forms, protocols, recycling, spin_algebra
from spinbench.channel_lab import (
    KrausChannel,
    ProgramChannel,
    average_fidelity_from_entanglement,
    average_fidelity_mc,
    entanglement_fidelity,
    haar_state,
    worst_case_fidelity,
)
from spinbench.closed_forms import (
    coupling_angle,
    folded_angle,
    mo_benchmark,
    optimal_fidelity,
    spin_k_fidelity_asymptotic,
)
from spinbench.covariant_opt import (
    ProgramMoments,
    covariant_entanglement_fidelity,
    locate_transition,
    maximize_covariant_fidelity,
    params_from_gammas,
)
from spinbench.protocols import (
    StrategyFidelities,
    _pole_rule,
    _strategy_kraus,
    heisenberg_gate,
    simulate_mo_strategy,
    simulate_optimal_qubit_strategy,
    simulate_spin_k,
    simulate_spin_k_mo,
)
from spinbench.recycling import per_m_fidelity, recycling_curve
from spinbench.spin_algebra import (
    Direction,
    HalfInteger,
    ToleranceError,
    Z_AXIS,
    as_half_integer,
    make_spin_operators,
    rotation_unitary,
    spin_coherent_state,
)

PI = math.pi


def _dense_exchange_gate(j, k, f):
    # spectral exponential of 2 J.K/(2j+1) built from Kronecker products
    oj, ok = make_spin_operators(j), make_spin_operators(k)
    ij, ik = np.eye(oj.dim), np.eye(ok.dim)
    h = (
        np.kron(oj.jx, ok.jx) + np.kron(oj.jy, ok.jy) + np.kron(oj.jz, ok.jz)
    ) * (2.0 / (2.0 * j + 1.0))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * f * w)) @ v.conj().T


@pytest.mark.parametrize("j,k", [(0.5, 0.5), (1.5, 0.5), (5.0, 0.5), (2.0, 1.0), (1.5, 1.5),
                                 (20.5, 0.5), (10.0, 2.0), (0.5, 1.5)])
def test_heisenberg_gate_matches_dense_exponential(j, k):
    for f in (0.0, 0.7, 2.9):
        u = heisenberg_gate(j, k, f)
        assert np.abs(u - _dense_exchange_gate(j, k, f)).max() < 1e-12


def test_heisenberg_gate_zero_angle_is_identity():
    u = heisenberg_gate(3.0, 0.5, 0.0)
    assert np.abs(u - np.eye(14)).max() < 1e-13


def test_heisenberg_gate_refuses_before_it_allocates():
    for j, k in ((-0.5, 0.5), (0.5, -0.5), (-1.0, 0.5)):
        with pytest.raises(ValueError, match="non-negative"):
            heisenberg_gate(j, k, 1.0)
    with pytest.raises(ValueError, match="joint dimension 2002 exceeds cap 2001"):
        heisenberg_gate(HalfInteger(1000), 0.5, 1.0)
    for f in (math.nan, math.inf, -math.inf):  # refused even where the cap would refuse
        with pytest.raises(ValueError, match="f must be finite"):
            heisenberg_gate(HalfInteger(1000), 0.5, f)


def test_heisenberg_gate_commutes_with_collective_rotations():
    j, k = HalfInteger(3), HalfInteger(1)
    u = heisenberg_gate(j, k, 1.3)
    oj, ok = make_spin_operators(j), make_spin_operators(k)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(3)
        n = Direction.normalized(*v)
        ang = rng.uniform(0, 2 * PI)
        r = np.kron(rotation_unitary(oj, n, ang), rotation_unitary(ok, n, ang))
        assert np.abs(u @ r - r @ u).max() < 1e-10


def _dense_strategy(j, k, theta, f, n=Z_AXIS, grid=16):
    # the strategy through the whole gate: every control basis state gives a
    # Kraus operator of ProgramChannel, the program is a coherent state along n
    j, k = as_half_integer(j), as_half_integer(k)
    ch = ProgramChannel(heisenberg_gate(j, k, f), spin_coherent_state(j, n), j, k)
    v = rotation_unitary(make_spin_operators(k), n, theta)
    fe = entanglement_fidelity(ch, v)
    fw, _ = worst_case_fidelity(ch, v, grid=grid)
    return StrategyFidelities(fe, average_fidelity_from_entanglement(fe, k.doubled + 1), fw)


@pytest.mark.parametrize("two_k", [1, 2, 3])
def test_sector_kraus_are_the_nonzero_dense_ones(two_k):
    k = HalfInteger(two_k)
    for two_j in range(1, 42):
        j = HalfInteger(two_j)
        for f in (0.0, 0.7, 2.9, -1.3):
            dense = ProgramChannel(heisenberg_gate(j, k, f), spin_coherent_state(j, Z_AXIS),
                                   j, k).kraus_operators()
            sector = _strategy_kraus(j, k, f)
            count = min(two_j, two_k) + 1
            assert sector.shape == (count, two_k + 1, two_k + 1)
            assert np.abs(sector - dense[:count]).max() < 1e-14
            assert not dense[count:].any()


def test_strategy_matches_dense_route_on_any_axis():
    # the strategy is simulated along z; the dense route puts the program and
    # the target rotation along n
    rng = np.random.default_rng(7)
    axes = [Z_AXIS, Direction(0.0, 0.0, -1.0)] + [
        Direction.normalized(*rng.standard_normal(3)) for _ in range(3)]
    # the chart searches of spin >= 1 targets cost 0.05-0.5 s, so they get fewer cases
    cases = [(two_j, 1, n) for two_j in (1, 2, 5, 12, 41) for n in axes]
    cases += [(two_j, 2, n) for two_j in (1, 12, 41) for n in axes[:3]]
    cases += [(5, 3, Z_AXIS), (41, 3, axes[2])]
    for two_j, two_k, n in cases:
        theta = rng.uniform(0.0, PI)
        f = coupling_angle(two_j / 2, theta) if two_k == 1 else theta
        # the d >= 3 chart search depends on the frame, the qubit minimum does not
        same_search = two_k == 1 or n == Z_AXIS
        got = simulate_spin_k(two_j / 2, two_k / 2, theta, f=f)
        want = _dense_strategy(two_j / 2, two_k / 2, theta, f, n=n, grid=16 if same_search else 8)
        assert abs(got.entanglement - want.entanglement) < 1e-12
        assert abs(got.average - want.average) < 1e-12
        if same_search:
            assert abs(got.worst_case - want.worst_case) < 1e-12


def test_strategy_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense operator built on the strategy path")

    monkeypatch.setattr(protocols, "heisenberg_gate", refuse)
    monkeypatch.setattr(protocols, "ProgramChannel", refuse, raising=False)
    # no spin matrix at any spin, program or target
    monkeypatch.setattr(spin_algebra, "_spin_matrices", refuse)
    for k in (0.5, 1.0):
        got = simulate_spin_k(HalfInteger(40), k, 2.0)
        assert 0.0 < got.worst_case <= got.average < 1.0


def test_strategy_checks_each_sector_block(monkeypatch, skew_block):
    block = protocols._exchange_block

    def skewed(doubled_j, doubled_k, drop):
        indices, w, v = block(doubled_j, doubled_k, drop)
        return indices, w, v * (1.0 + 1e-6)

    skew_block(0)
    with pytest.raises(ToleranceError, match="not unitary"):
        simulate_spin_k(3.0, 1.0, 2.0, f=0.7)
    # the blocks are cached, but the exponential and its check are not
    monkeypatch.undo()
    simulate_spin_k(3.0, 1.0, 2.0, f=0.7)
    skew_block(0)
    with pytest.raises(ToleranceError, match="not unitary"):
        simulate_spin_k(3.0, 1.0, 2.0, f=0.7)
    monkeypatch.undo()
    monkeypatch.setattr(protocols, "_exchange_block", skewed)
    with pytest.raises(ToleranceError, match="not unitary"):
        simulate_spin_k(3.0, 1.0, 2.0)


def test_per_spin_caches_are_bounded_and_read_only():
    assert spin_algebra._exchange_block.cache_info().maxsize == 64
    for a in spin_algebra._exchange_block(7, 2, 1):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_sweep_builds_each_exchange_block_once_per_spin(capsys):
    # six angles at one 2j: the strategy's 2k+1 = 2 blocks are built once, and
    # read once, since the six angles are one stacked evaluation
    spin_algebra._exchange_block.cache_clear()
    assert cli.main(["sweep", "--two-j-range", "37", "--thetas", "0.7,1.3,2.0,2.6,2.9,pi",
                     "--methods", "heisenberg_sim,worst_case"]) == 0
    capsys.readouterr()
    info = spin_algebra._exchange_block.cache_info()
    assert (info.misses, info.hits) == (2, 0)


@pytest.mark.parametrize("j", [1.5, 2.0, 3.0, 4.5, 1500.5, 500000.0])
def test_qubit_strategy_hits_closed_form(j):
    for theta in (0.6, PI / 2, 2.4, PI):
        got = simulate_optimal_qubit_strategy(j, theta)
        assert abs(got.average - optimal_fidelity(j, theta).value) < 1e-9
        assert got.worst_case <= got.average + 1e-12


def test_qubit_strategy_flip_oracle():
    got = simulate_optimal_qubit_strategy(1.5, PI)
    assert abs(got.average - 17.0 / 24.0) < 1e-12
    assert abs(got.entanglement - 9.0 / 16.0) < 1e-12


def test_strategy_axis_independent():
    # the program and target rotation along n give the fidelities of the z frame
    rng = np.random.default_rng(12)
    base = simulate_optimal_qubit_strategy(2.0, 2.1)
    for _ in range(5):
        n = Direction.normalized(*rng.standard_normal(3))
        got = _dense_strategy(2.0, 0.5, 2.1, coupling_angle(2.0, 2.1), n=n)
        assert abs(got.entanglement - base.entanglement) < 1e-10
        assert abs(got.worst_case - base.worst_case) < 1e-12


def _strategy_mats(two_j, two_k, theta):
    # V^dag K_a of the strategy in the program's frame, the operators the worst case reads
    j, k = HalfInteger(two_j), HalfInteger(two_k)
    v = rotation_unitary(make_spin_operators(k), Z_AXIS, theta)
    return v.conj().T @ _strategy_kraus(j, k, theta)


def test_strategy_chart_search_drops_the_redundant_phase(monkeypatch):
    rng = np.random.default_rng(21)
    for two_k in (2, 3):
        for two_j in (1, 7, 40):
            mats = _strategy_mats(two_j, two_k, 2.0)
            psi = haar_state(rng, two_k + 1)
            turned = psi * np.exp(1j * rng.uniform(0, 2 * PI) * np.arange(two_k + 1))
            want = channel_lab._fidelity_batch(mats, psi[None, :])[0]
            assert abs(channel_lab._fidelity_batch(mats, turned[None, :])[0] - want) < 1e-14

    batch = channel_lab._fidelity_batch
    sizes = []

    def counted(mats, states):
        sizes.append(len(states))
        return batch(mats, states)

    monkeypatch.setattr(channel_lab, "_fidelity_batch", counted)

    # a spin-1 target is solved exactly: no grid, no Nelder-Mead, and only
    # the returned state is evaluated
    def refuse(*args, **kwargs):
        raise AssertionError("the spin-1 strategy's worst case searched")

    with monkeypatch.context() as m:
        m.setattr(channel_lab, "minimize", refuse)
        simulate_spin_k(HalfInteger(7), HalfInteger(2), 2.0)
    assert sizes and max(sizes) == 1
    # the first batch is the grid: 8 magnitudes and 16 phases a coordinate,
    # with the phase of psi_1 held at 0 on the strategy's covariant families
    sizes.clear()
    simulate_spin_k(HalfInteger(7), HalfInteger(3), 2.0)
    assert sizes[0] == 8**3 * 16**2
    z = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    sizes.clear()
    worst_case_fidelity(KrausChannel(np.linalg.qr(z)[0].reshape(2, 3, 3)), np.eye(3))
    assert sizes[0] == 8**2 * 16**2


def test_tuned_angle_is_the_argmax():
    # scan the interaction angle on a fine grid; the analytic tuning must sit
    # within one grid step of the scan winner
    j, theta = HalfInteger(4), PI
    program = spin_coherent_state(j, Z_AXIS)
    v = rotation_unitary(make_spin_operators(0.5), Z_AXIS, theta)
    fs = np.linspace(0.0, 2 * PI, 721, endpoint=False)
    vals = [
        entanglement_fidelity(
            ProgramChannel(heisenberg_gate(j, 0.5, f), program, j, HalfInteger(1)), v
        )
        for f in fs
    ]
    best = fs[int(np.argmax(vals))]
    assert abs(best - coupling_angle(j, theta)) < 2 * PI / 721 + 1e-12


@pytest.mark.parametrize("j", [1.5, 3.0, 6.0])
def test_mo_simulation_hits_benchmark(j):
    for theta in (PI / 2, 2.0, PI):
        assert abs(simulate_mo_strategy(j, theta) - mo_benchmark(j, theta).value) < 1e-15


def test_mo_oracle_flip():
    assert abs(simulate_mo_strategy(1.5, PI) - 29.0 / 45.0) < 1e-9


# Under the estimate's weight (2j+1)(1-t)^{2j}, E[(1-t)^p] = (2j+1)/(2j+1+p):
# a third route to the MO fidelities, independent of the rule and the closed form.
def _beta_moment(two_j, p):
    return Fraction(two_j + 1, two_j + 1 + p)


POLE_SPINS = [1, 41, 999, 10**6, 2**53]


@pytest.mark.parametrize("two_j", POLE_SPINS)
def test_pole_rule_reproduces_beta_moments(two_j):
    # each spin alone, and as one row of a rule stacked over all the spins
    for nodes in (1, 2, 3, 5):
        (t,), (w,) = _pole_rule([two_j], nodes)
        for p in range(2 * nodes):
            assert abs(w @ (1.0 - t) ** p - float(_beta_moment(two_j, p))) < 1e-15
        stacked = _pole_rule(POLE_SPINS, nodes)
        assert all((a[POLE_SPINS.index(two_j)] == b).all() for a, b in zip(stacked, (t, w)))


def _spin_k_mo_from_moments(two_j, two_k, theta):
    # (U_{2k}(c)/(2k+1))^2 with c = cos(theta) + 2 sin^2(theta/2) s, s = 1 - t,
    # expanded in exact rationals (the float coefficients are large and cancel)
    c = np.array([Fraction(math.cos(theta)), Fraction(2.0 * math.sin(theta / 2.0) ** 2)])
    u_prev, u = np.array([Fraction(0)]), np.array([Fraction(1)])
    for _ in range(two_k):
        u_prev, u = u, P.polysub(P.polymul(2 * c, u), u_prev)
    poly = P.polymul(u, u)
    fe = sum(a * _beta_moment(two_j, p) for p, a in enumerate(poly)) / (two_k + 1) ** 2
    return average_fidelity_from_entanglement(float(fe), two_k + 1)


@pytest.mark.parametrize("two_j", [1, 41, 999, 2001, 10**6])
def test_spin_k_mo_matches_beta_moments(two_j):
    for two_k in range(1, 5):
        for theta in (0.3, 1.0, 2.2, PI):
            got = simulate_spin_k_mo(HalfInteger(two_j), HalfInteger(two_k), theta)
            assert abs(got - _spin_k_mo_from_moments(two_j, two_k, theta)) < 1e-13


def test_coherent_beats_mo():
    for j in (1.5, 4.0, 10.0):
        for theta in (PI / 2, 2.5, PI):
            gap = optimal_fidelity(j, theta).value - mo_benchmark(j, theta).value
            assert gap > 1e-4


def test_spin_k_reduces_to_qubit():
    j, theta = 3.0, 2.0
    tuned = simulate_spin_k(j, 0.5, theta, f=coupling_angle(j, theta))
    direct = simulate_optimal_qubit_strategy(j, theta)
    assert abs(tuned.entanglement - direct.entanglement) < 1e-12
    # spin-k MO rotates by theta itself, so at k = 1/2 it is strictly
    # dominated by the tuned conditional angle
    assert simulate_spin_k_mo(j, 0.5, theta) < simulate_mo_strategy(j, theta)


def test_spin_k_folds_the_angle_of_its_default_schedule():
    # without an explicit f, theta and f are folded_angle(theta): the result is
    # even and 2pi-periodic in theta, and a huge |theta| no longer leaves the
    # gate's phase f w/(2j+1) to rounding
    for two_j, two_k in ((5, 2), (41, 2), (3, 1)):
        j, k = HalfInteger(two_j), HalfInteger(two_k)
        for theta in (1e16, 4.0, -1.0, 2 * PI + 1, -1e300):
            assert simulate_spin_k(j, k, theta) == simulate_spin_k(j, k, folded_angle(theta))
    j, k = HalfInteger(5), HalfInteger(2)
    got = simulate_spin_k(j, k, 1e16)
    assert abs(got.average - 0.6056256374063025) < 1e-12
    assert abs(got.worst_case - 0.23754302633423813) < 1e-12
    # an explicit f is used as given: f = theta = 4 is a worse schedule than 2pi - 4
    assert abs(simulate_spin_k(j, k, 4.0, f=4.0).average - 0.5432138744886355) < 1e-12
    assert abs(simulate_spin_k(j, k, 4.0).average - 0.6003722140853235) < 1e-12


def test_spin_k_identity_angle():
    got = simulate_spin_k(2.0, 1.0, 0.0)
    assert abs(got.entanglement - 1.0) < 1e-12
    assert abs(got.worst_case - 1.0) < 1e-9


def test_spin_k_rejects_zero_target():
    with pytest.raises(ValueError):
        simulate_spin_k(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_spin_k_mo(2.0, 0.0, 1.0)


def test_spin_refusals_name_the_spin():
    # every entry point that needs a spin >= 1/2 refuses through spin_algebra.as_spin
    calls = [
        ("program spin", lambda: optimal_fidelity(0, 1.0)),
        ("program spin", lambda: mo_benchmark(0, 1.0)),
        ("spin", lambda: spin_coherent_state(0, Z_AXIS)),
        ("program spin", lambda: maximize_covariant_fidelity(0, 1.0)),
        ("program spin", lambda: locate_transition(0)),
        ("program spin", lambda: simulate_spin_k(0, 0.5, 1.0)),
        ("target spin", lambda: simulate_spin_k(2.0, 0, 1.0)),
        ("program spin", lambda: simulate_mo_strategy(0, 1.0)),
        ("program spin", lambda: simulate_spin_k_mo(0, 0.5, 1.0)),
        ("target spin", lambda: simulate_spin_k_mo(2.0, 0, 1.0)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match="^%s must be >= 1/2, got 0$" % name):
            call()
    with pytest.raises(ValueError, match="^program spin must be >= 1/2, got -1/2$"):
        optimal_fidelity(-0.5, 1.0)


def _never_built(n):
    raise AssertionError("the channel was built for a non-finite angle")


# the library entry points that take a rotation or interaction angle, with the name they refuse it by
ANGLE_ENTRY_POINTS = {
    "simulate_mo_strategy": ("theta", lambda a: simulate_mo_strategy(3, a)),
    "simulate_spin_k": ("theta", lambda a: simulate_spin_k(3, 1, a)),
    "simulate_spin_k_given_f": ("theta", lambda a: simulate_spin_k(3, 1, a, f=1.0)),
    "simulate_spin_k_mo": ("theta", lambda a: simulate_spin_k_mo(3, 1, a)),
    "per_m_fidelity": ("theta", lambda a: per_m_fidelity(3, a, 3)),
    "recycling_curve": ("theta", lambda a: recycling_curve(3, a, 3)),
    "maximize_covariant_fidelity": ("theta", lambda a: maximize_covariant_fidelity(1.5, a)),
    "average_fidelity_mc": ("theta", lambda a: average_fidelity_mc(_never_built, a, 4, 0)),
    "heisenberg_gate": ("interaction angle f", lambda a: heisenberg_gate(3, 0.5, a)),
    # the closed forms, each through its kernel
    "optimal_fidelity": ("theta", lambda a: optimal_fidelity(1.5, a)),
    "optimal_fidelity_j1": ("theta", lambda a: optimal_fidelity(1, a)),
    "optimal_fidelity_j_half": ("theta", lambda a: optimal_fidelity(0.5, a)),
    "optimal_fidelity_asymptotic": ("theta", lambda a: closed_forms.optimal_fidelity_asymptotic(3, a)),
    "mo_benchmark": ("theta", lambda a: mo_benchmark(3, a)),
    "mo_benchmark_asymptotic": ("theta", lambda a: closed_forms.mo_benchmark_asymptotic(3, a)),
    "mo_optimal_angle": ("theta", lambda a: closed_forms.mo_optimal_angle(3, a)),
    "worst_case_asymptotic": ("theta", lambda a: closed_forms.worst_case_asymptotic(3, a)),
    "spin_k_fidelity_asymptotic": ("theta", lambda a: spin_k_fidelity_asymptotic(3, 1, a)),
    "spin_k_entanglement_asymptotic": ("theta", lambda a: closed_forms.spin_k_entanglement_asymptotic(3, 1, a)),
    "spin_k_worst_case_asymptotic": ("theta", lambda a: closed_forms.spin_k_worst_case_asymptotic(3, 1, a)),
    "spin_k_mo_asymptotic": ("theta", lambda a: closed_forms.spin_k_mo_asymptotic(3, 1, a)),
    "coupling_angle": ("theta", lambda a: coupling_angle(3, a)),
    # recycling
    "kernel_factor": ("theta", lambda a: recycling.kernel_factor(3, a)),
    "complementary_step": ("theta", lambda a: recycling.complementary_step(3, a, recycling.fresh_program(3))),
    "asymptotic_distribution": ("theta", lambda a: recycling.asymptotic_distribution(3, a, 2)),
    "advantage_longevity": ("theta", lambda a: recycling.advantage_longevity(3, a)),
    "curve_longevity": ("theta", lambda a: recycling.curve_longevity(3, a, recycling_curve(3, 1.0, 3))),
    "per_m_fidelity_asymptotic": ("theta", lambda a: recycling.per_m_fidelity_asymptotic(3, a, 3)),
    # rotations and the covariant fidelity
    "rotation_unitary": ("angle", lambda a: rotation_unitary(make_spin_operators(1), Z_AXIS, a)),
    "covariant_entanglement_fidelity": ("theta", lambda a: covariant_entanglement_fidelity(
        1.5, a, params_from_gammas(1.5, 0.5, 0.5, 0.0), ProgramMoments(1.5, 2.25))),
}


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
def test_a_non_finite_angle_is_an_input_error(entry, angle):
    # refused by spin_algebra.as_angle, as a ValueError, before any numerical check can fail on it
    what, call = ANGLE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^%s must be finite, got %r$" % (what, angle)):
        call(angle)


def test_spin_one_target_slope():
    # average infidelity scales as k(2k+1)(1-cos theta)/(3j) = 2(1-c)/j at k=1
    j, theta = 60.0, PI
    got = simulate_spin_k(j, 1.0, theta)
    slope = (1.0 - got.average) * 3.0 * j / (1.0 - math.cos(theta))
    assert abs(slope / 3.0 - 1.0) < 0.1
    asym = spin_k_fidelity_asymptotic(j, 1.0, theta).value
    assert abs(got.average - asym) < 5.0 / j


# the angles of the batch tests: both ends of [0, pi], outside it, and far outside
STACK_ANGLES = [0.0, 0.3, 1.0, PI / 2, 2.0, 2.9, PI, 4.0, -1.0, -PI / 3, 7.5, 1e16]


def test_a_stack_of_angles_gives_the_values_of_single_angles():
    # the stacked evaluation keeps the order of operations of a single angle,
    # so every value is bitwise that of the same angle alone
    for two_j in range(1, 61):
        j = HalfInteger(two_j)
        tuned = [coupling_angle(j, theta) for theta in STACK_ANGLES]
        stacked = protocols.simulate_strategies(j, 0.5, STACK_ANGLES, tuned)
        for i, theta in enumerate(STACK_ANGLES):
            single = simulate_optimal_qubit_strategy(j, theta)
            assert tuple(values[i] for values in stacked) == tuple(single), (two_j, theta)
    # the MO quadrature stacks the spins too
    spins = [HalfInteger(two_j) for two_j in range(1, 61)]
    assert protocols.simulate_mo_strategies(spins, STACK_ANGLES) == [
        [simulate_mo_strategy(j, theta) for theta in STACK_ANGLES] for j in spins]
    # the default schedule folds each angle, and a spin-1 target takes each
    # angle through worst_case_fidelity
    for two_j, two_k in ((1, 1), (7, 1), (40, 1), (1, 2), (7, 2), (40, 2)):
        stacked = protocols.simulate_strategies(two_j / 2, two_k / 2, STACK_ANGLES)
        for i, theta in enumerate(STACK_ANGLES):
            single = simulate_spin_k(two_j / 2, two_k / 2, theta)
            assert tuple(values[i] for values in stacked) == tuple(single), (two_j, two_k, theta)


def test_a_stack_names_the_angle_that_fails(monkeypatch, skew_block):
    thetas = [0.3, 2.0, PI]
    # a non-finite interaction angle is an input error, refused before any block is built
    monkeypatch.setattr(protocols, "_strategy_kraus", lambda j, k, f: _never_built(len(f)))
    for f in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^theta = 2\.0: interaction angle f must be finite, got %r$" % f):
            protocols.simulate_strategies(3.0, 0.5, thetas, [0.4, f, 1.0])
    monkeypatch.undo()
    skew_block(1)
    with pytest.raises(ToleranceError, match=r"^theta = 2\.0: exchange block of drop 0 is not unitary"):
        protocols.simulate_strategies(3.0, 0.5, thetas, [0.4, 0.9, 1.0])
    monkeypatch.undo()
    batch = channel_lab._fidelity_batch
    monkeypatch.setattr(channel_lab, "_fidelity_batch",
                        lambda mats, states: batch(mats, states) + (np.arange(len(states)) == 2) * 1e-9)
    with pytest.raises(ToleranceError, match=r"^theta = %r: qubit quadratic differs" % PI):
        protocols.simulate_strategies(3.0, 0.5, thetas, thetas)
    # a spin-1 target's worst cases are solved family by family and checked as one stack
    with pytest.raises(ToleranceError, match=r"^theta = %r: spin-1 quartic differs" % PI):
        protocols.simulate_strategies(3.0, 1.0, thetas)
