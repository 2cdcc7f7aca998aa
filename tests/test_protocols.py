import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from spinbench import channel_lab, cli, closed_forms, covariant_opt, protocols, recycling, spin_algebra
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
    with pytest.raises(ValueError, match="^dimension 2002 exceeds cap 2001$"):
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
            sector = _strategy_kraus([j], k, [f])[0]
            count = min(two_j, two_k) + 1  # 2k+1 operators, those of a > 2j zero
            assert sector.shape == (two_k + 1, two_k + 1, two_k + 1)
            assert np.abs(sector[:count] - dense[:count]).max() < 1e-14
            assert not sector[count:].any() and not dense[count:].any()


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


def test_strategy_checks_each_sector_block(monkeypatch):
    # V^T V = I is checked once per exchange basis, where _exchange_block builds
    # it: a skewed eigh basis (the first block of three states, drop 2) or a
    # skewed Jacobi rotation (the first block of two states, drop 1) is refused
    # there, through heisenberg_gate too, with no angle named, and is not cached
    eigh, rotation = np.linalg.eigh, spin_algebra._jacobi_rotation

    def skewed_eigh(a):
        w, v = eigh(a)
        return w, v * (1.0 + 1e-6)

    def skewed_rotation(d0, e, d1):
        w0, w1, c, s = rotation(d0, e, d1)
        return w0, w1, c * (1.0 + 1e-6), s * (1.0 + 1e-6)

    for owner, name, skewed, drop in ((np.linalg, "eigh", skewed_eigh, 2),
                                      (spin_algebra, "_jacobi_rotation", skewed_rotation, 1)):
        spin_algebra._exchange_block.cache_clear()
        monkeypatch.setattr(owner, name, skewed)
        for call in (lambda: simulate_spin_k(3.0, 1.0, 2.0, f=0.7), lambda: heisenberg_gate(3.0, 1.0, 0.7)):
            with pytest.raises(ToleranceError, match=r"^exchange basis of \(2j, 2k, drop\) = \(6, 2, %d\) "
                                                     r"is not orthogonal \(error 2e-06\)$" % drop):
                call()
        monkeypatch.undo()
        # only the blocks before the skewed one, drops 0 .. drop - 1, passed and are cached
        assert spin_algebra._exchange_block.cache_info().currsize == drop
    simulate_spin_k(3.0, 1.0, 2.0, f=0.7)
    # a skewed block that reaches the strategy anyway fails the completeness
    # check of each point's Kraus family, which names the angle
    block = protocols._exchange_block

    def skewed(doubled_j, doubled_k, drop):
        indices, w, v = block(doubled_j, doubled_k, drop)
        return indices, w, v * (1.0 + 1e-6)

    monkeypatch.setattr(protocols, "_exchange_block", skewed)
    with pytest.raises(ToleranceError, match=r"^theta = 2\.0: Kraus operators are not complete"):
        simulate_spin_k(3.0, 1.0, 2.0)


def _eigh_block(doubled_j, doubled_k, drop):
    """The oracle of `_exchange_block`: the same block, solved by numpy.linalg.eigh."""
    j, k = doubled_j / 2, doubled_k / 2
    a = np.arange(max(0, drop - doubled_k), min(drop, doubled_j) + 1)
    mj, mk = j - a, k - (drop - a)
    off = np.sqrt(j * (j + 1) - mj[1:] * (mj[1:] + 1)) * np.sqrt(k * (k + 1) - mk[1:] * (mk[1:] - 1))
    w, v = np.linalg.eigh(np.diag(2.0 * mj * mk) + np.diag(off, 1) + np.diag(off, -1))
    return a * (doubled_k + 1) + drop - a, w, v


def _two_state_drops(doubled_j, doubled_k, drops):
    return [d for d in drops if min(d, doubled_j) - max(0, d - doubled_k) == 1]


def test_other_blocks_are_those_of_eigh_bitwise():
    # a block of one state is its own eigenpair and a larger one takes eigh of the same entries,
    # formed in floats as the oracle forms them in arrays: both are the oracle's, bit for bit
    for two_j in range(0, 25):
        for two_k in range(0, 7):
            for drop in range(two_j + two_k + 1):
                if min(drop, two_j) - max(0, drop - two_k) != 1:
                    got, want = spin_algebra._exchange_block(two_j, two_k, drop), _eigh_block(two_j, two_k, drop)
                    assert all((a == b).all() for a, b in zip(got, want)), (two_j, two_k, drop)


def test_two_state_blocks_match_eigh():
    # every block of two states takes one Jacobi rotation: its eigenpairs are eigh's, to 1e-13
    # of the largest eigenvalue and to 1e-13 in each eigenvector (up to its sign), on every
    # drop of the small spins and on the first and last drops of spins far apart
    cases = [(two_j, two_k, drop) for two_j in range(1, 61) for two_k in range(1, 7)
             for drop in _two_state_drops(two_j, two_k, range(two_j + two_k + 1))]
    for two_j in (999, 10**6 + 1, 2**53 - 1):
        for two_k in range(1, 7):
            ends = [*range(1, 7), two_j // 2, *range(two_j + two_k - 6, two_j + two_k + 1)]
            cases += [(two_j, two_k, drop) for drop in _two_state_drops(two_j, two_k, ends)]
    assert len(cases) > 2000
    for case in cases:
        indices, w, v = spin_algebra._exchange_block(*case)
        want_indices, want_w, want_v = _eigh_block(*case)
        assert (indices == want_indices).all() and w[0] <= w[1]
        assert abs(w - want_w).max() <= 1e-13 * abs(want_w).max(), case
        assert abs(v * np.sign((v * want_v).sum(0)) - want_v).max() <= 1e-13, case


def test_qubit_gates_and_projectors_call_no_lapack(no_lapack, monkeypatch):
    # with a qubit partner every exchange block has one or two states: the gate and the
    # total-spin projectors are built with numpy's eigensolvers raising, and match those of
    # the eigh blocks to 1e-13
    spin_algebra._exchange_block.cache_clear()
    fs = (0.7, 2.9, -40.0)
    built = [([heisenberg_gate(HalfInteger(two_j), 0.5, f) for f in fs],
              spin_algebra.total_spin_projectors(HalfInteger(two_j), 0.5)) for two_j in range(1, 42)]
    monkeypatch.undo()
    for owner in (spin_algebra, protocols):
        monkeypatch.setattr(owner, "_exchange_block", _eigh_block)
    for two_j, (gates, projectors) in zip(range(1, 42), built):
        for f, gate in zip(fs, gates):
            assert abs(gate - heisenberg_gate(HalfInteger(two_j), 0.5, f)).max() <= 1e-13
        want = spin_algebra.total_spin_projectors(HalfInteger(two_j), 0.5)
        assert [l for l, _ in projectors] == [l for l, _ in want]
        assert max(abs(p - q).max() for (_, p), (_, q) in zip(projectors, want)) <= 1e-13


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
    return v.conj().T @ _strategy_kraus([j], k, [theta])[0]


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


def test_mo_fidelity_outside_the_unit_interval_is_refused(monkeypatch, capsys):
    # a rule whose weights sum to 1.5 puts F_e near 1.5 at a small angle: refused like the
    # strategy's entanglement fidelity, not clipped to 1
    rule = protocols._pole_rule
    monkeypatch.setattr(protocols, "_pole_rule", lambda doubled_js, nodes: (
        rule(doubled_js, nodes)[0], 1.5 * rule(doubled_js, nodes)[1]))
    with pytest.raises(ToleranceError, match=r"entanglement fidelity escapes \[0, 1\]"):
        simulate_mo_strategy(1.5, 0.3)
    assert cli.main(["fidelity", "--two-j", "3", "--theta", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("numerical failure: entanglement fidelity escapes")


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


def _golub_welsch(doubled_js, nodes):
    """The oracle of `_pole_rule`: every spin's Jacobi matrix solved by one stacked eigh."""
    beta = np.asarray(doubled_js, dtype=float)[:, None]
    i = np.arange(nodes, dtype=float)
    d = 2.0 * i + beta
    matrix = np.zeros((len(beta), nodes * nodes))
    matrix[:, ::nodes + 1] = (2.0 * i * i + 2.0 * i * beta + 2.0 * i + beta) / (d * (d + 2.0))
    off = i[1:] * (i[1:] + beta) / (d[:, 1:] * np.sqrt(d[:, 1:] * d[:, 1:] - 1.0))
    matrix[:, 1::nodes + 1] = matrix[:, nodes::nodes + 1] = off
    t, vectors = np.linalg.eigh(matrix.reshape(-1, nodes, nodes))
    return t, vectors[:, 0] ** 2


def test_two_node_rule_is_golub_welsch():
    # the qubit rule takes one Jacobi rotation per spin: its nodes and weights are those of
    # the Golub-Welsch eigh within 4 ulp, alone and stacked; larger rules are eigh's, bitwise
    spins = [1, 2, 3, 41, 999, 10**6 + 1, 2**53 - 1]
    for rule, want in zip(_pole_rule(spins, 2), _golub_welsch(spins, 2)):
        assert (abs(rule - want) <= 4 * np.spacing(want)).all()
    stacked = _pole_rule(spins, 2)
    for row, two_j in enumerate(spins):
        assert all((a[0] == b[row]).all() for a, b in zip(_pole_rule([two_j], 2), stacked))
    for got, want in zip(_pole_rule(spins, 3), _golub_welsch(spins, 3)):
        assert (got == want).all()


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
    # the library's spin-k MO rotates by theta itself, so at k = 1/2 it is strictly
    # dominated by the tuned conditional angle (which `spin-k --two-k 1` prints)
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


@pytest.mark.parametrize("angle", [None, "1.0", 1j, np.complex128(2 + 0j), np.complex64(1j)])
@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
def test_a_non_real_angle_is_an_input_error(entry, angle):
    # refused by spin_algebra.as_angle, as a ValueError naming the angle, before a comparison
    # with a float raises TypeError on it, or passes a numpy complex number, which numpy
    # orders by its real part first (and whose imaginary part it drops with a warning)
    what, call = ANGLE_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^%s must be a real number, got %s$" % (what, re.escape(repr(angle)))):
            call(angle)


def _feasible_params():
    return params_from_gammas(1.5, 0.5, 0.5, 0.0)


# the library entry points that need a program or target spin >= 1/2, with the name they refuse
# it by (beside those of test_spin_refusals_name_the_spin)
SPIN_ENTRY_POINTS = {
    "coupling_angle": ("program spin", lambda s: coupling_angle(s, 1.0)),
    "mo_optimal_angle": ("program spin", lambda s: closed_forms.mo_optimal_angle(s, 1.0)),
    "interaction_time": ("program spin", lambda s: closed_forms.interaction_time(s, 1.0, 1.0)),
    "spin_k_fidelity_asymptotic": ("target spin", lambda s: spin_k_fidelity_asymptotic(3, s, 1.0)),
    "spin_k_entanglement_asymptotic": ("target spin", lambda s: closed_forms.spin_k_entanglement_asymptotic(
        3, s, 1.0)),
    "spin_k_worst_case_asymptotic": ("target spin", lambda s: closed_forms.spin_k_worst_case_asymptotic(
        3, s, 1.0)),
    "spin_k_mo_asymptotic": ("target spin", lambda s: closed_forms.spin_k_mo_asymptotic(3, s, 1.0)),
    # recycling
    "kernel_factor": ("program spin", lambda s: recycling.kernel_factor(s, 1.0)),
    "per_m_fidelity": ("program spin", lambda s: per_m_fidelity(s, 1.0, 0)),
    "per_m_fidelity_asymptotic": ("program spin", lambda s: recycling.per_m_fidelity_asymptotic(s, 1.0, 0)),
    "recycling_curve": ("program spin", lambda s: recycling_curve(s, 1.0, 3)),
    "fresh_program": ("program spin", lambda s: recycling.fresh_program(s)),
    "complementary_step": ("program spin", lambda s: recycling.complementary_step(
        s, 1.0, recycling.fresh_program(3))),
    "ProgramDistribution": ("program spin", lambda s: recycling.ProgramDistribution(s, [1.0])),
    "advantage_longevity": ("program spin", lambda s: recycling.advantage_longevity(s, 1.0)),
    "curve_longevity": ("program spin", lambda s: recycling.curve_longevity(
        s, 1.0, recycling_curve(3, 1.0, 3))),
    # the covariant channel
    "gamma_a_cap": ("program spin", lambda s: covariant_opt.gamma_a_cap(s)),
    "gamma_d_cap": ("program spin", lambda s: covariant_opt.gamma_d_cap(s)),
    "params_from_gammas": ("program spin", lambda s: params_from_gammas(s, 0.5, 0.5, 0.0)),
    "check_params": ("program spin", lambda s: covariant_opt.check_params(s, _feasible_params())),
    "abcd_coefficients": ("program spin", lambda s: covariant_opt.abcd_coefficients(s, _feasible_params())),
    "moments_lower_bound": ("program spin", lambda s: covariant_opt.moments_lower_bound(s, 0.0)),
    "check_moments": ("program spin", lambda s: covariant_opt.check_moments(s, ProgramMoments(0.0, 0.0))),
    "covariant_entanglement_fidelity": ("program spin", lambda s: covariant_entanglement_fidelity(
        s, 1.0, _feasible_params(), ProgramMoments(1.5, 2.25))),
}


@pytest.mark.parametrize("spin, shown", [(0, "0"), (-0.5, "-1/2"), (-1, "-1")])
@pytest.mark.parametrize("entry", sorted(SPIN_ENTRY_POINTS))
def test_a_spin_below_one_half_is_an_input_error(entry, spin, shown):
    # refused by spin_algebra.as_spin, as a ValueError naming the spin, before any value is formed
    what, call = SPIN_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^%s must be >= 1/2, got %s$" % (what, shown)):
        call(spin)


def test_a_bool_is_no_spin():
    # True is neither 2j = 1 nor j = 1
    with pytest.raises(ValueError, match="^True is not a half-integer$"):
        optimal_fidelity(True, 1.0)
    with pytest.raises(ValueError, match="^True is not a half-integer$"):
        coupling_angle(True, 1.0)


def test_spin_zero_stays_a_one_level_space():
    # where one level is meaningful, spin 0 is accepted
    assert heisenberg_gate(0, 0.5, 1.0).shape == (2, 2)
    assert make_spin_operators(0).jz.shape == (1, 1)
    assert rotation_unitary(make_spin_operators(0), Z_AXIS, 1.0).shape == (1, 1)
    assert [two_l.doubled for two_l, _ in spin_algebra.total_spin_projectors(0, 1)] == [2]


# the library entry points that work over a program's or a target's 2j + 1 levels, at 2j or 2k = 2002
SIZED_ENTRY_POINTS = {
    "simulate_spin_k": lambda: simulate_spin_k(3, HalfInteger(2002), 1.0),
    "simulate_spin_k_mo": lambda: simulate_spin_k_mo(3, HalfInteger(2002), 1.0),
    "maximize_covariant_fidelity": lambda: maximize_covariant_fidelity(HalfInteger(2002), 1.0),
    "fresh_program": lambda: recycling.fresh_program(HalfInteger(2002)),
    "asymptotic_distribution": lambda: recycling.asymptotic_distribution(HalfInteger(2002), 1.0, 3),
}


@pytest.mark.parametrize("entry", sorted(SIZED_ENTRY_POINTS))
def test_more_levels_than_the_cap_are_refused_at_once(entry):
    # refused by spin_algebra._check_dimension, as a ValueError, before any per-level allocation
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^dimension 2003 exceeds cap 2001$"):
        SIZED_ENTRY_POINTS[entry]()
    assert time.perf_counter() - start < 0.1


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
    # the grid evaluation keeps the order of operations of a single point, so
    # every value is bitwise that of the same spin and angle alone
    spins = [HalfInteger(two_j) for two_j in range(1, 61)]
    grid = [(j, theta) for j in spins for theta in STACK_ANGLES]  # 2j major
    tuned = [coupling_angle(j, theta) for j, theta in grid]
    stacked = protocols.simulate_strategies(spins, 0.5, STACK_ANGLES, tuned)
    assert _bits(list(zip(*stacked))) == _bits([simulate_optimal_qubit_strategy(j, theta) for j, theta in grid])
    # the MO quadrature stacks the spins too
    assert _bits(protocols.simulate_mo_strategies(spins, STACK_ANGLES)) == _bits([
        simulate_mo_strategy(j, theta) for j, theta in grid])
    # the default schedule folds each angle; a spin-1 target takes each angle
    # through the quartic, a spin-3/2 target through the chart search (one
    # angle: a family costs ~0.2 s), and 2j = 1, 2 (fewer than 2k+1 nonzero
    # Kraus operators) share the stack, their blocks zero-padded
    for two_k, thetas in ((1, STACK_ANGLES), (2, STACK_ANGLES), (3, [2.0])):
        spins = [HalfInteger(two_j) for two_j in ((1, 2, 7) if two_k == 3 else (1, 7, 40))]
        stacked = protocols.simulate_strategies(spins, two_k / 2, thetas)
        singles = [simulate_spin_k(j, two_k / 2, theta) for j in spins for theta in thetas]
        assert _bits(list(zip(*stacked))) == _bits(singles), two_k


def _bits(points):
    # the bytes of every float, so that -0.0 and 0.0 differ
    return np.array(points, dtype=float).tobytes()


def test_a_stack_names_the_angle_that_fails(monkeypatch, skew_kraus):
    thetas = [0.3, 2.0, PI]
    spins = [3, 4]
    # a non-finite interaction angle is an input error, refused before any block is built
    monkeypatch.setattr(protocols, "_strategy_kraus", lambda js, k, fs: _never_built(len(fs)))
    for f in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^theta = 2\.0: interaction angle f must be finite, got %r$" % f):
            protocols.simulate_strategies(spins, 0.5, thetas, [0.4, 0.9, 1.0, 0.4, f, 1.0])
    monkeypatch.undo()
    # the Kraus families of a grid are one stack, 2j major: 0 .. 2 the first
    # spin's angles, 3 .. 5 the second's
    for i, theta in enumerate(thetas * 2):
        skew_kraus(i)
        with pytest.raises(ToleranceError, match=r"^theta = %r: Kraus operators are not complete" % theta):
            protocols.simulate_strategies(spins, 0.5, thetas, [0.4, 0.9, 1.0] * 2)
        monkeypatch.undo()
    batch = channel_lab._fidelity_batch
    monkeypatch.setattr(channel_lab, "_fidelity_batch",
                        lambda mats, states: batch(mats, states) + (np.arange(len(states)) == 4) * 1e-9)
    with pytest.raises(ToleranceError, match=r"^theta = 2\.0: qubit quadratic differs"):
        protocols.simulate_strategies(spins, 0.5, thetas, thetas * 2)
    # a spin-1 target's worst cases are solved family by family and checked as one stack
    with pytest.raises(ToleranceError, match=r"^theta = 2\.0: spin-1 quartic differs"):
        protocols.simulate_strategies(spins, 1.0, thetas)


def test_a_grid_refuses_interaction_angles_of_another_shape(monkeypatch):
    # one f per point of the grid: no f is broadcast to a point it was not given,
    # and no point is evaluated twice; refused before any block is built
    monkeypatch.setattr(protocols, "_strategy_kraus", lambda js, k, fs: _never_built(len(fs)))
    for spins, thetas, fs, given in (
            ([3], [0.3, 2.0], [0.3], r"\(1,\)"),
            ([3], [0.3], [0.3, 2.0], r"\(2,\)"),
            ([3], [0.3, 2.0], [[0.3, 2.0]], r"\(1, 2\)"),  # a row per spin is not the grid's shape
            ([3, 4], [0.3], [0.3], r"\(1,\)"),
            ([3, 4], [0.3, 2.0], [[0.3, 2.0], [0.3, 2.0]], r"\(2, 2\)"),
            ([3], [0.3], 0.3, r"\(\)"),
            ([3], [0.3], [], r"\(0,\)"),
            ([1, 2], [0.3], [[0.3], [0.3, 2.0]], r"\(ragged\)")):  # no array shape at all
        want = r"^fs has shape %s, expected \(%d,\): one f per point of the %d x %d grid$" % (
            given, len(spins) * len(thetas), len(spins), len(thetas))
        with pytest.raises(ValueError, match=want):
            protocols.simulate_strategies(spins, 0.5, thetas, fs)
    # an f that is not a number is refused as a non-finite one is, by its point's theta
    for fs in (["a", 0.3], [None, 0.3]):
        want = r"^theta = 0\.3: interaction angle f must be a real number, got %r$" % fs[0]
        with pytest.raises(ValueError, match=want):
            protocols.simulate_strategies([1, 2], 0.5, [0.3], fs)


def test_the_worst_case_is_computed_only_when_asked():
    # without it the other fields are those of the full call
    spins, thetas = [3, 41], [0.3, 2.0, PI]
    full = protocols.simulate_strategies(spins, 0.5, thetas)
    assert protocols.simulate_strategies(spins, 0.5, thetas, worst_case=False) == full._replace(worst_case=None)
    assert protocols.simulate_strategies([3], 0.5, [], worst_case=False) == ([], [], None)


def test_an_empty_grid_gives_empty_lists():
    assert protocols.simulate_strategies([3], 0.5, []) == ([], [], [])
    assert protocols.simulate_strategies([3, 4], 1.0, [], []) == ([], [], [])
    assert protocols.simulate_strategies([], 0.5, [0.3, 2.0]) == ([], [], [])
    assert protocols.simulate_strategies([], 0.5, [0.3], []) == ([], [], [])
    assert protocols.simulate_mo_strategies([3], []) == []
    assert protocols.simulate_mo_strategies([], [0.3]) == []
