import itertools
import math
import re
import sys
import threading
import time

import numpy as np
import pytest

from spinbench import channel_lab, covariant_opt
from spinbench.channel_lab import (
    KrausChannel,
    ProgramChannel,
    average_fidelity_from_entanglement,
    average_fidelity_mc,
    entanglement_fidelity,
    haar_direction,
    haar_state,
    worst_case_fidelity,
)
from spinbench.closed_forms import coupling_angle, optimal_fidelity
from spinbench.protocols import _strategy_kraus, heisenberg_gate
from spinbench.spin_algebra import (
    Direction,
    HalfInteger,
    ToleranceError,
    X_AXIS,
    Z_AXIS,
    make_spin_operators,
    rotation_unitary,
    spin_coherent_state,
)


def _qubit_channel(j=HalfInteger(3), theta=2.0):
    u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))
    return ProgramChannel(u, spin_coherent_state(j, Z_AXIS), j, HalfInteger(1))


def _kraus_sum(ch, psi):
    """The channel's output sum_a K_a psi psi^dag K_a^dag on a pure input."""
    k = ch.kraus_operators()
    return np.einsum("aij,j,akl,l->ik", k, psi, k.conj(), psi.conj())


def test_channel_boundary_rejects_nan():
    j, half = HalfInteger(2), HalfInteger(1)
    u = np.eye(6, dtype=complex)
    u[2, 3] = math.nan
    for _ in range(2):  # a refused gate is checked again
        with pytest.raises(ValueError, match="not unitary"):
            ProgramChannel(u, np.array([1.0, 0, 0]), j, half)
    with pytest.raises(ValueError, match="not normalized"):
        ProgramChannel(np.eye(6), np.array([1.0, math.nan, 0]), j, half)
    for k in (HalfInteger(1), HalfInteger(2)):
        d = k.doubled + 1
        ch = ProgramChannel(np.eye(3 * d), np.array([1.0, 0, 0]), HalfInteger(2), k)
        gate = np.eye(d, dtype=complex)
        gate[0, 1] = math.nan
        with pytest.raises(ValueError, match="unitary"):
            worst_case_fidelity(ch, gate)
        with pytest.raises(ValueError, match="unitary"):
            entanglement_fidelity(ch, gate)


def test_program_channel_rejects_bad_shapes():
    j = HalfInteger(2)
    with pytest.raises(ValueError):
        ProgramChannel(np.eye(5), np.array([1.0, 0, 0]), j, HalfInteger(1))
    with pytest.raises(ValueError):
        ProgramChannel(2 * np.eye(6), np.array([1.0, 0, 0]), j, HalfInteger(1))
    with pytest.raises(ValueError):
        ProgramChannel(np.eye(6), np.array([1.0, 1.0, 0]), j, HalfInteger(1))  # not normalized
    with pytest.raises(ValueError, match=r"program state dimension 2 != 2j\+1 = 3"):
        ProgramChannel(np.eye(6), np.array([1.0, 0]), j, HalfInteger(1))


@pytest.fixture
def unitarity_products(monkeypatch):
    """The gates ProgramChannel multiplies out from here on, starting from an
    empty memo of verified gates."""
    error, products = channel_lab._unitarity_error, []

    def counted(u):
        products.append(u.shape)
        return error(u)

    monkeypatch.setattr(channel_lab, "_unitarity_error", counted)
    monkeypatch.setattr(channel_lab, "_verified_unitary", [None])
    return products


def test_a_verified_gate_changed_in_place_is_refused(unitarity_products):
    j, k = HalfInteger(3), HalfInteger(1)
    u, phi = heisenberg_gate(j, k, 1.1), spin_coherent_state(j, Z_AXIS)
    ProgramChannel(u, phi, j, k)
    u[0, 0] += 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        ProgramChannel(u, phi, j, k)
    assert len(unitarity_products) == 2


def test_a_copy_of_a_verified_gate_is_not_multiplied_again(unitarity_products):
    j, k = HalfInteger(3), HalfInteger(1)
    u, phi = heisenberg_gate(j, k, 1.1), spin_coherent_state(j, Z_AXIS)
    first = ProgramChannel(u, phi, j, k)
    for same in (u.copy(), np.asfortranarray(u), u.tolist()):
        again = ProgramChannel(same, phi, j, k)
        assert np.array_equal(again.kraus_operators(), first.kraus_operators())
    assert len(unitarity_products) == 1
    # the memo holds one gate: another one displaces it
    ProgramChannel(heisenberg_gate(j, k, 1.2), phi, j, k)
    ProgramChannel(u, phi, j, k)
    assert len(unitarity_products) == 3


def test_a_channel_keeps_its_own_read_only_gate(unitarity_products):
    j, k = HalfInteger(3), HalfInteger(1)
    u, phi = heisenberg_gate(j, k, 1.1), spin_coherent_state(j, Z_AXIS)
    want = u.copy()
    ch = ProgramChannel(u, phi, j, k)
    kraus = ch.kraus_operators().copy()
    u[0, 0] = 5.0
    assert ch.joint_unitary is not u
    assert np.array_equal(ch.joint_unitary, want)
    assert np.array_equal(ch.kraus_operators(), kraus)
    assert not ch.joint_unitary.flags.writeable
    with pytest.raises(ValueError):
        ch.joint_unitary[0, 0] = 5.0
    # the check ran on the copy, which is what the memo now holds
    ProgramChannel(want, phi, j, k)
    assert len(unitarity_products) == 1


def test_a_channel_keeps_its_own_read_only_program_state():
    j, k = HalfInteger(3), HalfInteger(1)
    u, phi = heisenberg_gate(j, k, 1.1), spin_coherent_state(j, Direction.normalized(0.3, -0.4, 0.86))
    want = phi.copy()
    ch = ProgramChannel(u, phi, j, k)
    gate = rotation_unitary(make_spin_operators(k), Z_AXIS, 2.0)
    phi[:] = spin_coherent_state(j, X_AXIS)  # before the Kraus operators are first built
    assert ch.program_state is not phi
    assert np.array_equal(ch.program_state, want)
    assert not ch.program_state.flags.writeable
    with pytest.raises(ValueError):
        ch.program_state[0] = 1.0
    fresh = ProgramChannel(u, want, j, k)
    assert np.array_equal(ch.kraus_operators(), fresh.kraus_operators())
    assert entanglement_fidelity(ch, gate) == entanglement_fidelity(fresh, gate)
    # a builder whose channels share the caller's array
    shared = spin_coherent_state(j, Z_AXIS)
    built = []

    def builder(n):
        shared[:] = spin_coherent_state(j, n)
        built.append(ProgramChannel(u, shared, j, k))
        return built[-1]

    def copying_builder(n):
        return ProgramChannel(u, spin_coherent_state(j, n), j, k)

    assert average_fidelity_mc(builder, 2.0, 20, seed=4) == average_fidelity_mc(copying_builder, 2.0, 20, seed=4)
    assert len({ch.program_state.tobytes() for ch in built}) == 20


def test_channels_built_from_equal_gates_share_one_read_only_gate(unitarity_products):
    j, k = HalfInteger(3), HalfInteger(1)
    u = heisenberg_gate(j, k, 1.1)
    channels = [ProgramChannel(same, spin_coherent_state(j, n), j, k)
                for same in (u, u.copy(), np.asfortranarray(u))
                for n in (Z_AXIS, X_AXIS)]
    assert all(ch.joint_unitary is channels[0].joint_unitary for ch in channels)
    assert channels[0].joint_unitary is not u
    assert not channels[0].joint_unitary.flags.writeable
    assert np.array_equal(channels[0].joint_unitary, u)
    assert len(unitarity_products) == 1
    other = ProgramChannel(heisenberg_gate(j, k, 1.2), spin_coherent_state(j, Z_AXIS), j, k)
    assert other.joint_unitary is not channels[0].joint_unitary


def test_threads_sharing_the_memo_never_accept_a_non_unitary_gate():
    # each thread alternates its own unitary gate with a non-unitary one of
    # the same shape, so the memo changes hands while others compare against it
    j, k = HalfInteger(3), HalfInteger(1)
    phi = spin_coherent_state(j, Z_AXIS)
    errors, done = [], []

    def work(i):
        good = heisenberg_gate(j, k, 0.1 * (i + 1))
        bad = good.copy()
        bad[i, i] += 1e-9
        for _ in range(300):
            ProgramChannel(good, phi, j, k)
            try:
                ProgramChannel(bad, phi, j, k)
            except ValueError:
                continue
            errors.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(6)) and errors == []


def test_kraus_channel_validates_and_is_accepted():
    ch = _qubit_channel()
    kraus = KrausChannel(ch.kraus_operators())
    assert kraus.target_dim == 2
    v = rotation_unitary(make_spin_operators(0.5), Z_AXIS, 2.0)
    assert entanglement_fidelity(kraus, v) == entanglement_fidelity(ch, v)
    assert worst_case_fidelity(kraus, v)[0] == worst_case_fidelity(ch, v)[0]
    for bad in (np.eye(2), np.zeros((0, 2, 2)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(bad)
    for bad in (2 * np.eye(2)[None], np.eye(2)[None] * math.nan, ch.kraus_operators()[:1]):
        with pytest.raises(ValueError, match="not complete"):
            KrausChannel(bad)


def test_kraus_completeness():
    ch = _qubit_channel()
    k = ch.kraus_operators()
    total = np.einsum("aji,ajl->il", k.conj(), k)
    assert np.abs(total - np.eye(ch.target_dim)).max() < 1e-12


def test_apply_preserves_trace_and_positivity():
    ch = _qubit_channel()
    rng = np.random.default_rng(3)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    out = _kraus_sum(ch, z / np.linalg.norm(z))
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_identity_channel_fidelities():
    # program coupled at f=0: nothing happens, channel is the identity
    j = HalfInteger(3)
    ch = ProgramChannel(np.eye(8, dtype=complex), spin_coherent_state(j, Z_AXIS),
                        j, HalfInteger(1))
    assert abs(entanglement_fidelity(ch, np.eye(2)) - 1.0) < 1e-13
    value, state = worst_case_fidelity(ch, np.eye(2), grid=8)
    assert value > 1.0 - 1e-9
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_average_from_entanglement_relation():
    assert abs(average_fidelity_from_entanglement(9 / 16, 2) - 17 / 24) < 1e-15
    assert abs(average_fidelity_from_entanglement(1.0, 5) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        average_fidelity_from_entanglement(0.5, 1)


def test_the_worst_case_of_a_one_level_target_is_refused():
    # as average_fidelity_from_entanglement refuses d < 2, before a route is picked
    with pytest.raises(ValueError, match="^d must be >= 2$"):
        worst_case_fidelity(KrausChannel(np.ones((1, 1, 1))), np.eye(1))


def test_worst_case_below_average():
    j, theta = HalfInteger(3), math.pi
    ch = _qubit_channel(j, theta)
    v = rotation_unitary(make_spin_operators(0.5), Z_AXIS, theta)
    fe = entanglement_fidelity(ch, v)
    favg = average_fidelity_from_entanglement(fe, 2)
    fw, _ = worst_case_fidelity(ch, v)
    assert fw <= favg + 1e-12
    assert 0.0 <= fw <= 1.0


def _programmed_mats(two_j, theta, n):
    # V^dag K_a of the tuned exchange channel, the operators the worst case reads
    j = HalfInteger(two_j)
    ch = ProgramChannel(heisenberg_gate(j, 0.5, coupling_angle(j, theta)),
                        spin_coherent_state(j, n), j, HalfInteger(1))
    v = rotation_unitary(make_spin_operators(0.5), n, theta)
    return v.conj().T @ ch.kraus_operators()


def _random_qubit_kraus(rng):
    # Kraus operators of a random isometry from C^2 into C^A (x) C^2
    a = int(rng.integers(1, 6))
    z = rng.standard_normal((2 * a, 2)) + 1j * rng.standard_normal((2 * a, 2))
    return np.linalg.qr(z)[0].reshape(a, 2, 2)


def _fidelity_of(mats, psi):
    return sum(abs(np.vdot(psi, m @ psi)) ** 2 for m in mats)


def _assert_real_state(mats, value, state):
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert abs(_fidelity_of(mats, state) - value) < 1e-12


_COMPASS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _qubit_chart_minima(families):
    """Upper bounds on min F over qubit states, for a stack of same-shape
    families M_a: the three best points of the chart grid `_chart_search(mats,
    24)` starts from, each refined by a compass search on the chart until its
    step is below that search's Nelder-Mead xatol of 1e-10.  Every bound is F
    at a real state, and all families are searched at once."""
    flat = families.reshape(len(families), -1, 4).swapaxes(1, 2)

    def fidelity(x):  # F at the chart points x[n, ..., :] of family n
        psi = channel_lab._chart_states(x.reshape(-1, 2), 2).reshape(len(x), -1, 2)
        rho = (psi.conj()[..., :, None] * psi[..., None, :]).reshape(len(x), -1, 4)
        return np.sum(np.abs(rho @ flat) ** 2, axis=-1).reshape(x.shape[:-1])

    axes = np.meshgrid(*channel_lab._chart_axes(2, 1, False, 24), indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1)
    values = fidelity(np.broadcast_to(grid, (len(families),) + grid.shape))
    best = np.argsort(values, axis=1)[:, :3]
    x, f = grid[best], np.take_along_axis(values, best, axis=1)
    step = np.full(f.shape, np.pi / 24)
    while (step > 1e-10).any():
        trials = x[..., None, :] + step[..., None, None] * _COMPASS
        values = fidelity(trials)
        k = values.argmin(axis=-1)[..., None]
        moved = np.take_along_axis(values, k, axis=-1)[..., 0]
        better = moved < f
        to = np.take_along_axis(trials, k[..., None], axis=-2)[..., 0, :]
        x = np.where(better[..., None], to, x)
        f = np.where(better, moved, f)
        step = np.where(better, step, step / 2)
    return f.min(axis=1)


def test_qubit_minimum_never_above_chart_search():
    # the chart search evaluates real states, so it bounds the minimum from
    # above; the programmed channels are covariant, which makes Q degenerate
    rng = np.random.default_rng(5)
    cases = [_random_qubit_kraus(rng) for _ in range(200)]
    tilted = Direction.normalized(0.3, -0.5, 0.8)
    cases += [_programmed_mats(two_j, theta, n)
              for two_j in (1, 2, 3, 4, 7, 40, 300)
              for theta in (0.3, 0.7, 1.2, 2.0, 2.6, 3.0, math.pi)
              for n in (Z_AXIS, X_AXIS, tilted)]
    assert len(cases) == 347
    for count in sorted({len(mats) for mats in cases}):
        families = np.stack([mats for mats in cases if len(mats) == count])
        values = np.empty(len(families))
        for i, mats in enumerate(families):
            values[i], state = channel_lab._qubit_minimum(mats)
            _assert_real_state(mats, values[i], state)
        gaps = values - _qubit_chart_minima(families)
        assert np.all(gaps <= 1e-12), gaps.max()


def test_qubit_minimum_hard_cases():
    _, sx, sy, sz = channel_lab.PAULI
    eye = np.eye(2)
    a, s, u = 0.3, 0.6, 0.9
    cases = [
        # identity channel: Q = 0 and b = 0
        ([eye], 1.0),
        # F = (a + s z)^2: b is orthogonal to the lowest eigenspace (the x-y
        # plane) and the stationary point z = -a/s lies inside the sphere
        ([a * eye + s * sz], 0.0),
        # F = (a + s x)^2 + u^2 y^2 + u^2 z^2: b lies wholly in the lowest
        # eigenspace, and the minimum is at x = -1
        ([a * eye + s * sx, u * sy, u * sz], (a - s) ** 2),
    ]
    rng = np.random.default_rng(2)
    half = make_spin_operators(0.5)
    for mats, want in cases:
        mats = np.array(mats, dtype=complex)
        # in a rotated frame the degenerate directions are only degenerate to rounding
        w = rotation_unitary(half, Direction.normalized(*rng.standard_normal(3)), 1.1)
        for ms in (mats, w @ mats @ w.conj().T):
            value, state = channel_lab._qubit_minimum(ms)
            _assert_real_state(ms, value, state)
            assert abs(value - want) < 1e-12


def test_qubit_worst_case_needs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the qubit worst case must not search")

    monkeypatch.setattr(channel_lab, "minimize", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    ch = _qubit_channel()
    v = rotation_unitary(make_spin_operators(0.5), Z_AXIS, 2.0)
    value, state = worst_case_fidelity(ch, v)
    _assert_real_state(v.conj().T @ ch.kraus_operators(), value, state)


def test_scipy_is_reached_through_the_module_names():
    # the tracer patches these names; a direct scipy import would bypass it
    assert channel_lab.minimize.__module__ == "spinbench.channel_lab"
    assert covariant_opt.minimize is channel_lab.minimize


def _random_qubit_one_diagonal(rng, offsets):
    # one or two diagonal operators and one on each diagonal of `offsets`,
    # with its columns scaled to complete the family, seen through a random
    # diagonal V; every one of them stays on its diagonal
    ops = [np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
           for _ in range(rng.integers(1, 3))]
    ops += [np.diag(rng.standard_normal(1) + 1j * rng.standard_normal(1), k=s) for s in offsets]
    k = np.array(ops)
    k /= np.sqrt(np.einsum("aji,aji->i", k.conj(), k).real)
    v = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2)))
    return v.conj().T @ KrausChannel(k).kraus_operators()


def _assert_matches_bloch_route(mats, tolerance=1e-15):
    """The one-diagonal route's minimum, checked against the Bloch route's to
    `tolerance` (so never above it by more); returns x = |psi_0|^2 of its state."""
    assert channel_lab._on_one_diagonal(mats)
    value, state = channel_lab._qubit_one_diagonal_minimum(mats)
    _assert_real_state(mats, value, state)
    assert abs(value - channel_lab._qubit_minimum(mats)[0]) <= tolerance
    return abs(state[0]) ** 2


def test_qubit_one_diagonal_minimum_matches_the_bloch_route():
    # both routes return F summed at their own state, each up to ~5.6e-16
    # from the minimum at 50 digits, and at times on opposite sides: over
    # 10^4 families of this kind the routes differed by up to 1.1e-15
    rng = np.random.default_rng(23)
    xs = [_assert_matches_bloch_route(_random_qubit_one_diagonal(rng, offsets), 2e-15)
          for offsets in ([], [1], [-1], [1, -1], [1, 1, -1]) for _ in range(60)]
    interior = sum(0.0 < x < 1.0 for x in xs)
    assert 0 < interior < len(xs)  # interior minima and minima at x = 0 or 1
    e00, e01, e10, e11 = np.eye(4).reshape(4, 2, 2)
    c, s = math.sqrt(0.3), math.sqrt(0.7)
    cases = [
        ([np.eye(2)], 1.0, 0.0),  # identity channel: F = 1 for every x
        ([e01, e10], 0.0, 0.0),  # F = 2x(1 - x): a tie of x = 0 and x = 1
        ([c * np.eye(2), s * e01, s * e10], 0.3, 0.0),  # F = c^2 + 2 s^2 x (1 - x), a tie
        ([e00, e01], 0.0, 0.0),  # only M_01: F = x
        ([e11, e10], 0.0, 1.0),  # only M_10: F = 1 - x
        ([np.diag([1.0, -1.0])], 0.0, 0.5),  # F = (2x - 1)^2, an interior minimum
        ([e01], 0.0, 0.0),  # F = x (1 - x) of a lone M_01, not a channel
    ]
    for mats, want, x in cases:
        mats = np.array(mats, dtype=complex)
        assert abs(_assert_matches_bloch_route(mats) - x) < 1e-15
        assert abs(channel_lab._qubit_one_diagonal_minimum(mats)[0] - want) < 1e-15


def test_qubit_one_diagonal_minimum_on_the_strategy_channels():
    half = HalfInteger(1)
    for two_j in range(1, 61):
        j = HalfInteger(two_j)
        for theta in np.linspace(0.0, np.pi, 12):
            v = np.diag(np.exp(-1j * theta * np.array([0.5, -0.5])))
            for f in (coupling_angle(j, theta), theta):
                _assert_matches_bloch_route(v.conj().T @ _strategy_kraus([j], half, [f])[0])


def test_qubit_worst_case_takes_the_bloch_route_off_one_diagonal(monkeypatch):
    routes = []
    for name in ("_qubit_minimum", "_qubit_one_diagonal_minimum"):
        route = getattr(channel_lab, name)
        monkeypatch.setattr(channel_lab, name,
                            lambda mats, name=name, route=route: routes.append(name) or route(mats))
    ch = _qubit_channel()
    for n in (Z_AXIS, X_AXIS):
        worst_case_fidelity(ch, rotation_unitary(make_spin_operators(0.5), n, 2.0))
    assert routes == ["_qubit_one_diagonal_minimum", "_qubit_minimum"]


def _spin_one_mats(two_j, theta, f):
    # V^dag K_a of the exchange strategy on a spin-1 target in the program's frame
    k = HalfInteger(2)
    v = rotation_unitary(make_spin_operators(k), Z_AXIS, theta)
    return v.conj().T @ _strategy_kraus([HalfInteger(two_j)], k, [f])[0]


def _random_one_diagonal(rng):
    # a diagonal operator and one to four on random diagonals; sum_a K_a^dag K_a
    # is then diagonal, so scaling the columns completes the family
    ops = [np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))]
    for offset in rng.integers(-2, 3, size=rng.integers(1, 5)):
        size = 3 - abs(offset)
        ops.append(np.diag(rng.standard_normal(size) + 1j * rng.standard_normal(size), k=offset))
    k = np.array(ops)
    return KrausChannel(k / np.sqrt(np.einsum("aji,aji->i", k.conj(), k).real))


def _haar_states(rng, count, dim):
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def test_spin_one_minimum_never_above_chart_search():
    cases = [(two_j, theta, f) for two_j in (1, 2, 3, 7, 40, 300, 999)
             for theta, f in ((0.7, 0.7), (2.0, 2.0), (math.pi, math.pi), (2.0, 0.4))]
    for two_j, theta, f in cases:
        mats = _spin_one_mats(two_j, theta, f)
        value, state = channel_lab._spin_one_minimum(mats)
        _assert_real_state(mats, value, state)
        assert value <= channel_lab._chart_search(mats, 16)[0] + 1e-12


def test_spin_one_minimum_below_every_sampled_state():
    rng = np.random.default_rng(13)
    families = [_random_one_diagonal(rng) for _ in range(59)]
    gaps = []
    # the chart search misses the last family's minimum by 1.1e-3; such a
    # miss is rare, about one family in 40
    for ch in families[:11] + families[-1:]:
        mats = ch.kraus_operators()
        value, state = worst_case_fidelity(ch, np.eye(3))
        _assert_real_state(mats, value, state)
        assert value <= channel_lab._fidelity_batch(mats, _haar_states(rng, 10**5, 3)).min() + 1e-12
        gaps.append(channel_lab._chart_search(mats, 16)[0] - value)
    assert min(gaps) >= -1e-12
    assert max(gaps) > 1e-6


def test_spin_one_minimum_degenerate_families():
    e = np.eye(3)
    omega = np.exp(2j * math.pi / 3)
    cases = [
        # identity channel: T = 0 and F = 1 everywhere
        ([e], 1.0),
        # diagonal only: F = |w.m|^2 vanishes inside the simplex at w = 1/3
        ([np.diag([1.0, omega, omega**2])], 0.0),
        # diagonal only, F = (w_0 - w_1)^2 + w_2^2
        ([np.diag([1.0, -1.0, 1j])], 0.0),
        # offset +-2 only, F = 2 w_0 w_2
        ([np.outer(e[0], e[2]), np.outer(e[2], e[0])], 0.0),
        # offset +-2 with a diagonal, F = 2 w_0 w_2 + 1
        ([np.outer(e[0], e[2]), np.outer(e[2], e[0]), e], 1.0),
        # offset +1 only: P > 0 and T = 0, F = w_0 w_1
        ([np.outer(e[0], e[1])], 0.0),
    ]
    for mats, want in cases:
        mats = np.array(mats, dtype=complex)
        assert channel_lab._on_one_diagonal(mats)
        value, state = channel_lab._spin_one_minimum(mats)
        _assert_real_state(mats, value, state)
        assert abs(value - want) < 1e-12
    value, state = worst_case_fidelity(KrausChannel(np.eye(3)[None]), np.eye(3))
    assert value == 1.0 and abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_spin_one_worst_case_needs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the spin-1 worst case must not search")

    monkeypatch.setattr(channel_lab, "minimize", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    j, k = HalfInteger(4), HalfInteger(2)
    ch = ProgramChannel(heisenberg_gate(j, k, 2.0), spin_coherent_state(j, Z_AXIS), j, k)
    v = rotation_unitary(make_spin_operators(k), Z_AXIS, 2.0)
    value, state = worst_case_fidelity(ch, v, grid=4)  # the grid is the chart search's only
    _assert_real_state(v.conj().T @ ch.kraus_operators(), value, state)
    k = HalfInteger(3)  # which refuses it on a d = 4 target
    ch = ProgramChannel(heisenberg_gate(j, k, 2.0), spin_coherent_state(j, Z_AXIS), j, k)
    with pytest.raises(ValueError, match="grid must be >= 8"):
        worst_case_fidelity(ch, rotation_unitary(make_spin_operators(k), Z_AXIS, 2.0), grid=4)
    cyclic = np.eye(3)[[1, 2, 0]]  # sends the identity family off one diagonal, onto the chart
    for grid in (8.5, 16.0, "16", None, True):
        with pytest.raises(ValueError, match="^grid must be an integer, got %s$" % re.escape(repr(grid))):
            worst_case_fidelity(KrausChannel(np.eye(3)[None]), cyclic, grid=grid)


@pytest.mark.parametrize("shift", [1e-9, math.nan])
@pytest.mark.parametrize("route", ["_qubit_minimum", "_qubit_one_diagonal_minimum",
                                   "_spin_one_minimum"])
def test_minimum_routes_check_their_value(monkeypatch, route, shift):
    # a state fidelity that disagrees with the route's closed form, or is NaN, is an error;
    # the routes claim, and the dispatcher checks each claim, naming the route and the family
    mats, name = {"_qubit_minimum": lambda: (_programmed_mats(6, 2.0, X_AXIS), "Bloch quadratic"),
                  "_qubit_one_diagonal_minimum": lambda: (_programmed_mats(6, 2.0, Z_AXIS), "qubit quadratic"),
                  "_spin_one_minimum": lambda: (_spin_one_mats(6, 2.0, 2.0), "spin-1 quartic")}[route]()
    stack = np.stack([mats, mats])
    batch = channel_lab._fidelity_batch
    monkeypatch.setattr(channel_lab, "_fidelity_batch",
                        lambda mats, states: batch(mats, states) + np.where(np.arange(len(states)) == 1, shift, 0.0))
    with pytest.raises(ToleranceError, match="^%s differs from F on its state" % name) as exc:
        channel_lab._worst_cases(stack)
    assert exc.value.index == 1


def _symmetric_isometry(n):
    # columns: the normalized symmetric states of n spin-1 copies, one per
    # occupation (n_0, n_1, n_2)
    words = np.array(list(itertools.product(range(3), repeat=n)))
    counts = np.stack([np.sum(words == i, axis=1) for i in range(3)], axis=1)
    column = np.unique(counts, axis=0, return_inverse=True)[1].ravel()
    iso = np.zeros((3**n, column.max() + 1))
    iso[np.arange(3**n), column] = 1.0
    return iso / np.sqrt(iso.sum(axis=0))


def _doherty_wehner_bound(mats, n):
    # F(psi) = <psi psi|X|psi psi> with X = sum_a M_a (x) M_a^dag, so F is at
    # least the lowest eigenvalue of the Hermitian part of X (x) I on the
    # symmetric subspace of n copies, which holds psi^(x)n; the bound rises
    # with n (Doherty & Wehner 2012, arXiv:1210.5048)
    x = sum(np.kron(m, m.conj().T) for m in mats)
    herm = (x + x.conj().T) / 2
    iso = _symmetric_isometry(n)
    lifted = (herm @ iso.reshape(9, -1)).reshape(iso.shape)
    return np.linalg.eigvalsh(iso.T @ lifted).min()


def test_spin_one_minimum_above_the_doherty_wehner_bound():
    rng = np.random.default_rng(17)
    families = [_spin_one_mats(41, math.pi, math.pi)]
    families += [_random_one_diagonal(rng).kraus_operators() for _ in range(3)]
    for mats in families:
        exact = channel_lab._spin_one_minimum(mats)[0]
        bounds = [_doherty_wehner_bound(mats, n) for n in range(2, 7)]
        assert max(bounds) <= exact + 1e-12
        assert np.all(np.diff(bounds) >= -1e-12)


def _chart_state_loop(x, dim):
    # one point at a time: the reference for the array construction
    mags, phases = x[: dim - 1], x[dim - 1 :]
    amps = np.empty(dim, dtype=complex)
    rest = 1.0
    for i in range(dim - 1):
        amps[i] = np.sqrt(rest) * np.cos(mags[i])
        rest = rest * np.sin(mags[i]) ** 2
    amps[dim - 1] = np.sqrt(max(rest, 0.0))
    amps[1:] *= np.exp(1j * phases)
    return amps


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chart_states_match_point_by_point_loop(dim):
    x = np.random.default_rng(dim).uniform(-7.0, 7.0, (5000, 2 * (dim - 1)))
    want = np.array([_chart_state_loop(p, dim) for p in x])
    assert np.array_equal(channel_lab._chart_states(x, dim), want)


def test_monte_carlo_matches_closed_form():
    j, theta = HalfInteger(3), 2.0
    u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))

    def builder(n):
        return ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1))

    mean, stderr = average_fidelity_mc(builder, theta, 20000, seed=7)
    ref = optimal_fidelity(j.value, theta).value
    assert abs(mean - ref) < 4 * stderr
    assert stderr < 2e-3


def test_swap_replaces_target_with_program():
    # U = SWAP with program |1/2,1/2>: every input comes out as |0><0|
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    half = HalfInteger(1)
    ch = ProgramChannel(swap, np.array([1.0, 0.0]), half, half)
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = _kraus_sum(ch, z / np.linalg.norm(z))
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-14


def test_depolarizing_channel_entanglement_fidelity():
    # controlled-Pauli joint unitary with a uniform program gives Kraus {sigma_a/2},
    # the completely depolarizing qubit channel
    paulis = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
              np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0])]
    u = np.zeros((8, 8), dtype=complex)
    for a, sigma in enumerate(paulis):
        u[2 * a:2 * a + 2, 2 * a:2 * a + 2] = sigma
    ch = ProgramChannel(u, np.full(4, 0.5), HalfInteger(3), HalfInteger(1))
    out = _kraus_sum(ch, np.array([1.0, 0.0]))
    assert np.abs(out - np.eye(2) / 2.0).max() < 1e-14
    for gate in (np.eye(2), rotation_unitary(make_spin_operators(0.5), Z_AXIS, 1.2)):
        assert abs(entanglement_fidelity(ch, gate) - 0.25) < 1e-13
    assert abs(average_fidelity_from_entanglement(0.25, 2) - 0.5) < 1e-15


def test_monte_carlo_sample_is_the_worst_case_objective():
    # a sample's <V psi| sum_a K_a psi psi^dag K_a^dag |V psi> is F(psi) of
    # the worst-case objective with M_a = V^dag K_a
    rng = np.random.default_rng(5)
    j = HalfInteger(3)
    for two_k in (1, 2, 3):
        k = HalfInteger(two_k)
        d = two_k + 1
        for _ in range(20):
            n = Direction.normalized(*haar_direction(rng))
            z = rng.standard_normal((4 * d, 4 * d)) + 1j * rng.standard_normal((4 * d, 4 * d))
            for u in (heisenberg_gate(j, k, rng.uniform(0, 2 * math.pi)), np.linalg.qr(z)[0]):
                ch = ProgramChannel(u, spin_coherent_state(j, n), j, k)
                v = rotation_unitary(make_spin_operators(k), n, rng.uniform(0, 2 * math.pi))
                psi = haar_state(rng, d)
                ideal = v @ psi
                oracle = (ideal.conj() @ _kraus_sum(ch, psi) @ ideal).real
                got = channel_lab._fidelity_batch(v.conj().T @ ch.kraus_operators(), psi[None, :])[0]
                assert abs(got - oracle) < 1e-14


def test_monte_carlo_is_seed_deterministic():
    j, theta = HalfInteger(2), 1.3
    u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))

    def builder(n):
        return ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1))

    a = average_fidelity_mc(builder, theta, 500, seed=42)
    b = average_fidelity_mc(builder, theta, 500, seed=42)
    c = average_fidelity_mc(builder, theta, 500, seed=43)
    assert a == b
    assert a != c


def _mc_by_sample(ch_builder, theta, samples, seed):
    """average_fidelity_mc one sample at a time, in its draw order: every
    direction, then every state; one channel is held at a time."""
    rng = np.random.default_rng(seed)
    axes = [Direction(*haar_direction(rng)) for _ in range(samples)]
    values = []
    for n in axes:
        ch = ch_builder(n)
        psi = haar_state(rng, ch.target_dim)
        v = rotation_unitary(make_spin_operators(ch.k), n, theta)
        values.append(channel_lab._fidelity_batch(v.conj().T @ ch.kraus_operators(), psi[None, :])[0])
    values = np.array(values)
    return values.mean(), (values.std(ddof=1) / math.sqrt(samples) if samples > 1 else 0.0)


@pytest.mark.parametrize("two_k", [1, 2, 3])
@pytest.mark.parametrize("gate", ["exchange", "random"])
@pytest.mark.parametrize("samples", [1, 7])
def test_monte_carlo_matches_sample_by_sample_loop(two_k, gate, samples):
    j, k, theta = HalfInteger(3), HalfInteger(two_k), 2.0
    rng = np.random.default_rng(10 * two_k + samples)
    dim = 4 * (two_k + 1)
    if gate == "exchange":
        u = heisenberg_gate(j, k, rng.uniform(0, 2 * math.pi))
    else:
        u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]

    def builder(n):
        return ProgramChannel(u, spin_coherent_state(j, n), j, k)

    mean, stderr = average_fidelity_mc(builder, theta, samples, seed=samples)
    want_mean, want_stderr = _mc_by_sample(builder, theta, samples, seed=samples)
    assert abs(mean - want_mean) <= 1e-14 and abs(stderr - want_stderr) <= 1e-14
    if samples == 1:
        assert stderr == 0.0


@pytest.mark.parametrize("later", [(HalfInteger(3), HalfInteger(2)),   # another target dimension
                                   (HalfInteger(2), HalfInteger(1))])  # another Kraus count
def test_monte_carlo_refuses_a_channel_of_another_shape(later):
    built = []

    def builder(n):
        j, k = (HalfInteger(3), HalfInteger(1)) if not built else later
        built.append(n)
        u = heisenberg_gate(j, k, 1.0)
        return ProgramChannel(u, spin_coherent_state(j, n), j, k)

    with pytest.raises(ValueError, match="^sample 1: "):
        average_fidelity_mc(builder, 2.0, 5, seed=1)
    assert len(built) == 2


def test_monte_carlo_refused_at_sample_1_converts_no_other_axis():
    import tracemalloc

    samples, built = 200_000, []

    def builder(n):
        j = HalfInteger(3) if not built else HalfInteger(2)
        built.append(n)
        return ProgramChannel(heisenberg_gate(j, HalfInteger(1), 1.0), spin_coherent_state(j, n), j, HalfInteger(1))

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^sample 1: "):
            average_fidelity_mc(builder, 2.0, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 2
    # the axes and the program states take 24 + 64 bytes a sample; every axis
    # as a list of Python floats would add about 150
    assert peak < samples * 120


def test_monte_carlo_refuses_an_over_budget_run_before_it_starts():
    built = []

    def builder(n):
        built.append(n)
        return _qubit_channel()

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the budget"):
        average_fidelity_mc(builder, 2.0, 10**12, seed=1)
    assert time.perf_counter() - t0 < 1.0
    assert len(built) <= 1
    for samples in (2.5, 20000.0, "20000", None, 0, -3, True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            average_fidelity_mc(builder, 2.0, samples, seed=1)
    # criterion 8's run, 1e5 samples x 4 Kraus operators x 2^2 entries, fits
    assert 10**5 * 4 * 2**2 <= channel_lab.MC_BUDGET


def test_monte_carlo_multiplies_one_gate_out_once_per_call(unitarity_products):
    j, theta = HalfInteger(3), 2.0
    a, b = (heisenberg_gate(j, 0.5, coupling_angle(j.value, t)) for t in (theta, 1.0))
    counts = []
    for u in (a, b, a):  # each call starts with the other gate in the memo
        unitarity_products.clear()
        average_fidelity_mc(lambda n: ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1)),
                            theta, 200, seed=3)
        counts.append(len(unitarity_products))
    assert counts == [1, 1, 1]


def _gate_per_axis(j, k):
    """A builder whose channel's gate depends on the sample's axis."""
    def builder(n):
        return ProgramChannel(heisenberg_gate(j, k, 2.0 + n.nx), spin_coherent_state(j, n), j, k)
    return builder


@pytest.mark.parametrize("two_k", [1, 2])
def test_monte_carlo_with_a_gate_per_sample_matches_sample_by_sample_loop(two_k):
    j, k, theta = HalfInteger(3), HalfInteger(two_k), 2.0
    builder = _gate_per_axis(j, k)
    mean, stderr = average_fidelity_mc(builder, theta, 40, seed=2)
    want_mean, want_stderr = _mc_by_sample(builder, theta, 40, seed=2)
    assert abs(mean - want_mean) <= 1e-14 and abs(stderr - want_stderr) <= 1e-14
    # one gate for the first five samples, another one from then on
    built = []

    def two_gates(n):
        u = heisenberg_gate(j, k, 1.0 if len(built) < 5 else 2.0)
        built.append(n)
        return ProgramChannel(u, spin_coherent_state(j, n), j, k)

    mean, stderr = average_fidelity_mc(two_gates, theta, 40, seed=2)
    built.clear()
    want_mean, want_stderr = _mc_by_sample(two_gates, theta, 40, seed=2)
    assert abs(mean - want_mean) <= 1e-14 and abs(stderr - want_stderr) <= 1e-14


def test_monte_carlo_with_a_gate_per_sample_holds_no_stack_of_gates():
    import tracemalloc

    j, k, samples = HalfInteger(20), HalfInteger(1), 200
    dim = 21 * 2
    builder = _gate_per_axis(j, k)
    average_fidelity_mc(builder, 2.0, 2, seed=1)  # imports and caches load outside the trace
    tracemalloc.start()
    try:
        mean, stderr = average_fidelity_mc(builder, 2.0, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < mean <= 1.0 and stderr > 0.0
    # each sample is evaluated as its channel is built: a stack of the gates would take 5.6 MB
    assert peak < samples * dim**2 * 16 / 4


def test_monte_carlo_with_a_fresh_copy_of_one_gate_per_sample_matches_the_shared_gate():
    j, k, theta = HalfInteger(7), HalfInteger(1), 2.0
    u = heisenberg_gate(j, k, coupling_angle(j.value, theta))

    class Double:  # the attributes average_fidelity_mc reads, with no check of the gate
        def __init__(self, gate, n):
            self.j, self.k, self.joint_unitary = j, k, gate
            self.program_state = spin_coherent_state(j, n)

    shared = average_fidelity_mc(lambda n: Double(u, n), theta, 400, seed=4)
    copies = average_fidelity_mc(lambda n: Double(u.copy(), n), theta, 400, seed=4)
    assert abs(copies[0] - shared[0]) <= 1e-15 and abs(copies[1] - shared[1]) <= 1e-15


def test_monte_carlo_refuses_other_spins_after_a_sample_with_another_gate():
    built = []

    def builder(n):
        j = HalfInteger(2) if len(built) == 2 else HalfInteger(3)
        u = heisenberg_gate(j, HalfInteger(1), 1.0 if len(built) == 0 else 2.0)
        built.append(n)
        return ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1))

    with pytest.raises(ValueError, match="^sample 2: "):
        average_fidelity_mc(builder, 2.0, 5, seed=1)
    assert len(built) == 3


def test_monte_carlo_refuses_a_non_finite_angle_before_building():
    built = []

    def builder(n):
        built.append(n)
        return _qubit_channel()

    for theta in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="theta must be finite"):
            average_fidelity_mc(builder, theta, 200, seed=1)
    assert built == []


def test_monte_carlo_is_batched(monkeypatch):
    j, theta = HalfInteger(3), 2.0
    u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    def builder(n):
        return ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1))

    einsum, contractions = np.einsum, []

    def counting_einsum(*args, **kwargs):
        contractions.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    spin_coherent_state(j, Direction.normalized(0.3, -0.4, 0.86))
    spin_coherent_state(HalfInteger(41), Direction.normalized(-0.3, 0.4, -0.86))
    assert calls == [] and contractions == []
    counts = []
    for samples in (50, 500):
        calls.clear()
        contractions.clear()
        average_fidelity_mc(builder, theta, samples, seed=3)
        counts.append((len(calls), len(contractions)))
    # no sample builds its Kraus operators
    assert counts[0] == counts[1] and counts[0][0] <= 2


def test_a_target_is_checked_as_tightly_as_its_fidelity():
    # (1 + 4e-11) I passed a 1e-10 unitarity check, then put F_e at 1.00000000008
    identity = KrausChannel([np.eye(2)])
    for fidelity in (entanglement_fidelity, worst_case_fidelity):
        with pytest.raises(ValueError, match="target gate is not a 2x2 unitary"):
            fidelity(identity, (1 + 4e-11) * np.eye(2))
    # a unitary channel's target V = U (I + eps H), H Hermitian, its unitarity error at the edge
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for n in range(60):
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = z + z.conj().T
            eps = 1e-18 / channel_lab._unitarity_error(u @ (np.eye(d) + 1e-6 * h)).max()
            v = u @ (np.eye(d) + 0.999 * eps * h)
            assert 0.99e-12 < channel_lab._unitarity_error(v).max() <= 1e-12
            ch = KrausChannel([u])
            assert entanglement_fidelity(ch, v) <= 1.0
            if n < 2:  # the chart search (d >= 3) is slow
                assert worst_case_fidelity(ch, v, grid=8)[0] <= 1.0 + 1e-12
            with pytest.raises(ValueError, match="target gate is not a %dx%d unitary" % (d, d)):
                entanglement_fidelity(ch, u @ (np.eye(d) + 1.01 * eps * h))


def test_the_program_norm_is_checked_on_its_square():
    # the fidelities scale with |phi|^2: |phi| = 1 + 9e-13 passed, then put F_e at 1 + 1.8e-12
    half = HalfInteger(1)
    gate = heisenberg_gate(half, half, 0.0)
    with pytest.raises(ValueError, match="program state is not normalized"):
        ProgramChannel(gate, np.array([1 + 9e-13, 0]), half, half)
    ch = ProgramChannel(gate, np.array([1 + 4e-13, 0]), half, half)  # |phi|^2 - 1 = 8e-13
    assert entanglement_fidelity(ch, np.eye(2)) == 1.0
    assert worst_case_fidelity(ch, np.eye(2))[0] <= 1.0 + 1e-12


def test_a_refused_fidelity_prints_its_deviation_as_a_python_float(monkeypatch):
    # numpy 2 writes the repr of a numpy scalar as np.float64(0.75), numpy 1 as 0.75
    with pytest.raises(ToleranceError, match=r"^entanglement fidelity escapes \[0, 1\]: \|F_e - 1/2\| = 0\.75$"):
        channel_lab._clipped_fidelities(np.array([0.5, 1.25]))
    # a route's claim 0.5 above F = 1 at its state
    monkeypatch.setattr(channel_lab, "_qubit_one_diagonal_minimum",
                        lambda mats: (np.array([1.5]), np.array([[1.0 + 0j, 0.0]])))
    with pytest.raises(ToleranceError, match=r"^qubit quadratic differs from F on its state by 0\.5$"):
        worst_case_fidelity(KrausChannel([np.eye(2)]), np.eye(2))
