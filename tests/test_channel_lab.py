import math

import numpy as np
import pytest

from spinbench import channel_lab, covariant_opt
from spinbench.channel_lab import (
    DensityMatrix,
    KrausChannel,
    ProgramChannel,
    apply_program_channel,
    average_fidelity_from_entanglement,
    average_fidelity_mc,
    entanglement_fidelity,
    pure_density,
    worst_case_fidelity,
)
from spinbench.closed_forms import coupling_angle, optimal_fidelity
from spinbench.protocols import heisenberg_gate
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


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = pure_density(np.array([1.0, 1.0]) / math.sqrt(2))
    assert rho.dim == 2


def test_program_channel_rejects_bad_shapes():
    j = HalfInteger(2)
    with pytest.raises(ValueError):
        ProgramChannel(np.eye(5), np.array([1.0, 0, 0]), j, HalfInteger(1))
    with pytest.raises(ValueError):
        ProgramChannel(2 * np.eye(6), np.array([1.0, 0, 0]), j, HalfInteger(1))
    with pytest.raises(ValueError):
        ProgramChannel(np.eye(6), np.array([1.0, 1.0, 0]), j, HalfInteger(1))  # not normalized


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
    out = apply_program_channel(ch, pure_density(z / np.linalg.norm(z)))
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.matrix).min() > -1e-12


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
    for mats in cases:
        value, state = channel_lab._qubit_minimum(mats)
        _assert_real_state(mats, value, state)
        assert value <= channel_lab._chart_search(mats, 24)[0] + 1e-12


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


def test_scipy_is_reached_through_the_module_names(monkeypatch):
    # covariant channels never reach the root finder, general ones do
    rng = np.random.default_rng(11)
    cases = [_random_qubit_kraus(rng) for _ in range(20)]
    want = [channel_lab._qubit_minimum(mats) for mats in cases]
    calls = []
    forward = channel_lab.brentq

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(channel_lab, "brentq", counted)
    for mats, (value, state) in zip(cases, want):
        got_value, got_state = channel_lab._qubit_minimum(mats)
        assert got_value == value
        assert np.array_equal(got_state, state)
    assert len(calls) > 0
    # the tracer patches these names; a direct scipy import would bypass it
    assert forward.__module__ == "spinbench.channel_lab"
    assert covariant_opt.brentq is forward
    assert covariant_opt.minimize is channel_lab.minimize


def test_qubit_minimum_checks_its_value(monkeypatch):
    # a state fidelity that disagrees with the Bloch quadratic is an error
    batch = channel_lab._fidelity_batch
    monkeypatch.setattr(channel_lab, "_fidelity_batch",
                        lambda mats, states: batch(mats, states) + 1e-9)
    with pytest.raises(ToleranceError):
        channel_lab._qubit_minimum(_programmed_mats(6, 2.0, X_AXIS))


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

    def builder(n):
        u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))
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
        out = apply_program_channel(ch, pure_density(z / np.linalg.norm(z)))
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-14


def test_depolarizing_channel_entanglement_fidelity():
    # controlled-Pauli joint unitary with a uniform program gives Kraus {sigma_a/2},
    # the completely depolarizing qubit channel
    paulis = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
              np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0])]
    u = np.zeros((8, 8), dtype=complex)
    for a, sigma in enumerate(paulis):
        u[2 * a:2 * a + 2, 2 * a:2 * a + 2] = sigma
    ch = ProgramChannel(u, np.full(4, 0.5), HalfInteger(3), HalfInteger(1))
    out = apply_program_channel(ch, pure_density(np.array([1.0, 0.0])))
    assert np.abs(out.matrix - np.eye(2) / 2.0).max() < 1e-14
    for gate in (np.eye(2), rotation_unitary(make_spin_operators(0.5), Z_AXIS, 1.2)):
        assert abs(entanglement_fidelity(ch, gate) - 0.25) < 1e-13
    assert abs(average_fidelity_from_entanglement(0.25, 2) - 0.5) < 1e-15


def test_monte_carlo_is_seed_deterministic():
    j, theta = HalfInteger(2), 1.3

    def builder(n):
        u = heisenberg_gate(j, 0.5, coupling_angle(j.value, theta))
        return ProgramChannel(u, spin_coherent_state(j, n), j, HalfInteger(1))

    a = average_fidelity_mc(builder, theta, 500, seed=42)
    b = average_fidelity_mc(builder, theta, 500, seed=42)
    c = average_fidelity_mc(builder, theta, 500, seed=43)
    assert a == b
    assert a != c
