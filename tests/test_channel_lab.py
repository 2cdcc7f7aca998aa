import math

import numpy as np
import pytest

from spinbench.channel_lab import (
    DensityMatrix,
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
    HalfInteger,
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
