"""End-to-end gate-programming strategies.

Two families are simulated here.  The coherent strategy couples the program
spin to the target through the isotropic exchange interaction and lets it run
for a tuned time; the measure-and-operate (MO) strategy estimates the rotation
axis from the program by a coherent-state measurement and applies a rotation
about the estimated axis.  Both come in a qubit-target version and a spin-k
generalization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import eval_chebyu

from .channel_lab import (
    KrausChannel,
    average_fidelity_from_entanglement,
    entanglement_fidelity,
    worst_case_fidelity,
)
from .closed_forms import coupling_angle, mo_optimal_angle
from .spin_algebra import (
    DIM_CAP,
    Z_AXIS,
    Direction,
    ToleranceError,
    _exchange_block,
    _exchange_sectors,
    as_half_integer,
    make_spin_operators,
    rotation_from_z,
    rotation_unitary,
)


class StrategyFidelities(NamedTuple):
    entanglement: float
    average: float
    worst_case: float


def heisenberg_gate(j, k, f):
    """exp(-i f * 2 J.K / (2j+1)) on the coupled program (x) target space.

    2 J.K commutes with the total J_z, so the gate is block-diagonal with one
    block of size <= 2k+1 per total M = m_j + m_k; each block is exponentiated
    from its eigendecomposition (eigenvalues l(l+1) - j(j+1) - k(k+1)).
    """
    j = as_half_integer(j)
    k = as_half_integer(k)
    dim = (j.doubled + 1) * (k.doubled + 1)
    if dim > DIM_CAP:
        raise ValueError("joint dimension %d exceeds cap %d" % (dim, DIM_CAP))
    u = np.zeros((dim, dim), dtype=complex)
    for indices, w, v in _exchange_sectors(j.doubled, k.doubled):
        u[np.ix_(indices, indices)] = (v * np.exp(-1j * f * w / (j.doubled + 1.0))) @ v.T
    return u


def simulate_optimal_qubit_strategy(j, theta, n: Direction = Z_AXIS) -> StrategyFidelities:
    """Exchange coupling at the tuned interaction angle, program pointing along n.

    Returns entanglement, average and worst-case fidelity with respect to the
    target rotation by theta about n.
    """
    return simulate_spin_k(j, 0.5, theta, f=coupling_angle(j, theta), n=n)


def _mo_entanglement_quadrature(j, theta, tau, order):
    """Entanglement fidelity of estimate-then-rotate with conditional angle tau.

    The estimated axis n' is distributed with density (2j+1)/(4pi) times the
    coherent overlap cos^{4j}(phi'/2), phi' the misalignment polar angle.  The
    applied gate is the rotation by tau about n', so with u = cos(phi'),

        |Tr[V_theta^dag V_{tau,n'}]|^2 / 4
            = [cos(theta/2)cos(tau/2) + sin(theta/2)sin(tau/2) u]^2,

    independent of the azimuth of n'.  Gauss-Legendre in u (polynomial degree
    2j+2, exact once order >= j+2).
    """
    jv = as_half_integer(j).value
    u_nodes, u_weights = np.polynomial.legendre.leggauss(order)
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    cu, su = math.cos(tau / 2.0), math.sin(tau / 2.0)
    overlap = ((1.0 + u_nodes) / 2.0) ** (2.0 * jv)
    trace_term = (ct * cu + st * su * u_nodes) ** 2
    fe = (2.0 * jv + 1.0) / 2.0 * float(u_weights @ (overlap * trace_term))
    return min(max(fe, 0.0), 1.0)


def simulate_mo_strategy(j, theta, quadrature_order: int = 64) -> float:
    """Average fidelity of the measure-and-operate strategy.

    Measures the program with the coherent-state POVM and rotates the target
    about the estimated axis by the optimal conditional angle.
    """
    if not 16 <= quadrature_order <= DIM_CAP:
        raise ValueError("quadrature_order must be in [16, %d], got %d" % (DIM_CAP, quadrature_order))
    tau = mo_optimal_angle(j, theta)
    fe = _mo_entanglement_quadrature(j, theta, tau, quadrature_order)
    return average_fidelity_from_entanglement(fe, 2)


def _strategy_kraus(j, k, f):
    """Kraus operators K_a = (<a| (x) I) U (|j,j> (x) I) of the exchange gate U.

    U conserves total M, so with the program in |j,j> only the 2k+1 sectors of
    drop d = j + k - M = 0 .. 2k act, each reached from the target state of
    index d.  Each block B_d is exponentiated as in `heisenberg_gate`, and
    K_a[d-a, d] = B_d[a, 0] for a = 0 .. min(d, 2j); the operators of higher a
    vanish, so min(2k, 2j) + 1 are returned.  Each block is checked unitary.
    """
    dt = k.doubled + 1
    kraus = np.zeros((min(k.doubled, j.doubled) + 1, dt, dt), dtype=complex)
    for drop in range(dt):
        _, w, v = _exchange_block(j.doubled, k.doubled, drop)
        block = (v * np.exp(-1j * f * w / (j.doubled + 1.0))) @ v.T
        error = np.abs(block @ block.conj().T - np.eye(len(w))).max()
        if not error <= 1e-12:  # a NaN fails too
            raise ToleranceError("exchange block of drop %d is not unitary (error %g)"
                                 % (drop, error))
        a = np.arange(len(w))
        kraus[a, drop - a, drop] = block[:, 0]
    return kraus


def simulate_spin_k(j, k, theta, f=None, n: Direction = Z_AXIS,
                    grid: int = 16) -> StrategyFidelities:
    """Program a rotation on a spin-k target through the exchange coupling.

    By default the interaction angle equals theta itself, the simple choice
    whose error vanishes as 1/j; pass f explicitly to study other schedules
    (with k = 1/2 and f = coupling_angle this reproduces the tuned qubit
    strategy).  The channel is built from the 2k+1 total-M sectors that the
    program |j,j> reaches, in O(k^3) work at any j; a program along n != z is
    the z one turned by the target rotation R taking z to n (the gate
    commutes with R (x) R), so its Kraus operators are R K_a R^dag.
    """
    j = as_half_integer(j)
    k = as_half_integer(k)
    if j.doubled < 1:
        raise ValueError("program spin must be >= 1/2")
    if k.doubled < 1:
        raise ValueError("target spin must be >= 1/2")
    if f is None:
        f = theta
    ops = make_spin_operators(k)
    kraus = _strategy_kraus(j, k, f)
    rotation = rotation_from_z(ops, n)
    if rotation is not None:
        kraus = rotation @ kraus @ rotation.conj().T
    ch = KrausChannel(kraus)
    v = rotation_unitary(ops, n, theta)
    fe = entanglement_fidelity(ch, v)
    favg = average_fidelity_from_entanglement(fe, k.doubled + 1)
    fw, _ = worst_case_fidelity(ch, v, grid=grid)
    return StrategyFidelities(fe, favg, fw)


def simulate_spin_k_mo(j, k, theta, quadrature_order: int = 64) -> float:
    """Average fidelity of measure-and-operate on a spin-k target.

    The estimated-axis distribution is the same coherent overlap as in the
    qubit case; conditional rotation is by theta about the estimate.  The
    composite rotation V_theta^dag V_{theta,n'} has half-angle cosine

        c(u) = cos^2(theta/2) + sin^2(theta/2) u,       u = cos(phi'),

    and the (2k+1)-dimensional character of a rotation by angle t is
    sin((2k+1) t/2)/sin(t/2) = U_{2k}(cos(t/2)), a Chebyshev polynomial, so
    the entanglement fidelity is a polynomial integral in u handled exactly by
    Gauss-Legendre once order >= j + k + 2.
    """
    if not 16 <= quadrature_order <= DIM_CAP:
        raise ValueError("quadrature_order must be in [16, %d], got %d" % (DIM_CAP, quadrature_order))
    j = as_half_integer(j)
    k = as_half_integer(k)
    if k.doubled < 1:
        raise ValueError("target spin must be >= 1/2")
    jv = j.value
    dk = k.doubled + 1
    u_nodes, u_weights = np.polynomial.legendre.leggauss(quadrature_order)
    ct2, st2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
    cos_half = ct2 + st2 * u_nodes
    character = eval_chebyu(k.doubled, cos_half)
    overlap = ((1.0 + u_nodes) / 2.0) ** (2.0 * jv)
    fe = (2.0 * jv + 1.0) / 2.0 * float(u_weights @ (overlap * (character / dk) ** 2))
    fe = min(max(fe, 0.0), 1.0)
    return average_fidelity_from_entanglement(fe, dk)
