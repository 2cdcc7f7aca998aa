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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel_lab import (
    KrausChannel,
    _chart_axes,
    _unitarity_error,
    average_fidelity_from_entanglement,
    entanglement_fidelity,
    worst_case_fidelity,
)
from .closed_forms import coupling_angle, folded_angle, mo_optimal_angle
from .spin_algebra import (
    DIM_CAP,
    HalfInteger,
    ToleranceError,
    _check_dimension,
    _exchange_block,
    as_half_integer,
    as_spin,
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
    f is used as given, not reduced: at large |f| the phase f w/(2j+1) keeps
    few correct digits.  A non-finite f is refused before any work.
    """
    if not -math.inf < f < math.inf:  # a NaN fails too
        raise ValueError("interaction angle f must be finite, got %r" % (f,))
    j = as_half_integer(j)
    k = as_half_integer(k)
    if j.doubled < 0 or k.doubled < 0:
        raise ValueError("spins must be non-negative")
    dim = (j.doubled + 1) * (k.doubled + 1)
    if dim > DIM_CAP:
        raise ValueError("joint dimension %d exceeds cap %d" % (dim, DIM_CAP))
    u = np.zeros((dim, dim), dtype=complex)
    for drop in range(j.doubled + k.doubled + 1):
        indices, w, v = _exchange_block(j.doubled, k.doubled, drop)
        u[indices[:, None], indices] = (v * np.exp(-1j * f * w / (j.doubled + 1.0))) @ v.T
    return u


def simulate_optimal_qubit_strategy(j, theta) -> StrategyFidelities:
    """Exchange coupling at the tuned interaction angle.

    Returns entanglement, average and worst-case fidelity with respect to the
    target rotation by theta about the program's axis (see `simulate_spin_k`).
    """
    return simulate_spin_k(j, 0.5, theta, f=coupling_angle(j, theta))


@lru_cache(maxsize=64)
def _pole_rule(doubled_j, nodes):
    """Gauss-Jacobi rule for the misalignment t = (1 - cos phi')/2 of the estimate.

    The coherent-state POVM puts density (2j+1)(1-t)^{2j} on t in [0, 1], a
    Jacobi weight with beta = 2j.  The nodes are the eigenvalues of its Jacobi
    matrix and the weights the squared first eigenvector components (Golub &
    Welsch 1969), so they sum to 1 at every j and `nodes` points integrate
    polynomials of degree < 2 * nodes exactly.  The rule does not depend on
    the angle, so it is computed once per spin and kept in a bounded cache;
    both arrays are read-only.
    """
    beta = float(doubled_j)
    i = np.arange(nodes, dtype=float)
    d = 2.0 * i + beta
    diagonal = (2.0 * i * i + 2.0 * i * beta + 2.0 * i + beta) / (d * (d + 2.0))
    off = i[1:] * (i[1:] + beta) / (d[1:] * np.sqrt(d[1:] * d[1:] - 1.0))
    t, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    for a in (t, weights):
        a.setflags(write=False)
    return t, weights


def _mo_entanglement_fidelity(j, k, theta, tau):
    """Entanglement fidelity of estimate-then-rotate-by-tau on a spin-k target.

    The composite rotation V_theta^dag V_{tau,n'} has half-angle cosine

        c(t) = cos((theta - tau)/2) - 2 sin(theta/2) sin(tau/2) t,

    independent of the azimuth of n', and the spin-k character of a rotation
    with half-angle cosine c is the Chebyshev polynomial U_{2k}(c).  The
    integrand (U_{2k}(c)/(2k+1))^2 has degree 4k in t, so the 2k+1 nodes of
    `_pole_rule` integrate it exactly at every j.
    """
    t, weights = _pole_rule(j.doubled, k.doubled + 1)
    c = math.cos((theta - tau) / 2.0) - 2.0 * math.sin(theta / 2.0) * math.sin(tau / 2.0) * t
    u_prev, u = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(k.doubled):
        u_prev, u = u, 2.0 * c * u - u_prev
    fe = float(weights @ (u / (k.doubled + 1.0)) ** 2)
    return min(max(fe, 0.0), 1.0)


def simulate_mo_strategy(j, theta) -> float:
    """Average fidelity of the measure-and-operate strategy.

    Measures the program with the coherent-state POVM and rotates the target
    about the estimated axis by the optimal conditional angle.  Like
    `mo_benchmark`, it is computed at `folded_angle(theta)`.
    """
    j = as_spin(j, "program spin")
    theta = folded_angle(theta)
    fe = _mo_entanglement_fidelity(j, HalfInteger(1), theta, mo_optimal_angle(j, theta))
    return average_fidelity_from_entanglement(fe, 2)


def _strategy_kraus(j, k, f):
    """Kraus operators K_a = (<a| (x) I) U (|j,j> (x) I) of the exchange gate U.

    U conserves total M, so with the program in |j,j> only the 2k+1 sectors of
    drop d = j + k - M = 0 .. 2k act, each reached from the target state of
    index d.  Each block B_d is exponentiated as in `heisenberg_gate`, and
    K_a[d-a, d] = B_d[a, 0] for a = 0 .. min(d, 2j); the operators of higher a
    vanish, so min(2k, 2j) + 1 are returned.  The eigendecompositions come
    from the bounded per-spin cache of `_exchange_block`, so the points of a
    sweep that share a spin compute them once; the exponential depends on f,
    so each call forms it and checks each block unitary.
    """
    dt = k.doubled + 1
    kraus = np.zeros((min(k.doubled, j.doubled) + 1, dt, dt), dtype=complex)
    for drop in range(dt):
        _, w, v = _exchange_block(j.doubled, k.doubled, drop)
        block = (v * np.exp(-1j * f * w / (j.doubled + 1.0))) @ v.T
        error = _unitarity_error(block)
        if not error <= 1e-12:  # a NaN fails too
            raise ToleranceError("exchange block of drop %d is not unitary (error %g)"
                                 % (drop, error))
        a = np.arange(len(w))
        kraus[a, drop - a, drop] = block[:, 0]
    return kraus


def simulate_spin_k(j, k, theta, f=None) -> StrategyFidelities:
    """Program a rotation on a spin-k target through the exchange coupling.

    By default theta is replaced by `folded_angle(theta)` and the interaction
    angle equals it, the simple choice whose error vanishes as 1/j; the
    fidelities are then even and 2pi-periodic in theta.  An explicit f is used
    as given, with theta as given, to study other schedules (with k = 1/2 and
    f = coupling_angle this reproduces the tuned qubit strategy).  The channel
    is built from the 2k+1 total-M sectors that the program |j,j> reaches, in
    O(k^3) work at any j.  The gate commutes with
    every collective rotation R (x) R, so a program along any axis n gives the
    same fidelities for the rotation about n; they are computed along z.
    There each V^dag K_a lies on one diagonal, so the worst case is exact for
    2k <= 2, in closed form: a quadratic in |psi_0|^2 for a qubit target, a
    quartic in two real parameters for a spin-1 target.  For 2k >= 3 it is a
    chart search's upper bound, and a chart over the budget is refused before
    the channel is built.
    """
    j, k = as_spin(j, "program spin"), as_spin(k, "target spin")
    if f is None:
        theta = f = folded_angle(theta)
    _check_dimension(k.doubled + 1)
    if k.doubled > 2:  # the worst case searches a chart; refuse one over budget before any work
        _chart_axes(k.doubled + 1, min(k.doubled, j.doubled) + 1, True)
    v = np.diag(np.exp(-1j * theta * (k.value - np.arange(k.doubled + 1))))
    ch = KrausChannel(_strategy_kraus(j, k, f))
    fe = entanglement_fidelity(ch, v)
    favg = average_fidelity_from_entanglement(fe, k.doubled + 1)
    fw, _ = worst_case_fidelity(ch, v)
    return StrategyFidelities(fe, favg, fw)


def simulate_spin_k_mo(j, k, theta) -> float:
    """Average fidelity of measure-and-operate on a spin-k target.

    The estimated-axis distribution is the same coherent overlap as in the
    qubit case; the conditional rotation is by theta itself about the estimate.
    """
    j, k = as_spin(j, "program spin"), as_spin(k, "target spin")
    fe = _mo_entanglement_fidelity(j, k, theta, theta)
    return average_fidelity_from_entanglement(fe, k.doubled + 1)
