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

from .channel_lab import (
    _chart_axes, _completeness_error, _entanglement_fidelities, _unitarity_error, _worst_cases,
    average_fidelity_from_entanglement)
from .closed_forms import _K_HALF, _mo_angle, coupling_angle, folded_angle
from .spin_algebra import (
    DIM_CAP, ToleranceError, _check_dimension, _exchange_block, as_angle, as_half_integer, as_spin,
    check_each)


class StrategyFidelities(NamedTuple):
    """Floats at one angle (`simulate_spin_k`), lists of them over a stack (`simulate_strategies`)."""
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
    as_angle(f, "interaction angle f")
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
    return simulate_spin_k(j, _K_HALF, theta, f=coupling_angle(j, theta))


def _pole_rule(doubled_js, nodes):
    """Gauss-Jacobi rules for the misalignment t = (1 - cos phi')/2 of the estimate, one
    per doubled spin of `doubled_js`: arrays (spins, nodes) of nodes and of weights.

    The coherent-state POVM puts density (2j+1)(1-t)^{2j} on t in [0, 1], a
    Jacobi weight with beta = 2j.  The nodes are the eigenvalues of its Jacobi
    matrix and the weights the squared first eigenvector components (Golub &
    Welsch 1969), so they sum to 1 at every j and `nodes` points integrate
    polynomials of degree < 2 * nodes exactly.  The rule depends on the spin
    alone: every spin's matrix is built at once and solved by one stacked
    eigh, whose rows are bitwise each spin's own.
    """
    beta = np.asarray(doubled_js, dtype=float)[:, None]
    i = np.arange(nodes, dtype=float)
    d = 2.0 * i + beta
    matrix = np.zeros((len(beta), nodes * nodes))  # each row a flattened tridiagonal matrix
    matrix[:, ::nodes + 1] = (2.0 * i * i + 2.0 * i * beta + 2.0 * i + beta) / (d * (d + 2.0))
    off = i[1:] * (i[1:] + beta) / (d[:, 1:] * np.sqrt(d[:, 1:] * d[:, 1:] - 1.0))
    matrix[:, 1::nodes + 1] = matrix[:, nodes::nodes + 1] = off
    t, vectors = np.linalg.eigh(matrix.reshape(-1, nodes, nodes))
    return t, vectors[:, 0] ** 2


def _mo_entanglement_fidelity(doubled_js, k, thetas, taus):
    """Entanglement fidelities of estimate-then-rotate-by-tau on the grid of `doubled_js` x
    `thetas`: one list per spin, taus[s][i] the rotation of spin s at thetas[i].

    The composite rotation V_theta^dag V_{tau,n'} has half-angle cosine

        c(t) = cos((theta - tau)/2) - 2 sin(theta/2) sin(tau/2) t,

    independent of the azimuth of n', and the spin-k character of a rotation
    with half-angle cosine c is the Chebyshev polynomial U_{2k}(c).  The
    integrand (U_{2k}(c)/(2k+1))^2 has degree 4k in t, so the 2k+1 nodes of
    `_pole_rule` integrate it exactly at every j.  The recurrence runs over the
    whole (spins, angles, nodes) grid, each value computed as at one point.
    """
    t, weights = _pole_rule(doubled_js, k.doubled + 1)
    factors = np.array([[(math.cos((th - ta) / 2.0), 2.0 * math.sin(th / 2.0) * math.sin(ta / 2.0))
                         for th, ta in zip(thetas, row)] for row in taus]).reshape(len(taus), len(thetas), 2)
    c = factors[..., :1] - factors[..., 1:] * t[:, None, :]
    u_prev, u = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(k.doubled):
        u_prev, u = u, 2.0 * c * u - u_prev
    fe = (weights[:, None, None, :] @ ((u / (k.doubled + 1.0)) ** 2)[..., None])[..., 0, 0]
    return [[min(max(x, 0.0), 1.0) for x in row] for row in fe.tolist()]


def simulate_mo_strategy(j, theta) -> float:
    """Average fidelity of the measure-and-operate strategy.

    Measures the program with the coherent-state POVM and rotates the target
    about the estimated axis by the optimal conditional angle.  Like
    `mo_benchmark`, it is computed at `folded_angle(theta)`.
    """
    return simulate_mo_strategies([j], [theta])[0][0]


def simulate_mo_strategies(js, thetas) -> list:
    """`simulate_mo_strategy` at each point of the grid `js` x `thetas`, as one stacked
    evaluation: one list of values per spin, one value per angle."""
    js = [as_spin(j, "program spin") for j in js]
    thetas = [folded_angle(theta) for theta in thetas]
    fe = _mo_entanglement_fidelity([j.doubled for j in js], _K_HALF, thetas,
                                   [[_mo_angle(j.value, t) for t in thetas] for j in js])
    return [[average_fidelity_from_entanglement(x, 2) for x in row] for row in fe]


def _strategy_kraus(j, k, f):
    """Kraus operators K_a = (<a| (x) I) U (|j,j> (x) I) of the exchange gate U, one family per f.

    U conserves total M, so with the program in |j,j> only the 2k+1 sectors of
    drop d = j + k - M = 0 .. 2k act, each reached from the target state of
    index d.  Each block B_d is exponentiated as in `heisenberg_gate`, and
    K_a[d-a, d] = B_d[a, 0] for a = 0 .. min(d, 2j); the operators of higher a
    vanish, so min(2k, 2j) + 1 are returned.  The eigendecompositions come
    from the bounded per-spin cache of `_exchange_block`, once per call; the
    exponentials depend on f, so each block is one stack over f, checked unitary.
    """
    f = np.asarray(f, dtype=float)
    dt = k.doubled + 1
    kraus = np.zeros(f.shape + (min(k.doubled, j.doubled) + 1, dt, dt), dtype=complex)
    minus_if = -1j * f[..., None]
    for drop in range(dt):
        _, w, v = _exchange_block(j.doubled, k.doubled, drop)
        block = (v * np.exp(minus_if * w / (j.doubled + 1.0))[..., None, :]) @ v.T
        check_each(_unitarity_error(block), 1e-12, "exchange block of drop %d is not unitary (error %%g)" % drop)
        a = np.arange(len(w))
        kraus[..., a, drop - a, drop] = block[..., 0]
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
    the channel is built.  A non-finite theta or f is refused with ValueError.  This
    is `simulate_strategies` at one angle.
    """
    return StrategyFidelities(*(x[0] for x in simulate_strategies(j, k, [theta], f if f is None else [f])))


def simulate_strategies(j, k, thetas, fs=None) -> StrategyFidelities:
    """`simulate_spin_k` at each of `thetas` (interaction angles `fs`, by default the folded
    angles) as one stacked evaluation: lists of values, each computed as at one angle, and
    every check run at every angle, a failure naming its angle.  A non-finite angle is refused
    with ValueError before any work, a given f named by its theta.  The worst cases of all
    angles are one call of `channel_lab._worst_cases`, which picks their route.
    """
    j, k = as_spin(j, "program spin"), as_spin(k, "target spin")
    if fs is None:
        thetas = fs = [folded_angle(theta) for theta in thetas]
    else:
        thetas = [as_angle(theta) for theta in thetas]
        for theta, f in zip(thetas, fs):
            try:
                as_angle(f, "interaction angle f")
            except ValueError as exc:
                raise ValueError("theta = %r: %s" % (theta, exc)) from None
    d = k.doubled + 1
    _check_dimension(d)
    if k.doubled > 2:  # the worst case searches a chart; refuse one over budget before any work
        _chart_axes(d, min(k.doubled, j.doubled) + 1, True)
    try:
        kraus = _strategy_kraus(j, k, fs)
        phases = np.exp(-1j * np.array(thetas)[:, None] * (k.value - np.arange(d)))  # V = diag(phases)
        check_each(abs(abs(phases) ** 2 - 1.0), 1e-10, "target gate is not unitary (error %g)", ValueError)
        v = np.eye(d) * phases[:, None, :]
        fe = _entanglement_fidelities(kraus, v).tolist()
        check_each(_completeness_error(kraus), 1e-12, "Kraus operators are not complete (error %g)", ValueError)
        fw = _worst_cases(v.conj().swapaxes(-1, -2)[:, None] @ kraus)[0]
    except (ToleranceError, ValueError) as exc:
        i = getattr(exc, "index", None)
        raise exc if i is None else type(exc)("theta = %r: %s" % (thetas[i], exc)) from None
    return StrategyFidelities(fe, [average_fidelity_from_entanglement(x, d) for x in fe], fw)


def simulate_spin_k_mo(j, k, theta) -> float:
    """Average fidelity of measure-and-operate on a spin-k target.

    The estimated-axis distribution is the same coherent overlap as in the
    qubit case; the conditional rotation is by theta itself about the estimate.
    """
    j, k = as_spin(j, "program spin"), as_spin(k, "target spin")
    as_angle(theta)
    fe = _mo_entanglement_fidelity([j.doubled], k, [theta], [[theta]])[0][0]
    return average_fidelity_from_entanglement(fe, k.doubled + 1)
