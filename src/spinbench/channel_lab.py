"""Program-controlled channels: partial traces, fidelities, and Monte-Carlo checks.

A program channel is C(rho) = Tr_control[ U (phi (x) rho) U^dag ], with the
tensor order fixed globally as control (x) target ((x) reference last when one
is present).  Everything here works for arbitrary control/target dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import Direction, HalfInteger, as_angle, check_each, make_spin_operators

# largest chart points x max(Kraus operators, d) the worst-case grid search
# admits; a point needs d complex amplitudes for its state and one complex
# overlap per Kraus operator; larger searches are refused
WORST_CASE_BUDGET = 2**25
# largest samples x (D + d^2) complex entries the Monte-Carlo stacks admit
# (128 MiB), D = (2j+1)(2k+1) for each sample's joint state and d^2 for its
# target rotation, with D^2 more for its gate when the channels do not share
# one; larger runs are refused
MC_BUDGET = 2**23
# the chart search's default grid: phases per coordinate (half as many magnitudes, >= 6)
CHART_GRID = 16
# I, sigma_x, sigma_y, sigma_z
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


# scipy.optimize costs ~0.6 s to import, so it loads on the first call that
# needs it, the chart search's; minimize stays a module name because tests and
# perfbench/tracing.py patch it, and the call site reads it as a global
def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


# the last joint unitary that passed ProgramChannel's unitarity check, as
# (read-only array, its C-order bytes) in the one item of a list that is
# replaced whole; it is written only after a gate passes, so a race between
# threads can cost one more check but never skip one
_verified_unitary = [None]


def _unitarity_error(u):
    """|U U^dag - I| entrywise (of each of a stack), the O(D^3) product ProgramChannel checks."""
    return np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1]))


def _completeness_error(kraus):
    """|sum_a K_a^dag K_a - I| entrywise, for a Kraus family or a stack of them (leading axes)."""
    return np.abs(np.einsum("...aji,...ajl->...il", kraus.conj(), kraus) - np.eye(kraus.shape[-1]))


@dataclass(frozen=True)
class ProgramChannel:
    """A joint unitary on control (x) target together with a fixed program state.

    The gate and the program state are kept as read-only copies of the
    caller's arrays, so a later change to those arrays reaches neither.  The
    shape, the program state's norm and the gate's unitarity are checked on
    every construction; the Kraus operators are built on the first
    `kraus_operators()` call.  The unitarity product runs once per distinct
    gate content: a gate whose bytes equal those of the last gate that passed
    it (a Monte-Carlo builder reusing one gate, or a copy of it) is not
    multiplied out again, and the channel takes that verified array itself,
    so the channels built from one gate share one `joint_unitary`.
    """

    joint_unitary: np.ndarray
    program_state: np.ndarray
    j: HalfInteger
    k: HalfInteger
    _kraus: np.ndarray = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.joint_unitary, dtype=complex)
        phi = np.array(self.program_state, dtype=complex)
        phi.setflags(write=False)
        dc = self.j.doubled + 1
        dt = self.k.doubled + 1
        if u.shape != (dc * dt, dc * dt):
            raise ValueError("joint unitary has shape %s, expected %d" % (u.shape, dc * dt))
        if phi.shape != (dc,):
            raise ValueError("program state dimension %d != 2j+1 = %d" % (phi.size, dc))
        verified = _verified_unitary[0]
        # equal bytes of two square gates mean equal shapes too
        if verified is not None and verified[1] == u.tobytes():
            u = verified[0]
        else:
            u = np.array(u, order="C")
            u.setflags(write=False)
            check_each(_unitarity_error(u), 1e-12, "joint evolution is not unitary (error %g)", ValueError)
            _verified_unitary[0] = (u, u.tobytes())
        if not abs(math.sqrt(np.vdot(phi, phi).real) - 1.0) < 1e-12:
            raise ValueError("program state is not normalized")
        object.__setattr__(self, "joint_unitary", u)
        object.__setattr__(self, "program_state", phi)

    @property
    def target_dim(self):
        return self.k.doubled + 1

    def kraus_operators(self) -> np.ndarray:
        """Stack of Kraus operators, shape (2j+1, 2k+1, 2k+1), read-only."""
        if self._kraus is None:
            # K_a = (<a| (x) I) U (|phi> (x) I), one per control basis state;
            # these realize the partial trace over the control
            dc, dt = self.j.doubled + 1, self.k.doubled + 1
            kraus = np.einsum("aibj,b->aij", self.joint_unitary.reshape(dc, dt, dc, dt), self.program_state)
            kraus.setflags(write=False)
            object.__setattr__(self, "_kraus", kraus)
        return self._kraus


@dataclass(frozen=True)
class KrausChannel:
    """A channel on a d-dimensional target given by its Kraus operators,
    shape (count, d, d), with sum_a K_a^dag K_a = I."""

    operators: np.ndarray

    def __post_init__(self):
        k = np.array(self.operators, dtype=complex)
        if k.ndim != 3 or len(k) < 1 or k.shape[1] != k.shape[2]:
            raise ValueError("Kraus operators have shape %s, expected (count, d, d)" % (k.shape,))
        check_each(_completeness_error(k), 1e-12, "Kraus operators are not complete (error %g)", ValueError)
        k.setflags(write=False)
        object.__setattr__(self, "operators", k)

    @property
    def target_dim(self):
        return self.operators.shape[1]

    def kraus_operators(self) -> np.ndarray:
        return self.operators


def _check_unitary(v, dim):
    v = np.asarray(v, dtype=complex)
    if v.shape != (dim, dim) or not _unitarity_error(v).max() <= 1e-10:
        raise ValueError("target gate is not a %dx%d unitary" % (dim, dim))
    return v


def entanglement_fidelity(ch: ProgramChannel | KrausChannel, target_gate) -> float:
    """<Phi+_V| (C (x) I)(Phi+) |Phi+_V> for the canonical |Phi+> = sum_m |mm>/sqrt(d).

    With Kraus operators this collapses to sum_a |Tr[V^dag K_a]|^2 / d^2.
    """
    v = _check_unitary(target_gate, ch.target_dim)
    return float(_entanglement_fidelities(ch.kraus_operators(), v))


def _entanglement_fidelities(kraus, v):
    """sum_a |Tr[V^dag K_a]|^2 / d^2 of each (K, V) of a stack, checked in [0, 1] and clipped."""
    overlaps = np.einsum("...ji,...aji->...a", v.conj(), kraus)  # Tr[V^dag K_a]
    fe = (np.abs(overlaps) ** 2).sum(-1) / v.shape[-1] ** 2
    check_each(np.abs(fe - 0.5), 0.5 + 1e-12, "entanglement fidelity escapes [0, 1]: |F_e - 1/2| = %r")
    return np.minimum(np.maximum(fe, 0.0), 1.0)


def average_fidelity_from_entanglement(fe: float, d: int) -> float:
    """The standard relation F_avg = (d*F_e + 1)/(d + 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return (d * fe + 1.0) / (d + 1.0)


def haar_direction(rng, size=()) -> np.ndarray:
    """Uniform points on the sphere, shape size + (3,): for each point a
    uniform cos(polar), then a uniform azimuth, from the stream."""
    u, az = np.moveaxis(rng.uniform((-1.0, 0.0), (1.0, 2.0 * np.pi), size + (2,)), -1, 0)
    s = np.sqrt(1.0 - u * u)
    return np.stack([s * np.cos(az), s * np.sin(az), u], axis=-1)


def haar_state(rng, dim, size=()) -> np.ndarray:
    """Haar-uniform pure states, shape size + (dim,): normalized vectors of
    complex Gaussians, for each state dim real parts, then dim imaginary parts."""
    z = rng.standard_normal(size + (2, dim))
    z = z[..., 0, :] + 1j * z[..., 1, :]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def average_fidelity_mc(ch_builder, theta, samples, seed):
    """Monte-Carlo estimate of the axis- and state-averaged fidelity.

    ch_builder maps a Direction to a ProgramChannel; the ideal gate V for axis
    n is the target-spin rotation by theta about n.  A sample is the
    worst-case objective at a Haar state psi: <V psi| C(psi psi^dag) |V psi>
    = sum_a |<V psi| (<a| (x) I) U (|phi> (x) |psi>)|^2, with U the channel's
    joint unitary and phi its program state.

    The seed (numpy default_rng) fixes the stream, so identical calls give
    identical results.  It is drawn in this order: every sample's direction
    (cos-polar, then azimuth), then every sample's state (2k+1 real parts,
    then 2k+1 imaginary parts).  ch_builder is called once per sample, in
    draw order, and each channel's program state is copied into one stack;
    no Kraus operator is formed.  All samples are then evaluated at once: the
    joint states |phi> (x) |psi> times the gate in one (samples, D) x (D, D)
    product when every channel holds sample 0's gate object (as the channels
    ProgramChannel builds from one gate do), and V psi from one stacked eigh
    of n.J.  Channels with other gates are evaluated too, each sample with
    its own gate from a stack of them.  A non-finite theta is refused before
    the builder is first called.

    Memory: a sample holds D + d^2 complex entries in its largest arrays
    (its joint state, D = (2j+1)(2k+1), and the eigenvectors of its n.J,
    d = 2k+1), with j and k taken from the first channel.  A run of more
    than MC_BUDGET such entries is refused before the builder's second call,
    and one of more than MC_BUDGET with the D^2 entries of each sample's
    gate added at the first channel with another gate, before the stack of
    gates is allocated.  A later channel on other spins is refused with its
    sample number.

    Returns (mean, stderr).
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError("samples must be an integer >= 1, got %r" % (samples,))
    as_angle(theta)
    samples = int(samples)
    rng = np.random.default_rng(seed)
    axes = haar_direction(rng, (1,))
    first = ch_builder(Direction(*axes[0]))
    two_j, two_k = first.j.doubled, first.k.doubled
    dc, d = two_j + 1, two_k + 1
    dim = dc * d
    if samples * (dim + d * d) > MC_BUDGET:
        raise ValueError("Monte-Carlo stack of %d samples x (%d + %d^2) entries exceeds the budget of %d"
                         % (samples, dim, d, MC_BUDGET))
    axes = np.concatenate([axes, haar_direction(rng, (samples - 1,))])
    programs = np.empty((samples, dc), dtype=complex)
    programs[0] = first.program_state
    gate, gates = first.joint_unitary, None
    # sample 1's axis is converted alone, so a run refused at its channel converts no other
    directions = itertools.chain.from_iterable(map(np.ndarray.tolist, (axes[1:2], axes[2:])))
    for i, n in enumerate(directions, 1):
        ch = ch_builder(Direction(*n))
        if ch.j.doubled != two_j or ch.k.doubled != two_k:
            raise ValueError("sample %d: the channel has (2j+1, 2k+1) = (%d, %d), sample 0's (%d, %d)"
                             % (i, ch.j.doubled + 1, ch.k.doubled + 1, dc, d))
        programs[i] = ch.program_state
        if gates is not None:
            gates[i] = ch.joint_unitary
        elif ch.joint_unitary is not gate:
            if samples * (dim + d * d + dim * dim) > MC_BUDGET:
                raise ValueError("sample %d holds another gate than sample 0: a Monte-Carlo stack of %d "
                                 "samples x (%d + %d^2 + %d^2) entries exceeds the budget of %d"
                                 % (i, samples, dim, d, dim, MC_BUDGET))
            gates = np.empty((samples, dim, dim), dtype=complex)
            gates[:i] = gate
            gates[i] = ch.joint_unitary
    psi = haar_state(rng, d, (samples,))
    joint = (programs[:, :, None] * psi[:, None, :]).reshape(samples, dim)  # |phi> (x) |psi>
    out = joint @ gate.T if gates is None else (gates @ joint[:, :, None])[:, :, 0]
    ops = make_spin_operators(first.k)
    w, v = np.linalg.eigh(np.einsum("nc,cij->nij", axes, np.array([ops.jx, ops.jy, ops.jz])))
    # V psi = v e^{-i theta w} v^dag psi
    ideal = np.einsum("nij,nj->ni", v, np.exp(-1j * theta * w) * np.einsum("nji,nj->ni", v.conj(), psi))
    inner = np.einsum("ni,nai->na", ideal.conj(), out.reshape(samples, dc, d))
    values = np.sum(np.abs(inner) ** 2, axis=1)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def _chart_states(x, dim):
    """Pure states (first amplitude real >= 0) for rows of chart parameters:
    hyperspherical magnitudes x[:, :dim-1], phases of the other amplitudes x[:, dim-1:]."""
    mags, phases = x[:, : dim - 1], x[:, dim - 1 :]
    # rest[:, i]: weight left after amplitude i.  float_power squares with C
    # pow() as a float64 scalar's ** 2 does, for states bitwise equal to a loop's
    rest = np.cumprod(np.float_power(np.sin(mags), 2), axis=1)
    amps = np.empty((len(x), dim), dtype=complex)
    amps[:, 0] = np.cos(mags[:, 0])
    amps[:, 1 : dim - 1] = np.sqrt(rest[:, :-1]) * np.cos(mags[:, 1:])
    amps[:, dim - 1] = np.sqrt(rest[:, -1])
    amps[:, 1:] *= np.exp(1j * phases)
    return amps


def _fidelity_batch(mats, states):
    """F(psi) = sum_a |<psi| M_a |psi>|^2 for each row of `states` (one per family of a stack)."""
    inner = np.einsum("...i,...aij,...j->...a", states.conj(), mats, states)
    return (np.abs(inner) ** 2).sum(-1)


def worst_case_fidelity(ch: ProgramChannel | KrausChannel, target_gate, grid: int = CHART_GRID):
    """Minimize <psi|V^dag C(psi) V|psi> over pure target inputs: `_worst_cases`
    on a stack of one family.  Exact for a qubit target, and for a spin-1
    target (d = 3) when each V^dag K_a has its nonzero entries on one diagonal,
    as those of a program along the rotation axis do; otherwise an upper bound
    from the chart search, the only route `grid` (>= 8) applies to.

    Returns (value, argmin_state), with value the fidelity of that state.
    """
    v = _check_unitary(target_gate, ch.target_dim)
    values, states = _worst_cases((v.conj().T @ ch.kraus_operators())[None], grid)
    return values[0], states[0]


def _worst_cases(mats, grid=CHART_GRID):
    """The worst case of each family of a stack of V^dag K_a, shape (n, count, d, d),
    as (a list of values, the states, shape (n, d)), each value F at its state.

    The route is chosen here alone: a stack of qubit families that each lie on
    one diagonal takes the stacked quadratic in |psi_0|^2; otherwise each family
    takes the Bloch-sphere route (d = 2), the spin-1 quartic (d = 3, one
    diagonal) or the chart search, the best point of a grid over the state
    chart refined by Nelder-Mead from its three best cells (on one diagonal
    psi_n -> e^{i n phi} psi_n leaves F unchanged, so the grid holds the phase
    of psi_1 at 0).  Each route claims a minimum at its state; one check of
    every claim against F raises ToleranceError on a gap over 1e-12, naming
    the route, with `index` the family.
    """
    d = mats.shape[-1]
    if d == 2 and _on_one_diagonal(mats):
        claims, states = _qubit_one_diagonal_minimum(mats)
        messages = "qubit quadratic differs from F on its state by %r"
    else:  # family by family
        names, claims, states = zip(*(
            ("Bloch quadratic",) + _qubit_minimum(m) if d == 2
            else ("spin-1 quartic",) + _spin_one_minimum(m) if d == 3 and _on_one_diagonal(m)
            else ("chart search",) + _chart_search(m, grid) for m in mats))
        claims, states = np.array(claims), np.array(states)
        messages = [n + " differs from F on its state by %r" for n in names]
    values = _fidelity_batch(mats, states)
    check_each(abs(claims - values), 1e-12, messages)
    return values.tolist(), states


def _chart_axes(d, count, one_diagonal, grid=CHART_GRID):
    """The axes of the chart grid that `_chart_search` searches for d
    amplitudes and `count` Kraus operators, with the phase of psi_1 held at 0
    when `one_diagonal`; a grid over the WORST_CASE_BUDGET is refused."""
    if grid < 8:
        raise ValueError("grid must be >= 8")
    nmag = max(6, grid // 2)
    phases = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    axes = [np.linspace(0.0, np.pi / 2, nmag)] * (d - 1) + [phases] * (d - 1)
    if one_diagonal:
        axes[d - 1] = phases[:1]
    n_points = math.prod(len(a) for a in axes)
    if n_points * max(count, d) > WORST_CASE_BUDGET:
        raise ValueError("worst-case search over 10^%.1f chart points (d = %d, %d Kraus "
                         "operators) exceeds the budget of %d"
                         % (math.log10(n_points), d, count, WORST_CASE_BUDGET))
    return axes


def _chart_search(mats, grid):
    """The chart search of `_worst_cases` for one family, as (value, state) with value = F(state)."""
    d = mats.shape[-1]
    axes = _chart_axes(d, len(mats), _on_one_diagonal(mats), grid)
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = _fidelity_batch(mats, _chart_states(points, d))

    order = np.argsort(values)
    best_val = values[order[0]]
    best_x = points[order[0]]

    def objective(x):
        return float(_fidelity_batch(mats, _chart_states(x[None, :], d))[0])

    for idx in order[:3]:
        res = minimize(objective, points[idx], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if res.fun < best_val:
            best_val = res.fun
            best_x = res.x
    return float(best_val), _chart_states(best_x[None, :], d)[0]


def _on_one_diagonal(mats):
    """Whether each M_a (of every family of a stack) has its nonzero entries on one diagonal."""
    d = mats.shape[-1]
    a, i, j = np.nonzero(mats.reshape(-1, d, d))  # in order: an operator's entries are adjacent
    offset = j - i
    return bool((offset[1:] == offset[:-1])[a[1:] == a[:-1]].all())


def _qubit_minimum(mats):
    """Exact minimum over pure qubit states of F = sum_a |<psi|M_a|psi>|^2.

    With rho = (I + r.sigma)/2, F(r) = (1, r).G.(1, r) on |r| = 1, the
    trust-region subproblem (More & Sorensen 1983).  In the eigenbasis P of
    Q = G[1:, 1:], with h = P^T G[1:, 0] and gap_i = lambda_i - lambda_1, the
    minimum is r_i = -h_i / (gap_i + t) at the t >= 0 where |r| = 1, bisected
    as |r| falls in t; in the hard case (h_1 = 0 and |r| <= 1 at t = 0) r is
    completed to unit length along P[:, 0].

    Returns (value, state), the value from the quadratic.
    """
    coef = np.einsum("aij,kji->ak", mats, PAULI) / 2.0  # <psi|M_a|psi> = coef_a.(1, r)
    gram = (coef.T @ coef.conj()).real
    lam, p = np.linalg.eigh(gram[1:, 1:])
    h, gap = p.T @ gram[1:, 0], lam - lam[0]

    pairs = list(zip(h.tolist(), gap.tolist()))

    def coords(t):  # entries with h_i = 0 stay 0
        return [-h_i / (g_i + t) if h_i != 0.0 else 0.0 for h_i, g_i in pairs]

    def excess(t):  # |r|^2 - 1, falling in t
        x, y, z = coords(t)
        return x * x + y * y + z * z - 1.0

    # at lo one term of |r|^2 is >= 1; at hi each is <= h_i^2/|h|^2
    lo, hi = float(max(0.0, np.max(np.abs(h) - gap))), float(np.linalg.norm(h))
    t = lo
    if excess(lo) > 0.0:  # else the root is lo, or the hard case
        t = (lo + hi) / 2.0
        while lo < t < hi:  # bisect until the midpoint is an end of the bracket
            lo, hi = (t, hi) if excess(t) > 0.0 else (lo, t)
            t = (lo + hi) / 2.0
    r = np.array(coords(t))
    if t == 0.0:  # the hard case, as lo = 0 needs h_1 = 0
        r[0] = math.sqrt(max(-excess(0.0), 0.0))
    v = np.r_[1.0, p @ r / np.linalg.norm(r)]
    state = np.linalg.eigh(np.einsum("k,kij->ij", v, PAULI))[1][:, 1]  # top eigenvector of 2 rho
    return v @ gram @ v, state


def _qubit_one_diagonal_minimum(mats):
    """Exact minimum over pure qubit states of F = sum_a |<psi|M_a|psi>|^2
    when each M_a has its nonzero entries on one diagonal.

    With x = |psi_0|^2 and w = (x, 1 - x), the diagonal operators give w.H.w
    with H as in `_spin_one_minimum`, and those of offset +-1 give P x (1 - x),
    P = sum_a |M_a[0, 1]|^2 + |M_a[1, 0]|^2; the phases do not enter.  So
    F = H_00 x^2 + (2 H_01 + P) x (1 - x) + H_11 (1 - x)^2, a quadratic in x
    on [0, 1] that `_interval_quadratic_minimum` minimizes.

    Returns (value, state), the value from the quadratic and state = (sqrt x,
    sqrt(1 - x)); for a stack of families (leading axes), stacks of both.
    """
    diag = mats.diagonal(0, -2, -1)
    h = (diag.swapaxes(-1, -2) @ diag.conj()).real
    crosses = 2.0 * h[..., 0, 1] + (np.abs(mats[..., 0, 1]) ** 2 + np.abs(mats[..., 1, 0]) ** 2).sum(-1)
    best = []  # each family's candidates are scalar floats, as at one family
    for abc in zip(*(a.ravel().tolist() for a in (h[..., 0, 0], crosses, h[..., 1, 1]))):
        value, x = _interval_quadratic_minimum(*abc)
        best.append((value, math.sqrt(x), math.sqrt(1.0 - x)))
    best = np.array(best).reshape(crosses.shape + (3,))  # the value, then the state (sqrt x, sqrt(1 - x))
    return best[..., 0], best[..., 1:].astype(complex)


def _interval_quadratic_minimum(a, b, c):
    """(value, x) at the minimum of a x^2 + b x (1 - x) + c (1 - x)^2 over x in [0, 1], in
    floats: at x = 0, at x = 1 or, if a - b + c > 0, at the vertex clipped to [0, 1]."""
    curvature = a - b + c
    xs = [0.0, 1.0]
    if curvature > 0.0:
        xs.append(min(max((2.0 * c - b) / (2.0 * curvature), 0.0), 1.0))
    return min((a * x * x + b * x * (1.0 - x) + c * (1.0 - x) ** 2, x) for x in xs)


# cos^2(psi/2), sin^2(psi/2) and sin(psi) as coefficients of z^-1, z^0, z^1, z = e^{i psi}
_COS2 = np.array([0.25, 0.5, 0.25])
_SIN2 = np.array([-0.25, 0.5, -0.25])
_SIN = np.array([0.5j, 0.0, -0.5j])


def _pad(c, n=1):
    """c with n zero coefficients on each side, as np.pad(c, n) at a fraction of its cost."""
    zeros = np.zeros(n)
    return np.concatenate((zeros, c, zeros))


def _derivative(c):
    """d/dpsi of sum_k c_k e^{i k psi}, k = -n .. n."""
    n = len(c) // 2
    return 1j * np.arange(-n, n + 1) * c


def _angles(c):
    """Angles in [0, pi] of the roots of sum_k c_k z^k, clipped from the
    roots' arguments whatever their moduli."""
    return np.clip(np.angle(np.roots(c[::-1])), 0.0, np.pi)


def _value_at(c, psi):
    """sum_k c_k e^{i k psi} at each angle, a real trigonometric polynomial."""
    n = len(c) // 2
    return (np.exp(1j * np.outer(psi, np.arange(-n, n + 1))) @ c).real


def _spin_one_minimum(mats):
    """Exact minimum over pure spin-1 states of F = sum_a |<psi|M_a|psi>|^2
    when each M_a has its nonzero entries on one diagonal.

    With psi_n = r_n e^{i phi_n} and w = (r_0^2, r_1^2, r_2^2),
    F = w.H.w + r_1^2 (P r_0^2 + Q r_2^2 + 2 r_0 r_2 Re(T e^{i delta})),
    delta = phi_2 - 2 phi_1 + phi_0: the diagonal operators and those of
    offset +-2 make the real matrix H, those of offset +-1 make P, Q and T.
    delta = pi - arg T gives the last term -2|T| r_0 r_2.  With
    r_0 = sqrt(s) cos(psi/2), r_2 = sqrt(s) sin(psi/2), r_1 = sqrt(1 - s),
    s in [0, 1] and psi in [0, pi], F = alpha s^2 + beta s (1 - s) + gamma (1 - s)^2
    with trigonometric polynomials alpha (degree 2), beta (degree 1) and the
    constant gamma = H_11.  The minimum is at s = 0; at s = 1 where alpha' = 0
    or psi is 0 or pi; or, where A = alpha - beta + gamma > 0, at
    s = (2 gamma - beta) / 2A and a psi in {0, pi} or one where the minimum
    over s, (4 alpha gamma - beta^2) / 4A, is stationary: a root of a
    trigonometric polynomial of degree 4, found with np.roots in z = e^{i psi}.
    At each of these angles `_interval_quadratic_minimum` minimizes over s.

    Returns (value, state), the value from the quadratic in s.
    """
    # one diagonal per operator: its entries off that diagonal are zero, so
    # summing every offset's terms over all operators groups them by offset
    diag = np.diagonal(mats, axis1=1, axis2=2)
    h = (diag.T @ diag.conj()).real
    corner = np.sum(np.abs(mats[:, 0, 2]) ** 2 + np.abs(mats[:, 2, 0]) ** 2) / 2
    h[0, 2] += corner
    h[2, 0] += corner
    up, down = mats[:, [0, 1], [1, 2]], mats[:, [1, 2], [0, 1]]
    p, q = np.sum(np.abs(up) ** 2 + np.abs(down) ** 2, axis=0)
    t = np.sum(up[:, 0].conj() * up[:, 1] + down[:, 0] * down[:, 1].conj())

    alpha = (h[0, 0] * np.convolve(_COS2, _COS2) + 2 * h[0, 2] * np.convolve(_COS2, _SIN2)
             + h[2, 2] * np.convolve(_SIN2, _SIN2))
    beta = (2 * h[0, 1] + p) * _COS2 + (2 * h[2, 1] + q) * _SIN2 - abs(t) * _SIN
    gamma = float(h[1, 1])
    curvature = alpha - _pad(beta) + _pad([gamma], 2)
    d_alpha, d_beta = _derivative(alpha), _derivative(beta)
    stationary = (np.convolve(4 * gamma * d_alpha - 2 * np.convolve(beta, d_beta), curvature)
                  - np.convolve(4 * gamma * alpha - np.convolve(beta, beta),
                                d_alpha - _pad(d_beta)))

    psis = np.r_[0.0, np.pi, _angles(d_alpha), _angles(stationary)]
    quartic, s, psi = min(_interval_quadratic_minimum(a, b, gamma) + (psi,) for a, b, psi in zip(
        _value_at(alpha, psis).tolist(), _value_at(beta, psis).tolist(), psis.tolist()))
    r = np.array([math.sqrt(s) * math.cos(psi / 2), math.sqrt(1.0 - s), math.sqrt(s) * math.sin(psi / 2)])
    return quartic, r * np.array([1.0, 1.0, np.exp(1j * (np.pi - np.angle(t)))])
