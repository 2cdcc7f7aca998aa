"""Program-controlled channels: partial traces, fidelities, and Monte-Carlo checks.

A program channel is C(rho) = Tr_control[ U (phi (x) rho) U^dag ], with the
tensor order fixed globally as control (x) target ((x) reference last when one
is present).  Everything here works for arbitrary control/target dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import Direction, HalfInteger, ToleranceError, make_spin_operators, rotation_unitary

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
# largest chart points x max(Kraus operators, d) the worst-case grid search
# admits; a point needs d complex amplitudes for its state and one complex
# overlap per Kraus operator; larger searches are refused
WORST_CASE_BUDGET = 2**25
# I, sigma_x, sigma_y, sigma_z
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


# scipy.optimize costs ~0.6 s to import, so it loads on the first call that
# needs it; these stay module names because tests and perfbench/tracing.py
# patch them, and the call sites read them as globals
def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace is %r, not 1" % np.trace(m))
        w = np.linalg.eigvalsh(m)
        if w.min() < EIG_FLOOR:
            raise ValueError("density matrix has negative eigenvalue %g" % w.min())

    @property
    def dim(self):
        return self.matrix.shape[0]


def pure_density(psi) -> DensityMatrix:
    psi = np.asarray(psi, dtype=complex)
    return DensityMatrix(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class ProgramChannel:
    """A joint unitary on control (x) target together with a fixed program state."""

    joint_unitary: np.ndarray
    program_state: np.ndarray
    j: HalfInteger
    k: HalfInteger
    _kraus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.joint_unitary, dtype=complex)
        phi = np.asarray(self.program_state, dtype=complex)
        object.__setattr__(self, "joint_unitary", u)
        object.__setattr__(self, "program_state", phi)
        dc = self.j.doubled + 1
        dt = self.k.doubled + 1
        if u.shape != (dc * dt, dc * dt):
            raise ValueError("joint unitary has shape %s, expected %d" % (u.shape, dc * dt))
        if phi.shape != (dc,):
            raise ValueError("program state dimension %d != 2j+1 = %d" % (phi.size, dc))
        if np.abs(u @ u.conj().T - np.eye(dc * dt)).max() > 1e-12:
            raise ValueError("joint evolution is not unitary")
        if abs(np.linalg.norm(phi) - 1.0) >= 1e-12:
            raise ValueError("program state is not normalized")
        # Kraus operators K_a = (<a| (x) I) U (|phi> (x) I), one per control
        # basis state; these realize the partial trace over the control.
        blocks = u.reshape(dc, dt, dc, dt)
        kraus = np.einsum("aibj,b->aij", blocks, phi)
        kraus.setflags(write=False)
        object.__setattr__(self, "_kraus", kraus)

    @property
    def control_dim(self):
        return self.j.doubled + 1

    @property
    def target_dim(self):
        return self.k.doubled + 1

    def kraus_operators(self) -> np.ndarray:
        """Stack of Kraus operators, shape (control_dim, target_dim, target_dim)."""
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
        completeness = np.einsum("aji,ajl->il", k.conj(), k)
        error = np.abs(completeness - np.eye(k.shape[1])).max()
        if not error <= 1e-12:  # a NaN fails too
            raise ValueError("Kraus operators are not complete: |sum K^dag K - I| = %g" % error)
        k.setflags(write=False)
        object.__setattr__(self, "operators", k)

    @property
    def target_dim(self):
        return self.operators.shape[1]

    def kraus_operators(self) -> np.ndarray:
        return self.operators


def apply_program_channel(ch: ProgramChannel, rho_in: DensityMatrix) -> DensityMatrix:
    """Push a target state through the channel: sum_a K_a rho K_a^dag."""
    if rho_in.dim != ch.target_dim:
        raise ValueError("input dimension %d != target dimension %d" % (rho_in.dim, ch.target_dim))
    k = ch.kraus_operators()
    out = np.einsum("aij,jl,akl->ik", k, rho_in.matrix, k.conj())
    return DensityMatrix(out)


def _check_unitary(v, dim):
    v = np.asarray(v, dtype=complex)
    if v.shape != (dim, dim) or np.abs(v @ v.conj().T - np.eye(dim)).max() > 1e-10:
        raise ValueError("target gate is not a %dx%d unitary" % (dim, dim))
    return v


def entanglement_fidelity(ch: ProgramChannel | KrausChannel, target_gate) -> float:
    """<Phi+_V| (C (x) I)(Phi+) |Phi+_V> for the canonical |Phi+> = sum_m |mm>/sqrt(d).

    With Kraus operators this collapses to sum_a |Tr[V^dag K_a]|^2 / d^2.
    """
    d = ch.target_dim
    v = _check_unitary(target_gate, d)
    k = ch.kraus_operators()
    overlaps = np.einsum("ji,aji->a", v.conj(), k)  # Tr[V^dag K_a]
    fe = float(np.sum(np.abs(overlaps) ** 2).real) / d**2
    if not -1e-12 <= fe <= 1 + 1e-12:
        raise ToleranceError("entanglement fidelity %r escapes [0, 1]" % fe)
    return min(max(fe, 0.0), 1.0)


def average_fidelity_from_entanglement(fe: float, d: int) -> float:
    """The standard relation F_avg = (d*F_e + 1)/(d + 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return (d * fe + 1.0) / (d + 1.0)


def haar_direction(rng) -> np.ndarray:
    """Uniform point on the sphere: uniform cos(polar), uniform azimuth."""
    u = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * np.pi)
    s = np.sqrt(1.0 - u * u)
    return np.array([s * np.cos(az), s * np.sin(az), u])


def haar_state(rng, dim) -> np.ndarray:
    """Haar-uniform pure state: normalized vector of complex Gaussians."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def average_fidelity_mc(ch_builder, theta, samples, seed):
    """Monte-Carlo estimate of the axis- and state-averaged fidelity.

    ch_builder maps a Direction to a ProgramChannel; the ideal gate for axis n
    is the target-spin rotation by theta about n.  The sample stream is fully
    determined by the seed (numpy default_rng; per sample: cos-polar, azimuth,
    then the state components), so identical calls give identical results.

    Returns (mean, stderr).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    ops = None
    for i in range(samples):
        nvec = haar_direction(rng)
        n = Direction.normalized(*nvec)
        ch = ch_builder(n)
        if ops is None or ops.j != ch.k:
            ops = make_spin_operators(ch.k)
        psi = haar_state(rng, ch.target_dim)
        v = rotation_unitary(ops, n, theta)
        out = apply_program_channel(ch, pure_density(psi))
        ideal = v @ psi
        values[i] = (ideal.conj() @ out.matrix @ ideal).real
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
    """F(psi) = sum_a |<psi| M_a |psi>|^2 for each row of `states`."""
    inner = np.einsum("ni,aij,nj->na", states.conj(), mats, states)
    return np.sum(np.abs(inner) ** 2, axis=1)


def worst_case_fidelity(ch: ProgramChannel | KrausChannel, target_gate, grid: int = 16):
    """Minimize <psi|V^dag C(psi) V|psi> over pure target inputs.

    Exact for a qubit target.  For d >= 3 the value is an upper bound on the
    minimum: the best point of a grid over the state chart, refined by
    Nelder-Mead from the three best grid cells; `grid` (>= 8) applies there only.
    When each V^dag K_a has its nonzero entries on one diagonal, as those of a
    program along the rotation axis do, psi_n -> e^{i n phi} psi_n leaves the
    fidelity unchanged, and the grid holds the phase of psi_1 at 0.

    Returns (value, argmin_state), with value the fidelity of that state.
    """
    d = ch.target_dim
    v = _check_unitary(target_gate, d)
    mats = v.conj().T @ ch.kraus_operators()  # broadcast over the Kraus index
    return _qubit_minimum(mats) if d == 2 else _chart_search(mats, grid)


def _chart_axes(d, count, one_diagonal, grid=16):
    """The axes of the chart grid that `worst_case_fidelity` searches for d
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
    """worst_case_fidelity's search for d >= 3; it covers d = 2 as well."""
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
    """Whether each M_a has all its nonzero entries on one diagonal M_a[i, i + s_a]."""
    for m in mats:
        rows, cols = np.nonzero(m)
        if np.unique(cols - rows).size > 1:
            return False
    return True


def _qubit_minimum(mats):
    """Exact minimum over pure qubit states of F = sum_a |<psi|M_a|psi>|^2.

    With rho = (I + r.sigma)/2, F(r) = (1, r).G.(1, r) on |r| = 1, the
    trust-region subproblem (More & Sorensen 1983).  In the eigenbasis P of
    Q = G[1:, 1:], with h = P^T G[1:, 0] and gap_i = lambda_i - lambda_1, the
    minimum is r_i = -h_i / (gap_i + t) at the t >= 0 where |r| = 1; in the
    hard case (h_1 = 0 and |r| <= 1 at t = 0) r is completed to unit length
    along P[:, 0].

    Returns (value, state) with value = F(state).
    """
    coef = np.einsum("aij,kji->ak", mats, PAULI) / 2.0  # <psi|M_a|psi> = coef_a.(1, r)
    gram = (coef.T @ coef.conj()).real
    lam, p = np.linalg.eigh(gram[1:, 1:])
    h, gap = p.T @ gram[1:, 0], lam - lam[0]

    def coords(t):  # entries with h_i = 0 stay 0
        return np.divide(-h, gap + t, out=np.zeros(3), where=h != 0.0)

    def excess(t):  # |r|^2 - 1, falling in t
        return coords(t) @ coords(t) - 1.0

    # at t_lo one term of |r|^2 is >= 1; at t_hi each is <= h_i^2/|h|^2
    t_lo, t_hi = max(0.0, np.max(np.abs(h) - gap)), np.linalg.norm(h)
    if excess(t_lo) > 0.0 > excess(t_hi):
        t = brentq(excess, t_lo, t_hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps)
    else:  # a root at an end of the bracket, or the hard case
        t = t_lo if excess(t_lo) <= 0.0 else t_hi
    r = coords(t)
    if t == 0.0:  # the hard case, as t_lo = 0 needs h_1 = 0
        r[0] = math.sqrt(max(-excess(0.0), 0.0))
    v = np.r_[1.0, p @ r / np.linalg.norm(r)]
    state = np.linalg.eigh(np.einsum("k,kij->ij", v, PAULI))[1][:, 1]  # top eigenvector of 2 rho
    value = float(_fidelity_batch(mats, state[None, :])[0])
    if abs(v @ gram @ v - value) > 1e-12:
        raise ToleranceError("Bloch quadratic %r differs from F = %r on its state"
                             % (v @ gram @ v, value))
    return value, state
