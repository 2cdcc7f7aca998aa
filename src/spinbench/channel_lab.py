"""Program-controlled channels: partial traces, fidelities, and Monte-Carlo checks.

A program channel is C(rho) = Tr_control[ U (phi (x) rho) U^dag ], with the
tensor order fixed globally as control (x) target ((x) reference last when one
is present).  Everything here works for arbitrary control/target dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .spin_algebra import Direction, HalfInteger, ToleranceError, make_spin_operators, rotation_unitary

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
# largest chart points x Kraus operators the worst-case grid search evaluates
# at once (2**25 complex overlaps are 512 MiB); larger searches are refused
WORST_CASE_BUDGET = 2**25


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


def entanglement_fidelity(ch: ProgramChannel, target_gate) -> float:
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


def _state_from_chart(x, dim):
    """Map chart parameters to a pure state (first amplitude real >= 0).

    dim 2 uses the Bloch chart (polar, azimuth); higher dims use hyperspherical
    magnitudes plus one phase per amplitude after the first.
    """
    if dim == 2:
        t, p = x
        return np.array([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)])
    mags = x[: dim - 1]
    phases = x[dim - 1 :]
    amps = np.empty(dim, dtype=complex)
    rest = 1.0
    for i in range(dim - 1):
        amps[i] = np.sqrt(rest) * np.cos(mags[i])
        rest = rest * np.sin(mags[i]) ** 2
    amps[dim - 1] = np.sqrt(max(rest, 0.0))
    amps[1:] *= np.exp(1j * phases)
    return amps


def _fidelity_batch(mats, states):
    """F(psi) = sum_a |<psi| M_a |psi>|^2 for each row of `states`."""
    inner = np.einsum("ni,aij,nj->na", states.conj(), mats, states)
    return np.sum(np.abs(inner) ** 2, axis=1)


def worst_case_fidelity(ch: ProgramChannel, target_gate, grid: int = 24):
    """Minimize <psi|V^dag C(psi) V|psi> over pure target inputs.

    Coarse grid over the state chart, then Nelder-Mead refinement from the
    three best grid cells.  Heuristic but reliable at these dimensions.

    Returns (value, argmin_state).
    """
    if grid < 8:
        raise ValueError("grid must be >= 8")
    d = ch.target_dim
    v = _check_unitary(target_gate, d)
    mats = v.conj().T @ ch.kraus_operators()  # broadcast over the Kraus index

    if d == 2:
        axes = [np.linspace(0.0, np.pi, grid), np.linspace(0.0, 2 * np.pi, 2 * grid, endpoint=False)]
    else:
        nmag = max(6, grid // 2)
        axes = [np.linspace(0.0, np.pi / 2, nmag)] * (d - 1) + [
            np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
        ] * (d - 1)
    n_points = math.prod(len(a) for a in axes)
    if n_points * len(mats) > WORST_CASE_BUDGET:
        raise ValueError("worst-case search over %d chart points x %d Kraus operators "
                         "exceeds the budget of %d" % (n_points, len(mats), WORST_CASE_BUDGET))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    states = np.stack([_state_from_chart(x, d) for x in points])
    values = _fidelity_batch(mats, states)

    order = np.argsort(values)
    best_val = values[order[0]]
    best_x = points[order[0]]

    def objective(x):
        psi = _state_from_chart(x, d)
        return float(_fidelity_batch(mats, psi[None, :])[0])

    for idx in order[:3]:
        res = minimize(objective, points[idx], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if res.fun < best_val:
            best_val = res.fun
            best_x = res.x
    state = _state_from_chart(best_x, d)
    return float(best_val), state
