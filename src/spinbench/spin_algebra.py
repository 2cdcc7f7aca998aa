"""Angular-momentum operators, rotations, coherent states, and total-spin projectors.

Conventions used throughout the package:

* spin quantum numbers are carried as :class:`HalfInteger` (doubled-integer
  storage, so no float equality on j, k, m),
* every matrix is dense, complex, and written in the basis m = j, j-1, ..., -j
  (descending),
* hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scalars import (  # noqa: F401  (re-exported: the scalar layer's names are importable from here too)
    MAX_DOUBLED_SPIN,
    HalfInteger,
    ToleranceError,
    _is_complex,
    as_angle,
    as_half_integer,
    as_spin,
)

# Matrices are never exponentiated beyond this dimension (2j+1 <= DIM_CAP).
DIM_CAP = 2001


def check_each(errors, bound, message, error=ToleranceError):
    """Raise error(message % e) at the first e of `errors` not <= bound, NaN too (an empty
    `errors` passes); `index` is its row.  `message` may also be a list of one message per row."""
    if not errors.max(initial=-np.inf) <= bound:  # NaN is the max of an array that holds one
        i = int(np.argmin(errors.ravel() <= bound))
        row = np.unravel_index(i, errors.shape)[0] if errors.ndim else None
        exc = error((message if isinstance(message, str) else message[row]) % errors.flat[i])
        exc.index = row
        raise exc


@dataclass(frozen=True)
class Direction:
    """A unit vector on the Bloch sphere (rotation axis)."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        norm2 = self.nx * self.nx + self.ny * self.ny + self.nz * self.nz
        if not abs(norm2 - 1.0) <= 1e-14:  # a NaN fails too
            raise ValueError(
                "direction (%g, %g, %g) is not unit length (|n|^2 - 1 = %g)"
                % (self.nx, self.ny, self.nz, norm2 - 1.0)
            )

    @classmethod
    def normalized(cls, nx, ny, nz):
        r = np.sqrt(nx * nx + ny * ny + nz * nz)
        if not 0.0 < r < math.inf:
            raise ValueError("cannot normalize (%g, %g, %g) to unit length" % (nx, ny, nz))
        return cls(nx / r, ny / r, nz / r)

    def as_array(self):
        return np.array([self.nx, self.ny, self.nz])


Z_AXIS = Direction(0.0, 0.0, 1.0)
X_AXIS = Direction(1.0, 0.0, 0.0)


class SpinOperators(NamedTuple):
    j: HalfInteger
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dim(self):
        return self.j.doubled + 1


def _check_dimension(dim):
    if dim > DIM_CAP:
        raise ValueError("dimension %d exceeds cap %d" % (dim, DIM_CAP))


# the two spins last used: 3 (2j+1)^2 complex entries each, so at most 2**25
# in all at 2j + 1 = DIM_CAP, the bound total_spin_projectors keeps
@lru_cache(maxsize=2)
def _spin_matrices(doubled_j):
    j = doubled_j / 2
    dim = doubled_j + 1
    _check_dimension(dim)
    m = j - np.arange(dim)  # descending j .. -j
    # ladder elements <m+1| J_+ |m> = sqrt(j(j+1) - m(m+1))
    raise_elems = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = raise_elems
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    for a in (jx, jy, jz):
        a.setflags(write=False)
    return jx, jy, jz


def make_spin_operators(j) -> SpinOperators:
    """Build (J_x, J_y, J_z) for spin j via the standard ladder construction."""
    j = as_half_integer(j)
    if j.doubled < 0:
        raise ValueError("spin must be non-negative, got %s" % j)
    jx, jy, jz = _spin_matrices(j.doubled)
    return SpinOperators(j, jx, jy, jz)


def rotation_unitary(ops: SpinOperators, n: Direction, angle: float) -> np.ndarray:
    """exp(-i * angle * n.J) through the spectral decomposition of n.J.

    The generator is Hermitian, so the eigendecomposition route keeps the
    result unitary to machine precision for any angle.
    """
    as_angle(angle, "angle")
    if not isinstance(n, Direction):
        n = Direction(*n)
    h = n.nx * ops.jx + n.ny * ops.jy + n.nz * ops.jz
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def spin_coherent_state(j, n: Direction) -> np.ndarray:
    """The state |j, j> rotated so that its spin points along n.

    The rotation taking z to n is fixed once and for all: about z x n
    (normalized) by the polar angle beta = arccos(n_z), and about x by pi for
    n = -z.  Any smooth section would give the same fidelities; this one makes
    outputs reproducible.  Off the poles the amplitudes are the closed form
    psi_{j-k} = sqrt(C(2j, k)) cos^{2j-k}(beta/2) sin^k(beta/2) e^{i k phi},
    phi the azimuth of n.  Their moduli are a running product from the end
    nearer n, psi_j = cos^{2j}(beta/2) (psi_{-j} = sin^{2j}(beta/2) past the
    equator), of ratios sqrt((2j - k)/(k + 1)) tan(beta/2) <= sqrt(2j): every
    partial product is an amplitude, so none over- or underflows at 2j + 1 <=
    DIM_CAP, and no binomial is formed.
    """
    j = as_spin(j, "spin")
    if not isinstance(n, Direction):
        n = Direction(*n)
    two_j = j.doubled
    _check_dimension(two_j + 1)
    if n.nx * n.nx + n.ny * n.ny < 1e-30:
        psi = np.zeros(two_j + 1, dtype=complex)
        if n.nz > 0:
            psi[0] = 1.0
        else:  # exp(-i pi J_x) |j, j> = (-i)^(2j) |j, -j>
            psi[-1] = (1.0, -1j, -1.0, 1j)[two_j % 4]
        return psi
    # tan(beta/2) in the form without cancellation, then mirrored to <= 1
    rho = math.hypot(n.nx, n.ny)
    tan_half = rho / (1.0 + n.nz) if n.nz >= 0.0 else rho / (1.0 - n.nz)
    ladder, ik = _coherent_ladder(two_j)
    steps = ladder * tan_half
    steps[0] = (1.0 + tan_half * tan_half) ** (-two_j / 2)
    mags = steps.cumprod() if n.nz >= 0.0 else steps.cumprod()[::-1]
    psi = np.exp(ik * math.atan2(n.ny, n.nx))
    psi *= mags / math.sqrt(mags @ mags)
    return psi


@lru_cache(maxsize=64)
def _coherent_ladder(two_j):
    """The moduli ratios |psi_{j-k} / psi_{j-k+1}| = sqrt((2j + 1 - k)/k) of a
    coherent state at tan(beta/2) = 1 for k = 1 .. 2j, after a 1 at k = 0, and
    the phase exponents i k for k = 0 .. 2j; both read-only."""
    k = np.arange(1, two_j + 1)
    ladder = np.r_[1.0, np.sqrt((two_j + 1 - k) / k)]
    ik = 1j * np.arange(two_j + 1)
    for a in (ladder, ik):
        a.setflags(write=False)
    return ladder, ik


def _jacobi_rotation(d0, e, d1):
    """The eigenpairs of the symmetric 2 x 2 matrix [[d0, e], [e, d1]], e != 0, from one Jacobi
    rotation, in floats: (w0, w1, c, s) with eigenvalues w0 <= w1 and unit eigenvectors the
    columns (c, -s) and (s, c) of [[c, s], [-s, c]], as numpy.linalg.eigh orders them.

    With h = (d1 - d0)/2e the rotation's tangent t = sgn(h)/(|h| + sqrt(1 + h^2)) is the root
    of t^2 + 2ht - 1 = 0 of modulus <= 1, formed without cancellation, and the eigenvalues are
    d0 - te and d1 + te (Golub & Van Loan, Matrix Computations, sec. 8.5.2): ascending, they are
    min(d0, d1) - |te| and max(d0, d1) + |te|.  No difference of two eigenvalue-sized terms is
    formed, so an eigenvalue keeps its digits where l(l+1) - j(j+1) - k(k+1) would cancel.
    """
    h = (d1 - d0) / (2.0 * e)
    t = 1.0 / (abs(h) + math.hypot(1.0, h))  # |t|
    cos = 1.0 / math.sqrt(1.0 + t * t)
    sin = math.copysign(t * cos, e)  # t cos, if d0 <= d1
    shift = t * abs(e)
    if d0 <= d1:
        return d0 - shift, d1 + shift, cos, sin
    return d1 - shift, d0 + shift, sin, cos  # the rotation by pi/2 minus the angle


@lru_cache(maxsize=64)
def _exchange_block(doubled_j, doubled_k, drop):
    """The total-M block of 2 J.K on the product space j (x) k with M = j + k - drop.

    2 J.K = 2 J_z K_z + J_+ K_- + J_- K_+ conserves M = m_j + m_k, so it splits
    into tridiagonal blocks of size <= 2 min(j, k) + 1, one per drop = 0 ..
    2j + 2k.  The entry is (indices, w, v), all three read-only: the
    product-basis positions of the block (m_j descending within it) and the
    eigendecomposition of the block, as numpy.linalg.eigh gives it.  The
    eigenvalues are l(l+1) - j(j+1) - k(k+1), so in a block of size s the i-th
    eigenvector (ascending) is the |l, M> state with l = j + k - s + 1 + i.
    A block of one state is its own eigenpair, and one of two states takes one
    Jacobi rotation (`_jacobi_rotation`), so a qubit target (every block of at
    most two states) calls no LAPACK routine; larger blocks take eigh.  The
    block does not depend on the coupling angle, so it is cached for repeated
    calls at one spin in one process.  v is checked orthogonal,
    |v^T v - I| <= 1e-12 (ToleranceError, naming no angle), before the entry
    is cached, so a basis that fails is never cached.
    """
    j, k = doubled_j / 2, doubled_k / 2
    a = range(max(0, drop - doubled_k), min(drop, doubled_j) + 1)
    mj, mk = [j - x for x in a], [k - (drop - x) for x in a]
    diagonal = [2.0 * x * y for x, y in zip(mj, mk)]
    # <m_j+1, m_k-1| J_+ K_- |m_j, m_k> couples each state to its predecessor
    off = [math.sqrt(j * (j + 1) - x * (x + 1)) * math.sqrt(k * (k + 1) - y * (y - 1))
           for x, y in zip(mj[1:], mk[1:])]
    if len(a) == 1:
        w, v = np.array(diagonal), np.ones((1, 1))
    elif len(a) == 2:
        w0, w1, c, s = _jacobi_rotation(diagonal[0], off[0], diagonal[1])
        w, v = np.array([w0, w1]), np.array([[c, s], [-s, c]])
    else:
        w, v = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    error = abs(v.T @ v - np.eye(len(w))).max()
    if not error <= 1e-12:  # a NaN fails too
        raise ToleranceError("exchange basis of (2j, 2k, drop) = (%d, %d, %d) is not orthogonal (error %g)"
                             % (doubled_j, doubled_k, drop, error))
    indices = np.array([x * (doubled_k + 1) + drop - x for x in a])
    for x in (indices, w, v):
        x.setflags(write=False)
    return indices, w, v


def total_spin_projectors(j1, j2):
    """Projectors onto the total-spin-l blocks of j1 (x) j2, l = j1+j2 .. |j1-j2|.

    Returns a list of (l, P_l) pairs, l descending.
    """
    j1 = as_half_integer(j1)
    j2 = as_half_integer(j2)
    if j1.doubled < 0 or j2.doubled < 0:
        raise ValueError("spins must be non-negative")
    dim = (j1.doubled + 1) * (j2.doubled + 1)
    count = min(j1.doubled, j2.doubled) + 1
    if count * dim * dim > 2 ** 25:  # complex entries in all: 512 MiB
        raise ValueError("coupled dimension %d too large for %d projectors" % (dim, count))
    top = j1.doubled + j2.doubled
    projectors = {two_l: np.zeros((dim, dim), dtype=complex)
                  for two_l in range(top, abs(j1.doubled - j2.doubled) - 2, -2)}
    for drop in range(top + 1):
        indices, _, v = _exchange_block(j1.doubled, j2.doubled, drop)
        block, size = np.ix_(indices, indices), len(indices)
        for i in range(size):
            projectors[top - 2 * (size - 1 - i)][block] += np.outer(v[:, i], v[:, i])
    return [(HalfInteger(two_l), p) for two_l, p in projectors.items()]
