"""Angular-momentum operators, rotations, coherent states, and total-spin projectors.

Conventions used throughout the package:

* spin quantum numbers are carried as :class:`HalfInteger` (doubled-integer
  storage, so no float equality on j, k, m),
* every matrix is dense, complex, and written in the basis m = j, j-1, ..., -j
  (descending),
* hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Matrices are never exponentiated beyond this dimension (2j+1 <= DIM_CAP).
DIM_CAP = 2001


class ToleranceError(Exception):
    """A computed value breached an internal consistency bound."""


class HalfInteger:
    """An exact half-integer, stored as twice its value.

    HalfInteger(3) is 3/2; HalfInteger.from_value(1.5) is the same thing.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        if not isinstance(doubled, (int, np.integer)):
            raise TypeError("doubled must be an integer, got %r" % (doubled,))
        self.doubled = int(doubled)

    @classmethod
    def from_value(cls, value):
        doubled = 2 * value
        if doubled != round(doubled):
            raise ValueError("%r is not a half-integer" % (value,))
        return cls(int(round(doubled)))

    @property
    def value(self):
        return self.doubled / 2

    @property
    def is_integer(self):
        return self.doubled % 2 == 0

    def __float__(self):
        return self.doubled / 2

    def __eq__(self, other):
        if isinstance(other, HalfInteger):
            return self.doubled == other.doubled
        return self.value == other

    def __lt__(self, other):
        return self.value < _as_number(other)

    def __le__(self, other):
        return self.value <= _as_number(other)

    def __gt__(self, other):
        return self.value > _as_number(other)

    def __ge__(self, other):
        return self.value >= _as_number(other)

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        if self.doubled % 2 == 0:
            return "HalfInteger(%d)" % (self.doubled // 2)
        return "HalfInteger(%d/2)" % self.doubled

    def __str__(self):
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return "%d/2" % self.doubled


def _as_number(x):
    return x.value if isinstance(x, HalfInteger) else x


def as_half_integer(x) -> HalfInteger:
    """Coerce an int, exact half-integral float, or HalfInteger to HalfInteger."""
    if isinstance(x, HalfInteger):
        return x
    return HalfInteger.from_value(x)


@dataclass(frozen=True)
class Direction:
    """A unit vector on the Bloch sphere (rotation axis)."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        norm2 = self.nx * self.nx + self.ny * self.ny + self.nz * self.nz
        if abs(norm2 - 1.0) > 1e-14:
            raise ValueError(
                "direction (%g, %g, %g) is not unit length (|n|^2 - 1 = %g)"
                % (self.nx, self.ny, self.nz, norm2 - 1.0)
            )

    @classmethod
    def normalized(cls, nx, ny, nz):
        r = np.sqrt(nx * nx + ny * ny + nz * nz)
        if r == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(nx / r, ny / r, nz / r)

    @classmethod
    def from_polar(cls, polar, azimuth):
        s = np.sin(polar)
        return cls.normalized(s * np.cos(azimuth), s * np.sin(azimuth), np.cos(polar))

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


@lru_cache(maxsize=None)
def _spin_matrices(doubled_j):
    j = doubled_j / 2
    dim = doubled_j + 1
    if dim > DIM_CAP:
        raise ValueError("dimension %d exceeds cap %d" % (dim, DIM_CAP))
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
    if not isinstance(n, Direction):
        n = Direction(*n)
    h = n.nx * ops.jx + n.ny * ops.jy + n.nz * ops.jz
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def spin_coherent_state(j, n: Direction) -> np.ndarray:
    """The state |j, j> rotated so that its spin points along n.

    The rotation taking z to n is fixed once and for all as the rotation about
    z x n (normalized) by the polar angle arccos(n_z); for n = -z the rotation
    is about x by pi, and for n = +z it is the identity.  Any smooth section
    would give the same fidelities, this one makes outputs reproducible.
    """
    j = as_half_integer(j)
    if j.doubled < 1:
        raise ValueError("spin_coherent_state needs j >= 1/2")
    ops = make_spin_operators(j)
    highest = np.zeros(ops.dim, dtype=complex)
    highest[0] = 1.0
    if not isinstance(n, Direction):
        n = Direction(*n)
    s2 = n.nx * n.nx + n.ny * n.ny
    if s2 < 1e-30:
        if n.nz > 0:
            return highest
        return rotation_unitary(ops, X_AXIS, np.pi) @ highest
    axis = Direction.normalized(-n.ny, n.nx, 0.0)  # z x n
    polar = np.arccos(np.clip(n.nz, -1.0, 1.0))
    return rotation_unitary(ops, axis, polar) @ highest


@lru_cache(maxsize=64)
def _exchange_sectors(doubled_j, doubled_k):
    """The total-M blocks of 2 J.K on the product space j (x) k.

    2 J.K = 2 J_z K_z + J_+ K_- + J_- K_+ conserves M = m_j + m_k, so it splits
    into tridiagonal blocks of size <= 2 min(j, k) + 1, one per M from j+k down
    to -(j+k).  Each entry is (indices, w, v): the product-basis positions of
    the block (m_j descending within it) and the eigh of the block.  The
    eigenvalues are l(l+1) - j(j+1) - k(k+1), so in a block of size s the i-th
    eigenvector (ascending) is the |l, M> state with l = j + k - s + 1 + i.
    """
    if doubled_j < 0 or doubled_k < 0:
        raise ValueError("spins must be non-negative")
    j, k = doubled_j / 2, doubled_k / 2
    sectors = []
    for drop in range(doubled_j + doubled_k + 1):  # drop = j + k - M
        a = np.arange(max(0, drop - doubled_k), min(drop, doubled_j) + 1)
        mj, mk = j - a, k - (drop - a)
        # <m_j+1, m_k-1| J_+ K_- |m_j, m_k> couples each state to its predecessor
        off = np.sqrt(j * (j + 1) - mj[1:] * (mj[1:] + 1)) * np.sqrt(
            k * (k + 1) - mk[1:] * (mk[1:] - 1))
        block = np.diag(2.0 * mj * mk) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eigh(block)
        sectors.append((a * (doubled_k + 1) + drop - a, w, v))
    return tuple(sectors)


def total_spin_projectors(j1, j2):
    """Projectors onto the total-spin-l blocks of j1 (x) j2, l = j1+j2 .. |j1-j2|.

    Returns a list of (l, P_l) pairs, l descending.
    """
    j1 = as_half_integer(j1)
    j2 = as_half_integer(j2)
    sectors = _exchange_sectors(j1.doubled, j2.doubled)
    dim = (j1.doubled + 1) * (j2.doubled + 1)
    if dim > DIM_CAP * 2:
        raise ValueError("coupled dimension %d too large" % dim)
    top = j1.doubled + j2.doubled
    projectors = {two_l: np.zeros((dim, dim), dtype=complex)
                  for two_l in range(top, abs(j1.doubled - j2.doubled) - 2, -2)}
    for indices, _, v in sectors:
        block, size = np.ix_(indices, indices), len(indices)
        for i in range(size):
            projectors[top - 2 * (size - 1 - i)][block] += np.outer(v[:, i], v[:, i])
    return [(HalfInteger(two_l), p) for two_l, p in projectors.items()]
