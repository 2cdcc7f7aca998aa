import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinbench import spin_algebra
from spinbench.spin_algebra import (
    DIM_CAP,
    Direction,
    HalfInteger,
    X_AXIS,
    Z_AXIS,
    as_half_integer,
    make_spin_operators,
    rotation_unitary,
    spin_coherent_state,
    total_spin_projectors,
)

SPINS = [HalfInteger(1), HalfInteger(2), HalfInteger(3), HalfInteger(4), HalfInteger(7)]


def test_half_integer_basics():
    assert HalfInteger(3).value == 1.5
    assert HalfInteger(4).is_integer
    assert not HalfInteger(3).is_integer
    assert as_half_integer(2.5) == HalfInteger(5)
    assert as_half_integer(HalfInteger(2)) is not None
    assert HalfInteger(3) == 1.5
    assert HalfInteger(1) < 1
    assert HalfInteger(3) <= 1.5 and HalfInteger(3) > 1 and HalfInteger(3) >= HalfInteger(3)
    assert not (HalfInteger(3) <= math.nan or HalfInteger(3) > math.nan or HalfInteger(3) >= math.nan)
    assert str(HalfInteger(3)) == "3/2"
    assert repr(HalfInteger(3)) == "HalfInteger(3/2)" and repr(HalfInteger(4)) == "HalfInteger(2)"
    assert float(HalfInteger(5)) == 2.5


def test_half_integer_rejects_non_half_integers():
    for value in (0.3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            as_half_integer(value)
    with pytest.raises(TypeError):
        HalfInteger(1.5)
    # a bool is no spin: not 1/2 as a doubled spin, nor 1 as a value
    with pytest.raises(TypeError):
        HalfInteger(True)
    for value in (True, False, np.True_):
        with pytest.raises(ValueError, match="is not a half-integer"):
            as_half_integer(value)
    # beyond 2**53 a doubled spin is no longer a float
    assert HalfInteger(2**53).value == 2.0**52
    for doubled in (2**53 + 1, -(2**53) - 1, 10**400):
        with pytest.raises(ValueError):
            HalfInteger(doubled)


@given(st.integers(min_value=-40, max_value=40))
def test_half_integer_roundtrip(doubled):
    h = HalfInteger(doubled)
    assert HalfInteger.from_value(h.value) == h
    assert hash(HalfInteger(doubled)) == hash(h)
    assert hash(h) == hash(h.value)


def test_half_integer_is_found_under_the_equal_number():
    # equal numbers hash equal, for an integer and for a half-integer value
    assert HalfInteger(2) == 1 and HalfInteger(2) in {1: 0}
    assert HalfInteger(3) == 1.5 and HalfInteger(3) in {1.5}
    assert len({HalfInteger(-4), -2}) == 1


def test_direction_normalizes_and_validates():
    d = Direction.normalized(3.0, 0.0, 4.0)
    assert abs(d.nx - 0.6) < 1e-15 and abs(d.nz - 0.8) < 1e-15
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any NaN arithmetic
        for bad in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Direction(bad, 0.0, 0.0)
            with pytest.raises(ValueError):
                Direction.normalized(bad, 0.0, 0.0)


@pytest.mark.parametrize("j", SPINS)
def test_commutator_and_casimir(j):
    ops = make_spin_operators(j)
    comm = ops.jx @ ops.jy - ops.jy @ ops.jx
    assert np.abs(comm - 1j * ops.jz).max() < 1e-13
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    jv = j.value
    assert np.abs(casimir - jv * (jv + 1) * np.eye(ops.dim)).max() < 1e-12


def test_jz_spectrum_descending():
    ops = make_spin_operators(HalfInteger(5))
    assert np.allclose(np.diag(ops.jz).real, [2.5, 1.5, 0.5, -0.5, -1.5, -2.5])


@pytest.mark.parametrize("j", SPINS)
def test_rotation_is_unitary_and_composes(j):
    ops = make_spin_operators(j)
    n = Direction.normalized(1.0, -2.0, 0.5)
    u1 = rotation_unitary(ops, n, 0.7)
    u2 = rotation_unitary(ops, n, 1.1)
    u12 = rotation_unitary(ops, n, 1.8)
    assert np.abs(u1 @ u1.conj().T - np.eye(ops.dim)).max() < 1e-13
    assert np.abs(u1 @ u2 - u12).max() < 1e-12
    # a plain tuple is taken as the axis
    assert np.array_equal(rotation_unitary(ops, (n.nx, n.ny, n.nz), 0.7), u1)


def test_full_turn_phase():
    # a 2*pi rotation is (-1)^(2j)
    for j in (HalfInteger(1), HalfInteger(2), HalfInteger(3)):
        ops = make_spin_operators(j)
        u = rotation_unitary(ops, Z_AXIS, 2 * math.pi)
        sign = (-1.0) ** j.doubled
        assert np.abs(u - sign * np.eye(ops.dim)).max() < 1e-12


def test_coherent_state_points_along_n():
    j = HalfInteger(6)
    ops = make_spin_operators(j)
    n = Direction.normalized(0.3, -0.4, 0.86)
    psi = spin_coherent_state(j, n)
    for comp, op in zip((n.nx, n.ny, n.nz), (ops.jx, ops.jy, ops.jz)):
        assert abs((psi.conj() @ op @ psi).real - j.value * comp) < 1e-12


@functools.lru_cache(maxsize=None)
def _jx_spectrum(two_j):
    # J_x is real in the |j, m> basis
    return np.linalg.eigh(make_spin_operators(HalfInteger(two_j)).jx.real)


def _coherent_by_rotation(j, n):
    """The rotation route that spin_coherent_state replaced: |j, j> turned
    about z x n by the polar angle, or about x by pi for n = -z, through a
    spectral decomposition.  (z x n).J is J_x turned about z by alpha =
    phi + pi/2, so one real eigh of J_x serves every direction (a dense eigh
    of n.J takes seconds at 2j = 2000).  The polar angle is atan2(rho, n_z):
    arccos(n_z) loses half its digits near the poles, and gives 2.98e-8 for
    the 3e-8 of (3e-8, 0, 1)."""
    w, p = _jx_spectrum(j.doubled)
    m = j.value - np.arange(j.doubled + 1)
    if n.nx * n.nx + n.ny * n.ny < 1e-30:
        if n.nz > 0:
            return np.eye(j.doubled + 1)[0].astype(complex)
        alpha, beta = 0.0, math.pi
    else:
        alpha = math.atan2(n.ny, n.nx) + math.pi / 2
        beta = math.atan2(math.hypot(n.nx, n.ny), n.nz)
    # exp(-i alpha J_z) exp(-i beta J_x) exp(i alpha J_z) |j, j>
    return np.exp(1j * alpha * (j.value - m)) * (p @ (np.exp(-1j * beta * w) * p[0]))


def test_rotation_oracle_is_the_dense_rotation():
    rng = np.random.default_rng(2)
    for two_j in (1, 2, 5):
        j = HalfInteger(two_j)
        ops = make_spin_operators(j)
        for n in [Direction.normalized(*rng.normal(size=3)) for _ in range(5)] + [Z_AXIS]:
            axis = Direction.normalized(-n.ny, n.nx, 0.0) if n is not Z_AXIS else X_AXIS
            polar = math.atan2(math.hypot(n.nx, n.ny), n.nz) if n is not Z_AXIS else 0.0
            dense = rotation_unitary(ops, axis, polar)[:, 0]
            assert np.abs(_coherent_by_rotation(j, n) - dense).max() < 1e-14
        south = rotation_unitary(ops, X_AXIS, math.pi)[:, 0]
        assert np.abs(_coherent_by_rotation(j, Direction(0.0, 0.0, -1.0)) - south).max() < 1e-14


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 41, 300, 2000])
def test_coherent_state_closed_form_matches_rotation(two_j):
    j = HalfInteger(two_j)
    rng = np.random.default_rng(two_j)
    for _ in range(20):
        n = Direction.normalized(*rng.normal(size=3))
        assert np.abs(spin_coherent_state(j, n) - _coherent_by_rotation(j, n)).max() <= 1e-12


def test_coherent_state_poles():
    # rotation about x by pi sends |j,j> to (-i)^(2j) |j,-j>; both poles are exact
    for two_j in (1, 2, 3, 4, 5, 41):
        j = HalfInteger(two_j)
        up = np.zeros(two_j + 1, dtype=complex)
        up[0] = 1.0
        down = np.zeros(two_j + 1, dtype=complex)
        down[-1] = (-1j) ** two_j
        assert np.array_equal(spin_coherent_state(j, Z_AXIS), up)
        assert np.array_equal(spin_coherent_state(j, Direction(0.0, 0.0, -1.0)), down)
        assert np.array_equal(spin_coherent_state(j, (0.0, 0.0, -1.0)), down)  # a plain tuple


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 41, 300, 2000])
def test_coherent_state_near_the_poles(two_j):
    j = HalfInteger(two_j)
    near = [Direction.normalized(1e-15, 0.0, 1.0), Direction.normalized(1e-15, 0.0, -1.0),
            Direction.normalized(3e-8, 0.0, 1.0)]
    for n in near:
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            psi = spin_coherent_state(j, n)
        assert np.isfinite(psi).all()
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        assert np.abs(psi - _coherent_by_rotation(j, n)).max() <= 1e-12
    # the spin points along (3e-8, 0, 1) to full relative precision
    ops = make_spin_operators(j)
    psi = spin_coherent_state(j, near[2])
    assert abs((psi.conj() @ ops.jx @ psi).real / (j.value * near[2].nx) - 1.0) < 1e-12


def test_coherent_state_cap(monkeypatch):
    # the cap is checked on 2j + 1: no dense spin matrix is built for it
    def unreachable(doubled_j):
        raise AssertionError("spin matrices built at 2j = %d" % doubled_j)

    monkeypatch.setattr(spin_algebra, "_spin_matrices", unreachable)
    for two_j in range(1, 401):
        spin_coherent_state(HalfInteger(two_j), X_AXIS)
    spin_coherent_state(HalfInteger(DIM_CAP - 1), X_AXIS)
    with pytest.raises(ValueError, match="dimension 2002 exceeds cap 2001"):
        spin_coherent_state(HalfInteger(DIM_CAP), X_AXIS)


@pytest.mark.parametrize("j", SPINS)
def test_coherent_overlap_law(j):
    # |<n|n'>|^2 = cos^(4j)(angle/2)
    rng = np.random.default_rng(11)
    for _ in range(6):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        na, nb = Direction.normalized(*a), Direction.normalized(*b)
        pa = spin_coherent_state(j, na)
        pb = spin_coherent_state(j, nb)
        cosang = np.clip(np.dot(na.as_array(), nb.as_array()), -1.0, 1.0)
        expected = math.cos(math.acos(cosang) / 2.0) ** (2 * j.doubled)
        assert abs(abs(pa.conj() @ pb) ** 2 - expected) < 1e-12


def test_projectors_resolve_identity_and_are_orthogonal():
    j1, j2 = HalfInteger(3), HalfInteger(2)
    blocks = total_spin_projectors(j1, j2)
    ls = [l.value for l, _ in blocks]
    assert ls == [2.5, 1.5, 0.5]
    dim = (j1.doubled + 1) * (j2.doubled + 1)
    total = np.zeros((dim, dim), dtype=complex)
    for l, p in blocks:
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-13
        assert abs(np.trace(p).real - (l.doubled + 1)) < 1e-10
        total += p
    assert np.abs(total - np.eye(dim)).max() < 1e-12
    for i in range(len(blocks)):
        for m in range(i + 1, len(blocks)):
            assert np.abs(blocks[i][1] @ blocks[m][1]).max() < 1e-12


def test_projectors_commute_with_collective_rotations():
    j1, j2 = HalfInteger(2), HalfInteger(1)
    o1, o2 = make_spin_operators(j1), make_spin_operators(j2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = Direction.normalized(*rng.normal(size=3))
        ang = rng.uniform(0, 2 * math.pi)
        u = np.kron(rotation_unitary(o1, n, ang), rotation_unitary(o2, n, ang))
        for _, p in total_spin_projectors(j1, j2):
            assert np.abs(u @ p - p @ u).max() < 1e-10


def test_dimension_cap(monkeypatch):
    with pytest.raises(ValueError):
        make_spin_operators(HalfInteger(2 * DIM_CAP))
    with pytest.raises(ValueError, match="^spin must be non-negative, got -1/2$"):
        make_spin_operators(-0.5)
    for spins in ((-1, 1), (1, -0.5), (-0.5, -0.5)):
        with pytest.raises(ValueError, match="non-negative"):
            total_spin_projectors(*spins)

    # the projectors hold min(2j1, 2j2) + 1 matrices of dim^2 entries, at most
    # 2**25 in all; the blocks are built only after the bound admits a pair
    def admitted(*args):
        raise RuntimeError("blocks built after the bound admitted the pair")

    monkeypatch.setattr(spin_algebra, "_exchange_block", admitted)
    with pytest.raises(ValueError, match="coupled dimension"):
        total_spin_projectors(50, 50)
    # 63 projectors of 3969^2 entries would take 14.8 GiB
    with pytest.raises(ValueError, match="coupled dimension 3969 too large"):
        total_spin_projectors(31, 31)
    for two_j1, two_j2 in ((2, 1114), (1114, 2), (6, 312)):
        with pytest.raises(ValueError, match="coupled dimension"):
            total_spin_projectors(HalfInteger(two_j1), HalfInteger(two_j2))
    # a qubit and a partner of dimension DIM_CAP (2 projectors of 4002^2 entries),
    # and a spin 1 and its largest admitted partner
    for two_j1, two_j2 in ((DIM_CAP - 1, 1), (1, DIM_CAP - 1), (2, 1113), (1113, 2)):
        with pytest.raises(RuntimeError, match="admitted"):
            total_spin_projectors(HalfInteger(two_j1), HalfInteger(two_j2))


def test_spin_matrix_cache_is_bounded():
    # the cache keeps the two spins last used, at most 2 x 3 DIM_CAP^2 complex
    # entries: within the 2**25 that total_spin_projectors admits
    assert spin_algebra._spin_matrices.cache_info().maxsize * 3 * DIM_CAP**2 <= 2**25
    spin_algebra._spin_matrices.cache_clear()
    for two_j in (1, 2, 1, 2, 3, 2, 1):
        make_spin_operators(HalfInteger(two_j))
    info = spin_algebra._spin_matrices.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 3, 2)


def test_ladder_matrix_elements():
    half = make_spin_operators(HalfInteger(1))
    assert np.abs(half.jx - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-15
    one = make_spin_operators(HalfInteger(2))
    # <1,1|Jx|1,0> in the m-descending basis
    assert abs(one.jx[0, 1] - 1.0 / math.sqrt(2.0)) < 1e-15


def test_z_rotation_is_diagonal_phase():
    theta = 0.83
    u = rotation_unitary(make_spin_operators(HalfInteger(1)), Z_AXIS, theta)
    expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert np.abs(u - expected).max() < 1e-14


def _rotate_vector(v, axis, angle):
    # Rodrigues formula, right-hand rule about the unit axis
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def test_coherent_states_are_rotation_covariant():
    # rotating the direction matches rotating the state, up to global phase
    j = HalfInteger(5)
    ops = make_spin_operators(j)
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = Direction.normalized(*rng.normal(size=3))
        axis = Direction.normalized(*rng.normal(size=3))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        u = rotation_unitary(ops, axis, angle)
        moved = _rotate_vector(n.as_array(), axis.as_array(), angle)
        target = spin_coherent_state(j, Direction.normalized(*moved))
        overlap = target.conj() @ (u @ spin_coherent_state(j, n))
        assert abs(abs(overlap) ** 2 - 1.0) < 1e-12


def test_heisenberg_coupling_is_constant_on_total_spin_blocks():
    # J.K = (1/2)[l(l+1) - j1(j1+1) - j2(j2+1)] on each total-spin block
    j1, j2 = HalfInteger(3), HalfInteger(1)
    o1, o2 = make_spin_operators(j1), make_spin_operators(j2)
    jk = sum(np.kron(a, b)
             for a, b in ((o1.jx, o2.jx), (o1.jy, o2.jy), (o1.jz, o2.jz)))
    blocks = total_spin_projectors(j1, j2)
    assert sorted(int(round(np.trace(p).real)) for _, p in blocks) == [3, 5]
    c1 = j1.value * (j1.value + 1.0)
    c2 = j2.value * (j2.value + 1.0)
    for l, p in blocks:
        lam = 0.5 * (l.value * (l.value + 1.0) - c1 - c2)
        assert np.abs(jk @ p - lam * p).max() < 1e-11


def _gram_schmidt_projectors(j1, j2):
    """Clebsch-Gordan walk in the full product space, as an independent route.

    Walk l from j1+j2 down to |j1-j2|: the highest-weight vector of each
    l-multiplet is the unit vector in the M = l subspace orthogonal to every
    state already lowered from above, and J_- fills in the rest.
    """
    o1, o2 = make_spin_operators(j1), make_spin_operators(j2)
    d1, d2 = o1.dim, o2.dim
    dim = d1 * d2
    jz_tot = (np.kron(np.diag(o1.jz), np.ones(d2)) + np.kron(np.ones(d1), np.diag(o2.jz))).real
    jminus = (np.kron(o1.jx - 1j * o1.jy, np.eye(d2))
              + np.kron(np.eye(d1), o2.jx - 1j * o2.jy))
    built = {}  # M -> states |l', M> already constructed
    projectors = []
    for two_l in range(j1.doubled + j2.doubled, abs(j1.doubled - j2.doubled) - 2, -2):
        l = two_l / 2
        sector = np.flatnonzero(np.abs(jz_tot - l) < 0.25)
        basis = np.zeros((dim, len(sector)), dtype=complex)
        basis[sector, np.arange(len(sector))] = 1.0
        for u in built.get(l, []):
            basis -= np.outer(u, u.conj() @ basis)
        norms = np.linalg.norm(basis, axis=0)
        pick = int(np.argmax(norms))
        assert norms[pick] > 1e-8
        current = basis[:, pick] / norms[pick]
        p = np.zeros((dim, dim), dtype=complex)
        m = l
        while True:
            built.setdefault(m, []).append(current)
            p += np.outer(current, current.conj())
            if m < -l + 0.5:
                break
            current = jminus @ current / np.sqrt(l * (l + 1) - m * (m - 1))
            m -= 1
        projectors.append((two_l, p))
    return projectors


def test_projectors_match_gram_schmidt_walk():
    worst = 0.0
    for two_j1 in range(0, 41):
        for two_j2 in (1, 2, 3):
            j1, j2 = HalfInteger(two_j1), HalfInteger(two_j2)
            got = total_spin_projectors(j1, j2)
            want = _gram_schmidt_projectors(j1, j2)
            assert [l.doubled for l, _ in got] == [two_l for two_l, _ in want]
            for (_, p), (_, q) in zip(got, want):
                worst = max(worst, np.abs(p - q).max())
    assert worst < 1e-12
