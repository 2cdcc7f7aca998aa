"""Program degradation under repeated use.

Each use of the program spin leaves it slightly rotated away from |j,j>; the
back-action is a classical birth-death (tridiagonal) Markov chain on the
magnetic quantum number m.  This module iterates that chain, evaluates the
fidelity of a degraded program, and finds how many uses the quantum advantage
over measure-and-operate survives.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .closed_forms import coupling_angle, mo_benchmark
from .spin_algebra import HalfInteger, _exchange_sectors, as_half_integer

# uses of one program a curve or a longevity search steps through at most
# (~30-120 us per use); a longer horizon is refused before the chain starts
N_MAX_CAP = 100_000


@dataclass(frozen=True)
class ProgramDistribution:
    """Probabilities over |j,m>, indexed m = j ... -j (same order as the spin basis)."""

    j: object
    probs: np.ndarray

    def __post_init__(self):
        j = as_half_integer(self.j)
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (j.doubled + 1,):
            raise ValueError("distribution needs %d entries" % (j.doubled + 1))
        if p.min() < -1e-14:
            raise ValueError("negative probability %g" % p.min())
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities sum to %r, not 1" % p.sum())
        p.setflags(write=False)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "probs", p)

    def m_values(self):
        j = self.j.value
        return j - np.arange(self.j.doubled + 1)

    def mean_drop(self) -> float:
        """Expected value of j - m."""
        return float(np.arange(self.j.doubled + 1) @ self.probs)


def fresh_program(j) -> ProgramDistribution:
    j = as_half_integer(j)
    p = np.zeros(j.doubled + 1)
    p[0] = 1.0
    return ProgramDistribution(j, p)


def kernel_factor(j, theta, kernel: str = "exact") -> float:
    """The common factor multiplying both hop rates of the Markov chain.

    "exact" uses 1 - cos(f(theta)) with f the tuned interaction angle; this
    reproduces the brute-force back-action channel to machine precision at
    every (j, theta).  "asymptotic" uses the large-j expansion
    1 - cos(theta) - sin^2(theta)/(2j), which coincides with the exact factor
    at theta ∈ {0, pi} and differs by O(1/j^2) in between (it can even turn
    negative for small j and theta, where the expansion is meaningless).
    """
    jv = as_half_integer(j).value
    if kernel == "exact":
        return 1.0 - math.cos(coupling_angle(j, theta))
    if kernel == "asymptotic":
        return 1.0 - math.cos(theta) - math.sin(theta) ** 2 / (2.0 * jv)
    raise ValueError("kernel must be 'exact' or 'asymptotic'")


def complementary_step(j, theta, dist: ProgramDistribution,
                       kernel: str = "exact") -> ProgramDistribution:
    """One use of the program: push the m-distribution through the back-action.

    Hop rates out of m are (j+m)(1+j-m)/(1+2j)^2 * g downward and
    (j-m)(1+j+m)/(1+2j)^2 * g upward, g = kernel_factor(j, theta, kernel);
    the (j -+ m) factors kill hops past the band edges on their own.
    """
    j = as_half_integer(j)
    if dist.j != j:
        raise ValueError("distribution is for a different spin")
    jv = j.value
    m = dist.m_values()
    g = kernel_factor(j, theta, kernel)
    denom = (1.0 + 2.0 * jv) ** 2
    down = (jv + m) * (1.0 + jv - m) / denom * g   # m -> m-1
    up = (jv - m) * (1.0 + jv + m) / denom * g     # m -> m+1
    stay = 1.0 - down - up
    p = dist.probs
    out = stay * p
    out[1:] += down[:-1] * p[:-1]   # arrivals from m+1 (index i-1)
    out[:-1] += up[1:] * p[1:]      # arrivals from m-1 (index i+1)
    return ProgramDistribution(j, out)


@lru_cache(maxsize=64)
def _per_m_exact_all(doubled_j, theta):
    """Exact average fidelity for every program basis state |j,m> at once.

    The gate conserves total M and the target rotation V is about z, so
    Tr[V^dag K_a] vanishes unless the program leaves in its input state a = m,
    and then only two diagonal entries of the gate enter:
    Tr[V^dag K_m] = e^{i theta/2} <m,up|U|m,up> + e^{-i theta/2} <m,down|U|m,down>.
    Each diagonal entry comes from one total-M block of size <= 2.
    """
    scale = -1j * coupling_angle(HalfInteger(doubled_j), theta) / (doubled_j + 1.0)
    sectors = _exchange_sectors(doubled_j, 1)  # refuses an oversized j before allocating
    diag = np.empty(2 * (doubled_j + 1), dtype=complex)
    for indices, w, v in sectors:
        diag[indices] = (v * v) @ np.exp(scale * w)
    up, down = diag[0::2], diag[1::2]
    overlaps = cmath.exp(0.5j * theta) * up + cmath.exp(-0.5j * theta) * down
    fe = np.abs(overlaps) ** 2 / 4.0
    favg = (2.0 * fe + 1.0) / 3.0
    favg.setflags(write=False)
    return favg


def per_m_fidelity(j, theta, m) -> float:
    """Exact average fidelity when the program is the basis state |j,m>."""
    j = as_half_integer(j)
    m = as_half_integer(m)
    if abs(m.doubled) > j.doubled or (j.doubled - m.doubled) % 2:
        raise ValueError("m = %s is not a magnetic quantum number for j = %s" % (m, j))
    idx = (j.doubled - m.doubled) // 2
    return float(_per_m_exact_all(j.doubled, float(theta))[idx])


def per_m_fidelity_asymptotic(j, theta, m) -> float:
    """Leading large-j behavior 1 - (1 + 2(j-m))(1 - cos theta)/(3j)."""
    jv = as_half_integer(j).value
    mv = as_half_integer(m).value
    return 1.0 - (1.0 + 2.0 * (jv - mv)) * (1.0 - math.cos(theta)) / (3.0 * jv)


def _per_m_vector(j, theta, mode):
    j = as_half_integer(j)
    if mode == "exact":
        return np.asarray(_per_m_exact_all(j.doubled, float(theta)))
    if mode == "asymptotic":
        drops = np.arange(j.doubled + 1)
        return 1.0 - (1.0 + 2.0 * drops) * (1.0 - math.cos(theta)) / (3.0 * j.value)
    raise ValueError("mode must be 'exact' or 'asymptotic'")


def _use_fidelities(j, theta, mode, kernel):
    """(n, average fidelity of the n-th use), n = 1, 2, ...; the program
    starts in |j,j> and is stepped only when the next use is asked for."""
    fm = _per_m_vector(j, theta, mode)
    dist = fresh_program(j)
    for n in itertools.count(1):
        yield n, float(fm @ dist.probs)
        dist = complementary_step(j, theta, dist, kernel)


class RecyclingCurve(NamedTuple):
    points: list          # [(n, average fidelity)], n = 1 .. n_max
    mode: str             # per-use fidelity mode: "exact" or "asymptotic"


def _check_horizon(n_max):
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError("n_max must be in [1, %d], got %d" % (N_MAX_CAP, n_max))


def recycling_curve(j, theta, n_max, mode: str = "exact",
                    kernel: str = "exact") -> RecyclingCurve:
    """Average fidelity of the n-th use, n = 1 .. n_max.

    The program starts in |j,j>; the value at use n mixes the per-m fidelities
    with the m-distribution after n-1 back-actions.  Per-m fidelities are
    exact at every j (O(j) work per angle); mode="asymptotic" uses the
    labelled large-j form 1 - (1 + 2(j-m))(1 - cos theta)/(3j) instead.
    """
    _check_horizon(n_max)
    uses = _use_fidelities(as_half_integer(j), theta, mode, kernel)
    return RecyclingCurve(list(itertools.islice(uses, n_max)), mode)


class Longevity(NamedTuple):
    steps: Optional[int]  # first use whose fidelity drops below the MO benchmark
    asymptotic: float     # j / (1 - cos theta)
    n_max: int            # horizon actually searched


def advantage_longevity(j, theta, n_max=None, mode: str = "exact",
                        kernel: str = "exact") -> Longevity:
    """How many uses beat measure-and-operate.

    Streams the recycling curve until it first drops below mo_benchmark(j,
    theta); steps=None means no loss within the horizon (e.g. theta -> 0,
    where the program never degrades).  "Below" carries a 1e-12 margin so that
    rounding noise cannot manufacture a crossing when both values sit at 1.
    """
    j = as_half_integer(j)
    if n_max is not None:
        _check_horizon(n_max)
    return _longevity(j, theta, _use_fidelities(j, theta, mode, kernel), n_max)


def curve_longevity(j, theta, curve: RecyclingCurve) -> Longevity:
    """advantage_longevity read off a computed curve, with its length as the
    horizon; the chain is not stepped again."""
    return _longevity(as_half_integer(j), theta, curve.points, len(curve.points))


def _longevity(j, theta, uses, n_max) -> Longevity:
    # reads the (n, fidelity) pairs `uses` only up to the first loss
    one_minus_c = 1.0 - math.cos(theta)
    asym = j.value / one_minus_c if one_minus_c > 1e-300 else math.inf
    if n_max is None:
        n_max = 2000 if not math.isfinite(asym) else min(int(3 * asym) + 20, 2000)
    bench = mo_benchmark(j, theta).value
    losses = (n for n, value in itertools.islice(uses, n_max) if value < bench - 1e-12)
    return Longevity(next(losses, None), asym, n_max)


def asymptotic_distribution(j, theta, n) -> ProgramDistribution:
    """Large-j stationary shape after n uses: geometric in the drop j - m.

    p(m) ∝ r^(j-m) with r = n(1-cos theta) / (n(1-cos theta) + 2j),
    renormalized over the 2j+1 levels.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    j = as_half_integer(j)
    jv = j.value
    x = n * (1.0 - math.cos(theta))
    r = x / (x + 2.0 * jv)
    drops = np.arange(j.doubled + 1)
    if r == 0.0:
        p = np.zeros(j.doubled + 1)
        p[0] = 1.0
    else:
        p = r**drops
        p /= p.sum()
    return ProgramDistribution(j, p)
