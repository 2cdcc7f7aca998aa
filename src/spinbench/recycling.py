"""Program degradation under repeated use.

Each use of the program spin leaves it slightly rotated away from |j,j>; the
back-action is a classical birth-death (tridiagonal) Markov chain on the
magnetic quantum number m.  This module steps that chain, follows its first
two moments, evaluates the fidelity of a degraded program, and finds how many
uses the quantum advantage over measure-and-operate survives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .closed_forms import _large_j_form, _mo_value, coupling_angle
from .spin_algebra import as_angle, as_half_integer, as_spin

# uses of one program a curve or a longevity search covers at most (one output
# row each); a longer horizon is refused
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


def kernel_factor(j, theta) -> float:
    """1 - cos f, f the tuned interaction angle: the factor of both hop rates of
    the chain, exact against the brute-force back-action at every (j, theta)."""
    return 1.0 - math.cos(coupling_angle(j, theta))


def complementary_step(j, theta, dist: ProgramDistribution) -> ProgramDistribution:
    """One use of the program: push the m-distribution through the back-action.

    Hop rates out of m are (j+m)(1+j-m)/(1+2j)^2 * g downward and
    (j-m)(1+j+m)/(1+2j)^2 * g upward, g = kernel_factor(j, theta);
    the (j -+ m) factors kill hops past the band edges on their own.
    """
    j = as_half_integer(j)
    if dist.j != j:
        raise ValueError("distribution is for a different spin")
    jv = j.value
    m = dist.m_values()
    g = kernel_factor(j, theta)
    denom = (1.0 + 2.0 * jv) ** 2
    down = (jv + m) * (1.0 + jv - m) / denom * g   # m -> m-1
    up = (jv - m) * (1.0 + jv + m) / denom * g     # m -> m+1
    p = dist.probs
    # each flow is taken from one entry and added to another, so rounding
    # does not drift the total
    fall, rise = down * p, up * p
    out = p - fall - rise
    out[1:] += fall[:-1]    # arrivals from m+1 (index i-1)
    out[:-1] += rise[1:]    # arrivals from m-1 (index i+1)
    return ProgramDistribution(j, out)


def _drop_polynomial(j, theta):
    """(c0, c1, c2): the average fidelity of the program |j, j-D> is c0 + c1 D + c2 D^2.

    On |m,up> and |m,down> the gate acts through l = j +- 1/2 only, where 2 J.K
    is j and -(j+1), with Clebsch-Gordan weights affine in m, e.g.
    <m,up|U|m,up> = [(j+m+1) e^{-i f j/(2j+1)} + (j-m) e^{i f (j+1)/(2j+1)}]/(2j+1).
    V is about z, so Tr[V^dag K_m] = e^{i theta/2} <m,up|U|m,up> +
    e^{-i theta/2} <m,down|U|m,down> = p + q D, and F_avg = 1/3 + |p + q D|^2/6.
    """
    f, width = coupling_angle(j, theta), j.doubled + 1.0
    a, b = cmath.exp(-1j * f * j.value / width), cmath.exp(1j * f * (j.value + 1.0) / width)
    up, down = cmath.exp(0.5j * theta), cmath.exp(-0.5j * theta)
    p = up * a + down * (a + j.doubled * b) / width
    q = (up - down) * (b - a) / width
    return 1.0 / 3.0 + abs(p) ** 2 / 6.0, (p.conjugate() * q).real / 3.0, abs(q) ** 2 / 6.0


def _drop(j, m) -> int:
    """The drop j - m of the program state |j,m>, refused unless m is a magnetic quantum number for j."""
    j = as_half_integer(j)
    m = as_half_integer(m)
    if abs(m.doubled) > j.doubled or (j.doubled - m.doubled) % 2:
        raise ValueError("m = %s is not a magnetic quantum number for j = %s" % (m, j))
    return (j.doubled - m.doubled) // 2


def per_m_fidelity(j, theta, m) -> float:
    """Exact average fidelity when the program is the basis state |j,m>."""
    j = as_half_integer(j)
    drop = _drop(j, m)
    as_angle(theta)
    c0, c1, c2 = _drop_polynomial(j, theta)
    return c0 + c1 * drop + c2 * drop * drop


def per_m_fidelity_asymptotic(j, theta, m) -> float:
    """Leading large-j behavior 1 - (1 + 2(j-m))(1 - cos theta)/(3j)."""
    return _large_j_form(j, 1.0 + 2.0 * _drop(j, m), 3.0, theta).value


def _powm1(x, n):
    """(1 - x)^n - 1 for integers n >= 0, without cancellation at small x."""
    if x < 1.0:
        return np.expm1(n * math.log1p(-x))
    return (1.0 - x) ** n - 1.0  # 1 - x in [-1/3, 0], reached only at j <= 1


class RecyclingCurve(NamedTuple):
    points: list          # [(n, average fidelity)], n = 1 .. n_max
    mode: str = "exact"   # the per-use fidelity is exact at every j


def recycling_curve(j, theta, n_max) -> RecyclingCurve:
    """Average fidelity of the n-th use, n = 1 .. n_max.

    The program starts in |j,j>; use n sees the drop D = j - m after n-1
    back-actions.  Each maps E[m] -> (1-2c) E[m] and E[m^2] -> (1-6c) E[m^2] +
    2c j(j+1), c = kernel_factor/(2j+1)^2, so E[D] = -j A and E[D^2] =
    j((2j-1) B/3 - 2j A) with A = (1-2c)^(n-1) - 1 and B = (1-6c)^(n-1) - 1,
    and the per-use fidelity, exact at every j, is quadratic in D (see
    `per_m_fidelity`; `per_m_fidelity_asymptotic` is its large-j form).
    """
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError("n_max must be in [1, %d], got %d" % (N_MAX_CAP, n_max))
    j = as_half_integer(j)
    as_angle(theta)
    c0, c1, c2 = _drop_polynomial(j, theta)
    c = kernel_factor(j, theta) / (j.doubled + 1.0) ** 2
    steps = np.arange(n_max)  # back-actions before use n = 1 .. n_max
    a = _powm1(2.0 * c, steps)
    # at j = 1/2, D^2 = D: the second mode is absent, and 1 - 6c reaches -2 there
    b = _powm1(6.0 * c, steps) if j.doubled > 1 else 0.0
    drop = -j.value * a
    drop_sq = j.value * ((j.doubled - 1.0) * b / 3.0 - j.doubled * a)
    values = c0 + c1 * drop + c2 * drop_sq
    return RecyclingCurve(list(zip(range(1, n_max + 1), values.tolist())))


class Longevity(NamedTuple):
    steps: Optional[int]  # first use whose fidelity drops below the MO benchmark
    asymptotic: float     # j / (1 - cos theta)
    n_max: int            # horizon actually searched


def _asymptotic_longevity(j, theta):
    one_minus_c = 1.0 - math.cos(as_angle(theta))
    return as_half_integer(j).value / one_minus_c if one_minus_c > 1e-300 else math.inf


def advantage_longevity(j, theta) -> Longevity:
    """How many uses beat measure-and-operate: `curve_longevity` of the recycling
    curve over 3 j/(1 - cos theta) + 20 uses, at most N_MAX_CAP."""
    n_max = int(min(3 * _asymptotic_longevity(j, theta), N_MAX_CAP - 20)) + 20
    return curve_longevity(j, theta, recycling_curve(j, theta, n_max))


def curve_longevity(j, theta, curve: RecyclingCurve) -> Longevity:
    """The first use of a computed curve that drops below mo_benchmark(j, theta),
    with the curve's length as the horizon.

    steps=None means no loss within the horizon (e.g. theta -> 0, where the
    program never degrades).  "Below" carries a 1e-12 margin so that rounding
    noise cannot manufacture a crossing when both values sit at 1.
    """
    bench = _mo_value(as_spin(j, "program spin").value, theta)
    losses = (n for n, value in curve.points if value < bench - 1e-12)
    return Longevity(next(losses, None), _asymptotic_longevity(j, theta), len(curve.points))


def asymptotic_distribution(j, theta, n) -> ProgramDistribution:
    """Large-j stationary shape after n uses: geometric in the drop j - m.

    p(m) ∝ r^(j-m) with r = n(1-cos theta) / (n(1-cos theta) + 2j),
    renormalized over the 2j+1 levels.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    j = as_spin(j, "program spin")
    jv = j.value
    x = n * (1.0 - math.cos(as_angle(theta)))
    r = x / (x + 2.0 * jv)
    p = r ** np.arange(j.doubled + 1)  # [1, 0, ...] at r = 0
    return ProgramDistribution(j, p / p.sum())
