"""Maximizing entanglement fidelity over rotation-covariant channels.

A covariant channel on the program-plus-qubit system is fixed, up to unitary
rotations, by a block form a*P_{j+1} (+) b*P_{j-1} (+) P_j (x) M with M a 2x2
non-negative matrix (gamma_a, gamma_b; gamma_c, gamma_d).  Trace preservation
pins two affine combinations of the parameters, and the entanglement fidelity
becomes A sin^2(t/2) + B cos^2(t/2) + C Jz_mean sin(t/2)cos(t/2)
+ D Jz2_mean sin^2(t/2), linear both in the channel parameters and in the two
program moments.  This module maximizes that expression exactly and gives,
in closed form, the angle at which the optimal program switches character.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .channel_lab import minimize  # noqa: F401  (unused; perfbench/tracing.py patches this name)
from .closed_forms import _J_HALF_SWITCH_COS, _J_ONE_SWITCH_COS
from .spin_algebra import HalfInteger, ToleranceError, _check_dimension, as_angle, as_half_integer, as_spin

# slack of every feasibility check: PSD blocks, trace preservation, realizable moments
SLACK = 1e-9


@dataclass(frozen=True)
class CovariantChannelParams:
    """Schur-block parameters (alpha, beta, gamma_a, gamma_d, gamma_b).

    gamma_c is not stored: Hermiticity of the 2x2 block forces it to be the
    conjugate of gamma_b.
    """

    alpha: float
    beta: float
    gamma_a: float
    gamma_d: float
    gamma_b: complex

    @property
    def gamma_c(self) -> complex:
        return complex(self.gamma_b).conjugate()


@dataclass(frozen=True)
class ProgramMoments:
    jz_mean: float
    jz2_mean: float


def gamma_a_cap(j) -> float:
    jv = as_spin(j, "program spin").value
    return (2.0 * jv + 2.0) / (2.0 * jv + 1.0)


def gamma_d_cap(j) -> float:
    jv = as_spin(j, "program spin").value
    return 2.0 * jv / (2.0 * jv + 1.0)


def params_from_gammas(j, gamma_a, gamma_d, gamma_b) -> CovariantChannelParams:
    """Fill in alpha, beta from the two trace-preservation constraints.

    For j = 1/2 the lower block is absent: beta = 0 identically and the second
    constraint fixes gamma_d = 1/2, so the supplied gamma_d must be 1/2.
    """
    j = as_spin(j, "program spin")
    if j.doubled == 1 and abs(gamma_d - 0.5) > 1e-12:
        raise ValueError("at j=1/2 trace preservation forces gamma_d = 1/2")
    alpha, beta = _alpha_beta(j, gamma_a, gamma_d)
    return CovariantChannelParams(alpha, beta, gamma_a, gamma_d, complex(gamma_b))


def _alpha_beta(j: HalfInteger, gamma_a, gamma_d):
    # the two trace-preservation constraints; the lower block is absent at j = 1/2
    jv = j.value
    alpha = ((2.0 * jv + 2.0) - (2.0 * jv + 1.0) * gamma_a) / (2.0 * jv + 3.0)
    if j.doubled == 1:
        return alpha, 0.0
    return alpha, (2.0 * jv - (2.0 * jv + 1.0) * gamma_d) / (2.0 * jv - 1.0)


def _check_finite(record):
    """Refuse a non-finite field of `record` by name: NaN passes every feasibility comparison."""
    for name, value in vars(record).items():
        if not cmath.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def check_params(j, params: CovariantChannelParams):
    """Raise ValueError unless params is a feasible covariant channel."""
    j = as_spin(j, "program spin")
    _check_finite(params)
    jv = j.value
    if any(w < -SLACK for w in (params.alpha, params.beta, params.gamma_a, params.gamma_d)):
        raise ValueError("negative block weight in %r" % (params,))
    if params.gamma_a * params.gamma_d - abs(params.gamma_b) ** 2 < -SLACK:
        raise ValueError("gamma block is not PSD: gamma_a*gamma_d < |gamma_b|^2")
    c1 = (2 * jv + 3) / (2 * jv + 2) * params.alpha + (2 * jv + 1) / (2 * jv + 2) * params.gamma_a
    if abs(c1 - 1.0) > SLACK:
        raise ValueError("first trace-preservation constraint violated (%g != 1)" % c1)
    if j.doubled == 1:
        if abs(params.gamma_d - 0.5) > SLACK or abs(params.beta) > SLACK:
            raise ValueError("at j=1/2: need beta = 0 and gamma_d = 1/2")
    else:
        c2 = (2 * jv - 1) / (2 * jv) * params.beta + (2 * jv + 1) / (2 * jv) * params.gamma_d
        if abs(c2 - 1.0) > SLACK:
            raise ValueError("second trace-preservation constraint violated (%g != 1)" % c2)


def moments_lower_bound(j, x: float) -> float:
    """Lower edge of the feasible (Jz_mean, Jz2_mean) region at Jz_mean = x.

    The feasible set is the convex hull of {(m, m^2)}; its lower boundary is
    the chord between the two nearest m values bracketing x.
    """
    jv = as_spin(j, "program spin").value
    # m values are jv - integers; chord between floor/ceil neighbors of x
    offset = jv - math.floor(jv - x) if x < jv else jv
    m_hi = min(offset, jv)
    m_lo = m_hi - 1.0
    if x <= -jv:
        return jv * jv
    if m_hi == x:
        return x * x
    return (m_lo + m_hi) * x - m_lo * m_hi


def check_moments(j, moments: ProgramMoments):
    jv = as_spin(j, "program spin").value
    _check_finite(moments)
    x, y = moments.jz_mean, moments.jz2_mean
    if (abs(x) > jv + SLACK or y > jv * jv + SLACK
            or y < moments_lower_bound(j, x) - SLACK or y < x * x - SLACK):
        raise ValueError("moments %r are not realizable by any program distribution" % (moments,))


def abcd_coefficients(j, params: CovariantChannelParams):
    """The four linear coefficients (A, B, C, D) of the fidelity expression."""
    check_params(j, params)
    return _abcd(as_half_integer(j).value, params)


def _abcd(jv, params: CovariantChannelParams):
    rt = math.sqrt(jv * (jv + 1.0))
    gb, gc = complex(params.gamma_b), complex(params.gamma_b).conjugate()
    two = 2.0 * (1.0 + 2.0 * jv)
    a_coef = ((jv + 1.0) * params.alpha + jv * params.beta) / two
    b_coef = ((jv + 1.0) * params.gamma_a + jv * params.gamma_d - rt * (gb + gc).real) / two
    c_coef = (1j * (gb - gc) / (2.0 * rt)).real
    d_coef = (
        -params.alpha / (jv + 1.0)
        - params.beta / jv
        + params.gamma_a / (jv + 1.0)
        + params.gamma_d / jv
        + (gb + gc).real / rt
    ) / two
    return a_coef, b_coef, c_coef, d_coef


def _fidelity(theta, x, y, abcd) -> float:
    a, b, c, d = abcd
    s, co = math.sin(theta / 2.0), math.cos(theta / 2.0)
    return a * s * s + b * co * co + c * x * s * co + d * y * s * s


def covariant_entanglement_fidelity(j, theta, params: CovariantChannelParams,
                                    moments: ProgramMoments) -> float:
    as_angle(theta)
    check_moments(j, moments)
    fe = _fidelity(theta, moments.jz_mean, moments.jz2_mean, abcd_coefficients(j, params))
    if not -1e-10 <= fe <= 1.0 + 1e-10:
        raise ToleranceError("covariant entanglement fidelity %r escapes [0, 1]" % fe)
    return fe


# ---------------------------------------------------------------------------
# maximization


def _linear_terms(j: HalfInteger, theta, x, y):
    """(c0, pa, pd, z) with F_e = c0 + pa*gamma_a + pd*gamma_d + Re(conj(z)*gamma_b)
    at moments (x, y).  Once alpha and beta are eliminated F_e is affine, so
    each coefficient is a difference of two of its values."""
    def fe(ga, gd, gb):
        params = CovariantChannelParams(*_alpha_beta(j, ga, gd), ga, gd, gb)
        return _fidelity(theta, x, y, _abcd(j.value, params))

    c0 = fe(0.0, 0.0, 0j)
    z = complex(fe(0.0, 0.0, 1 + 0j) - c0, fe(0.0, 0.0, 1j) - c0)
    return c0, fe(1.0, 0.0, 0j) - c0, fe(0.0, 1.0, 0j) - c0, z


def _edge_argmax(p, q, cap):
    # argmax of the concave p*t + q*sqrt(t), q >= 0, over 0 <= t <= cap
    if p >= 0.0:
        return cap
    return min((q / (2.0 * p)) ** 2, cap)


def _optimum_at_moments(j: HalfInteger, theta, x, y):
    """(fe, params): the exact maximum of F_e at fixed moments.

    gamma_b = sqrt(gamma_a*gamma_d)*z/|z| leaves pa*gamma_a + pd*gamma_d
    + |z|*sqrt(gamma_a*gamma_d), concave and linear on each ray from the
    origin, so the maximum sits at the origin or on an outer edge gamma_a =
    cap_a or gamma_d = cap_d, where it is p*t + q*sqrt(t) in the free
    coordinate.  At j = 1/2 the edge gamma_d = 1/2 is the whole feasible set.
    """
    c0, pa, pd, z = _linear_terms(j, theta, x, y)
    r = abs(z)
    cap_a, cap_d = gamma_a_cap(j), gamma_d_cap(j)
    if j.doubled == 1:
        candidates = [(_edge_argmax(pa, r * math.sqrt(0.5), cap_a), 0.5)]
    else:
        candidates = [
            (0.0, 0.0),
            (cap_a, _edge_argmax(pd, r * math.sqrt(cap_a), cap_d)),
            (_edge_argmax(pa, r * math.sqrt(cap_d), cap_a), cap_d),
        ]

    def value(gammas):
        ga, gd = gammas
        return c0 + pa * ga + pd * gd + r * math.sqrt(ga * gd)

    ga, gd = max(candidates, key=value)
    gamma_b = math.sqrt(ga * gd) * z / r if r > 0.0 else 0j
    return value((ga, gd)), params_from_gammas(j, ga, gd, gamma_b)


def maximize_covariant_fidelity(j, theta):
    """Global maximum of the covariant entanglement fidelity.

    The fidelity is linear in (Jz_mean, Jz2_mean), so it suffices to scan the
    vertices (m, m^2) of the moment hull; at each vertex the channel
    parameters are optimized exactly (see _optimum_at_moments).  Ties are
    resolved toward larger Jz_mean, except that an exactly tied Jz_mean = 0
    program is preferred at j = 1/2 (that is the form the piecewise optimum
    takes there).

    Returns (fe, params, moments).
    """
    j = as_spin(j, "program spin")
    _check_dimension(j.doubled + 1)
    as_angle(theta)
    jv = j.value
    candidates = [(jv - i, (jv - i) ** 2) for i in range(j.doubled + 1)]
    if j.doubled == 1:
        candidates.append((0.0, moments_lower_bound(j, 0.0)))  # the central program
    best = None
    for x, y in candidates:
        fe, params = _optimum_at_moments(j, theta, x, y)
        if best is None or fe > best[0] + 1e-10:
            best = (fe, params, ProgramMoments(x, y))
        elif abs(fe - best[0]) <= 1e-10 and j.doubled == 1 and x == 0.0:
            best = (fe, params, ProgramMoments(x, y))
    return best


def locate_transition(j):
    """Angle displacement |theta - pi| at which the optimal program switches
    from the maximal-projection (coherent) branch to the central branch.

    Both switches are closed forms: arccos((4+sqrt7)/9) at j = 1/2, where the
    optimal gamma_a leaves its cap, and arccos((1+sqrt1275)/49) at j = 1, where
    the central program's optimum overtakes the coherent one.  Returns None for
    j >= 3/2, where the coherent program is optimal at every angle.
    """
    j = as_spin(j, "program spin")
    if j.doubled > 2:
        return None
    return math.acos(-(_J_HALF_SWITCH_COS if j.doubled == 1 else _J_ONE_SWITCH_COS))
