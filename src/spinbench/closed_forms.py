"""Closed-form fidelities and benchmark values as pure scalar functions.

Exact expressions are the piecewise-defined optima for the programmed-rotation
problem; asymptotic expressions are their large-j leading forms and are always
labeled as such (they may leave [0,1] at small j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spin_algebra import HalfInteger, ToleranceError, as_angle, as_half_integer, as_spin

# cos(theta) at which the j=1/2 optimum switches from the boundary (coherent
# program) branch to the interior branch; equals cos(2*arctan(sqrt(4+sqrt 7))).
_J_HALF_SWITCH_COS = -(4.0 + math.sqrt(7.0)) / 9.0

J1_NOTE = (
    "j=1 closed form: the coherent branch is the j>=3/2 expression continued to "
    "j=1 and the central branch is 1/3 + (2/5)sin^2(theta/2); their pointwise "
    "maximum is returned, the crossover falling near |theta-pi| = 0.23*pi"
)
J_HALF_NOTE = (
    "j=1/2 closed form: interior branch used for cos(theta) <= -(4+sqrt7)/9, "
    "i.e. |theta-pi| <= pi - 2*arctan(sqrt(4+sqrt7)); boundary branch elsewhere"
)

# the qubit target k = 1/2 of the spin-k forms
_K_HALF = HalfInteger(1)


@dataclass(frozen=True)
class FidelityValue:
    value: float
    kind: str  # "exact" or "asymptotic"
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("exact", "asymptotic"):
            raise ValueError("kind must be 'exact' or 'asymptotic', got %r" % (self.kind,))
        if self.kind == "exact" and not -1e-12 <= self.value <= 1 + 1e-12:
            raise ToleranceError("exact fidelity %r escapes [0, 1]" % (self.value,))


def _eq5_value(j: float, c: float) -> float:
    """The j >= 3/2 optimum as a function of cos(theta), continued to any j."""
    tj = 2.0 * j
    bracket = (
        2.0 * j * j
        + (tj + 1.0) / 2.0
        + (tj + 1.0) * c / 2.0
        + j * math.sqrt(1.0 + 2.0 * (tj + 1.0) * c + (tj + 1.0) ** 2)
    )
    return 1.0 / 3.0 + 2.0 * bracket / (3.0 * (1.0 + tj) ** 2)


def optimal_fidelity(j, theta: float) -> FidelityValue:
    """Best average fidelity of any program-controlled rotation strategy.

    For j >= 3/2 a single closed form holds; j = 1/2 and j = 1 are piecewise,
    with the better-program branch (a central |j,0>-like program) taking over
    in a window around theta = pi.
    """
    j = as_spin(j, "program spin")
    c = math.cos(theta)
    jv = j.value
    if j.doubled >= 3:
        return FidelityValue(min(_eq5_value(jv, c), 1.0), "exact")
    if j.doubled == 2:  # j = 1
        coherent = _eq5_value(1.0, c)
        central = 1.0 / 3.0 + 0.4 * (1.0 - c) / 2.0  # 1/3 + (2/5) sin^2(theta/2)
        return FidelityValue(min(max(coherent, central), 1.0), "exact", J1_NOTE)
    # j = 1/2
    if c <= _J_HALF_SWITCH_COS:
        value = 1.0 / 3.0 + ((2.0 + 7.0 * c) / (6.0 + 12.0 * c) - c / 2.0) / 6.0
    else:
        value = 1.0 / 3.0 + (3.0 + 2.0 * c + math.sqrt(5.0 + 4.0 * c)) / 12.0
    return FidelityValue(min(value, 1.0), "exact", J_HALF_NOTE)


def optimal_fidelity_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j optimum 1 - (1 - cos theta)/(3j): the spin-k form at k = 1/2."""
    return spin_k_fidelity_asymptotic(j, _K_HALF, theta)


def mo_optimal_angle(j, theta: float) -> float:
    """Conditional rotation angle maximizing the measure-and-operate fidelity.

    Two-argument arctangent form of cot(tau) =
    [(2j^2+3j+2)cos(theta) + 2j+1] / [(2j^2+3j)sin(theta)], continuous on
    [0, pi] with tau(0) = 0 and tau(pi) = pi.
    """
    jv = as_half_integer(j).value
    s, c = math.sin(theta), math.cos(theta)
    return math.atan2((2.0 * jv * jv + 3.0 * jv) * s, (2.0 * jv * jv + 3.0 * jv + 2.0) * c + 2.0 * jv + 1.0)


def folded_angle(theta: float) -> float:
    """The rotation angle in [0, pi] with the fidelities of theta.

    A rotation by theta + 2pi differs from one by theta by a phase, and one by
    -theta about n is one by theta about -n, so the axis-averaged fidelities
    are even and 2pi-periodic in theta.  theta in [0, pi] is returned as it
    is; any other finite theta as |atan2(sin theta, cos theta)|, which keeps
    the reduced angle exact to rounding at any |theta|, where theta - tau in
    floating point would lose the conditional angle tau.  A non-finite theta
    is refused with ValueError.
    """
    if 0.0 <= theta <= math.pi:
        return theta
    as_angle(theta)
    return abs(math.atan2(math.sin(theta), math.cos(theta)))


def mo_benchmark(j, theta: float) -> FidelityValue:
    """Exact maximal fidelity of any measure-and-operate strategy.

    Computed at `folded_angle(theta)`, in [0, pi], by the symmetries
    F(-theta) = F(theta) = F(theta + 2pi).
    """
    j = as_spin(j, "program spin")
    theta = folded_angle(theta)
    jv = j.value
    tau = mo_optimal_angle(j, theta)
    tj = 2.0 * jv
    value = (4.0 * jv + 4.0 + (tj + 1.0) * math.cos(theta - tau)) / (6.0 * jv + 9.0) + (
        (tj + 1.0) * (math.cos(theta) + math.cos(tau)) + math.cos(theta + tau) + 1.0
    ) / (3.0 * (jv + 1.0) * (tj + 3.0))
    return FidelityValue(min(value, 1.0), "exact")


def mo_benchmark_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j MO benchmark 1 - 2(1 - cos theta)/(3j): the spin-k form at k = 1/2."""
    return spin_k_mo_asymptotic(j, _K_HALF, theta)


def worst_case_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j worst case 1 - (1 - cos theta)/j: the spin-k form at k = 1/2."""
    return spin_k_worst_case_asymptotic(j, _K_HALF, theta)


def _large_j_form(j, coeff, denom, theta: float) -> FidelityValue:
    """The large-j form 1 - coeff (1 - cos theta)/(denom j) that every asymptotic fidelity takes."""
    value = 1.0 - coeff * (1.0 - math.cos(theta)) / (denom * as_spin(j, "program spin").value)
    return FidelityValue(value, "asymptotic")


def spin_k_fidelity_asymptotic(j, k, theta: float) -> FidelityValue:
    """Large-j average fidelity of the Heisenberg strategy on a spin-k target."""
    kv = as_half_integer(k).value
    return _large_j_form(j, kv * (2.0 * kv + 1.0), 3.0, theta)


def spin_k_entanglement_asymptotic(j, k, theta: float) -> FidelityValue:
    """Companion entanglement-fidelity form, 1 - 2k(k+1)(1-cos theta)/(3j)."""
    kv = as_half_integer(k).value
    return _large_j_form(j, 2.0 * kv * (kv + 1.0), 3.0, theta)


def spin_k_worst_case_asymptotic(j, k, theta: float) -> FidelityValue:
    """Large-j worst-case fidelity of the Heisenberg strategy on a spin-k target.

    To first order in 1/j the target state |k, m> loses
    (1 - cos theta)(k - m)(k + m + 1)/j, its squared ladder element over j.
    The maximum over m is k(k+1) at m = 0 or -1 for integer k, and
    k(k+1) + 1/4 at m = -1/2 for half-integer k.
    """
    k = as_half_integer(k)
    kv = k.value
    return _large_j_form(j, kv * (kv + 1.0) + (0.0 if k.is_integer else 0.25), 1.0, theta)


def spin_k_mo_asymptotic(j, k, theta: float) -> FidelityValue:
    kv = as_half_integer(k).value
    return _large_j_form(j, 2.0 * kv * (2.0 * kv + 1.0), 3.0, theta)


def coupling_angle(j, theta: float) -> float:
    """Interaction angle f(theta) = atan2((2j+1)sin(theta), 1+(2j+1)cos(theta)).

    Mapped to [0, 2pi); on [0, pi] this coincides with the arccos form obtained
    from the same right triangle.
    """
    jv = as_half_integer(j).value
    tj1 = 2.0 * jv + 1.0
    f = math.atan2(tj1 * math.sin(theta), 1.0 + tj1 * math.cos(theta))
    if f < 0.0:
        f += 2.0 * math.pi
    return f


def interaction_time(j, theta: float, coupling_constant: float) -> float:
    """Evolution time t = f(theta) / ((2j+1) alpha) of the Heisenberg pulse (hbar = 1);
    a non-finite theta, or an alpha outside (0, inf), is refused with ValueError."""
    if not (-math.inf < theta < math.inf and 0.0 < coupling_constant < math.inf):  # a NaN fails too
        raise ValueError("need a finite theta and a coupling constant in (0, inf), got %r and %r"
                         % (theta, coupling_constant))
    jv = as_half_integer(j).value
    return coupling_angle(j, theta) / ((2.0 * jv + 1.0) * coupling_constant)
