"""Closed-form fidelities and benchmark values as pure scalar functions.

Exact expressions are the piecewise-defined optima for the programmed-rotation
problem; asymptotic expressions are their large-j leading forms and are always
labeled as such (they may leave [0,1] at small j).

Each formula is written once, as a plain-float kernel of a spin j (a float
>= 1/2, checked by the caller) and an angle: `_optimal_value`, `_mo_value`,
`_mo_angle` and `_large_j_value`.  A kernel refuses a non-finite angle with
ValueError and an exact value outside [0, 1] with ToleranceError.  The public
functions check the spin and wrap a kernel's value in a `FidelityValue`; the
CLI's rows call the kernels directly, once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spin_algebra import HalfInteger, ToleranceError, as_angle, as_half_integer, as_spin

# cos(theta) at which the j=1/2 optimum switches from the boundary (coherent
# program) branch to the interior branch; equals cos(2*arctan(sqrt(4+sqrt 7))).
_J_HALF_SWITCH_COS = -(4.0 + math.sqrt(7.0)) / 9.0
# cos(theta) at which the j=1 coherent branch _eq5_value(1, c) meets the central
# branch 1/3 + (1-c)/5: the root c <= -4/21 of 49c^2 + 2c - 26 = 0
_J_ONE_SWITCH_COS = -(1.0 + math.sqrt(1275.0)) / 49.0

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


def _exact(value: float) -> float:
    """value, refused by a ToleranceError unless in [0, 1] to 1e-12: the check of every exact fidelity."""
    if not -1e-12 <= value <= 1 + 1e-12:
        raise ToleranceError("exact fidelity %r escapes [0, 1]" % (value,))
    return value


@dataclass(frozen=True)
class FidelityValue:
    value: float
    kind: str  # "exact" or "asymptotic"
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("exact", "asymptotic"):
            raise ValueError("kind must be 'exact' or 'asymptotic', got %r" % (self.kind,))
        if self.kind == "exact":
            _exact(self.value)


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


def _optimal_value(j: float, theta: float) -> float:
    """`optimal_fidelity`'s value at the spin j, a float >= 1/2."""
    c = math.cos(as_angle(theta))
    if j >= 1.5:
        value = _eq5_value(j, c)
    elif j == 1.0:
        coherent = _eq5_value(1.0, c)
        central = 1.0 / 3.0 + 0.4 * (1.0 - c) / 2.0  # 1/3 + (2/5) sin^2(theta/2)
        value = max(coherent, central)
    elif c <= _J_HALF_SWITCH_COS:  # j = 1/2
        value = 1.0 / 3.0 + ((2.0 + 7.0 * c) / (6.0 + 12.0 * c) - c / 2.0) / 6.0
    else:
        value = 1.0 / 3.0 + (3.0 + 2.0 * c + math.sqrt(5.0 + 4.0 * c)) / 12.0
    return _exact(min(value, 1.0))


# the note of optimal_fidelity's piecewise forms, by doubled spin
OPTIMAL_NOTES = {1: J_HALF_NOTE, 2: J1_NOTE}


def optimal_fidelity(j, theta: float) -> FidelityValue:
    """Best average fidelity of any program-controlled rotation strategy.

    For j >= 3/2 a single closed form holds; j = 1/2 and j = 1 are piecewise,
    with the better-program branch (a central |j,0>-like program) taking over
    in a window around theta = pi.
    """
    j = as_spin(j, "program spin")
    return FidelityValue(_optimal_value(j.value, theta), "exact", OPTIMAL_NOTES.get(j.doubled, ""))


def optimal_fidelity_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j optimum 1 - (1 - cos theta)/(3j): the spin-k form at k = 1/2."""
    return _large_j_form(j, *QUBIT_TERMS["average"], theta)


def _mo_angle(j: float, theta: float) -> float:
    """`mo_optimal_angle` at the spin j, a float, and a finite theta."""
    s, c = math.sin(theta), math.cos(theta)
    return math.atan2((2.0 * j * j + 3.0 * j) * s, (2.0 * j * j + 3.0 * j + 2.0) * c + 2.0 * j + 1.0)


def mo_optimal_angle(j, theta: float) -> float:
    """Conditional rotation angle maximizing the measure-and-operate fidelity.

    Two-argument arctangent form of cot(tau) =
    [(2j^2+3j+2)cos(theta) + 2j+1] / [(2j^2+3j)sin(theta)], continuous on
    [0, pi] with tau(0) = 0 and tau(pi) = pi.
    """
    return _mo_angle(as_half_integer(j).value, as_angle(theta))


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


def _mo_value(j: float, theta: float) -> float:
    """`mo_benchmark`'s value at the spin j, a float >= 1/2."""
    theta = folded_angle(theta)
    tau = _mo_angle(j, theta)
    tj = 2.0 * j
    value = (4.0 * j + 4.0 + (tj + 1.0) * math.cos(theta - tau)) / (6.0 * j + 9.0) + (
        (tj + 1.0) * (math.cos(theta) + math.cos(tau)) + math.cos(theta + tau) + 1.0
    ) / (3.0 * (j + 1.0) * (tj + 3.0))
    return _exact(min(value, 1.0))


def mo_benchmark(j, theta: float) -> FidelityValue:
    """Exact maximal fidelity of any measure-and-operate strategy.

    Computed at `folded_angle(theta)`, in [0, pi], by the symmetries
    F(-theta) = F(theta) = F(theta + 2pi).
    """
    return FidelityValue(_mo_value(as_spin(j, "program spin").value, theta), "exact")


def mo_benchmark_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j MO benchmark 1 - 2(1 - cos theta)/(3j): the spin-k form at k = 1/2."""
    return _large_j_form(j, *QUBIT_TERMS["mo"], theta)


def worst_case_asymptotic(j, theta: float) -> FidelityValue:
    """Large-j worst case 1 - (1 - cos theta)/j: the spin-k form at k = 1/2."""
    return _large_j_form(j, *QUBIT_TERMS["worst_case"], theta)


def _large_j_value(j: float, coeff: float, denom: float, theta: float) -> float:
    """1 - coeff (1 - cos theta)/(denom j) at the spin j, a float >= 1/2: the large-j form that
    every asymptotic fidelity takes."""
    return 1.0 - coeff * (1.0 - math.cos(as_angle(theta))) / (denom * j)


def _large_j_form(j, coeff, denom, theta: float) -> FidelityValue:
    """`_large_j_value` at a spin j >= 1/2 of any form, as an asymptotic value."""
    return FidelityValue(_large_j_value(as_spin(j, "program spin").value, coeff, denom, theta), "asymptotic")


def _large_j_terms(k: HalfInteger) -> dict:
    """(coeff, denom) of each large-j form of a spin-k target, by fidelity: the Heisenberg
    strategy's average, entanglement and worst-case fidelity, and the MO benchmark."""
    kv = k.value
    return {
        "average": (kv * (2.0 * kv + 1.0), 3.0),
        "entanglement": (2.0 * kv * (kv + 1.0), 3.0),
        "worst_case": (kv * (kv + 1.0) + (0.0 if k.is_integer else 0.25), 1.0),
        "mo": (2.0 * kv * (2.0 * kv + 1.0), 3.0),
    }


# the qubit target's terms, which the CLI evaluates point by point
QUBIT_TERMS = _large_j_terms(_K_HALF)


def spin_k_fidelity_asymptotic(j, k, theta: float) -> FidelityValue:
    """Large-j average fidelity of the Heisenberg strategy on a spin-k target."""
    return _large_j_form(j, *_large_j_terms(as_half_integer(k))["average"], theta)


def spin_k_entanglement_asymptotic(j, k, theta: float) -> FidelityValue:
    """Companion entanglement-fidelity form, 1 - 2k(k+1)(1-cos theta)/(3j)."""
    return _large_j_form(j, *_large_j_terms(as_half_integer(k))["entanglement"], theta)


def spin_k_worst_case_asymptotic(j, k, theta: float) -> FidelityValue:
    """Large-j worst-case fidelity of the Heisenberg strategy on a spin-k target.

    To first order in 1/j the target state |k, m> loses
    (1 - cos theta)(k - m)(k + m + 1)/j, its squared ladder element over j.
    The maximum over m is k(k+1) at m = 0 or -1 for integer k, and
    k(k+1) + 1/4 at m = -1/2 for half-integer k.
    """
    return _large_j_form(j, *_large_j_terms(as_half_integer(k))["worst_case"], theta)


def spin_k_mo_asymptotic(j, k, theta: float) -> FidelityValue:
    return _large_j_form(j, *_large_j_terms(as_half_integer(k))["mo"], theta)


def coupling_angle(j, theta: float) -> float:
    """Interaction angle f(theta) = atan2((2j+1)sin(theta), 1+(2j+1)cos(theta)).

    Mapped to [0, 2pi); on [0, pi] this coincides with the arccos form obtained
    from the same right triangle.
    """
    jv = as_half_integer(j).value
    as_angle(theta)
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
