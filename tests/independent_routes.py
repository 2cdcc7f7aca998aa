"""Routes to the simulated fidelities that share no code with the library's own.

`dense_strategy` builds the whole exchange gate on the program (x) target
space and reads the channel through `ProgramChannel`, one Kraus operator per
control basis state; the library's strategy keeps only the 2k+1 sectors that
the program reaches.  `spin_k_mo_from_moments` integrates the MO fidelity
over the estimate's exact beta moments, in rationals; the library integrates
it by a Gauss-Jacobi rule.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from spinbench.channel_lab import (
    ProgramChannel, average_fidelity_from_entanglement, entanglement_fidelity, worst_case_fidelity)
from spinbench.protocols import StrategyFidelities, heisenberg_gate
from spinbench.spin_algebra import (
    Z_AXIS, as_half_integer, make_spin_operators, rotation_unitary, spin_coherent_state)


def dense_strategy(j, k, theta, f, n=Z_AXIS, grid=16):
    # the strategy through the whole gate: every control basis state gives a
    # Kraus operator of ProgramChannel, the program is a coherent state along n
    j, k = as_half_integer(j), as_half_integer(k)
    ch = ProgramChannel(heisenberg_gate(j, k, f), spin_coherent_state(j, n), j, k)
    v = rotation_unitary(make_spin_operators(k), n, theta)
    fe = entanglement_fidelity(ch, v)
    fw, _ = worst_case_fidelity(ch, v, grid=grid)
    return StrategyFidelities(fe, average_fidelity_from_entanglement(fe, k.doubled + 1), fw)


# Under the estimate's weight (2j+1)(1-t)^{2j}, E[(1-t)^p] = (2j+1)/(2j+1+p):
# a third route to the MO fidelities, independent of the rule and the closed form.
def beta_moment(two_j, p):
    return Fraction(two_j + 1, two_j + 1 + p)


def spin_k_mo_from_moments(two_j, two_k, theta, tau=None):
    # estimate, then rotate by tau (by default theta) about the estimate:
    # (U_{2k}(c)/(2k+1))^2 with the half-angle cosine c = cos((theta+tau)/2) +
    # 2 sin(theta/2) sin(tau/2) s, s = 1 - t, expanded in exact rationals (the
    # float coefficients are large and cancel)
    tau = theta if tau is None else tau
    c = np.array([Fraction(math.cos((theta + tau) / 2.0)),
                  Fraction(2.0 * math.sin(theta / 2.0) * math.sin(tau / 2.0))])
    u_prev, u = np.array([Fraction(0)]), np.array([Fraction(1)])
    for _ in range(two_k):
        u_prev, u = u, P.polysub(P.polymul(2 * c, u), u_prev)
    poly = P.polymul(u, u)
    fe = sum(a * beta_moment(two_j, p) for p, a in enumerate(poly)) / (two_k + 1) ** 2
    return average_fidelity_from_entanglement(float(fe), two_k + 1)
