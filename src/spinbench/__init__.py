"""spinbench: fidelity benchmarks for quantum-programmed rotation gates.

A spin-j program controls a rotation on a spin-k target through the isotropic
exchange coupling.  The package evaluates the closed-form optimal and
measure-and-operate fidelities, cross-checks them against brute-force channel
simulation, follows the program as it degrades over repeated uses, and
certifies experimental data against the classical benchmark.
"""

from .channel_lab import (
    KrausChannel,
    ProgramChannel,
    average_fidelity_from_entanglement,
    average_fidelity_mc,
    entanglement_fidelity,
    worst_case_fidelity,
)
from .closed_forms import (
    FidelityValue,
    coupling_angle,
    interaction_time,
    mo_benchmark,
    mo_benchmark_asymptotic,
    mo_optimal_angle,
    optimal_fidelity,
    optimal_fidelity_asymptotic,
    spin_k_entanglement_asymptotic,
    spin_k_fidelity_asymptotic,
    spin_k_mo_asymptotic,
    spin_k_worst_case_asymptotic,
    worst_case_asymptotic,
)
from .covariant_opt import (
    CovariantChannelParams,
    ProgramMoments,
    abcd_coefficients,
    covariant_entanglement_fidelity,
    locate_transition,
    maximize_covariant_fidelity,
)
from .protocols import (
    StrategyFidelities,
    heisenberg_gate,
    simulate_mo_strategy,
    simulate_optimal_qubit_strategy,
    simulate_spin_k,
    simulate_spin_k_mo,
)
from .recycling import (
    Longevity,
    ProgramDistribution,
    RecyclingCurve,
    advantage_longevity,
    asymptotic_distribution,
    complementary_step,
    fresh_program,
    per_m_fidelity,
    per_m_fidelity_asymptotic,
    recycling_curve,
)
from .spin_algebra import (
    DIM_CAP,
    Direction,
    HalfInteger,
    SpinOperators,
    as_half_integer,
    make_spin_operators,
    rotation_unitary,
    spin_coherent_state,
    total_spin_projectors,
)

__version__ = "0.4.0"
