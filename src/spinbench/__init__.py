"""spinbench: fidelity benchmarks for quantum-programmed rotation gates.

A spin-j program controls a rotation on a spin-k target through the isotropic
exchange coupling.  The package evaluates the closed-form optimal and
measure-and-operate fidelities, cross-checks them against brute-force channel
simulation, follows the program as it degrades over repeated uses, and
certifies experimental data against the classical benchmark.

`import spinbench` imports no numpy and executes no submodule.  Every
submodule but `cli` is registered in `sys.modules` and as a package attribute
by `importlib.util.LazyLoader`, and executes on its first attribute access.
Each public name in `_EXPORTS` is a read-only property of the package, which
reads it from its defining submodule on every access, so the package holds no
copy of it.  So the closed forms and `spinbench certify` run without the array
layer (numpy and the modules built on it), which loads on the first call that
needs it.  LazyLoader takes no lock before Python 3.12: make the first use of
each submodule on one thread.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec
from operator import attrgetter
from types import ModuleType

# submodule -> the public names it defines
_EXPORTS = {
    "channel_lab": (
        "KrausChannel",
        "ProgramChannel",
        "average_fidelity_from_entanglement",
        "average_fidelity_mc",
        "entanglement_fidelity",
        "worst_case_fidelity",
    ),
    "closed_forms": (
        "FidelityValue",
        "coupling_angle",
        "interaction_time",
        "mo_benchmark",
        "mo_benchmark_asymptotic",
        "mo_optimal_angle",
        "optimal_fidelity",
        "optimal_fidelity_asymptotic",
        "spin_k_entanglement_asymptotic",
        "spin_k_fidelity_asymptotic",
        "spin_k_mo_asymptotic",
        "spin_k_worst_case_asymptotic",
        "worst_case_asymptotic",
    ),
    "covariant_opt": (
        "CovariantChannelParams",
        "ProgramMoments",
        "abcd_coefficients",
        "covariant_entanglement_fidelity",
        "locate_transition",
        "maximize_covariant_fidelity",
    ),
    "protocols": (
        "StrategyFidelities",
        "heisenberg_gate",
        "simulate_mo_strategy",
        "simulate_optimal_qubit_strategy",
        "simulate_spin_k",
        "simulate_spin_k_mo",
    ),
    "recycling": (
        "Longevity",
        "ProgramDistribution",
        "RecyclingCurve",
        "advantage_longevity",
        "asymptotic_distribution",
        "complementary_step",
        "fresh_program",
        "per_m_fidelity",
        "per_m_fidelity_asymptotic",
        "recycling_curve",
    ),
    "scalars": ("HalfInteger", "as_half_integer"),
    "spin_algebra": (
        "DIM_CAP",
        "Direction",
        "SpinOperators",
        "make_spin_operators",
        "rotation_unitary",
        "spin_coherent_state",
        "total_spin_projectors",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.4.0"


def _register_lazily(name):
    spec = PathFinder.find_spec(name, __path__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# `cli` is the entry point: `python -m spinbench.cli` would find a registered
# module in sys.modules and run it twice, so `import spinbench.cli` imports it
for _module in _EXPORTS:
    globals()[_module] = _register_lazily(__name__ + "." + _module)
del _module

# The package's type, with a property per public name.  A module __getattr__ (PEP 562) would do
# the same, but on Python 3.11 it runs only after a failed lookup has raised an AttributeError:
# ~0.6 us an access against ~0.07 us here, and library callers read these names in loops.
_Package = type("_Package", (ModuleType,), {
    name: property(attrgetter(module + "." + name)) for module, names in _EXPORTS.items() for name in names})
sys.modules[__name__].__class__ = _Package


def __dir__():
    return sorted({*globals(), *__all__})
