import sys

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` runs each property test on 1000 examples (the default is 100);
# no per-example deadline there, as a slow runner must not fail a correct example
settings.register_profile("ci", max_examples=1000, deadline=None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance-criteria verdict lines at the end of the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None)
    if not lines:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=== acceptance criteria ===")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def skew_kraus(monkeypatch):
    """skew_kraus(i): from then on each strategy stack of Kraus families holds the i-th point's
    column 0 (its drop-0 block column) 1e-6 off norm 1, the other points as they are."""
    from spinbench import protocols

    kraus = protocols._strategy_kraus

    def skew(i):
        def skewed(js, k, fs):
            families = kraus(js, k, fs)
            families[i, :, :, 0] *= 1.0 + 1e-6
            return families
        monkeypatch.setattr(protocols, "_strategy_kraus", skewed)
    return skew


class LapackCalled(Exception):
    """Raised by a numpy eigensolver under the `no_lapack` fixture."""


@pytest.fixture
def no_lapack(monkeypatch):
    """From then on numpy's eigensolvers raise LapackCalled: numpy.linalg.eigh, eigvalsh, eig
    and eigvals, and numpy.roots, which binds its own eigvals at import."""
    import numpy as np

    def refused(name):
        def solver(*args, **kwargs):
            raise LapackCalled(name + " called")
        return solver

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refused("numpy.linalg." + name))
    monkeypatch.setattr(np, "roots", refused("numpy.roots"))
