import sys

import pytest


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
def skew_block(monkeypatch):
    """skew_block(i): from then on the unitarity check of each exchange block of a strategy
    stack sees the block of the i-th angle 1e-6 off unitary, the others as they are."""
    from spinbench import protocols

    error = protocols._unitarity_error

    def skew(i):
        def skewed(block):
            block = block.copy()
            block[i] *= 1.0 + 1e-6
            return error(block)
        monkeypatch.setattr(protocols, "_unitarity_error", skewed)
    return skew
