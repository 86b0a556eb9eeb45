import signal
import sys
from collections import OrderedDict

import numpy as np
import pytest

import dense_oracle
from electrolum import SystemParams, build_system
from electrolum.settings import DEFAULT_GRID

# A test still running after this many seconds fails, so a loop that never
# ends cannot hang the suite.  The slowest test takes a few seconds, and
# faulthandler_timeout (120 s, pyproject.toml) dumps every stack first.
TEST_TIMEOUT_S = 300


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """Fail the test that runs past ``TEST_TIMEOUT_S`` (where ``SIGALRM`` exists)."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        pytest.fail(f"ran past TEST_TIMEOUT_S = {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdicts and the reference-table check even under output capture."""
    for suffix, title in (("test_acceptance", "acceptance criteria"),
                          ("test_reference_outputs", "reference tables")):
        module = next((m for name, m in sys.modules.items() if name.endswith(suffix)), None)
        lines = getattr(module, "REPORT_LINES", [])
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)

# reference parameter set used throughout: eta = 0.1, gamma = 0.5e-6,
# gamma_cav = 7e-4 (all in units of the cavity frequency)
REF_ETA = 0.1
REF_GAMMA = 0.5e-6
REF_GAMMA_CAV = 7e-4


@pytest.fixture(scope="session")
def ref_params():
    return SystemParams(eta=REF_ETA)


@pytest.fixture(scope="session")
def low_bias_system(ref_params):
    """Reference system at the low-bias point (no direct polariton injection)."""
    return build_system(ref_params, mu_mode="omega_G")


@pytest.fixture(scope="session")
def high_bias_system(ref_params):
    """Reference system with direct polariton injection open."""
    return build_system(ref_params, mu_mode="omega_G_plus_omega_plus")


@pytest.fixture(scope="session")
def low_bias_spectrum(low_bias_system):
    return low_bias_system.emission_spectrum(np.linspace(*DEFAULT_GRID))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


class DenseGenerators:
    """Dense oracle generator of a built system, each built once.

    Keyed by the system object, which the entry keeps alive so the key
    cannot be reused; only the most recent few are kept, because one
    dense generator at n_max = 12 takes tens of megabytes.
    """

    def __init__(self, maxsize=4):
        self.maxsize = maxsize
        self._entries = OrderedDict()

    def __call__(self, system):
        key = id(system)
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self._entries[key] = (system, dense_oracle.system_liouvillian(system))
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return self._entries[key][1]


@pytest.fixture(scope="session")
def dense_generator():
    """Callable system -> dense D^2 x D^2 generator, cached per system."""
    return DenseGenerators()
