import os

import numpy as np
import pytest

from pmsim import build_graph, check_game, harness


def gated_report(game):
    """The observability report of ``game`` behind the strict gate, as an engine takes it."""
    return check_game(game, build_graph(game)[0])


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left unreaped (waitpid gave pid {pid}, status {status})")


@pytest.fixture(scope="session")
def bandit_mp():
    return harness.resolve_game("bandit_mp")[0]


@pytest.fixture(scope="session")
def bandit_mp_random():
    return harness.resolve_game("bandit_mp_random")[0]


@pytest.fixture(scope="session")
def apple_tasting():
    return harness.resolve_game("apple_tasting")[0]


@pytest.fixture(scope="session")
def label_efficient():
    return harness.resolve_game("label_efficient")[0]


@pytest.fixture(scope="session")
def full_info_3x3():
    return harness.resolve_game("full_info_3x3")[0]


@pytest.fixture(scope="session")
def three_action_loss():
    # two matching-pennies rows plus a flat hedge row with its own cell
    return np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.4]])
