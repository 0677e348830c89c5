import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a child process it started still running,
    after terminating it."""
    before = set(multiprocessing.active_children())
    yield
    left = [child for child in multiprocessing.active_children() if child not in before]
    for child in left:
        child.terminate()
        child.join(timeout=5)
    if left:
        pytest.fail(f"child processes left running: {left}")
