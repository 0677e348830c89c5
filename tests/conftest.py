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
