import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with a thread it started still alive, such as a
    socket channel's courier that `close()` did not stop."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"the test left {len(left)} thread(s) running: {', '.join(left)}")
