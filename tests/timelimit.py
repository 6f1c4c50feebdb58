"""A wall-clock limit for a block of test code.

A stall then fails its test instead of hanging the suite.  pytest-timeout
is not a dependency, so the limit is a real-time interval timer.
"""

import contextlib
import signal


class Stalled(AssertionError):
    """The block did not finish within its limit."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise Stalled inside the block once `seconds` have passed.

    SIGALRM is delivered to the main thread only, so use it there.  The
    previous handler is restored and the timer cleared on exit.
    """
    def expire(signum, frame):
        raise Stalled(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
