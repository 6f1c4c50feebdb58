"""Per-operation deadlines, enforced in-process with an interval timer."""

from __future__ import annotations

import signal


class DeadlineExceeded(BaseException):
    """Raised inside an operation when its deadline passes.

    A BaseException, like KeyboardInterrupt, so that no `except Exception`
    in the code under test can swallow it.
    """


def _expire(signum, frame):
    raise DeadlineExceeded


def install_alarm_handler() -> None:
    """Make SIGALRM raise DeadlineExceeded; call once before using deadline."""
    signal.signal(signal.SIGALRM, _expire)


class deadline:
    """Raise DeadlineExceeded in the enclosed block after `seconds`.

    A plain class rather than a generator context manager: it costs about
    2 us per operation, against about 50 us for a classify request.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
