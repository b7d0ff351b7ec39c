"""Wall-clock caps on single benchmark cases.

The cap is enforced with ``SIGALRM``: the handler raises
:class:`CaseTimeout` into the running Python code at the next bytecode
boundary, so a thrashing solver call is cut off without a second process.
``CaseTimeout`` derives from ``BaseException`` so that no ``except
Exception`` inside the program can swallow it.
"""

from __future__ import annotations

import signal
import time


class CaseTimeout(BaseException):
    """Raised into a case that ran past its cap."""


def run_capped(fn, cap_s: float):
    """Run ``fn()`` under a wall-clock cap.

    Returns ``("ok", value, seconds)``, or ``("timeout", None, seconds)``
    when the cap fired first.  Exceptions other than the timeout propagate.
    """
    if cap_s <= 0:
        raise ValueError("cap must be positive")

    def on_alarm(signum, frame):
        raise CaseTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return "timeout", None, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return "ok", value, time.perf_counter() - start
