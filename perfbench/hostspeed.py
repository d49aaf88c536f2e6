"""How fast the host runs Python right now, and times scaled to a fixed speed.

On a shared host the speed of a process swings by up to 1.5x, in phases of
seconds to minutes that outlast a whole run.  :func:`probe` times a fixed
piece of pure-Python integer work of the kind the exact layers do.  A time
measured next to probes is reported as ``seconds * REFERENCE_S / probe``,
with ``probe`` the median of those probes: the time it would take on a host
on which the probe takes ``REFERENCE_S``.  The probe is part of the benchmark, not of the
program, so a change to the program does not change it.

:class:`Sampler` probes the host during a job too, from a timer signal, so
that a job of seconds is scaled by the host's speed while it ran.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_S = 0.0006     # about the probe's time on a 2-core x86-64 VM
INTERVAL_S = 0.05        # the sampler's period during a job


def probe() -> float:
    """Seconds taken by the fixed work, with the garbage collector off, so
    that a heap the program left behind does not slow the probe.  The work
    is a few steps of fraction-free elimination on a 24 x 24 integer matrix,
    whose entries grow to about 70 bits: the kind of work the exact layers
    do.  Of the probes tried, this one followed the program's own slowdowns
    most closely."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [[(i * j * 7919 + 3) % 1000003 for j in range(24)] for i in range(24)]
        for k in range(7):
            pivot = rows[k][k] or 1
            for i in range(k + 1, 24):
                f = rows[i][k]
                rows[i] = [a * pivot - f * b for a, b in zip(rows[i], rows[k])]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """While entered, runs :func:`probe` every ``INTERVAL_S`` seconds from a
    SIGALRM handler, between the bytecodes of whatever runs.  ``probes``
    holds the probe times, and ``spent`` the time the handler took, which
    the caller takes off the time it measured."""

    def __enter__(self):
        self.probes, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0


def scaled(seconds, probes) -> float:
    """``seconds`` at the reference speed, given the probes taken around and
    during it; their median, so that a disturbed probe does not count."""
    return seconds * REFERENCE_S / statistics.median(probes)
