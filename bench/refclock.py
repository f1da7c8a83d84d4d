"""A clock that runs in reference seconds, to take host speed out of timings.

On a shared host the same Python work can take a third longer for
tens of seconds at a time, which would swamp the differences the
benchmark exists to show.  A fixed calibration routine, the reference
consequence check of one 4-atom sequent, is therefore timed every
``PERIOD_S`` of wall time from a timer signal, between the program's
bytecodes.  The clock advances at ``CAL_REF_S / c`` reference seconds
per wall second, where ``c`` is the median of the latest ``SMOOTH``
calibration times, and it stands still while the calibration runs.
``CAL_REF_S`` is the routine's median time on the machine the bounds
were set on (2 vCPU, Python 3.11), so a reference second is about a
wall second there.
"""

from __future__ import annotations

import signal
from time import perf_counter

import reference

CAL_REF_S = 1.2e-3
PERIOD_S = 0.02
SMOOTH = 5

_A = [("atom", x) for x in "pqrs"]
_GAMMA = [("imp", ("and", _A[0], _A[1]), ("or", _A[2], ("not", _A[3]))),
          ("or", _A[0], ("not", ("and", _A[1], _A[2])))]
_DELTA = [("or", ("imp", ("and", _A[0], _A[1]), ("or", _A[2], ("not", _A[3]))),
           _A[3])]


def calibrate() -> float:
    """Wall seconds of one run of the calibration routine."""
    t0 = perf_counter()
    reference.consequence(_GAMMA, _DELTA)
    return perf_counter() - t0


def speed_factor(times) -> float:
    """Reference seconds per wall second, from calibration times."""
    times = sorted(times)
    return CAL_REF_S / times[len(times) // 2]


class ReferenceClock:
    """``now()`` in reference seconds while started."""

    def __init__(self):
        self.samples: list = []
        self._rate = 1.0
        self._base = 0.0
        self._mark = perf_counter()
        self._ticks = 0
        self._old = None

    def now(self) -> float:
        while True:  # retry when a tick lands between the reads
            ticks = self._ticks
            value = self._base + (perf_counter() - self._mark) * self._rate
            if ticks == self._ticks:
                return value

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._base += (t0 - self._mark) * self._rate
        self.samples.append(calibrate())
        recent = sorted(self.samples[-SMOOTH:])
        self._rate = CAL_REF_S / recent[len(recent) // 2]
        self._mark = perf_counter()
        self._ticks += 1
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        self._rate = speed_factor(calibrate() for _ in range(SMOOTH))
        self._mark = perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
