"""Machine-speed probe for timings on a shared machine.

The measured machine shares its cores with other tenants: the same code
runs up to 1.8 times slower from one minute to the next, and a 30 s run
cannot average that out.  The probe interrupts the measured code every
EVERY_S seconds (an interval-timer signal) and times a fixed pure-Python
loop that uses nothing from pmstat.  A run's timings, with the probe's own
time subtracted, are rescaled by ``REFERENCE_S / median(loop times)``:
seconds on a machine where the loop takes exactly REFERENCE_S.

This module imports nothing but the standard library, so a child process
can start the probe before it imports the program.
"""

from __future__ import annotations

import signal
import statistics
import time

CALIBRATION_LOOP = 12_000
REFERENCE_S = 0.005
EVERY_S = 0.1


def calibration_loop() -> float:
    # dict lookups and stores, small allocations and a sort: on a shared
    # core this slows down like interpreter-bound program code does,
    # where a bare arithmetic loop tracked it about four times worse
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(CALIBRATION_LOOP):
        key = (i * 7919) & 4095
        acc += table.get(key, i) % 13
        table[key] = acc
        items.append((key, i))
    items.sort()
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration loops on an interval timer; `spent` is the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)  # a first sample for work that starts now
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def scale(self) -> float:
        """Multiply seconds measured under this probe by this factor."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale_since(self, index: int) -> float:
        """The factor for an interval that began when ``len(samples) == index``.

        Uses the samples taken inside the interval, or the last one before
        it when the interval was shorter than a probe period.
        """
        window = self.samples[index:] or self.samples[-1:]
        return REFERENCE_S / statistics.median(window) if window else 1.0
