"""Host-speed normalisation of the end-to-end timings.

The benchmark's host shares its CPUs with other tenants, and its speed
drifts by up to +-25% over tens of seconds; a fixed pure-Python loop
slows down by the same factor as the engine.  Each end-to-end timing is
therefore measured next to that loop and reported in *reference-speed
seconds*::

    normalised = measured wall seconds * REFERENCE_S / calibration seconds

``REFERENCE_S`` is the loop's median time on the host that introduced
the benchmark, so on that host at its usual speed the two agree.  The
loop touches no program code.  It only counts while the program is
quiet: no other thread of this process and no thread of any process it
started may run beside it, so a program that leaves CPU-burning threads
or processes behind cannot slow the loop and so look faster than it is
(:func:`calibrate` waits for quiet and raises :class:`HostNotQuiet` when
it never comes).
"""

from __future__ import annotations

import os
import time
from typing import Optional

#: Iterations of one calibration run (about 16 ms on the reference host).
CALIBRATION_ITERATIONS = 150_000

#: Median seconds of one calibration run on the reference host (2-core
#: x86-64 VM, "Intel(R) Xeon(R) Processor", Python 3.11.7).
REFERENCE_S = 0.0160

#: Other threads of this process may use at most this share of one
#: calibration run's wall time; a thread spinning beside the loop takes
#: about half of it through the GIL, an idle one almost none.
QUIET_SHARE = 0.25
#: Attempts :func:`calibrate` makes before giving up, and the pause
#: between them (the daemon may still be finishing a reply).
QUIET_TRIES = 40
QUIET_PAUSE_S = 0.005


class HostNotQuiet(RuntimeError):
    """The program kept a thread or process running beside the calibration."""


def _descendants_running() -> bool:
    """True iff a thread of a process descended from this one is runnable."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            parent[int(entry)] = int(fields[1])
    mine = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in mine and pid not in mine:
                mine.add(pid)
                grew = True
    mine.discard(os.getpid())
    for pid in mine:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/stat", encoding="ascii") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                continue
            if state == "R":
                return True
    return False


def try_calibrate() -> Optional[float]:
    """Seconds the fixed calibration loop takes right now, or ``None`` if
    another thread of this process or of a process it started ran beside
    it."""
    if _descendants_running():
        return None
    cpu0, own0 = time.process_time(), time.thread_time()
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    others = (time.process_time() - cpu0) - (time.thread_time() - own0)
    if others > QUIET_SHARE * elapsed or _descendants_running():
        return None
    return elapsed


def calibrate() -> float:
    """Seconds the fixed calibration loop takes on a quiet host; raises
    :class:`HostNotQuiet` if the program never goes quiet."""
    for _ in range(QUIET_TRIES):
        seconds = try_calibrate()
        if seconds is not None:
            return seconds
        time.sleep(QUIET_PAUSE_S)
    raise HostNotQuiet(
        f"a thread or child process kept running through {QUIET_TRIES} "
        "host-speed calibrations"
    )


def normalise(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the loop took ``calibration`` seconds,
    expressed at the reference host speed."""
    return seconds * REFERENCE_S / calibration
