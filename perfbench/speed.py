"""Timings stated at a reference machine speed.

The CPU of a shared virtual machine can run in speed states that change
every few seconds and scale all interpreted code alike: on a 2-vCPU
machine the same task list took 1.5 times as long in one minute as in
the next.  So each in-process timing is
divided by the time of a fixed stdlib-only loop run right before and
right after it, and multiplied by ``CAL_REF_S``: times are stated at the
speed at which that loop takes ``CAL_REF_S`` seconds.  The loop touches
no laurcalc code, so a change to the library cannot move it.  This
module imports nothing from the library, so it can time the library's
import.
"""

import gc
import subprocess
import sys
import time
from fractions import Fraction

CAL_REF_S = 0.0004
# A subprocess's start-up (exec, page faults, unmarshalling) does not
# scale with the speed states as the loop does: the loop's scaling left
# one cold start reading 90 ms in one state and 120 ms in the next.  So
# a subprocess is timed against a bare interpreter started right before
# and right after it, whose start-up takes BARE_REF_S at reference speed.
BARE_ARGV = [sys.executable, "-S", "-c", "pass"]
BARE_REF_S = 0.0094
_XS = [Fraction(i, 7 + i % 5) for i in range(1, 60)]


def calibration_s():
    """Seconds taken by the reference loop, with the cyclic collector paused
    so that garbage left by the code under test is not collected in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        s = Fraction(0)
        for _ in range(2):
            for x in _XS:
                s = s + x * x
                acc[(x.numerator % 13, x.denominator)] = s
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds, cal_before, cal_after):
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def timed(fn, *args, **kw):
    """(result, seconds at reference speed) of one call."""
    before = calibration_s()
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    dt = time.perf_counter() - t0
    return out, at_reference_speed(dt, before, calibration_s())


def subprocess_at_reference(argv, **kw):
    """(completed process, seconds at the reference speed of a bare
    interpreter's start-up) of one ``subprocess.run``."""

    def run(args):
        t0 = time.perf_counter()
        p = subprocess.run(args, **kw)
        return p, time.perf_counter() - t0

    before = run(BARE_ARGV)[1]
    p, seconds = run(argv)
    after = run(BARE_ARGV)[1]
    return p, seconds * BARE_REF_S * 2 / (before + after)
