"""Calibrated timing of child processes on a machine whose speed drifts.

The shared 2-vCPU machine this benchmark was built on slows down and speeds
up by up to 2x in phases that last a few seconds, and each vCPU drifts on
its own. A child's CPU time tracks its wall time, so neither is steadier.
What does track the drift is a fixed pure-Python reference kernel, doing
the same kind of work as the program, run on the same CPU close in time to
the measured work.

So the benchmark pins itself (and therefore every child) to one CPU, lets
the child run in slices of SLICE_S seconds, stops it with SIGSTOP between
slices and times the kernel while it is stopped. Each slice is converted to
calibrated seconds:

    slice_raw_s * kernel.nominal_s / mean(kernel before, kernel after)

and a run's calibrated time is the sum over its slices. The raw time (the
sum of the slices, pauses excluded) and every kernel time are kept beside
it, so a drift the calibration does not cancel stays visible.

Contention phases do not slow every kind of work alike: interpreted
bytecode and a C-level scan over a set of a few thousand tuples (the
program's two hot spots) slow by different factors. Hence two kernels, and
each workload names the one that matches its hot spot.
"""

from __future__ import annotations

import functools
import os
import random
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

KERNEL_REPEATS = 3
SLICE_S = 0.1


def interpreter_work() -> int:
    """Interpreted loops shaped like the program's: tuple building, integer
    floor division, dict probes and a sort, over 864 small points."""
    seen: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in range(12):
        for b in range(12):
            for c in range(6):
                p = (a, b, c)
                q = tuple((x * 7 + i) // 5 % 9 for i, x in enumerate(p))
                if q in seen:
                    seen[q].append(p)
                else:
                    seen[q] = [p]
    return len(sorted(seen))


@functools.cache
def _tuple_set() -> frozenset[tuple[int, ...]]:
    rng = random.Random(0)
    points: set[tuple[int, ...]] = set()
    while len(points) < 10_000:
        points.add(tuple(rng.randint(-50, 50) for _ in range(4)))
    return frozenset(points)


def set_scan_work() -> tuple[int, ...]:
    """Two min() scans over a set of 10,000 distinct 4-tuples, the shape of
    the class merge's witness search."""
    points = _tuple_set()
    min(points)
    return min(points)


@dataclass(frozen=True)
class Kernel:
    """A reference kernel and its fixed nominal time.

    nominal_s is the kernel's time (min of KERNEL_REPEATS) on the reference
    machine in a quiet phase (Intel Xeon vCPU at 2.0 GHz, Python 3.11.7), so
    calibrated seconds are close to raw seconds there when it is quiet.
    """

    name: str
    work: Callable[[], object]
    nominal_s: float

    def time(self) -> float:
        """Seconds for one kernel run, the minimum of KERNEL_REPEATS tries."""
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best

    def factor(self, k_before: float, k_after: float) -> float:
        """Calibrated seconds per raw second between two kernel timings."""
        return self.nominal_s * 2.0 / (k_before + k_after)


INTERPRETER = Kernel("interpreter", interpreter_work, 0.00110)
SET_SCAN = Kernel("set-scan", set_scan_work, 0.00137)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class ChildRun:
    """One child process, timed slice by slice.

    segments holds (start, end, factor) per slice in time.perf_counter()
    seconds, which on Linux is the system-wide monotonic clock, so spans a
    child records with its own perf_counter can be calibrated against them.
    """

    status: int
    segments: list[tuple[float, float, float]] = field(default_factory=list)
    kernels_s: list[float] = field(default_factory=list)

    @property
    def raw_s(self) -> float:
        return sum(end - start for start, end, _ in self.segments)

    @property
    def calibrated_s(self) -> float:
        return sum((end - start) * f for start, end, f in self.segments)

    def calibrated_between(self, t0: float, t1: float) -> float:
        """Calibrated seconds the child ran within [t0, t1]; pauses excluded."""
        return sum(max(0.0, min(end, t1) - max(start, t0)) * f
                   for start, end, f in self.segments)


def run_child(argv: list[str], env: dict[str, str], cwd: str,
              kernel: Kernel, timeout_s: float) -> ChildRun:
    """Run argv to completion, timing it slice by slice in calibrated seconds.

    The child's stdout is discarded (the workloads write to --output) and
    its stderr passes through. A child still running after timeout_s is
    killed and TimeoutError raised.
    """
    k_prev = kernel.time()
    run = ChildRun(status=-1, kernels_s=[k_prev])
    start = time.perf_counter()
    deadline = start + timeout_s
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            ready, _, _ = select.select([pidfd], [], [], SLICE_S)
            if not ready:
                os.kill(proc.pid, signal.SIGSTOP)
            _, status = os.waitpid(proc.pid, 0 if ready else os.WUNTRACED)
            end = time.perf_counter()
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
            k = kernel.time()
            run.kernels_s.append(k)
            run.segments.append((start, end, kernel.factor(k_prev, k)))
            k_prev = k
            if proc.returncode is not None:
                break
            if end > deadline:
                raise TimeoutError(f"{argv} ran longer than {timeout_s} s")
            os.kill(proc.pid, signal.SIGCONT)
            start = time.perf_counter()
    finally:
        os.close(pidfd)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    run.status = proc.returncode
    return run
