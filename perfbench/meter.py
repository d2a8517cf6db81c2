"""Child processes timed in reference seconds, corrected for host speed.

On a shared virtual machine the speed of a vCPU changes by up to 1.6x
within seconds, as other tenants load the host, and process CPU time
follows it. A raw wall time then measures the neighbours as much as the
program. So the benchmark times each child process in slices:

1. The benchmark process and its children are pinned to one CPU (`pin`).
2. The child runs for at most SLICE_S seconds. Then it is stopped with
   SIGSTOP, a fixed stdlib ``Fraction`` loop is timed on the same CPU
   (`calibrate`), and the child is resumed with SIGCONT.
3. A slice of w seconds between calibrations c1 and c2 counts
   ``w * REF_CALIB_S / ((c1 + c2) / 2)`` reference seconds: the time the
   slice would have taken on a host where the loop takes REF_CALIB_S.

Stopped time and calibration time are outside every slice, so they never
count. Slice bounds are ``time.perf_counter()`` values, which are the same
clock in every process, so a child can report the bounds of a phase and
`Run.seconds` gives that phase in reference seconds.

Interpreter start-up (exec, imports, page faults) slows less than the loop
when the host is busy, so the loop over-corrects it by up to 30%. Start-up
is instead scaled by a bare interpreter started just before (`start_scale`):
the ratio of the two start-up times varied by 1% where the loop time varied
by 1.8x.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

SLICE_S = 0.2
CALIB_STEPS = 600
# The reference host: the loop's time, and a bare interpreter's start-up
# until it prints BARE's mark, measured together on a 2.1 GHz Xeon vCPU
# with Python 3.11.
REF_CALIB_S = 0.0075
REF_START_S = 0.05
BARE = [sys.executable, "-c", "import time; print(repr(time.perf_counter()))"]


def pin() -> int:
    """Pin this process, and so every child it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Seconds for a fixed stdlib Fraction loop: the current speed of this CPU."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, CALIB_STEPS + 1):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1) - Fraction(1, k + 2)
    return time.perf_counter() - t0


class Run:
    """A finished child: exit code (None on timeout), output, memory and slices."""

    def __init__(self, code, stdout, stderr, maxrss_kb, slices):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.maxrss_kb = maxrss_kb
        self.slices = slices  # (start, end, calibration before, calibration after)

    def seconds(self, start=float("-inf"), end=float("inf")) -> float:
        """Reference seconds the child ran between perf_counter values start and end."""
        total = 0.0
        for s0, s1, c0, c1 in self.slices:
            overlap = min(s1, end) - max(s0, start)
            if overlap > 0:
                total += overlap * REF_CALIB_S * 2 / (c0 + c1)
        return total

    def raw_seconds(self, start=float("-inf"), end=float("inf")) -> float:
        """Wall seconds the child ran between start and end, without the stopped time."""
        return sum(max(0.0, min(s1, end) - max(s0, start)) for s0, s1, _, _ in self.slices)

    def calib_s(self) -> float:
        return statistics.median([c for s in self.slices for c in s[2:]])


def start_scale(*, env, cwd, work_dir) -> float:
    """Reference seconds per raw second of interpreter start-up, from a bare spawn now."""
    child = run(BARE, env=env, cwd=cwd, work_dir=work_dir)
    if child.code != 0:
        raise RuntimeError(f"a bare interpreter failed: {child.stderr.strip()}")
    return REF_START_S / child.raw_seconds(end=float(child.stdout))


def run(cmd, *, env, cwd, work_dir, stdin=None, timeout=60.0) -> Run:
    """Run cmd to completion in slices; stdin is text or None.

    Output goes through files in work_dir, so a stopped child never
    blocks on a full pipe. The child is killed after timeout seconds of
    running, and is always reaped before this returns.
    """
    with tempfile.TemporaryFile("w+", dir=work_dir, encoding="utf-8") as fin, \
            tempfile.TemporaryFile("w+", dir=work_dir, encoding="utf-8") as fout, \
            tempfile.TemporaryFile("w+", dir=work_dir, encoding="utf-8") as ferr:
        if stdin is not None:
            fin.write(stdin)
            fin.flush()
            fin.seek(0)
        c_before = calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin if stdin is not None else subprocess.DEVNULL,
                                stdout=fout, stderr=ferr, env=env, cwd=cwd)
        code, maxrss, slices = _drive(proc, start, c_before, timeout)
        fout.seek(0)
        ferr.seek(0)
        return Run(code, fout.read(), ferr.read(), maxrss, slices)


def _drive(proc, start, c_before, timeout):
    """Alternate running slices of proc with calibrations until it exits."""
    pidfd = os.pidfd_open(proc.pid)
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    slices, status, rusage, code = [], None, None, None
    try:
        while True:
            exited = bool(poller.poll(SLICE_S * 1000))
            if not exited:
                os.kill(proc.pid, signal.SIGSTOP)
            end = time.perf_counter()
            _, status, rusage = os.wait4(proc.pid, os.WUNTRACED)
            c_after = calibrate()
            slices.append((start, end, c_before, c_after))
            c_before = c_after
            if not os.WIFSTOPPED(status):
                code = os.waitstatus_to_exitcode(status)
                break
            if sum(s1 - s0 for s0, s1, _, _ in slices) > timeout:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            start = time.perf_counter()
            os.kill(proc.pid, signal.SIGCONT)
    finally:
        if status is None or os.WIFSTOPPED(status):  # interrupted or timed out: never leave it
            try:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, rusage = os.wait4(proc.pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass
        proc.returncode = -1 if code is None else code  # reaped here, not by Popen
        os.close(pidfd)
    return code, rusage.ru_maxrss if rusage else 0, slices
