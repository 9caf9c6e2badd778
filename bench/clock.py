"""Speed-normalised timing of child processes.

The machine the benchmark runs on changes speed on its own: on a 2-vCPU
shared host the same code ran 1.0x to 2.4x its fastest, switching within
seconds and staying slow for up to a minute, with CPU time tracking wall
time.  The slowdown is per vCPU (a probe on the other vCPU does not follow
it) and hits interpreter-bound Python and small-array numpy code alike.  So
the benchmark pins itself and every child to one CPU and interleaves a fixed
probe with the child: the child runs for ``SLICE_S``, is stopped with
SIGSTOP, the probe is timed, and the child is continued.  Each slice of the
child's wall time is scaled by ``PROBE_REF_S`` over the mean of the probes
on either side of it, giving the wall time the child would have taken at the
reference speed (a probe taking ``PROBE_REF_S``, about the speed of that
host when not slowed).  The probe is the benchmark's own code and calls
nothing of the program, so a faster program does not make it faster.
"""

import math
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass

import numpy as np

SLICE_S = 0.05
PROBE_LOOPS = 400
# Probe time on the 2-vCPU Intel Xeon host the benchmark was built on, when not slowed.
PROBE_REF_S = 9.0e-4

_X = np.linspace(0.5, 1.5, 10)
_A = np.eye(6) * 4.0 + np.linspace(0.0, 0.1, 36).reshape(6, 6)
_B = np.ones(6)


def probe():
    """Time a fixed mix of interpreter work, small numpy ufuncs and a small
    linear solve (0.9 ms at the reference speed)."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(PROBE_LOOPS):
        y = _X / (1.0 + 1e-3 * i)
        s += float(y @ _X) + math.log(1.0 + i)
        if i % 40 == 0:
            s += float(np.linalg.solve(_A, _B)[0])
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Pin this process (and so every child it starts) to its highest-numbered allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def speed_factor():
    """``PROBE_REF_S`` over the mean of five probes: above 1 when the machine is fast."""
    return PROBE_REF_S * 5 / sum(probe() for _ in range(5))


@dataclass
class Proc:
    wall: float      # speed-normalised wall time, s
    raw_wall: float  # wall time the child ran, pauses excluded, s
    cpu: float       # user+sys CPU time, speed-normalised like ``wall``, s
    raw_cpu: float
    rss_mb: float
    code: int
    slices: int


def spawn(argv, cwd, env, log_path, deadline, sliced=True):
    """Run one child to completion, killing it at ``deadline`` (a perf_counter
    time).  With ``sliced`` it runs in slices with a probe in each pause;
    without, it runs uninterrupted and is scaled by the probes before and
    after it.  CPU time and peak RSS come from wait4."""
    with open(log_path, "wb") as log:
        probes = [probe()]
        slices = []
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        reaped = False
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            while True:
                t0 = time.perf_counter()
                timeout = SLICE_S if sliced else max(deadline - t0, 0.0)
                ended = poller.poll(timeout * 1000.0)
                if ended or not sliced or time.perf_counter() > deadline:
                    if not ended:
                        proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    reaped = True
                    slices.append(time.perf_counter() - t0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                slices.append(time.perf_counter() - t0)
                if not os.WIFSTOPPED(status):
                    reaped = True
                    break
                probes.append(probe())
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(fd)
            if not reaped:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        probes.append(probe())
    wall = sum(s * 2.0 * PROBE_REF_S / (a + b) for s, a, b in zip(slices, probes, probes[1:]))
    raw_wall = sum(slices)
    raw_cpu = usage.ru_utime + usage.ru_stime
    return Proc(wall=wall, raw_wall=raw_wall, cpu=raw_cpu * wall / raw_wall, raw_cpu=raw_cpu,
                rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode, slices=len(slices))
