"""Host-speed probes: how fast each CPU runs right now.

On a shared virtual machine the CPUs themselves change speed.  Other
guests compete for the physical cores and caches.  On the 2-vCPU host
this benchmark was built on, a fixed pure-Python loop moved by ±20%
within a minute, and the same report's CPU time by ±25% between
back-to-back runs.  No program change moves a figure that much, so raw
timings there cannot tell a regression from the weather.

A probe is a process pinned to one CPU.  Every :data:`PERIOD_S` it
runs a fixed interpreter-bound kernel (heap, dict and float work, like
the simulator's) and appends one line, ``<monotonic end> <kernel CPU
seconds> <steal seconds>``, to its file.  It costs about 5% of that
CPU.  A measured interval's *speed factor* is
:data:`REFERENCE_KERNEL_S` over the probes' mean kernel time in that
interval.  A CPU-time reading multiplied by it is in reference
seconds: what it would have read on a CPU running the kernel in
``REFERENCE_KERNEL_S``.  Pinned next to the report workload, a probe
narrowed the same report's run-to-run range from ±15% (wall seconds)
to ±3% (reference CPU seconds) over five runs.

The kernel is timed in the probe's own CPU seconds, so a busy program
next to it does not slow it: with a CPU-bound process beside each
probe half or all of the time, the factor did not drop (0.68-0.75
idle, 0.69-0.79 loaded, on the host above).

CPU seconds leave out *steal*: time the hypervisor ran other guests
on the CPU.  Wall-clock timings include it, and on that host it came
in bursts of 10-20% of both CPUs for 10-20 s.  The third column is the
CPU's cumulative steal from ``/proc/stat``; :meth:`HostSpeed.wall_factor`
scales by the share of the interval the CPUs were not stolen as well.

Run as a script by :class:`HostSpeed`: ``python3 hostspeed.py CPU FILE``.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

PERIOD_S = 0.04
#: The kernel's median CPU time on an idle CPU of the host the
#: benchmark was built on (a 2-vCPU Intel Xeon, Python 3.11); only the
#: unit of the normalized figures depends on it.
REFERENCE_KERNEL_S = 0.0018


def kernel() -> float:
    heap: List[Tuple[int, int]] = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(2000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[i % 512] = total
        total += (i % 13) * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


def probe(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    with open(path, "a", buffering=1, encoding="ascii") as out:
        # A benchmark killed before it could stop its probes orphans
        # them: they stop on their own once their parent is gone.
        while not stopping and os.getppid() == parent:
            start = time.process_time()
            kernel()
            spent = time.process_time() - start
            out.write(f"{time.monotonic()!r} {spent!r} {steal(cpu)!r}\n")
            time.sleep(PERIOD_S)


def steal(cpu: int) -> float:
    """Seconds the hypervisor has taken ``cpu`` from this guest since
    boot (0 where ``/proc/stat`` has no steal column)."""
    prefix = f"cpu{cpu} "
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for line in stat:
                if line.startswith(prefix):
                    fields = line.split()
                    if len(fields) > 8:
                        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
                    break
    except OSError:
        pass
    return 0.0


class HostSpeed:
    """One probe per CPU for the life of a benchmark run."""

    def __init__(self, run_dir: Path) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        #: The CPU single-core workloads are pinned to.
        self.program_cpu = self.cpus[-1]
        self.files = {cpu: run_dir / f"hostspeed-{cpu}.txt"
                      for cpu in self.cpus}
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu),
                 str(path)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for cpu, path in self.files.items()
        ]

    def stop(self) -> None:
        for proc in self.procs:
            proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _samples(self, cpu: int) -> List[Tuple[float, float, float]]:
        """(monotonic end, kernel CPU seconds, steal seconds) lines of
        ``cpu``'s probe."""
        try:
            lines = self.files[cpu].read_text(encoding="ascii")
        except OSError:
            return []
        # The last piece is empty, or a line still being written.
        return [tuple(float(x) for x in line.split())
                for line in lines.split("\n")[:-1]]

    def factor(self, start: float, end: float,
               cpus: Optional[Iterable[int]] = None) -> float:
        """Speed factor over ``[start, end]`` (monotonic seconds) on
        ``cpus`` (default: all), for CPU-time readings.  An interval too
        short to hold a sample takes the nearest ones."""
        samples = [s for cpu in (self.cpus if cpus is None else cpus)
                   for s in self._samples(cpu)]
        if not samples:
            return 1.0
        inside = [s[1] for s in samples if start <= s[0] <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            samples.sort(key=lambda s: abs(s[0] - middle))
            inside = [s[1] for s in samples[:3]]
        return REFERENCE_KERNEL_S / statistics.fmean(inside)

    def available(self, start: float, end: float,
                  cpus: Optional[Iterable[int]] = None) -> float:
        """Share of ``[start, end]`` the hypervisor left ``cpus``
        (default: all) to this guest: 1 minus their mean steal share.
        Read between the probe lines just outside the interval."""
        shares = []
        for cpu in self.cpus if cpus is None else cpus:
            samples = self._samples(cpu)
            if len(samples) < 2:
                continue
            before = [s for s in samples if s[0] <= start] or samples[:1]
            after = [s for s in samples if s[0] >= end] or samples[-1:]
            (t0, _, steal0), (t1, _, steal1) = before[-1], after[0]
            if t1 > t0:
                shares.append((steal1 - steal0) / (t1 - t0))
        if not shares:
            return 1.0
        return min(1.0, max(0.0, 1.0 - statistics.fmean(shares)))

    def wall_factor(self, start: float, end: float,
                    cpus: Optional[Iterable[int]] = None) -> float:
        """Speed factor for a wall-clock reading: :meth:`factor` times
        :meth:`available`.  Multiplied by it, a wall time is in reference
        seconds on a CPU nothing was stolen from."""
        return (self.factor(start, end, cpus)
                * self.available(start, end, cpus))


if __name__ == "__main__":
    probe(int(sys.argv[1]), sys.argv[2])
