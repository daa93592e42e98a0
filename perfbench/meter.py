"""Per-case latencies and host-speed probes, taken in this process and in forked workers.

The host this benchmark runs on shares its cores with other machines, and the
speed at which it runs the same Python code changes by up to 2x from one second
to the next.  So the benchmark times a fixed piece of pure-Python work, the
probe, every ``PROBE_INTERVAL_S`` between cases and reports every timing at a
reference speed: a span of time measured while the probe took ``p`` seconds
counts as ``time * NOMINAL_PROBE_S / p`` reference seconds.  The probe shares
no code with the library, so a change to the library cannot move it.

A case's latency is the CPU time of the thread that runs it.  A case does no
I/O and never waits, so this is its wall time without the stalls in which the
host runs something else; those stalls would otherwise decide the tail.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import shutil
import struct
from array import array
from bisect import bisect_left
from collections import deque
from pathlib import Path
from statistics import fmean, median
from time import perf_counter, thread_time

NOMINAL_PROBE_S = 100e-6  # the probe's time at the reference speed
PROBE_INTERVAL_S = 0.025
PROBE_VALUES = tuple(random.Random(0).sample(range(1000), 48))


def _probe_work(values=PROBE_VALUES) -> int:
    """Row bumping on plain tuples: the kind of interpreter work the checker does."""
    rows: list[tuple[int, ...]] = []
    for v in values:
        r = 0
        while True:
            if r == len(rows):
                rows.append((v,))
                break
            row = rows[r]
            k = bisect_left(row, v)
            if k == len(row):
                rows[r] = row + (v,)
                break
            rows[r], v = row[:k] + (v,) + row[k + 1:], row[k]
            r += 1
    return len(rows)


def clock() -> tuple[float, float]:
    return perf_counter(), thread_time()


def cpu_since(mark: tuple[float, float]) -> float:
    """This thread's CPU seconds since ``mark``, or wall seconds if its CPU clock did not advance."""
    cpu = thread_time() - mark[1]
    return cpu if cpu > 0 else perf_counter() - mark[0]


def probe_s() -> float:
    """The shorter of two CPU timings of the probe, with garbage collection held off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            mark = clock()
            _probe_work()
            best = min(best, cpu_since(mark))
    finally:
        if collecting:
            gc.enable()
    return best


class Meter:
    """Collects reference-speed case latencies and host speeds (NOMINAL_PROBE_S / probe).

    In the process that made it, samples are kept in memory.  A forked pool
    worker that runs a wrapped function appends its samples to files named by
    its process id, which ``collect`` reads back.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self._pid = self.owner
        self._samples = {"latency": array("d"), "speed": array("d")}
        self._fds: dict[str, int] = {}
        self._recent: deque[float] = deque(maxlen=3)
        self._next_probe = 0.0

    def _this_process(self) -> None:
        if self._pid != os.getpid():  # first call in a forked worker: start afresh
            self._pid = os.getpid()
            self._fds = {}
            self._recent.clear()
            self._next_probe = 0.0

    def _emit(self, kind: str, value: float) -> None:
        if self._pid == self.owner:
            self._samples[kind].append(value)
            return
        if kind not in self._fds:
            path = self.directory / f"{self._pid}.{kind}"
            self._fds[kind] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self._fds[kind], struct.pack("d", value))

    def probe_if_due(self) -> None:
        self._this_process()
        if perf_counter() < self._next_probe:
            return
        p = probe_s()
        self._recent.append(p)
        self._emit("speed", NOMINAL_PROBE_S / p)
        self._next_probe = perf_counter() + PROBE_INTERVAL_S

    def speed(self) -> float:
        """Current host speed in this process, from its last few probes."""
        return NOMINAL_PROBE_S / median(self._recent)

    def record_case(self, seconds: float) -> None:
        self._emit("latency", seconds * self.speed())

    def wrap(self, fn):
        """``fn`` with a probe when one is due and its own latency recorded."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.probe_if_due()
            mark = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record_case(cpu_since(mark))

        return timed

    def collect(self) -> tuple[array, list[float]]:
        """Latencies recorded since the last call, from every process, and the
        mean host speed of each process that ran cases."""
        sources = [self._samples]
        for path in sorted(self.directory.glob("*.latency")):
            worker = {}
            for kind in self._samples:
                worker[kind] = array("d")
                part = path.with_suffix(f".{kind}")
                if part.exists():
                    worker[kind].frombytes(part.read_bytes())
                    part.unlink()
            sources.append(worker)
        self._samples = {"latency": array("d"), "speed": array("d")}
        latencies = array("d")
        speeds = []
        for source in sources:
            latencies.extend(source["latency"])
            if source["latency"] and source["speed"]:
                speeds.append(fmean(source["speed"]))
        return latencies, speeds

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
