"""Shared pieces of the workloads: the reference clock, samples, answer
checks, sizes, memory."""

from __future__ import annotations

import bisect
import difflib
import gc
import json
import math
import os
import pickle
import random
import resource
import statistics
from time import perf_counter, thread_time
from typing import Dict, Iterable, List, Optional, Tuple

#: Floats in answers must agree to this relative tolerance; everything else
#: (ints, strings, bools, nulls, shapes, order) must agree exactly.
FLOAT_REL_TOL = 1e-9


def user_bytes(document) -> int:
    """Size of a document in compact, key-sorted JSON (the "user byte")."""
    return len(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())


def quantile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def typical(groups: Iterable[List[float]]) -> float:
    """Median over groups of each group's median.

    A workload repeats a few distinct operations (queries, or lookups and
    writes into a few datasets) many times, so the pooled median would fall
    in the gap between two of them and follow its extremes; this does not.
    """
    return median(median(values) for values in groups)


def same(actual, expected) -> bool:
    """Answer equality: floats to :data:`FLOAT_REL_TOL`, the rest exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, bool) or isinstance(expected, bool):
            return actual is expected
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return False
        return math.isclose(actual, expected, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(same(actual[key], expected[key]) for key in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(same(a, e) for a, e in zip(actual, expected))
        )
    return type(actual) is type(expected) and actual == expected


def same_rows(actual: list, expected: list, ordered: bool) -> bool:
    """Row-list equality; unordered results are compared as sorted lists."""
    if not ordered:
        key = lambda row: json.dumps(row, sort_keys=True, default=str)  # noqa: E731
        actual, expected = sorted(actual, key=key), sorted(expected, key=key)
    return same(actual, expected)


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given (still running) children, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def directory_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


#: Thread CPU time of the calibration on the reference machine.  A
#: reference second is a second of a machine that runs the calibration in
#: exactly this long; a 2-core Xeon VM with CPython 3.11 takes 0.7 to 1.6 ms.
REFERENCE_CALIBRATION_S = 0.001
#: Wall time between calibrations while operations run.
CALIBRATION_INTERVAL_S = 0.05
#: The calibration's inputs, fixed for every run.
_CALIBRATION_OBJECT = {
    "rows": [[i, i / 7, str(i), None, (i, i % 2 == 0)] for i in range(24)],
    "names": {f"field{i}": [f"value{i}"] * 3 for i in range(12)},
}
_CALIBRATION_TEXTS = tuple(
    "".join(random.Random(seed).choice("abcdefgh ") for _ in range(220))
    for seed in (1, 2)
)


def _calibrate_once() -> None:
    """Work shaped like the engine's: interpreted code that calls many
    functions, allocates small objects and indexes dicts.

    Both halves are pure-Python standard-library code, which a change to the
    engine cannot speed up or slow down.  A tight arithmetic loop was tried
    first: when the host slowed the engine down twofold it slowed down only
    about 1.5 times, while these two followed the engine to within a fifth.
    """
    pickle._loads(pickle._dumps(_CALIBRATION_OBJECT, protocol=4))
    difflib.SequenceMatcher(None, *_CALIBRATION_TEXTS, autojunk=False).ratio()


class ReferenceClock:
    """Turns wall-clock intervals into reference seconds.

    A shared host runs the same code up to twice as fast at one moment as at
    the next, because of what its other tenants do; that drift dwarfs the
    effect of most code changes.  The clock times a fixed calibration (see
    :func:`_calibrate_once`) in thread CPU time between operations, at least
    every ``interval_s`` of wall time, and scales the wall time between two
    calibrations by :data:`REFERENCE_CALIBRATION_S` over the mean of their
    two calibration times.  A
    duration so scaled is what the interval would have taken on the
    reference machine.  Waiting (on a socket, a disk, the scheduler) is wall
    time and is scaled like the rest; the calibration itself falls outside
    every interval.  With ``interval_s=None`` the clock never calibrates and
    measures plain wall-clock seconds.
    """

    def __init__(self, interval_s: Optional[float] = CALIBRATION_INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: Closed segments as parallel lists of start, end and scale.
        self._starts: List[float] = []
        self._segments: List[Tuple[float, float, float]] = []
        self._open_start = 0.0
        self._open_calibration_s = 0.0
        #: Every calibration time, for the report.
        self.calibration_times: List[float] = []
        if interval_s is not None:
            _calibrate_once()  # its first run pays for cold caches
            self.calibrate()

    def calibrate(self) -> None:
        """Close the open segment and start the next one."""
        if self.interval_s is None:
            return
        end = perf_counter()
        # The calibration frees all it allocates; with the collector off it
        # cannot pay for a collection of the engine's objects.
        collecting = gc.isenabled()
        gc.disable()
        began = thread_time()
        _calibrate_once()
        calibration_s = thread_time() - began
        if collecting:
            gc.enable()
        if self.calibration_times:
            scale = REFERENCE_CALIBRATION_S / ((self._open_calibration_s + calibration_s) / 2)
            self._starts.append(self._open_start)
            self._segments.append((self._open_start, end, scale))
        self.calibration_times.append(calibration_s)
        self._open_calibration_s = calibration_s
        self._open_start = perf_counter()

    def tick(self) -> None:
        """Calibrate when ``interval_s`` has passed; call between operations."""
        if self.interval_s is not None and perf_counter() - self._open_start >= self.interval_s:
            self.calibrate()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the wall interval ``[start, end]``.

        Valid once a calibration has followed ``end``.
        """
        if self.interval_s is None:
            return end - start
        total = 0.0
        index = max(0, bisect.bisect_right(self._starts, start) - 1)
        while index < len(self._segments) and self._segments[index][0] < end:
            low, high, scale = self._segments[index]
            overlap = min(high, end) - max(low, start)
            if overlap > 0:
                total += overlap * scale
            index += 1
        return total


class Samples:
    """Latencies per operation kind, plus answer-check outcomes.

    Operations are recorded as wall-clock intervals; :meth:`resolve` turns
    them into reference seconds (see :class:`ReferenceClock`) once the timed
    phase is over, and fills :attr:`latency` and :attr:`by_name`.
    """

    def __init__(self, clock: Optional[ReferenceClock] = None) -> None:
        self.clock = clock if clock is not None else ReferenceClock(None)
        #: (kind, name, start, end) of every operation, in order.
        self._intervals: List[Tuple[str, str, float, float]] = []
        #: (first, past-last operation index, kinds counted) of each cycle.
        self._cycles: List[Tuple[int, int, tuple]] = []
        self._cycle_from = 0
        self.latency: Dict[str, List[float]] = {}
        #: Latencies by operation kind, then by operation name.
        self.by_name: Dict[str, Dict[str, List[float]]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.rows_returned = 0

    def check(self, operation: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(operation)

    def named(self, kind: str, name: str, start: float, end: float) -> None:
        """Record one ``kind`` operation under its name; it ran from ``start`` to ``end``."""
        self._intervals.append((kind, name, start, end))
        self.clock.tick()

    def end_cycle(self, kinds: tuple) -> None:
        """Close a cycle; its time is that of its operations of ``kinds``."""
        self._cycles.append((self._cycle_from, len(self._intervals), kinds))
        self._cycle_from = len(self._intervals)

    def resolve(self) -> None:
        """Convert every recorded interval into reference seconds."""
        self.latency = {"query": [], "lookup": [], "write": [], "cycle": []}
        self.by_name = {kind: {} for kind in self.latency}
        seconds = [self.clock.seconds(start, end) for _, _, start, end in self._intervals]
        for (kind, name, _, _), value in zip(self._intervals, seconds):
            self.latency[kind].append(value)
            self.by_name[kind].setdefault(name, []).append(value)
        for first, last, kinds in self._cycles:
            self.latency["cycle"].append(sum(
                seconds[index] for index in range(first, last)
                if self._intervals[index][0] in kinds
            ))

    def typical(self, kind: str) -> float:
        """Median over operation names of each one's median latency."""
        return typical(self.by_name[kind].values())

    def p(self, kind: str, fraction: float) -> Optional[float]:
        values = self.latency[kind]
        return quantile(values, fraction) if values else None
