"""The workload interface and the two ways of running one.

:func:`measure` is the untraced run that yields the end-to-end metrics;
:func:`trace` is the separate traced run that yields the per-layer metrics.
Both drive a single client in a closed loop: the next operation is sent only
after the previous one returned.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import ReferenceClock, Samples, median, peak_rss_mb, typical
import tracer as tracing


@dataclass
class Load:
    """What one set-up wrote: documents, write calls, bytes."""

    docs: int
    #: Wall-clock interval of the whole write phase, final flush included.
    span: Tuple[float, float]
    #: Dataset name and wall-clock interval of each write call.
    writes: List[Tuple[str, float, float]]
    user_bytes: int
    device_bytes: int


class Workload:
    """One benchmark workload.  Inputs are generated in ``__init__``."""

    name = ""
    #: Per-layer metrics this workload must drive; a traced run fails its
    #: self-check when one of them reads zero.
    layers: tuple = ()
    #: True when cycles change the stored data, so the traced phase needs a
    #: freshly set-up store to repeat the untraced phase's operations.
    stateful = False
    #: Set-ups per measured run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Cycles run untraced and then traced in a traced run.
    trace_cycles = 1
    #: Upper bound on cycles per run (inputs are generated for this many).
    max_cycles = 10_000
    #: When set, a measured run does ``round(seconds * cycles_per_second)``
    #: cycles instead of running until ``seconds`` have passed.  Workloads
    #: whose cycles grow the data use it, so that every run of a seed does
    #: the same work and ends in the same state.
    cycles_per_second: Optional[float] = None
    #: How ``suite_s`` summarizes the cycle times.
    suite_statistic = staticmethod(median)
    #: The clock of the current run; set-up loops call its ``tick()``.
    clock = ReferenceClock(None)

    def setup(self):
        """Build a loaded, warmed store; return ``(state, Load)``."""
        raise NotImplementedError

    def expect(self, state) -> None:
        """Compute expected answers and baselines (untimed) before a timed phase."""

    def cycle(self, state, index: int, samples: Samples) -> list:
        """Run cycle ``index`` (recording latencies and checks); return outputs."""
        raise NotImplementedError

    def finish(self, state, load: Load) -> Dict[str, float]:
        """``space_amp`` and ``write_amp`` once the timed phase is over."""
        raise NotImplementedError

    def local_stores(self, state) -> list:
        """In-process ``Datastore`` objects (for I/O counters and components)."""
        return []

    def io_source(self, state):
        """Object whose ``io_snapshot()`` counts the workload's I/O."""
        raise NotImplementedError

    def child_pids(self, state) -> List[int]:
        return []

    def rows_transferred(self, state) -> int:
        """Rows shards have sent a coordinator so far (0 without shards)."""
        return 0

    def config(self, state) -> dict:
        """The full ``StoreConfig`` the workload's stores run with."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        raise NotImplementedError


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1000.0


def measure(workload: Workload, seconds: float) -> dict:
    """Set up ``setup_repeats`` times, then run cycles for ``seconds``.

    Every timing is in reference seconds (see ``common.ReferenceClock``).
    """
    clock = workload.clock = ReferenceClock()
    setup_spans: List[Tuple[float, float]] = []
    loads: List[Load] = []
    state = None
    samples = Samples(clock)
    try:
        for _ in range(workload.setup_repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            # Each set-up starts without the previous store's garbage.
            gc.collect()
            clock.calibrate()
            started = perf_counter()
            state, load = workload.setup()
            setup_spans.append((started, perf_counter()))
            loads.append(load)
        workload.expect(state)
        gc.collect()
        if workload.cycles_per_second is None:
            deadline = perf_counter() + seconds
            cycles = workload.max_cycles
        else:
            deadline = float("inf")
            cycles = min(workload.max_cycles,
                         max(1, round(seconds * workload.cycles_per_second)))
        clock.calibrate()
        index = 0
        while index < cycles and perf_counter() < deadline:
            workload.cycle(state, index, samples)
            index += 1
        clock.calibrate()
        amplification = workload.finish(state, loads[-1])
        rss = peak_rss_mb(workload.child_pids(state))
        config = workload.config(state)
    finally:
        if state is not None:
            workload.teardown(state)

    samples.resolve()
    writes = samples.latency["write"]
    if writes:  # the timed phase writes: report its write calls
        write_p50 = samples.typical("write")
        ingest = len(writes) / sum(writes)
    else:  # read-only timed phase: report the set-ups' loads
        by_name: Dict[str, List[float]] = {}
        for load in loads:
            for name, start, end in load.writes:
                by_name.setdefault(name, []).append(clock.seconds(start, end))
        write_p50 = typical(by_name.values())
        ingest = (sum(load.docs for load in loads)
                  / sum(clock.seconds(*load.span) for load in loads))
    queries = samples.latency["query"]
    metrics = {
        "setup_s": median(clock.seconds(*span) for span in setup_spans),
        "suite_s": workload.suite_statistic(samples.latency["cycle"]),
        "query_p50_ms": _ms(samples.typical("query")),
        "query_p90_ms": _ms(samples.p("query", 0.9)),
        "queries_per_s": len(queries) / sum(queries),
        "lookup_p50_ms": _ms(samples.typical("lookup")),
        "ingest_docs_per_s": ingest,
        "write_p50_ms": _ms(write_p50),
        "space_amp": amplification["space_amp"],
        "write_amp": amplification["write_amp"],
        "rss_mb": rss,
    }
    # Printed but not bounded: too few samples beyond them on some workloads.
    extra = {
        "lookup_p90_ms": (_ms(samples.p("lookup", 0.9)), "ms",
                          len(samples.latency["lookup"])),
        "cycles": (len(samples.latency["cycle"]), "count", None),
        "query_samples": (len(queries), "count", None),
        "wall_setup_s": (median(end - start for start, end in setup_spans), "s", None),
        "calibration_ms": (_ms(median(clock.calibration_times)), "ms",
                           len(clock.calibration_times)),
    }
    if writes:
        for name, fraction in (("write_p99_ms", 0.99), ("write_p999_ms", 0.999)):
            extra[name] = (_ms(samples.p("write", fraction)), "ms", len(writes))
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": samples.attempted,
        "failures": samples.failures,
        "config": config,
    }


#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "sqlpp.parse_s": "s",
    "sqlpp.compile_s": "s",
    "optimizer.optimize_s": "s",
    "optimizer.statistics_s": "s",
    "exec.scan_s": "s",
    "exec.pipeline_s": "s",
    "exec.breaker_s": "s",
    "exec.rows_scanned": "count",
    "exec.rows_returned": "count",
    "exec.rows_scanned_per_result": "ratio",
    "core.assemble_s": "s",
    "core.shred_s": "s",
    "columnar.read_columns_s": "s",
    "columnar.point_lookup_s": "s",
    "columnar.build_s": "s",
    "encoding.decompress_s": "s",
    "encoding.decompress_calls": "count",
    "encoding.decompress_bytes": "bytes",
    "encoding.compress_s": "s",
    "encoding.decode_values_s": "s",
    "rowformats.decode_s": "s",
    "rowformats.decode_calls": "count",
    "storage.pages_read": "count",
    "storage.pages_written": "count",
    "storage.bytes_written": "bytes",
    "storage.cache_hits": "count",
    "storage.cache_misses": "count",
    "storage.cache_hit_ratio": "ratio",
    "storage.cache_evictions": "count",
    "storage.read_page_s": "s",
    "lsm.flush_count": "count",
    "lsm.flush_s": "s",
    "lsm.merge_count": "count",
    "lsm.merge_s": "s",
    "lsm.merge_bytes_rewritten": "bytes",
    "lsm.components_end": "count",
    "lsm.point_lookup_s": "s",
    "wal.appends": "count",
    "wal.bytes": "bytes",
    "wal.log_s": "s",
    "net.roundtrip_s": "s",
    "net.encode_s": "s",
    "net.decode_s": "s",
    "net.frames": "count",
    "net.frame_bytes": "bytes",
    "shard.split_s": "s",
    "shard.merge_s": "s",
    "shard.rows_transferred": "count",
    "shard.rows_transferred_per_result": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _run_cycles(workload: Workload, state, samples: Samples,
                tracer: Optional[tracing.Tracer] = None) -> tuple:
    outputs = []
    gc.collect()
    started = perf_counter()
    for index in range(workload.trace_cycles):
        if tracer is None:
            outputs.extend(workload.cycle(state, index, samples))
            continue
        # The client's own span: the foreground that the coordinator's gather
        # threads report into, and the home of time no layer wrapper covers.
        frame = tracer.enter("client")
        try:
            outputs.extend(workload.cycle(state, index, samples))
        finally:
            tracer.exit(frame)
    return outputs, perf_counter() - started


def trace(workload: Workload) -> dict:
    """Run ``trace_cycles`` cycles untraced, then the same cycles traced."""
    tracer = tracing.Tracer()
    samples = Samples()
    state = None
    try:
        state, _ = workload.setup()
        workload.expect(state)
        untraced_outputs, untraced_s = _run_cycles(workload, state, samples)
        if workload.stateful:
            workload.teardown(state)
            state = None
            state, _ = workload.setup()
            workload.expect(state)
        stores = workload.local_stores(state)
        io_before = workload.io_source(state).io_snapshot()
        evictions_before = sum(store.buffer_cache.evictions for store in stores)
        shard_rows_before = workload.rows_transferred(state)
        rows_before = samples.rows_returned
        tracing.install(tracer)
        try:
            traced_outputs, traced_s = _run_cycles(workload, state, samples, tracer)
        finally:
            tracer.unpatch()
        io = workload.io_source(state).io_snapshot().delta_since(io_before)
        evictions = sum(store.buffer_cache.evictions for store in stores) - evictions_before
        components = sum(
            dataset.num_components()
            for store in stores
            for dataset in store.datasets.values()
        )
        rows_transferred = workload.rows_transferred(state) - shard_rows_before
        config = workload.config(state)
    finally:
        if state is not None:
            workload.teardown(state)

    samples.check("traced rows equal untraced rows", traced_outputs == untraced_outputs)
    rows_returned = samples.rows_returned - rows_before
    counts = tracer.counts
    values: Dict[str, float] = {
        name: 0 if unit in ("count", "bytes") else 0.0
        for name, unit in LAYER_METRICS.items()
    }
    for name, seconds in tracer.self_s.items():
        if name in values:
            values[name] = seconds
    for name, amount in counts.items():
        values[name] = amount
    values["exec.rows_returned"] = rows_returned
    values["exec.rows_scanned_per_result"] = (
        counts["exec.rows_scanned"] / rows_returned if rows_returned else 0.0
    )
    lookups = io.cache_hits + io.cache_misses
    values.update({
        "storage.pages_read": io.pages_read,
        "storage.pages_written": io.pages_written,
        "storage.bytes_written": io.bytes_written,
        "storage.cache_hits": io.cache_hits,
        "storage.cache_misses": io.cache_misses,
        "storage.cache_hit_ratio": io.cache_hits / lookups if lookups else 0.0,
        "storage.cache_evictions": evictions,
        "lsm.components_end": components,
        "wal.bytes": io.wal_bytes_written,
        "shard.rows_transferred": rows_transferred,
        "shard.rows_transferred_per_result": (
            rows_transferred / rows_returned if rows_transferred else 0.0
        ),
    })
    attributed = sum(
        seconds for name, seconds in tracer.self_s.items() if name != "client"
    )
    values["trace.unattributed_s"] = traced_s - attributed
    values["trace.overhead_ratio"] = traced_s / untraced_s
    for name in workload.layers:
        samples.check(f"per-layer metric {name} is non-zero", values[name] > 0)
    return {
        "metrics": values,
        "attempted": samples.attempted,
        "failures": samples.failures,
        "config": config,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
