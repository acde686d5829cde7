"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the engine: it replaces public functions and methods
of ``repro`` with timing wrappers while a traced phase runs, and restores the
originals afterwards.  Module-level functions are replaced in every loaded
``repro`` module that bound them (``from x import f`` copies the reference),
so the wrapper is reached from the call sites callers actually use.  Methods
are replaced on the defining class and on every subclass that overrides them.

Each wrapped call opens a span (metric, start, end, parent).  A span's self
time is its duration minus the part covered by its children; functions that
return iterators are timed once for the call and once per ``next()``.  Spans
opened on a helper thread with an empty stack (the sharded coordinator's
gather pool) become children of the main thread's innermost span; when such
children overlap each other, their shared wall time is split evenly between
them, so the self times of one trace always add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class _Frame:
    __slots__ = ("metric", "start", "child_s", "sink", "foreground", "detached")

    def __init__(self, metric: str, sink, foreground) -> None:
        self.metric = metric
        self.start = 0.0
        #: Summed duration of same-thread children (they never overlap).
        self.child_s = 0.0
        #: Where this span's self time (and its subtree's) is accumulated.
        self.sink = sink
        #: For a cross-thread root: the main-thread span it reports to.
        self.foreground = foreground
        #: Cross-thread children as (start, end, subtree self times).
        self.detached: Optional[list] = None


def _split_overlaps(intervals: List[tuple]) -> tuple:
    """Covered length of ``intervals`` and each one's share of it.

    Wall time covered by k intervals at once is split k ways, so the shares
    add up to the length of the union.
    """
    events = sorted({point for start, end, _ in intervals for point in (start, end)})
    shares = [0.0] * len(intervals)
    covered = 0.0
    for low, high in zip(events, events[1:]):
        active = [
            index
            for index, (start, end, _) in enumerate(intervals)
            if start <= low and end >= high
        ]
        if active:
            covered += high - low
            for index in active:
                shares[index] += (high - low) / len(active)
    return covered, shares


class Tracer:
    """Collects per-metric self time and named counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: Optional[list] = None
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def enter(self, metric: str) -> _Frame:
        stack = self._stack()
        if stack:
            frame = _Frame(metric, stack[-1].sink, None)
        else:
            foreground = None
            if threading.current_thread() is not self._main and self._main_stack:
                try:
                    foreground = self._main_stack[-1]
                except IndexError:  # the main thread just closed its span
                    foreground = None
            sink = defaultdict(float) if foreground is not None else self.self_s
            frame = _Frame(metric, sink, foreground)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = end - frame.start
        covered = frame.child_s
        if frame.detached:
            union, shares = _split_overlaps(frame.detached)
            covered += union
            for (start, stop, subtree), share in zip(frame.detached, shares):
                scale = share / (stop - start) if stop > start else 0.0
                for metric, seconds in subtree.items():
                    frame.sink[metric] += seconds * scale
        frame.sink[frame.metric] += duration - covered
        if stack:
            stack[-1].child_s += duration
        elif frame.foreground is not None:
            with self._lock:
                if frame.foreground.detached is None:
                    frame.foreground.detached = []
                frame.foreground.detached.append((frame.start, end, frame.sink))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers ------------------------------------------------------------------
    def wrap(self, fn: Callable, metric: str, iterator: bool = False,
             after: Optional[Callable] = None,
             per_item: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn``.

        ``iterator``: ``fn`` returns an iterator whose ``next()`` calls are
        timed under the same metric, and ``per_item(tracer, item)`` records
        counters for each item.  ``after(tracer, args, result)`` records
        counters once the call itself has returned.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, args, result)
            if iterator:
                return _TimedIterator(tracer, metric, result, per_item)
            return result

        return functools.update_wrapper(wrapper, fn)

    def patch_function(self, module, name: str, metric: str, **options) -> None:
        """Replace ``module.name`` wherever a loaded ``repro`` module bound it."""
        original = getattr(module, name)
        wrapper = self.wrap(original, metric, **options)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)

    def patch_method(self, cls: type, name: str, metric: str, **options) -> None:
        """Replace ``cls.name`` and every subclass override of it."""
        pending = [cls]
        seen = set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(name)
            if original is None or not callable(original):
                continue
            self._patches.append((klass, name, original))
            setattr(klass, name, self.wrap(original, metric, **options))

    def unpatch(self) -> None:
        """Restore every replaced function and method (newest first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _TimedIterator:
    """Times each ``next()`` of a wrapped iterator as one span."""

    __slots__ = ("_tracer", "_metric", "_iterator", "_per_item")

    def __init__(self, tracer: Tracer, metric: str, iterable, per_item) -> None:
        self._tracer = tracer
        self._metric = metric
        self._iterator = iter(iterable)
        self._per_item = per_item

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._metric)
        try:
            item = next(self._iterator)
        finally:
            self._tracer.exit(frame)
        if self._per_item is not None:
            self._per_item(self._tracer, item)
        return item

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


def _count_scanned(tracer: Tracer, item) -> None:
    """Rows carried by one scan item: a column batch or a ``(key, doc)`` pair."""
    length = getattr(item, "length", None)
    tracer.count("exec.rows_scanned", length if isinstance(length, int) else 1)


# -- the layer map ---------------------------------------------------------------------
def _count_calls(name: str) -> Callable:
    return lambda tracer, args, result: tracer.count(name)


def _count_decompress(tracer: Tracer, args, result) -> None:
    tracer.count("encoding.decompress_calls")
    tracer.count("encoding.decompress_bytes", len(result))


def _count_flush(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("lsm.flush_count")


def _count_frame_out(tracer: Tracer, args, result) -> None:
    tracer.count("net.frames")
    tracer.count("net.frame_bytes", len(result))


def _count_frame_in(tracer: Tracer, args, result) -> None:
    tracer.count("net.frames")
    tracer.count("net.frame_bytes", len(args[0]))


def _wrap_maybe_merge(tracer: Tracer, original: Callable) -> Callable:
    """``LSMTree.maybe_merge`` plus the page bytes a completed merge wrote."""

    def maybe_merge(tree, *args, **kwargs):
        before = tree.device.stats.bytes_written
        merged = original(tree, *args, **kwargs)
        if merged:
            tracer.count("lsm.merge_count")
            tracer.count(
                "lsm.merge_bytes_rewritten", tree.device.stats.bytes_written - before
            )
        return merged

    return maybe_merge


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark attributes."""
    import repro.core.assembly as assembly
    import repro.core.shredder as shredder
    import repro.encoding.compression as compression
    import repro.encoding.registry as registry
    import repro.lsm.lsm_tree as lsm_tree
    import repro.lsm.wal as wal
    import repro.net.client as client
    import repro.net.protocol as protocol
    import repro.query.batch_executor as batch_executor
    import repro.query.codegen as codegen
    import repro.query.executor as executor
    import repro.query.optimizer as optimizer
    import repro.query.plan as plan
    import repro.rowformats.open_format as open_format
    import repro.rowformats.vector_format as vector_format
    import repro.shard.coordinator  # noqa: F401  (binds split_query/merge_rows)
    import repro.shard.partial as partial
    import repro.sqlpp.lower as lower
    import repro.sqlpp.parser as parser
    import repro.storage.buffer_cache as buffer_cache
    import repro.store.dataset as dataset
    from repro.columnar.base import (
        ColumnarComponent,
        ColumnarComponentBuilder,
        ColumnGroup,
    )
    import repro.columnar.amax  # noqa: F401  (registers the subclasses)
    import repro.columnar.apax  # noqa: F401

    # sqlpp
    tracer.patch_function(parser, "parse", "sqlpp.parse_s")
    tracer.patch_function(parser, "parse_any", "sqlpp.parse_s")
    tracer.patch_function(lower, "compile_query", "sqlpp.compile_s")
    # query.optimizer
    tracer.patch_method(plan.Query, "optimized_plan", "optimizer.optimize_s")
    tracer.patch_function(optimizer, "optimize_plan", "optimizer.optimize_s")
    tracer.patch_method(dataset.Dataset, "statistics", "optimizer.statistics_s")
    # query executors
    for name in ("scan", "scan_batches"):
        tracer.patch_method(dataset.Dataset, name, "exec.scan_s", iterator=True,
                            per_item=_count_scanned)
    tracer.patch_function(batch_executor, "run_batch_pipeline", "exec.pipeline_s",
                          iterator=True)
    tracer.patch_function(codegen, "run_generated_batches", "exec.pipeline_s",
                          iterator=True)
    tracer.patch_function(executor, "run_interpreted_pipeline", "exec.pipeline_s",
                          iterator=True)
    tracer.patch_function(batch_executor, "run_batch_breakers", "exec.breaker_s")
    tracer.patch_function(executor, "run_breakers", "exec.breaker_s")
    # core
    tracer.patch_function(assembly, "assemble_document", "core.assemble_s")
    tracer.patch_function(assembly, "assemble_path_value", "core.assemble_s")
    tracer.patch_method(assembly.RecordAssembler, "next_document", "core.assemble_s")
    tracer.patch_method(shredder.RecordShredder, "shred", "core.shred_s")
    tracer.patch_function(shredder, "shred_batch", "core.shred_s")
    # columnar
    for name in ("read_keys", "read_column", "read_columns"):
        tracer.patch_method(ColumnGroup, name, "columnar.read_columns_s")
    tracer.patch_method(ColumnarComponent, "point_lookup", "columnar.point_lookup_s")
    for name in ("build", "build_from_columns"):
        tracer.patch_method(ColumnarComponentBuilder, name, "columnar.build_s")
    # encoding
    for codec in (compression.NoopCodec, compression.ZlibCodec,
                  compression.SnappyLikeCodec):
        tracer.patch_method(codec, "compress", "encoding.compress_s")
        tracer.patch_method(codec, "decompress", "encoding.decompress_s",
                            after=_count_decompress)
    tracer.patch_function(registry, "decode_values", "encoding.decode_values_s")
    # rowformats
    for module in (open_format, vector_format):
        tracer.patch_function(module, "decode_document", "rowformats.decode_s",
                              after=_count_calls("rowformats.decode_calls"))
    # storage
    tracer.patch_method(buffer_cache.BufferCache, "read_page", "storage.read_page_s")
    # lsm
    tracer.patch_method(lsm_tree.LSMTree, "flush", "lsm.flush_s", after=_count_flush)
    original_merge = lsm_tree.LSMTree.__dict__["maybe_merge"]
    tracer.patch_method(lsm_tree.LSMTree, "maybe_merge", "lsm.merge_s")
    merge_wrapper = lsm_tree.LSMTree.__dict__["maybe_merge"]
    lsm_tree.LSMTree.maybe_merge = functools.update_wrapper(
        _wrap_maybe_merge(tracer, merge_wrapper), original_merge
    )
    tracer.patch_method(lsm_tree.LSMTree, "point_lookup", "lsm.point_lookup_s")
    tracer.patch_method(wal.TransactionLog, "log_record", "wal.log_s",
                        after=_count_calls("wal.appends"))
    # net (coordinator side)
    tracer.patch_method(client.WireClient, "request", "net.roundtrip_s")
    tracer.patch_method(client.WireClient, "statement", "net.roundtrip_s")
    tracer.patch_function(protocol, "encode_frame", "net.encode_s",
                          after=_count_frame_out)
    tracer.patch_function(protocol, "decode_body", "net.decode_s",
                          after=_count_frame_in)
    # shard
    tracer.patch_function(partial, "split_query", "shard.split_s")
    tracer.patch_function(partial, "merge_rows", "shard.merge_s")
