"""The four workloads.  See README.md for why each exists and what it loads."""

from __future__ import annotations

import contextlib
import os
import random
import re
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import asdict
from time import perf_counter
from typing import Dict, List

from common import Samples, directory_bytes, same, same_rows, user_bytes
from runner import Load, Workload

from repro.bench.queries import SQLPP_QUERY_SUITES
from repro.datasets import make_generator
from repro.net.client import WireClient
from repro.shard import ShardCluster
from repro.store import Datastore, StoreConfig


def _timed(samples: Samples, kind: str, name: str, call, *args):
    """Call ``call(*args)`` and record it as one ``kind`` sample."""
    started = perf_counter()
    result = call(*args)
    samples.named(kind, name, started, perf_counter())
    if kind == "query":
        samples.rows_returned += len(result)
    return result


# -- olap_amax / olap_open -----------------------------------------------------------
class Olap(Workload):
    """Figure 14: repeated passes over the 14 SQL++ queries on flushed data.

    A cycle is one pass over the queries followed by point lookups in each
    dataset; ``suite_s`` is the pass's query time.
    """

    #: Documents per dataset: a pass takes about a second on a 2-core box.
    SIZES = {"cell": 4000, "sensors": 1000, "tweet_1": 500, "wos": 400}
    #: Point lookups per dataset and cycle: an ``amax`` lookup decompresses
    #: whole pages (tens of milliseconds), an ``open`` one reads a record
    #: (a fraction of a millisecond), so ``open`` affords more samples.
    LOOKUPS_PER_DATASET = {"amax": 2, "open": 8}
    trace_cycles = 2
    max_cycles = 500

    def __init__(self, seed: int, layout: str, workdir: str) -> None:
        self.name = f"olap_{layout}"
        self.layout = layout
        self.documents = {
            name: make_generator(name, size, seed=seed).documents()
            for name, size in self.SIZES.items()
        }
        self.user_bytes = sum(
            user_bytes(doc) for docs in self.documents.values() for doc in docs
        )
        # The load interleaves the datasets evenly, each in its own order, so
        # that every dataset's inserts spread over the whole load; loaded one
        # after another, the small ones would take a few tens of milliseconds
        # each, and their latencies would sample a single moment of the host.
        self.load_order = [
            (name, index)
            for _, name, index in sorted(
                ((index + 0.5) / len(docs), name, index)
                for name, docs in self.documents.items()
                for index in range(len(docs))
            )
        ]
        self.queries = [
            (query_name, text.format(dataset=dataset))
            for dataset, suite in SQLPP_QUERY_SUITES.items()
            for query_name, text in suite.items()
        ]
        rng = random.Random(seed)
        self.lookups = [
            [
                (name, rng.randrange(size))
                for name, size in self.SIZES.items()
                for _ in range(self.LOOKUPS_PER_DATASET[layout])
            ]
            for _ in range(self.max_cycles)
        ]
        self.expected = None
        self.layers = _OLAP_LAYERS[layout]

    def setup(self):
        store = Datastore()
        before = store.io_snapshot()
        writes: List[tuple] = []
        tick = self.clock.tick
        datasets = {
            name: store.create_dataset(name, layout=self.layout)
            for name in self.documents
        }
        started = perf_counter()
        for name, index in self.load_order:
            document = self.documents[name][index]
            begun = perf_counter()
            datasets[name].insert(document)
            writes.append((name, begun, perf_counter()))
            tick()
        for dataset in datasets.values():
            dataset.flush_all()
        span = (started, perf_counter())
        io = store.io_snapshot().delta_since(before)
        # Warm-up: first-query costs belong to set-up.
        self._run(store, 0, Samples(self.clock))
        docs = sum(len(documents) for documents in self.documents.values())
        return store, Load(docs, span, writes, self.user_bytes,
                           io.bytes_written + io.wal_bytes_written)

    def expect(self, store) -> None:
        if self.expected is None:
            self.expected = {
                name: store.query(text, executor="interpreted")
                for name, text in self.queries
            }

    def _run(self, store, index: int, samples: Samples) -> list:
        outputs = []
        for name, text in self.queries:
            rows = _timed(samples, "query", name, store.query, text)
            if self.expected is not None:
                samples.check(f"{self.name} {name}", same(rows, self.expected[name]))
            outputs.append(rows)
        for dataset, key in self.lookups[index % self.max_cycles]:
            document = _timed(
                samples, "lookup", dataset, store.dataset(dataset).point_lookup, key
            )
            if self.expected is not None:
                samples.check(
                    f"{self.name} lookup {dataset}[{key}]",
                    same(document, self.documents[dataset][key]),
                )
            outputs.append(document)
        samples.end_cycle(("query",))
        return outputs

    def cycle(self, store, index: int, samples: Samples) -> list:
        return self._run(store, index, samples)

    def finish(self, store, load: Load) -> Dict[str, float]:
        stored = sum(dataset.storage_size_bytes() for dataset in store.datasets.values())
        return {
            "space_amp": stored / self.user_bytes,
            "write_amp": load.device_bytes / load.user_bytes,
        }

    def local_stores(self, store) -> list:
        return [store]

    def io_source(self, store):
        return store

    def config(self, store) -> dict:
        return asdict(store.config)

    def teardown(self, store) -> None:
        store.close()


_SHARED_READ_LAYERS = (
    "sqlpp.parse_s", "sqlpp.compile_s", "optimizer.optimize_s",
    "optimizer.statistics_s", "exec.scan_s", "exec.pipeline_s", "exec.breaker_s",
    "exec.rows_scanned", "exec.rows_returned", "exec.rows_scanned_per_result",
    "storage.cache_hits", "storage.cache_hit_ratio", "storage.read_page_s",
    "lsm.point_lookup_s",
)
_OLAP_LAYERS = {
    "amax": _SHARED_READ_LAYERS + (
        "core.assemble_s", "columnar.read_columns_s", "columnar.point_lookup_s",
        "encoding.decompress_s", "encoding.decompress_calls",
        "encoding.decompress_bytes", "encoding.decode_values_s",
    ),
    "open": _SHARED_READ_LAYERS + ("rowformats.decode_s", "rowformats.decode_calls"),
}


# -- mixed_amax ----------------------------------------------------------------------
class _MixedState:
    def __init__(self, store, directory: str, model: dict) -> None:
        self.store = store
        self.dataset = store.dataset("tweets")
        self.directory = directory
        self.model = model
        self.io_start = None
        self.written_bytes = 0


class Mixed(Workload):
    """Durable ``amax`` store taking a write stream beside reads.

    A cycle is 20 writes (14 inserts of new keys, 4 upserts and 2 deletes of
    live keys) shuffled with 2 point lookups, then 2 aggregate queries.
    """

    name = "mixed_amax"
    #: Its set-up is short, so more of them steady the median.
    setup_repeats = 5
    stateful = True
    trace_cycles = 30
    max_cycles = 200
    #: About one cycle per 0.2 s on a 2-core box.
    cycles_per_second = 4.0
    #: Cycles differ by the inline flush or merge some of them trigger; the
    #: mean over a fixed number of cycles counts each of those stalls once,
    #: where a median would land between stalled and unstalled cycles.
    suite_statistic = staticmethod(statistics.fmean)
    PRELOAD = 600
    #: Per-partition memtable budget: small, so that a run flushes and
    #: merges several times.
    MEMTABLE_BUDGET = 128 * 1024
    COUNT = "SELECT COUNT(*) AS n FROM tweets AS t;"
    BY_LANG = ("SELECT lang AS lang, COUNT(*) AS c FROM tweets AS t "
               "GROUP BY t.lang AS lang ORDER BY lang;")
    layers = (
        "sqlpp.parse_s", "sqlpp.compile_s", "exec.scan_s", "exec.breaker_s",
        "core.assemble_s", "core.shred_s", "columnar.point_lookup_s",
        "columnar.build_s", "encoding.compress_s", "encoding.decompress_s",
        "encoding.decompress_calls", "storage.pages_written",
        "storage.bytes_written", "storage.cache_hits", "storage.read_page_s",
        "lsm.flush_count", "lsm.flush_s", "lsm.merge_count", "lsm.merge_s",
        "lsm.merge_bytes_rewritten", "lsm.components_end", "lsm.point_lookup_s",
        "wal.appends", "wal.bytes", "wal.log_s",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        fresh_per_cycle = 14 + 4
        pool = make_generator(
            "tweet_1", self.PRELOAD + self.max_cycles * fresh_per_cycle, seed=seed
        ).documents()
        self.preload = pool[: self.PRELOAD]
        fresh = iter(pool[self.PRELOAD:])
        rng = random.Random(seed)
        live = list(range(self.PRELOAD))
        next_key = self.PRELOAD
        self.cycles = []
        for _ in range(self.max_cycles):
            ops = []
            for kind in ["insert"] * 14 + ["upsert"] * 4 + ["delete"] * 2 + ["lookup"] * 2:
                if kind == "insert":
                    ops.append(("insert", next(fresh)))
                    live.append(next_key)
                    next_key += 1
                elif kind == "upsert":
                    ops.append(("upsert", dict(next(fresh), id=rng.choice(live))))
                elif kind == "delete":
                    key = live.pop(rng.randrange(len(live)))
                    ops.append(("delete", key))
                else:
                    ops.append(("lookup", None))
            rng.shuffle(ops)
            # Lookup keys are drawn after shuffling, from every key issued so
            # far (deleted ones included), so some lookups miss.
            ops = [
                ("lookup", rng.randrange(next_key)) if kind == "lookup" else (kind, arg)
                for kind, arg in ops
            ]
            self.cycles.append(ops + [("query", self.COUNT), ("query", self.BY_LANG)])

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="mixed-", dir=self.workdir)
        store = None
        try:
            store = Datastore(StoreConfig(
                storage_directory=directory,
                memory_component_budget=self.MEMTABLE_BUDGET,
            ))
            dataset = store.create_dataset("tweets", layout="amax")
            writes: List[tuple] = []
            started = perf_counter()
            for document in self.preload:
                begun = perf_counter()
                dataset.insert(document)
                writes.append(("tweets", begun, perf_counter()))
                self.clock.tick()
            dataset.flush_all()
            span = (started, perf_counter())
            dataset.point_lookup(0)
            store.query(self.COUNT)
            store.query(self.BY_LANG)
        except BaseException:
            try:
                if store is not None:
                    store.close()
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        state = _MixedState(store, directory, {doc["id"]: doc for doc in self.preload})
        preload_bytes = sum(user_bytes(doc) for doc in self.preload)
        return state, Load(len(self.preload), span, writes, preload_bytes, 0)

    def expect(self, state: _MixedState) -> None:
        state.io_start = state.store.io_snapshot()

    def _expected_rows(self, state: _MixedState, text: str) -> list:
        if text == self.COUNT:
            return [{"n": len(state.model)}]
        langs = Counter(doc["lang"] for doc in state.model.values())
        return [{"lang": lang, "c": langs[lang]} for lang in sorted(langs)]

    def cycle(self, state: _MixedState, index: int, samples: Samples) -> list:
        outputs = []
        dataset = state.dataset
        for kind, arg in self.cycles[index]:
            if kind in ("insert", "upsert"):
                _timed(samples, "write", kind, dataset.insert, arg)
                state.model[arg["id"]] = arg
                state.written_bytes += user_bytes(arg)
            elif kind == "delete":
                _timed(samples, "write", kind, dataset.delete, arg)
                state.model.pop(arg, None)
            elif kind == "lookup":
                document = _timed(
                    samples, "lookup", "tweets", dataset.point_lookup, arg
                )
                samples.check(f"mixed lookup [{arg}]", same(document, state.model.get(arg)))
                outputs.append(document)
            else:
                rows = _timed(samples, "query", arg, state.store.query, arg)
                samples.check(
                    f"mixed query {arg!r}", same(rows, self._expected_rows(state, arg))
                )
                outputs.append(rows)
        samples.end_cycle(("write", "lookup", "query"))
        return outputs

    def finish(self, state: _MixedState, load: Load) -> Dict[str, float]:
        io = state.store.io_snapshot().delta_since(state.io_start)
        written = io.bytes_written + io.wal_bytes_written
        state.dataset.flush_all()  # untimed: stored size of the live data
        live = sum(user_bytes(doc) for doc in state.model.values())
        return {
            "space_amp": state.dataset.storage_size_bytes() / live,
            "write_amp": written / state.written_bytes,
        }

    def local_stores(self, state: _MixedState) -> list:
        return [state.store]

    def io_source(self, state: _MixedState):
        return state.store

    def config(self, state: _MixedState) -> dict:
        return asdict(state.store.config)

    def teardown(self, state: _MixedState) -> None:
        try:
            state.store.close()
        finally:
            shutil.rmtree(state.directory, ignore_errors=True)


# -- sharded_2 -----------------------------------------------------------------------
@contextlib.contextmanager
def _stdout_to_stderr():
    """Point fd 1 at stderr, so that spawned shards keep stdout for the result."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


class _ShardedState:
    def __init__(self, cluster, coordinator, directory: str) -> None:
        self.cluster = cluster
        self.coordinator = coordinator
        self.directory = directory
        #: Rows shards sent the coordinator, summed over every query.
        self.rows_transferred = 0


_METRIC_LINE = re.compile(r"^(repro_io_bytes_total|repro_wal_bytes_total)(\{[^}]*\})? (\S+)$")


def _shard_bytes_written(address) -> float:
    """Device page bytes plus WAL bytes one shard has written (from its metrics)."""
    with WireClient(*address) as client:
        text = client.metrics()
    total = 0.0
    for line in text.splitlines():
        match = _METRIC_LINE.match(line)
        if match and (match.group(1) == "repro_wal_bytes_total"
                      or 'op="write"' in (match.group(2) or "")):
            total += float(match.group(3))
    return total


class Sharded(Workload):
    """Two shard servers behind an in-process coordinator.

    A cycle is the five-query mix followed by two point lookups.
    """

    name = "sharded_2"
    SHARDS = 2
    DOCS = 10_000
    BATCH = 500
    trace_cycles = 10
    max_cycles = 2_000
    #: (name, SQL++, whether row order is defined)
    QUERIES = (
        ("count", "SELECT COUNT(*) AS n FROM cell AS c;", True),
        ("filtered_count",
         "SELECT COUNT(*) AS n FROM cell AS c WHERE c.duration >= 600;", True),
        ("sum_avg",
         "SELECT SUM(c.duration) AS s, AVG(c.signal) AS a FROM cell AS c;", True),
        ("group_top10",
         "SELECT caller AS caller, MAX(c.duration) AS m FROM cell AS c "
         "GROUP BY c.caller AS caller ORDER BY m DESC, caller LIMIT 10;", True),
        ("selective_stream",
         'SELECT c.id AS id, c.duration AS d FROM cell AS c WHERE c.tower = "T007";',
         False),
    )
    LOOKUPS_PER_CYCLE = 2
    layers = (
        "sqlpp.parse_s", "sqlpp.compile_s", "exec.breaker_s", "exec.rows_returned",
        "net.roundtrip_s", "net.encode_s", "net.decode_s", "net.frames",
        "net.frame_bytes", "shard.split_s", "shard.merge_s",
        "shard.rows_transferred", "shard.rows_transferred_per_result",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.documents = make_generator("cell", self.DOCS, seed=seed).documents()
        self.user_bytes = sum(user_bytes(doc) for doc in self.documents)
        rng = random.Random(seed)
        self.lookups = [
            [rng.randrange(self.DOCS) for _ in range(self.LOOKUPS_PER_CYCLE)]
            for _ in range(self.max_cycles)
        ]
        self.expected = None

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="sharded-", dir=self.workdir)
        cluster = coordinator = None
        try:
            with _stdout_to_stderr():
                cluster = ShardCluster(self.SHARDS, directory)
            coordinator = cluster.connect()
            coordinator.create_dataset("cell")
            writes: List[tuple] = []
            started = perf_counter()
            for start in range(0, self.DOCS, self.BATCH):
                begun = perf_counter()
                coordinator.insert_many("cell", self.documents[start:start + self.BATCH])
                writes.append(("cell", begun, perf_counter()))
                self.clock.tick()
            # Without a checkpoint the load stays in shard memtables and the
            # queries would never read a disk component.
            coordinator.checkpoint()
            span = (started, perf_counter())
            state = _ShardedState(cluster, coordinator, directory)
            # Warm-up: first-query costs belong to set-up.
            self._run(state, 0, Samples(self.clock))
        except BaseException:
            if coordinator is not None:
                coordinator.close()
            if cluster is not None:
                cluster.terminate()
            shutil.rmtree(directory, ignore_errors=True)
            raise
        written = sum(_shard_bytes_written(address) for address in cluster.live_addresses())
        return state, Load(self.DOCS, span, writes, self.user_bytes, written)

    def expect(self, state: _ShardedState) -> None:
        if self.expected is not None:
            return
        oracle = Datastore()
        try:
            oracle.create_dataset("cell").insert_many(self.documents)
            oracle.dataset("cell").flush_all()
            self.expected = {name: oracle.query(text) for name, text, _ in self.QUERIES}
        finally:
            oracle.close()
        self.by_key = {doc["id"]: doc for doc in self.documents}

    def _run(self, state: _ShardedState, index: int, samples: Samples) -> list:
        outputs = []
        coordinator = state.coordinator
        for name, text, ordered in self.QUERIES:
            rows = _timed(samples, "query", name, coordinator.query, text)
            state.rows_transferred += coordinator.last_query_stats.rows_transferred
            if self.expected is not None:
                samples.check(
                    f"sharded {name}", same_rows(rows, self.expected[name], ordered)
                )
            outputs.append(rows if ordered else sorted(rows, key=lambda row: row["id"]))
        for key in self.lookups[index % self.max_cycles]:
            document = _timed(
                samples, "lookup", "cell", coordinator.point_lookup, "cell", key
            )
            if self.expected is not None:
                samples.check(f"sharded lookup [{key}]", same(document, self.by_key[key]))
            outputs.append(document)
        samples.end_cycle(("query", "lookup"))
        return outputs

    def cycle(self, state: _ShardedState, index: int, samples: Samples) -> list:
        return self._run(state, index, samples)

    def finish(self, state: _ShardedState, load: Load) -> Dict[str, float]:
        stored = sum(
            directory_bytes(str(state.cluster.shard_dir(shard)))
            for shard in range(self.SHARDS)
        )
        return {
            "space_amp": stored / self.user_bytes,
            "write_amp": load.device_bytes / load.user_bytes,
        }

    def io_source(self, state: _ShardedState):
        return state.coordinator

    def rows_transferred(self, state: _ShardedState) -> int:
        return state.rows_transferred

    def child_pids(self, state: _ShardedState) -> List[int]:
        return [process.pid for process in state.cluster.processes if process is not None]

    def config(self, state: _ShardedState) -> dict:
        # Each shard runs ``repro.server --store <its directory>``: the
        # default StoreConfig with that directory.
        return dict(asdict(StoreConfig()), storage_directory="<shard directory>")

    def teardown(self, state: _ShardedState) -> None:
        try:
            state.coordinator.close()
        finally:
            try:
                state.cluster.terminate()
            finally:
                shutil.rmtree(state.directory, ignore_errors=True)


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "olap_amax":
        return Olap(seed, "amax", workdir)
    if name == "olap_open":
        return Olap(seed, "open", workdir)
    if name == "mixed_amax":
        return Mixed(seed, workdir)
    if name == "sharded_2":
        return Sharded(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("olap_amax", "olap_open", "mixed_amax", "sharded_2")
