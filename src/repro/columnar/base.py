"""Shared machinery for the APAX and AMAX columnar components.

Both layouts store groups of records ("leaf nodes" of the primary B+-tree): a
group of an APAX component is one leaf page holding every column's minipage;
a group of an AMAX component is a mega leaf node (Page 0 plus megapages).
This module hosts the group abstraction, the component/cursor classes built on
top of it, and the record-grouping logic shared by both builders — the layout
classes only implement how a group's bytes are arranged in pages.

Reading follows §4.4: scans decode the primary keys of a group eagerly (they
drive reconciliation and ``COUNT(*)``), while value columns are decoded only
when a document is actually requested, and skipped records are applied to each
column's cursor in one batch right before the next read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.assembly import assemble_document
from ..core.columns import ColumnCursor, ShreddedColumn
from ..core.schema import ARRAY_PATH_STEP, ColumnInfo, Schema, field_name_steps
from ..core.shredder import RecordShredder
from ..model.errors import StorageError
from ..model.values import TYPE_NULL
from ..storage.buffer_cache import BufferCache
from ..storage.device import StorageDevice
from ..storage.stats import ColumnStatistics, ColumnStatisticsBuilder
from .common import chunk_from_streams
from ..lsm.component import (
    ComponentCursor,
    ComponentMetadata,
    DiskComponent,
    FlushEntry,
)


class ColumnGroup:
    """One leaf group of a columnar component (abstract)."""

    record_count: int
    min_key: object
    max_key: object
    #: Number of anti-matter records in the group, when the layout persisted
    #: it (None = unknown).  Zero lets batch scans skip decoding the key
    #: column entirely when only value columns are needed.
    antimatter_count: Optional[int] = None

    def read_keys(self) -> Tuple[list, List[bool]]:
        """Decode the primary keys and anti-matter flags of the group."""
        raise NotImplementedError  # pragma: no cover - interface

    def read_column(self, column: ColumnInfo) -> Tuple[List[int], list]:
        """Decode one column's (definition levels, values) for the group."""
        raise NotImplementedError  # pragma: no cover - interface

    def read_columns(self, columns) -> dict:
        """Decode several columns; layouts may override to batch page accesses."""
        return {column.column_id: self.read_column(column) for column in columns}

    def column_min_max(self, column: ColumnInfo) -> Tuple[object, object]:
        """Min/max statistics for predicate skipping (None, None when unknown)."""
        return None, None

    def column_range_overlaps(self, column: ColumnInfo, low, high) -> bool:
        """Can this group hold a value of ``column`` within [low, high]?

        Layouts override this with their min/max statistics (APAX keeps exact
        per-page values, AMAX keeps fixed-size prefixes on Page 0); the
        default errs on the side of reading the column.
        """
        return True


class ColumnarComponent(DiskComponent):
    """A component whose leaf groups store columns (APAX or AMAX)."""

    def __init__(
        self,
        metadata: ComponentMetadata,
        component_file,
        buffer_cache: BufferCache,
        schema: Schema,
        groups: Sequence[ColumnGroup],
    ) -> None:
        super().__init__(metadata, component_file, buffer_cache)
        self.schema = schema
        self.groups = list(groups)

    # -- cursors -----------------------------------------------------------------
    def cursor(
        self, fields: Optional[Sequence[str]] = None, pushdown=None
    ) -> "ColumnarComponentCursor":
        return ColumnarComponentCursor(self, fields, pushdown)

    def iter_key_entries(self) -> Iterator[Tuple[object, bool]]:
        """Yield ``(key, antimatter)`` for every record, touching only the keys."""
        for group in self.groups:
            keys, antimatter_flags = group.read_keys()
            yield from zip(keys, antimatter_flags)

    def column_record_cursor(self, column: ColumnInfo) -> "MultiGroupColumnCursor":
        """A per-record cursor over one column across every group (vertical merge)."""
        return MultiGroupColumnCursor(self, column)

    def columns_for_fields(self, fields: Optional[Sequence[str]]) -> List[ColumnInfo]:
        if fields is None:
            return list(self.schema.columns)
        return self.schema.columns_for_fields(fields)

    # -- point lookups -------------------------------------------------------------
    def point_lookup(
        self, key, fields: Optional[Sequence[str]] = None
    ) -> Optional[Tuple[bool, Optional[dict]]]:
        if not self.key_range_overlaps(key):
            return None
        for group in self.groups:
            if group.min_key is None or key < group.min_key or key > group.max_key:
                continue
            keys, antimatter_flags = group.read_keys()
            # The whole key column is decoded (§4.6), then bisected: a group's
            # keys are sorted and of one type (int or str) per dataset.
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                if antimatter_flags[index]:
                    return True, None
                return False, self._assemble_at(group, index, keys[index], fields)
        return None

    def _assemble_at(
        self,
        group: ColumnGroup,
        index: int,
        key,
        fields: Optional[Sequence[str]] = None,
    ) -> dict:
        """Assemble the record at ``index`` of ``group``, whose primary key is ``key``.

        ``fields`` restricts the decode to the projected columns; the whole
        definition/value streams of each needed column are still decoded and
        skipped up to ``index`` — that per-lookup leaf cost is inherent to the
        layouts (§4.6) and is exactly what the cost-based optimizer charges
        index-to-primary fetches for.
        """
        columns = [
            column
            for column in self.columns_for_fields(fields)
            if not column.is_primary_key
        ]
        chunk = {}
        streams = group.read_columns(columns)
        for column in columns:
            cursor = ColumnCursor(column, *streams[column.column_id])
            cursor.skip_records(index)
            chunk[column.column_id] = cursor.next_record()
        return assemble_document(
            self.schema,
            chunk,
            key=key,
            fields=list(fields) if fields is not None else None,
        )


class ColumnarComponentCursor(ComponentCursor):
    """Merged cursor over a columnar component's groups with lazy value decoding.

    When a :class:`~repro.query.pushdown.PushdownSpec` is supplied, the cursor

    * prunes the assembled columns to the spec's path set (finer than the
      top-level-field projection), and
    * pre-filters each leaf group: pushed predicates are compiled against this
      component's schema snapshot and evaluated over the decoded column
      batches into one pass-vector per group, *before* any document is
      assembled.  Groups whose min/max statistics cannot satisfy a predicate
      are skipped without decoding any value column at all.

    The pass-vector only gates :attr:`passes_pushdown`; iteration still visits
    every key so LSM reconciliation (newest version wins) sees the full key
    stream.
    """

    def __init__(
        self,
        component: ColumnarComponent,
        fields: Optional[Sequence[str]],
        pushdown=None,
    ):
        self.component = component
        self.pushdown = pushdown
        if pushdown is not None and pushdown.fields is not None and fields is None:
            fields = pushdown.fields
        self.fields = list(fields) if fields is not None else None
        if pushdown is not None and pushdown.paths is not None:
            wanted = component.schema.columns_for_paths(pushdown.paths)
        else:
            wanted = component.columns_for_fields(fields)
        self._wanted_columns = [
            column for column in wanted if not column.is_primary_key
        ]
        self._compiled_predicates = []
        if pushdown is not None and pushdown.predicates:
            # Imported lazily: the query layer depends on core/columnar, not
            # the other way around — except for this one read-path hook.
            from ..query.pushdown import compile_predicates

            self._compiled_predicates = compile_predicates(
                component.schema, pushdown.predicates
            )
        self._group_index = -1
        self._keys: list = []
        self._antimatter: List[bool] = []
        self._pass: Optional[List[bool]] = None
        self._predicate_streams: Dict[int, tuple] = {}
        self._position = -1
        self._value_cursors: Optional[Dict[int, ColumnCursor]] = None
        self._assembled_position = -1

    # -- iteration ------------------------------------------------------------------
    def advance(self) -> bool:
        self._position += 1
        while self._position >= len(self._keys):
            self._group_index += 1
            if self._group_index >= len(self.component.groups):
                return False
            group = self.component.groups[self._group_index]
            self._keys, self._antimatter = group.read_keys()
            self._predicate_streams = {}
            self._pass = self._compute_group_pass(group) if self._compiled_predicates else None
            self._position = 0
            self._value_cursors = None
            self._assembled_position = -1
        return True

    def _compute_group_pass(self, group: ColumnGroup) -> List[bool]:
        """Evaluate the pushed predicates over this group's column batches."""
        record_count = len(self._keys)
        for compiled in self._compiled_predicates:
            if not compiled.group_may_match(group):
                # Min/max pruning: nothing in this leaf can pass; no value
                # column (not even the predicate's) needs to be decoded.
                return [False] * record_count
        needed: Dict[int, object] = {}
        for compiled in self._compiled_predicates:
            for column in compiled.columns:
                needed[column.column_id] = column
        streams = group.read_columns(list(needed.values()))
        # Decoded predicate batches are kept so that document assembly does
        # not decode the same columns a second time.
        self._predicate_streams = streams
        passes: Optional[List[bool]] = None
        for compiled in self._compiled_predicates:
            vector = compiled.evaluate(streams, record_count)
            if passes is None:
                passes = vector
            else:
                passes = [a and b for a, b in zip(passes, vector)]
        return passes if passes is not None else [True] * record_count

    @property
    def passes_pushdown(self) -> bool:
        return self._pass is None or self._pass[self._position]

    @property
    def key(self):
        return self._keys[self._position]

    @property
    def is_antimatter(self) -> bool:
        return self._antimatter[self._position]

    def document(self) -> Optional[dict]:
        if self.is_antimatter:
            return None
        group = self.component.groups[self._group_index]
        if self._value_cursors is None:
            # Value columns are decoded lazily, only for groups where at least
            # one document is actually requested, and fetched as a batch so
            # page-per-leaf layouts (APAX) touch their page only once.  Columns
            # already decoded for predicate evaluation are reused as-is.
            missing = [
                column
                for column in self._wanted_columns
                if column.column_id not in self._predicate_streams
            ]
            streams = dict(self._predicate_streams)
            if missing or not streams:
                streams.update(group.read_columns(missing))
            self._value_cursors = {
                column.column_id: ColumnCursor(column, *streams[column.column_id])
                for column in self._wanted_columns
            }
            self._assembled_position = -1
        skip = self._position - self._assembled_position - 1
        chunk = {}
        for column_id, cursor in self._value_cursors.items():
            if skip:
                cursor.skip_records(skip)
            chunk[column_id] = cursor.next_record()
        self._assembled_position = self._position
        return assemble_document(
            self.component.schema, chunk, key=self.key, fields=self.fields
        )


class MultiGroupColumnCursor:
    """Per-record entry cursor for one column spanning every group of a component."""

    def __init__(self, component: ColumnarComponent, column: ColumnInfo) -> None:
        self.component = component
        self.column = column
        self._group_index = -1
        self._cursor: Optional[ColumnCursor] = None

    def next_record(self):
        while self._cursor is None or self._cursor.exhausted:
            self._group_index += 1
            if self._group_index >= len(self.component.groups):
                raise StorageError("column cursor exhausted")
            group = self.component.groups[self._group_index]
            defs, values = group.read_column(self.column)
            self._cursor = ColumnCursor(self.column, defs, values)
        return self._cursor.next_record()


# ======================================================================================
# Builders
# ======================================================================================


class ColumnarComponentBuilder:
    """Shared flush/merge entry points for APAX and AMAX builders."""

    layout: str = "columnar"

    def __init__(
        self,
        component_id: str,
        device: StorageDevice,
        buffer_cache: BufferCache,
        schema: Schema,
        compression: str = "snappy",
    ) -> None:
        self.component_id = component_id
        self.device = device
        self.buffer_cache = buffer_cache
        self.schema = schema
        self.compression = compression
        #: Filled by :meth:`build_from_columns`; consumed by the layouts'
        #: ``_write_groups`` when they create the component metadata.
        self.pending_column_stats: Dict[str, ColumnStatistics] = {}

    # -- entry points --------------------------------------------------------------
    def build(self, entries: Iterable[FlushEntry]) -> ColumnarComponent:
        """Flush path: shred row-major records and lay the columns out in pages."""
        shredder = RecordShredder(self.schema)
        for key, antimatter, document in entries:
            shredder.shred(key, document, antimatter=antimatter)
        columns = shredder.finish()
        return self.build_from_columns(columns, shredder.record_count)

    def build_from_columns(
        self, columns: Dict[int, ShreddedColumn], record_count: int
    ) -> ColumnarComponent:
        """Merge path: the columns already exist; regroup and write them.

        Column statistics are collected here (both flush and merge funnel
        through this method) so they are recomputed exactly on every merge —
        no approximate on-disk merging of histograms is ever needed.
        """
        self.pending_column_stats = self._collect_column_stats(columns)
        groups = list(self._split_into_groups(columns, record_count))
        return self._write_groups(groups)

    def _collect_column_stats(
        self, columns: Dict[int, ShreddedColumn]
    ) -> Dict[str, ColumnStatistics]:
        """Per-path statistics straight from the shredded column buffers.

        Array columns are skipped (predicates on array paths are never pushed
        or index-planned); union columns sharing one dotted path fold into a
        single entry, matching how the optimizer looks statistics up.
        """
        builders: Dict[str, ColumnStatisticsBuilder] = {}
        for shredded in columns.values():
            column = shredded.column
            if ARRAY_PATH_STEP in column.path:
                continue
            path = ".".join(field_name_steps(column.path))
            if not path:
                continue
            builder = builders.get(path)
            if builder is None:
                builder = builders[path] = ColumnStatisticsBuilder(path)
            if column.is_primary_key:
                # The key column materializes a value for anti-matter entries
                # too (definition level 0); only live keys are statistics.
                for definition_level, value in zip(shredded.defs, shredded.values):
                    if definition_level != 0:
                        builder.observe(value)
            elif column.type_tag == TYPE_NULL:
                for definition_level in shredded.defs:
                    if definition_level == column.max_def:
                        builder.observe(None)
            else:
                for value in shredded.values:
                    builder.observe(value)
        return {path: builder.finish() for path, builder in builders.items()}

    # -- grouping --------------------------------------------------------------------
    def _records_per_group(
        self, columns: Dict[int, ShreddedColumn], record_count: int
    ) -> int:
        raise NotImplementedError  # pragma: no cover - layout specific

    def _write_groups(self, groups: List[Dict[int, ShreddedColumn]]) -> ColumnarComponent:
        raise NotImplementedError  # pragma: no cover - layout specific

    def _split_into_groups(
        self, columns: Dict[int, ShreddedColumn], record_count: int
    ) -> Iterator[Dict[int, ShreddedColumn]]:
        if record_count == 0:
            return
        per_group = max(1, self._records_per_group(columns, record_count))
        if per_group >= record_count:
            yield columns
            return
        cursors = {
            column_id: ColumnCursor(shredded.column, shredded.defs, shredded.values)
            for column_id, shredded in columns.items()
        }
        remaining = record_count
        while remaining > 0:
            take = min(per_group, remaining)
            group: Dict[int, ShreddedColumn] = {}
            for column_id, cursor in cursors.items():
                defs: List[int] = []
                values: list = []
                for _ in range(take):
                    for definition_level, value, is_delimiter in cursor.next_record():
                        defs.append(definition_level)
                        if not is_delimiter and cursor._has_value(definition_level, False):
                            values.append(value)
                group[column_id] = chunk_from_streams(cursor.column, defs, values)
            remaining -= take
            yield group

    # -- helpers shared by subclasses ---------------------------------------------------
    @staticmethod
    def estimated_bytes(columns: Dict[int, ShreddedColumn]) -> int:
        total = 0
        for shredded in columns.values():
            total += len(shredded.defs)  # roughly one byte per level after RLE? keep coarse
            for value in shredded.values:
                if isinstance(value, str):
                    total += len(value) + 1
                elif isinstance(value, bool):
                    total += 1
                else:
                    total += 8
        return total

    def group_key_stats(self, group: Dict[int, ShreddedColumn]):
        pk = group[self.schema.pk_column.column_id]
        keys = pk.values
        antimatter = sum(1 for definition_level in pk.defs if definition_level == 0)
        min_key = keys[0] if keys else None
        max_key = keys[-1] if keys else None
        return keys, antimatter, min_key, max_key
