"""In-memory column buffers and cursors for the extended Dremel format.

A *shredded column* is the in-memory representation of one column's entries
for a batch of records: a definition-level stream plus the present values.
Delimiters (§3.2.1) live in the definition-level stream and carry no value.

Entries are plain tuples ``(definition_level, value, is_delimiter)`` — the
hot loops in the shredder, the assembler, and the LSM merge all manipulate
them, so we keep the representation minimal.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..model.errors import SchemaError
from ..model.values import TYPE_NULL
from .schema import ColumnInfo

Entry = Tuple[int, Optional[object], bool]


def make_value_entry(definition_level: int, value=None) -> Entry:
    return (definition_level, value, False)


def make_delimiter_entry(definition_level: int) -> Entry:
    return (definition_level, None, True)


class ShreddedColumn:
    """Write-side buffer for one column of a batch of shredded records."""

    __slots__ = ("column", "defs", "values")

    def __init__(self, column: ColumnInfo, backfill_records: int = 0) -> None:
        self.column = column
        #: One definition level per entry (values *and* delimiters).
        self.defs: List[int] = [0] * backfill_records
        #: Present values only (entries whose definition level == max_def).
        self.values: List[object] = []
        if column.is_primary_key and backfill_records:
            raise SchemaError("the primary key column can never be back-filled")

    # -- writing ----------------------------------------------------------------
    def add_value(self, definition_level: int, value=None) -> None:
        """Append a value entry (the value is stored only when present)."""
        self.defs.append(definition_level)
        if self.column.is_primary_key:
            self.values.append(value)
        elif definition_level == self.column.max_def and self.column.type_tag != TYPE_NULL:
            self.values.append(value)

    def add_missing(self, definition_level: int) -> None:
        """Append an entry recording that an ancestor (or the value) is absent."""
        self.defs.append(definition_level)

    def add_delimiter(self, definition_level: int) -> None:
        """Append an end-of-array delimiter (§3.2.1)."""
        self.defs.append(definition_level)

    def extend_backfill(self, record_count: int) -> None:
        """Prepend implicit definition-level-0 entries for earlier records.

        Used when a column is discovered mid-batch (§3.2.2: "we can write
        NULLs in the newly inferred columns for all previous records").
        """
        if record_count:
            self.defs[0:0] = [0] * record_count

    # -- statistics --------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return len(self.defs)

    @property
    def value_count(self) -> int:
        return len(self.values)

    def min_max_values(self) -> Tuple[Optional[object], Optional[object]]:
        """Minimum and maximum present value (None when the column has no values)."""
        if not self.values:
            return None, None
        try:
            return min(self.values), max(self.values)
        except TypeError:
            return None, None


class ColumnCursor:
    """Read-side cursor over one column's decoded streams.

    The cursor splits the streams into per-record entry lists using the
    column-local boundary rule of the extended format:

    * a column with no ancestor arrays has exactly one entry per record;
    * otherwise the first entry of a record is always a value entry.  If its
      definition level is below the outermost ancestor array's level, the
      record contributed a single entry; otherwise entries continue until the
      record-end delimiter (definition level 0) is consumed.  Within the
      content, an entry is a delimiter iff its definition level is at most the
      column's maximum delimiter and the previous entry was not a delimiter.
    """

    __slots__ = ("column", "defs", "values", "_def_pos", "_val_pos")

    def __init__(self, column: ColumnInfo, defs: Sequence[int], values: Sequence) -> None:
        self.column = column
        self.defs = defs
        self.values = values
        self._def_pos = 0
        self._val_pos = 0

    # -- iteration ----------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._def_pos >= len(self.defs)

    def reset(self) -> None:
        self._def_pos = 0
        self._val_pos = 0

    def _has_value(self, definition_level: int, is_delimiter: bool) -> bool:
        if is_delimiter:
            return False
        if self.column.is_primary_key:
            return True
        return (
            definition_level == self.column.max_def
            and self.column.type_tag != TYPE_NULL
        )

    def _read_entry(self, is_delimiter: bool) -> Entry:
        definition_level = self.defs[self._def_pos]
        self._def_pos += 1
        value = None
        if self._has_value(definition_level, is_delimiter):
            value = self.values[self._val_pos]
            self._val_pos += 1
        return (definition_level, value, is_delimiter)

    def next_record(self) -> List[Entry]:
        """Return the entries contributed by the next record."""
        if self.exhausted:
            raise SchemaError(
                f"column {self.column.dotted_path!r} has no more records"
            )
        column = self.column
        if column.array_count == 0:
            return [self._read_entry(False)]
        first = self._read_entry(False)
        entries = [first]
        if first[0] < (column.outer_array_level or 0):
            return entries
        max_delimiter = column.max_delimiter
        previous_was_delimiter = False
        while True:
            if self.exhausted:
                raise SchemaError(
                    f"column {self.column.dotted_path!r} is missing its record-end "
                    "delimiter"
                )
            definition_level = self.defs[self._def_pos]
            is_delimiter = (
                not previous_was_delimiter and definition_level <= max_delimiter
            )
            entry = self._read_entry(is_delimiter)
            entries.append(entry)
            if is_delimiter:
                if definition_level == 0:
                    return entries
                previous_was_delimiter = True
            else:
                previous_was_delimiter = False

    def skip_records(self, count: int) -> None:
        """Advance past ``count`` records without materializing their values.

        This is the batched-skip path used during LSM reconciliation (§4.4):
        ignored records are counted first and each column's cursor is advanced
        once, per column, by the whole batch.  A column outside every array
        holds one entry per record, so it skips by position arithmetic alone.
        """
        column = self.column
        if column.array_count:
            for _ in range(count):
                self.next_record()
            return
        end = self._def_pos + count
        if end > len(self.defs):
            raise SchemaError(
                f"column {column.dotted_path!r} has no more records"
            )
        if column.is_primary_key:
            self._val_pos += count
        elif column.type_tag != TYPE_NULL:
            self._val_pos += self.defs[self._def_pos:end].count(column.max_def)
        self._def_pos = end

    def remaining_records(self) -> int:
        """Count the records left (consumes the cursor; used by tests/merges)."""
        count = 0
        while not self.exhausted:
            self.next_record()
            count += 1
        return count


def cursor_group(columns: Iterable[ColumnInfo], streams) -> List[ColumnCursor]:
    """Build cursors for a set of columns given ``streams[column_id] = (defs, values)``."""
    cursors = []
    for column in columns:
        defs, values = streams[column.column_id]
        cursors.append(ColumnCursor(column, defs, values))
    return cursors
