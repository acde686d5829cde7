"""The end-to-end batch-vectorized executor.

Operators here exchange :class:`~repro.query.batch.ColumnBatch` objects
instead of rows.  The source comes in two flavours:

* **direct** — for columnar components, each leaf group's pruned column
  streams are turned straight into per-record value vectors (no document is
  ever assembled), with the pushed predicates and the anti-matter flags
  folded into one selection before the batch is even built.  A flat path's
  vector holds its atomic values; a path ending at an array holds one list
  per record, built column by column from the definition levels
  (:func:`array_path_vector`).  Direct scans are only taken when they are
  provably equivalent to the reconciled row scan: the partition's memtables
  must be empty, every component must be columnar with every pruned path
  flat or ending at a supported array in its schema
  (:func:`~repro.query.pushdown.schema_supports_direct`), and the components'
  key ranges must be pairwise disjoint — then concatenating them in
  ``min_key`` order replays exactly the k-way merge's key order with no
  reconciliation to do.  Anything else falls back to the reconciled row scan,
  batched row-wise; both kinds of batch flow through the same operators.
* **row-backed** — the reconciled scan's documents, pivoted into one column
  per bound variable.

FILTER / ASSIGN / UNNEST evaluate whole expression vectors per batch
(:meth:`~repro.query.expressions.Expression.evaluate_batch`, with NumPy
kernels from :mod:`repro.query.kernels` where exact); GROUP BY / AGGREGATE /
PROJECT consume batches directly, and any remaining breaker suffix reuses the
shared engine code from :mod:`repro.query.executor`.  The interpreted
row-at-a-time executor stays untouched as the correctness oracle.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..columnar.base import ColumnarComponent
from ..core.schema import (
    ArrayNode,
    AtomicNode,
    ColumnInfo,
    ObjectNode,
    Schema,
    UnionNode,
    field_name_steps,
)
from ..model.errors import SchemaError
from ..model.path import FieldPath
from ..model.values import MISSING, TYPE_NULL
from .batch import ColumnBatch
from . import kernels
from .executor import (
    DEFAULT_BATCH_SIZE,
    _Aggregator,
    _hashable,
    _none_if_missing,
    op_span_name,
    rep_ranks,
    run_breakers,
    source_rows,
    traced_batch_source,
)
from ..obs import current_trace, record_span
from .expressions import (
    And,
    Call,
    Compare,
    Expression,
    Field,
    Literal,
    Or,
    Var,
    join_key,
)
from .plan import (
    AggregateNode,
    AssignNode,
    DataScanNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    ProjectNode,
    QueryPlan,
    UnnestNode,
    collect_expressions,
)
from .pushdown import compile_predicates, direct_array_node, schema_supports_direct

#: Expression types the direct (assembly-free) path can evaluate over path
#: columns.  SomeSatisfies re-binds rows internally, so it forces row batches.
_DIRECT_EXPRESSIONS = (Literal, Var, Field, Compare, And, Or, Call)


# ======================================================================================
# Eligibility
# ======================================================================================


def expression_supports_direct(expression: Expression) -> bool:
    """Can this expression evaluate over direct path columns (no row dicts)?"""
    if isinstance(expression, Field):
        return expression_supports_direct(expression.base)
    if isinstance(expression, Compare):
        return expression_supports_direct(
            expression.left
        ) and expression_supports_direct(expression.right)
    if isinstance(expression, (And, Or)):
        return all(expression_supports_direct(o) for o in expression.operands)
    if isinstance(expression, Call):
        return all(expression_supports_direct(a) for a in expression.arguments)
    return isinstance(expression, _DIRECT_EXPRESSIONS)


def plan_supports_direct(plan: QueryPlan) -> bool:
    """May the scan emit assembly-free (path-column-only) batches for this plan?

    Requires a pushdown spec with a pruned path set (which already proves the
    scan variable is never consumed whole), no rebinding of the scan
    variable, direct-safe expressions everywhere, and a first breaker that
    consumes batches without materializing binding rows (GROUP BY, AGGREGATE,
    or PROJECT) — ORDER BY/LIMIT-first plans keep row batches.
    """
    source = plan.source
    if not isinstance(source, DataScanNode):
        return False
    spec = source.pushdown
    if spec is None or spec.paths is None:
        return False
    for op in plan.pipeline:
        if not isinstance(op, (AssignNode, UnnestNode, FilterNode)):
            return False  # joins (and future operators) bind row documents
        if isinstance(op, (AssignNode, UnnestNode)) and op.variable == source.variable:
            return False
    if not plan.breakers:
        return False
    if not isinstance(plan.breakers[0], (GroupByNode, AggregateNode, ProjectNode)):
        return False
    return all(
        expression_supports_direct(expression)
        for expression in collect_expressions(plan.pipeline, plan.breakers)
    )


def _direct_components(snapshot, spec) -> Optional[List[ColumnarComponent]]:
    """The snapshot's components in key order, or None when direct is unsafe.

    Direct scans bypass the k-way newest-wins merge, which is only sound when
    there is nothing to reconcile: no in-memory entries and no key present in
    two components.  Pairwise-disjoint metadata key ranges (anti-matter keys
    included — they count toward a component's min/max) guarantee the latter,
    and then ``min_key`` order reproduces the merge's ascending key order.
    """
    for source in snapshot.memtable_sources:
        entries = source if isinstance(source, list) else source.entries
        if entries:
            return None
    spans: List[Tuple[object, object, ColumnarComponent]] = []
    for component in snapshot.components:
        if not isinstance(component, ColumnarComponent):
            return None
        if not schema_supports_direct(component.schema, spec.paths):
            return None
        metadata = component.metadata
        if metadata.record_count == 0 or metadata.min_key is None:
            continue
        spans.append((metadata.min_key, metadata.max_key, component))
    try:
        spans.sort(key=lambda span: span[0])
        for (_, high, _), (low, _, _) in zip(spans, spans[1:]):
            if not high < low:
                return None
    except TypeError:
        return None  # cross-type keys: ranges are inconclusive
    return [component for _, _, component in spans]


# ======================================================================================
# Sources
# ======================================================================================


def partition_batches(
    tree,
    snapshot,
    variable: str,
    fields,
    spec,
    batch_size: int,
    allow_direct: bool,
) -> Iterator[ColumnBatch]:
    """Batches for one partition; takes ownership of the pinned snapshot."""
    components = None
    if allow_direct and spec is not None and spec.paths is not None:
        components = _direct_components(snapshot, spec)
    if components is None:
        # Reconciled row scan (closes the snapshot itself), batched row-wise.
        rows = tree._scan_snapshot(snapshot, fields, spec)
        return _row_batches(rows, variable, batch_size)
    return _direct_partition_batches(snapshot, components, spec, variable, batch_size)


def _row_batches(
    rows: Iterable[Tuple[object, dict]], variable: str, batch_size: int
) -> Iterator[ColumnBatch]:
    documents: list = []
    for _, document in rows:
        documents.append(document)
        if len(documents) >= batch_size:
            yield ColumnBatch(len(documents), {variable: documents})
            documents = []
    if documents:
        yield ColumnBatch(len(documents), {variable: documents})


def _direct_partition_batches(
    snapshot, components, spec, variable: str, batch_size: int
) -> Iterator[ColumnBatch]:
    try:
        for component in components:
            yield from _component_batches(component, spec, variable, batch_size)
    finally:
        snapshot.close()


def _component_batches(
    component: ColumnarComponent, spec, variable: str, batch_size: int
) -> Iterator[ColumnBatch]:
    schema = component.schema
    compiled = (
        compile_predicates(schema, spec.predicates) if spec.predicates else []
    )
    array_nodes = {path: direct_array_node(schema, path) for path in spec.paths}
    # An array path reads every column below the array: exactly the columns
    # whose field names extend the path, since only objects lead to it.
    value_columns: Dict[FieldPath, list] = {
        path: [
            column
            for column in schema.columns
            if field_name_steps(column.path) == tuple(path.steps)
        ]
        if node is None
        else schema.leaf_columns(node)
        for path, node in array_nodes.items()
    }
    pk_column = schema.pk_column
    needs_keys = any(
        column.is_primary_key
        for columns in value_columns.values()
        for column in columns
    )
    for group in component.groups:
        record_count = group.record_count
        if record_count == 0:
            continue
        if compiled and any(not cp.group_may_match(group) for cp in compiled):
            continue  # min/max pruning: nothing decoded, not even the keys
        antimatter_count = getattr(group, "antimatter_count", None)
        needs_flags = antimatter_count is None or antimatter_count > 0
        needed: Dict[int, object] = {}
        for cp in compiled:
            for column in cp.columns:
                needed[column.column_id] = column
        for columns in value_columns.values():
            for column in columns:
                needed[column.column_id] = column
        if (needs_flags or needs_keys) and pk_column.column_id not in needed:
            needed[pk_column.column_id] = pk_column
        streams = group.read_columns(list(needed.values())) if needed else {}
        keys: Optional[list] = None
        flags: Optional[List[bool]] = None
        if pk_column.column_id in streams:
            pk_defs, keys = streams[pk_column.column_id]
            if needs_flags:
                flags = [definition_level == 0 for definition_level in pk_defs]
        passes: Optional[List[bool]] = None
        for cp in compiled:
            vector = cp.evaluate(streams, record_count)
            passes = (
                vector
                if passes is None
                else [a and b for a, b in zip(passes, vector)]
            )
        if passes is None and flags is None:
            selection: Optional[List[int]] = None
            selected_count = record_count
        else:
            selection = [
                index
                for index in range(record_count)
                if (passes is None or passes[index])
                and (flags is None or not flags[index])
            ]
            selected_count = len(selection)
            if not selected_count:
                continue
        columns_data: Dict[Tuple[str, FieldPath], list] = {}
        for path, columns in value_columns.items():
            vector = _path_vector(
                schema, array_nodes[path], columns, streams, keys, record_count
            )
            if selection is not None:
                vector = kernels.gather(vector, selection)
            columns_data[(variable, path)] = vector
        for start in range(0, selected_count, batch_size):
            end = min(start + batch_size, selected_count)
            yield ColumnBatch(
                end - start,
                {},
                {key: column[start:end] for key, column in columns_data.items()},
            )


def _path_vector(
    schema, array_node, columns, streams, keys, record_count: int
) -> list:
    """One value per record for a path, merged across union branches.

    Array paths go to :func:`array_path_vector` first: an array column's
    value stream holds one value per *element*, so its length says nothing
    about the records.
    """
    if array_node is not None:
        return array_path_vector(schema, array_node, streams, record_count)
    if len(columns) == 1 and not columns[0].is_primary_key:
        column = columns[0]
        defs, values = streams[column.column_id]
        if column.type_tag != TYPE_NULL and len(values) == record_count:
            return list(values)  # fully present: the value stream is the vector
    vector = [MISSING] * record_count
    for column in columns:
        if column.is_primary_key:
            # Key values live with the group header; anti-matter rows get a
            # key too, but those rows are dropped by the selection.
            for index in range(record_count):
                vector[index] = keys[index]
            continue
        defs, values = streams[column.column_id]
        max_def = column.max_def
        if column.type_tag == TYPE_NULL:
            for index, definition_level in enumerate(defs):
                if definition_level == max_def:
                    vector[index] = None
        else:
            value_index = 0
            for index, definition_level in enumerate(defs):
                if definition_level == max_def:
                    vector[index] = values[value_index]
                    value_index += 1
    return vector


def array_path_vector(
    schema: Schema, node: ArrayNode, streams, record_count: int
) -> list:
    """One list (or MISSING) per record for a path ending at ``node``.

    The columnar counterpart of :func:`~repro.core.assembly._assemble_array`
    for the arrays :func:`~repro.query.pushdown.direct_array_node` accepts
    (no nested array, atomic-only unions), built column by column from the
    definition levels instead of record by record.  Below such an array every
    column holds, per record, either one entry under the array's level (the
    array or an ancestor is absent) or one entry per element at or above the
    array's level followed by the record-end delimiter 0, so an entry under
    the level ends a record and everything else is an element entry.
    Per record, exactly as the assembler decides:

    * MISSING when every column places the record below the array level;
    * ``[]`` when every entry is at or below the array level;
    * otherwise one element per entry of the columns that carry elements — a
      column with a single entry at or below the level (back-filled for
      records written before it was discovered) reads as a missing field in
      every element.
    """
    level = node.level
    columns = schema.leaf_columns(node)
    if not columns:
        return [MISSING] * record_count
    spans = []
    for column in columns:
        defs, values = streams[column.column_id]
        ends = [position for position, definition_level in enumerate(defs)
                if definition_level < level]
        if len(ends) != record_count:
            raise SchemaError(
                f"column {column.dotted_path!r} holds {len(ends)} records "
                f"where its group holds {record_count}"
            )
        starts = [0] + [end + 1 for end in ends]
        counts = [end - start for start, end in zip(starts, ends)]
        spans.append((column, defs, values, ends, counts))
    canonical = spans[0][4]
    if any(span[4] != canonical for span in spans):
        canonical = _element_counts(spans, level)
    element_streams: Dict[int, tuple] = {}
    for column, defs, values, _, counts in spans:
        element_defs = [d for d in defs if d >= level]
        element_values = _element_values(column, element_defs, values)
        if counts != canonical:
            element_defs, element_values = _fill_absent(
                element_defs, element_values, counts, canonical, level
            )
        element_streams[column.column_id] = (element_defs, element_values)
    elements = _item_vector(
        schema, node.item, element_streams, sum(canonical)
    )
    check = MISSING in elements
    vector: list = []
    position = 0
    for count in canonical:
        if not count:
            vector.append(MISSING)
            continue
        items = elements[position:position + count]
        position += count
        if check:
            if count == 1 and items[0] is MISSING:
                vector.append([])
                continue
            if MISSING in items:
                raise SchemaError(
                    "array element assembled to MISSING; column streams are "
                    "inconsistent"
                )
        vector.append(items)
    return vector


def _element_counts(spans, level: int) -> List[int]:
    """Per-record element counts when the columns disagree record by record.

    A column with no entry at or above ``level`` (absent), or a single one at
    exactly ``level`` (the ``[]`` marker), carries no element count; every
    other column must agree.  Records where no column carries a count get 1
    for a ``[]`` marker and 0 for MISSING.
    """
    counts: List[int] = []
    for record in range(len(spans[0][4])):
        elements = None
        empty = False
        for column, defs, _, ends, column_counts in spans:
            count = column_counts[record]
            if not count:
                continue
            if count == 1 and defs[ends[record] - 1] == level:
                empty = True
                continue
            if elements is None:
                elements = count
            elif elements != count:
                raise SchemaError(
                    f"column {column.dotted_path!r} disagrees on the element "
                    f"count ({count} vs {elements}) at array depth 1"
                )
        counts.append(elements if elements is not None else int(empty))
    return counts


def _element_values(column: ColumnInfo, element_defs: List[int], values) -> list:
    """One value per element entry: the stored value where present, else MISSING."""
    max_def = column.max_def
    if column.type_tag == TYPE_NULL:
        return [None if d == max_def else MISSING for d in element_defs]
    if len(values) == len(element_defs):
        return values if isinstance(values, list) else list(values)
    iterator = iter(values)
    return [next(iterator) if d == max_def else MISSING for d in element_defs]


def _fill_absent(element_defs, element_values, counts, canonical, level):
    """Re-align a column to the records' element counts.

    Where the column carries no elements for a record that has some, it
    gets one entry per element at the array's own level: a missing field in
    every element.
    """
    defs_out: List[int] = []
    values_out: list = []
    position = 0
    for own, wanted in zip(counts, canonical):
        if own == wanted:
            defs_out.extend(element_defs[position:position + own])
            values_out.extend(element_values[position:position + own])
        else:
            defs_out.extend([level] * wanted)
            values_out.extend([MISSING] * wanted)
        position += own
    return defs_out, values_out


def _item_vector(schema: Schema, node, element_streams, count: int) -> list:
    """The value of ``node`` in every element entry (MISSING where absent).

    Mirrors :func:`~repro.core.assembly._assemble_node` for objects, atomics
    and atomic unions: an atomic is its value where its definition level
    equals its own; a union is its first present branch; an object is present
    iff one of its leaves reaches the object's level, and holds its present
    children in schema order.
    """
    if isinstance(node, AtomicNode):
        column = node.column
        if column is None or column.column_id not in element_streams:
            return [MISSING] * count
        return element_streams[column.column_id][1]
    if isinstance(node, UnionNode):
        merged = None
        for branch in node.branches.values():
            vector = _item_vector(schema, branch, element_streams, count)
            merged = vector if merged is None else [
                first if first is not MISSING else second
                for first, second in zip(merged, vector)
            ]
        return [MISSING] * count if merged is None else merged
    if not isinstance(node, ObjectNode):
        raise SchemaError(f"cannot build schema node of kind {node.kind!r} directly")
    leaf_defs = [
        element_streams[column.column_id][0]
        for column in schema.leaf_columns(node)
        if column.column_id in element_streams
    ]
    if not leaf_defs:
        return [MISSING] * count
    level = node.level
    names = list(node.children)
    vectors = [
        _item_vector(schema, child, element_streams, count)
        for child in node.children.values()
    ]
    if any(min(defs, default=level) >= level for defs in leaf_defs):
        if not any(MISSING in vector for vector in vectors):
            return [dict(zip(names, row)) for row in zip(*vectors)]
        present = None
    else:
        present = [False] * count
        for defs in leaf_defs:
            present = [
                flag or d >= level for flag, d in zip(present, defs)
            ]
    return [
        {name: value for name, value in zip(names, row) if value is not MISSING}
        if present is None or present[index]
        else MISSING
        for index, row in enumerate(zip(*vectors))
    ]


def source_batches(
    store, plan: QueryPlan, batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[ColumnBatch]:
    """The plan's source as column batches (direct where provably safe)."""
    source = plan.source
    if isinstance(source, DataScanNode):
        dataset = store.dataset(source.dataset)
        pool = getattr(store, "scan_executor", None)
        use_parallel = (
            source.parallel if source.parallel is not None else pool is not None
        )
        return dataset.scan_batches(
            source.variable,
            fields=source.fields,
            pushdown=source.pushdown,
            batch_size=batch_size,
            direct=plan_supports_direct(plan),
            executor=pool if (use_parallel and pool is not None) else None,
        )
    return _binding_batches(source_rows(store, plan), batch_size)


def _binding_batches(rows: Iterable[dict], batch_size: int) -> Iterator[ColumnBatch]:
    chunk: List[dict] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield ColumnBatch.from_rows(chunk)
            chunk = []
    if chunk:
        yield ColumnBatch.from_rows(chunk)


# ======================================================================================
# Pipelining operators on batches
# ======================================================================================


def run_batch_pipeline(
    batches: Iterable[ColumnBatch], pipeline: List
) -> Iterator[ColumnBatch]:
    """Apply ASSIGN/UNNEST/FILTER vector-at-a-time, batch by batch.

    When a trace is active, one span per pipeline operator (rows out and
    cumulative operator time) is recorded as the generator finishes.
    """
    tracing = current_trace() is not None
    counts = [0] * len(pipeline)
    elapsed = [0.0] * len(pipeline)
    try:
        yield from _run_batch_pipeline(batches, pipeline, tracing, counts,
                                       elapsed)
    finally:
        if tracing:
            for op, rows_out, seconds in zip(pipeline, counts, elapsed):
                record_span(op_span_name(op), seconds, rows_out=rows_out)


def _run_batch_pipeline(
    batches: Iterable[ColumnBatch],
    pipeline: List,
    tracing: bool,
    counts: List[int],
    elapsed: List[float],
) -> Iterator[ColumnBatch]:
    for batch in batches:
        for index, op in enumerate(pipeline):
            if batch.length == 0:
                break
            started = time.perf_counter() if tracing else 0.0
            if isinstance(op, FilterNode):
                mask = op.predicate.evaluate_batch(batch)
                selection = kernels.selection_from_mask(mask)
                if len(selection) != batch.length:
                    batch = batch.take(selection)
            elif isinstance(op, AssignNode):
                batch = batch.with_var(
                    op.variable, op.expression.evaluate_batch(batch)
                )
            elif isinstance(op, UnnestNode):
                vector = op.expression.evaluate_batch(batch)
                indices: List[int] = []
                items: list = []
                for row_index, value in enumerate(vector):
                    if isinstance(value, (list, tuple)):
                        for item in value:
                            indices.append(row_index)
                            items.append(item)
                batch = batch.take(indices, extra_vars={op.variable: items})
            elif isinstance(op, JoinNode):
                vector = op.probe_key.evaluate_batch(batch)
                indices = []
                items = []
                for row_index, value in enumerate(vector):
                    key = join_key(value)
                    matches = op.table.get(key) if key is not None else None
                    if not matches:
                        continue
                    for document in matches:
                        indices.append(row_index)
                        items.append(document)
                batch = batch.take(indices, extra_vars={op.variable: items})
            if tracing:
                elapsed[index] += time.perf_counter() - started
                counts[index] += batch.length
        if batch.length:
            yield batch


# ======================================================================================
# Breakers on batches
# ======================================================================================


def _batch_group_by(batches: Iterable[ColumnBatch], node: GroupByNode) -> List[dict]:
    groups: Dict[tuple, List[_Aggregator]] = {}
    key_values: Dict[tuple, tuple] = {}
    for batch in batches:
        key_vectors = [
            expression.evaluate_batch(batch) for _, expression in node.keys
        ]
        agg_vectors = [
            None if expression is None else expression.evaluate_batch(batch)
            for _, _, expression in node.aggregates
        ]
        for index in range(batch.length):
            raw = tuple(vector[index] for vector in key_vectors)
            key = tuple(_hashable(value) for value in raw)
            aggregators = groups.get(key)
            if aggregators is None:
                aggregators = [
                    _Aggregator(function) for _, function, _ in node.aggregates
                ]
                groups[key] = aggregators
                key_values[key] = raw
            else:
                kept = key_values[key]
                # Equal atomic types rank equally, so only a type change or a
                # container (``[1]`` vs ``[1.0]``) can lower the rank.
                for value, kept_value in zip(raw, kept):
                    if type(value) is not type(kept_value) or isinstance(
                        value, (list, tuple, dict)
                    ):
                        if rep_ranks(raw) < rep_ranks(kept):
                            key_values[key] = raw
                        break
            for aggregator, vector in zip(aggregators, agg_vectors):
                aggregator.add(None if vector is None else vector[index])
    results = []
    for key, aggregators in groups.items():
        row = {}
        for (name, _), value in zip(node.keys, key_values[key]):
            row[name] = None if value is MISSING else value
        for (name, _, _), aggregator in zip(node.aggregates, aggregators):
            row[name] = aggregator.result()
        results.append(row)
    return results


def _batch_aggregate(batches: Iterable[ColumnBatch], node: AggregateNode) -> List[dict]:
    aggregators = [_Aggregator(function) for _, function, _ in node.aggregates]
    specs = list(zip(aggregators, node.aggregates))
    for batch in batches:
        for aggregator, (_, _, expression) in specs:
            if expression is None:
                # COUNT(*) counts rows; other aggregates of the missing
                # expression add None per row, which they skip anyway.
                if aggregator.function == "count":
                    aggregator.count += batch.length
            else:
                kernels.aggregate_add_many(
                    aggregator, expression.evaluate_batch(batch)
                )
    return [
        {
            name: aggregator.result()
            for (name, _, _), aggregator in zip(node.aggregates, aggregators)
        }
    ]


def _batch_project(batches: Iterable[ColumnBatch], node: ProjectNode) -> List[dict]:
    rows: List[dict] = []
    for batch in batches:
        vectors = [
            (name, expression.evaluate_batch(batch))
            for name, expression in node.columns
        ]
        for index in range(batch.length):
            rows.append(
                {name: _none_if_missing(vector[index]) for name, vector in vectors}
            )
    return rows


def run_batch_breakers(batches: Iterable[ColumnBatch], breakers: List) -> List[dict]:
    """Run the breaker suffix; the first breaker consumes batches natively."""
    if not breakers:
        return [row for batch in batches for row in batch.iter_rows()]
    first = breakers[0]
    started = time.perf_counter()
    if isinstance(first, GroupByNode):
        rows = _batch_group_by(batches, first)
    elif isinstance(first, AggregateNode):
        rows = _batch_aggregate(batches, first)
    elif isinstance(first, ProjectNode):
        rows = _batch_project(batches, first)
    else:
        # ORDER BY / LIMIT first: materialize rows and share the engine code.
        rows = [row for batch in batches for row in batch.iter_rows()]
        return run_breakers(rows, breakers)
    if current_trace() is not None:
        # The natively-consumed first breaker never reaches run_breakers, so
        # its span (vectorized=True) is recorded here.
        record_span(
            op_span_name(first),
            time.perf_counter() - started,
            rows_out=len(rows),
            vectorized=True,
        )
    return run_breakers(rows, breakers[1:])


# ======================================================================================
# Entry point
# ======================================================================================


def run_batch_plan(
    store,
    plan: QueryPlan,
    fused: bool = False,
    batch_size: Optional[int] = None,
) -> List[dict]:
    """Execute a plan end-to-end over column batches.

    ``fused=False`` is the vector-at-a-time ``"batch"`` executor;
    ``fused=True`` is the ``"codegen"`` executor, which compiles the whole
    pipelining prefix into one generated per-batch function
    (:func:`repro.query.codegen.run_generated_batches`).
    """
    size = batch_size or DEFAULT_BATCH_SIZE
    batches = source_batches(store, plan, size)
    tracing = current_trace() is not None
    if tracing:
        batches = traced_batch_source(batches, plan.source)
    if fused:
        from .codegen import run_generated_batches

        if tracing:
            # The fused pipeline runs as one generated function, so per-op
            # timings are unobservable; marker spans keep every plan node
            # represented exactly once in the trace.
            for op in plan.pipeline:
                record_span(op_span_name(op), 0.0, fused=True)
        piped = run_generated_batches(batches, plan)
    else:
        piped = run_batch_pipeline(batches, plan.pipeline)
    return run_batch_breakers(piped, plan.breakers)
