"""Assembly-free array paths: direct batch scans that rebuild arrays from
definition levels.

A direct scan serves a pruned path that ends exactly at one array (reached
through objects only, no nested array, atomic-only unions) by building each
record's list column by column (:func:`~repro.query.batch_executor.array_path_vector`)
instead of assembling the record.  Three layers of evidence:

* a hypothesis property: over random heterogeneous documents written as
  APAX/AMAX components, the builder's per-record values equal
  ``get_path(assembled_document, path)`` exactly — types, key order and all;
* end to end: the Figure 14 ``sensors``/``wos`` SQL++ queries under the batch
  and codegen executors, pushdown on and off, match the interpreted oracle;
* a meta-test: the UNNEST queries over plain arrays really emit direct
  batches, and the shapes that need whole records stay row-backed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.queries import SQLPP_QUERY_SUITES
from repro.columnar import AmaxComponentBuilder, ApaxComponentBuilder
from repro.core import RecordAssembler, Schema, cursor_group
from repro.datasets.generators import make_generator
from repro.model.path import FieldPath, get_path
from repro.model.values import MISSING
from repro.query.batch_executor import _path_vector, source_batches
from repro.query.pushdown import direct_array_node, schema_supports_direct
from repro.sqlpp import compile_query
from repro.storage import BufferCache, StorageDevice
from repro.store import Datastore, StoreConfig

from conftest import seeded_rng

ARRAY_PATHS = (FieldPath.of("arr"), FieldPath.of("w.arr"))


# ======================================================================================
# The builder against the record assembler
# ======================================================================================


def _build(layout: str, entries, group_records: int):
    """One component over ``entries`` with several small leaf groups."""
    schema = Schema()
    cache = BufferCache(capacity_pages=512)
    if layout == "apax":
        # A tiny fill fraction shrinks the per-page budget to a few records.
        device = StorageDevice(page_size=4096)
        builder = ApaxComponentBuilder(
            "c1", device, cache, schema, fill_fraction=0.004 * group_records
        )
    else:
        device = StorageDevice(page_size=16 * 1024)
        builder = AmaxComponentBuilder(
            "c1", device, cache, schema, max_records_per_leaf=group_records
        )
    return builder.build(entries)


def _strict(value) -> str:
    """A comparison key that tells ``1``/``1.0``/``True`` and key orders apart."""
    return "MISSING" if value is MISSING else repr(value)


def check_builder_matches_assembly(component) -> int:
    """Compare every eligible array path of every group; returns how many
    (path, group) pairs were checked."""
    schema = component.schema
    checked = 0
    for group in component.groups:
        streams = group.read_columns(schema.columns)
        assembler = RecordAssembler(schema, cursor_group(schema.columns, streams))
        records = list(assembler)
        assert len(records) == group.record_count
        for path in ARRAY_PATHS:
            node = direct_array_node(schema, path)
            if node is None:
                continue
            # The scan's own dispatch: array columns must reach the array
            # builder even when their value stream is as long as the group.
            columns = schema.leaf_columns(node)
            vector = _path_vector(
                schema, node, columns, streams, None, group.record_count
            )
            assert len(vector) == group.record_count
            for (key, antimatter, document), built in zip(records, vector):
                expected = MISSING if antimatter else get_path(document, path)
                assert _strict(built) == _strict(expected), (path, key, document)
            checked += 1
    return checked


atomic_items = st.one_of(st.none(), st.integers(-3, 3))
union_scalars = st.one_of(
    st.none(), st.integers(-3, 3), st.text(alphabet="ab", max_size=2), st.booleans()
)
object_items = st.fixed_dictionaries(
    {},
    optional={
        "x": union_scalars,
        "y": st.integers(0, 9),
        "o": st.fixed_dictionaries(
            {}, optional={"p": st.integers(0, 3), "q": st.booleans()}
        ),
        "z": st.floats(allow_nan=False, allow_infinity=False, width=32),
    },
).filter(lambda item: set(item) - {"o"} or item.get("o"))
# An item with no atomic leaf at all (``{}``, ``{"o": {}}``) cannot be
# reassembled: the record assembler rejects it (documented, as in Parquet).
#: Mixed object/scalar items make a union with an object branch: never direct.
mixed_items = st.one_of(st.integers(0, 3), object_items)


def _arrays(items):
    return st.one_of(
        st.just(MISSING),
        st.just([]),
        st.lists(items, min_size=1, max_size=1),
        st.lists(items, min_size=1, max_size=4),
    )


@st.composite
def documents(draw):
    items = draw(st.sampled_from([atomic_items, object_items, mixed_items]))
    arrays = _arrays(items)
    count = draw(st.integers(1, 14))
    docs = []
    if draw(st.booleans()):
        # Establish a non-empty item type first: a leading ``[]`` makes the
        # item a null leaf, which later objects turn into a union.
        docs.append({"arr": draw(st.lists(items, min_size=1, max_size=3))})
    for _ in range(count):
        doc = {}
        value = draw(arrays)
        if value is not MISSING:
            doc["arr"] = value
        wrapped = draw(st.sampled_from(["absent", "empty", "array"]))
        if wrapped == "empty":
            doc["w"] = {}
        elif wrapped == "array":
            nested = draw(arrays)
            doc["w"] = {} if nested is MISSING else {"arr": nested}
        docs.append(doc)
    entries = []
    for key, doc in enumerate(docs):
        if draw(st.integers(0, 9)) == 0:
            entries.append((key, True, None))  # anti-matter
        else:
            entries.append((key, False, dict(doc, id=key)))
    return entries


@pytest.mark.parametrize("layout", ["apax", "amax"])
@given(entries=documents(), group_records=st.integers(1, 6))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_builder_matches_assembled_documents(layout, entries, group_records):
    component = _build(layout, entries, group_records)
    check_builder_matches_assembly(component)


def _object_entries(rows):
    return [(key, False, dict(doc, id=key)) for key, doc in enumerate(rows)]


@pytest.mark.parametrize("layout", ["apax", "amax"])
@pytest.mark.parametrize(
    "rows",
    [
        # Item count == record count: the value stream is as long as the
        # group, which must not be mistaken for one value per record.
        [{"arr": [i]} for i in range(6)],
        [{"arr": [{"x": i}]} for i in range(6)],
        # ``[]`` first: the item is a null leaf, then ints join the union.
        [{"arr": []}, {"arr": [None, 1]}, {"arr": [2]}, {"arr": [None]}, {}],
        # A column discovered mid-component: ``y`` is back-filled (one entry
        # at definition level 0) for records whose arrays hold elements.
        [{"arr": [{"x": 1}, {"x": 2}]}, {"arr": [{"x": 3}]},
         {"arr": [{"x": 4, "y": 5}, {"y": 6}]}, {"arr": []}, {"w": {}}],
        # Nested objects inside items, present, empty and absent.
        [{"arr": [{"o": {"p": 1}}, {"o": {}}, {"x": None}]},
         {"arr": [{"o": {"q": True}, "x": "a"}]}, {"w": {"arr": [{"y": 1}]}}],
    ],
    ids=["int-items-count-eq", "object-items-count-eq", "empty-first-union",
         "backfill", "nested-objects"],
)
def test_builder_matches_assembled_documents_examples(layout, rows):
    for group_records in (1, 2, 100):
        component = _build(layout, _object_entries(rows), group_records)
        assert check_builder_matches_assembly(component) > 0


def test_eligibility_is_decided_on_the_schema_tree():
    schema = Schema()
    for doc in (
        {"id": 1, "flat": [1, None], "objs": [{"a": 1, "b": {"c": "x"}}],
         "nested": [[1]], "inner": [{"deep": [1]}],
         "o": {"arr": [1]}, "u": [1], "mixed": [1, {"a": 1}]},
        {"id": 2, "u": 5, "addr": {"name": {"city": "x"}}},
        {"id": 3, "addr": {"name": [{"city": "y"}]}},
    ):
        schema.observe(doc)
    eligible = ["flat", "objs", "o.arr"]
    rejected = [
        "nested",        # nested arrays
        "inner",         # an array inside the items
        "u",             # a union wrapping an existing array
        "mixed",         # an item union with an object branch
        "addr.name",     # union (object | array) at the array
        "objs.a",        # reaches past an array without [*]
        "objs[*].a",     # array step in the path
        "o",             # an object above the array
        "missing",       # no such node
    ]
    for path in eligible:
        assert direct_array_node(schema, FieldPath.of(path)) is not None, path
        assert schema_supports_direct(schema, [FieldPath.of(path)]), path
    for path in rejected:
        assert direct_array_node(schema, FieldPath.of(path)) is None, path
    for path in rejected[:-1]:
        assert not schema_supports_direct(schema, [FieldPath.of(path)]), path
    # No column at all at the path: every record reads MISSING (flat rule).
    assert schema_supports_direct(schema, [FieldPath.of("missing")])


# ======================================================================================
# End to end: Figure 14 queries against the interpreted oracle
# ======================================================================================

LAYOUTS = ("open", "vector", "apax", "amax")
SIZES = {"sensors": 240, "wos": 120, "tweet_1": 80}


@pytest.fixture(scope="module", params=LAYOUTS)
def figure14_store(request):
    """Each dataset flushed twice in disjoint key ranges (so direct scans
    engage on the columnar layouts), with small leaf groups."""
    store = Datastore(StoreConfig(partitions_per_node=2, amax_max_records_per_leaf=50))
    for name, size in SIZES.items():
        documents = make_generator(name, size, seed=13).documents()
        dataset = store.create_dataset(name, layout=request.param)
        half = len(documents) // 2
        dataset.insert_many(documents[:half])
        dataset.flush_all()
        dataset.insert_many(documents[half:])
        dataset.flush_all()
    yield request.param, store
    store.close()


def _queries(*datasets):
    return [
        (name, text.format(dataset=dataset))
        for dataset in datasets
        for name, text in SQLPP_QUERY_SUITES[dataset].items()
    ]


def _canonical(rows):
    return sorted(repr(sorted(row.items())) for row in rows)


@pytest.mark.parametrize("name, text", _queries("sensors", "wos"))
def test_figure14_queries_match_oracle(figure14_store, name, text):
    layout, store = figure14_store
    oracle = _canonical(store.query(text, executor="interpreted"))
    assert oracle, name
    for executor in ("batch", "codegen"):
        for pushdown in (True, False):
            got = _canonical(store.query(text, executor=executor, pushdown=pushdown))
            assert got == oracle, (layout, name, executor, pushdown)


def test_heterogeneous_unnest_matches_oracle():
    """Random arrays (missing, empty, nulls, back-filled item fields, deletes)
    through full UNNEST queries on every executor."""
    rng = seeded_rng(0xA77A)

    def item(key):
        # ``x`` is a string/int/null union; ``z`` shows up only from key 40
        # on (a back-filled column); at least one field is present.
        fields = {
            "x": rng.choice([rng.randint(0, 4), None, "s"]),
            "y": rng.choice([rng.randint(0, 9), None]),
            "z": rng.randint(0, 3),
        }
        names = [name for name in ("x", "y") if rng.random() < 0.7] or ["y"]
        if key > 40 and rng.random() < 0.5:
            names.append("z")
        return {name: fields[name] for name in names}

    def document(key):
        doc = {"id": key}
        if key < 20:
            # Each partition sees object items before any ``[]``: a leading
            # ``[]`` types the items as null, and later objects then make an
            # object/null union, which (correctly) needs the row scan.
            doc["arr"] = [item(key) for _ in range(rng.randint(1, 3))]
        elif rng.random() < 0.7:
            doc["arr"] = [item(key) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            doc["tags"] = [rng.choice([None, rng.randint(0, 3)])
                           for _ in range(rng.randint(0, 3))]
        return doc

    queries = (
        "SELECT u.x AS x, COUNT(*) AS c FROM d AS t UNNEST t.arr AS u GROUP BY u.x;",
        "SELECT u AS u, COUNT(*) AS c FROM d AS t UNNEST t.tags AS u GROUP BY u;",
        "SELECT t.id AS id, u AS u FROM d AS t UNNEST t.arr AS u WHERE t.id >= 10;",
        "SELECT COUNT(*) AS c, MAX(u.y) AS m FROM d AS t UNNEST t.arr AS u;",
    )
    for layout in ("apax", "amax"):
        store = Datastore(StoreConfig(partitions_per_node=2, amax_max_records_per_leaf=20))
        dataset = store.create_dataset("d", layout=layout)
        dataset.insert_many([document(key) for key in range(0, 90)])
        dataset.flush_all()
        # Deletes before the flush: anti-matter inside a component whose key
        # range stays disjoint from the others, so the scan still goes direct.
        dataset.insert_many([document(key) for key in range(90, 160)])
        for key in range(90, 160, 7):
            dataset.delete(key)
        dataset.flush_all()
        dataset.insert_many([document(key) for key in range(160, 220)])
        dataset.flush_all()
        try:
            plan = compile_query(queries[0]).query.optimized_plan(store)
            assert all(batch.paths for batch in source_batches(store, plan))
            for text in queries:
                oracle = _canonical(store.query(text, executor="interpreted"))
                for executor in ("batch", "codegen"):
                    for pushdown in (True, False):
                        got = _canonical(
                            store.query(text, executor=executor, pushdown=pushdown)
                        )
                        assert got == oracle, (layout, text, executor, pushdown)
        finally:
            store.close()


# ======================================================================================
# Meta-test: which queries scan direct
# ======================================================================================

DIRECT_QUERIES = ("sensors_q1", "sensors_q2", "sensors_q3", "sensors_q4", "wos_q2")
ROW_BACKED_QUERIES = ("wos_q3", "wos_q4", "tweet1_q3")


@pytest.mark.parametrize(
    "name, text",
    [
        (name, text)
        for name, text in _queries("sensors", "wos", "tweet_1")
        if name in DIRECT_QUERIES + ROW_BACKED_QUERIES
    ],
)
def test_array_queries_scan_direct_on_columnar_layouts(figure14_store, name, text):
    layout, store = figure14_store
    plan = compile_query(text).query.optimized_plan(store)
    batches = list(source_batches(store, plan))
    assert batches, name
    direct = [batch for batch in batches if batch.paths]
    if layout in ("apax", "amax") and name in DIRECT_QUERIES:
        assert len(direct) == len(batches), name
    else:
        assert not direct, name
