"""Unit tests for the APAX and AMAX component layouts."""

from __future__ import annotations

import pytest

from repro.columnar import (
    AmaxComponentBuilder,
    ApaxComponentBuilder,
    decode_column_chunk,
    encode_column_chunk,
)
from repro.columnar.common import value_prefix
from repro.core import Schema, RecordShredder
from repro.core.columns import ShreddedColumn
from repro.model import documents_equal
from repro.storage import BufferCache, StorageDevice


def documents(count: int):
    for i in range(count):
        yield {
            "id": i,
            "kind": "even" if i % 2 == 0 else "odd",
            "metrics": {"value": i * 10, "ratio": i / 7.0},
            # Record 0 establishes the element type; later records may have
            # empty arrays (a documented corner of the columnar formats).
            "tags": [f"tag{i % 3}"] * ((i + 1) % 3),
            "text": f"some text payload {i} " * 3,
        }


def build_component(layout: str, count: int = 300, page_size: int = 16 * 1024, **kwargs):
    device = StorageDevice(page_size=page_size)
    cache = BufferCache(capacity_pages=256)
    schema = Schema()
    entries = [(doc["id"], False, doc) for doc in documents(count)]
    if layout == "apax":
        builder = ApaxComponentBuilder("c1", device, cache, schema, **kwargs)
    else:
        builder = AmaxComponentBuilder("c1", device, cache, schema, **kwargs)
    component = builder.build(entries)
    return component, schema, device


class TestColumnChunk:
    def test_round_trip(self):
        schema = Schema()
        shredder = RecordShredder(schema)
        for doc in documents(50):
            shredder.shred(doc["id"], doc)
        for shredded in shredder.finish().values():
            payload = encode_column_chunk(shredded)
            defs, values, _ = decode_column_chunk(shredded.column, payload)
            assert defs == shredded.defs
            assert values == shredded.values

    def test_empty_column(self):
        schema = Schema()
        column = schema.pk_column
        shredded = ShreddedColumn(column)
        payload = encode_column_chunk(shredded)
        defs, values, _ = decode_column_chunk(column, payload)
        assert defs == [] and values == []


@pytest.mark.parametrize("layout", ["apax", "amax"])
class TestComponentRoundTrip:
    def test_cursor_reads_all_records(self, layout):
        component, schema, _ = build_component(layout)
        cursor = component.cursor()
        seen = {}
        while cursor.advance():
            assert not cursor.is_antimatter
            seen[cursor.key] = cursor.document()
        originals = {doc["id"]: doc for doc in documents(300)}
        assert len(seen) == 300
        for key, doc in originals.items():
            assert documents_equal(seen[key], doc), key

    def test_point_lookup(self, layout):
        component, schema, _ = build_component(layout, count=200)
        found = component.point_lookup(123)
        assert found is not None
        antimatter, doc = found
        assert not antimatter
        assert doc["metrics"]["value"] == 1230
        assert component.point_lookup(99_999) is None

    def test_iter_key_entries_touches_only_keys(self, layout):
        component, schema, device = build_component(layout, count=200)
        before = device.stats.pages_read
        keys = [key for key, _ in component.iter_key_entries()]
        assert keys == sorted(keys)
        assert len(keys) == 200

    def test_projection_reads_fewer_or_equal_pages(self, layout):
        component, schema, device = build_component(layout, count=400)
        cache = component.buffer_cache

        def pages_for(fields):
            start = device.stats.pages_read + cache.hits
            cursor = component.cursor(fields)
            while cursor.advance():
                cursor.document()
            return device.stats.pages_read + cache.hits - start

        narrow = pages_for(["kind"])
        wide = pages_for(None)
        assert narrow <= wide
        if layout == "amax":
            # AMAX reads only the projected columns' megapages.
            assert narrow < wide


def keyed_document(key, position: int) -> dict:
    return {"id": key, "label": f"document number {key} " * 3, "n": position}


def build_keyed_component(layout: str, keys, deleted=()):
    """A multi-group component over ``keys`` (sorted) with anti-matter for ``deleted``."""
    device = StorageDevice(page_size=1024)
    cache = BufferCache(capacity_pages=256)
    schema = Schema()
    entries = []
    for key in sorted(keys):
        if key in deleted:
            entries.append((key, True, None))
        else:
            entries.append((key, False, keyed_document(key, len(entries))))
    if layout == "apax":
        builder = ApaxComponentBuilder("c1", device, cache, schema)
    else:
        builder = AmaxComponentBuilder("c1", device, cache, schema, max_records_per_leaf=40)
    return builder.build(entries)


@pytest.mark.parametrize("layout", ["apax", "amax"])
@pytest.mark.parametrize(
    "keys, absent",
    [
        ([i * 3 for i in range(200)], [-1, 1, 2, 301, 600]),
        ([f"user-{i:04d}" for i in range(0, 400, 2)], ["user-", "user-0001", "user-0121", "zz"]),
    ],
    ids=["int-keys", "str-keys"],
)
class TestBisectedPointLookup:
    def test_first_last_absent_and_antimatter_keys(self, layout, keys, absent):
        deleted = {keys[5], keys[-1]}
        component = build_keyed_component(layout, keys, deleted)
        groups = component.groups
        assert len(groups) > 2
        live = [key for key in keys if key not in deleted]
        boundary_keys = {group.min_key for group in groups} | {group.max_key for group in groups}
        for key in sorted(boundary_keys) + live[::17]:
            found = component.point_lookup(key)
            assert found is not None, key
            antimatter, document = found
            if key in deleted:
                assert (antimatter, document) == (True, None)
            else:
                assert not antimatter
                assert document == keyed_document(key, keys.index(key))
        for key in deleted:
            assert component.point_lookup(key) == (True, None)
        # Absent keys fall before, between (inside a group's range or in the
        # gap between two groups) or after every stored key.
        for earlier, later in zip(groups, groups[1:]):
            absent.append(earlier.max_key + (1 if isinstance(keys[0], int) else "!"))
        for key in absent:
            assert key not in keys
            assert component.point_lookup(key) is None, key

    def test_projected_lookup_keeps_the_stored_key(self, layout, keys, absent):
        component = build_keyed_component(layout, keys)
        key = keys[len(keys) // 2]
        antimatter, document = component.point_lookup(key, fields=["label"])
        assert not antimatter
        assert document == {"id": key, "label": keyed_document(key, 0)["label"]}


class TestApaxPaging:
    def test_multiple_pages_and_groups(self):
        component, schema, _ = build_component("apax", count=600, page_size=8 * 1024)
        assert len(component.groups) > 1
        assert component.record_count == 600
        counts = [group.record_count for group in component.groups]
        assert sum(counts) == 600
        # Every group's page fits in the configured page size.
        assert all(
            component.file.read_page(group.page_id) is not None
            for group in component.groups
        )

    def test_group_min_max_keys(self):
        component, schema, _ = build_component("apax", count=300, page_size=8 * 1024)
        previous_max = None
        for group in component.groups:
            assert group.min_key <= group.max_key
            if previous_max is not None:
                assert group.min_key > previous_max
            previous_max = group.max_key


class TestAmaxLayout:
    def test_mega_leaf_respects_record_cap(self):
        component, schema, _ = build_component(
            "amax", count=500, max_records_per_leaf=100
        )
        assert len(component.groups) == 5
        assert all(group.record_count == 100 for group in component.groups)

    def test_page_zero_has_prefixes(self):
        component, schema, _ = build_component("amax", count=100)
        group = component.groups[0]
        by_path = {column.dotted_path: column for column in component.schema.columns}
        kind = by_path["kind"]
        min_prefix, max_prefix = group.column_prefixes(kind)
        assert min_prefix.startswith(b"even")
        assert max_prefix.startswith(b"odd")

    def test_count_star_reads_only_page_zero(self):
        component, schema, device = build_component("amax", count=400)
        cache = component.buffer_cache
        start = device.stats.pages_read + cache.hits
        total = sum(1 for _ in component.iter_key_entries())
        pages_touched = device.stats.pages_read + cache.hits - start
        assert total == 400
        # One metadata/page-zero read per mega leaf (plus nothing else).
        assert pages_touched <= len(component.groups)

    def test_empty_page_tolerance_bounds(self):
        with pytest.raises(Exception):
            from repro.store import StoreConfig

            config = StoreConfig(amax_empty_page_tolerance=1.5)
            config.validate()


class TestValuePrefix:
    def test_int_ordering(self):
        assert value_prefix(1) < value_prefix(2) < value_prefix(1000)
        assert value_prefix(-5) < value_prefix(3)

    def test_float_ordering(self):
        assert value_prefix(-2.5) < value_prefix(0.0) < value_prefix(3.25)

    def test_string_prefix(self):
        assert value_prefix("alpha") < value_prefix("beta")
        assert len(value_prefix("a very long string indeed")) == 8
