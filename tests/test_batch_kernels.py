"""Property-style unit tests for the batch-executor kernels and batch format.

Every kernel in :mod:`repro.query.kernels` must be *bit-identical* to the
scalar code it replaces — the NumPy fast paths may only engage when the
answer provably matches the pure-Python fold.  These tests feed each kernel
the adversarial vectors the fast paths special-case (booleans next to ints,
float64-inexact integers, ints beyond int64, NaN, MISSING/null, mixed types,
empty and sub-threshold vectors) and assert equality against the scalar
oracle under both kernel modes (``kernels.use_numpy`` toggled on and off).

The batch-format tests cover :class:`~repro.query.batch.ColumnBatch`'s
row/column pivots and path resolution, and the vectorized GROUP BY against
groups that straddle batch boundaries.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.model.errors import QueryError
from repro.model.path import FieldPath
from repro.model.values import MISSING
from repro.query import kernels
from repro.query.batch import ColumnBatch
from repro.query.batch_executor import _batch_aggregate, _batch_group_by
from repro.query.executor import _Aggregator, _run_aggregate, _run_group_by
from repro.query.expressions import Field, Var, compare_values
from repro.query.plan import AggregateNode, GroupByNode

from conftest import seeded_rng

OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Adversarial vectors (each ≥ MIN_VECTOR_LENGTH where the fast path matters).
VECTORS = {
    "ints": [i * 3 - 20 for i in range(40)],
    "floats": [i * 0.7 - 9.5 for i in range(40)],
    "mixed-numeric": [i if i % 2 else i * 1.5 for i in range(40)],
    "bools-in-ints": [True if i % 7 == 0 else i for i in range(40)],
    "strings": [f"s{i % 5}" for i in range(40)],
    "mixed-types": [3, "x", None, MISSING, True, 2.5, [1], {"a": 1}] * 5,
    "null-heavy": [None if i % 3 else i for i in range(40)],
    "missing-heavy": [MISSING if i % 3 else i for i in range(40)],
    "float64-inexact": [2 ** 53 + i for i in range(40)],
    "beyond-int64": [2 ** 63 + i if i % 5 == 0 else i for i in range(40)],
    "nan": [float("nan") if i % 9 == 0 else i * 0.5 for i in range(40)],
    "tiny": [1, 2.5, 3],
    "empty": [],
}

LITERALS = (0, 17, -3, 2.5, 2 ** 53 + 7, 2 ** 63 + 1, "s2", True, None)


@pytest.fixture(params=[True, False], ids=["numpy", "pure"])
def kernel_mode(request):
    if request.param and not kernels.numpy_available():
        pytest.skip("NumPy not importable in this environment")
    previous = kernels.numpy_active()
    kernels.use_numpy(request.param)
    yield request.param
    kernels.use_numpy(previous)


# -- compare_with_literal ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_compare_with_literal_matches_scalar(kernel_mode, name):
    values = VECTORS[name]
    for op in OPS:
        for literal in LITERALS:
            expected = [compare_values(op, value, literal) for value in values]
            got = kernels.compare_with_literal(op, values, literal)
            assert got == expected, (name, op, literal)


def test_compare_modes_agree():
    if not kernels.numpy_available():
        pytest.skip("NumPy not importable in this environment")
    previous = kernels.numpy_active()
    try:
        for name, values in VECTORS.items():
            for op in OPS:
                for literal in LITERALS:
                    kernels.use_numpy(True)
                    fast = kernels.compare_with_literal(op, values, literal)
                    kernels.use_numpy(False)
                    pure = kernels.compare_with_literal(op, values, literal)
                    assert fast == pure, (name, op, literal)
    finally:
        kernels.use_numpy(previous)


# -- selection_from_mask ----------------------------------------------------------------


@pytest.mark.parametrize(
    "mask",
    [
        [],
        [True],
        [False, None, True] * 20,
        [None] * 40,
        [True] * 40,
        [False] * 40,
        [True, False, None, MISSING] * 10,
        [1, 0, True, False] * 10,  # only the exact True entries may pass
    ],
)
def test_selection_from_mask(kernel_mode, mask):
    expected = [index for index, value in enumerate(mask) if value is True]
    assert kernels.selection_from_mask(mask) == expected


def test_selection_mask_truthy_integers_do_not_pass():
    # Predicate semantics: NULL and non-boolean truthiness never pass.
    kernels.use_numpy(False)
    try:
        assert kernels.selection_from_mask([1] * 20) == []
    finally:
        kernels.use_numpy(kernels.numpy_available())


# -- aggregate_add_many -----------------------------------------------------------------


def _fold_scalar(function: str, values: list) -> _Aggregator:
    aggregator = _Aggregator(function)
    for value in values:
        aggregator.add(value)
    return aggregator


def _comparable_result(aggregator: _Aggregator):
    result = aggregator.result()
    if isinstance(result, float) and math.isnan(result):
        return "nan"
    return (type(result).__name__, result)


@pytest.mark.parametrize("function", ["count", "sum", "avg", "min", "max"])
@pytest.mark.parametrize("name", sorted(VECTORS))
def test_aggregate_add_many_matches_scalar_fold(kernel_mode, function, name):
    values = VECTORS[name]
    if function in ("min", "max") and name in ("mixed-types", "bools-in-ints"):
        # The scalar fold itself raises on str-vs-number minimum — by
        # construction the fuzz corpus never aggregates mixed columns, and
        # the kernel routes these shapes to the same scalar loop anyway.
        values = [value for value in values if not isinstance(value, str)]
    expected = _fold_scalar(function, values)
    got = _Aggregator(function)
    kernels.aggregate_add_many(got, values)
    assert got.count == expected.count, name
    assert _comparable_result(got) == _comparable_result(expected), name


def test_aggregate_float_sum_is_left_fold_exact(kernel_mode):
    rng = seeded_rng(0xF00D)
    values = [rng.uniform(-1e9, 1e9) for _ in range(513)]
    expected = _fold_scalar("sum", values)
    got = _Aggregator("sum")
    kernels.aggregate_add_many(got, values)
    # Bit-exact, not approximate: the kernel must run the same left fold.
    assert got.total == expected.total


def test_aggregate_batched_folds_compose(kernel_mode):
    rng = seeded_rng(0xF00D, salt=2)
    values = [rng.uniform(-1e6, 1e6) for _ in range(200)]
    whole = _Aggregator("sum")
    kernels.aggregate_add_many(whole, values)
    chunked = _Aggregator("sum")
    for start in range(0, len(values), 7):  # boundary-straddling chunks
        kernels.aggregate_add_many(chunked, values[start:start + 7])
    assert whole.total == chunked.total
    assert whole.count == chunked.count


def test_aggregate_count_counts_missing_and_null(kernel_mode):
    aggregator = _Aggregator("count")
    kernels.aggregate_add_many(aggregator, [MISSING, None, 1, "x"] * 10)
    assert aggregator.result() == 40


def test_aggregate_empty_vector_is_identity(kernel_mode):
    for function in ("count", "sum", "avg", "min", "max"):
        aggregator = _Aggregator(function)
        kernels.aggregate_add_many(aggregator, [])
        assert aggregator.result() == _Aggregator(function).result()


# -- ColumnBatch ------------------------------------------------------------------------


def test_from_rows_iter_rows_roundtrip():
    rows = [{"t": {"a": 1}}, {"t": {"a": 2}, "x": 9}, {"x": 7}]
    batch = ColumnBatch.from_rows(rows)
    assert batch.length == 3
    back = list(batch.iter_rows())
    assert back[0] == {"t": {"a": 1}, "x": MISSING}
    assert back[1] == {"t": {"a": 2}, "x": 9}
    assert back[2]["t"] is MISSING and back[2]["x"] == 7


def test_empty_batch_roundtrip():
    batch = ColumnBatch.from_rows([])
    assert batch.length == 0
    assert list(batch.iter_rows()) == []
    assert batch.take([]).length == 0


def test_path_values_resolution_orders():
    path_a = FieldPath.of("a")
    path_ab = FieldPath.of("a.b")
    direct = ColumnBatch(2, {}, {("t", path_a): [{"b": 1}, MISSING]})
    # Exact column wins; prefix column descends the remainder.
    assert direct.path_values("t", path_a) == [{"b": 1}, MISSING]
    assert direct.path_values("t", path_ab) == [1, MISSING]
    # Unknown variable resolves to MISSING everywhere.
    assert direct.path_values("u", path_a) == [MISSING, MISSING]
    # Row-backed batches walk the document column.
    rows = ColumnBatch(2, {"t": [{"a": {"b": 3}}, None]})
    assert rows.path_values("t", path_ab) == [3, MISSING]


def test_direct_batch_refuses_row_materialization():
    direct = ColumnBatch(1, {}, {("t", FieldPath.of("a")): [1]})
    with pytest.raises(QueryError):
        list(direct.iter_rows())


def test_take_gathers_vars_and_paths_with_duplicates():
    batch = ColumnBatch(
        3,
        {"t": ["r0", "r1", "r2"]},
        {("t", FieldPath.of("a")): [10, 11, 12]},
    )
    taken = batch.take([2, 0, 2], extra_vars={"u": ["x", "y", "z"]})
    assert taken.length == 3
    assert taken.vars["t"] == ["r2", "r0", "r2"]
    assert taken.vars["u"] == ["x", "y", "z"]  # pre-aligned, not gathered
    assert taken.paths[("t", FieldPath.of("a"))] == [12, 10, 12]


def test_field_evaluate_batch_matches_scalar():
    rows = [
        {"t": {"a": {"b": 5}}},
        {"t": {"a": 7}},
        {"t": {}},
        {"t": None},
        {},
    ]
    batch = ColumnBatch.from_rows(rows)
    expression = Field(Var("t"), "a.b")
    expected = [expression.evaluate(row) for row in rows]
    assert expression.evaluate_batch(batch) == expected


# -- vectorized breakers ----------------------------------------------------------------


def _chunk(rows, size):
    return [
        ColumnBatch.from_rows(rows[start:start + size])
        for start in range(0, len(rows), size)
    ]


def test_batch_group_by_straddling_batches():
    rng = seeded_rng(0xBA7C)
    rows = [
        {
            "k": rng.choice(["a", "b", "c", None]),
            "v": rng.choice([rng.randint(-5, 5), rng.uniform(-2, 2), None, MISSING]),
        }
        for _ in range(100)
    ]
    node = GroupByNode(
        keys=[("k", Var("k"))],
        aggregates=[
            ("c", "count", None),
            ("s", "sum", Var("v")),
            ("lo", "min", Var("v")),
            ("hi", "max", Var("v")),
            ("m", "avg", Var("v")),
        ],
    )
    expected = _run_group_by(rows, node)
    for size in (1, 3, 7, 100, 1000):  # groups straddle every boundary
        got = _batch_group_by(_chunk(rows, size), node)
        assert got == expected, size


def test_batch_aggregate_straddling_batches():
    rng = seeded_rng(0xBA7C, salt=3)
    rows = [{"v": rng.choice([rng.randint(0, 9), None, MISSING, 0.5])} for _ in range(50)]
    node = AggregateNode(
        aggregates=[
            ("c", "count", None),
            ("s", "sum", Var("v")),
            ("m", "avg", Var("v")),
        ]
    )
    expected = _run_aggregate(rows, node)
    for size in (1, 4, 50):
        assert _batch_aggregate(_chunk(rows, size), node) == expected, size


def test_batch_group_by_empty_input():
    node = GroupByNode(keys=[("k", Var("k"))], aggregates=[("c", "count", None)])
    assert _batch_group_by([], node) == _run_group_by([], node) == []


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_batch_group_by_representative_matches_row_group_by(reverse):
    """``1``/``1.0``/``True`` and ``[1]``/``[1.0]`` share a group; the batch
    GROUP BY skips re-ranking equal atomic types yet must still keep the
    minimum-ranked representative, whatever order the rows arrive in."""
    rows = [
        {"k": 1.0, "j": "x"},
        {"k": 1, "j": "x"},
        {"k": True, "j": "x"},
        {"k": 1, "j": "x"},
        {"k": [1.0], "j": "y"},
        {"k": [1], "j": "y"},
        {"k": [1.0], "j": "y"},
        {"k": "s", "j": 2.0},
        {"k": "s", "j": 2},
        {"k": None, "j": "z"},
        {"j": "z"},
    ]
    if reverse:
        rows = rows[::-1]
    node = GroupByNode(
        keys=[("k", Var("k")), ("j", Var("j"))],
        aggregates=[("c", "count", None)],
    )
    expected = _run_group_by(rows, node)
    assert {repr(row["k"]) for row in expected} >= {"True", "[1]"}
    for size in (1, 2, 100):
        got = _batch_group_by(_chunk(rows, size), node)
        assert repr(got) == repr(expected), size
