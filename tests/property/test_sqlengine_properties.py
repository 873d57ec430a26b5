"""Property-based tests for the relational engine's core invariants."""

import enum
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Column, ColumnType, Database, TableSchema
from repro.sqlengine.indexes import OrderedIndex
from repro.sqlengine.types import records_byte_size, value_byte_size


# ----------------------------------------------------------------------
# OrderedIndex behaves like a sorted multimap
# ----------------------------------------------------------------------
keys = st.integers(min_value=-50, max_value=50)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), keys),
    max_size=120,
)


class TestOrderedIndexModel:
    @given(operations)
    def test_matches_reference_multimap(self, ops):
        index = OrderedIndex("idx", "k")
        reference = {}
        next_row_id = 0
        for action, key in ops:
            if action == "insert":
                index.insert(key, next_row_id)
                reference.setdefault(key, []).append(next_row_id)
                next_row_id += 1
            else:
                row_ids = reference.get(key)
                if row_ids:
                    victim = row_ids.pop()
                    if not row_ids:
                        del reference[key]
                    index.remove(key, victim)
        for key in range(-50, 51):
            assert sorted(index.lookup(key)) == sorted(reference.get(key, []))
        assert len(index) == sum(len(v) for v in reference.values())
        assert list(index.keys()) == sorted(reference)

    @given(st.lists(keys, min_size=1, max_size=80), keys, keys)
    def test_range_scan_equals_filter(self, inserted, low, high):
        low, high = min(low, high), max(low, high)
        index = OrderedIndex("idx", "k")
        for row_id, key in enumerate(inserted):
            index.insert(key, row_id)
        expected = sorted(
            row_id for row_id, key in enumerate(inserted) if low <= key <= high
        )
        assert sorted(index.range_scan(low, high)) == expected

    @given(st.lists(keys, min_size=1, max_size=80))
    def test_min_max_bounds(self, inserted):
        index = OrderedIndex("idx", "k")
        for row_id, key in enumerate(inserted):
            index.insert(key, row_id)
        assert index.min_key() == min(inserted)
        assert index.max_key() == max(inserted)


# ----------------------------------------------------------------------
# SQL execution invariants over generated tables
# ----------------------------------------------------------------------
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-1000, max_value=1000),
        st.one_of(st.none(), st.floats(min_value=-100, max_value=100,
                                       allow_nan=False)),
        st.sampled_from(["red", "green", "blue", None]),
    ),
    max_size=60,
)


def load(rows):
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("a", ColumnType.INTEGER),
                Column("b", ColumnType.FLOAT),
                Column("c", ColumnType.TEXT),
            ],
        )
    )
    db.table("t").insert_many(rows)
    return db


class TestQueryInvariants:
    @given(rows_strategy)
    def test_count_star_equals_row_count(self, rows):
        db = load(rows)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)

    @given(rows_strategy)
    def test_where_partitions_rows(self, rows):
        db = load(rows)
        positive = db.execute("SELECT COUNT(*) FROM t WHERE a > 0").scalar()
        non_positive = db.execute(
            "SELECT COUNT(*) FROM t WHERE a <= 0"
        ).scalar()
        # NULLs in `a` would break this, but `a` is never NULL here.
        assert positive + non_positive == len(rows)

    @given(rows_strategy)
    def test_sum_matches_python(self, rows):
        db = load(rows)
        expected_values = [b for _, b, _ in rows if b is not None]
        result = db.execute("SELECT SUM(b) FROM t").scalar()
        if not expected_values:
            assert result is None
        else:
            assert result == pytest.approx(sum(expected_values))

    @given(rows_strategy)
    def test_group_by_counts_match_counter(self, rows):
        db = load(rows)
        result = db.execute(
            "SELECT c, COUNT(*) FROM t WHERE c IS NOT NULL GROUP BY c"
        )
        expected = Counter(c for _, _, c in rows if c is not None)
        assert dict(zip(result.column("c"), result.column("COUNT(*)"))) == dict(
            expected
        )

    @given(rows_strategy)
    def test_order_by_sorts(self, rows):
        db = load(rows)
        values = db.execute(
            "SELECT a FROM t ORDER BY a"
        ).column("a")
        assert values == sorted(values)

    @given(rows_strategy)
    def test_distinct_removes_duplicates_only(self, rows):
        db = load(rows)
        distinct = db.execute("SELECT DISTINCT a FROM t").column("a")
        assert sorted(distinct) == sorted(set(r[0] for r in rows))

    @given(rows_strategy, st.integers(min_value=0, max_value=70))
    def test_limit_truncates(self, rows, limit):
        db = load(rows)
        result = db.execute(f"SELECT a FROM t LIMIT {limit}")
        assert len(result) == min(limit, len(rows))

    @given(rows_strategy)
    def test_index_agrees_with_scan(self, rows):
        with_index = load(rows)
        with_index.execute("CREATE INDEX idx_a ON t (a)")
        without_index = load(rows)
        sql = "SELECT a, b, c FROM t WHERE a BETWEEN -100 AND 100"
        indexed = with_index.execute(sql)
        scanned = without_index.execute(sql)
        assert sorted(indexed.rows, key=repr) == sorted(scanned.rows, key=repr)
        assert indexed.stats.index_probes == 1
        assert scanned.stats.index_probes == 0

    @given(rows_strategy)
    def test_delete_then_count(self, rows):
        db = load(rows)
        deleted = db.execute("DELETE FROM t WHERE a > 0").rowcount
        remaining = db.execute("SELECT COUNT(*) FROM t").scalar()
        assert deleted + remaining == len(rows)
        assert db.execute("SELECT COUNT(*) FROM t WHERE a > 0").scalar() == 0


# ----------------------------------------------------------------------
# Three-valued logic
# ----------------------------------------------------------------------
tri = st.sampled_from([True, False, None])


class TestThreeValuedLogic:
    @given(tri, tri)
    def test_and_or_de_morgan(self, p, q):
        from repro.sqlengine.expr import BinaryOp, Literal, UnaryOp, RowLayout

        layout = RowLayout(["x"])
        row = (0,)

        def lit(value):
            return Literal(value)

        left = UnaryOp("not", BinaryOp("and", lit(p), lit(q))).evaluate(
            row, layout
        )
        right = BinaryOp(
            "or", UnaryOp("not", lit(p)), UnaryOp("not", lit(q))
        ).evaluate(row, layout)
        assert left == right

    @given(tri)
    def test_double_negation(self, p):
        from repro.sqlengine.expr import Literal, UnaryOp, RowLayout

        layout = RowLayout(["x"])
        value = UnaryOp("not", UnaryOp("not", Literal(p))).evaluate((0,), layout)
        assert value == p


# ----------------------------------------------------------------------
# The batch sizer equals the per-value sum on every batch shape
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1
    GREEN = 22


class Shout(str):
    """A str subclass whose ``str()`` is longer than the string itself."""

    def __str__(self):
        return self.upper() + "!!"


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from(list(Colour)),
    st.text(max_size=8),
    st.text(max_size=8).map(Shout),
    st.dates(),
)
values = st.one_of(scalars, st.tuples(scalars, scalars))
# One kind per column, so regular batches reach every columnar branch.
column_kinds = st.sampled_from([
    st.integers(),
    st.floats(),
    st.booleans(),
    st.text(max_size=8),
    st.one_of(st.none(), st.text(max_size=8)),
    st.one_of(st.none(), st.integers(), st.floats()),
    st.none(),
    st.dates(),
    st.one_of(st.none(), st.dates()),
    st.tuples(st.sampled_from(["L", "R"]), st.tuples(st.integers(), scalars)),
    st.sampled_from(list(Colour)),
    st.text(max_size=8).map(Shout),
    st.one_of(st.integers(), st.text(max_size=8)),
    values,
])


@st.composite
def regular_batches(draw):
    kinds = draw(st.lists(column_kinds, max_size=4))
    count = draw(st.integers(min_value=0, max_value=40))
    columns = [
        draw(st.lists(kind, min_size=count, max_size=count)) for kind in kinds
    ]
    return list(zip(*columns)) if columns else [()] * count


batches = st.one_of(
    regular_batches(),
    st.lists(st.lists(values, max_size=4).map(tuple), max_size=30),
    st.lists(values, max_size=30),
    st.lists(st.one_of(values, st.tuples(values, values)), max_size=30),
)


def per_value_bytes(batch):
    return sum(
        value_byte_size(value)
        for record in batch
        for value in (record if isinstance(record, tuple) else (record,))
    )


class TestRecordsByteSize:
    @settings(max_examples=300, deadline=None)
    @given(batches)
    def test_equals_per_value_sum(self, batch):
        assert records_byte_size(batch) == per_value_bytes(batch)
