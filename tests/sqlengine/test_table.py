"""Tests for heap tables, indexes-on-tables, and MemTables."""

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine import Column, ColumnType, MemTable, Table, TableSchema


def make_table(primary_key="id"):
    schema = TableSchema(
        "items",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("price", ColumnType.FLOAT),
            Column("label", ColumnType.TEXT),
        ],
        primary_key=primary_key,
    )
    return Table(schema)


class TestInsertAndRead:
    def test_insert_and_iterate(self):
        table = make_table()
        table.insert([1, 9.5, "a"])
        table.insert([2, 3.0, "b"])
        assert len(table) == 2
        assert list(table.rows()) == [(1, 9.5, "a"), (2, 3.0, "b")]

    def test_insert_returns_row_id(self):
        table = make_table()
        assert table.insert([1, 1.0, "x"]) == 0
        assert table.insert([2, 2.0, "y"]) == 1

    def test_row_by_id(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        assert table.row_by_id(row_id) == (1, 1.0, "x")

    def test_row_by_id_out_of_range(self):
        with pytest.raises(SqlExecutionError):
            make_table().row_by_id(0)

    def test_insert_many(self):
        table = make_table()
        ids = table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"]])
        assert ids == [0, 1]

    def test_byte_size_tracks_rows(self):
        table = make_table()
        assert table.byte_size == 0
        table.insert([1, 1.0, "x"])
        first = table.byte_size
        assert first > 0
        table.insert([2, 2.0, "yyyy"])
        assert table.byte_size > 2 * first - 4  # longer label costs more


class TestPrimaryKey:
    def test_pk_index_created_automatically(self):
        table = make_table()
        assert table.index_on("id") is not None
        assert table.index_on("id").unique

    def test_duplicate_pk_rejected(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        with pytest.raises(SqlExecutionError):
            table.insert([1, 2.0, "y"])

    def test_failed_insert_leaves_table_unchanged(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        size = table.byte_size
        with pytest.raises(SqlExecutionError):
            table.insert([1, 2.0, "y"])
        assert len(table) == 1
        assert table.byte_size == size

    def test_no_pk_table_allows_duplicates(self):
        table = make_table(primary_key=None)
        table.insert([1, 1.0, "x"])
        table.insert([1, 1.0, "x"])
        assert len(table) == 2


class TestDelete:
    def test_delete_row(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.insert([2, 2.0, "y"])
        table.delete_row(row_id)
        assert len(table) == 1
        assert list(table.rows()) == [(2, 2.0, "y")]

    def test_delete_updates_indexes(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        assert table.index_on("id").lookup(1) == []

    def test_double_delete_rejected(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        with pytest.raises(SqlExecutionError):
            table.delete_row(row_id)

    def test_delete_where(self):
        table = make_table()
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "x"]])
        deleted = table.delete_where(lambda row: row[2] == "x")
        assert deleted == 2
        assert list(table.rows()) == [(2, 2.0, "y")]

    def test_pk_reusable_after_delete(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.delete_row(row_id)
        table.insert([1, 5.0, "z"])  # must not raise
        assert len(table) == 1

    def test_truncate(self):
        table = make_table()
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"]])
        table.truncate()
        assert len(table) == 0
        assert table.byte_size == 0
        assert table.index_on("id").lookup(1) == []


class TestUpdate:
    def test_update_row(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.update_row(row_id, [1, 9.0, "z"])
        assert table.row_by_id(row_id) == (1, 9.0, "z")

    def test_update_maintains_index(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.update_row(row_id, [7, 1.0, "x"])
        assert table.index_on("id").lookup(1) == []
        assert table.index_on("id").lookup(7) == [row_id]

    def test_update_to_duplicate_pk_rejected(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        row_id = table.insert([2, 2.0, "y"])
        with pytest.raises(SqlExecutionError):
            table.update_row(row_id, [1, 2.0, "y"])


    def test_update_many_checks_keys_after_the_whole_batch(self):
        table = make_table()
        first = table.insert([1, 1.0, "x"])
        second = table.insert([2, 2.0, "y"])
        # A swap collides row by row but is unique once both rows move.
        table.update_many([(first, [2, 1.0, "x"]), (second, [1, 2.0, "y"])])
        assert table.index_on("id").lookup(1) == [second]
        assert table.index_on("id").lookup(2) == [first]

class TestSecondaryIndexes:
    def test_create_index_over_existing_rows(self):
        table = make_table()
        table.insert_many([[1, 5.0, "x"], [2, 3.0, "y"], [3, 5.0, "z"]])
        index = table.create_index("idx_price", "price")
        assert sorted(index.lookup(5.0)) == [0, 2]

    def test_create_index_unknown_column(self):
        with pytest.raises(SqlCatalogError):
            make_table().create_index("idx", "zzz")

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        table.create_index("idx", "price")
        with pytest.raises(SqlCatalogError):
            table.create_index("idx", "label")

    def test_index_on_prefers_unique(self):
        table = make_table()
        table.create_index("idx_id2", "id")  # non-unique duplicate on same col
        chosen = table.index_on("id")
        assert chosen.unique

    def test_index_on_missing_column_returns_none(self):
        assert make_table().index_on("label") is None


class TestMemTable:
    def test_buffers_until_capacity(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=10_000)
        mem.append([1, 1.0, "x"])
        assert len(table) == 0
        assert mem.buffered_rows == 1

    def test_spills_when_full(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=64)
        for i in range(10):
            mem.append([i, float(i), "row"])
        assert len(table) > 0
        assert mem.spill_count >= 1

    def test_flush_moves_all_rows(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=10**9)
        mem.extend([[1, 1.0, "x"], [2, 2.0, "y"]])
        flushed = mem.flush()
        assert flushed == 2
        assert len(table) == 2
        assert mem.buffered_rows == 0

    def test_flush_empty_is_noop(self):
        table = make_table(primary_key=None)
        mem = MemTable(table)
        assert mem.flush() == 0
        assert mem.spill_count == 0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SqlExecutionError):
            MemTable(make_table(), capacity_bytes=0)

    # Each [i, float(i), "row"] row is 8 + 8 + (3 + 4) = 23 bytes, so a
    # 64-byte buffer fills (69 >= 64) on every third row.
    def test_exact_spills_row_by_row(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=64)
        sizes = []
        for i in range(10):
            mem.append([i, float(i), "row"])
            sizes.append(len(table))
        assert sizes == [0, 0, 3, 3, 3, 6, 6, 6, 9, 9]
        assert mem.spill_count == 3
        assert mem.buffered_rows == 1
        assert mem.buffered_bytes == 23
        assert mem.flush() == 1
        assert mem.spill_count == 4

    def test_exact_spills_in_one_batch(self):
        table = make_table(primary_key=None)
        spilled = []
        append_coerced = table.append_coerced

        def spy(rows, nbytes):
            spilled.append((len(rows), nbytes))
            return append_coerced(rows, nbytes)

        table.append_coerced = spy
        mem = MemTable(table, capacity_bytes=64)
        mem.extend([[i, float(i), "row"] for i in range(10)])
        assert spilled == [(3, 69), (3, 69), (3, 69)]
        assert mem.buffered_rows == 1
        mem.flush()
        assert spilled[-1] == (1, 23)
        assert mem.spill_count == 4
        assert [row[0] for row in table.rows()] == list(range(10))

    def test_batch_below_capacity_does_not_spill(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=70)
        mem.extend([[i, float(i), "row"] for i in range(3)])
        assert mem.spill_count == 0
        assert mem.buffered_bytes == 69
        mem.extend([[3, 3.0, "a"]])
        assert mem.spill_count == 1
        assert len(table) == 4

    def test_coerces_each_staged_row_once(self, monkeypatch):
        calls = []
        coerce_row = TableSchema.coerce_row

        def counted(schema, values):
            calls.append(values)
            return coerce_row(schema, values)

        monkeypatch.setattr(TableSchema, "coerce_row", counted)
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=64)
        mem.extend([[i, i, "row"] for i in range(10)])
        mem.flush()
        assert len(calls) == 10
        # Coerced once, on the way in: the int prices became floats.
        assert [row[1] for row in table.rows()] == [float(i) for i in range(10)]

    def test_not_null_violation_raises(self):
        mem = MemTable(make_table(), capacity_bytes=10**9)
        with pytest.raises(SqlCatalogError):
            mem.extend([[1, 1.0, "x"], [None, 2.0, "y"]])

    def test_duplicate_key_across_a_flush_leaves_table_unchanged(self):
        table = make_table()
        mem = MemTable(table, capacity_bytes=10**9)
        mem.extend([[1, 1.0, "x"], [2, 2.0, "y"]])
        mem.flush()
        before = (list(table.rows()), len(table), table.byte_size, table.version)
        mem.extend([[3, 3.0, "z"], [1, 9.0, "dup"]])
        with pytest.raises(SqlExecutionError):
            mem.flush()
        after = (list(table.rows()), len(table), table.byte_size, table.version)
        assert after == before
        assert mem.spill_count == 1

    def test_byte_size_after_flush_is_sum_of_row_bytes(self):
        table = make_table(primary_key=None)
        mem = MemTable(table, capacity_bytes=50)
        mem.extend(
            [[1, 1.0, "a"], [2, None, "longer label"], [3, 3.0, None], [4, 4, ""]]
        )
        mem.flush()
        rows = list(table.rows())
        assert table.byte_size == sum(table.row_bytes(row) for row in rows)
        # row_bytes is the per-column ColumnType.byte_size sum.
        assert table.byte_size == sum(
            column.column_type.byte_size(value)
            for row in rows
            for column, value in zip(table.schema.columns, row)
        )
        assert table.byte_size == 21 + 25 + 17 + 20


class TestColumnStore:
    def test_column_data_transposes_live_rows(self):
        table = make_table()
        table.insert([1, 9.5, "a"])
        table.insert([2, 3.0, "b"])
        assert table.column_data() == [[1, 2], [9.5, 3.0], ["a", "b"]]

    def test_empty_table_yields_empty_columns(self):
        assert make_table().column_data() == [[], [], []]

    def test_cached_between_reads(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        assert table.column_data() is table.column_data()

    def test_insert_extends_store_in_place(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.insert([2, 2.0, "y"])
        # The same lists grow; no re-transpose of the whole table.
        assert table.column_data() is store
        assert store[0] == [1, 2]

    def test_insert_many_extends_store_in_place(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.insert_many([[2, 2.0, "y"], [3, 3.0, "z"]])
        assert table.column_data() is store
        assert store[2] == ["x", "y", "z"]

    def test_delete_invalidates_and_compacts(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        row_id = table.insert([2, 2.0, "y"])
        table.insert([3, 3.0, "z"])
        table.column_data()
        table.delete_row(row_id)
        # Tombstones are compacted away: positions are not row ids.
        assert table.column_data() == [[1, 3], [1.0, 3.0], ["x", "z"]]

    def test_update_invalidates(self):
        table = make_table()
        row_id = table.insert([1, 1.0, "x"])
        table.column_data()
        table.update_row(row_id, [1, 7.5, "w"])
        assert table.column_data() == [[1], [7.5], ["w"]]

    def test_create_index_keeps_store_current(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        store = table.column_data()
        table.create_index("idx_label", "label")
        assert table.column_data() is store


class TestInsertManyAtomicity:
    def test_intra_batch_duplicate_leaves_table_unchanged(self):
        table = make_table()
        version = table.version
        with pytest.raises(SqlExecutionError):
            table.insert_many([[1, 1.0, "x"], [1, 2.0, "y"]])
        assert len(table) == 0
        assert table.version == version
        assert table.index_on("id").lookup(1) == []

    def test_conflict_with_existing_row_keeps_batch_out(self):
        table = make_table()
        table.insert([1, 1.0, "x"])
        with pytest.raises(SqlExecutionError):
            table.insert_many([[2, 2.0, "y"], [1, 3.0, "z"]])
        # Per-row insertion would have kept row 2; the bulk path must not.
        assert list(table.rows()) == [(1, 1.0, "x")]
        assert table.index_on("id").lookup(2) == []

    def test_single_version_bump_per_batch(self):
        table = make_table()
        version = table.version
        table.insert_many([[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "z"]])
        assert table.version == version + 1

    def test_indexes_consistent_after_bulk_load(self):
        table = make_table(primary_key=None)
        table.create_index("idx_label", "label")
        table.insert_many(
            [[1, 1.0, "x"], [2, 2.0, "y"], [3, 3.0, "x"], [4, 4.0, None]]
        )
        index = table.index_on("label")
        assert index.lookup("x") == [0, 2]
        assert index.lookup("y") == [1]
        assert len(index) == 3  # None keys are never indexed

    def test_empty_batch_is_a_no_op(self):
        table = make_table()
        version = table.version
        assert table.insert_many([]) == []
        assert table.version == version
