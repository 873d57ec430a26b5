"""Tests for schema mapping and the snapshot-differential data loader."""

import pytest

from repro.core.fingerprint import fingerprint_tuple
from repro.core.loader import DataLoader, SnapshotDelta, snapshot_diff
from repro.core.schema_mapping import (
    MappingTemplate,
    SchemaMapping,
    TableMapping,
    identity_mapping,
)
from repro.errors import SchemaMappingError
from repro.sqlengine import Column, ColumnType, Database, TableSchema


def global_schemas():
    return {
        "customer": TableSchema(
            "customer",
            [
                Column("c_custkey", ColumnType.INTEGER),
                Column("c_name", ColumnType.TEXT),
                Column("c_nation", ColumnType.TEXT),
            ],
            primary_key="c_custkey",
        )
    }


@pytest.fixture
def mapping():
    schema_mapping = SchemaMapping(global_schemas())
    schema_mapping.add_table_mapping(
        TableMapping(
            local_table="kunden",
            global_table="customer",
            column_map={"knr": "c_custkey", "kname": "c_name", "land": "c_nation"},
            value_map={"c_nation": {"DE": "GERMANY", "FR": "FRANCE"}},
        )
    )
    return schema_mapping


class TestSchemaMapping:
    def test_transform_renames_and_translates(self, mapping):
        table, rows = mapping.transform(
            "kunden",
            ["knr", "kname", "land"],
            [(1, "ACME", "DE"), (2, "Bolt", "US")],
        )
        assert table == "customer"
        assert rows == [(1, "ACME", "GERMANY"), (2, "Bolt", "US")]

    def test_unmapped_local_column_dropped(self, mapping):
        table, rows = mapping.transform(
            "kunden", ["knr", "kname", "land", "extra"], [(1, "A", "DE", "junk")]
        )
        assert rows == [(1, "A", "GERMANY")]

    def test_unmapped_global_column_is_null(self):
        schema_mapping = SchemaMapping(global_schemas())
        schema_mapping.add_table_mapping(
            TableMapping("kunden", "customer", {"knr": "c_custkey"})
        )
        _, rows = schema_mapping.transform("kunden", ["knr"], [(7,)])
        assert rows == [(7, None, None)]

    def test_unknown_global_table_rejected(self):
        schema_mapping = SchemaMapping(global_schemas())
        with pytest.raises(SchemaMappingError):
            schema_mapping.add_table_mapping(TableMapping("x", "widgets", {}))

    def test_unknown_global_column_rejected(self):
        schema_mapping = SchemaMapping(global_schemas())
        with pytest.raises(SchemaMappingError):
            schema_mapping.add_table_mapping(
                TableMapping("x", "customer", {"a": "missing_col"})
            )

    def test_missing_mapping_rejected(self, mapping):
        with pytest.raises(SchemaMappingError):
            mapping.transform("unknown_table", ["a"], [(1,)])

    def test_row_width_mismatch_rejected(self, mapping):
        with pytest.raises(SchemaMappingError):
            mapping.transform("kunden", ["knr", "kname", "land"], [(1, "A")])

    def test_identity_mapping(self):
        mapping = identity_mapping(global_schemas())
        table, rows = mapping.transform(
            "customer", ["c_custkey", "c_name", "c_nation"], [(1, "A", "X")]
        )
        assert table == "customer"
        assert rows == [(1, "A", "X")]

    def test_template_instantiation_with_override(self):
        template = MappingTemplate(
            system="SAP",
            tables={"customer": {"kunnr": "c_custkey", "name1": "c_name"}},
            local_table_names={"customer": "kna1"},
        )
        schema_mapping = SchemaMapping(global_schemas())
        template.instantiate(schema_mapping, overrides={"customer": "kna1_custom"})
        assert schema_mapping.has_mapping("kna1_custom")
        assert not schema_mapping.has_mapping("kna1")


class TestSnapshotDiff:
    def test_no_changes(self):
        rows = [(1, "a"), (2, "b")]
        inserted, deleted = snapshot_diff(rows, rows)
        assert inserted == []
        assert deleted == []

    def test_pure_insert(self):
        inserted, deleted = snapshot_diff([(1, "a")], [(1, "a"), (2, "b")])
        assert inserted == [(2, "b")]
        assert deleted == []

    def test_pure_delete(self):
        inserted, deleted = snapshot_diff([(1, "a"), (2, "b")], [(2, "b")])
        assert deleted == [(1, "a")]
        assert inserted == []

    def test_update_is_delete_plus_insert(self):
        inserted, deleted = snapshot_diff([(1, "old")], [(1, "new")])
        assert deleted == [(1, "old")]
        assert inserted == [(1, "new")]

    def test_duplicate_multiplicity(self):
        inserted, deleted = snapshot_diff([(1, "a"), (1, "a")], [(1, "a")])
        assert deleted == [(1, "a")]
        assert inserted == []

    def test_empty_sides(self):
        assert snapshot_diff([], [(1,)]) == ([(1,)], [])
        assert snapshot_diff([(1,)], []) == ([], [(1,)])
        assert snapshot_diff([], []) == ([], [])

    def test_large_diff_correct(self):
        old = [(i, f"row-{i}") for i in range(500)]
        new = [(i, f"row-{i}") for i in range(100, 600)]
        inserted, deleted = snapshot_diff(old, new)
        assert sorted(deleted) == [(i, f"row-{i}") for i in range(100)]
        assert sorted(inserted) == [(i, f"row-{i}") for i in range(500, 600)]


class TestDataLoader:
    @pytest.fixture
    def loader(self, mapping):
        database = Database()
        database.create_table(global_schemas()["customer"])
        return DataLoader(database, mapping)

    def test_initial_load(self, loader):
        delta = loader.initial_load(
            "kunden", ["knr", "kname", "land"], [(1, "A", "DE")]
        )
        assert delta.change_count == 1
        result = loader.database.execute("SELECT c_nation FROM customer")
        assert result.column("c_nation") == ["GERMANY"]

    def test_double_initial_load_rejected(self, loader):
        loader.initial_load("kunden", ["knr", "kname", "land"], [(1, "A", "DE")])
        with pytest.raises(SchemaMappingError):
            loader.initial_load("kunden", ["knr", "kname", "land"], [])

    def test_refresh_applies_delta(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load("kunden", columns, [(1, "A", "DE"), (2, "B", "FR")])
        delta = loader.refresh(
            "kunden", columns, [(1, "A", "DE"), (3, "C", "US")]
        )
        assert len(delta.inserted) == 1
        assert len(delta.deleted) == 1
        keys = loader.database.execute(
            "SELECT c_custkey FROM customer ORDER BY c_custkey"
        ).column("c_custkey")
        assert keys == [1, 3]

    def test_refresh_without_changes_is_empty(self, loader):
        columns = ["knr", "kname", "land"]
        rows = [(1, "A", "DE")]
        loader.initial_load("kunden", columns, rows)
        delta = loader.refresh("kunden", columns, rows)
        assert delta.is_empty

    def test_refresh_before_load_rejected(self, loader):
        with pytest.raises(SchemaMappingError):
            loader.refresh("kunden", ["knr", "kname", "land"], [])

    def test_snapshot_kept_separately(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load("kunden", columns, [(1, "A", "DE")])
        snapshot = loader.snapshot_of("customer")
        assert snapshot == [(1, "A", "GERMANY")]
        # Mutating the returned list must not corrupt the stored snapshot.
        snapshot.append(("junk",))
        assert loader.snapshot_of("customer") == [(1, "A", "GERMANY")]

    def test_update_roundtrip(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load("kunden", columns, [(1, "A", "DE")])
        loader.refresh("kunden", columns, [(1, "A-renamed", "DE")])
        names = loader.database.execute("SELECT c_name FROM customer")
        assert names.column("c_name") == ["A-renamed"]

    def test_failed_refresh_leaves_no_partial_delete(self, loader):
        columns = ["knr", "kname", "land"]
        loader.initial_load(
            "kunden", columns, [(key, f"N{key}", "DE") for key in range(1, 8)]
        )
        table = loader.database.table("customer")
        # The refresh drops customers 2, 4 and 6.  Remove, behind the
        # loader's back, the one the delta deletes last, so the earlier
        # victims resolve before the missing one is found.
        dropped = [(key, f"N{key}", "GERMANY") for key in (2, 4, 6)]
        last = max(
            dropped, key=lambda row: (fingerprint_tuple(row), repr(row))
        )
        table.delete_where(lambda row: row == last)
        rows_before = list(zip(table.row_ids(), table.rows()))
        version_before = table.version
        snapshot_before = loader.snapshot_of("customer")

        with pytest.raises(SchemaMappingError, match="missing row"):
            loader.refresh(
                "kunden",
                columns,
                [(key, f"N{key}", "DE") for key in (1, 3, 5, 7, 8)],
            )
        assert list(zip(table.row_ids(), table.rows())) == rows_before
        assert table.version == version_before
        assert loader.snapshot_of("customer") == snapshot_before
