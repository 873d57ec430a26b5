"""The word-at-a-time Rabin fingerprint and the kept-fingerprint refresh
against byte-at-a-time references written out here.

The references are the straightforward forms of §4.2's algorithm: a Rabin
loop over single bytes, a sort-merge on ``(fingerprint, repr(row))`` that
hashes both snapshots, and a delete loop that removes, for each deleted
row, the first live equal row in row-id order.  The fast paths must agree
with them bit for bit: fingerprints, delta order, and the row ids left.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fingerprint as fingerprint_module
from repro.core import loader as loader_module
from repro.core.fingerprint import IRREDUCIBLE_POLY, fingerprint_bytes
from repro.core.loader import DataLoader, snapshot_diff
from repro.core.schema_mapping import SchemaMapping, TableMapping
from repro.sqlengine import Column, ColumnType, Database, TableSchema


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def _reference_shift_table():
    table = []
    for byte in range(256):
        value = byte
        for _ in range(32):
            carry = value >> 31
            value = (value << 1) & 0xFFFFFFFF
            if carry:
                value ^= IRREDUCIBLE_POLY
        table.append(value)
    return table


_REFERENCE_TABLE = _reference_shift_table()


def reference_fingerprint_bytes(data):
    value = 0
    for byte in data:
        value = (
            ((value << 8) & 0xFFFFFFFF) ^ byte ^ _REFERENCE_TABLE[value >> 24]
        )
    return value


def reference_diff(old_rows, new_rows):
    """Sort-merge on ``(fingerprint_tuple(row), repr(row))`` over both
    snapshots, through the loader's binding so a patched hash applies."""
    def keyed(rows):
        fingerprint = loader_module.fingerprint_tuple
        return sorted(
            (((fingerprint(row), repr(row)), row) for row in rows),
            key=lambda entry: entry[0],
        )

    old_sorted = keyed(old_rows)
    new_sorted = keyed(new_rows)
    inserted, deleted = [], []
    i = j = 0
    while i < len(old_sorted) and j < len(new_sorted):
        old_key, new_key = old_sorted[i][0], new_sorted[j][0]
        if old_key == new_key:
            i += 1
            j += 1
        elif old_key < new_key:
            deleted.append(old_sorted[i][1])
            i += 1
        else:
            inserted.append(new_sorted[j][1])
            j += 1
    deleted.extend(row for _, row in old_sorted[i:])
    inserted.extend(row for _, row in new_sorted[j:])
    return inserted, deleted


class ReferenceLoader:
    """Refresh as the paper states it: hash both snapshots every time and
    delete each row by scanning the table for its first live copy."""

    def __init__(self, table, rows):
        self.table = table
        self.snapshot = list(rows)
        table.insert_many(rows)

    def refresh(self, rows):
        inserted, deleted = reference_diff(self.snapshot, rows)
        for row in deleted:
            victim = next(
                row_id
                for row_id in self.table.row_ids()
                if self.table.row_by_id(row_id) == row
            )
            self.table.delete_row(victim)
        self.table.insert_many(inserted)
        self.snapshot = list(rows)
        return inserted, deleted


def same(actual, expected):
    """Equal down to each value's type: ``==`` alone would let ``1`` stand
    for ``1.0`` or ``True``, and ``0.0`` for ``-0.0``."""
    return repr(actual) == repr(expected)


def two_bit_hash(real):
    """A fingerprint with four values, so equal fingerprints of different
    rows are the rule and the ``repr`` tie-break runs on every step."""
    return lambda row: real(row) & 3


@contextmanager
def hashing(collide):
    """The loader's Rabin hash, or (``collide``) a two-bit one."""
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            patch.setattr(
                loader_module,
                "fingerprint_tuple",
                two_bit_hash(loader_module.fingerprint_tuple),
            )
        yield


collisions = pytest.mark.parametrize(
    "collide", [False, True], ids=["rabin", "two-bit"]
)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestWordAtATimeRabin:
    @given(st.binary(max_size=600))
    def test_matches_byte_loop(self, data):
        assert fingerprint_bytes(data) == reference_fingerprint_bytes(data)

    def test_every_length_up_to_600(self):
        rng = random.Random(16)
        for length in range(601):
            for fill in (0x00, 0xFF, None):
                data = (
                    bytes(rng.randrange(256) for _ in range(length))
                    if fill is None
                    else bytes([fill]) * length
                )
                assert fingerprint_bytes(data) == (
                    reference_fingerprint_bytes(data)
                ), length

    def test_word_tables_extend_the_shift_table(self):
        assert list(fingerprint_module._SHIFT_TABLE) == _REFERENCE_TABLE
        tables = (
            fingerprint_module._SHIFT_TABLE,
            fingerprint_module._T1,
            fingerprint_module._T2,
            fingerprint_module._T3,
        )
        for k, table in enumerate(tables):
            for byte in (0, 1, 0x80, 0xFF):
                # T_k[b] = b * x^(32 + 8k) mod P: the fingerprint of b
                # followed by 4 + k zero bytes.
                assert table[byte] == reference_fingerprint_bytes(
                    bytes([byte]) + bytes(4 + k)
                )


# ----------------------------------------------------------------------
# Snapshot differential
# ----------------------------------------------------------------------
cells = st.one_of(
    st.none(),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, -1]),
    st.sampled_from(["a", "b", "1", ""]),
)
diff_rows = st.lists(st.tuples(cells, cells), max_size=40)


class TestSnapshotDiffAgainstReference:
    @collisions
    @settings(max_examples=150)
    @given(old=diff_rows, new=diff_rows)
    def test_delta_and_order_match(self, collide, old, new):
        # Copies of old rows make duplicates and unchanged rows common.
        new = new + old[::2]
        with hashing(collide):
            assert same(snapshot_diff(old, new), reference_diff(old, new))

    @collisions
    @given(rows=diff_rows)
    def test_identical_snapshots(self, collide, rows):
        with hashing(collide):
            assert snapshot_diff(rows, rows[::-1]) == ([], [])


# ----------------------------------------------------------------------
# DataLoader.refresh: deltas, victims, backup/restore
# ----------------------------------------------------------------------
SCHEMA = TableSchema(
    "item",
    [
        Column("i_key", ColumnType.INTEGER),
        Column("i_price", ColumnType.FLOAT),
        Column("i_tag", ColumnType.TEXT),
    ],
)
# Integers and floats that coerce to equal stored values (1 and 1.0),
# NULLs, and few distinct values, so snapshots hold duplicates.
item_rows = st.lists(
    st.tuples(
        st.sampled_from([None, 1, 1.0, 2, 3]),
        st.sampled_from([None, 1, 1.0, 2.5]),
        st.sampled_from([None, "a", "b"]),
    ),
    max_size=25,
)


def make_loader(rows):
    mapping = SchemaMapping({"item": SCHEMA})
    mapping.add_table_mapping(
        TableMapping(
            local_table="item",
            global_table="item",
            column_map={name: name for name in SCHEMA.column_names},
        )
    )
    database = Database()
    database.create_table(SCHEMA)
    loader = DataLoader(database, mapping)
    loader.initial_load("item", SCHEMA.column_names, rows)
    return loader


def make_reference(rows):
    database = Database()
    database.create_table(SCHEMA)
    return ReferenceLoader(database.table("item"), rows)


def table_state(table):
    return list(zip(table.row_ids(), table.rows())), len(table), table.version


def restore_table(table, rows):
    table.truncate()
    table.insert_many(rows)


class TestRefreshAgainstReference:
    @collisions
    @settings(max_examples=60, deadline=None)
    @given(
        initial=item_rows,
        refreshes=st.lists(item_rows, min_size=1, max_size=4),
    )
    def test_refresh_run_matches(self, collide, initial, refreshes):
        loader = make_loader(initial)
        reference = make_reference(initial)
        table = loader.database.table("item")
        with hashing(collide):
            for rows in refreshes:
                rows = rows + initial[::3]
                delta = loader.refresh("item", SCHEMA.column_names, rows)
                assert same(
                    (delta.inserted, delta.deleted), reference.refresh(rows)
                )
                assert same(table_state(table), table_state(reference.table))
                assert same(loader.snapshot_of("item"), reference.snapshot)

    @collisions
    @settings(max_examples=40, deadline=None)
    @given(initial=item_rows, first=item_rows, second=item_rows)
    def test_backup_refresh_restore_refresh(
        self, collide, initial, first, second
    ):
        loader = make_loader(initial)
        reference = make_reference(initial)
        table = loader.database.table("item")
        with hashing(collide):
            # Fill the kept fingerprints, then back up snapshots and rows.
            loader.refresh("item", SCHEMA.column_names, initial)
            backup = loader.export_snapshots()
            backup_rows = list(table.rows())

            loader.refresh("item", SCHEMA.column_names, first)
            loader.restore_snapshots(backup)
            restore_table(table, backup_rows)
            restore_table(reference.table, backup_rows)

            delta = loader.refresh("item", SCHEMA.column_names, second)
            assert same(
                (delta.inserted, delta.deleted), reference.refresh(second)
            )
        # Versions differ: the loader's table saw two more refreshes.
        assert same(table_state(table)[:2], table_state(reference.table)[:2])
        assert same(loader.snapshot_of("item"), second)
