"""The data loader: production system -> normal peer, with snapshot diffs.

§4.2: the loader extracts rows from the business's production system,
transforms them through the schema mapping, and stores them in the peer's
local database.  Consistency with the (continuously updated) production
system is maintained by snapshot differentials:

1. every extraction also stores a *snapshot* of the extracted data
   ("in a separate database"),
2. at refresh time a new snapshot is taken and compared with the stored one:
   every tuple is fingerprinted with 32-bit Rabin fingerprinting, both
   fingerprint tables are sorted, and a sort-merge pass reveals the changes
   (the algorithm of Garcia-Molina & Labio [8]),
3. the delta (inserts + deletes; an update is a delete-insert pair) is
   applied to the peer's MySQL database.

A refresh costs about the size of the new snapshot plus the delta:

- the loader keeps the fingerprints of each stored snapshot (an
  ``array('I')``, 4 bytes a row, computed at the table's first refresh),
  so a refresh hashes only the new snapshot;
- ``repr`` breaks ties between equal fingerprints (the merge order is
  ``(fingerprint, repr(row))``) but is computed only where two
  fingerprints are equal, not for every row on every comparison;
- one scan of the table maps every deleted row to its live row ids, and
  every victim is resolved before the first delete.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import fingerprint_tuple
from repro.core.schema_mapping import SchemaMapping
from repro.errors import SchemaMappingError
from repro.sqlengine.database import Database
from repro.sqlengine.table import Table


@dataclass
class SnapshotDelta:
    """The outcome of one differential refresh of one global table."""

    table: str
    inserted: List[tuple] = field(default_factory=list)
    deleted: List[tuple] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    @property
    def change_count(self) -> int:
        return len(self.inserted) + len(self.deleted)


def snapshot_diff(
    old_rows: Sequence[tuple], new_rows: Sequence[tuple]
) -> Tuple[List[tuple], List[tuple]]:
    """Sort-merge differential of two snapshots; returns (inserted, deleted).

    Implements the fingerprint-sort-merge algorithm of §4.2: each tuple is
    reduced to its Rabin fingerprint, both sides are sorted by fingerprint,
    and one merge pass emits the rows present on only one side.  Duplicate
    tuples are handled by multiplicity (two copies vs. one copy = one
    change).  Both lists come out in ``(fingerprint, repr(row))`` order.
    """
    return _diff_fingerprinted(
        old_rows,
        _fingerprint_rows(old_rows),
        new_rows,
        _fingerprint_rows(new_rows),
    )


def _fingerprint_rows(rows: Sequence[tuple]) -> array:
    """The Rabin fingerprint of every row, aligned with ``rows``."""
    return array("I", [fingerprint_tuple(row) for row in rows])


def _diff_fingerprinted(
    old_rows: Sequence[tuple],
    old_fps: Sequence[int],
    new_rows: Sequence[tuple],
    new_fps: Sequence[int],
) -> Tuple[List[tuple], List[tuple]]:
    """:func:`snapshot_diff` over fingerprints computed by the caller.

    The fingerprint orders the merge; ``repr`` breaks ties, so the merge
    never misclassifies two different tuples with equal fingerprints.  It
    is computed only where two fingerprints are equal: within a run of
    equal fingerprints on one side while sorting, and across the sides
    while merging.
    """
    old_order = _merge_order(old_rows, old_fps)
    new_order = _merge_order(new_rows, new_fps)
    inserted: List[tuple] = []
    deleted: List[tuple] = []
    i = j = 0
    while i < len(old_order) and j < len(new_order):
        old_row = old_rows[old_order[i]]
        new_row = new_rows[new_order[j]]
        old_fp = old_fps[old_order[i]]
        new_fp = new_fps[new_order[j]]
        if old_fp == new_fp:
            old_repr = repr(old_row)
            new_repr = repr(new_row)
            if old_repr == new_repr:
                i += 1
                j += 1
                continue
            old_first = old_repr < new_repr
        else:
            old_first = old_fp < new_fp
        if old_first:
            deleted.append(old_row)
            i += 1
        else:
            inserted.append(new_row)
            j += 1
    deleted.extend(old_rows[position] for position in old_order[i:])
    inserted.extend(new_rows[position] for position in new_order[j:])
    return inserted, deleted


def _merge_order(rows: Sequence[tuple], fps: Sequence[int]) -> List[int]:
    """Positions of ``rows`` in ``(fingerprint, repr(row))`` order.

    A stable sort by fingerprint, then a stable re-sort by ``repr`` inside
    each run of equal fingerprints: the same order as one stable sort on
    the pair, with ``repr`` computed only for rows that share a fingerprint.
    """
    order = sorted(range(len(rows)), key=fps.__getitem__)
    if len(set(fps)) == len(fps):
        return order
    start = 0
    while start < len(order):
        fp = fps[order[start]]
        end = start + 1
        while end < len(order) and fps[order[end]] == fp:
            end += 1
        if end - start > 1:
            order[start:end] = sorted(
                order[start:end], key=lambda position: repr(rows[position])
            )
        start = end
    return order


class DataLoader:
    """Loads and refreshes one peer's share of the corporate network data."""

    def __init__(self, database: Database, mapping: SchemaMapping) -> None:
        self.database = database
        self.mapping = mapping
        # The snapshot store ("also stored in the normal peer instance but
        # in a separate database"): global table -> last extracted rows.
        self._snapshots: Dict[str, List[tuple]] = {}
        # Fingerprints of the stored snapshots, aligned with their rows
        # (4 bytes a row).  Filled lazily at a table's first refresh, so an
        # initial load hashes nothing and a refresh hashes only its new
        # snapshot.
        self._fingerprints: Dict[str, array] = {}

    # ------------------------------------------------------------------
    # Initial extraction
    # ------------------------------------------------------------------
    def initial_load(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> SnapshotDelta:
        """First extraction of one local table into the peer database."""
        global_table, transformed = self.mapping.transform(
            local_table, local_columns, rows
        )
        if global_table in self._snapshots:
            raise SchemaMappingError(
                f"{global_table!r} already loaded; use refresh()"
            )
        self.database.table(global_table).insert_many(transformed)
        self._snapshots[global_table] = transformed
        return SnapshotDelta(global_table, inserted=list(transformed))

    # ------------------------------------------------------------------
    # Differential refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        local_table: str,
        local_columns: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> SnapshotDelta:
        """Re-extract a table and apply only the changes.

        Every row the delta deletes is resolved to a live row id before any
        is deleted, so a delta that cannot be applied raises
        :class:`SchemaMappingError` and leaves the table and the snapshot
        store as they were.
        """
        global_table, transformed = self.mapping.transform(
            local_table, local_columns, rows
        )
        old_snapshot = self._snapshots.get(global_table)
        if old_snapshot is None:
            raise SchemaMappingError(
                f"{global_table!r} was never loaded; use initial_load()"
            )
        old_fps = self._fingerprints.get(global_table)
        if old_fps is None:
            old_fps = _fingerprint_rows(old_snapshot)
            self._fingerprints[global_table] = old_fps
        new_fps = _fingerprint_rows(transformed)
        inserted, deleted = _diff_fingerprinted(
            old_snapshot, old_fps, transformed, new_fps
        )
        table = self.database.table(global_table)
        for row_id in _victims(table, deleted, global_table):
            table.delete_row(row_id)
        table.insert_many(inserted)
        self._snapshots[global_table] = transformed
        self._fingerprints[global_table] = new_fps
        return SnapshotDelta(global_table, inserted=inserted, deleted=deleted)

    def snapshot_of(self, global_table: str) -> Optional[List[tuple]]:
        snapshot = self._snapshots.get(global_table.lower())
        return list(snapshot) if snapshot is not None else None

    def export_snapshots(self) -> Dict[str, List[tuple]]:
        """The whole snapshot store (for EBS backups: the snapshots live
        "in the normal peer instance but in a separate database", §4.2)."""
        return {table: list(rows) for table, rows in self._snapshots.items()}

    def restore_snapshots(self, snapshots: Dict[str, List[tuple]]) -> None:
        """Reinstall a backed-up snapshot store after fail-over recovery."""
        self._snapshots = {
            table: list(rows) for table, rows in snapshots.items()
        }
        self._fingerprints = {}


def _victims(
    table: Table, deleted: Sequence[tuple], global_table: str
) -> List[int]:
    """The live row id each deleted row removes, in ``deleted`` order.

    Each deleted row takes the first live occurrence of an equal row in
    row-id order that no earlier deleted row took (duplicates are legal in
    tables without a primary key and the delta counts multiplicity).  One
    scan of the table maps every deleted row to its live occurrences.
    """
    if not deleted:
        return []
    occurrences: Dict[tuple, List[int]] = {row: [] for row in deleted}
    for row_id, row in zip(table.row_ids(), table.rows()):
        ids = occurrences.get(row)
        if ids is not None:
            ids.append(row_id)
    taken: Dict[tuple, int] = {}
    victims: List[int] = []
    for row in deleted:
        ids = occurrences[row]
        count = taken.get(row, 0)
        if count == len(ids):
            raise SchemaMappingError(
                f"snapshot delta wants to delete a missing row from "
                f"{global_table!r}: {row!r}"
            )
        victims.append(ids[count])
        taken[row] = count + 1
    return victims
