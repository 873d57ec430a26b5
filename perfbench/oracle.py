"""An independent answer check: every query re-run on stdlib ``sqlite3``.

The oracle holds the union of every peer's rows (the supply chain's
replicated nation and region tables once) and applies the same refresh
deltas the network receives.  Answers are compared after these
normalisation rules:

1. SQL: the ``DATE`` keyword before a quoted literal is dropped
   (``DATE '1998-03-01'`` becomes ``'1998-03-01'``).  Dates are ISO strings
   in both systems, so string order is date order.
2. Rows: sorted, unless the query has ``ORDER BY``, in which case the
   order is compared too.  Sorting uses floats rounded to 12 significant
   digits so that last-digit differences cannot reorder rows.
3. Values: numbers (int or float) are equal when they agree to a relative
   tolerance of 1e-9 (absolute 1e-9 near zero); the engines and SQLite sum
   in different orders.  Strings and NULLs must be identical.
4. Column names are not compared; column counts are.
"""

from __future__ import annotations

import math
import re
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

_DATE_LITERAL = re.compile(r"\bDATE\s+(?='[^']*')", re.IGNORECASE)
_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)


def oracle_sql(sql: str) -> str:
    """Rule 1: drop the DATE keyword before literals."""
    return _DATE_LITERAL.sub("", sql)


def has_order_by(sql: str) -> bool:
    return bool(_ORDER_BY.search(sql))


def _sort_key(row: Sequence[object]) -> Tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, float):
            key.append((1, float(f"{value:.12g}")))
        elif isinstance(value, int):
            key.append((1, value))
        else:
            key.append((2, str(value)))
    return tuple(key)


def normalise(rows: Sequence[Sequence[object]], ordered: bool) -> List[tuple]:
    """Rule 2: a canonical row order."""
    rows = [tuple(row) for row in rows]
    if ordered:
        return rows
    return sorted(rows, key=_sort_key)


def _same_value(left: object, right: object) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right


def same_answer(
    got: Sequence[Sequence[object]],
    expected: Sequence[Sequence[object]],
    ordered: bool,
) -> Optional[str]:
    """None when the answers agree, else a one-line description."""
    if len(got) != len(expected):
        return f"{len(got)} rows, oracle has {len(expected)}"
    for index, (left, right) in enumerate(
        zip(normalise(got, ordered), normalise(expected, ordered))
    ):
        if len(left) != len(right):
            return f"row {index} has {len(left)} columns, oracle {len(right)}"
        for a, b in zip(left, right):
            if not _same_value(a, b):
                return f"row {index}: {left!r} != oracle {right!r}"
    return None


class SqliteOracle:
    """The union of all peers' rows in an in-memory SQLite database.

    Each table carries two extra columns, ``_peer`` and ``_pos`` (the row's
    position in that peer's snapshot), so a refresh can be replayed as the
    same per-row changes.
    """

    def __init__(
        self,
        schemas: Dict[str, object],
        tables: Dict[str, List[Tuple[str, tuple]]],
    ) -> None:
        self._db = sqlite3.connect(":memory:")
        self._cache: Dict[str, List[tuple]] = {}
        self._columns: Dict[str, List[str]] = {}
        for name, rows in sorted(tables.items()):
            columns = list(schemas[name].column_names)
            self._columns[name] = columns
            column_sql = ", ".join(columns + ["_peer", "_pos"])
            self._db.execute(f"CREATE TABLE {name} ({column_sql})")
            positions: Dict[str, int] = {}
            staged = []
            for peer_id, row in rows:
                position = positions.get(peer_id, 0)
                positions[peer_id] = position + 1
                staged.append(tuple(row) + (peer_id, position))
            marks = ", ".join("?" * (len(columns) + 2))
            self._db.executemany(
                f"INSERT INTO {name} VALUES ({marks})", staged
            )
            # Join keys and the refresh address, so the oracle stays fast.
            for column in columns:
                if column.endswith("key"):
                    self._db.execute(
                        f"CREATE INDEX {name}_{column} ON {name} ({column})"
                    )
            self._db.execute(
                f"CREATE INDEX {name}__addr ON {name} (_peer, _pos)"
            )
        self._db.commit()

    def answer(self, sql: str) -> List[tuple]:
        rows = self._cache.get(sql)
        if rows is None:
            rows = self._db.execute(oracle_sql(sql)).fetchall()
            self._cache[sql] = rows
        return rows

    def apply_changes(
        self, peer_id: str, table: str, changed: Sequence[Tuple[int, tuple]]
    ) -> None:
        """Replay one refresh: each changed snapshot position gets its row."""
        columns = self._columns[table]
        assignments = ", ".join(f"{column} = ?" for column in columns)
        statement = (
            f"UPDATE {table} SET {assignments} WHERE _peer = ? AND _pos = ?"
        )
        for position, row in changed:
            cursor = self._db.execute(
                statement, tuple(row) + (peer_id, position)
            )
            if cursor.rowcount != 1:
                raise RuntimeError(
                    f"oracle has no row {position} of {peer_id}/{table}"
                )
        self._db.commit()
        self._cache.clear()

    def close(self) -> None:
        self._db.close()
