"""Column types and value coercion.

The engine supports the types the TPC-H schema needs.  DATE values are stored
as ISO-8601 strings (``YYYY-MM-DD``): ISO dates compare correctly as strings,
which keeps comparison semantics trivial and serialization cheap.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from typing import Callable, Iterable, Optional

from repro.errors import SqlTypeError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class ColumnType(enum.Enum):
    """Supported column types."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"

    def coerce(self, value: object) -> object:
        """Validate/convert ``value`` to this type; ``None`` passes through."""
        if value is None:
            return None
        return _CONVERTERS[self](value)

    @property
    def convert(self) -> Callable[[object], object]:
        """What :meth:`coerce` applies to a non-NULL value."""
        return _CONVERTERS[self]

    def byte_size(self, value: object) -> int:
        """Approximate on-the-wire size of a value of this type."""
        if value is None:
            return 1
        if self is ColumnType.INTEGER or self is ColumnType.FLOAT:
            return 8
        if self is ColumnType.DATE:
            return 10
        return len(str(value)) + 4


def _coerce_integer(value: object) -> int:
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise SqlTypeError(f"booleans are not INTEGER values: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SqlTypeError(f"not an INTEGER: {value!r}")


def _coerce_float(value: object) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool):
        raise SqlTypeError(f"booleans are not FLOAT values: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise SqlTypeError(f"not a FLOAT: {value!r}")


def _coerce_date(value: object) -> str:
    if isinstance(value, str):
        if _DATE_RE.match(value):
            return value
        raise SqlTypeError(f"not an ISO date (YYYY-MM-DD): {value!r}")
    # datetime.date and datetime.datetime both render ISO via isoformat.
    isoformat = getattr(value, "isoformat", None)
    if callable(isoformat):
        text = isoformat()[:10]
        if _DATE_RE.match(text):
            return text
    raise SqlTypeError(f"not a DATE: {value!r}")


def _coerce_text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise SqlTypeError(f"not a TEXT value: {value!r}")


_CONVERTERS = {
    ColumnType.INTEGER: _coerce_integer,
    ColumnType.FLOAT: _coerce_float,
    ColumnType.DATE: _coerce_date,
    ColumnType.TEXT: _coerce_text,
}


def value_byte_size(value: object) -> int:
    """Size of ``value`` in bytes, its type inferred from the value (a typed
    column prices through :meth:`ColumnType.byte_size`)."""
    if value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    return len(str(value)) + 4


def records_byte_size(records: Iterable[object]) -> int:
    """Approximate wire size of a record batch: a tuple record is sized
    value by value, any other record as one value (:func:`value_byte_size`).

    A batch of at least :data:`_COLUMNAR_MIN_ROWS` plain tuples of one width
    is sized column by column with C-level builtins; every other batch (small,
    ragged, non-tuple records, or a column holding ``int``/``float``/``str``
    subclasses) takes the per-value loop.  Both give the same integer.
    """
    if type(records) is list and len(records) >= _COLUMNAR_MIN_ROWS:
        size = _columnar_bytes(records)
        if size is not None:
            return size
    return sum(
        value_byte_size(value)
        for record in records
        for value in (record if isinstance(record, tuple) else (record,))
    )


#: Below this many records the per-value loop beats transposing the batch.
_COLUMNAR_MIN_ROWS = 8
_TUPLE = frozenset((tuple,))
_NUMERIC = frozenset((int, float, bool))
_STR = frozenset((str,))
_NONE_TYPE = type(None)
_is_not_none = functools.partial(operator.is_not, None)


def _columnar_bytes(records: list) -> Optional[int]:
    """Size a batch of same-width plain tuples by column, or ``None`` when
    the batch is not that regular."""
    if set(map(type, records)) != _TUPLE or len(set(map(len, records))) != 1:
        return None
    total = 0
    for column in zip(*records):
        kinds = set(map(type, column))
        if _NONE_TYPE in kinds:
            kinds.discard(_NONE_TYPE)
            values = list(filter(_is_not_none, column))
            total += len(column) - len(values)
        else:
            values = column
        if kinds <= _NUMERIC:
            total += 8 * len(values)
        elif kinds == _STR:
            total += sum(map(len, values)) + 4 * len(values)
        elif any(issubclass(kind, (int, float, str)) for kind in kinds):
            # Mixed numbers and text, or subclasses (an IntEnum sizes 8, a
            # str subclass may override __str__): leave it to the loop.
            return None
        else:
            total += sum(map(len, map(str, values))) + 4 * len(values)
    return total
