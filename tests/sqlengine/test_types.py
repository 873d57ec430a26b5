"""Tests for column types and value coercion."""

import datetime

import pytest

from repro.errors import SqlTypeError
from repro.sqlengine import ColumnType
from repro.sqlengine.types import value_byte_size


class TestIntegerCoercion:
    def test_int_passes_through(self):
        assert ColumnType.INTEGER.coerce(42) == 42

    def test_integral_float_converts(self):
        assert ColumnType.INTEGER.coerce(42.0) == 42

    def test_fractional_float_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.INTEGER.coerce(42.5)

    def test_numeric_string_converts(self):
        assert ColumnType.INTEGER.coerce("17") == 17

    def test_garbage_string_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.INTEGER.coerce("seventeen")

    def test_bool_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.INTEGER.coerce(True)

    def test_none_passes_through(self):
        assert ColumnType.INTEGER.coerce(None) is None


class TestFloatCoercion:
    def test_float_passes_through(self):
        assert ColumnType.FLOAT.coerce(1.5) == 1.5

    def test_int_converts(self):
        assert ColumnType.FLOAT.coerce(3) == 3.0
        assert isinstance(ColumnType.FLOAT.coerce(3), float)

    def test_string_converts(self):
        assert ColumnType.FLOAT.coerce("2.5") == 2.5

    def test_garbage_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.FLOAT.coerce("two point five")


class TestDateCoercion:
    def test_iso_string_passes(self):
        assert ColumnType.DATE.coerce("1998-11-05") == "1998-11-05"

    def test_date_object_converts(self):
        assert ColumnType.DATE.coerce(datetime.date(1998, 11, 5)) == "1998-11-05"

    def test_datetime_object_truncates(self):
        value = datetime.datetime(1998, 11, 5, 13, 30)
        assert ColumnType.DATE.coerce(value) == "1998-11-05"

    def test_non_iso_string_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.DATE.coerce("11/05/1998")

    def test_iso_dates_compare_as_strings(self):
        # The reason DATE is stored as ISO text.
        assert "1998-11-05" < "1998-11-06" < "1999-01-01"


class TestTextCoercion:
    def test_string_passes(self):
        assert ColumnType.TEXT.coerce("hello") == "hello"

    def test_number_stringifies(self):
        assert ColumnType.TEXT.coerce(42) == "42"

    def test_bool_rejected(self):
        with pytest.raises(SqlTypeError):
            ColumnType.TEXT.coerce(True)


class TestByteSizes:
    def test_null_is_one_byte(self):
        assert ColumnType.INTEGER.byte_size(None) == 1

    def test_numbers_are_eight_bytes(self):
        assert ColumnType.INTEGER.byte_size(1) == 8
        assert ColumnType.FLOAT.byte_size(1.5) == 8

    def test_date_is_ten_bytes(self):
        assert ColumnType.DATE.byte_size("1998-11-05") == 10

    def test_text_grows_with_length(self):
        assert ColumnType.TEXT.byte_size("abcd") == 8
        assert ColumnType.TEXT.byte_size("abcdabcd") == 12

    def test_value_byte_size_infers_type(self):
        assert value_byte_size(None) == 1
        assert value_byte_size(7) == 8
        assert value_byte_size("abc") == 7

    def test_value_byte_size_with_explicit_type(self):
        # A typed DATE prices 10 bytes; the inferred string would be 14.
        assert ColumnType.DATE.byte_size("1998-11-05") == 10
        assert value_byte_size("1998-11-05") == 14
