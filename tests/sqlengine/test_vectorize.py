"""Vector expression kernels: narrowing, 3VL, deferred errors, zero-copy."""

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine.expr import (
    BinaryOp,
    ColumnRef,
    InList,
    InSubquery,
    Like,
    Literal,
    RowLayout,
)
from repro.sqlengine.vectorize import (
    compile_vector_evaluator,
    compile_vector_filter,
)

LAYOUT = RowLayout(("a", "b", "c"))


def cols_of(*batch):
    if not batch:
        return [[], [], []]
    return [list(col) for col in zip(*batch)]


def col(name):
    return ColumnRef(name)


def lit(value):
    return Literal(value)


def div_error():
    """An expression that errors on every row it is evaluated for."""
    return BinaryOp("=", BinaryOp("/", lit(1), lit(0)), lit(1))


class TestZeroCopy:
    def test_identity_selection_passes_column_through(self):
        cols = cols_of((1, 1.0, "x"), (2, 2.0, "y"))
        values, errs = compile_vector_evaluator(col("a"), LAYOUT)(
            cols, range(2)
        )
        assert values is cols[0]
        assert errs == []

    def test_sparse_selection_gathers(self):
        cols = cols_of((1, 1.0, "x"), (2, 2.0, "y"), (3, 3.0, "z"))
        values, errs = compile_vector_evaluator(col("a"), LAYOUT)(cols, [0, 2])
        assert values == [1, 3]
        assert errs == []


class TestShortCircuit:
    def test_and_skips_right_where_left_is_false(self):
        # Row 0 has a=5, so `a = 1` is false and 1/0 never evaluates.
        predicate = BinaryOp("and", BinaryOp("=", col("a"), lit(1)), div_error())
        cols = cols_of((5, 1.0, "x"), (1, 2.0, "y"), (6, 3.0, "z"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(3))
        assert passing == []
        assert [row for row, _ in errs] == [1]
        assert "division by zero" in str(errs[0][1])

    def test_or_skips_right_where_left_is_true(self):
        predicate = BinaryOp("or", BinaryOp("=", col("a"), lit(1)), div_error())
        cols = cols_of((1, 1.0, "x"), (2, 2.0, "y"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(2))
        assert list(passing) == [0]
        assert [row for row, _ in errs] == [1]

    def test_null_and_false_rejects_without_error(self):
        # NULL AND false = false: 3VL lets the right side decide.
        predicate = BinaryOp(
            "and",
            BinaryOp("=", col("a"), lit(1)),  # NULL when a is NULL
            BinaryOp("=", lit(1), lit(2)),
        )
        cols = cols_of((None, 1.0, "x"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(1))
        assert passing == [] and errs == []
        values, errs = compile_vector_evaluator(predicate.left, LAYOUT)(
            cols, range(1)
        )
        assert values == [None] and errs == []

    def test_null_or_true_passes(self):
        predicate = BinaryOp(
            "or",
            BinaryOp("=", col("a"), lit(1)),  # NULL when a is NULL
            BinaryOp("=", lit(1), lit(1)),
        )
        cols = cols_of((None, 1.0, "x"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(1))
        assert list(passing) == [0] and errs == []


class TestCompileTimeResolution:
    def test_like_pattern_compiles_once_and_matches(self):
        predicate = Like(col("c"), "r%", False)
        cols = cols_of((1, 0.0, "red"), (2, 0.0, "green"), (3, 0.0, None))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(3))
        assert list(passing) == [0] and errs == []
        values, errs = compile_vector_evaluator(predicate, LAYOUT)(
            cols, range(3)
        )
        assert values == [True, False, None] and errs == []

    def test_in_list_of_literals_uses_set_semantics(self):
        predicate = InList(col("a"), (lit(1), lit(3)), False)
        cols = cols_of((1, 0.0, "x"), (2, 0.0, "y"), (3, 0.0, "z"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(3))
        assert list(passing) == [0, 2] and errs == []

    def test_in_list_with_null_member_is_unknown_not_false(self):
        # 2 IN (1, NULL) is UNKNOWN: the row is rejected but NOT IN must
        # also reject it, which only 3VL (not a plain set test) gets right.
        cols = cols_of((2, 0.0, "x"))
        in_list = InList(col("a"), (lit(1), lit(None)), False)
        not_in = InList(col("a"), (lit(1), lit(None)), True)
        assert compile_vector_filter(in_list, LAYOUT)(cols, range(1))[0] == []
        assert compile_vector_filter(not_in, LAYOUT)(cols, range(1))[0] == []
        # A hit still wins over the NULL member; a miss is NULL, not false.
        values, errs = compile_vector_evaluator(in_list, LAYOUT)(
            cols_of((1, 0.0, "x"), (2, 0.0, "y")), range(2)
        )
        assert values == [True, None] and errs == []


class TestDeferredErrors:
    def test_strict_boolean_context_defers_type_error(self):
        # WHERE 1: logical contexts require an actual boolean.
        predicate = BinaryOp("and", lit(1), lit(True))
        cols = cols_of((1, 0.0, "x"), (2, 0.0, "y"))
        passing, errs = compile_vector_filter(predicate, LAYOUT)(cols, range(2))
        assert passing == []
        assert [row for row, _ in errs] == [0, 1]
        assert "expected a boolean" in str(errs[0][1])

    def test_same_row_errors_keep_the_earlier_stage(self):
        # Both comparison operands error on the same row; the interpreted
        # path raises the left one first, so the merge must keep it.
        expr = BinaryOp(
            "=",
            BinaryOp("/", col("a"), lit(0)),
            BinaryOp("+", col("a"), col("c")),
        )
        cols = cols_of((1, 0.0, "x"))
        values, errs = compile_vector_evaluator(expr, LAYOUT)(cols, range(1))
        assert len(errs) == 1
        assert "division by zero" in str(errs[0][1])

    def test_errors_sorted_by_row(self):
        expr = BinaryOp("/", lit(10), col("a"))
        cols = cols_of((0, 0.0, "x"), (2, 0.0, "y"), (0, 0.0, "z"))
        values, errs = compile_vector_evaluator(expr, LAYOUT)(cols, range(3))
        assert [row for row, _ in errs] == [0, 2]
        assert values[1] == 5.0


class TestRowAdapterFallback:
    def test_unsupported_node_falls_back_per_row(self):
        # InSubquery must be resolved by the planner, and a column missing
        # from the layout cannot be lowered; evaluating either raises per
        # row, and the adapter defers exactly the reference error.
        row = (1, 0.0, "x")
        for expr in (InSubquery(col("a"), object(), False), col("missing")):
            values, errs = compile_vector_evaluator(expr, LAYOUT)(
                cols_of(row), range(1)
            )
            assert [index for index, _ in errs] == [0]
            with pytest.raises(SqlExecutionError) as reference:
                expr.evaluate(row, LAYOUT)
            assert str(errs[0][1]) == str(reference.value)
