"""Language-surface corners: types, intrinsics, and odd-but-legal forms."""

import numpy as np
import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.parser import parse_program
from repro.machine import Machine, slicewise_model
from repro.transform import Options as TransformOptions

from .conftest import assert_matches_reference


class TestSinglePrecision:
    def test_real_arrays_stay_float32(self):
        result, _ = assert_matches_reference(
            "real x(8)\nforall (i=1:8) x(i) = i * 0.5\n"
            "x = x * 2.0 + 1.0\nend", rtol=1e-6)
        assert result.arrays["x"].dtype == np.float32

    def test_mixed_precision_promotes(self):
        assert_matches_reference(
            "real x(8)\ndouble precision y(8)\n"
            "forall (i=1:8) x(i) = i * 0.25\n"
            "y = x + 1.0d0\nend", rtol=1e-6)

    def test_real_function_notation(self):
        assert_matches_reference(
            "integer k(4)\nreal x(4)\nk = 7\nx = real(k) / 2.0\nend",
            rtol=1e-6)


class TestReductionFamily:
    def test_product(self):
        assert_matches_reference(
            "integer a(5)\ninteger p\nforall (i=1:5) a(i) = i\n"
            "p = product(a)\nend", check_scalars=("p",))

    def test_any_all_into_branches(self):
        assert_matches_reference(
            "integer a(6)\ninteger r\nforall (i=1:6) a(i) = i - 3\n"
            "r = 0\n"
            "if (any(a > 2)) then\nr = r + 1\nend if\n"
            "if (all(a > -9)) then\nr = r + 10\nend if\nend",
            check_scalars=("r",))

    def test_count_with_compound_mask(self):
        assert_matches_reference(
            "integer a(10)\ninteger c\nforall (i=1:10) a(i) = i\n"
            "c = count((a > 2) .and. (mod(a, 2) == 0))\nend",
            check_scalars=("c",))

    def test_maxval_minval_dim(self):
        assert_matches_reference(
            "integer m(4,6), r(6), q(4)\n"
            "forall (i=1:4, j=1:6) m(i,j) = i*10 - j*j\n"
            "r = maxval(m, 1)\nq = minval(m, 2)\nend")

    def test_reduction_of_masked_product(self):
        assert_matches_reference(
            "double precision a(8)\ndouble precision s\n"
            "forall (i=1:8) a(i) = i * 0.5d0\n"
            "s = sum(merge(a, 0.0d0, a > 2.0d0))\nend",
            check_scalars=("s",))


class TestShiftFamily:
    def test_eoshift_scalar_boundary(self):
        assert_matches_reference(
            "integer v(8), z(8)\nforall (i=1:8) v(i) = i\n"
            "z = eoshift(v, 3, 99)\nend")

    def test_eoshift_negative(self):
        assert_matches_reference(
            "integer v(8), z(8)\nforall (i=1:8) v(i) = i\n"
            "z = eoshift(v, -2, -1, 1)\nend")

    def test_cshift_full_period_identity(self):
        result, ref = assert_matches_reference(
            "integer v(8), z(8)\nforall (i=1:8) v(i) = i*i\n"
            "z = cshift(v, 8)\nend")
        np.testing.assert_array_equal(result.arrays["z"],
                                      result.arrays["v"])

    def test_cshift_of_expression(self):
        assert_matches_reference(
            "integer v(8), z(8)\nforall (i=1:8) v(i) = i\n"
            "z = cshift(v * v + 1, 2)\nend")

    def test_transpose_round_trip(self):
        result, _ = assert_matches_reference(
            "integer a(5,7), b(7,5), c(5,7)\n"
            "forall (i=1:5, j=1:7) a(i,j) = i*100 + j\n"
            "b = transpose(a)\nc = transpose(b)\nend")
        np.testing.assert_array_equal(result.arrays["c"],
                                      result.arrays["a"])


class TestOddButLegal:
    def test_empty_program(self):
        exe = compile_source("end")
        result = exe.run(Machine(slicewise_model(64)))
        assert result.stats.node_calls == 0

    def test_declaration_only_program(self):
        exe = compile_source("integer a(4)\nend")
        result = exe.run(Machine(slicewise_model(64)))
        np.testing.assert_array_equal(result.arrays["a"], [0, 0, 0, 0])

    def test_self_assignment(self):
        assert_matches_reference("integer a(6)\na = a\nend")

    def test_chained_sections_same_statement(self):
        assert_matches_reference(
            "integer a(12)\nforall (i=1:12) a(i) = i\n"
            "a(1:6) = a(1:6) + a(1:6)\nend")

    def test_deeply_nested_parentheses(self):
        assert_matches_reference(
            "integer x\nx = ((((1 + 2)) * ((3))))\nend",
            check_scalars=("x",))

    def test_negative_do_step(self):
        assert_matches_reference(
            "integer a(6)\ninteger i\n"
            "do i = 6, 1, -1\na(i) = 7 - i\nend do\nend")

    def test_zero_trip_loop(self):
        assert_matches_reference(
            "integer a(4)\ninteger i\na = 9\n"
            "do i = 4, 1\na = 0\nend do\nend")

    @pytest.mark.parametrize("body, loop, want", [
        ("a(i) = i", "do i = 1, 3", 4),       # promoted to a parallel MOVE
        ("s = s + 1", "do i = 1, 3", 4),      # stays a serial host loop
        ("a(i) = i", "do i = 1, 6, 2", 7),
        ("a(i) = i", "do i = 5, 3", 5),       # zero trips: the index is lo
    ])
    @pytest.mark.parametrize("options", [
        CompilerOptions(),
        CompilerOptions(transform=TransformOptions(promote_loops=False)),
        CompilerOptions.naive(),
    ], ids=["default", "unpromoted", "naive"])
    def test_do_index_exit_value(self, body, loop, want, options):
        """After the loop the index holds lo + trips*step — whether the
        loop was promoted or ran serially, on every engine, and in the
        reference interpreter."""
        source = (f"integer i, s, a(6)\na = 0\ns = 0\n{loop}\n{body}\n"
                  "end do\nprint *, i\nend")
        ref = run_reference(parse_program(source))
        assert ref.output == [str(want)]
        exe = compile_source(source, options)
        for mode in ("interp", "fast", "fused"):
            result = exe.run(Machine(slicewise_model(64), exec_mode=mode))
            assert result.output == ref.output, mode
            assert result.scalars["i"] == want, mode
            np.testing.assert_array_equal(result.arrays["a"],
                                          ref.arrays["a"])

    def test_where_statement_form_compiles_parallel(self):
        result, _ = assert_matches_reference(
            "integer a(64)\nforall (i=1:64) a(i) = i\n"
            "where (a > 32) a = 0\nend")
        assert result.stats.node_calls >= 1

    def test_logical_array_assignment(self):
        assert_matches_reference(
            "logical m(8)\ninteger a(8)\nforall (i=1:8) a(i) = i\n"
            "m = a > 4\n"
            "where (m) a = 0\nend")

    def test_power_with_integer_and_real(self):
        assert_matches_reference(
            "double precision x(6)\nforall (i=1:6) x(i) = i * 0.5d0\n"
            "x = x**2 + x**0.5d0\nend", rtol=1e-12)

    def test_print_array(self):
        result, ref = assert_matches_reference(
            "integer a(3)\na = 5\nprint *, a\nend")
        assert result.output  # some rendering of the array

    def test_very_long_fused_block_splits_cleanly(self):
        # 30 statements over the same shape fuse, then split on pointer
        # pressure; results must survive the round trip.
        lines = ["double precision q(64)", "q = 1.0d0"]
        for k in range(30):
            lines.append(f"q = q * 1.0d0 + {k}.0d0")
        lines.append("end")
        assert_matches_reference("\n".join(lines))
