"""Word layer: machine results and bounds-checked arithmetic against the
independent oracle, integer-type bounds, frozen examples."""

import pytest

import oracles
from evmsleuth import words
from evmsleuth.errors import UsageError
from evmsleuth.words import IntTypeBounds, wrap_arith

CASES_PER_OP = 2_000

UINT8 = IntTypeBounds(0, 255)
UINT256 = IntTypeBounds(0, oracles.M - 1)
INT256 = IntTypeBounds(-oracles.HALF, oracles.HALF - 1)


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_machine_result_matches_oracle(op):
    for a, b, c, _, _, _, _ in oracles.arith_cases(op, CASES_PER_OP, seed=11):
        assert words.word_result(op, a, b, c) == oracles.machine_result(op, a, b, c)


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_wrap_arith_matches_oracle(op):
    for a, b, c, _, signed, lo, hi in oracles.arith_cases(op, CASES_PER_OP, seed=17):
        # the bounds carry the signedness: the oracle's flag must agree
        assert (lo < 0) == signed
        operands = [a, b, c] if op in oracles.TERNARY_OPS else [a, b]
        out = wrap_arith(op, operands, IntTypeBounds(lo, hi))
        result, z, oob, clamped = out.result, out.z_result, out.out_of_bounds, out.z_clamped
        assert result == oracles.machine_result(op, a, b, c)
        assert oob == oracles.bounds_verdict(op, a, b, c, lo, hi, signed)
        expected_z = oracles.exact_when_feasible(op, a, b, c, signed)
        if z is None:
            assert clamped and oob
            # the kernel clamps a little earlier than the oracle; whenever
            # both produced a value they must agree, and a kernel clamp is
            # only legal for genuinely astronomic powers
            assert op == "EXP"
            assert expected_z is None or abs(expected_z) > (1 << 520)
        else:
            assert not clamped
            assert z == expected_z


def test_arity_table_matches_oracle():
    assert set(words.ARITH_ARITY) == set(oracles.ALL_OPS)
    assert {op for op, n in words.ARITH_ARITY.items() if n == 3} == set(oracles.TERNARY_OPS)
    assert all(words.ARITH_ARITY[op] == 2 for op in oracles.BINARY_OPS)


def test_sdiv_edges():
    intmin = 1 << 255
    # MIN / -1 wraps back to MIN at machine level; exact value +2**255
    out = wrap_arith("SDIV", [intmin, oracles.M - 1], INT256)
    assert out.result == intmin
    assert out.z_result == 1 << 255
    assert out.out_of_bounds
    # division by zero is zero and in bounds
    out = wrap_arith("SDIV", [7, 0], UINT8)
    assert out.result == 0 and out.z_result == 0 and not out.out_of_bounds


def test_exp_exponent_is_always_unsigned():
    # 2 ** (2**256 - 1) under int256 bounds: the exponent must not be read
    # as -1; the value is astronomic, clamped, out of bounds.
    out = wrap_arith("EXP", [2, oracles.M - 1], INT256)
    assert out.result == oracles.machine_result("EXP", 2, oracles.M - 1)
    assert out.z_result is None and out.z_clamped and out.out_of_bounds


def test_ternary_never_out_of_bounds():
    out = wrap_arith("MULMOD", [oracles.M - 1, oracles.M - 1, 97], UINT8)
    assert out.result == ((oracles.M - 1) * (oracles.M - 1)) % 97
    assert out.z_result == (oracles.M - 1) * (oracles.M - 1)
    assert not out.out_of_bounds and not out.z_clamped
    # modulus zero short-circuits to zero
    assert words.word_result("ADDMOD", 5, 6, 0) == 0


def test_bounds_rejects_inverted_range():
    with pytest.raises(UsageError):
        IntTypeBounds(5, 4)


# -- wrap_arith: frozen examples --


def test_add_wraparound():
    out = wrap_arith("ADD", [(1 << 256) - 1, 1], UINT256)
    assert out.result == 0
    assert out.z_result == 1 << 256
    assert out.out_of_bounds


def test_sub_underflow():
    out = wrap_arith("SUB", [0, 1], UINT256)
    assert out.result == (1 << 256) - 1
    assert out.z_result == -1
    assert out.out_of_bounds


def test_mul_doubling_overflow():
    # oracle: 2 * 2**255 == 2**256, one past UINT256.max
    out = wrap_arith("MUL", [2, 1 << 255], UINT256)
    assert out.result == 0
    assert out.z_result == 1 << 256
    assert out.out_of_bounds


def test_exp_small_in_range():
    out = wrap_arith("EXP", [2, 3], UINT256)
    assert out.result == 8
    assert out.z_result == 8
    assert not out.out_of_bounds


def test_wrap_arith_usage_errors():
    with pytest.raises(UsageError):
        wrap_arith("DIV", [1, 2], UINT256)
    with pytest.raises(UsageError):
        wrap_arith("ADD", [1, 2, 3], UINT256)
    with pytest.raises(UsageError):
        wrap_arith("ADDMOD", [1, 2], UINT256)
    with pytest.raises(UsageError):
        wrap_arith("ADD", [1 << 256, 0], UINT256)
    with pytest.raises(UsageError):
        wrap_arith("ADD", [-1, 0], UINT256)


def test_signed_helpers():
    assert words.to_signed(oracles.M - 1) == -1
    assert words.to_signed(oracles.HALF) == -(1 << 255)
    assert words.to_signed(5) == 5


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        words.word_result("DIV", 1, 2)
    with pytest.raises(ValueError):
        words.exact_value("DIV", 1, 2)


def test_selected_backend_is_exported():
    assert words.BACKEND == "pure"
    assert words.word_result("ADD", 1, 2) == 3
