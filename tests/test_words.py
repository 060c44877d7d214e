"""Kernel-level checks: the word kernel against the independent oracle."""

import pytest

import oracles
from evmsleuth import words

CASES_PER_OP = 2_000


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_machine_result_matches_oracle(op):
    for a, b, c, _, _, _, _ in oracles.arith_cases(op, CASES_PER_OP, seed=11):
        assert words.word_result(op, a, b, c) == oracles.machine_result(op, a, b, c)


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_check_bounds_matches_oracle(op):
    for a, b, c, _, signed, lo, hi in oracles.arith_cases(op, CASES_PER_OP, seed=17):
        result, z, oob, clamped = words.check_bounds(op, a, b, c, lo, hi, signed)
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
    result, z, oob, _ = words.check_bounds(
        "SDIV", intmin, oracles.M - 1, 0, -(1 << 255), (1 << 255) - 1, True
    )
    assert result == intmin
    assert z == 1 << 255
    assert oob
    # division by zero is zero and in bounds
    result, z, oob, _ = words.check_bounds("SDIV", 7, 0, 0, 0, 255, False)
    assert result == 0 and z == 0 and not oob


def test_exp_exponent_is_always_unsigned():
    # 2 ** (2**256 - 1) under int256 bounds: the exponent must not be read
    # as -1; the value is astronomic, clamped, out of bounds.
    result, z, oob, clamped = words.check_bounds(
        "EXP", 2, oracles.M - 1, 0, -(1 << 255), (1 << 255) - 1, True
    )
    assert result == oracles.machine_result("EXP", 2, oracles.M - 1)
    assert z is None and clamped and oob


def test_ternary_never_out_of_bounds():
    result, z, oob, clamped = words.check_bounds(
        "MULMOD", oracles.M - 1, oracles.M - 1, 97, 0, 255, False
    )
    assert result == ((oracles.M - 1) * (oracles.M - 1)) % 97
    assert z == (oracles.M - 1) * (oracles.M - 1)
    assert not oob and not clamped
    # modulus zero short-circuits to zero
    assert words.word_result("ADDMOD", 5, 6, 0) == 0


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
