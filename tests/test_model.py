"""Machine-state model: typed bounds and bounds-checked arithmetic."""

import pytest

import oracles
from evmsleuth.errors import UsageError
from evmsleuth.model import INT256, UINT8, UINT256, IntTypeBounds, wrap_arith

# -- IntTypeBounds --


def test_bounds_constructors():
    assert IntTypeBounds.unsigned(8) == IntTypeBounds(0, 255)
    assert IntTypeBounds.twos_complement(8) == IntTypeBounds(-128, 127)
    assert UINT256.max == (1 << 256) - 1
    assert INT256.min == -(1 << 255)
    assert not UINT8.signed
    assert INT256.signed


@pytest.mark.parametrize("bits", [0, 4, 9, 257, 264])
def test_bounds_rejects_bad_widths(bits):
    with pytest.raises(UsageError):
        IntTypeBounds.unsigned(bits)


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


def test_mulmod_never_flags():
    out = wrap_arith("MULMOD", [(1 << 256) - 1, (1 << 256) - 1, 97], UINT256)
    assert not out.out_of_bounds
    assert out.z_result == ((1 << 256) - 1) ** 2


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


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_wrap_arith_matches_oracle(op):
    for a, b, c, bits, signed, lo, hi in oracles.arith_cases(op, 1_000, seed=29):
        bounds = (
            IntTypeBounds.twos_complement(bits) if signed else IntTypeBounds.unsigned(bits)
        )
        operands = [a, b, c] if op in oracles.TERNARY_OPS else [a, b]
        out = wrap_arith(op, operands, bounds)
        assert out.result == oracles.machine_result(op, a, b, c)
        assert out.out_of_bounds == oracles.bounds_verdict(op, a, b, c, lo, hi, signed)
