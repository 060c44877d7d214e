"""Kernel-level checks: the word kernel against the independent oracle."""

import pytest

import oracles
from evmsleuth import words

CASES_PER_OP = 2_000


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_machine_result_matches_oracle(op):
    code = words.ARITH_CODES[op]
    for a, b, c, _, _, _, _ in oracles.arith_cases(op, CASES_PER_OP, seed=11):
        assert words.word_result(code, a, b, c) == oracles.machine_result(op, a, b, c)


@pytest.mark.parametrize("op", oracles.ALL_OPS)
def test_check_bounds_matches_oracle(op):
    code = words.ARITH_CODES[op]
    for a, b, c, _, signed, lo, hi in oracles.arith_cases(op, CASES_PER_OP, seed=17):
        result, z, oob, clamped = words.check_bounds(code, a, b, c, lo, hi, signed)
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


def test_sdiv_edges():
    code = words.OP_SDIV
    intmin = 1 << 255
    # MIN / -1 wraps back to MIN at machine level; exact value +2**255
    result, z, oob, _ = words.check_bounds(
        code, intmin, oracles.M - 1, 0, -(1 << 255), (1 << 255) - 1, True
    )
    assert result == intmin
    assert z == 1 << 255
    assert oob
    # division by zero is zero and in bounds
    result, z, oob, _ = words.check_bounds(code, 7, 0, 0, 0, 255, False)
    assert result == 0 and z == 0 and not oob


def test_exp_exponent_is_always_unsigned():
    # 2 ** (2**256 - 1) under int256 bounds: the exponent must not be read
    # as -1; the value is astronomic, clamped, out of bounds.
    result, z, oob, clamped = words.check_bounds(
        words.OP_EXP, 2, oracles.M - 1, 0, -(1 << 255), (1 << 255) - 1, True
    )
    assert result == oracles.machine_result("EXP", 2, oracles.M - 1)
    assert z is None and clamped and oob


def test_ternary_never_out_of_bounds():
    result, z, oob, clamped = words.check_bounds(
        words.OP_MULMOD, oracles.M - 1, oracles.M - 1, 97, 0, 255, False
    )
    assert result == ((oracles.M - 1) * (oracles.M - 1)) % 97
    assert z == (oracles.M - 1) * (oracles.M - 1)
    assert not oob and not clamped
    # modulus zero short-circuits to zero
    assert words.word_result(words.OP_ADDMOD, 5, 6, 0) == 0


def test_signed_helpers():
    assert words.to_signed(oracles.M - 1) == -1
    assert words.to_signed(oracles.HALF) == -(1 << 255)
    assert words.to_signed(5) == 5
    assert words.from_signed(-1) == oracles.M - 1
    for v in (0, 1, oracles.HALF - 1, oracles.HALF, oracles.M - 1):
        assert words.from_signed(words.to_signed(v)) == v


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        words.word_result(99, 1, 2)
    with pytest.raises(ValueError):
        words.exact_value(0, 1, 2)


def test_selected_backend_is_exported():
    assert words.BACKEND == "pure"
    assert words.word_result(words.OP_ADD, 1, 2) == 3


# -- decode_steps --


def _entry(**overrides):
    entry = {
        "pc": 0,
        "op": "PUSH1",
        "gas": 100,
        "gasCost": 3,
        "depth": 1,
        "stack": ["0x1", "0xff"],
    }
    entry.update(overrides)
    return entry


def test_decode_steps_basic():
    steps = words.decode_steps([_entry()])
    assert steps == [(0, "PUSH1", 100, 3, 1, (1, 255), None, None)]


def test_decode_steps_storage_and_call():
    entry = _entry(
        storage={"00" * 31 + "05": "00" * 31 + "01"},
        call={"to": "0x" + "ab" * 20, "value": "0x7", "input": "0x1234", "status": 1},
    )
    ((_, _, _, _, _, _, storage, call),) = words.decode_steps([entry])
    assert storage == ((5, 1),)
    assert call == (int("ab" * 20, 16), 7, bytes.fromhex("1234"), 1)


def test_decode_steps_accepts_prefixless_and_uppercase_hex():
    steps = words.decode_steps([_entry(stack=["ff", "0XAB"])])
    assert steps[0][5] == (255, 171)


@pytest.mark.parametrize(
    "mutation",
    [
        {"pc": -1},
        {"pc": True},
        {"op": ""},
        {"gas": -5},
        {"depth": 0},
        {"stack": "nope"},
        {"stack": ["0x"]},
        {"stack": ["zz"]},
        {"stack": [hex(oracles.M)]},
        {"storage": ["not", "a", "map"]},
        {"call": {"to": "0x1"}},  # value missing
        {"call": {"to": "0x1", "value": "0x0", "status": 7}},
        {"stack": ["0x-1"]},
        {"stack": ["-0x1"]},
        {"gas": True},
        {"gasCost": True},
        {"depth": True},
    ],
)
def test_decode_steps_rejects_malformed(mutation):
    with pytest.raises(ValueError) as info:
        words.decode_steps([_entry(), _entry(**mutation)])
    assert info.value.args[1] == 1  # raw index of the offending entry


def test_decode_steps_missing_field():
    entry = _entry()
    del entry["gasCost"]
    with pytest.raises(ValueError) as info:
        words.decode_steps([entry])
    assert "gasCost" in info.value.args[0]
    assert info.value.args[1] == 0


def test_decode_steps_empty():
    assert words.decode_steps([]) == []
