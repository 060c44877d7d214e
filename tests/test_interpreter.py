"""Interpreter semantics: stepping, calls, rollback, trace emission."""

import re
from pathlib import Path

import pytest

from evmsleuth.hashing import function_selector
from evmsleuth.fixtures.interpreter import (
    DEFAULT_GAS_LIMIT,
    GAS_COSTS,
    MNEMONICS,
    STEP_COUNTER,
    execute_transaction,
    trace_to_document,
    valid_jumpdests,
)
from evmsleuth.fixtures.state import GlobalState, state_root

SENDER = 0xAAAA
CONTRACT = 0xC0DE
OTHER = 0xBEEF


def op(name: str) -> bytes:
    return bytes([MNEMONICS[name]])


def push(value: int, width: int = 1) -> bytes:
    return bytes([MNEMONICS[f"PUSH{width}"]]) + value.to_bytes(width, "big")


def build_state(code: bytes, contract: int = CONTRACT, balance: int = 10**18) -> GlobalState:
    state = GlobalState()
    state.set_balance(SENDER, balance)
    state.install_code(contract, code)
    return state


def run(code: bytes, value: int = 0, data: bytes = b"", state: GlobalState | None = None):
    if state is None:
        state = build_state(code)
    return execute_transaction(state, SENDER, CONTRACT, value, data)


def test_push_push_sstore_example():
    # three steps: PUSH8 1; PUSH8 5; SSTORE -> storage[5] = 1, stack as before
    code = push(1, 8) + push(5, 8) + op("SSTORE") + op("STOP")
    out = run(code)
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 5) == 1
    sstore = out.trace[2]
    assert sstore.op == "SSTORE"
    assert sstore.stack == (1, 5)  # top last: key 5, value 1
    assert sstore.storage_write == (5, 1)
    assert out.trace[3].stack == ()  # stack restored


def test_jumpi_not_taken_falls_through():
    # JUMPI with zero condition must not jump (target would be invalid)
    code = push(0) + push(60) + op("JUMPI") + push(7) + push(1) + op("SSTORE") + op("STOP")
    out = run(code)
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 1) == 7
    pcs = [s.pc for s in out.trace]
    assert pcs == sorted(pcs)


def test_jump_taken():
    # jump over an SSTORE to a JUMPDEST
    skip = push(8) + op("JUMP") + push(1) + push(1) + op("SSTORE")
    code = skip + op("JUMPDEST") + push(2) + push(3) + op("SSTORE") + op("STOP")
    assert len(skip) == 8
    out = run(code)
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 1) == 0
    assert out.final_state.storage_at(CONTRACT, 3) == 2


def test_invalid_jump_is_exception():
    code = push(3) + op("JUMP") + op("STOP")  # pc 3 is STOP, not JUMPDEST
    out = run(code)
    assert out.status == "exception"
    assert out.exception == "invalid-jump"
    # the JUMP itself emitted no step
    assert [s.op for s in out.trace] == ["PUSH1"]


def test_pure_transfer_has_zero_steps():
    state = GlobalState()
    state.set_balance(SENDER, 100)
    out = execute_transaction(state, SENDER, OTHER, 7, b"")
    assert out.status == "success"
    assert out.trace == []
    assert out.gas_used == 0
    assert out.final_state.balance_of(OTHER) == 7
    assert out.final_state.balance_of(SENDER) == 93
    assert out.final_state.accounts[SENDER].nonce == 1


def test_top_level_revert_rolls_back_exactly():
    code = push(1) + push(1) + op("SSTORE") + push(0) + push(0) + op("REVERT")
    state = build_state(code)
    pre_root = state_root(state)
    out = execute_transaction(state, SENDER, CONTRACT, 5, b"")
    assert out.status == "exception"
    assert out.exception == "revert"
    assert out.final_state is state
    assert state_root(out.final_state) == pre_root
    assert out.final_state.accounts[SENDER].nonce == 0  # nonce bump rolled back too
    assert [s.op for s in out.trace][-1] == "REVERT"


def test_insufficient_balance_fails_without_execution():
    state = build_state(op("STOP"), balance=4)
    before = STEP_COUNTER.value
    out = execute_transaction(state, SENDER, CONTRACT, 5, b"")
    assert out.status == "exception"
    assert out.exception == "insufficient-balance"
    assert out.trace == [] and out.gas_used == 0
    assert STEP_COUNTER.value == before


def test_out_of_gas_consumes_limit_and_rolls_back():
    code = push(1) + push(1) + op("SSTORE") + op("STOP")
    state = build_state(code)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"", gas_limit=10)
    assert out.status == "exception"
    assert out.exception == "out-of-gas"
    assert out.gas_used == 10
    assert out.final_state.storage_at(CONTRACT, 1) == 0


def test_invalid_opcode():
    out = run(b"\xfe")
    assert out.status == "exception"
    assert out.exception == "invalid-opcode"
    assert out.trace == []


def test_stack_underflow():
    out = run(op("POP"))
    assert out.status == "exception"
    assert out.exception == "stack-underflow"


def test_running_off_code_end_synthesizes_stop():
    code = push(1) + push(2) + op("ADD")  # no terminal opcode
    out = run(code)
    assert out.status == "success"
    assert out.trace[-1].op == "STOP"
    assert out.trace[-1].pc == len(code)
    assert out.trace[-1].gas_cost == 0


def test_arithmetic_and_calldata():
    # store calldata word 32.. at slot 1 plus CALLVALUE
    code = (
        push(32)
        + op("CALLDATALOAD")
        + op("CALLVALUE")
        + op("ADD")
        + push(1)
        + op("SSTORE")
        + op("STOP")
    )
    data = bytes(4) + bytes(28) + (41).to_bytes(32, "big")
    out = run(code, value=1, data=data)
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 1) == 42


@pytest.mark.parametrize(
    "name, pushed, expected",
    [
        ("SUB", (3, 10), 7),  # top minus second: 10 - 3
        ("SDIV", (2, (1 << 256) - 7), (1 << 256) - 3),  # -7 / 2 truncates to -3
        ("EXP", (3, 2), 8),  # base on top: 2 ** 3
        ("ADDMOD", (7, 5, 4), 2),  # (4 + 5) % 7, modulus third from top
        ("MULMOD", (7, 5, 4), 6),  # (4 * 5) % 7
    ],
)
def test_arithmetic_pops_its_arity(name, pushed, expected):
    operands = b"".join(push(v, 32) for v in pushed)
    code = operands + op(name) + push(1) + op("SSTORE") + op("STOP")
    out = run(code)
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 1) == expected
    sstore = out.trace[len(pushed) + 2]
    assert sstore.op == "SSTORE"
    assert sstore.stack == (expected, 1)  # every operand consumed, nothing left below


def test_caller_and_selfbalance():
    code = (
        op("CALLER") + push(1) + op("SSTORE")
        + op("SELFBALANCE") + push(2) + op("SSTORE")
        + op("STOP")
    )
    out = run(code, value=9)
    assert out.final_state.storage_at(CONTRACT, 1) == SENDER
    assert out.final_state.storage_at(CONTRACT, 2) == 9


def test_memory_roundtrip():
    code = push(77) + push(64) + op("MSTORE") + push(64) + op("MLOAD") + push(3) + op("SSTORE") + op("STOP")
    out = run(code)
    assert out.final_state.storage_at(CONTRACT, 3) == 77


def test_calldata_seeds_memory():
    # per the frame model, calldata is the initial content of frame memory
    code = push(0) + op("MLOAD") + push(1) + op("SSTORE") + op("STOP")
    data = (5).to_bytes(32, "big")
    out = run(code, data=data)
    assert out.final_state.storage_at(CONTRACT, 1) == 5


# -- calls --


def _call_code(target: int, value: int) -> bytes:
    # CALL(gas=0 ignored, to, value, inOffset=0, inSize=0), push order reversed
    return (
        push(0)  # inSize
        + push(0)  # inOffset
        + push(value, 4)
        + push(target, 20)
        + push(0)  # gas operand (ignored)
        + op("CALL")
    )


def test_call_to_reverting_callee_pushes_zero():
    callee_code = push(0) + push(0) + op("REVERT")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    caller_code = _call_code(OTHER, 0) + push(7) + op("SSTORE") + op("STOP")
    state.install_code(CONTRACT, caller_code)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    # the status shows up in the step after CALL: stack top is 0
    call_steps = [s for s in out.trace if s.op == "CALL"]
    assert len(call_steps) == 1
    assert call_steps[0].call_info.status == 0
    resume = out.trace.index(call_steps[0]) + 4  # three callee steps in between
    assert out.trace[resume].depth == 1
    assert out.trace[resume].stack[-1] == 0
    assert out.final_state.storage_at(CONTRACT, 7) == 0


def test_call_success_pushes_one_and_keeps_writes():
    callee_code = push(11) + push(4) + op("SSTORE") + op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    state.install_code(CONTRACT, _call_code(OTHER, 0) + push(9) + op("SSTORE") + op("STOP"))
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    assert out.final_state.storage_at(OTHER, 4) == 11
    assert out.final_state.storage_at(CONTRACT, 9) == 1  # pushed status stored


def test_callee_revert_undoes_only_callee_writes():
    callee_code = push(1) + push(1) + op("SSTORE") + push(0) + push(0) + op("REVERT")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    caller_code = (
        push(5) + push(2) + op("SSTORE")  # caller write before the call
        + _call_code(OTHER, 3)
        + op("POP") + op("STOP")
    )
    state.install_code(CONTRACT, caller_code)
    state.set_balance(CONTRACT, 50)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 2) == 5
    assert out.final_state.storage_at(OTHER, 1) == 0  # rolled back
    assert out.final_state.balance_of(CONTRACT) == 50  # value returned
    assert out.final_state.balance_of(OTHER) == 0


def test_call_depth_bookkeeping():
    callee_code = op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    state.install_code(CONTRACT, _call_code(OTHER, 0) + op("POP") + op("STOP"))
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    depths = [s.depth for s in out.trace]
    for prev, cur in zip(depths, depths[1:]):
        assert abs(cur - prev) <= 1
    assert max(depths) == 2
    assert depths[0] == depths[-1] == 1


def test_value_call_to_codeless_is_single_step():
    state = build_state(b"")
    state.install_code(CONTRACT, _call_code(0xD00D, 13) + op("POP") + op("STOP"))
    state.set_balance(CONTRACT, 20)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    call_step = next(s for s in out.trace if s.op == "CALL")
    assert call_step.call_info.to == 0xD00D
    assert call_step.call_info.value == 13
    assert call_step.call_info.status == 1
    assert all(s.depth == 1 for s in out.trace)
    assert out.final_state.balance_of(0xD00D) == 13


def test_call_with_insufficient_contract_balance_pushes_zero():
    state = build_state(b"")
    state.install_code(CONTRACT, _call_code(0xD00D, 13) + push(1) + op("SSTORE") + op("STOP"))
    # CONTRACT holds nothing; the transfer cannot happen, no fault
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    assert out.final_state.storage_at(CONTRACT, 1) == 0
    assert out.final_state.balance_of(0xD00D) == 0
    call_step = next(s for s in out.trace if s.op == "CALL")
    assert call_step.call_info.status == 0


def test_gas_refund_at_call_return():
    callee_code = op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    state.install_code(CONTRACT, _call_code(OTHER, 0) + op("POP") + op("STOP"))
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    steps = out.trace
    call_idx = next(i for i, s in enumerate(steps) if s.op == "CALL")
    resume = steps[call_idx + 2]  # CALL, callee STOP, then POP back in caller
    assert resume.op == "POP" and resume.depth == 1
    # gas within a frame never increases except at this refund boundary
    gas_after_call = steps[call_idx].gas - GAS_COSTS["CALL"]
    assert resume.gas > gas_after_call - DEFAULT_GAS_LIMIT  # sanity
    assert resume.gas == steps[call_idx].gas - GAS_COSTS["CALL"] - GAS_COSTS["STOP"]


def test_faulting_callee_consumes_forwarded_gas():
    state = build_state(b"")
    state.install_code(OTHER, op("POP"))  # stack underflow
    state.install_code(CONTRACT, _call_code(OTHER, 0) + push(1) + op("SSTORE") + op("STOP"))
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"  # caller survives
    assert out.final_state.storage_at(CONTRACT, 1) == 0  # status 0 stored
    call_step = next(s for s in out.trace if s.op == "CALL")
    after = out.trace[out.trace.index(call_step) + 1]
    # caller kept only the reserve
    assert after.gas < 5_000
    assert call_step.call_info.status == 0


def test_staticcall_blocks_sstore():
    callee_code = push(1) + push(1) + op("SSTORE") + op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    caller_code = (
        push(0) + push(0) + push(OTHER, 20) + push(0) + op("STATICCALL")
        + push(3) + op("SSTORE") + op("STOP")
    )
    state.install_code(CONTRACT, caller_code)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    assert out.final_state.storage_at(OTHER, 1) == 0
    assert out.final_state.storage_at(CONTRACT, 3) == 0  # status 0
    static_step = next(s for s in out.trace if s.op == "STATICCALL")
    assert static_step.call_info.status == 0


def test_delegatecall_preserves_identity():
    # library writes CALLER to slot 1 of whoever delegates to it
    library = op("CALLER") + push(1) + op("SSTORE") + op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, library)
    caller_code = (
        push(0) + push(0) + push(OTHER, 20) + push(0) + op("DELEGATECALL")
        + op("POP") + op("STOP")
    )
    state.install_code(CONTRACT, caller_code)
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    assert out.status == "success"
    # write landed on the delegator, and CALLER stayed the original sender
    assert out.final_state.storage_at(CONTRACT, 1) == SENDER
    assert out.final_state.storage_at(OTHER, 1) == 0
    inner = [s for s in out.trace if s.depth == 2]
    assert inner and all(s.frame_id == CONTRACT for s in inner)
    assert all(s.code_address == OTHER for s in inner)


def test_return_value_surfaces():
    code = push(7) + push(0) + op("MSTORE") + push(32) + push(0) + op("RETURN")
    out = run(code)
    assert out.status == "success"
    assert out.return_value == (7).to_bytes(32, "big")


def test_logs_collected_on_success_dropped_on_revert():
    code = push(0) + push(0) + op("LOG0") + op("STOP")
    out = run(code)
    assert len(out.logs) == 1
    code = push(0) + push(0) + op("LOG0") + push(0) + push(0) + op("REVERT")
    out = run(code)
    assert out.logs == []


def test_replay_determinism():
    code = push(1) + push(2) + op("ADD") + push(1) + op("SSTORE") + op("STOP")
    state = build_state(code)
    one = execute_transaction(state, SENDER, CONTRACT, 0, b"xyz")
    two = execute_transaction(state, SENDER, CONTRACT, 0, b"xyz")
    assert trace_to_document(one) == trace_to_document(two)


def test_trace_document_shape():
    code = push(1, 8) + push(5, 8) + op("SSTORE") + op("STOP")
    out = run(code)
    doc = trace_to_document(out)
    assert doc["failed"] is False
    assert doc["returnValue"] == ""
    assert doc["gas"] == out.gas_used
    sstore = doc["structLogs"][2]
    assert sstore["op"] == "SSTORE"
    assert sstore["stack"] == ["0x1", "0x5"]
    assert sstore["storage"] == {"0" * 63 + "5": "0" * 63 + "1"}
    assert "call" not in sstore


def test_step_counter_counts_instructions():
    code = push(1) + push(2) + op("ADD") + op("POP") + op("STOP")
    before = STEP_COUNTER.value
    out = run(code)
    assert STEP_COUNTER.value - before == len(out.trace) == 5


def test_valid_jumpdests_skips_push_immediates():
    # PUSH2 0x5b5b embeds two JUMPDEST bytes that must not count
    code = bytes([MNEMONICS["PUSH2"], 0x5B, 0x5B]) + op("JUMPDEST")
    assert valid_jumpdests(code) == frozenset({3})


# The standard EVM byte of each named opcode the interpreter implements.
_STANDARD_BYTES = {
    "STOP": 0x00, "ADD": 0x01, "MUL": 0x02, "SUB": 0x03, "SDIV": 0x05,
    "ADDMOD": 0x08, "MULMOD": 0x09, "EXP": 0x0A, "LT": 0x10, "GT": 0x11,
    "EQ": 0x14, "ISZERO": 0x15, "AND": 0x16, "OR": 0x17, "NOT": 0x19,
    "BALANCE": 0x31, "CALLER": 0x33, "CALLVALUE": 0x34, "CALLDATALOAD": 0x35,
    "CALLDATASIZE": 0x36, "SELFBALANCE": 0x47, "POP": 0x50, "MLOAD": 0x51,
    "MSTORE": 0x52, "SLOAD": 0x54, "SSTORE": 0x55, "JUMP": 0x56, "JUMPI": 0x57,
    "PC": 0x58, "GAS": 0x5A, "JUMPDEST": 0x5B, "LOG0": 0xA0, "LOG1": 0xA1,
    "LOG2": 0xA2, "CALL": 0xF1, "RETURN": 0xF3, "DELEGATECALL": 0xF4,
    "STATICCALL": 0xFA, "REVERT": 0xFD,
}


def test_mnemonics_are_the_standard_evm_bytes():
    expected = dict(_STANDARD_BYTES)
    expected.update({f"PUSH{n}": 0x5F + n for n in range(1, 33)})
    expected.update({f"DUP{n}": 0x7F + n for n in range(1, 17)})
    expected.update({f"SWAP{n}": 0x8F + n for n in range(1, 17)})
    assert MNEMONICS == expected


def _documented_gas_table() -> dict[str, int]:
    """The "Interpreter gas table (v1)" section of docs/formats.md, one
    entry per opcode; `PUSH1`..`PUSH32` stands for the 32 PUSH opcodes."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("## Interpreter gas table (v1)\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) != 4 or not cells[1].strip().isdigit():
            continue
        for first, last in re.findall(r"`(\w+)`(?:\.\.`(\w+)`)?", cells[2]):
            stem = first.rstrip("0123456789")
            if last:
                low, high = int(first[len(stem):]), int(last[len(stem):])
                names = [f"{stem}{n}" for n in range(low, high + 1)]
            else:
                names = [first]
            for name in names:
                assert name not in table, f"{name} listed twice"
                table[name] = int(cells[1])
    return table


def test_gas_costs_are_the_documented_v1_table():
    assert GAS_COSTS == _documented_gas_table()


def test_gas_monotone_within_frames():
    callee_code = push(1) + push(1) + op("SSTORE") + op("STOP")
    state = build_state(b"")
    state.install_code(OTHER, callee_code)
    state.install_code(CONTRACT, _call_code(OTHER, 0) + op("POP") + op("STOP"))
    out = execute_transaction(state, SENDER, CONTRACT, 0, b"")
    by_depth_gas = {}
    for s in out.trace:
        prev = by_depth_gas.get(s.depth)
        if prev is not None and s.depth == 2:
            assert s.gas <= prev
        by_depth_gas[s.depth] = s.gas


def test_function_selector_contract():
    a = function_selector("withdraw(uint256)")
    b = function_selector("withdraw(uint256)")
    c = function_selector("deposit(uint256)")
    assert a == b
    assert a != c
    assert len(a) == 4
    with pytest.raises(ValueError):
        function_selector("withdraw (uint256)")
