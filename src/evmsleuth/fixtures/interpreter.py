"""Small-step bytecode interpreter with structured trace emission.

Scope is deliberately narrow: the opcode subset the bundled fixtures need,
and call semantics where the callee receives all remaining gas minus a
fixed caller reserve. No memory expansion pricing, no 63/64 rule, no
contract creation.

One table, OPCODE_TABLE, gives each opcode its byte (the standard EVM
assignment), stack effect and flat gas cost; its gas column is the frozen
v1 table in docs/formats.md ("Interpreter gas table (v1)"). MNEMONICS and
GAS_COSTS are read from it.

Trace contract (frozen in docs/formats.md):
- every *completed* instruction emits exactly one TraceStep with the
  pre-instruction stack snapshot (bottom first, top last);
- a faulting instruction (out of gas, stack misuse, invalid jump/opcode,
  static violation) emits nothing; its frame simply ends without a terminal
  opcode and the caller resumes one depth up with status 0;
- running past the end of code emits a synthesized STOP step, so every
  non-faulting frame ends in STOP, RETURN or REVERT;
- value calls to codeless accounts emit the CALL step only (a pure transfer,
  zero callee steps);
- call status is backfilled onto the CALL step once the callee completes.

Depth starts at 1 for the outermost frame. DELEGATECALL runs the callee's
code under the caller's identity, caller and value. STATICCALL forbids
SSTORE, LOG* and value transfer anywhere below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import words
from ..errors import UsageError
from ..words import ADDRESS_MASK, WORD_MASK, address_hex, storage_hex, word_hex
from .state import GlobalState

STACK_LIMIT = 1024
MEMORY_LIMIT = 1 << 20
DEFAULT_GAS_LIMIT = 10_000_000
CALL_RESERVE = 2_000


class _StepCounter:
    """Global instrumentation: bumped once per executed instruction.

    Exists so callers can prove a code path performed zero interpreter work
    (the no-replay guarantee of the state-delta detectors).
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1


STEP_COUNTER = _StepCounter()


# -- the opcode table: mnemonic -> (byte, pops, pushes, gas) --

OPCODE_TABLE: dict[str, tuple[int, int, int, int]] = {
    "STOP": (0x00, 0, 0, 0),
    "ADD": (0x01, 2, 1, 3),
    "MUL": (0x02, 2, 1, 5),
    "SUB": (0x03, 2, 1, 3),
    "SDIV": (0x05, 2, 1, 5),
    "ADDMOD": (0x08, 3, 1, 8),
    "MULMOD": (0x09, 3, 1, 8),
    "EXP": (0x0A, 2, 1, 10),
    "LT": (0x10, 2, 1, 3),
    "GT": (0x11, 2, 1, 3),
    "EQ": (0x14, 2, 1, 3),
    "ISZERO": (0x15, 1, 1, 3),
    "AND": (0x16, 2, 1, 3),
    "OR": (0x17, 2, 1, 3),
    "NOT": (0x19, 1, 1, 3),
    "BALANCE": (0x31, 1, 1, 20),
    "CALLER": (0x33, 0, 1, 2),
    "CALLVALUE": (0x34, 0, 1, 2),
    "CALLDATALOAD": (0x35, 1, 1, 3),
    "CALLDATASIZE": (0x36, 0, 1, 2),
    "SELFBALANCE": (0x47, 0, 1, 5),
    "POP": (0x50, 1, 0, 2),
    "MLOAD": (0x51, 1, 1, 3),
    "MSTORE": (0x52, 2, 0, 3),
    "SLOAD": (0x54, 1, 1, 50),
    "SSTORE": (0x55, 2, 0, 200),
    "JUMP": (0x56, 1, 0, 8),
    "JUMPI": (0x57, 2, 0, 10),
    "PC": (0x58, 0, 1, 2),
    "GAS": (0x5A, 0, 1, 2),
    "JUMPDEST": (0x5B, 0, 0, 1),
    "LOG0": (0xA0, 2, 0, 100),
    "LOG1": (0xA1, 3, 0, 150),
    "LOG2": (0xA2, 4, 0, 200),
    "CALL": (0xF1, 5, 1, 100),
    "RETURN": (0xF3, 2, 0, 0),
    "DELEGATECALL": (0xF4, 4, 1, 100),
    "STATICCALL": (0xFA, 4, 1, 100),
    "REVERT": (0xFD, 2, 0, 0),
}
for _n in range(1, 33):
    OPCODE_TABLE[f"PUSH{_n}"] = (0x5F + _n, 0, 1, 3)
for _n in range(1, 17):
    OPCODE_TABLE[f"DUP{_n}"] = (0x7F + _n, _n, _n + 1, 3)
    OPCODE_TABLE[f"SWAP{_n}"] = (0x8F + _n, _n + 1, _n + 1, 3)

MNEMONICS: dict[str, int] = {name: row[0] for name, row in OPCODE_TABLE.items()}
GAS_COSTS: dict[str, int] = {name: row[3] for name, row in OPCODE_TABLE.items()}

# byte -> (op, pops, pushes, gas): one lookup decodes an instruction.
_DECODE = {row[0]: (name, *row[1:]) for name, row in OPCODE_TABLE.items()}
_SYNTHESIZED_STOP = _DECODE[MNEMONICS["STOP"]]
_JUMPDEST_BYTE = MNEMONICS["JUMPDEST"]

FAULT_OUT_OF_GAS = "out-of-gas"
FAULT_STACK_UNDERFLOW = "stack-underflow"
FAULT_STACK_OVERFLOW = "stack-overflow"
FAULT_INVALID_JUMP = "invalid-jump"
FAULT_INVALID_OPCODE = "invalid-opcode"
FAULT_STATIC_VIOLATION = "static-violation"

STATUS_SUCCESS = "success"
STATUS_EXCEPTION = "exception"


class _Fault(Exception):
    def __init__(self, kind: str):
        self.kind = kind


@dataclass
class CallInfo:
    to: int
    value: int
    input: bytes
    status: int | None = None


@dataclass
class LogEntry:
    address: int
    topics: tuple[int, ...]
    data: bytes


@dataclass
class TraceStep:
    pc: int
    op: str
    gas: int
    gas_cost: int
    depth: int
    stack: tuple[int, ...]
    storage_write: tuple[int, int] | None = None
    call_info: CallInfo | None = None
    # Ground-truth frame attribution. Not serialized; reconstruction must
    # re-derive these and is tested against them.
    frame_id: int = 0
    code_address: int = 0


@dataclass
class ActivationRecord:
    """One call frame: identity, code, pc, data/memory, stack, gas."""

    id: int
    code_address: int
    code: bytes
    caller: int
    value: int
    gas: int
    static: bool
    calldata: bytes
    journal_mark: int
    pc: int = 0
    memory: bytearray = field(default_factory=bytearray)
    stack: list[int] = field(default_factory=list)
    logs: list[LogEntry] = field(default_factory=list)
    call_step: TraceStep | None = None  # CALL step awaiting a status backfill


@dataclass
class EVMState:
    """Machine configuration: the call frames (root first) plus the global
    state."""

    frames: list[ActivationRecord]
    world: GlobalState
    trace: list[TraceStep] = field(default_factory=list)
    # Completion bookkeeping, set when the root frame ends.
    finished: bool = False
    success: bool = False
    fault: str | None = None
    return_data: bytes = b""
    logs: list[LogEntry] = field(default_factory=list)
    gas_left: int = 0


@dataclass
class ExecutionOutcome:
    status: str
    exception: str | None
    gas_used: int
    return_value: bytes
    trace: list[TraceStep]
    logs: list[LogEntry]
    final_state: GlobalState


_jumpdest_cache: dict[bytes, frozenset[int]] = {}


def valid_jumpdests(code: bytes) -> frozenset[int]:
    """Positions of JUMPDEST bytes outside push immediates."""
    cached = _jumpdest_cache.get(code)
    if cached is not None:
        return cached
    dests = set()
    i = 0
    n = len(code)
    while i < n:
        b = code[i]
        if b == _JUMPDEST_BYTE:
            dests.add(i)
        elif 0x60 <= b <= 0x7F:
            i += b - 0x5F
        i += 1
    frozen = frozenset(dests)
    _jumpdest_cache[code] = frozen
    return frozen


def _read_bytes(buf, offset: int, size: int) -> bytes:
    """Zero-padded read; enormous offsets read as zeros."""
    if size == 0:
        return b""
    if offset >= len(buf):
        return b"\x00" * size
    chunk = bytes(buf[offset : offset + size])
    return chunk.ljust(size, b"\x00")


def _write_memory(frame: ActivationRecord, offset: int, data: bytes):
    end = offset + len(data)
    if end > MEMORY_LIMIT:
        raise _Fault(FAULT_OUT_OF_GAS)
    if end > len(frame.memory):
        frame.memory.extend(b"\x00" * (end - len(frame.memory)))
    frame.memory[offset:end] = data


def _execute_one(vm: EVMState, frame: ActivationRecord):
    """Execute one small step of the top frame; a _Fault means it emitted
    nothing. vm.finished flips when the root frame ends."""
    code = frame.code
    pc = frame.pc
    if pc >= len(code):
        row = _SYNTHESIZED_STOP
    else:
        row = _DECODE.get(code[pc])
        if row is None:
            raise _Fault(FAULT_INVALID_OPCODE)
    op, pops, pushes, cost = row

    if frame.gas < cost:
        raise _Fault(FAULT_OUT_OF_GAS)

    stack = frame.stack
    if len(stack) < pops:
        raise _Fault(FAULT_STACK_UNDERFLOW)
    if len(stack) - pops + pushes > STACK_LIMIT:
        raise _Fault(FAULT_STACK_OVERFLOW)

    # Faults that depend on operands are decided against peeked values so a
    # faulting instruction never emits a step.
    if frame.static and (op == "SSTORE" or op.startswith("LOG")):
        raise _Fault(FAULT_STATIC_VIOLATION)
    if op == "CALL" and frame.static and stack[-3] != 0:
        raise _Fault(FAULT_STATIC_VIOLATION)
    if op == "JUMP" or (op == "JUMPI" and stack[-2] != 0):
        dest = stack[-1]
        if dest not in valid_jumpdests(code):
            raise _Fault(FAULT_INVALID_JUMP)

    emitted = TraceStep(
        pc=pc,
        op=op,
        gas=frame.gas,
        gas_cost=cost,
        depth=len(vm.frames),
        stack=tuple(stack),
        frame_id=frame.id,
        code_address=frame.code_address,
    )
    vm.trace.append(emitted)
    frame.gas -= cost
    STEP_COUNTER.bump()

    if op == "STOP":
        _complete_frame(vm, success=True, data=b"")
        return

    next_pc = pc + 1

    if op.startswith("PUSH"):
        width = int(op[4:])
        raw = code[pc + 1 : pc + 1 + width]
        stack.append(int.from_bytes(raw.ljust(width, b"\x00"), "big"))
        next_pc = pc + 1 + width
    elif op.startswith("DUP"):
        stack.append(stack[-int(op[3:])])
    elif op.startswith("SWAP"):
        n = int(op[4:])
        stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
    elif op in words.ARITH_ARITY:
        a = stack.pop()
        b = stack.pop()
        n = stack.pop() if pops == 3 else 0
        stack.append(words.word_result(op, a, b, n))
    elif op == "LT":
        a = stack.pop()
        b = stack.pop()
        stack.append(1 if a < b else 0)
    elif op == "GT":
        a = stack.pop()
        b = stack.pop()
        stack.append(1 if a > b else 0)
    elif op == "EQ":
        a = stack.pop()
        b = stack.pop()
        stack.append(1 if a == b else 0)
    elif op == "ISZERO":
        stack.append(1 if stack.pop() == 0 else 0)
    elif op == "AND":
        stack.append(stack.pop() & stack.pop())
    elif op == "OR":
        stack.append(stack.pop() | stack.pop())
    elif op == "NOT":
        stack.append(stack.pop() ^ WORD_MASK)
    elif op == "POP":
        stack.pop()
    elif op == "PC":
        stack.append(pc)
    elif op == "GAS":
        stack.append(frame.gas)
    elif op == "JUMPDEST":
        pass
    elif op == "JUMP":
        next_pc = stack.pop()
    elif op == "JUMPI":
        dest = stack.pop()
        cond = stack.pop()
        if cond:
            next_pc = dest
    elif op == "CALLER":
        stack.append(frame.caller)
    elif op == "CALLVALUE":
        stack.append(frame.value)
    elif op == "CALLDATALOAD":
        offset = stack.pop()
        stack.append(int.from_bytes(_read_bytes(frame.calldata, offset, 32), "big"))
    elif op == "CALLDATASIZE":
        stack.append(len(frame.calldata))
    elif op == "MLOAD":
        offset = stack.pop()
        if offset + 32 > MEMORY_LIMIT:
            raise _Fault(FAULT_OUT_OF_GAS)
        stack.append(int.from_bytes(_read_bytes(frame.memory, offset, 32), "big"))
    elif op == "MSTORE":
        offset = stack.pop()
        value = stack.pop()
        _write_memory(frame, offset, value.to_bytes(32, "big"))
    elif op == "SLOAD":
        key = stack.pop()
        stack.append(vm.world.storage_at(frame.id, key))
    elif op == "SSTORE":
        key = stack.pop()
        value = stack.pop()
        vm.world.set_storage(frame.id, key, value)
        emitted.storage_write = (key, value)
    elif op == "BALANCE":
        addr = stack.pop() & ADDRESS_MASK
        stack.append(vm.world.balance_of(addr))
    elif op == "SELFBALANCE":
        stack.append(vm.world.balance_of(frame.id))
    elif op.startswith("LOG"):
        offset = stack.pop()
        size = stack.pop()
        topics = tuple(stack.pop() for _ in range(int(op[3:])))
        if offset + size > MEMORY_LIMIT:
            raise _Fault(FAULT_OUT_OF_GAS)
        frame.logs.append(LogEntry(frame.id, topics, _read_bytes(frame.memory, offset, size)))
    elif op in ("CALL", "STATICCALL", "DELEGATECALL"):
        _do_call(vm, frame, op, emitted)
    elif op == "RETURN" or op == "REVERT":
        offset = stack.pop()
        size = stack.pop()
        if offset + size > MEMORY_LIMIT:
            raise _Fault(FAULT_OUT_OF_GAS)
        data = _read_bytes(frame.memory, offset, size)
        frame.pc = next_pc
        _complete_frame(vm, success=(op == "RETURN"), data=data, revert=(op == "REVERT"))
        return
    else:  # pragma: no cover - table and dispatch are kept in sync
        raise _Fault(FAULT_INVALID_OPCODE)

    frame.pc = next_pc


def _do_call(vm: EVMState, frame: ActivationRecord, op: str, emitted: TraceStep):
    stack = frame.stack
    stack.pop()  # gas operand: popped, ignored (all-remaining-minus-reserve model)
    to = stack.pop() & ADDRESS_MASK
    value = stack.pop() if op == "CALL" else 0
    in_offset = stack.pop()
    in_size = stack.pop()
    if in_offset + in_size > MEMORY_LIMIT:
        raise _Fault(FAULT_OUT_OF_GAS)
    calldata = _read_bytes(frame.memory, in_offset, in_size) if in_size else b""
    emitted.call_info = CallInfo(to=to, value=value, input=calldata)

    world = vm.world

    if op == "DELEGATECALL":
        code = world.code_of(to)
        if not code:
            emitted.call_info.status = 1
            stack.append(1)
            return
        child = ActivationRecord(
            id=frame.id,
            code_address=to,
            code=code,
            caller=frame.caller,
            value=frame.value,
            gas=0,
            static=frame.static,
            calldata=frame.calldata,
            journal_mark=world.checkpoint(),
        )
    else:
        if value and world.balance_of(frame.id) < value:
            emitted.call_info.status = 0
            stack.append(0)
            return
        mark = world.checkpoint()
        if value:
            world.set_balance(frame.id, world.balance_of(frame.id) - value)
            world.set_balance(to, world.balance_of(to) + value)
        code = world.code_of(to)
        if not code:
            # Pure transfer: one step, no nested frame.
            emitted.call_info.status = 1
            stack.append(1)
            return
        child = ActivationRecord(
            id=to,
            code_address=to,
            code=code,
            caller=frame.id,
            value=value,
            gas=0,
            static=frame.static or op == "STATICCALL",
            calldata=calldata,
            journal_mark=mark,
        )

    child.memory = bytearray(child.calldata)
    forwarded = max(frame.gas - CALL_RESERVE, 0)
    frame.gas -= forwarded
    child.gas = forwarded
    child.call_step = emitted
    frame.pc += 1  # resume past the call once the child completes
    vm.frames.append(child)


def _complete_frame(vm: EVMState, success: bool, data: bytes, revert: bool = False, fault: str | None = None):
    child = vm.frames.pop()
    world = vm.world
    if success:
        status = 1
    else:
        world.revert_to(child.journal_mark)
        status = 0
        if fault is not None:
            child.gas = 0  # a fault consumes everything forwarded

    if vm.frames:
        parent = vm.frames[-1]
        parent.gas += child.gas
        parent.stack.append(status)
        if success:
            parent.logs.extend(child.logs)
        if child.call_step is not None and child.call_step.call_info is not None:
            child.call_step.call_info.status = status
        return

    # Root frame ended: the transaction is decided.
    vm.finished = True
    vm.success = success
    vm.return_data = data
    vm.gas_left = child.gas
    vm.logs = list(child.logs) if success else []
    if fault is not None:
        vm.fault = fault
    elif revert:
        vm.fault = "revert"


def execute_transaction(
    state: GlobalState,
    sender: int,
    to: int,
    value: int,
    data: bytes = b"",
    gas_limit: int = DEFAULT_GAS_LIMIT,
) -> ExecutionOutcome:
    """Run one transaction against a copy of `state`.

    Non-mutating: on success the outcome carries the evolved copy; on any
    failure it carries `state` itself, untouched (exact rollback). The
    sender's nonce bumps only on success.
    """
    if value < 0 or gas_limit < 0:
        raise UsageError("negative value or gas limit")
    if state.balance_of(sender) < value:
        return ExecutionOutcome(
            status=STATUS_EXCEPTION,
            exception="insufficient-balance",
            gas_used=0,
            return_value=b"",
            trace=[],
            logs=[],
            final_state=state,
        )

    work = state.clone()
    work.bump_nonce(sender)
    work.set_balance(sender, work.balance_of(sender) - value)
    work.set_balance(to, work.balance_of(to) + value)

    code = work.code_of(to)
    if not code:
        return ExecutionOutcome(
            status=STATUS_SUCCESS,
            exception=None,
            gas_used=0,
            return_value=b"",
            trace=[],
            logs=[],
            final_state=work,
        )

    root = ActivationRecord(
        id=to,
        code_address=to,
        code=code,
        caller=sender,
        value=value,
        gas=gas_limit,
        static=False,
        calldata=data,
        journal_mark=work.checkpoint(),
    )
    root.memory = bytearray(data)
    vm = EVMState(frames=[root], world=work)

    while not vm.finished:
        try:
            _execute_one(vm, vm.frames[-1])
        except _Fault as fault:
            _complete_frame(vm, success=False, data=b"", fault=fault.kind)

    if vm.success:
        gas_used = gas_limit - vm.gas_left
        return ExecutionOutcome(
            status=STATUS_SUCCESS,
            exception=None,
            gas_used=gas_used,
            return_value=vm.return_data,
            trace=vm.trace,
            logs=vm.logs,
            final_state=work,
        )
    gas_used = gas_limit if vm.fault != "revert" else gas_limit - vm.gas_left
    return ExecutionOutcome(
        status=STATUS_EXCEPTION,
        exception=vm.fault,
        gas_used=gas_used,
        return_value=vm.return_data,
        trace=vm.trace,
        logs=[],
        final_state=state,
    )


def trace_to_document(outcome: ExecutionOutcome) -> dict:
    """Serialize an outcome into the interchange trace document."""
    logs = []
    for s in outcome.trace:
        entry: dict = {
            "pc": s.pc,
            "op": s.op,
            "gas": s.gas,
            "gasCost": s.gas_cost,
            "depth": s.depth,
            "stack": [word_hex(w) for w in s.stack],
        }
        if s.storage_write is not None:
            key, val = s.storage_write
            entry["storage"] = {storage_hex(key): storage_hex(val)}
        if s.call_info is not None:
            ci = s.call_info
            entry["call"] = {
                "to": address_hex(ci.to),
                "value": word_hex(ci.value),
                "input": "0x" + ci.input.hex(),
                "status": ci.status,
            }
        logs.append(entry)
    return {
        "gas": outcome.gas_used,
        "failed": outcome.status != STATUS_SUCCESS,
        "returnValue": outcome.return_value.hex(),
        "structLogs": logs,
    }
