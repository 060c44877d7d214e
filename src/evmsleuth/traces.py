"""Trace ingest: structLog documents back into validated, framed steps.

This module owns the structLog interchange format (docs/formats.md). Two
stages. parse_trace_document checks the document's shape and decode_steps
turns every structLog entry into a flat tuple. reconstruct then walks the
depth profile once: it checks the small-step invariants and assigns every
step its activation frame: the storage identity it executes under, the
code address behind it, and the frames live below it. Detection rules only
ever see reconstructed steps.

Strict mode is for full traces and enforces the small-step invariants
(stepwise depth changes, pc continuity inside a frame, resume pc after a
return). Relaxed mode is for pc-filtered traces, where gaps are expected:
sequencing checks are dropped, and frame identity is derived only where
the kept steps make it derivable (call-boundary steps included), otherwise
reconstruction refuses rather than guessing. Either way the first faulty
step decides the error.

Call status: taken from the per-step call record when the producer included
one; in strict mode it can also be read off the caller's resume step. A
filtered trace without call records has no third source, so status comes
back None and status-dependent rules stay quiet there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReconstructionError, TraceParseError
from .words import ADDRESS_MASK, WORD_MASK

CALL_OPS = frozenset({"CALL", "DELEGATECALL", "STATICCALL"})
TERMINAL_OPS = frozenset({"STOP", "RETURN", "REVERT"})

# depth index in decode_steps' flat tuples
_DEPTH = 4


def _instruction_size(op: str) -> int:
    if op.startswith("PUSH"):
        return 1 + int(op[4:])
    return 1


@dataclass
class ParsedTrace:
    failed: bool
    gas: int
    return_value: bytes
    steps: list  # flat tuples, see decode_steps


def parse_trace_document(doc: dict) -> ParsedTrace:
    if not isinstance(doc, dict):
        raise TraceParseError("trace document is not an object")
    for name in ("gas", "failed", "returnValue", "structLogs"):
        if name not in doc:
            raise TraceParseError(f"missing field {name!r}")
    if not isinstance(doc["failed"], bool):
        raise TraceParseError("failed must be a boolean")
    if not isinstance(doc["gas"], int) or doc["gas"] < 0:
        raise TraceParseError("gas must be a non-negative integer")
    raw_return = doc["returnValue"]
    if not isinstance(raw_return, str):
        raise TraceParseError("returnValue must be a hex string")
    try:
        cleaned = raw_return[2:] if raw_return.startswith("0x") else raw_return
        return_value = bytes.fromhex(cleaned)
    except ValueError:
        raise TraceParseError(f"returnValue is not hex: {raw_return!r}") from None
    if not isinstance(doc["structLogs"], list):
        raise TraceParseError("structLogs must be a list")

    steps = decode_steps(doc["structLogs"])
    return ParsedTrace(doc["failed"], doc["gas"], return_value, steps)


def decode_steps(struct_logs: list) -> list:
    """Decode raw structLog entries into flat tuples.

    Returns a list of (pc, op, gas, gas_cost, depth, stack, storage, call)
    where stack is a tuple of ints (bottom first, top last), storage is a
    tuple of (key, value) int pairs or None, and call is a
    (to, value, input_bytes, status) tuple or None.

    Raises TraceParseError carrying the raw index of the first malformed
    entry.
    """
    out = []
    for i, entry in enumerate(struct_logs):
        if not isinstance(entry, dict):
            raise TraceParseError("entry is not an object", i)
        try:
            pc = entry["pc"]
            op = entry["op"]
            gas = entry["gas"]
            gas_cost = entry["gasCost"]
            depth = entry["depth"]
        except KeyError as missing:
            raise TraceParseError(f"missing field {missing.args[0]!r}", i) from None
        if type(pc) is not int or pc < 0:
            raise TraceParseError(f"bad pc {pc!r}", i)
        if not isinstance(op, str) or not op:
            raise TraceParseError(f"bad op {op!r}", i)
        if type(gas) is not int or gas < 0:
            raise TraceParseError(f"bad gas {gas!r}", i)
        if type(gas_cost) is not int or gas_cost < 0:
            raise TraceParseError(f"bad gasCost {gas_cost!r}", i)
        if type(depth) is not int or depth < 1:
            raise TraceParseError(f"bad depth {depth!r}", i)
        raw_stack = entry.get("stack", [])
        if not isinstance(raw_stack, list):
            raise TraceParseError("stack is not a list", i)
        stack = []
        for item in raw_stack:
            word = _parse_hex_word(item, i)
            stack.append(word)
        storage = entry.get("storage")
        pairs = None
        if storage is not None:
            if not isinstance(storage, dict):
                raise TraceParseError("storage is not an object", i)
            pairs = tuple(
                sorted(
                    (_parse_hex_word(k, i), _parse_hex_word(v, i))
                    for k, v in storage.items()
                )
            )
        call = entry.get("call")
        call_tuple = None
        if call is not None:
            if not isinstance(call, dict):
                raise TraceParseError("call is not an object", i)
            try:
                to = _parse_hex_word(call["to"], i)
                value = _parse_hex_word(call["value"], i)
            except KeyError as missing:
                raise TraceParseError(f"call missing {missing.args[0]!r}", i) from None
            data_hex = call.get("input", "0x")
            if not isinstance(data_hex, str):
                raise TraceParseError("call input is not a string", i)
            body = data_hex[2:] if data_hex.startswith("0x") else data_hex
            try:
                data = bytes.fromhex(body)
            except ValueError:
                raise TraceParseError(f"bad call input hex {data_hex!r}", i) from None
            status = call.get("status")
            if status is not None and status not in (0, 1):
                raise TraceParseError(f"bad call status {status!r}", i)
            call_tuple = (to, value, data, status)
        out.append((pc, op, gas, gas_cost, depth, tuple(stack), pairs, call_tuple))
    return out


def _parse_hex_word(text, raw_index: int) -> int:
    if not isinstance(text, str) or not text:
        raise TraceParseError(f"bad hex word {text!r}", raw_index)
    body = text[2:] if text.startswith(("0x", "0X")) else text
    if not body:
        raise TraceParseError(f"bad hex word {text!r}", raw_index)
    try:
        value = int(body, 16)
    except ValueError:
        raise TraceParseError(f"bad hex word {text!r}", raw_index) from None
    if not 0 <= value <= WORD_MASK:
        raise TraceParseError(f"hex word out of range {text!r}", raw_index)
    return value


@dataclass
class CallSite:
    op: str
    to: int
    value: int | None  # None for DELEGATECALL (inherits the caller's)
    input: bytes | None  # only the recorded extension carries calldata
    entered: bool
    status: int | None
    child_id: int | None
    child_code: int | None


@dataclass
class ReconstructedStep:
    raw_index: int
    pc: int
    op: str
    gas: int
    gas_cost: int
    depth: int
    stack: tuple[int, ...]
    frame_id: int
    code_address: int
    frames_below: tuple[int, ...]  # storage identities, bottom first
    storage_write: tuple[int, int] | None  # (key, value)
    call: CallSite | None


@dataclass
class ReconstructedTrace:
    failed: bool
    gas: int
    return_value: bytes
    steps: list[ReconstructedStep]


@dataclass
class _Frame:
    id: int
    code: int


def reconstruct(
    parsed: ParsedTrace, root_target: int, relaxed: bool = False
) -> ReconstructedTrace:
    """Check the small-step invariants (strict mode) and assign frames to
    every parsed step, in one pass.

    root_target is the transaction's `to` address: the identity and code of
    the root frame. Raises TraceParseError for a broken step sequence and
    ReconstructionError when a step cannot be mapped onto frames, whichever
    step comes first; in relaxed mode the only frame error is a kept step
    whose frame has no origin among the kept steps (a filtered trace taken
    without call boundaries).
    """
    steps = parsed.steps
    frames = [_Frame(root_target, root_target)]
    out: list[ReconstructedStep] = []
    # call awaiting a status backfill, per depth: index into `out`
    pending: dict[int, int] = {}
    prev_pc = prev_op = prev_depth = None

    for i, (pc, op, gas, gas_cost, depth, stack, storage, recorded) in enumerate(steps):
        resume_at = pending.pop(depth, None)

        if not relaxed:
            if i == 0:
                if depth != 1:
                    raise TraceParseError(f"root frame starts at depth {depth}", 0)
                if pc != 0:
                    raise TraceParseError(f"root frame starts at pc {pc}", 0)
            elif depth > prev_depth:
                if depth > prev_depth + 1:
                    raise TraceParseError(f"depth jumps from {prev_depth} to {depth}", i)
                if prev_op not in CALL_OPS:
                    raise TraceParseError(f"depth increases after non-call op {prev_op}", i)
                if pc != 0:
                    raise TraceParseError(f"child frame starts at pc {pc}", i)
            elif depth == prev_depth:
                if prev_op in TERMINAL_OPS:
                    raise TraceParseError(
                        f"step follows terminal op {prev_op} in the same frame", i
                    )
                if prev_op not in ("JUMP", "JUMPI"):
                    want = prev_pc + _instruction_size(prev_op)
                    if pc != want:
                        raise TraceParseError(
                            f"pc {pc} after {prev_op} at {prev_pc} "
                            f"(expected {want}) without a jump",
                            i,
                        )
            else:
                if depth < prev_depth - 1:
                    raise TraceParseError(f"depth drops from {prev_depth} to {depth}", i)
                # stepwise descents through call ops leave the call that
                # opened the frame below pending at this depth
                call_pc = out[resume_at].pc
                if pc != call_pc + 1:
                    raise TraceParseError(
                        f"resume pc {pc} does not follow call at {call_pc}", i
                    )
            prev_pc, prev_op, prev_depth = pc, op, depth

        if depth < len(frames):
            del frames[depth:]
            # a call still pending deeper down ended its own frame without
            # being entered; no later step may take its status
            for stale in [d for d in pending if d > depth]:
                del pending[stale]
        elif depth > len(frames):
            # strict sequences always descend through an entered call
            raise ReconstructionError(
                f"step {i}: depth {depth} but only {len(frames)} frames known "
                "(filtered trace without call boundaries?)"
            )
        frame = frames[-1]

        if resume_at is not None and not relaxed:
            # first step back in the caller: its stack top is the call status
            site = out[resume_at].call
            if site.status is None and stack:
                site.status = stack[-1]

        storage_write = None
        if op == "SSTORE":
            if len(stack) >= 2:
                storage_write = (stack[-1], stack[-2])
            elif storage:
                storage_write = storage[0]
            elif not relaxed:
                raise ReconstructionError(f"step {i}: SSTORE with bare stack")

        call_site = None
        if op in CALL_OPS:
            if recorded is not None:
                to, value, data, status = recorded
                value = None if op == "DELEGATECALL" else value
            elif len(stack) >= 2:
                to = stack[-2] & ADDRESS_MASK
                data = status = None
                if op == "CALL":
                    if len(stack) < 3:
                        raise ReconstructionError(f"step {i}: CALL with bare stack")
                    value = stack[-3]
                elif op == "STATICCALL":
                    value = 0
                else:
                    value = None
            else:
                raise ReconstructionError(f"step {i}: {op} with bare stack")

            entered = i + 1 < len(steps) and steps[i + 1][_DEPTH] == depth + 1
            child_id = child_code = None
            if entered:
                if op == "DELEGATECALL":
                    child_id, child_code = frame.id, to
                else:
                    child_id = child_code = to
            call_site = CallSite(op, to, value, data, entered, status, child_id, child_code)
            pending[depth] = len(out)

        out.append(
            ReconstructedStep(
                raw_index=i,
                pc=pc,
                op=op,
                gas=gas,
                gas_cost=gas_cost,
                depth=depth,
                stack=stack,
                frame_id=frame.id,
                code_address=frame.code,
                frames_below=tuple(f.id for f in frames[:-1]),
                storage_write=storage_write,
                call=call_site,
            )
        )

        if call_site is not None and call_site.entered:
            frames.append(_Frame(call_site.child_id, call_site.child_code))

    return ReconstructedTrace(parsed.failed, parsed.gas, parsed.return_value, out)


def reconstruct_document(doc: dict, root_target: int, relaxed: bool = False) -> ReconstructedTrace:
    return reconstruct(parse_trace_document(doc), root_target, relaxed=relaxed)
