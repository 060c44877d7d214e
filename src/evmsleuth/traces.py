"""Trace ingest: interchange documents back into validated, framed steps.

Two stages. parse_trace_document checks shape and step sequencing and
returns flat tuples (the words kernel does the per-step decoding).
reconstruct then replays the depth profile to assign every step its
activation frame: the storage identity it executes under, the code address
behind it, and the frames live below it. Detection rules only ever see
reconstructed steps.

Strict mode is for full traces and enforces the small-step invariants
(stepwise depth changes, pc continuity inside a frame, resume pc after a
return). Relaxed mode is for pc-filtered traces, where gaps are expected:
sequencing checks are dropped, and frame identity is derived only where
the kept steps make it derivable (call-boundary steps included), otherwise
reconstruction refuses rather than guessing.

Call status: taken from the per-step call record when the producer included
one; in strict mode it can also be read off the caller's resume step. A
filtered trace without call records has no third source, so status comes
back None and status-dependent rules stay quiet there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReconstructionError, TraceParseError
from .words import ADDRESS_MASK, decode_steps

CALL_OPS = frozenset({"CALL", "DELEGATECALL", "STATICCALL"})
TERMINAL_OPS = frozenset({"STOP", "RETURN", "REVERT"})

# flat-tuple indexes from words.decode_steps
_PC, _OP, _GAS, _COST, _DEPTH, _STACK, _STORAGE, _CALL = range(8)


def _instruction_size(op: str) -> int:
    if op.startswith("PUSH"):
        return 1 + int(op[4:])
    return 1


@dataclass
class ParsedTrace:
    failed: bool
    gas: int
    return_value: bytes
    steps: list  # flat tuples, see module docstring


def parse_trace_document(doc: dict, relaxed: bool = False) -> ParsedTrace:
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

    try:
        steps = decode_steps(doc["structLogs"])
    except ValueError as err:
        message, raw_index = err.args if len(err.args) == 2 else (err.args[0], None)
        raise TraceParseError(str(message), raw_index) from None

    if not relaxed:
        _check_sequence(steps)
    else:
        for i, st in enumerate(steps):
            if st[_DEPTH] < 1:
                raise TraceParseError(f"depth {st[_DEPTH]} below 1", i)

    return ParsedTrace(doc["failed"], doc["gas"], return_value, steps)


def _check_sequence(steps: list):
    """Small-step invariants for full traces."""
    if not steps:
        return
    first = steps[0]
    if first[_DEPTH] != 1:
        raise TraceParseError(f"root frame starts at depth {first[_DEPTH]}", 0)
    if first[_PC] != 0:
        raise TraceParseError(f"root frame starts at pc {first[_PC]}", 0)

    call_pc_at_depth: dict[int, int] = {}
    for i in range(1, len(steps)):
        prev, cur = steps[i - 1], steps[i]
        delta = cur[_DEPTH] - prev[_DEPTH]
        if delta > 1:
            raise TraceParseError(
                f"depth jumps from {prev[_DEPTH]} to {cur[_DEPTH]}", i
            )
        if delta == 1:
            if prev[_OP] not in CALL_OPS:
                raise TraceParseError(
                    f"depth increases after non-call op {prev[_OP]}", i
                )
            call_pc_at_depth[prev[_DEPTH]] = prev[_PC]
            if cur[_PC] != 0:
                raise TraceParseError(f"child frame starts at pc {cur[_PC]}", i)
        elif delta == 0:
            if prev[_OP] in TERMINAL_OPS:
                raise TraceParseError(
                    f"step follows terminal op {prev[_OP]} in the same frame", i
                )
            if prev[_OP] in CALL_OPS:
                call_pc_at_depth[prev[_DEPTH]] = prev[_PC]
            if prev[_OP] not in ("JUMP", "JUMPI"):
                want = prev[_PC] + _instruction_size(prev[_OP])
                if cur[_PC] != want:
                    raise TraceParseError(
                        f"pc {cur[_PC]} after {prev[_OP]} at {prev[_PC]} "
                        f"(expected {want}) without a jump",
                        i,
                    )
        else:
            if delta < -1:
                raise TraceParseError(
                    f"depth drops from {prev[_DEPTH]} to {cur[_DEPTH]}", i
                )
            resume_from = call_pc_at_depth.get(cur[_DEPTH])
            if resume_from is None:
                raise TraceParseError("return to a frame never seen calling", i)
            if cur[_PC] != resume_from + 1:
                raise TraceParseError(
                    f"resume pc {cur[_PC]} does not follow call at {resume_from}", i
                )


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
    """Assign frames to every parsed step.

    root_target is the transaction's `to` address: the identity and code of
    the root frame. Raises ReconstructionError when the kept steps do not
    determine frame identity (possible only for filtered traces taken
    without call boundaries).
    """
    steps = parsed.steps
    frames = [_Frame(root_target, root_target)]
    out: list[ReconstructedStep] = []
    # call awaiting a status backfill, per depth: index into `out`
    pending: dict[int, int] = {}

    for i, st in enumerate(steps):
        depth = st[_DEPTH]
        if depth < len(frames):
            del frames[depth:]
        elif depth > len(frames):
            raise ReconstructionError(
                f"step {i}: depth {depth} but only {len(frames)} frames known "
                "(filtered trace without call boundaries?)"
            )
        frame = frames[-1]

        stack = st[_STACK]
        op = st[_OP]

        resume_at = pending.pop(depth, None)
        if resume_at is not None and not relaxed:
            # first step back in the caller: its stack top is the call status
            site = out[resume_at].call
            if site.status is None and stack:
                site.status = stack[-1]

        storage_write = None
        if op == "SSTORE":
            if len(stack) >= 2:
                storage_write = (stack[-1], stack[-2])
            elif st[_STORAGE]:
                storage_write = st[_STORAGE][0]
            elif not relaxed:
                raise ReconstructionError(f"step {i}: SSTORE with bare stack")

        call_site = None
        if op in CALL_OPS:
            recorded = st[_CALL]
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
                pc=st[_PC],
                op=op,
                gas=st[_GAS],
                gas_cost=st[_COST],
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
    return reconstruct(parse_trace_document(doc, relaxed=relaxed), root_target, relaxed=relaxed)
