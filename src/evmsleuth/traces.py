"""Trace ingest: structLog documents back into validated, framed steps.

This module owns the structLog interchange format (docs/formats.md).
parse_trace_document checks the document around the entries. decode_steps
is the one walk over the raw entries: it checks each entry in full when it
reaches it and assigns it its activation frame: the storage identity it
executes under, the code address behind it, and the frames live below it.
reconstruct joins the two into a ReconstructedTrace. Detection rules only
ever see reconstructed steps.

The walk value: one Walk says all a walk is asked besides its entries
and root, and decode_steps unpacks it once. Its gate and calls say which
steps the walk builds a ReconstructedStep for, a value and not a call per
step: the gate map {code address: pcs} picks the steps whose pc it lists
for the code they execute (None picks every step), and calls picks every
call step besides. The evm rules select by VulnSpec's gate, internal
discovery selects call steps (and the gated steps, when the level reuses
its walks), and Walk() selects all of them. The walk looks up the pcs of
a frame's code when it enters or returns to the frame, so a step pays one
set membership test. An unselected step is still checked in full (its
fields and hex words, the sequence invariants, the frame it runs in, the
bare-stack checks), so the selection changes what a trace yields, never
whether it is accepted. relaxed picks the mode (below), and memo the
IngestMemo the walk checks through (Ingest memo).

Frame edges: a step is at a frame edge when its depth differs from the
previous step's or the previous step was a call. Only there does the walk
take the pending call of its depth, check the root's first step and the
depth changes, push and pop frames, drop the calls left pending above it
and read the status of a call it resumes after. Any other step runs in the
frame of the step before it, where none of that can change, so it checks
its fields and, in strict mode, its pc against the one the previous
step's op asks for (any after a jump, none after a terminal op). The
faults, their order and their step index are those of a walk that makes
every check at every step. An entry's storage and call members are
looked up only when it has members besides the five fields and stack.

Strict mode is for full traces and enforces the small-step invariants
(stepwise depth changes, pc continuity inside a frame, resume pc after a
return). Relaxed mode is for pc-filtered traces, where gaps are expected:
sequencing checks are dropped, and frame identity is derived only where
the kept steps make it derivable (call-boundary steps included), otherwise
reconstruction refuses rather than guessing.

Ingest memo: an IngestMemo holds the facts of each op the walks have
accepted and the set of stack words they have accepted, so each distinct
op, and each distinct word of at most 64 digits, is checked once per
memo. An op's facts are all the walk asks of it: its pc advance (the size
of a PUSH, 1 for any other op) and its kind (jump, terminal, SSTORE, call
or none of these). An op met for the first time is looked up without
raising, goes through the op check, and its facts are stored; an
unhashable op is not a string and fails that check. A stack whose words
are all in the set is not checked again. Any other stack is read word by
word, in order: a str in the set is skipped, a str that _WORD matches in
full is one the per-word reader (_parse_hex_word) accepts at its first
test, and only such a word enters the set; every other word goes to the
reader. Membership is equality, and only a str with the same characters
equals a str, so the memo cannot admit a word the reader would reject: a
non-string word, hashable or not, always meets the reader. An op's facts
and a word's acceptance depend on nothing but the op or the word, so a
memo shared by many walks changes no step and no fault. filters.ReadState
makes one memo per investigation and hands it to every walk of it, the
scan's and the level's, so the few dozen ops and words that the traces of
one contract share are checked once, not once per trace; the memo dies
with the ReadState. A walk handed no memo makes its own. Each of the two
holds at most MEMO_CAP entries: past that an op or word is still checked,
just not stored, so a memo cannot grow with trace length or count.

Integer fields: pc, gas, gasCost and depth are tested by one condition.
Only when it fails does _field_fault find the fault, and it reports the
first in field order (pc, op, gas, gasCost, depth), as separate checks
would. gas and gasCost are checked and not kept, as are the header's gas
and returnValue: no rule, filter or report reads them.

Error precedence: the first faulty step decides. The walk raises at the
first entry that fails any check, so a sequence fault at step 3 wins over a
malformed field at step 9. Within one entry, a field fault
(TraceParseError) comes before a sequence fault (TraceParseError), which
comes before a frame fault (ReconstructionError).

Callee: a call step's CallSite holds what a rule or filter reads of the
call: its to, value, input and status. Its `to` is read as the EVM reads
an address word, its low 160 bits, from the per-step call record when the
producer included one and from the stack otherwise, so both name the same
callee. The frame a call opens is not copied into its site; the callee's
own steps carry it. An entered call is followed by a step one level
deeper, whose frame_id is the callee's storage identity (the caller's,
for a DELEGATECALL) and whose code_address is the callee. A call that was
not entered is followed by a step no deeper than the call.

Call status: taken from the per-step call record when the producer included
one; in strict mode it can also be read off the caller's resume step, the
one fact the walk sets on a site after building it. A filtered trace
without call records has no third source, so status comes back None and
status-dependent rules stay quiet there.

Streaming: a trace reaches the walk in one of two forms, and read_trace
is the one reader of both, the one place that decides how a text is
decoded and the one place that closes it. A document is read as it is:
a filtered or RPC trace, or a document a cache miss decoded to write its
entry. A text read from a file (a trace file, a cache entry) arrives as
a TextSpan, an open byte region of the file, or of the entry bytes a
cache hit has read and checked, that can be read again: its blocks() are
the text's UTF-8 bytes, TEXT_CHUNK at a time, and text() is the whole
text, read as a file opened in text mode reads it. A span of at most
TEXT_CHUNK bytes is decoded by one json.loads of text(), the one call
the stream would make, without the stream's set-up, which made short
traces (a few kB, as in the scenario suite) 5-15% slower to ingest. A
longer one streams, and its text is not held whole. stream_blocks
decodes the blocks through an incremental UTF-8 decoder as far as it
needs them: it reads the outer object's members up to the structLogs
array, then hands out the array's entries a chunk at a time, then reads
the members after the array, so memory
holds one block and one chunk of parsed entries, whatever the trace's
length. A block edge may fall anywhere: in a character, a member or a
cut; a character is decoded once its last byte is in, and a scanner
call is repeated over more blocks until what it reads can no longer
change. A chunk is one scanner call over "[" + text[a:b+1] + "]", where
a is the start of the chunk's first entry and b the closing brace of
the first "},{" (JSON whitespace allowed around the comma) at or past
a + TEXT_CHUNK characters; the rest of the array is one call too. The
scanner is deterministic, so that span parses in full exactly when b
closes an entry of the array; a "},{" inside a string or a nested value
stops the stream (see Fallback), and no entry of a producer, a cache or
a geth structLog holds one. One call per chunk, not one per entry,
because the C scanner forgets its memo of object keys at the end of
every call.

Fallback: the stream reads one shape only: UTF-8, an object whose members
lead up to a structLogs array, after which come only members whose keys
sort after "structLogs" (of duplicate members the last wins, as in
json.loads). A compact sorted-key text, a cache entry's, has that shape;
a member after the array that sorts lower would belong before it there,
and a header member must be read before the walk starts. On anything
else (bytes that are not UTF-8, a decode error, a chunk cut inside an
entry, such a member after the array, a second structLogs among them, a
BOM, a fault in the header or in the walk) it stops, and read_trace reads the
span again whole through span.text(), then json.loads, both under the
span's faults(), and hands the document to the whole-document consumer
(for the walk, reconstruct of its parse_trace_document). So the steps,
and the exception type, message and step index of a refused trace, are
those of the whole read, json.loads and the document walk by
construction; only a short, malformed or unusual trace is ever held as a
whole text or document.
"""

from __future__ import annotations

import codecs
import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Callable, ContextManager, Iterable, Iterator, NamedTuple

from .errors import ReconstructionError, TraceParseError
from .words import ADDRESS_MASK, WORD_MASK

CALL_OPS = frozenset({"CALL", "DELEGATECALL", "STATICCALL"})
TERMINAL_OPS = frozenset({"STOP", "RETURN", "REVERT"})

# Size of every PUSH instruction; every other op is one byte. An op that
# starts with PUSH but is not listed here is malformed.
_PUSH_SIZES = {f"PUSH{n}": 1 + n for n in range(33)}

# Hex words and byte strings: an optional 0x/0X prefix, then ASCII hex
# digits and nothing else. A word of at most 64 digits is in range by its
# length; a longer one (leading zeros) is range-checked by value.
_WORD = re.compile(r"(?:0[xX])?[0-9a-fA-F]{1,64}").fullmatch
_LONG_WORD = re.compile(r"(?:0[xX])?([0-9a-fA-F]+)").fullmatch
_BYTES = re.compile(r"(?:0[xX])?((?:[0-9a-fA-F]{2})*)").fullmatch

_NO_WORDS: list = []  # the stack of an entry without one; never mutated

# What the walk needs to know of an op besides its pc advance: one kind.
_PLAIN, _JUMP, _TERMINAL, _SSTORE, _CALL = range(5)
_KINDS = {
    **dict.fromkeys(CALL_OPS, _CALL),
    **dict.fromkeys(TERMINAL_OPS, _TERMINAL),
    "JUMP": _JUMP,
    "JUMPI": _JUMP,
    "SSTORE": _SSTORE,
}
_NO_PCS: frozenset = frozenset()

# Entries an IngestMemo holds of each kind: above the 24,006 distinct stack
# words of a 336k-step scaled exploit trace, so no trace it reads in
# practice fills it, and at most some 6 MB of words when one does.
MEMO_CAP = 1 << 15


class IngestMemo:
    """The ops, with their facts (pc advance, kind), and the stack words
    that walks sharing this memo have accepted (module docstring)."""

    __slots__ = ("ops", "words")

    def __init__(self):
        self.ops: dict = {}
        self.words: set = set()


class Walk(NamedTuple):
    """What a walk is asked besides its entries and root (module
    docstring): the steps it builds, those whose pc the gate lists for the
    code they execute, or every step when gate is None, and with calls
    every call step besides; relaxed for a pc-filtered trace; and the memo
    it checks through, a fresh one when None."""

    gate: dict | None = None  # code address -> its pcs (a set, or any container)
    calls: bool = False
    relaxed: bool = False
    memo: IngestMemo | None = None


def _parse_hex_word(text, raw_index: int) -> int:
    if isinstance(text, str):
        if _WORD(text):
            return int(text, 16)
        long_word = _LONG_WORD(text)
        if long_word:
            value = int(long_word[1], 16)
            if value <= WORD_MASK:
                return value
            raise TraceParseError(f"hex word out of range {text!r}", raw_index)
    raise TraceParseError(f"bad hex word {text!r}", raw_index)


def _bad_op(op) -> bool:
    return not isinstance(op, str) or not op or (
        op.startswith("PUSH") and op not in _PUSH_SIZES
    )


def _op_facts(op, i: int) -> tuple[int, int]:
    """(pc advance, kind) of the op of step i; TraceParseError if it is
    malformed."""
    if _bad_op(op):
        raise TraceParseError(f"bad op {op!r}", i)
    return _PUSH_SIZES.get(op, 1), _KINDS.get(op, _PLAIN)


def _pc_fault(pc: int, prev_pc: int, prev_op: str, want: int, i: int):
    raise TraceParseError(
        f"pc {pc} after {prev_op} at {prev_pc} (expected {want}) without a jump", i
    )


def _field_fault(pc, op, gas, gas_cost, depth, i: int):
    """Raise the first fault among an entry's scalar fields, in field order;
    called when one of the integer fields is bad."""
    if type(pc) is not int or pc < 0:
        raise TraceParseError(f"bad pc {pc!r}", i)
    if _bad_op(op):
        raise TraceParseError(f"bad op {op!r}", i)
    for name, value, least in (("gas", gas, 0), ("gasCost", gas_cost, 0), ("depth", depth, 1)):
        if type(value) is not int or value < least:
            raise TraceParseError(f"bad {name} {value!r}", i)


def _hex_bytes(text: str) -> bytes | None:
    """The bytes a hex string spells, None if it spells none."""
    match = _BYTES(text)
    return None if match is None else bytes.fromhex(match[1])


def parse_trace_document(doc: dict) -> tuple[bool, list]:
    """(failed, entries) of a trace document whose header it checks; the
    walk checks the entries (decode_steps)."""
    if not isinstance(doc, dict):
        raise TraceParseError("trace document is not an object")
    for name in ("gas", "failed", "returnValue", "structLogs"):
        if name not in doc:
            raise TraceParseError(f"missing field {name!r}")
    if not isinstance(doc["failed"], bool):
        raise TraceParseError("failed must be a boolean")
    if type(doc["gas"]) is not int or doc["gas"] < 0:
        raise TraceParseError("gas must be a non-negative integer")
    raw_return = doc["returnValue"]
    if not isinstance(raw_return, str):
        raise TraceParseError("returnValue must be a hex string")
    if _hex_bytes(raw_return) is None:
        raise TraceParseError(f"returnValue is not hex: {raw_return!r}")
    if not isinstance(doc["structLogs"], list):
        raise TraceParseError("structLogs must be a list")
    return doc["failed"], doc["structLogs"]


@dataclass
class CallSite:
    to: int
    value: int | None  # None for DELEGATECALL (inherits the caller's)
    input: bytes | None  # only the recorded extension carries calldata
    status: int | None


@dataclass
class ReconstructedStep:
    raw_index: int
    pc: int
    op: str
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
    steps: list[ReconstructedStep]  # the selected steps, in trace order


def _call_record(call, i: int) -> tuple:
    """(to, value, input bytes, status) of a step's recorded call extension."""
    if not isinstance(call, dict):
        raise TraceParseError("call is not an object", i)
    try:
        to = _parse_hex_word(call["to"], i) & ADDRESS_MASK
        value = _parse_hex_word(call["value"], i)
    except KeyError as missing:
        raise TraceParseError(f"call missing {missing.args[0]!r}", i) from None
    data_hex = call.get("input")
    if data_hex is None:  # absent or null: no calldata recorded
        data_hex = "0x"
    elif not isinstance(data_hex, str):
        raise TraceParseError("call input is not a string", i)
    data = _hex_bytes(data_hex)
    if data is None:
        raise TraceParseError(f"bad call input hex {data_hex!r}", i)
    status = call.get("status")
    if status is not None and (type(status) is not int or status not in (0, 1)):
        raise TraceParseError(f"bad call status {status!r}", i)
    return to, value, data, status


def decode_steps(
    struct_logs: Iterable, root_target: int, walk: Walk = Walk()
) -> list[ReconstructedStep]:
    """Walk the raw structLog entries once: check every entry, track the
    frames, and build the steps `walk` selects, in trace order.

    root_target is the transaction's `to` address: the identity and code of
    the root frame. walk.memo holds the ops and words earlier walks
    accepted and takes those this one accepts; None walks through a fresh
    one (module docstring). Raises TraceParseError for a malformed entry
    or a broken step sequence and ReconstructionError when a step cannot
    be mapped onto frames, at the first faulty entry (see the module
    docstring); in relaxed mode the only frame error is a step whose frame
    has no origin among the kept steps (a filtered trace taken without call
    boundaries).
    """
    out: list[ReconstructedStep] = []
    # (storage identity, code address, identities below), root first
    frames = [(root_target, root_target, ())]
    frame_id = code = root_target
    below: tuple[int, ...] = ()
    # per depth, the call awaiting its resume step (read in strict mode),
    # as (call pc, CallSite of a selected call or None)
    pending: dict[int, tuple] = {}
    # the previous step's call, entered iff this step is one level deeper:
    # (call depth, child identity, child code)
    opened = None
    # the previous step, and the pc the next one must have if it runs in
    # the same frame: None after a jump (any), -1 after a terminal (none)
    prev_pc = prev_op = prev_depth = want = None
    gate, calls, relaxed, memo = walk
    # per op, and per stack word, what the walks have accepted (module docstring)
    if memo is None:
        memo = IngestMemo()
    op_facts, known_words = memo.ops, memo.words
    # the selection: every step, or the steps whose pc is in pcs, the gated
    # pcs of the frame's code, and with calls the call steps
    everything = gate is None
    pcs = _NO_PCS if everything else gate.get(code, _NO_PCS)

    for i, entry in enumerate(struct_logs):
        # -- fields
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
        if not (
            type(pc) is type(gas) is type(gas_cost) is type(depth) is int
            and pc >= 0
            and gas >= 0
            and gas_cost >= 0
            and depth >= 1
        ):
            _field_fault(pc, op, gas, gas_cost, depth, i)
        try:
            facts = op_facts.get(op)
        except TypeError:  # unhashable, so not a string
            facts = None
        if facts is None:
            facts = _op_facts(op, i)
            if len(op_facts) < MEMO_CAP:
                op_facts[op] = facts
        advance, kind = facts
        stack = entry.get("stack", _NO_WORDS)
        if not isinstance(stack, list):
            raise TraceParseError("stack is not a list", i)
        try:
            known = known_words.issuperset(stack)
        except TypeError:  # an unhashable word
            known = False
        if not known:
            for text in stack:
                if type(text) is str:
                    if text in known_words:
                        continue
                    if _WORD(text):
                        if len(known_words) < MEMO_CAP:
                            known_words.add(text)
                        continue
                _parse_hex_word(text, i)
        storage = recorded = None
        if len(entry) > (5 if stack is _NO_WORDS else 6):  # more than the fields and stack
            storage = entry.get("storage")
            if storage is not None:
                if not isinstance(storage, dict):
                    raise TraceParseError("storage is not an object", i)
                storage = sorted(
                    (_parse_hex_word(k, i), _parse_hex_word(v, i)) for k, v in storage.items()
                )
            recorded = entry.get("call")
            if recorded is not None:
                recorded = _call_record(recorded, i)

        if depth != prev_depth or opened is not None:
            # -- a frame edge: the sequence across it (strict mode)
            resume = None
            if not relaxed:
                resume = pending.pop(depth, None)
                if i == 0:
                    if depth != 1:
                        raise TraceParseError(f"root frame starts at depth {depth}", 0)
                    if pc != 0:
                        raise TraceParseError(f"root frame starts at pc {pc}", 0)
                elif depth > prev_depth:
                    if depth > prev_depth + 1:
                        raise TraceParseError(f"depth jumps from {prev_depth} to {depth}", i)
                    if opened is None:
                        raise TraceParseError(f"depth increases after non-call op {prev_op}", i)
                    if pc != 0:
                        raise TraceParseError(f"child frame starts at pc {pc}", i)
                elif depth == prev_depth:  # after a call that was not entered
                    if pc != want:
                        _pc_fault(pc, prev_pc, prev_op, want, i)
                else:
                    if depth < prev_depth - 1:
                        raise TraceParseError(f"depth drops from {prev_depth} to {depth}", i)
                    # stepwise descents through call ops leave the call that
                    # opened the frame below pending at this depth
                    call_pc = resume[0]
                    if pc != call_pc + 1:
                        raise TraceParseError(
                            f"resume pc {pc} does not follow call at {call_pc}", i
                        )

            # -- the frames
            if opened is not None:
                call_depth, child_id, child_code = opened
                opened = None
                if depth == call_depth + 1:
                    below = below + (frame_id,)
                    frame_id, code = child_id, child_code
                    frames.append((frame_id, code, below))
            if depth != len(frames):
                if depth > len(frames):
                    # strict sequences always descend through an entered call
                    raise ReconstructionError(
                        f"step {i}: depth {depth} but only {len(frames)} frames known "
                        "(filtered trace without call boundaries?)"
                    )
                del frames[depth:]
                frame_id, code, below = frames[-1]
                # a call still pending deeper down ended its own frame without
                # being entered; no later step may take its status
                for stale in [d for d in pending if d > depth]:
                    del pending[stale]

            if resume is not None:
                # first step back in the caller: its stack top is the call status
                site = resume[1]
                if site is not None and site.status is None and stack:
                    site.status = int(stack[-1], 16)
            if not everything:
                pcs = gate.get(code, _NO_PCS)
            prev_depth = depth
        elif pc != want and not relaxed and want is not None:
            # -- the sequence inside a frame (strict mode)
            if want < 0:
                raise TraceParseError(f"step follows terminal op {prev_op} in the same frame", i)
            _pc_fault(pc, prev_pc, prev_op, want, i)

        # -- what the op asks of this step, and of the next
        if kind == _PLAIN:
            want = pc + advance
        elif kind == _JUMP:
            want = None
        elif kind == _TERMINAL:
            want = -1
        else:
            want = pc + 1
            if kind == _SSTORE:
                if len(stack) < 2 and not storage and not relaxed:
                    raise ReconstructionError(f"step {i}: SSTORE with bare stack")
            elif recorded is not None:
                to = recorded[0]
            elif len(stack) >= (3 if op == "CALL" else 2):
                to = int(stack[-2], 16) & ADDRESS_MASK
            else:
                raise ReconstructionError(f"step {i}: {op} with bare stack")

        # -- the step itself, if selected
        site = None
        if everything or pc in pcs or (calls and kind == _CALL):
            words = tuple(int(text, 16) for text in stack)
            storage_write = None
            if kind == _SSTORE:
                if len(words) >= 2:
                    storage_write = (words[-1], words[-2])
                elif storage:
                    storage_write = storage[0]
            elif kind == _CALL:
                if recorded is not None:
                    _, value, data, status = recorded
                    if op == "DELEGATECALL":
                        value = None
                else:
                    data = status = None
                    if op == "CALL":
                        value = words[-3]
                    elif op == "STATICCALL":
                        value = 0
                    else:
                        value = None
                site = CallSite(to, value, data, status)
            out.append(
                ReconstructedStep(
                    i, pc, op, depth, words, frame_id, code, below, storage_write, site
                )
            )
        if kind == _CALL:
            pending[depth] = (pc, site)
            opened = (depth, frame_id if op == "DELEGATECALL" else to, to)
        prev_pc, prev_op = pc, op

    return out


def reconstruct(
    parsed: tuple[bool, Iterable], root_target: int, walk: Walk = Walk()
) -> ReconstructedTrace:
    """The trace of a checked document header, (failed, entries), holding
    the steps `walk` selects from the walk over its entries (decode_steps)."""
    failed, entries = parsed
    return ReconstructedTrace(failed, decode_steps(entries, root_target, walk))


@contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off while the body runs, then give
    the caller back the collector state it had, also when the body raises.

    The body is the life of one trace: fetch, ingest and rules. Decoded
    JSON is a tree, so it holds no reference cycle for the collector to
    find, yet every chunk of a streamed trace is some 800 entries, each a
    dict and a list, enough to set off collections that traverse them; a
    document parsed whole (a short trace, a filtered or RPC trace, or the
    json.loads fallback) is a tree of them. The body drops the trace
    before it ends, so reference counting frees all of it and the
    collector resumes with nothing of it left to traverse.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# -- streamed trace text (module docstring) ------------------------------------

# Characters of entries that one scanner call decodes, and bytes of the
# blocks a span is read in.
TEXT_CHUNK = 1 << 16

_raw_decode = json.JSONDecoder().raw_decode  # the scanner json.loads uses
_scan_string = json.decoder.scanstring
_skip_space = re.compile(r"[ \t\n\r]*").match  # JSON whitespace, as json.loads skips it
_next_cut = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{").search
# A scanner that stops fewer than this many characters before the end of
# the text read so far may have stopped at a block edge: a number cut as
# "1.", "1e" or "1e+" reads as 1. Three more characters settle it.
_SETTLED = 3


def text_of(data: bytes) -> str:
    """data as a file opened in text mode reads it: UTF-8, with "\\r\\n" and
    "\\r" read as "\\n". ValueError if data is not UTF-8."""
    text = str(data, "utf-8")
    # the test spares the two scans of a text without one
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class Unstreamable(Exception):
    """The text is not in the shape the stream reads; json.loads decides."""


class TextSpan:
    """Bytes start to stop of the open binary file handle: the text of a
    file or a cache payload, a trace's answered in place of its document
    (module docstring). blocks() reads it from start, a TEXT_CHUNK-byte
    block at a time, and text() whole, as a file opened in text mode reads
    it; a fault of blocks(), and of text() and its decode, which read_trace
    runs under faults(), is raised as that context manager maps it. close()
    closes the file; the span is also a context manager that does.

    again, when set, asks the question this span answers once more and
    answers it anew. A cache hit's span carries it (explorer.CachedExplorer):
    the walk reads the span after the answer, and may refuse what the
    cache's own check passed. None on any other span."""

    again: Callable[[], object] | None = None

    def __init__(
        self, handle: BinaryIO, start: int, stop: int, faults: Callable[[], ContextManager]
    ):
        self.handle = handle
        self.start = start
        self.stop = stop
        self.faults = faults

    def blocks(self) -> Iterator[bytes]:
        with self.faults():
            self.handle.seek(self.start)
            left = self.stop - self.start
            while left > 0 and (block := self.handle.read(min(TEXT_CHUNK, left))):
                left -= len(block)
                yield block

    def text(self) -> str:
        self.handle.seek(self.start)
        return text_of(self.handle.read(self.stop - self.start))

    def close(self):
        self.handle.close()

    def __enter__(self) -> TextSpan:
        return self

    def __exit__(self, *exc):
        self.close()


def _decoded(text: str, pos: int = 0) -> tuple:
    """(value, end) of the JSON value at text[pos]; Unstreamable if none."""
    try:
        return _raw_decode(text, pos)
    except (ValueError, RecursionError):
        raise Unstreamable from None


class _BlockText:
    """The text that UTF-8 blocks spell, decoded as far as the stream has
    needed it. text holds it from the first character the stream may still
    read; ended is set once the blocks have run out."""

    def __init__(self, blocks: Iterator[bytes]):
        self._blocks = blocks
        self._decode = codecs.getincrementaldecoder("utf-8")().decode
        self.text = ""
        self.ended = False

    def more(self, pos: int):
        """Drop the characters before pos and append the next block's, so
        that pos is now 0. Called only before the end."""
        block = next(self._blocks, b"")
        self.ended = not block
        try:
            self.text = self.text[pos:] + self._decode(block, self.ended)
        except ValueError:  # not UTF-8, or a character cut at the end
            raise Unstreamable from None

    def char(self, pos: int) -> tuple[str, int]:
        """(c, p): c the first character at or after pos that is not JSON
        whitespace and p its position, or ("", p) at the end of the text."""
        while (end := _skip_space(self.text, pos).end()) == len(self.text) and not self.ended:
            self.more(pos)
            pos = 0
        return self.text[end:end + 1], end

    def expect(self, pos: int, char: str) -> int:
        """The position after char, the first character at or after pos
        that is not whitespace; Unstreamable if that is another."""
        found, pos = self.char(pos)
        if found != char:
            raise Unstreamable
        return pos + 1

    def scanned(self, scan: Callable, pos: int) -> tuple:
        """(value, end) that scan (_raw_decode, or _scan_string after a
        quote) reads at pos, as it reads it in the whole text."""
        while True:
            try:
                value, end = scan(self.text, pos)
                if end + _SETTLED <= len(self.text) or self.ended:
                    return value, end
            except (ValueError, RecursionError):
                if self.ended:
                    raise Unstreamable from None
            self.more(pos)
            pos = 0


def stream_blocks(blocks: Iterable[bytes]) -> tuple[dict, Iterator[list]]:
    """(members, chunks) of the JSON text that UTF-8 blocks spell: the
    members of its outer object but structLogs, and the entries of its
    structLogs array, a list per chunk. members holds those before the
    array at once and those after it once the chunks are consumed.
    Unstreamable when the text is not UTF-8 or not an object whose members
    lead up to a structLogs array, or, raised by the chunks, when an entry
    does not decode, or a member after the array has a key that does not
    sort after "structLogs", or the object does not end with the text."""
    text = _BlockText(iter(blocks))
    pos = text.expect(0, "{")
    members: dict = {}
    while True:
        key, pos = _member(text, pos, members)
        if key == "structLogs":
            return members, _chunks(text, text.expect(pos, "["), members)
        pos = text.expect(pos, ",")


def _member(text: _BlockText, pos: int, members: dict) -> tuple[str, int]:
    """(key, p) of the member whose key starts at the first character at
    or after pos that is not whitespace: p after the colon if the key is
    structLogs, else after the value, put in members (the last of
    duplicates wins, as in json.loads)."""
    key, pos = text.scanned(_scan_string, text.expect(pos, '"'))
    pos = text.expect(pos, ":")
    if key != "structLogs":
        _, pos = text.char(pos)
        members[key], pos = text.scanned(_raw_decode, pos)
    return key, pos


def _chunks(text: _BlockText, pos: int, members: dict) -> Iterator[list]:
    """The entries of the array whose first entry (or closing bracket) is
    the first character at or after text.text[pos] that is not whitespace,
    a list per chunk; then the members after it, into members, and a check
    that the object ends with the text."""
    found, pos = text.char(pos)
    if found == "]":
        pos += 1
    else:
        while True:
            cut = _next_cut(text.text, pos + TEXT_CHUNK)
            if cut is None:
                if text.ended:
                    break
                text.more(pos)
                pos = 0
                continue
            span = "[" + text.text[pos:cut.start() + 1] + "]"
            entries, end = _decoded(span)
            if end != len(span):  # the cut lies inside a string or a nested value
                raise Unstreamable
            yield entries
            pos = cut.end() - 1
        entries, end = _decoded("[" + text.text[pos:])  # the rest of the array, in one call
        yield entries
        pos += end - 1
    found, pos = text.char(pos)
    while found == ",":
        # the canonical text puts a key that sorts lower before the array,
        # and the header is read before it
        key, pos = _member(text, pos + 1, members)
        if key <= "structLogs":
            raise Unstreamable
        found, pos = text.char(pos)
    if found != "}" or text.char(pos + 1)[0]:
        raise Unstreamable


def read_trace(trace, whole: Callable, streamed: Callable):
    """A trace answer read by one of two consumers: whole(trace) of a
    document. A TextSpan is closed once read: of at most TEXT_CHUNK bytes,
    whole of json.loads(span.text()), decoded under the span's faults;
    longer, streamed(members, chunks) of its text as stream_blocks reads
    it, or, when the text does not stream or streamed raises a walk fault
    (TraceParseError, ReconstructionError), whole of its decode (module
    docstring). So the result, and the type and message of a fault, are
    whole's over the document by construction, and a text that is not
    JSON raises what the span's reader maps json.loads's error to."""
    if not isinstance(trace, TextSpan):
        return whole(trace)
    with trace:
        if trace.stop - trace.start > TEXT_CHUNK:
            try:
                return streamed(*stream_blocks(trace.blocks()))
            except (Unstreamable, TraceParseError, ReconstructionError):
                pass
        with trace.faults():
            doc = json.loads(trace.text())
    return whole(doc)


def reconstruct_trace(trace, root_target: int, walk: Walk = Walk()) -> ReconstructedTrace:
    """The reconstruct of trace, a document, or of a TextSpan's text,
    decoded whole or, when long, walked a chunk at a time as its entries
    stream (read_trace)."""

    def whole(doc) -> ReconstructedTrace:
        return reconstruct(parse_trace_document(doc), root_target, walk)

    def streamed(members: dict, chunks: Iterator[list]) -> ReconstructedTrace:
        failed, _ = parse_trace_document({**members, "structLogs": []})  # the header alone
        return reconstruct((failed, chain.from_iterable(chunks)), root_target, walk)

    return read_trace(trace, whole, streamed)
