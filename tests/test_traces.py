"""Trace parsing, small-step validation, and frame reconstruction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evmsleuth import traces
from evmsleuth.errors import ReconstructionError, TraceParseError
from evmsleuth.explorer import apply_tracer, canonical_tracer
from evmsleuth.fixtures import build_fixture_chain, build_suite
from evmsleuth.rules_evm import VulnSpec
from evmsleuth.traces import (
    CALL_OPS,
    CallSite,
    ReconstructedStep,
    decode_steps,
    every_step,
    parse_trace_document,
    reconstruct_document,
)

SEED = 11

CALLER = 0xAA01
TARGET = 0xBB02


def step(pc, op, depth, stack=(), **extra):
    entry = {
        "pc": pc,
        "op": op,
        "gas": 50_000,
        "gasCost": 3,
        "depth": depth,
        "stack": ["0x%x" % w for w in stack],
    }
    entry.update(extra)
    return entry


def doc(steps, failed=False):
    return {"gas": 1234, "failed": failed, "returnValue": "0x", "structLogs": steps}


def linear_doc():
    return doc(
        [
            step(0, "PUSH1", 1),
            step(2, "PUSH1", 1, (7,)),
            step(4, "SSTORE", 1, (7, 1)),
            step(5, "STOP", 1),
        ]
    )


def nested_doc(op="CALL", extension=None):
    """Root calls TARGET; child stores then stops; root pops the status.

    The call step's stack is laid out top-last, so gas sits at the end and
    the callee address second from the end.
    """
    call_stack = (0, 0, 0, 0, 5, TARGET, 60_000)
    if op != "CALL":
        call_stack = (0, 0, 0, 0, TARGET, 60_000)
    call_step = step(2, op, 1, call_stack)
    if extension is not None:
        call_step["call"] = extension
    return doc(
        [
            step(0, "PUSH1", 1),
            call_step,
            step(0, "PUSH1", 2),
            step(2, "SSTORE", 2, (9, 3)),
            step(3, "STOP", 2),
            step(3, "POP", 1, (1,)),
            step(4, "STOP", 1),
        ]
    )


# -- document shape --


def test_parse_accepts_minimal_linear_trace():
    src = linear_doc()
    parsed = parse_trace_document(src)
    assert parsed.failed is False
    assert parsed.gas == 1234
    assert parsed.return_value == b""
    assert parsed.struct_logs is src["structLogs"]  # the walk checks them


def test_parse_decodes_return_value_and_failed():
    src = doc([step(0, "STOP", 1)], failed=True)
    src["returnValue"] = "0xdeadbeef"
    parsed = parse_trace_document(src)
    assert parsed.failed is True
    assert parsed.return_value == bytes.fromhex("deadbeef")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("gas"), "missing"),
        (lambda d: d.pop("structLogs"), "missing"),
        (lambda d: d.__setitem__("failed", 1), "failed must be a boolean"),
        (lambda d: d.__setitem__("gas", -1), "gas must be a non-negative"),
        (lambda d: d.__setitem__("gas", True), "gas must be a non-negative"),
        (lambda d: d.__setitem__("gas", False), "gas must be a non-negative"),
        (lambda d: d.__setitem__("gas", 1.0), "gas must be a non-negative"),
        (lambda d: d.__setitem__("returnValue", 7), "returnValue must be a hex"),
        (lambda d: d.__setitem__("returnValue", "0xzz"), "not hex"),
        (lambda d: d.__setitem__("returnValue", "0xaa bb"), "not hex"),
        (lambda d: d.__setitem__("returnValue", "aabb\n"), "not hex"),
        (lambda d: d.__setitem__("structLogs", {}), "structLogs must be a list"),
    ],
)
def test_parse_rejects_malformed_documents(mutate, fragment):
    src = linear_doc()
    mutate(src)
    with pytest.raises(TraceParseError, match=fragment):
        parse_trace_document(src)


def test_ingest_runs_through_the_module_globals(monkeypatch):
    # wrappers set on the three stage names from outside the package must
    # see every walk reconstruct_document runs, with what it walks
    seen = []

    def spy(name, fn):
        def wrapper(*args):
            seen.append((name, args[1:]))
            return fn(*args)

        monkeypatch.setattr(traces, name, wrapper)

    for name in ("parse_trace_document", "decode_steps", "reconstruct"):
        spy(name, getattr(traces, name))

    def sstores(pc, op, code):
        return op == "SSTORE"

    for relaxed in (False, True):
        seen.clear()
        rec = reconstruct_document(linear_doc(), CALLER, relaxed, sstores)
        assert seen == [
            ("parse_trace_document", ()),
            ("reconstruct", (CALLER, relaxed, sstores)),
            ("decode_steps", (CALLER, relaxed, sstores)),
        ]
        assert [(s.raw_index, s.op) for s in rec.steps] == [(2, "SSTORE")]


def test_parse_rejects_non_object():
    with pytest.raises(TraceParseError):
        parse_trace_document([])


# -- step decoding --


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda s: None, "entry is not an object"),
        (lambda s: s.pop("pc"), "missing field 'pc'"),
        (lambda s: s.pop("depth"), "missing field 'depth'"),
        (lambda s: s.__setitem__("pc", True), "bad pc"),
        (lambda s: s.__setitem__("pc", -1), "bad pc"),
        (lambda s: s.__setitem__("op", ""), "bad op"),
        (lambda s: s.__setitem__("gas", -2), "bad gas"),
        (lambda s: s.__setitem__("gasCost", "3"), "bad gasCost"),
        (lambda s: s.__setitem__("depth", 0), "bad depth"),
        (lambda s: s.__setitem__("stack", "0x1"), "stack is not a list"),
        (lambda s: s.__setitem__("stack", ["0xzz"]), "bad hex word"),
        (lambda s: s.__setitem__("stack", ["0x" + "f" * 65]), "out of range"),
        (lambda s: s.__setitem__("storage", ["0x1"]), "storage is not an object"),
    ],
)
@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_decode_rejects_malformed_steps(mutate, fragment, relaxed):
    src = linear_doc()
    victim = src["structLogs"][2]
    if mutate(victim) is None and fragment == "entry is not an object":
        src["structLogs"][2] = "step"
    with pytest.raises(TraceParseError, match=fragment) as err:
        reconstruct_document(src, CALLER, relaxed)
    assert err.value.raw_index == 2


@pytest.mark.parametrize(
    "extension, fragment",
    [
        ({"value": "0x0"}, "call missing 'to'"),
        ({"to": "0x%x" % TARGET}, "call missing 'value'"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "input": 4}, "input is not a string"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "input": "0xzz"}, "bad call input"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "input": "0xaa bb"}, "bad call input"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "input": " aabb"}, "bad call input"),
        ({"to": "+0x%x" % TARGET, "value": "0x0"}, "bad hex word"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "status": 2}, "bad call status"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "status": True}, "bad call status True"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "status": False}, "bad call status False"),
        ({"to": "0x%x" % TARGET, "value": "0x0", "status": 1.0}, "bad call status 1.0"),
        ("0xbb", "call is not an object"),
    ],
)
def test_decode_rejects_malformed_call_extensions(extension, fragment):
    src = nested_doc(extension=extension)
    with pytest.raises(TraceParseError, match=fragment) as err:
        reconstruct_document(src, CALLER)
    assert err.value.raw_index == 1


def test_null_call_input_reads_as_absent():
    extension = {"to": "0x%x" % TARGET, "value": "0x0", "status": 1}
    absent = reconstruct_document(nested_doc(extension=dict(extension)), CALLER)
    null = reconstruct_document(nested_doc(extension={**extension, "input": None}), CALLER)
    assert null == absent
    assert null.steps[1].call.input == b""


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
    steps = decode_steps([_entry()], CALLER)
    assert steps == [
        ReconstructedStep(0, 0, "PUSH1", 100, 3, 1, (1, 255), CALLER, CALLER, (), None, None)
    ]


def test_decode_steps_storage_and_call():
    store = _entry(op="SSTORE", stack=[], storage={"00" * 31 + "05": "00" * 31 + "01"})
    (built,) = decode_steps([store], CALLER)
    assert built.storage_write == (5, 1)
    call = _entry(
        op="CALL",
        call={"to": "0x" + "ab" * 20, "value": "0x7", "input": "0x1234", "status": 1},
    )
    (built,) = decode_steps([call], CALLER)
    to = int("ab" * 20, 16)
    assert built.call == CallSite("CALL", to, 7, bytes.fromhex("1234"), False, 1, None, None)


def test_decode_steps_accepts_prefixless_and_uppercase_hex():
    (built,) = decode_steps([_entry(stack=["ff", "0XAB", "0x" + "0" * 70 + "1"])], CALLER)
    assert built.stack == (255, 171, 1)
    src = doc([step(0, "STOP", 1)])
    src["returnValue"] = "0XAB"
    assert parse_trace_document(src).return_value == b"\xab"


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
        {"stack": ["+ff"]},
        {"stack": [" ff"]},
        {"stack": ["ff "]},
        {"stack": ["f_f"]},
        {"stack": ["0x 1\n"]},
        {"stack": ["0x1", "\u0663"]},  # ARABIC-INDIC DIGIT THREE
        {"stack": ["0x0x1"]},
        {"stack": ["0x1", 1]},
        {"storage": {"+5": "0x1"}},
        {"op": "PUSHZ"},
        {"op": "PUSH"},
        {"op": "PUSH33"},
        {"op": "PUSH01"},
        {"gas": True},
        {"gasCost": True},
        {"depth": True},
        {"op": ["PUSH1"]},  # unhashable
        {"op": {"PUSH1": 1}},
        {"stack": ["0x1", ["0xff"]]},  # an unhashable word after a known one
        {"stack": ["0x1", {"0xff": 1}]},
        {"stack": ["0x1", True]},
        {"stack": ["0x1", None]},
    ],
)
@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_decode_steps_rejects_malformed(mutation, relaxed):
    with pytest.raises(TraceParseError) as info:
        decode_steps([_entry(), _entry(**{"pc": 2, **mutation})], CALLER, relaxed)
    assert info.value.raw_index == 1  # raw index of the offending entry


_BAD_FIELDS = {"pc": -1, "op": "PUSHZ", "gas": True, "gasCost": "3", "depth": 0}


@pytest.mark.parametrize("first, second", itertools.combinations(_BAD_FIELDS, 2))
def test_the_first_faulty_field_in_field_order_decides(first, second):
    # the integer fields are checked together; a fault among them is still
    # reported field by field, in the order pc, op, gas, gasCost, depth
    faulty = _entry(**{"pc": 2, **{name: _BAD_FIELDS[name] for name in (first, second)}})
    with pytest.raises(TraceParseError) as info:
        decode_steps([_entry(), faulty], CALLER, relaxed=True)
    assert str(info.value) == f"step 1: bad {first} {_BAD_FIELDS[first]!r}"


# -- the per-walk memo of ops and stack words, against a word-by-word reader --

_OPS = st.sampled_from(["ADD", "POP", "SLOAD", "SSTORE", "JUMPDEST", "PUSH1", "PUSH32", "PUSH0"])
_JUNK_OPS = st.one_of(
    st.sampled_from(["", "PUSH", "PUSH33", "PUSHZ", "PUSH01", "push1"]),
    st.text(max_size=4),
    st.integers(),
    st.booleans(),
    st.none(),
    st.lists(st.just("ADD"), max_size=1),
    st.dictionaries(st.just("op"), st.just("ADD"), max_size=1),
)


@st.composite
def _hex_texts(draw) -> str:
    prefix = draw(st.sampled_from(["0x", "0X", ""]))
    kind = draw(st.sampled_from(["word", "padded", "out-of-range"]))
    if kind == "word":
        digits = "%x" % draw(st.integers(0, oracles.M - 1))
    elif kind == "padded":  # longer than 64 digits, in range by value
        value = "%x" % draw(st.integers(0, oracles.M - 1))
        digits = "0" * draw(st.integers(max(1, 65 - len(value)), 70)) + value
    else:
        value = "%x" % draw(st.integers(oracles.M, oracles.M << 8))
        digits = "0" * draw(st.integers(0, 3)) + value
    if draw(st.booleans()):
        digits = digits.upper()
    return prefix + digits


_JUNK_WORDS = st.one_of(
    st.sampled_from(["", "0x", "+ff", "-0x1", " ff", "ff ", "0x 1\n", "\u0663", "0x\u0661", "0x0x1"]),
    st.text(max_size=5),
    st.integers(),
    st.booleans(),
    st.none(),
    st.lists(st.just("0x1"), max_size=1),
    st.dictionaries(st.just("0x1"), st.just("0x1"), max_size=1),
)


def _reference_walk(entries: list) -> list[ReconstructedStep]:
    """The op and stack checks word by word, with no memo, over depth-1
    entries whose other fields are sound; relaxed mode, every step built."""
    out = []
    for i, entry in enumerate(entries):
        op, stack = entry["op"], entry["stack"]
        if not isinstance(op, str) or not op or (
            op.startswith("PUSH") and op not in traces._PUSH_SIZES
        ):
            raise TraceParseError(f"bad op {op!r}", i)
        if not isinstance(stack, list):
            raise TraceParseError("stack is not a list", i)
        words = tuple(traces._parse_hex_word(text, i) for text in stack)
        write = (words[-1], words[-2]) if op == "SSTORE" and len(words) >= 2 else None
        out.append(
            ReconstructedStep(
                i, entry["pc"], op, entry["gas"], entry["gasCost"], 1, words,
                CALLER, CALLER, (), write, None,
            )
        )
    return out


def _now_and_then(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


@st.composite
def _op_and_stack_walks(draw) -> list:
    # small pools per walk, so that words and ops repeat across entries, and
    # junk now and then, so that it meets words and ops already accepted
    words = draw(st.lists(_hex_texts(), min_size=1, max_size=6))
    junk_words = draw(st.lists(_JUNK_WORDS, min_size=1, max_size=2))
    ops = draw(st.lists(_OPS, min_size=1, max_size=4))
    junk_ops = draw(st.lists(_JUNK_OPS, min_size=1, max_size=2))
    entries = []
    for pc in range(draw(st.integers(1, 8))):
        stack = draw(
            st.one_of(
                st.lists(st.sampled_from(words), max_size=6),
                st.lists(_hex_texts(), max_size=3),
            )
        )
        if _now_and_then(draw):
            stack.insert(draw(st.integers(0, len(stack))), draw(st.sampled_from(junk_words)))
        if _now_and_then(draw) and _now_and_then(draw):
            stack = draw(st.sampled_from(["0x1", None, {"0": "0x1"}]))
        op = draw(st.sampled_from(junk_ops if _now_and_then(draw) else ops))
        entries.append({"pc": pc, "op": op, "gas": 90, "gasCost": 3, "depth": 1, "stack": stack})
    return entries


@given(_op_and_stack_walks())
@settings(max_examples=400, deadline=None)
def test_memoised_walk_equals_the_word_by_word_reader(entries):
    try:
        want = _reference_walk(entries)
    except TraceParseError as err:
        with pytest.raises(TraceParseError) as info:
            decode_steps(entries, CALLER, relaxed=True)
        got = info.value
        assert (type(got), str(got), got.raw_index) == (type(err), str(err), err.raw_index)
    else:
        assert decode_steps(entries, CALLER, relaxed=True) == want


@pytest.mark.parametrize("op", ["PUSHZ", "PUSH", "PUSH33"])
@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_malformed_push_op_is_a_parse_error(op, relaxed):
    # the size of a PUSH op comes from its name; a name that gives none is
    # a malformed entry in either mode, not a crash in the pc check
    src = mutated(linear_doc(), 1, op=op)
    with pytest.raises(TraceParseError, match=f"bad op '{op}'") as info:
        reconstruct_document(src, CALLER, relaxed)
    assert info.value.raw_index == 1


def test_decode_steps_missing_field():
    entry = _entry()
    del entry["gasCost"]
    with pytest.raises(TraceParseError, match="gasCost") as info:
        decode_steps([entry], CALLER)
    assert info.value.raw_index == 0


def test_decode_steps_empty():
    assert decode_steps([], CALLER) == []


# -- strict sequence invariants --


def mutated(src, index, **fields):
    src["structLogs"][index].update(fields)
    return src


@pytest.mark.parametrize(
    "build, fragment, where",
    [
        (lambda: mutated(linear_doc(), 0, depth=2), "root frame starts at depth", 0),
        (lambda: mutated(linear_doc(), 0, pc=1), "root frame starts at pc", 0),
        (lambda: mutated(nested_doc(), 2, depth=3), "depth jumps", 2),
        (lambda: mutated(linear_doc(), 2, depth=2), "after non-call op", 2),
        (lambda: mutated(nested_doc(), 2, pc=4), "child frame starts at pc", 2),
        (
            lambda: doc([step(0, "STOP", 1), step(1, "STOP", 1)]),
            "follows terminal op",
            1,
        ),
        (lambda: mutated(linear_doc(), 1, pc=3), "without a jump", 1),
        (lambda: mutated(nested_doc(), 5, depth=0), "bad depth", 5),
        (lambda: mutated(nested_doc(), 5, pc=9), "does not follow call", 5),
    ],
)
def test_strict_validation_rejects_broken_sequences(build, fragment, where):
    with pytest.raises(TraceParseError, match=fragment) as err:
        reconstruct_document(build(), CALLER)
    assert err.value.raw_index == where


def test_depth_drop_of_two_is_rejected():
    src = nested_doc()
    src["structLogs"][2:5] = [
        step(0, "CALL", 2, (0, 0, 0, 0, 5, TARGET, 60_000)),
        step(0, "PUSH1", 3),
        step(2, "STOP", 3),
    ]
    src["structLogs"][5] = step(3, "POP", 1, (1,))
    with pytest.raises(TraceParseError, match="depth drops") as err:
        reconstruct_document(src, CALLER)
    assert err.value.raw_index == 5


def test_jumps_suspend_pc_continuity():
    src = doc(
        [
            step(0, "PUSH1", 1, ()),
            step(2, "JUMP", 1, (9,)),
            step(9, "JUMPDEST", 1),
            step(10, "STOP", 1),
        ]
    )
    rec = reconstruct_document(src, CALLER)
    assert [s.pc for s in rec.steps] == [0, 2, 9, 10]


def test_call_not_taken_keeps_sequence_valid():
    # a CALL followed by a same-depth step is legal: the callee never ran
    src = doc(
        [
            step(0, "PUSH1", 1),
            step(2, "CALL", 1, (0, 0, 0, 0, 5, TARGET, 60_000)),
            step(3, "POP", 1, (0,)),
            step(4, "STOP", 1),
        ]
    )
    rec = reconstruct_document(src, CALLER)
    assert len(rec.steps) == 4


def test_call_that_ends_its_frame_takes_no_later_status():
    # the child's last step is a CALL that never ran (the next step is back
    # in the root); a later child at the same depth must not backfill it
    other = 0xCC03
    src = doc(
        [
            step(0, "PUSH1", 1),
            step(2, "CALL", 1, (0, 0, 0, 0, 0, TARGET, 60_000)),
            step(0, "PUSH1", 2),
            step(2, "CALL", 2, (0, 0, 0, 0, 0, other, 60_000)),
            step(3, "PUSH1", 1, (1,)),
            step(5, "CALL", 1, (0, 0, 0, 0, 0, TARGET, 60_000)),
            step(0, "JUMPDEST", 2, (5,)),
            step(1, "STOP", 2, (5,)),
            step(6, "STOP", 1, (1,)),
        ]
    )
    rec = reconstruct_document(src, CALLER)
    calls = {s.raw_index: s.call for s in rec.steps if s.call is not None}
    assert calls[3].entered is False
    assert calls[3].status is None
    assert (calls[1].entered, calls[1].status) == (True, 1)
    assert (calls[5].entered, calls[5].status) == (True, 1)


@pytest.mark.parametrize(
    "sstore_at, gap_at, error",
    [(1, 3, ReconstructionError), (3, 1, TraceParseError)],
)
def test_first_faulty_step_decides_the_error(sstore_at, gap_at, error):
    src = doc([step(pc, "JUMPDEST", 1) for pc in range(5)])
    src["structLogs"][sstore_at]["op"] = "SSTORE"  # bare stack: no write known
    src["structLogs"][gap_at]["pc"] += 7
    with pytest.raises(error, match=f"step {min(sstore_at, gap_at)}:"):
        reconstruct_document(src, CALLER)


@pytest.mark.parametrize(
    "gap_at, bad_word_at, fragment",
    [(1, 3, "without a jump"), (3, 1, "bad hex word")],
)
def test_a_sequence_fault_and_a_field_fault_the_first_decides(gap_at, bad_word_at, fragment):
    # each entry is checked in full before the next is read, so a field
    # fault later in the trace never masks an earlier sequence fault
    src = doc([step(pc, "JUMPDEST", 1) for pc in range(5)])
    src["structLogs"][gap_at]["pc"] += 7
    src["structLogs"][bad_word_at]["stack"] = ["0xzz"]
    with pytest.raises(TraceParseError, match=fragment) as err:
        reconstruct_document(src, CALLER)
    assert err.value.raw_index == 1


# -- relaxed ingest --


def test_relaxed_accepts_filtered_traces():
    spec = canonical_tracer({"pcSet": [4], "includeCallBoundaries": False})
    filtered = apply_tracer(linear_doc(), spec)
    with pytest.raises(TraceParseError):
        reconstruct_document(filtered, CALLER)
    rec = reconstruct_document(filtered, CALLER, relaxed=True)
    assert [s.op for s in rec.steps] == ["SSTORE"]


def test_relaxed_still_rejects_bad_depth():
    src = mutated(nested_doc(), 3, depth=-1)
    with pytest.raises(TraceParseError, match="bad depth") as err:
        reconstruct_document(src, CALLER, relaxed=True)
    assert err.value.raw_index == 3


def test_relaxed_still_runs_step_decoding():
    src = mutated(linear_doc(), 1, stack=["0xqq"])
    with pytest.raises(TraceParseError, match="bad hex word") as err:
        reconstruct_document(src, CALLER, relaxed=True)
    assert err.value.raw_index == 1


# -- frame reconstruction --


def _writes(rec):
    """(step index, frame id, key, value) for every storage write, in order."""
    return [(i, s.frame_id, *s.storage_write) for i, s in enumerate(rec.steps) if s.storage_write]


def test_linear_reconstruction_assigns_root_frame():
    rec = reconstruct_document(linear_doc(), CALLER)
    assert all(s.frame_id == CALLER for s in rec.steps)
    assert all(s.code_address == CALLER for s in rec.steps)
    assert all(s.frames_below == () for s in rec.steps)
    assert _writes(rec) == [(2, CALLER, 1, 7)]
    assert rec.steps[2].storage_write == (1, 7)


def test_call_reconstruction_from_stack():
    rec = reconstruct_document(nested_doc(), CALLER)
    site = rec.steps[1].call
    assert site.op == "CALL"
    assert site.to == TARGET
    assert site.value == 5
    assert site.input is None  # stack words carry no calldata
    assert site.entered is True
    assert site.child_id == site.child_code == TARGET
    assert site.status == 1  # backfilled from the resume step's stack top
    child = rec.steps[3]
    assert child.frame_id == child.code_address == TARGET
    assert child.frames_below == (CALLER,)
    assert _writes(rec) == [(3, TARGET, 3, 9)]


def test_call_reconstruction_prefers_recorded_extension():
    data = bytes.fromhex("aabbccdd") + b"\x00" * 28
    extension = {
        "to": "0x%x" % TARGET,
        "value": "0x5",
        "input": "0x" + data.hex(),
        "status": 0,
    }
    rec = reconstruct_document(nested_doc(extension=extension), CALLER)
    site = rec.steps[1].call
    assert site.input == data
    assert site.status == 0  # recorded status wins over the backfill
    assert site.value == 5


def test_delegatecall_keeps_caller_identity():
    rec = reconstruct_document(nested_doc(op="DELEGATECALL"), CALLER)
    site = rec.steps[1].call
    assert site.value is None
    assert site.child_id == CALLER
    assert site.child_code == TARGET
    child = rec.steps[3]
    assert child.frame_id == CALLER
    assert child.code_address == TARGET
    # the write lands on the caller's storage
    assert _writes(rec) == [(3, CALLER, 3, 9)]
    # it executes neither as the caller nor as the target
    assert not (child.frame_id == CALLER and child.code_address == CALLER)
    assert not (child.frame_id == TARGET and child.code_address == TARGET)


def test_staticcall_value_is_zero():
    rec = reconstruct_document(nested_doc(op="STATICCALL"), CALLER)
    assert rec.steps[1].call.value == 0


def test_call_not_taken_reports_status_zero():
    src = doc(
        [
            step(0, "PUSH1", 1),
            step(2, "CALL", 1, (0, 0, 0, 0, 5, TARGET, 60_000)),
            step(3, "POP", 1, (0,)),
            step(4, "STOP", 1),
        ]
    )
    rec = reconstruct_document(src, CALLER)
    site = rec.steps[1].call
    assert site.entered is False
    assert site.child_id is None and site.child_code is None
    assert site.status == 0


def test_relaxed_reconstruction_leaves_status_open():
    rec = reconstruct_document(nested_doc(), CALLER, relaxed=True)
    assert rec.steps[1].call.status is None


def test_filtered_trace_without_boundaries_fails_reconstruction():
    # pc 3 keeps only inner-frame steps, so the child frame has no origin
    spec = canonical_tracer({"pcSet": [3], "includeCallBoundaries": False})
    filtered = apply_tracer(nested_doc(), spec)
    with pytest.raises(ReconstructionError, match="without call boundaries"):
        reconstruct_document(filtered, CALLER, relaxed=True)


def test_filtered_trace_with_boundaries_keeps_frames():
    spec = canonical_tracer({"pcSet": [2], "includeCallBoundaries": True})
    filtered = apply_tracer(nested_doc(), spec)
    rec = reconstruct_document(filtered, CALLER, relaxed=True)
    inner = [s for s in rec.steps if s.op == "SSTORE"]
    assert len(inner) == 1
    assert inner[0].frame_id == TARGET
    assert inner[0].frames_below == (CALLER,)


def test_sstore_with_bare_stack_is_strict_error():
    src = doc([step(0, "SSTORE", 1), step(1, "STOP", 1)])
    with pytest.raises(ReconstructionError, match="SSTORE with bare stack"):
        reconstruct_document(src, CALLER)
    rec = reconstruct_document(src, CALLER, relaxed=True)
    assert rec.steps[0].storage_write is None
    assert _writes(rec) == []


def test_sstore_falls_back_to_storage_snapshot():
    src = doc([step(0, "SSTORE", 1, (), storage={"0x3": "0x9"}), step(1, "STOP", 1)])
    rec = reconstruct_document(src, CALLER)
    assert rec.steps[0].storage_write == (3, 9)


def test_call_with_bare_stack_is_reconstruction_error():
    src = doc(
        [
            step(0, "CALL", 1, (TARGET, 60_000)),
            step(1, "STOP", 1),
        ]
    )
    with pytest.raises(ReconstructionError, match="CALL with bare stack"):
        reconstruct_document(src, CALLER)
    src = doc([step(0, "CALL", 1, (60_000,)), step(1, "STOP", 1)])
    with pytest.raises(ReconstructionError, match="CALL with bare stack"):
        reconstruct_document(src, CALLER)


def test_recorded_delegatecall_has_no_value():
    # a DELEGATECALL inherits the caller's value, whatever its record says
    extension = {"to": "0x%x" % TARGET, "value": "0x5", "input": "0x", "status": 1}
    rec = reconstruct_document(nested_doc(op="DELEGATECALL", extension=extension), CALLER)
    site = rec.steps[1].call
    assert (site.op, site.to, site.value, site.status) == ("DELEGATECALL", TARGET, None, 1)
    assert site.child_id == CALLER and site.child_code == TARGET


def test_gate_requires_identity_and_code():
    rec = reconstruct_document(nested_doc(op="DELEGATECALL"), CALLER)
    root_step = rec.steps[0]
    assert root_step.frame_id == CALLER and root_step.code_address == CALLER
    assert not (root_step.frame_id == TARGET and root_step.code_address == TARGET)


# -- real traces --


@pytest.fixture(scope="module")
def bank():
    return build_fixture_chain("Bank", seed=SEED)


@pytest.fixture(scope="module")
def suite():
    return build_suite(SEED)


def test_selected_walk_equals_the_filtered_full_walk(suite):
    # selection decides which steps are built, never what a built step
    # holds: frames, frames below, call status, entered and child frame all
    # come out as in the select-all walk, in both modes
    checked = entered = backfilled = 0
    for name, fixture in suite.items():
        spec = VulnSpec.from_document(fixture.vuln)
        pcs = sorted(pc for gated in spec.gate.values() for pc in gated)
        tracer = canonical_tracer({"pcSet": pcs, "includeCallBoundaries": True})
        predicates = [
            spec.gates,
            lambda pc, op, code: op in CALL_OPS,
            lambda pc, op, code: pc % 3 == 0,
        ]
        for block in fixture.archive.chain.blocks:
            for tx in block.txs:
                raw = fixture.archive.traces[tx.hash]
                for relaxed, src in ((False, raw), (True, apply_tracer(raw, tracer))):
                    full = reconstruct_document(src, tx.to, relaxed, every_step)
                    for select in predicates:
                        part = reconstruct_document(src, tx.to, relaxed, select)
                        assert (part.failed, part.gas, part.return_value) == (
                            full.failed, full.gas, full.return_value
                        )
                        want = [s for s in full.steps if select(s.pc, s.op, s.code_address)]
                        assert part.steps == want, (name, tx.hash.hex(), relaxed)
                        checked += len(want)
                        for built in part.steps:
                            if built.call is not None:
                                entered += built.call.entered
                                backfilled += not relaxed and built.call.status is not None
    assert checked > 1000 and entered > 10 and backfilled > 10


def test_fixture_traces_parse_strict(bank):
    checked = 0
    for block in bank.archive.chain.blocks:
        for tx in block.txs:
            rec = reconstruct_document(bank.archive.traces[tx.hash], tx.to)
            checked += 1
            if rec.steps:  # plain transfers to code-free accounts run nothing
                assert rec.steps[0].pc == 0
                assert rec.steps[0].depth == 1
    assert checked == len(bank.archive.traces)


def test_fixture_exploit_reenters_the_contract(bank):
    contract = int(bank.vuln["vulnLocs"][0]["codeAddress"], 16)
    deepest = 0
    for txh in bank.archive.labels.exploit_hashes():
        rec = reconstruct_document(bank.archive.traces[txh], contract)
        for s in rec.steps:
            if s.frame_id == contract and contract in s.frames_below:
                deepest = max(deepest, s.depth)
    assert deepest >= 3


def test_filtered_fixture_trace_agrees_with_full(bank):
    contract = int(bank.vuln["vulnLocs"][0]["codeAddress"], 16)
    pcs = sorted(
        pc for loc in bank.vuln["vulnLocs"] for pc in loc["pcOffsets"]
    )
    spec = canonical_tracer({"pcSet": pcs, "includeCallBoundaries": True})
    txh = bank.archive.labels.exploit_hashes()[0]
    raw = bank.archive.traces[txh]
    full = reconstruct_document(raw, contract)
    part = reconstruct_document(apply_tracer(raw, spec), contract, relaxed=True)
    # match steps by (gas, depth): gas decreases strictly within a frame
    frames = {(s.gas, s.depth): (s.frame_id, s.code_address) for s in full.steps}
    hits = 0
    for s in part.steps:
        if s.pc in pcs:
            assert frames[(s.gas, s.depth)] == (s.frame_id, s.code_address)
            hits += 1
    assert hits > 0
