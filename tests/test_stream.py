"""Streamed trace text: the chunked reader, the streamed customTracer
filter and a cache miss's streamed canonical write give what json.loads of
the whole text gives, for every text, in every outer shape and at every
chunk boundary."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from damages import damage, damaged
from evmsleuth import traces
from evmsleuth.errors import ProtocolError
from evmsleuth.explorer import CachedExplorer, _filter_text, apply_tracer
from evmsleuth.fixtures import build_fixture_chain
from evmsleuth.traces import (
    TEXT_CHUNK,
    every_step,
    reconstruct_document,
    reconstruct_text,
    stream_trace_text,
)
from evmsleuth.words import hash_hex

SEED = 11
ROOT = 0xAA01
TX = bytes(range(32))
ALL_DAMAGE = ("truncate", "flip", "splice", "junk-op", "re-encode")
CHUNKS = [1, 64, 1000, TEXT_CHUNK]  # characters; the small ones cut every few entries


def compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def sstores(pc, op, code):
    return op == "SSTORE"


def outcome(work):
    """What work returns, or the type, message and step index it raises."""
    try:
        return work()
    except Exception as err:
        return type(err), str(err), getattr(err, "raw_index", None)


@pytest.fixture(scope="module")
def samples():
    """(trace document, root) of every transaction with code to run in two
    scenarios whose traces call out: Bank (re-entrancy) and
    SimulationBECToken (relayed calls)."""
    out = []
    for name in ("Bank", "SimulationBECToken"):
        fixture = build_fixture_chain(name, seed=SEED)
        for block in fixture.archive.chain.blocks:
            for tx in block.txs:
                doc = fixture.archive.traces[tx.hash]
                if tx.to is not None and doc["structLogs"]:
                    out.append((doc, tx.to))
    return out


_SPACE = st.text(" \t\n\r", max_size=3)
_EXTRA_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.just("},{"),
    st.just({"logs": [{"a": 1}, {"b": 2}]}),  # a "},{" outside the array
)


def _sometimes(draw, one_in: int) -> bool:
    return draw(st.integers(0, one_in - 1)) == 0


@st.composite
def trace_texts(draw, samples) -> tuple[str, int]:
    """(text, root): a fixture trace written in some outer shape (members
    in any order, so a header member may follow the array; extra keys; a
    second structLogs; JSON whitespace anywhere; a BOM), then perhaps
    damaged by any kind of the damage strategy. Each unusual shape is drawn
    now and then, so about half the texts are in the shape the stream
    reads."""
    doc, root = draw(st.sampled_from(samples))
    members = list(doc.items())
    if _sometimes(draw, 4):
        members = draw(st.permutations(members))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        key = draw(st.sampled_from(["aaa", "zzz", "structLog", "structLogsX", "gas", "failed"]))
        members.insert(draw(st.integers(0, len(members))), (key, draw(_EXTRA_VALUES)))
    if _sometimes(draw, 4):  # json.loads keeps the last structLogs
        logs = draw(st.sampled_from([[], doc["structLogs"][:1]]))
        members.insert(draw(st.integers(0, len(members))), ("structLogs", logs))
    indent = draw(st.sampled_from([None, None, 0, 1, "\t", " \r\n"]))
    comma, colon = draw(st.sampled_from([(",", ":"), (",", ":"), (", ", ": "), (" ,\n", " :\t")]))
    items = [
        json.dumps(key) + draw(_SPACE) + colon
        + json.dumps(value, indent=indent, separators=(comma, colon))
        for key, value in members
    ]
    body = draw(_SPACE) + comma.join(items) + draw(_SPACE)
    text = draw(_SPACE) + "{" + body + "}" + draw(_SPACE)
    if _sometimes(draw, 10):
        text = "\ufeff" + text
    if _sometimes(draw, 3):
        data = text.encode()
        text = damaged(data, draw(damage(data, ALL_DAMAGE))).decode("utf-8", "replace")
    return text, root


def _settings(examples):
    return settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


@given(data=st.data())
@_settings(400)
def test_streamed_walk_equals_the_document_walk(samples, data):
    text, root = data.draw(trace_texts(samples))
    relaxed = data.draw(st.booleans())
    select = data.draw(st.sampled_from([every_step, sstores]))
    with mock.patch.object(traces, "TEXT_CHUNK", data.draw(st.sampled_from(CHUNKS))):
        streamed = outcome(lambda: reconstruct_text(text, root, relaxed, select))
    whole = outcome(lambda: reconstruct_document(json.loads(text), root, relaxed, select))
    assert streamed == whole


@given(data=st.data())
@_settings(200)
def test_streamed_filter_equals_the_document_filter(samples, data):
    text, _ = data.draw(trace_texts(samples))
    spec = {
        "pcSet": data.draw(st.lists(st.integers(0, 120), max_size=4)),
        "includeCallBoundaries": data.draw(st.booleans()),
    }
    with mock.patch.object(traces, "TEXT_CHUNK", data.draw(st.sampled_from(CHUNKS))):
        streamed = outcome(lambda: _filter_text(text, spec))
    whole = outcome(lambda: apply_tracer(json.loads(text), spec))
    if isinstance(streamed, str):  # a document the filter passes through, as its text
        streamed = json.loads(streamed)
    if isinstance(whole, tuple):
        assert streamed == whole
    else:
        assert compact(streamed) == compact(whole)


class Answers:
    """An inner explorer that answers every trace query with `answer`."""

    def __init__(self, answer):
        self.answer = answer

    def tx_trace(self, tx_hash, tracer_spec=None):
        return self.answer


@given(data=st.data())
@_settings(200)
def test_cache_miss_over_a_text_writes_the_entry_of_its_document(samples, data):
    # the streamed canonical write of a text answer, against the write of
    # the document json.loads makes of it
    text, _ = data.draw(trace_texts(samples))
    chunk = data.draw(st.sampled_from(CHUNKS))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traces, "TEXT_CHUNK", chunk):
        streamed = CachedExplorer(Answers(text), Path(tmp) / "streamed")
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as err:
            with pytest.raises(ProtocolError) as refused:
                streamed.tx_trace(TX)
            assert str(refused.value) == f"trace for {hash_hex(TX)} unreadable: {err}"
            assert not any(Path(tmp, "streamed").iterdir())
            return
        assume(not isinstance(doc, str))  # an inner explorer answers a str as text
        answer = streamed.tx_trace(TX)
        CachedExplorer(Answers(doc), Path(tmp) / "parsed").tx_trace(TX)
        (entry,) = Path(tmp, "streamed").iterdir()
        assert entry.read_bytes() == Path(tmp, "parsed", entry.name).read_bytes()
        assert answer is text  # the walk reads the text it was given: no second copy


# -- fixed cases at the chunk boundary --


def _entries(count: int) -> list:
    """A strict root-frame trace of count JUMPDEST steps and a STOP."""
    steps = [
        {"depth": 1, "gas": 10_000 - pc, "gasCost": 1, "op": "JUMPDEST", "pc": pc, "stack": []}
        for pc in range(count)
    ]
    steps.append({"depth": 1, "gas": 10_000 - count, "gasCost": 0, "op": "STOP", "pc": count})
    return steps


def _text(entries: list) -> str:
    doc = {"failed": False, "gas": 21_000, "returnValue": "", "structLogs": entries}
    return compact(doc) + "\n"  # as the archive writes a trace


@pytest.fixture
def streamed_only(monkeypatch):
    """Makes reconstruct_text fail rather than fall back to json.loads."""

    def refused(*args):
        raise AssertionError("the stream fell back to json.loads")

    monkeypatch.setattr(traces, "reconstruct_document", refused)


def _chunk_sizes(text: str) -> list:
    """The number of entries in each chunk of text's array."""
    return [len(chunk) for chunk in stream_trace_text(text)[1]]


def _walks_alike(text: str):
    doc = json.loads(text)
    assert reconstruct_text(text, ROOT) == reconstruct_document(doc, ROOT)
    assert [e for chunk in stream_trace_text(text)[1] for e in chunk] == doc["structLogs"]


def _falls_back(monkeypatch, text: str):
    """text streams up to a chunk that does not parse, and reconstruct_text
    then gives what one document walk of json.loads(text) gives."""
    with pytest.raises(traces.Unstreamable):
        _chunk_sizes(text)
    walks = []
    real = traces.reconstruct_document
    monkeypatch.setattr(traces, "reconstruct_document", lambda *a: walks.append(a) or real(*a))
    assert reconstruct_text(text, ROOT) == real(json.loads(text), ROOT)
    assert len(walks) == 1


def test_a_cut_inside_a_string_falls_back_to_json_loads(monkeypatch):
    entries = _entries(6)
    entries[0]["note"] = "a},{b"
    monkeypatch.setattr(traces, "TEXT_CHUNK", 1)
    _falls_back(monkeypatch, _text(entries))


@pytest.mark.parametrize("where", ["call", "storage-and-call"])
def test_a_cut_inside_a_nested_object_falls_back_to_json_loads(monkeypatch, where):
    entries = _entries(6)
    entries[1]["call"] = {"to": "0x1", "value": "0x0", "logs": [{"a": 1}, {"b": 2}]}
    if where == "storage-and-call":
        entries[1]["storage"] = {"0x1": "0x2"}
    monkeypatch.setattr(traces, "TEXT_CHUNK", 1)
    _falls_back(monkeypatch, _text(entries))


def test_data_after_the_closing_brace_is_the_json_loads_error():
    text = _text(_entries(2000)) + "{}"
    assert len(text) > TEXT_CHUNK
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as streamed:
        reconstruct_text(text, ROOT)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("offset", [0, -1])
def test_a_cut_exactly_at_the_chunk_size(streamed_only, offset):
    # the entry that closes exactly TEXT_CHUNK (offset 0) characters past
    # the first entry ends the first chunk; one character earlier
    # (offset -1) and the cut moves on to the next entry
    entries = _entries(2000)
    entries[0]["note"] = ""
    text = _text(entries)
    first = text.index("[") + 1
    ends = [i for i in range(first, len(text)) if text.startswith("},{", i)]
    below = max(i for i in ends if i < first + TEXT_CHUNK - 1)
    entries[0]["note"] = "x" * (first + TEXT_CHUNK + offset - below)
    text = _text(entries)
    assert text.startswith("},{", first + TEXT_CHUNK + offset)
    closed = 1 + ends.index(below)  # entries up to the one whose brace sits there
    chunks = _chunk_sizes(text)
    assert chunks[0] == (closed if offset == 0 else closed + 1)
    assert sum(chunks) == len(entries)
    _walks_alike(text)


def test_an_empty_array_streams(monkeypatch, streamed_only):
    monkeypatch.setattr(traces, "TEXT_CHUNK", 1)
    text = _text([])
    assert _chunk_sizes(text) == []
    rec = reconstruct_text(text, ROOT)
    assert rec.steps == [] and rec.gas == 21_000


def test_an_array_shorter_than_a_chunk_is_one_chunk(streamed_only):
    # a text longer than a chunk (a long return value) whose array is not
    long_value = '"returnValue":"' + "ab" * TEXT_CHUNK + '"'
    text = _text(_entries(10)).replace('"returnValue":""', long_value)
    assert len(text) > TEXT_CHUNK
    assert _chunk_sizes(text) == [11]
    _walks_alike(text)


def test_a_text_that_fits_in_one_chunk_is_parsed_whole(monkeypatch):
    # json.loads decodes it in the one call the stream would make
    text = _text(_entries(10))
    assert len(text) <= TEXT_CHUNK
    with pytest.raises(traces.Unstreamable):
        stream_trace_text(text)
    walks = []
    real = traces.reconstruct_document
    monkeypatch.setattr(traces, "reconstruct_document", lambda *a: walks.append(a) or real(*a))
    assert reconstruct_text(text, ROOT) == real(json.loads(text), ROOT)
    assert len(walks) == 1


def test_a_duplicate_structlogs_walks_the_last_one():
    # json.loads keeps the last of duplicate keys, and so does the stream,
    # by falling back to it
    text = _text(_entries(3))[:-2] + ',"structLogs":' + compact(_entries(1)) + "}"
    rec = reconstruct_text(text, ROOT)
    assert [s.op for s in rec.steps] == ["JUMPDEST", "STOP"]
