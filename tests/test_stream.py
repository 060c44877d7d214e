"""Streamed trace text: the block reader (traces.stream_blocks) under the
walk, the customTracer filter, a cache miss's canonical write and a cache
hit, each one call of traces.read_trace, gives what json.loads of the
whole text gives, for every text, in every outer shape, at every chunk
boundary and at every block edge; and a long trace's faults, and its
file descriptors, end as a whole read's do."""

import contextlib
import io
import json
import os
import shutil
import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from damages import damage, damaged
from evmsleuth import explorer, traces
from evmsleuth.chain import Transaction
from evmsleuth.cli import main
from evmsleuth.errors import ArchiveGapError, ProtocolError, TraceParseError, UsageError
from evmsleuth.explorer import (
    _TAIL_SIZE,
    CachedExplorer,
    LocalExplorer,
    _read_faults,
    apply_tracer,
    filter_trace,
    read_json,
    read_text,
)
from evmsleuth.filters import ReadState
from evmsleuth.fixtures import SCENARIO_NAMES, build_fixture_chain, scale_fixture, write_fixture
from evmsleuth.hashing import digest
from evmsleuth.traces import (
    TEXT_CHUNK,
    TextSpan,
    Unstreamable,
    Walk,
    read_trace,
    reconstruct_trace,
    stream_blocks,
)
from evmsleuth.words import hash_hex

SEED = 11
ROOT = 0xAA01
TX = bytes(range(32))
ALL_DAMAGE = ("truncate", "flip", "splice", "junk-op", "re-encode")
CHUNKS = [1, 64, 1000, TEXT_CHUNK]  # characters; the small ones cut every few entries
BLOCKS = [1, 7, 64, TEXT_CHUNK]  # bytes


def compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def outcome(work):
    """What work returns, or the type, message and step index it raises."""
    try:
        return work()
    except Exception as err:
        return type(err), str(err), getattr(err, "raw_index", None)


class Span(TextSpan):
    """The TextSpan of bytes data, read in blocks of the given sizes (the
    last size repeats), or cut at the given offsets. Faults are raised as
    they occur, or as the given faults map them."""

    def __init__(self, data: bytes, sizes=(TEXT_CHUNK,), cuts=(), faults=contextlib.nullcontext):
        super().__init__(io.BytesIO(data), 0, len(data), faults)
        self.data = data
        self.sizes = list(sizes)
        self.cuts = list(cuts)

    def blocks(self):
        edges = [*self.cuts, len(self.data)]
        if not self.cuts:
            edges, at, sizes = [], 0, iter(self.sizes)
            size = next(sizes)
            while at < len(self.data):
                at += size
                edges.append(min(at, len(self.data)))
                size = next(sizes, size)
        start = 0
        for edge in edges:
            if edge > start:
                yield self.data[start:edge]
                start = edge


def whole_walk(data: bytes, root=ROOT, walk=Walk()):
    """The outcome of json.loads of the whole text, then the document walk."""
    return outcome(lambda: reconstruct_trace(json.loads(Span(data).text()), root, walk))


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
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.just("ü€😀"),  # two, three and four bytes in UTF-8
    st.just("},{"),
    st.just({"logs": [{"a": 1}, {"b": 2}]}),  # a "},{" outside the array
)


def _sometimes(draw, one_in: int) -> bool:
    return draw(st.integers(0, one_in - 1)) == 0


@st.composite
def trace_texts(draw, samples) -> tuple[bytes, int]:
    """(UTF-8 text, root): a fixture trace written in some outer shape
    (members in any order, so a header member may follow the array; extra
    keys; a second structLogs; JSON whitespace anywhere; a BOM; multi-byte
    characters in an entry), then perhaps damaged by any kind of the damage
    strategy, so perhaps no longer UTF-8. Each unusual shape is drawn now
    and then, so about half the texts are in the shape the stream reads."""
    doc, root = draw(st.sampled_from(samples))
    members = list(doc.items())
    if _sometimes(draw, 4):
        logs = [dict(entry) for entry in doc["structLogs"]]
        logs[draw(st.integers(0, len(logs) - 1))]["note"] = draw(st.text(max_size=4)) + "ü€😀"
        members = [(k, logs if k == "structLogs" else v) for k, v in members]
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
    ascii_only = draw(st.booleans())
    items = [
        json.dumps(key) + draw(_SPACE) + colon
        + json.dumps(value, indent=indent, separators=(comma, colon), ensure_ascii=ascii_only)
        for key, value in members
    ]
    body = draw(_SPACE) + comma.join(items) + draw(_SPACE)
    data = (draw(_SPACE) + "{" + body + "}" + draw(_SPACE)).encode()
    if _sometimes(draw, 10):
        data = "\ufeff".encode() + data
    if _sometimes(draw, 3):
        data = damaged(data, draw(damage(data, ALL_DAMAGE)))
    return data, root


def _settings(examples):
    return settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


@given(data=st.data())
@_settings(400)
def test_streamed_walk_equals_the_document_walk(samples, data):
    text, root = data.draw(trace_texts(samples))
    relaxed = data.draw(st.booleans())
    thirds = Walk({root: range(0, 1 << 16, 3)}, calls=True)
    select = data.draw(st.sampled_from([Walk(), thirds]))
    walk = select._replace(relaxed=relaxed)
    block = data.draw(st.sampled_from(BLOCKS))
    with mock.patch.object(traces, "TEXT_CHUNK", data.draw(st.sampled_from(CHUNKS))):
        streamed = outcome(lambda: reconstruct_trace(Span(text, [block]), root, walk))
    assert streamed == whole_walk(text, root, walk)


@given(data=st.data())
@_settings(200)
def test_streamed_filter_equals_the_document_filter(samples, data):
    text, _ = data.draw(trace_texts(samples))
    spec = {
        "pcSet": data.draw(st.lists(st.integers(0, 120), max_size=4)),
        "includeCallBoundaries": data.draw(st.booleans()),
    }
    block = data.draw(st.sampled_from(BLOCKS))
    with mock.patch.object(traces, "TEXT_CHUNK", data.draw(st.sampled_from(CHUNKS))):
        streamed = outcome(lambda: filter_trace(Span(text, [block]), spec))
    whole = outcome(lambda: apply_tracer(json.loads(Span(text).text()), spec))
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
    # the streamed canonical write of a span answer, against the write of
    # the document json.loads makes of its text; the span's faults are a
    # trace file's (LocalExplorer), so a text that is not JSON is its
    # reader's error. The miss closes the span it read and answers what
    # its writer read: the document, or the span of the entry it streamed
    text, _ = data.draw(trace_texts(samples))
    faults = partial(_read_faults, f"trace for {hash_hex(TX)}", ArchiveGapError, ProtocolError)
    span = Span(text, [data.draw(st.sampled_from(BLOCKS))], faults=faults)
    chunk = data.draw(st.sampled_from(CHUNKS))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traces, "TEXT_CHUNK", chunk):
        streamed = CachedExplorer(Answers(span), Path(tmp) / "streamed")
        try:
            doc = json.loads(Span(text).text())
        except (ValueError, RecursionError) as err:
            with pytest.raises(ProtocolError) as refused:
                streamed.tx_trace(TX)
            assert str(refused.value) == f"trace for {hash_hex(TX)} unreadable: {err}"
            assert not any(Path(tmp, "streamed").iterdir())
            assert span.handle.closed
            return
        answer = streamed.tx_trace(TX)
        CachedExplorer(Answers(doc), Path(tmp) / "parsed").tx_trace(TX)
        (entry,) = Path(tmp, "streamed").iterdir()
        assert entry.read_bytes() == Path(tmp, "parsed", entry.name).read_bytes()
        assert span.handle.closed
        if isinstance(answer, TextSpan):
            with answer:
                assert len(text) > chunk and answer.handle.name.endswith(".tmp")
                assert answer.text() == compact(doc)
        else:
            assert answer == doc


# -- fixed cases at the chunk boundary --


def _entries(count: int) -> list:
    """A strict root-frame trace of count JUMPDEST steps and a STOP."""
    steps = [
        {"depth": 1, "gas": 10_000 - pc, "gasCost": 1, "op": "JUMPDEST", "pc": pc, "stack": []}
        for pc in range(count)
    ]
    steps.append({"depth": 1, "gas": 10_000 - count, "gasCost": 0, "op": "STOP", "pc": count})
    return steps


def _text(entries: list, **members) -> bytes:
    doc = {"failed": False, "gas": 21_000, "returnValue": "", **members, "structLogs": entries}
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode()  # as the archive writes a trace, with raw UTF-8


@pytest.fixture
def streamed_only(monkeypatch):
    """Makes reconstruct_trace fail rather than fall back to json.loads."""

    def refused(*args):
        raise AssertionError("the stream fell back to json.loads")

    monkeypatch.setattr(traces, "json", SimpleNamespace(loads=refused))


def _chunk_sizes(span) -> list:
    """The number of entries in each chunk of the span's array."""
    return [len(chunk) for chunk in stream_blocks(span.blocks())[1]]


def _walks_alike(data: bytes, **span):
    doc = json.loads(data)
    assert reconstruct_trace(Span(data, **span), ROOT) == reconstruct_trace(doc, ROOT)
    chunks = stream_blocks(Span(data, **span).blocks())[1]
    assert [e for chunk in chunks for e in chunk] == doc["structLogs"]


def _falls_back(monkeypatch, data: bytes):
    """data streams up to a chunk that does not parse, and reconstruct_trace
    then gives what one document walk of json.loads of the text gives."""
    with pytest.raises(Unstreamable):
        _chunk_sizes(Span(data))
    decodes = []
    monkeypatch.setattr(
        traces, "json", SimpleNamespace(loads=lambda text: decodes.append(text) or json.loads(text))
    )
    assert reconstruct_trace(Span(data), ROOT) == reconstruct_trace(json.loads(data), ROOT)
    assert len(decodes) == 1


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


@pytest.mark.parametrize("block", BLOCKS)
def test_data_after_the_closing_brace_is_the_json_loads_error(block):
    data = _text(_entries(2000)) + b"{}"
    assert len(data) > TEXT_CHUNK
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(data)
    with pytest.raises(json.JSONDecodeError) as streamed:
        reconstruct_trace(Span(data, [block]), ROOT)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("offset", [0, -1])
def test_a_cut_exactly_at_the_chunk_size(streamed_only, offset):
    # the entry that closes exactly TEXT_CHUNK (offset 0) characters past
    # the first entry ends the first chunk; one character earlier
    # (offset -1) and the cut moves on to the next entry
    entries = _entries(2000)
    entries[0]["note"] = ""
    text = _text(entries).decode()
    first = text.index("[") + 1
    ends = [i for i in range(first, len(text)) if text.startswith("},{", i)]
    below = max(i for i in ends if i < first + TEXT_CHUNK - 1)
    entries[0]["note"] = "x" * (first + TEXT_CHUNK + offset - below)
    text = _text(entries).decode()
    assert text.startswith("},{", first + TEXT_CHUNK + offset)
    closed = 1 + ends.index(below)  # entries up to the one whose brace sits there
    for block in BLOCKS[1:]:
        chunks = _chunk_sizes(Span(text.encode(), [block]))
        assert chunks[0] == (closed if offset == 0 else closed + 1)
        assert sum(chunks) == len(entries)
        _walks_alike(text.encode(), sizes=[block])


def test_an_empty_array_streams(monkeypatch, streamed_only):
    monkeypatch.setattr(traces, "TEXT_CHUNK", 1)
    data = _text([])
    for block in BLOCKS:
        assert _chunk_sizes(Span(data, [block])) == []
        rec = reconstruct_trace(Span(data, [block]), ROOT)
        assert rec.steps == [] and rec.failed is False
    # the header's gas and returnValue are checked, not kept: a bad one is
    # refused, by the stream and by the whole read it falls back to
    with mock.patch.object(traces, "json", json):
        for bad, message in (({"gas": -1}, "gas must be"), ({"returnValue": "0xz"}, "not hex")):
            for block in BLOCKS:
                with pytest.raises(TraceParseError, match=message):
                    reconstruct_trace(Span(_text([], **bad), [block]), ROOT)


def test_an_array_shorter_than_a_chunk_is_one_chunk(streamed_only):
    # a text longer than a chunk (a long return value) whose array is not
    data = _text(_entries(10), returnValue="ab" * TEXT_CHUNK)
    assert len(data) > TEXT_CHUNK
    assert _chunk_sizes(Span(data)) == [11]
    _walks_alike(data)


def test_a_duplicate_structlogs_walks_the_last_one():
    # json.loads keeps the last of duplicate keys, and so does the stream,
    # by falling back to it
    data = _text(_entries(3))[:-2] + b',"structLogs":' + compact(_entries(1)).encode() + b"}"
    rec = reconstruct_trace(Span(data), ROOT)
    assert [s.op for s in rec.steps] == ["JUMPDEST", "STOP"]


def _trailing(data: bytes, members: str) -> bytes:
    """The text data, an object on one line, with members after its last."""
    assert data.endswith(b"}\n")
    return data[:-2] + members.encode() + b"}\n"


def test_members_after_the_array_stream(monkeypatch, streamed_only):
    # a member whose key sorts after structLogs may follow the array: the
    # chunks put it in members as they end, the last of duplicates winning
    monkeypatch.setattr(traces, "TEXT_CHUNK", 64)
    data = b'{"zzz":0,' + _text(_entries(40))[1:]
    data = _trailing(data, ' , "zzz" :\t[1, {"a": 2}] ,"structLogsX":"ü"')
    doc = json.loads(data)
    assert doc["zzz"] == [1, {"a": 2}]
    tail = data.rindex(b'"zzz"')
    for span in _every_cut(data, data.rindex(b"]", 0, tail) - 1, len(data)):
        members, chunks = stream_blocks(span.blocks())
        assert "structLogsX" not in members and members["zzz"] == 0
        assert [e for chunk in chunks for e in chunk] == doc["structLogs"]
        assert members == {k: v for k, v in doc.items() if k != "structLogs"}
        assert reconstruct_trace(span, ROOT) == reconstruct_trace(doc, ROOT)
    assert filter_trace(Span(data), {"pcSet": [3]}) == apply_tracer(doc, {"pcSet": [3]})


@pytest.mark.parametrize("key", ["gas", "failed", "returnValue", "aaa", "structLog", "structLogs"])
def test_a_member_after_the_array_that_sorts_before_it_falls_back(monkeypatch, key):
    # the header is read before the array, and the canonical text puts a
    # lower key there too: the whole read decides
    data = _trailing(_text(_entries(40)), f',"{key}":[]')
    monkeypatch.setattr(traces, "TEXT_CHUNK", 64)
    members, chunks = stream_blocks(Span(data).blocks())
    with pytest.raises(Unstreamable):
        list(chunks)
    assert outcome(lambda: reconstruct_trace(Span(data), ROOT)) == whole_walk(data)


def test_a_long_miss_with_a_trailing_member_walks_no_document(
    capsys, monkeypatch, long_dir, tmp_path
):
    # cold and warm runs over a long trace with "zzz" after its array
    # stream it, and the cold run's entry is that of the document answer
    clone = _copy(long_dir, tmp_path)
    path = _long_trace(clone)
    data = path.read_bytes().rstrip()
    path.write_bytes(data[:-1] + b',"zzz":1}')
    doc = json.loads(path.read_bytes())
    code, local = _investigate(capsys, clone, "local")
    assert code == 0 and local["detections"]
    decoded = []

    def loads(text):
        decoded.append(json.loads(text))
        return decoded[-1]

    monkeypatch.setattr(traces, "json", SimpleNamespace(loads=loads))
    cache = tmp_path / "cache"
    for run in ("cold", "warm"):
        code, report = _investigate(capsys, clone, "local", cache)
        assert code == 0 and report["detections"] == local["detections"], run
    assert report["explorerStats"]["hits"] > 0 and report["explorerStats"]["innerCalls"] == 0
    long_docs = [doc for doc in decoded if len(doc["structLogs"]) > 100]
    assert long_docs == []
    tx_hash = bytes.fromhex(path.stem)
    CachedExplorer(Answers(doc), tmp_path / "parsed").tx_trace(tx_hash)
    (parsed,) = (tmp_path / "parsed").iterdir()
    assert (cache / parsed.name).read_bytes() == parsed.read_bytes()


# -- fixed cases at a block edge --


def _every_cut(data: bytes, start: int, stop: int):
    """Each span of data with one block edge, at start, start + 1, ...,
    stop - 1."""
    return [Span(data, cuts=[cut]) for cut in range(start, stop)]


def test_a_block_edge_inside_a_multibyte_character(monkeypatch, streamed_only):
    # the decoder holds the start of a character cut at a block edge until
    # the next block completes it, in a header member and in an entry
    monkeypatch.setattr(traces, "TEXT_CHUNK", 64)
    entries = _entries(40)
    entries[20]["note"] = "ü€😀"
    data = _text(entries, comment="ü€😀")
    doc = json.loads(data)
    assert doc["comment"] == "ü€😀"
    for where in (data.index("ü€😀".encode()), data.rindex("ü€😀".encode())):
        for span in _every_cut(data, where, where + len("ü€😀".encode())):
            assert reconstruct_trace(span, ROOT) == reconstruct_trace(doc, ROOT)
            members, chunks = stream_blocks(span.blocks())
            assert members["comment"] == "ü€😀"
            assert [e for chunk in chunks for e in chunk] == doc["structLogs"]


def test_a_block_edge_inside_a_cut(monkeypatch, streamed_only):
    # a "},{" with whitespace around its comma, cut by a block edge at each
    # of its characters: the stream waits for the whole cut
    monkeypatch.setattr(traces, "TEXT_CHUNK", 1)
    doc = json.loads(_text(_entries(8)))
    data = json.dumps(doc, separators=(" \r\n ,\t ", ":")).encode()
    cut = data.index(b"} \r\n ,\t {")
    for cut_at in range(cut, cut + 10):
        assert _chunk_sizes(Span(data, cuts=[cut_at])) == [1] * 9
        assert reconstruct_trace(Span(data, cuts=[cut_at]), ROOT) == reconstruct_trace(doc, ROOT)


@pytest.mark.parametrize("value", [21_000, 1.5, -2.5e-3, 1e300, True, None, "0x", [1, {}]])
def test_a_block_edge_inside_a_header_member(streamed_only, value):
    # a number cut short at a block edge ("1." "1e" "1e-") reads as another
    # number; the stream waits until the scanner has settled past it
    data = _text(_entries(3), extra=value, rate=value)
    data = data.replace(b'"extra":', b'"extra" \n:\t')  # whitespace in the member too
    doc = json.loads(data)
    for span in _every_cut(data, 0, data.index(b'"structLogs"') + 14):
        members, chunks = stream_blocks(span.blocks())
        assert members == {k: v for k, v in doc.items() if k != "structLogs"}
        assert [e for chunk in chunks for e in chunk] == doc["structLogs"]


def test_a_header_the_blocks_cannot_settle_falls_back(monkeypatch):
    # a member whose value is not JSON is read to the end of the text
    # before the stream gives up; the whole read then decides
    data = _text(_entries(3), extra=1).replace(b'"extra":1', b'"extra":1.x')
    for span in _every_cut(data, 0, 40):
        with pytest.raises(Unstreamable):
            stream_blocks(span.blocks())
        assert outcome(lambda: reconstruct_trace(span, ROOT)) == whole_walk(data)


@pytest.mark.parametrize("block", [7, 64])
def test_a_block_edge_inside_a_cache_entry_tail(monkeypatch, tmp_path, block):
    # payloads one byte apart put the edge of the file's block grid at
    # every byte of the sha256 tail: each hit is checked and walked whole,
    # and a tail with one digit changed is dropped
    for module in (explorer, traces):  # the entry reader's split, the span's blocks
        monkeypatch.setattr(module, "TEXT_CHUNK", block)
    for pad in range(block + _TAIL_SIZE):
        doc = json.loads(_text(_entries(3), note="x" * pad))
        cache = tmp_path / f"cache-{pad}"
        CachedExplorer(Answers(doc), cache).tx_trace(TX)
        (entry,) = cache.iterdir()
        hit = CachedExplorer(Answers(None), cache)
        trace = hit.tx_trace(TX)
        assert isinstance(trace, TextSpan) and hit.hits == 1
        tx = Transaction(TX, 0, ROOT, 0, b"", 0, 0)
        assert ReadState(hit).walk(trace, tx, None, None) == reconstruct_trace(doc, ROOT)
        assert trace.handle.closed
        good = entry.read_bytes()
        at = len(good) - 3 - pad % 64
        entry.write_bytes(good[:at] + (b"0" if good[at:at + 1] != b"0" else b"1") + good[at + 1:])
        again = CachedExplorer(Answers(doc), cache)
        assert again.tx_trace(TX) == doc and (again.hits, again.dropped) == (0, 1)
        assert entry.read_bytes() == good


# -- the whole read, and where a text stops being one --


@pytest.mark.parametrize(
    "data",
    [b'{"a":\r\n"b"}', b'{"a":\r"b"}', b'{"a":"\r\n"}', b'\xef\xbb\xbf{"a":1}', b'{"a":"\xff"}',
     b'{"a":"\xe2\x82"}', "{\"é\":\"€\"}".encode(), b"", None, "directory"],
    ids=["crlf", "cr", "crlf-in-string", "bom", "bad-byte", "cut-character", "multibyte",
         "empty", "missing", "directory"],
)
def test_a_span_reads_the_text_a_text_mode_read_gives(tmp_path, data):
    # the reference is Python's own text-mode read, under read_text's faults
    path = tmp_path / "trace.json"
    if data == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    faults = partial(_read_faults, "trace", ArchiveGapError, ProtocolError)

    def text_mode() -> str:
        with faults(), open(path, encoding="utf-8") as handle:
            return handle.read()

    def text_mode_json():
        text = text_mode()
        with faults():
            return json.loads(text)

    def text(span):
        with span.faults():  # as read_trace reads it
            return span.text()

    reference = outcome(text_mode)
    assert outcome(lambda: read_text(path, "trace")) == reference
    assert outcome(lambda: read_json(path, "trace")) == outcome(text_mode_json)
    if isinstance(data, bytes):
        with TextSpan(io.BytesIO(data), 0, len(data), faults) as span:
            assert outcome(lambda: text(span)) == reference


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "data", [b'{"a":\r\n"b"}', b'{"a":"\xff"}', b""], ids=["crlf", "bad-byte", "empty"],
)
def test_a_pipe_reads_as_a_text_mode_read_of_it(data):
    # a feed or a description piped in (/dev/stdin, a process substitution)
    # cannot seek and has no size; it reads as Python's text-mode read does
    faults = partial(_read_faults, "feed", ArchiveGapError, ProtocolError)

    def piped(read):
        out, into = os.pipe()
        os.write(into, data)
        os.close(into)
        try:
            return outcome(lambda: read(f"/dev/fd/{out}"))
        finally:
            os.close(out)

    def text_mode(path) -> str:
        with faults(), open(path, encoding="utf-8") as handle:
            return handle.read()

    def text_mode_json(path):
        text = text_mode(path)
        with faults():
            return json.loads(text)

    assert piped(lambda path: read_text(path, "feed")) == piped(text_mode)
    assert piped(lambda path: read_json(path, "feed")) == piped(text_mode_json)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_a_file_of_at_most_one_chunk_is_read_whole(monkeypatch, tmp_path, extra):
    # and decoded in one json.loads, as read_json decodes it, with its
    # error; a longer one is streamed first. Either way read_trace closes it
    path = tmp_path / "trace.json"
    data = b"{" + b" " * (TEXT_CHUNK - 2 + extra) + b"}"
    streams = []
    monkeypatch.setattr(
        traces, "stream_blocks", lambda blocks: streams.append(1) or stream_blocks(blocks)
    )
    faults = partial(_read_faults, "trace", ArchiveGapError, ProtocolError)  # read_json's

    def read(data: bytes):
        path.write_bytes(data)
        span = TextSpan(open(path, "rb"), 0, len(data), faults)
        try:
            return outcome(lambda: read_trace(span, lambda doc: doc, None))
        finally:
            assert span.handle.closed

    assert read(data) == {} and len(streams) == (len(data) > TEXT_CHUNK)
    refused = read(data[:-1] + b"]")
    assert refused == outcome(lambda: read_json(path, "trace")) and refused[0] is ProtocolError


# -- long traces end to end: faults and file descriptors --


@pytest.fixture(scope="module")
def long_dir(tmp_path_factory):
    """A DelayedUnderflow archive whose exploit's trace is some 200 kB, so
    longer than a chunk."""
    base = tmp_path_factory.mktemp("long-archive") / "long"
    write_fixture(scale_fixture("DelayedUnderflow", "instructions", 2_500, seed=SEED), base)
    return base


def _long_trace(base: Path) -> Path:
    path = max((base / "traces").glob("*.json"), key=lambda p: p.stat().st_size)
    assert path.stat().st_size > 2 * TEXT_CHUNK
    return path


def _investigate(capsys, base: Path, mode: str, cache: Path | None = None) -> tuple[int, dict]:
    level = "evm[mode=customTracer]" if mode == "tracer" else "evm"
    argv = ["investigate", "-t", "long", "-e", f"local[dir={base}]", "-d", level]
    if cache is not None:
        argv += ["-c", str(cache)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def _without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def _copy(base: Path, tmp_path: Path) -> Path:
    clone = tmp_path / "clone"
    shutil.copytree(base, clone)
    return clone


@pytest.mark.parametrize("mode", ["local", "tracer", "cold"])
def test_bad_utf8_in_the_last_block_of_a_long_trace_names_its_file_position(
    capsys, long_dir, tmp_path, mode
):
    clone = _copy(long_dir, tmp_path)
    path = _long_trace(clone)
    data = bytearray(path.read_bytes())
    at = len(data) - 100
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    assert f"position {at}:" in str(whole.value)
    tx_hash = bytes.fromhex(path.stem)
    message = f"trace for {hash_hex(tx_hash)} unreadable: {whole.value}"
    cache = tmp_path / "cache" if mode == "cold" else None
    code, report = _investigate(capsys, clone, "local" if mode == "cold" else mode, cache)
    assert code == 0
    assert any(message in skip for skip in report["skips"])
    if mode == "cold":  # the inner read failed, as a whole read did: no fetch
        assert report["explorerStats"] == _stats(blocks=(0, 0, 2), traces=(0, 0, 0))


def _stats(blocks: tuple, traces: tuple) -> dict:
    """explorerStats of a run with these (hits, dropped, innerCalls) of
    block and trace queries, which fetched no query twice."""
    kinds = {
        kind: dict(zip(("hits", "dropped", "innerCalls"), counts))
        for kind, counts in (("block", blocks), ("trace", traces))
    }
    totals = {name: sum(kind[name] for kind in kinds.values()) for name in kinds["block"]}
    return {"byKind": kinds, "distinctQueries": totals["innerCalls"], **totals}


def _trace_entry(cache: Path) -> Path:
    return max(cache.glob("*.json"), key=lambda p: p.stat().st_size)


def test_a_flipped_byte_in_a_long_entry_is_one_drop_and_one_refetch(
    capsys, long_dir, tmp_path
):
    cache = tmp_path / "cache"
    code, local = _investigate(capsys, long_dir, "local")
    assert code == 0 and local["detections"]
    code, cold = _investigate(capsys, long_dir, "local", cache)
    entry = _trace_entry(cache)
    good = entry.read_bytes()
    assert len(good) > 2 * TEXT_CHUNK
    at = len(good) - 200  # in the payload's last block
    entry.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
    code, warm = _investigate(capsys, long_dir, "local", cache)
    assert code == 0 and warm["detections"] == local["detections"]
    assert warm["explorerStats"] == _stats(blocks=(2, 0, 0), traces=(0, 1, 1))
    assert entry.read_bytes() == good


@pytest.mark.parametrize("change", ["unlinked", "replaced"])
def test_a_long_entry_changed_between_check_and_walk_walks_what_was_checked(
    capsys, monkeypatch, long_dir, tmp_path, change
):
    # the walk reads the descriptor whose digest was checked, not the path
    cache = tmp_path / "cache"
    code, local = _investigate(capsys, long_dir, "local")
    _investigate(capsys, long_dir, "local", cache)
    real = explorer._stored_payload
    raced = []

    def racing(name, prefix):
        answer = real(name, prefix)
        if answer.stop - answer.start > TEXT_CHUNK:  # checked on the file
            path = Path(name)
            raced.append(path)
            if change == "unlinked":
                path.unlink()
            else:
                tmp = path.with_name("racer.tmp")
                tmp.write_bytes(path.read_bytes()[:-3] + b'0"}')
                os.replace(tmp, path)
        return answer

    monkeypatch.setattr(explorer, "_stored_payload", racing)
    code, warm = _investigate(capsys, long_dir, "local", cache)
    assert code == 0 and warm["detections"] == local["detections"]
    assert raced and warm["explorerStats"] == _stats(blocks=(2, 0, 0), traces=(1, 0, 0))


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_investigation_leaves_a_descriptor_open(capsys, long_dir, tmp_path):
    clone = _copy(long_dir, tmp_path)
    refused = tmp_path / "refused"
    shutil.copytree(long_dir, refused)
    path = _long_trace(refused)
    path.write_bytes(path.read_bytes()[:-50] + b"nope")  # not JSON in its last block
    runs = []
    for base, name in ((clone, "good"), (refused, "refused")):
        for mode in ("local", "tracer", "cold", "warm"):
            cache = tmp_path / f"cache-{name}" if mode in ("cold", "warm") else None
            runs.append((base, "local" if cache else mode, cache))
    before = _open_descriptors()
    for base, mode, cache in runs:
        code, report = _investigate(capsys, base, mode, cache)
        assert code == 0 and "detections" in report
        assert _open_descriptors() == before, (base, mode, cache)
    # the refetch path: a long entry whose digest does not match
    entry = _trace_entry(tmp_path / "cache-good")
    entry.write_bytes(entry.read_bytes()[:-3] + b'0"}')
    code, report = _investigate(capsys, clone, "local", tmp_path / "cache-good")
    assert report["explorerStats"]["dropped"] == 1
    # and a hit the walk cannot decode: dropped and fetched again
    entry = _trace_entry(tmp_path / "cache-good")
    entry.unlink()
    _investigate(capsys, clone, "local", tmp_path / "cache-good")
    entry = _trace_entry(tmp_path / "cache-good")
    key = json.loads(entry.read_bytes())["key"]
    payload = b"[" * (2 * TEXT_CHUNK)
    entry.write_bytes(
        b'{"key":' + json.dumps(key).encode() + b',"payload":' + payload
        + b',"sha256":"' + digest(payload).hex().encode() + b'"}'
    )
    code, report = _investigate(capsys, clone, "local", tmp_path / "cache-good")
    assert report["explorerStats"]["dropped"] == 1 and report["detections"]
    assert _open_descriptors() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_long_miss_whose_entry_cannot_be_renamed_closes_its_answer(
    monkeypatch, long_dir, tmp_path
):
    # the miss streamed the trace file into its entry and answers the span
    # of that entry; a rename that fails leaves neither file nor descriptor
    tx_hash = bytes.fromhex(_long_trace(long_dir).stem)
    cache = CachedExplorer(LocalExplorer(long_dir), tmp_path / "cache")

    def refused(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(explorer.os, "replace", refused)
    before = _open_descriptors()
    with pytest.raises(UsageError, match="not written: .*Permission denied"):
        cache.tx_trace(tx_hash)
    assert _open_descriptors() == before
    assert not any((tmp_path / "cache").iterdir())
    assert cache.by_kind["trace"] == {"hits": 0, "dropped": 0, "innerCalls": 1}


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    """The six scenarios' archives, whose traces are all short."""
    base = tmp_path_factory.mktemp("suite")
    for name in SCENARIO_NAMES:
        write_fixture(build_fixture_chain(name, seed=SEED), base / name)
    return base


def _run(capsys, argv: list) -> dict:
    assert main(["investigate", "-t", "suite", *argv]) == 0
    return _without_timings(json.loads(capsys.readouterr().out))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_suite_investigation_leaves_a_short_trace_open(capsys, suite_dir, tmp_path):
    # every short trace is answered as a span, by the trace file, a cold
    # miss's entry or a warm hit, and whoever reads it closes it
    before = _open_descriptors()
    runs = {
        "local": [], "tracer": ["-d", "evm[mode=customTracer]"],
        "cold": ["-c", "{cache}"], "warm": ["-c", "{cache}"],
        "internal": ["-f", "spec[internal=true]"],
        "internal-cold": ["-f", "spec[internal=true]", "-c", "{cache}-internal"],
        "internal-warm": ["-f", "spec[internal=true]", "-c", "{cache}-internal"],
    }
    for name in SCENARIO_NAMES:
        cache = tmp_path / name
        reports = {}
        for run, extra in runs.items():
            argv = ["-e", f"local[dir={suite_dir / name}]", *extra]
            reports[run] = _run(capsys, [arg.format(cache=cache) for arg in argv])
            assert _open_descriptors() == before, (name, run)
        for run in ("tracer", "cold", "warm"):
            assert reports[run]["detections"] == reports["local"]["detections"], (name, run)
        assert reports["warm"]["explorerStats"]["byKind"]["trace"]["innerCalls"] == 0
    # a short hit whose digest matches a payload that is not JSON: dropped
    # by the walk and fetched again, once
    cache = tmp_path / "Bank"
    entry = next(
        path for path in cache.glob("*.json")
        if json.loads(json.loads(path.read_bytes())["key"])[0] == "trace"
    )
    good = entry.read_bytes()
    key = json.loads(good)["key"]
    payload = b"{nope"
    entry.write_bytes(
        b'{"key":' + json.dumps(key).encode() + b',"payload":' + payload
        + b',"sha256":"' + digest(payload).hex().encode() + b'"}'
    )
    local = _run(capsys, ["-e", f"local[dir={suite_dir / 'Bank'}]"])
    warm = _run(capsys, ["-e", f"local[dir={suite_dir / 'Bank'}]", "-c", str(cache)])
    assert warm["detections"] == local["detections"]
    traces_read = warm["explorerStats"]["byKind"]["trace"]
    assert (traces_read["dropped"], traces_read["innerCalls"]) == (1, 1)
    assert entry.read_bytes() == good
    assert _open_descriptors() == before
