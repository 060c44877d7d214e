"""Data access: local archive directories, JSON-RPC nodes, and a cache.

All backends answer the same five questions:

  collect_block_details(n)   {"block": envelope}: block n's envelope alone
  tx_trace(hash, tracer)     full or pc-filtered trace: its document, or a span
  get_storage(addr, key, n)  storage word as of block n's post-state
  get_balance(addr, n)       balance as of block n's post-state
  height()                   newest block number

Post-state semantics throughout: the pre-state of block n is a query
against n - 1.

A block envelope is number, hash, parentHash, stateRoot and transactions,
shaped as in chain.json (docs/formats.md); receipts are left out.
block_envelope() is the one check that makes it: every backend's block
object passes through it where it enters, and a missing or malformed field
is a ProtocolError. RpcExplorer maps a JSON-RPC block to the archive shape
first (hex number and nonce to ints, gas to gasLimit); extra fields are
dropped.

A point query answers a checked word on every backend: a JSON-RPC quantity
or snapshot balance is 0x + 1 to 64 hex digits, a snapshot storage value
64 hex digits, and anything else is a ProtocolError.

read_text and read_json are the one reader of every file a run names:
the archive's files here, and the feed and the vulnerability description
the command line or a fixture names; a trace file is answered open, with
read_json's faults (see Trace answers). A file that is not there is the
caller's `missing` error, "no WHAT"; any other fault, a text that is not
JSON included, its `unreadable` error, "WHAT unreadable: ERR". A name
the system refuses as too long (ENAMETOOLONG) is quoted cut to 80
characters, any other whole (quoted_fault). The cache reads and writes
its own entries.

LocalExplorer reads a fixture/archive directory. chain.json is parsed and
checked once at construction (it is the index); state snapshots are re-read
from disk on every storage/balance query, and only the account and field a
query reads are checked. That per-query read is deliberate: it models an
archive node that charges per point query, it is what the cache exists to
absorb, and it is what makes analysis cost grow with state size when no
cache is in front.

Trace answers: a trace crosses this boundary in one of two forms, a
parsed document or a traces.TextSpan, never as a str. Every trace text
read from a file is answered as its TextSpan, an open, re-readable byte
span of what holds it: the whole trace file (LocalExplorer opens it, and
reads nothing), or the payload of a cache entry, in the entry bytes a
hit read and checked, or on the descriptor whose digest was checked.
traces.read_trace alone decodes a span, in one json.loads when it has at
most TEXT_CHUNK bytes and a TEXT_CHUNK-byte block at a time when longer
(the traces module docstring has the block, chunk and fallback rules),
and it closes the span. So a trace file that is not JSON, or not UTF-8,
is found by whoever reads its span, the walk (walk_trace, which walks
every trace answer through traces.reconstruct_trace), the customTracer
filter or a cache miss, as the same ProtocolError naming the trace,
"trace for 0x... unreadable: ERR"; a cache payload that does not decode
is dropped and fetched again by the walk. A pc-filtered trace is the
filter's document, built as a span's entries stream past, so only the
kept entries are ever held.
RpcExplorer answers with the parsed reply, walked as a document.

RpcExplorer speaks JSON-RPC 2.0 over the standard library's HTTP client,
through the one function http_post; the package has no runtime dependency.
Busy replies (HTTP 429, 502, 503, 504) and connection failures are retried
within one bound on the number of tries, with capped backoff that honours
Retry-After. The transport modules are imported on the first request, so a
run over a local archive never loads them.

CachedExplorer is a read-through wrapper over any backend. Entries are
persisted one file per query with a content digest and written atomically;
corrupted entries are discarded and refetched. Per-key fetch counters and
per-kind hit/drop counters make cache behavior checkable rather than
assumed. A hit is answered with the entry's payload parsed, or a trace
payload as its TextSpan; a miss answers what its writer read, the
document it wrote or, after a streamed pass, the span of the entry (see
CachedExplorer).
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import sleep
from typing import Callable, Iterable, Iterator
from urllib.parse import urlsplit

from .chain import tx_from_document, tx_to_document
from .errors import ArchiveGapError, ProtocolError, SleuthError, UsageError
from .hashing import digest, new_digest
from .traces import (
    CALL_OPS,
    TEXT_CHUNK,
    ReconstructedTrace,
    Select,
    TextSpan,
    every_step,
    read_trace,
    reconstruct_trace,
)
from .words import address_hex, hash_hex, storage_hex, word_hex


def canonical_tracer(tracer_spec: dict | None) -> dict | None:
    """Normalized tracer config: sorted pcSet, explicit boundary flag."""
    if tracer_spec is None:
        return None
    if not isinstance(tracer_spec, dict):
        raise UsageError("tracer spec must be an object")
    pc_set = tracer_spec.get("pcSet", [])
    if not isinstance(pc_set, (list, tuple, set, frozenset)) or not all(
        isinstance(pc, int) and pc >= 0 for pc in pc_set
    ):
        raise UsageError("tracer pcSet must be a list of non-negative ints")
    return {
        "pcSet": sorted(set(pc_set)),
        "includeCallBoundaries": bool(tracer_spec.get("includeCallBoundaries", True)),
    }


def _tracer_keeps(tracer_spec: dict) -> Callable[[object], bool]:
    """The declarative tracer's test of one structLog entry."""
    spec = canonical_tracer(tracer_spec)
    keep_pcs = set(spec["pcSet"])
    boundaries = spec["includeCallBoundaries"]

    def keeps(step) -> bool:
        try:
            pc, op = step["pc"], step["op"]
        except (TypeError, KeyError):
            return True
        if type(pc) is not int or not isinstance(op, str):  # as ingest reads them
            return True
        return pc in keep_pcs or (boundaries and op in CALL_OPS)

    return keeps


def apply_tracer(doc: dict, tracer_spec: dict) -> dict:
    """Filter a full trace the way the declarative tracer would have.

    A document without a structLogs list passes through unchanged, and so
    does an entry the filter cannot read (not an object, no pc or op, a pc
    that is not an int, an op that is not a string): trace ingest rejects
    them with its own message, as it does in a full trace.
    """
    keeps = _tracer_keeps(tracer_spec)
    if not isinstance(doc, dict) or not isinstance(doc.get("structLogs"), list):
        return doc
    out = dict(doc)
    out["structLogs"] = [step for step in doc["structLogs"] if keeps(step)]
    return out


def filter_trace(trace, tracer_spec: dict):
    """apply_tracer of the trace answer `trace`, a document or a TextSpan,
    whose entries are filtered as they stream (traces.read_trace), so only
    the kept ones are held."""
    keeps = _tracer_keeps(tracer_spec)
    return read_trace(
        trace,
        lambda doc: apply_tracer(doc, tracer_spec),
        lambda members, chunks: {
            **members, "structLogs": [step for chunk in chunks for step in chunk if keeps(step)]
        },
    )


class ExplorerView:
    """balance_of/storage_at adapter: one explorer pinned to one block."""

    def __init__(self, explorer, number: int):
        self.explorer = explorer
        self.number = number

    def balance_of(self, addr: int) -> int:
        return self.explorer.get_balance(addr, self.number)

    def storage_at(self, addr: int, key: int) -> int:
        return self.explorer.get_storage(addr, key, self.number)


def quoted_fault(what: str, err: Exception) -> tuple[str, str]:
    """what, naming a file, and err, met using it, as an error message
    quotes them: cut to 80 characters each when the system refused the
    name as too long (ENAMETOOLONG), else whole."""
    if isinstance(err, OSError) and err.errno == errno.ENAMETOOLONG:
        return f"{what:.80}", f"[Errno {err.errno}] {err.strerror}: {err.filename!r:.80}"
    return what, str(err)


@contextmanager
def _read_faults(what: str, missing, unreadable):
    """The faults of reading the file that `what` names, as the reader's
    errors: missing("no WHAT") if there is no such file, unreadable("WHAT
    unreadable: ERR") if it cannot be read, is not UTF-8 or, when the body
    decodes it, is not JSON."""
    try:
        yield
    except FileNotFoundError:
        raise missing(f"no {what}") from None
    # ValueError: bad UTF-8, or bad JSON; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as err:
        what, reason = quoted_fault(what, err)
        raise unreadable(f"{what} unreadable: {reason}") from None


def read_text(
    path: str | Path, what: str, missing=ArchiveGapError, unreadable=ProtocolError
) -> str:
    """The text of the file at path, which `what` names: missing("no WHAT")
    if there is no such file, unreadable("WHAT unreadable: ERR") if it
    cannot be read or is not UTF-8."""
    with _read_faults(what, missing, unreadable), open(path, encoding="utf-8") as handle:
        return handle.read()


def read_json(path: str | Path, what: str, missing=ArchiveGapError, unreadable=ProtocolError):
    """The JSON document at path: as read_text, and unreadable("WHAT
    unreadable: ERR") if the text is not JSON."""
    text = read_text(path, what, missing, unreadable)
    with _read_faults(what, missing, unreadable):
        return json.loads(text)


def _trace_what(tx_hash: bytes) -> str:
    return f"trace for {hash_hex(tx_hash)}"


def walk_trace(
    explorer,
    trace,
    tx_hash: bytes,
    tracer_spec: dict | None,
    root_target: int,
    select: Select = every_step,
) -> ReconstructedTrace:
    """The walk over `trace`, the answer of explorer.tx_trace(tx_hash,
    tracer_spec), relaxed when pc-filtered (traces.reconstruct_trace),
    which closes a TextSpan answer. A span from a cache hit whose payload
    then does not decode (json.loads raises) is dropped and fetched again
    (CachedExplorer.refetch_trace) before the walk runs once more; any
    other span maps that fault to its reader's ProtocolError.
    TraceParseError and ReconstructionError are the walk's."""
    relaxed = tracer_spec is not None
    try:
        return reconstruct_trace(trace, root_target, relaxed, select)
    except (ValueError, RecursionError):  # a span's text did not decode
        if not isinstance(explorer, CachedExplorer):
            raise
    trace = explorer.refetch_trace(tx_hash, tracer_spec)
    return reconstruct_trace(trace, root_target, relaxed, select)


_HASH = re.compile(r"0x[0-9a-fA-F]{64}")

# A JSON-RPC quantity, and a balance in a state snapshot: 0x + 1 to 64 hex
# digits. A storage value in a state snapshot: 64 hex digits, no prefix.
_QUANTITY = re.compile(r"0x([0-9a-fA-F]{1,64})")
_SLOT_VALUE = re.compile(r"([0-9a-fA-F]{64})")


def _as_int(value, what: str, shape: re.Pattern = _QUANTITY) -> int:
    """The 256-bit word that value writes in the given shape; ProtocolError
    if it is not a string of that shape."""
    match = shape.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ProtocolError(f"{what} is not a quantity: {value!r:.80}")
    return int(match[1], 16)


def block_envelope(doc, where: str) -> dict:
    """The envelope of block object doc: its number, hash, parentHash,
    stateRoot and transactions in the chain.json shape. ProtocolError names
    the first field that is missing or malformed; each transaction is
    checked by reading it with tx_from_document."""
    number = doc.get("number") if isinstance(doc, dict) else None
    if not isinstance(number, int) or isinstance(number, bool):
        raise ProtocolError(f"{where} block without an int number: {doc!r:.80}")
    for name in ("hash", "parentHash", "stateRoot", "transactions"):
        if name not in doc:
            raise ProtocolError(f"{where} block {number} without {name}")
    for name in ("hash", "parentHash", "stateRoot"):
        value = doc[name]
        if not (isinstance(value, str) and _HASH.fullmatch(value)):
            raise ProtocolError(
                f"{where} block {number}: {name} is not a 32-byte hash: {value!r:.80}"
            )
    txs = doc["transactions"]
    if not isinstance(txs, list):
        raise ProtocolError(f"{where} block {number}: transactions is not a list: {txs!r:.80}")
    try:
        txs = [tx_to_document(tx_from_document(tx)) for tx in txs]
    except ProtocolError as err:
        raise ProtocolError(f"{where} block {number}: {err}") from None
    return {
        "number": number,
        "hash": doc["hash"],
        "parentHash": doc["parentHash"],
        "stateRoot": doc["stateRoot"],
        "transactions": txs,
    }


class LocalExplorer:
    def __init__(self, directory: str | Path):
        self.base = Path(directory)
        chain = read_json(self.base / "chain.json", f"chain.json under {self.base}")
        blocks = chain.get("blocks") if isinstance(chain, dict) else None
        if not isinstance(blocks, list):
            raise ProtocolError("chain.json has no blocks list")
        self._by_number: dict[int, dict] = {}
        for doc in blocks:
            block = block_envelope(doc, "chain.json")
            if block["number"] in self._by_number:
                raise ProtocolError(f"chain.json lists block {block['number']} twice")
            self._by_number[block["number"]] = block
        if not self._by_number:
            raise ArchiveGapError("chain.json lists no blocks")
        self._tip = max(self._by_number)

    def height(self) -> int:
        return self._tip

    def _block_doc(self, number: int) -> dict:
        doc = self._by_number.get(number)
        if doc is None:
            raise ArchiveGapError(f"no block {number} in archive (tip {self._tip})")
        return doc

    def collect_block_details(self, number: int) -> dict:
        return {"block": self._block_doc(number)}

    def tx_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict | TextSpan:
        """The TextSpan of the whole trace file, whose faults are
        read_json's, or with a tracer spec the filtered document
        (filter_trace)."""
        faults = partial(_read_faults, _trace_what(tx_hash), ArchiveGapError, ProtocolError)
        with faults():
            handle = open(self.base / "traces" / f"{tx_hash.hex()}.json", "rb")
            try:
                trace = TextSpan(handle, 0, os.fstat(handle.fileno()).st_size, faults)
            except BaseException:
                handle.close()
                raise
        return trace if tracer_spec is None else filter_trace(trace, tracer_spec)

    def _state_doc(self, number: int) -> dict:
        root = self._block_doc(number)["stateRoot"]
        path = self.base / "states" / f"{root[2:]}.json"
        return read_json(path, f"state snapshot for block {number} (root {root})")

    def _account_field(self, addr: int, number: int, name: str):
        """(value, where): field `name` of account addr in the snapshot of
        block number, None if the snapshot holds no such account, and the
        field's name for messages. Only what the query reads is checked: a
        snapshot without an accounts object, or an account that is not an
        object or lacks the field, is a ProtocolError."""
        doc = self._state_doc(number)
        accounts = doc.get("accounts") if isinstance(doc, dict) else None
        where = f"state snapshot for block {number}"
        if not isinstance(accounts, dict):
            raise ProtocolError(f"{where} has no accounts object")
        account = address_hex(addr)
        fields = accounts.get(account)
        if fields is None:
            return None, where
        if not isinstance(fields, dict) or name not in fields:
            raise ProtocolError(f"{where}: account {account} without {name}")
        return fields[name], f"{where}: {name} of {account}"

    def get_storage(self, addr: int, key: int, number: int) -> int:
        storage, where = self._account_field(addr, number, "storage")
        if storage is None:
            return 0
        if not isinstance(storage, dict):
            raise ProtocolError(f"{where} is not an object")
        slot = storage_hex(key)
        raw = storage.get(slot)
        return 0 if raw is None else _as_int(raw, f"{where} slot {slot}", _SLOT_VALUE)

    def get_balance(self, addr: int, number: int) -> int:
        balance, where = self._account_field(addr, number, "balance")
        return 0 if balance is None else _as_int(balance, where)


# -- JSON-RPC backend ----------------------------------------------------------


def _archive_tx(tx):
    """A JSON-RPC transaction object with the archive's nonce and gasLimit."""
    if not isinstance(tx, dict):
        return tx
    nonce = _as_int(tx.get("nonce"), "transaction nonce")
    return dict(tx, nonce=nonce, gasLimit=_as_int(tx.get("gas"), "transaction gas"))


# Retry policy of RpcExplorer. The wait before try k + 1 is
# BACKOFF_BASE_S * 2**(k - 1), or the reply's Retry-After delta-seconds,
# either held to BACKOFF_CAP_S.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 10.0
_RETRY_STATUSES = frozenset({429, 502, 503, 504})  # RFC 6585 and RFC 9110
# The longest reply body RpcExplorer reads. A reply is parsed whole, so this
# bounds the memory one answer can take; a longer body is a ProtocolError.
REPLY_CAP_BYTES = 1 << 28


def http_post(url: str, body: bytes, timeout: float) -> bytes:
    """POST a JSON body to url and return the reply body.

    Raises the standard library's errors: HTTPError for a status other than
    2xx, URLError or OSError (TimeoutError, ConnectionError) when the
    endpoint cannot be reached or goes quiet, and http.client.HTTPException
    (IncompleteRead for a body shorter than its Content-Length) for a reply
    that is not HTTP; and ProtocolError for a body longer than
    REPLY_CAP_BYTES, of which it reads one byte more than the cap. The
    transport is imported here, not with the module, so a run that never
    reaches a node does not load it.
    """
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    request = Request(url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urlopen(request, timeout=timeout) as reply:
            data = reply.read(REPLY_CAP_BYTES + 1)
            if len(data) > REPLY_CAP_BYTES:
                raise ProtocolError(f"reply longer than REPLY_CAP_BYTES ({REPLY_CAP_BYTES} bytes)")
            reply.read()  # b"" after a whole body; IncompleteRead after a short one
            return data
    except HTTPError as err:
        err.close()  # its status and headers stay readable
        raise


def _retry_after(value) -> float | None:
    """Retry-After in delta-seconds; None for an HTTP-date or anything else."""
    match = re.fullmatch(r"\s*([0-9]+)\s*", value or "")
    return None if match is None else float(match[1])


_URL_TEXT = re.compile(r"[\x21-\x7e]+")  # printable ASCII, no spaces


class RpcExplorer:
    """Archive access over JSON-RPC 2.0.

    Method surface: eth_blockNumber, eth_getBlockByNumber,
    debug_traceTransaction, eth_getStorageAt, eth_getBalance. Each request is
    one POST through http_post, made at most `retries` times in all. A
    connection failure or timeout, and HTTP 429, 502, 503 or 504, is tried
    again after a capped exponential backoff, or after the reply's
    Retry-After delta-seconds held to the same cap; when the tries run out
    the answer is an archive gap (the data exists, we cannot reach it). Any
    other HTTP status, a truncated or non-JSON body, a body longer than
    REPLY_CAP_BYTES, a reply that is not a JSON-RPC response, an RPC error
    and a reply without a result, whatever its error holds, are protocol
    errors at once. A reply is parsed whole, trace replies included, so a
    trace is walked as a document. A null result is a gap. The url must be
    printable ASCII, http or https, with a host whose DNS labels are 1 to
    63 characters and without user credentials, and retries at least 1, or
    the explorer is a usage error and opens no connection.
    """

    def __init__(self, url: str, retries: int = 3, timeout: float = 10.0):
        try:
            parts = urlsplit(url)
            parts.port  # raises ValueError for a port that is not a number
            (parts.hostname or "").encode("idna")  # UnicodeError: empty or overlong DNS label
        except ValueError:
            parts = None
        if (
            parts is None
            or not _URL_TEXT.fullmatch(url)
            or parts.scheme not in ("http", "https")
            or not parts.hostname
            or parts.username is not None  # urllib would take it for the host
        ):
            raise UsageError(
                f"rpc url must be http:// or https:// with a host and no user, got {url!r:.80}"
            )
        if retries < 1:
            raise UsageError(f"rpc retries is the number of tries, at least 1, got {retries}")
        self.url = url
        self.retries = retries
        self.timeout = timeout
        self._id = 0

    def _rpc(self, method: str, params: list):
        from http.client import HTTPException
        from urllib.error import HTTPError

        self._id += 1
        payload = {"jsonrpc": "2.0", "id": self._id, "method": method, "params": params}
        body = json.dumps(payload).encode()
        for attempt in range(1, self.retries + 1):
            try:
                data = http_post(self.url, body, self.timeout)
                break
            except HTTPError as err:
                last = f"HTTP {err.code} {err.reason}"
                if err.code not in _RETRY_STATUSES:
                    raise ProtocolError(f"{method}: bad rpc reply: {last}") from None
                asked = _retry_after(err.headers.get("Retry-After"))
            except OSError as err:  # URLError, TimeoutError, ConnectionError
                last, asked = err, None
            except HTTPException as err:  # IncompleteRead, a bad status line
                raise ProtocolError(f"{method}: bad rpc reply: {err!r}") from None
            except ProtocolError as err:  # a reply over the cap
                raise ProtocolError(f"{method}: bad rpc reply: {err}") from None
            if attempt < self.retries:
                backoff = BACKOFF_BASE_S * 2 ** (attempt - 1)
                sleep(min(BACKOFF_CAP_S, backoff if asked is None else asked))
        else:
            raise ArchiveGapError(
                f"{method}: endpoint unreachable after {self.retries} tries: {last}"
            )
        try:
            reply = json.loads(data)
        except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, too deep
            raise ProtocolError(f"{method}: bad rpc reply: {err}") from None
        if not isinstance(reply, dict) or ("result" not in reply and "error" not in reply):
            raise ProtocolError(f"{method}: reply is not a jsonrpc response")
        error = reply.get("error")
        if error or "result" not in reply:
            raise ProtocolError(f"{method}: rpc error {error!r:.80}")
        return reply["result"]

    def height(self) -> int:
        return _as_int(self._rpc("eth_blockNumber", []), "blockNumber")

    def collect_block_details(self, number: int) -> dict:
        result = self._rpc("eth_getBlockByNumber", [hex(number), True])
        if result is None:
            raise ArchiveGapError(f"no block {number} at {self.url}")
        if not isinstance(result, dict):
            raise ProtocolError("block reply is not an object")
        doc = dict(result, number=_as_int(result.get("number"), "block number"))
        if isinstance(doc.get("transactions"), list):
            doc["transactions"] = [_archive_tx(tx) for tx in doc["transactions"]]
        block = block_envelope(doc, "eth_getBlockByNumber")
        if block["number"] != number:
            raise ProtocolError(
                f"eth_getBlockByNumber: asked for block {number}, got {block['number']}"
            )
        return {"block": block}

    def tx_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict:
        params: list = [hash_hex(tx_hash)]
        spec = canonical_tracer(tracer_spec)
        if spec is not None:
            params.append({"tracer": "pcFilter", "tracerConfig": spec})
        result = self._rpc("debug_traceTransaction", params)
        if result is None:
            raise ArchiveGapError(f"no trace for {hash_hex(tx_hash)} at {self.url}")
        if not isinstance(result, dict):
            raise ProtocolError("trace reply is not an object")
        return result

    def get_storage(self, addr: int, key: int, number: int) -> int:
        result = self._rpc(
            "eth_getStorageAt", [address_hex(addr), word_hex(key), hex(number)]
        )
        return _as_int(result, "storage value")

    def get_balance(self, addr: int, number: int) -> int:
        result = self._rpc("eth_getBalance", [address_hex(addr), hex(number)])
        return _as_int(result, "balance")


# -- read-through cache --------------------------------------------------------


# A cache entry is the compact sorted-key JSON of {"key", "payload", "sha256"}:
# `{"key":<key>,"payload":` + payload bytes + `,"sha256":"<64 hex>"}`.
_TAIL_HEAD = b',"sha256":"'
_TAIL_SIZE = len(_TAIL_HEAD) + 64 + 2


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _write_entry(path: Path, prefix: bytes, pieces: Iterable[str]) -> int:
    """Write the entry whose payload text is the concatenation of pieces,
    a piece at a time; the offset at which the payload ends."""
    hasher = new_digest()
    with open(path, "wb") as out:
        out.write(prefix)
        for piece in pieces:
            data = piece.encode()
            hasher.update(data)
            out.write(data)
        stop = out.tell()
        out.write(_TAIL_HEAD + hasher.hexdigest().encode() + b'"}')
    return stop


def _canonical_pieces(members: dict, chunks: Iterator[list]) -> Iterator[str]:
    """The compact sorted-key JSON of a streamed trace text
    (traces.stream_blocks), in pieces of a chunk each; Unstreamable,
    raised by the chunks, when the text turns out not to stream."""
    low = _compact({k: v for k, v in members.items() if k < "structLogs"})[:-1]
    high = _compact({k: v for k, v in members.items() if k > "structLogs"})[1:]
    yield low + ("," if len(low) > 1 else "") + '"structLogs":['
    comma = ""
    for entries in chunks:
        if entries:
            yield comma + _compact(entries)[1:-1]
            comma = ","
    yield "]" + ("," if len(high) > 1 else "") + high


def _entry_body(data: bytes, prefix: bytes) -> memoryview:
    """The payload bytes of entry bytes data, written by _write_entry with
    this key prefix; ValueError for any other bytes."""
    tail = data[-_TAIL_SIZE:]
    if (
        len(data) < len(prefix) + _TAIL_SIZE
        or not data.startswith(prefix)
        or tail[: len(_TAIL_HEAD)] != _TAIL_HEAD
        or tail[-2:] != b'"}'
    ):
        raise ValueError("not a cache entry for this key")
    body = memoryview(data)[len(prefix) : -_TAIL_SIZE]
    if digest(body).hex().encode() != tail[len(_TAIL_HEAD) : -2]:
        raise ValueError("payload digest mismatch")
    return body


def _unreadable_entry(path: Path, err: OSError) -> UsageError:
    return UsageError(f"cache entry {path} unreadable: {err}")


@contextmanager
def _entry_faults(path: Path):
    """An OSError reading the cache entry at path is a UsageError."""
    try:
        yield
    except OSError as err:
        raise _unreadable_entry(path, err) from None


def _stored_payload(path: Path, prefix: bytes, spans: bool):
    """The payload of the entry at path, written by _write_entry with this
    key prefix: parsed, or when spans is set its TextSpan, open (the
    caller closes it): over the entry bytes read and checked in memory,
    or, for a payload longer than TEXT_CHUNK bytes, over the file, after a
    pass that hashes it a block at a time. ValueError (or RecursionError,
    for a payload nested too deep to parse) for any other bytes,
    FileNotFoundError if absent."""
    head = len(prefix) + TEXT_CHUNK + _TAIL_SIZE  # the longest trace entry read whole
    faults = partial(_entry_faults, path)
    handle = open(path, "rb")
    try:
        data = handle.read(head + 1 if spans else -1)
        if spans and len(data) > head:
            if not data.startswith(prefix):
                raise ValueError("not a cache entry for this key")
            stop = os.fstat(handle.fileno()).st_size - _TAIL_SIZE
            span = TextSpan(handle, len(prefix), stop, faults)
            hasher = new_digest()
            for block in span.blocks():
                hasher.update(block)
            if handle.read() != _TAIL_HEAD + hasher.hexdigest().encode() + b'"}':
                raise ValueError("payload digest mismatch")
            return span
    except BaseException:
        handle.close()
        raise
    handle.close()
    body = _entry_body(data, prefix)
    if spans:
        return TextSpan(io.BytesIO(data), len(prefix), len(prefix) + len(body), faults)
    text = str(body, "utf-8")
    # the file bytes go before the parse, so a hit holds one copy of the
    # payload text at a time, like a local read
    del data, body
    return json.loads(text)


class CachedExplorer:
    """Persistent read-through cache over any explorer.

    One file per distinct query, with the exact bytes

        {"key":<key as a JSON string>,"payload":<compact payload>,"sha256":"<hex>"}

    where the digest is taken over the payload bytes as stored. A hit reads
    the file once, checks the key prefix and the digest against those bytes
    and parses the payload once; a file in any other layout, or with a
    mismatch, is dropped and the query goes inner again. Replayed answers
    skip the inner backend entirely (and any re-validation the backend would
    do). Entries are written to a temporary file and renamed into place, so
    runs sharing a directory never read a torn entry. height() is never
    cached: it is the one answer that legitimately changes between runs.

    Traces stream. A trace hit is answered as the TextSpan of its payload,
    not decoded: one of at most TEXT_CHUNK bytes over the entry bytes the
    hit read and checked, a longer one on the file, after a pass that
    hashes it a block at a time; the walk then reads the span again, on
    the same descriptor, so an entry unlinked or replaced after the check
    is still the entry that was checked. A payload that then does not
    decode is dropped and fetched again through refetch_trace, and counts
    as dropped, not as a hit. A miss is written by one writer through
    traces.read_trace, which answers what it read: a document answer, or a
    span it decodes whole, as the compact sorted-key JSON of the document,
    and answers that document; a longer TextSpan answer (LocalExplorer's
    long trace) in a streamed pass of its own: chunk by chunk, each
    chunk's entries serialised compact with sorted keys, written and
    hashed piece by piece, never joined into one string, and answers the
    span of the entry it wrote, opened before the rename. A span the
    stream does not read is parsed whole and written as its document
    would be; one that is not JSON is its reader's ProtocolError, and
    like one that cannot be read it counts as no fetch. The entry bytes
    are those of a document answer in every case (docs/formats.md), so
    the walk gives the same result over any answer, and no second copy
    is made.

    fetches maps each cache key to the number of inner calls made for it;
    by_kind counts hits, drops and inner calls per query kind, and hits and
    dropped are their totals.
    """

    def __init__(self, inner, directory: str | Path):
        self.inner = inner
        self.base = Path(directory)
        try:
            self.base.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            where, reason = quoted_fault(f"cache directory {self.base}", err)
            raise UsageError(f"{where} unusable: {reason}") from None
        self.fetches: dict[str, int] = {}
        self.by_kind: dict[str, dict[str, int]] = {}

    @property
    def hits(self) -> int:
        return sum(counts["hits"] for counts in self.by_kind.values())

    @property
    def dropped(self) -> int:
        return sum(counts["dropped"] for counts in self.by_kind.values())

    def height(self) -> int:
        return self.inner.height()

    def _lookup(self, kind: str, key_parts: list, fetch, undecodable: bool = False):
        """The stored payload of the query (_stored_payload, which answers a
        trace payload as its span), or what the writer of fetch()'s answer
        read (CachedExplorer). undecodable: the stored payload was answered
        as a hit but does not decode; drop it and fetch."""
        key = _compact([kind, *key_parts])
        path = self.base / f"{digest(key.encode()).hex()}.json"
        prefix = b'{"key":' + json.dumps(key).encode() + b',"payload":'
        counts = self.by_kind.setdefault(kind, {"hits": 0, "dropped": 0, "innerCalls": 0})
        try:
            if undecodable:
                counts["hits"] -= 1
                raise ValueError("payload does not decode")
            payload = _stored_payload(path, prefix, kind == "trace")
        except FileNotFoundError:
            pass
        except (ValueError, RecursionError):
            counts["dropped"] += 1
            path.unlink(missing_ok=True)
        except OSError as err:
            raise _unreadable_entry(path, err) from None
        else:
            counts["hits"] += 1
            return payload
        payload = fetch()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        write = partial(_write_entry, tmp, prefix)

        def written(doc):
            write((_compact(doc),))
            return doc

        def streamed(members: dict, chunks: Iterator[list]) -> TextSpan:
            stop = write(_canonical_pieces(members, chunks))
            # opened before the rename, so the span reads the entry written
            return TextSpan(open(tmp, "rb"), len(prefix), stop, partial(_entry_faults, path))

        answer = None
        try:
            answer = read_trace(payload, written, streamed)
            os.replace(tmp, path)
        except BaseException as err:
            tmp.unlink(missing_ok=True)
            if isinstance(answer, TextSpan):
                answer.close()
            # a span answer that cannot be read or is not JSON (its reader's
            # error) is a failed inner call, as the inner's own read and
            # parse of a short text were, and so is a document nested too
            # deep to write: it counts as no fetch
            if not isinstance(err, (RecursionError, SleuthError)):
                self._count_fetch(key, counts)
            if isinstance(err, OSError):
                raise UsageError(f"cache entry {path} not written: {err}") from None
            raise
        self._count_fetch(key, counts)
        return answer

    def _count_fetch(self, key: str, counts: dict):
        self.fetches[key] = self.fetches.get(key, 0) + 1
        counts["innerCalls"] += 1

    def collect_block_details(self, number: int) -> dict:
        return self._lookup(
            "block", [number], lambda: self.inner.collect_block_details(number)
        )

    def tx_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict | TextSpan:
        return self._trace(tx_hash, tracer_spec, False)

    def refetch_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict | TextSpan:
        """tx_trace again, after the walk found that the payload of its hit
        does not decode: the entry is dropped, fetched and written again."""
        return self._trace(tx_hash, tracer_spec, True)

    def _trace(self, tx_hash: bytes, tracer_spec: dict | None, undecodable: bool):
        try:
            return self._lookup(
                "trace",
                [hash_hex(tx_hash), canonical_tracer(tracer_spec)],
                lambda: self.inner.tx_trace(tx_hash, tracer_spec),
                undecodable,
            )
        except RecursionError as err:  # json.dumps refused a document nested too deep
            raise ProtocolError(f"{_trace_what(tx_hash)} unreadable: {err}") from None

    def get_storage(self, addr: int, key: int, number: int) -> int:
        return self._lookup(
            "storage",
            [address_hex(addr), word_hex(key), number],
            lambda: self.inner.get_storage(addr, key, number),
        )

    def get_balance(self, addr: int, number: int) -> int:
        return self._lookup(
            "balance",
            [address_hex(addr), number],
            lambda: self.inner.get_balance(addr, number),
        )
