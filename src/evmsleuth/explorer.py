"""Data access: local archive directories, JSON-RPC nodes, and a cache.

All backends answer the same five questions:

  collect_block_details(n)   {"block": envelope}: block n's envelope alone
  block_transactions(n)      block n's transactions, checked, in block order
  tx_trace(hash, tracer)     full or pc-filtered trace: its document, or a span
  get_storage(addr, key, n)  storage word as of block n's post-state
  get_balance(addr, n)       balance as of block n's post-state

Post-state semantics throughout: the pre-state of block n is a query
against n - 1.

A block envelope is number, hash, parentHash, stateRoot and transactions,
shaped as in chain.json (docs/formats.md); receipts are left out.
block_envelope() is the one check of a block object, and it reads each
transaction once, into a chain.Transaction (tx_from_document). Every
backend answers a block through one _block(n), the checked envelope:
LocalExplorer from memory, RpcExplorer from one eth_getBlockByNumber reply
(hex number and nonce to ints, gas to gasLimit, extra fields dropped),
CachedExplorer from its entry or from the inner document it writes. The
two block questions are written once over it, collect_block_details (the
envelope document, envelope_document) and block_transactions (the
envelope's Transaction values), and assigned into each backend class.

A point query answers a checked word on every backend: a JSON-RPC quantity
or snapshot balance is 0x + 1 to 64 hex digits, a snapshot storage value
64 hex digits, and anything else is a ProtocolError.

Every file a run names is read whole by read_bytes, but a trace file:
the archive's files here, and the feed and the vulnerability description
the command line or a fixture names. read_text reads the bytes' text as a
file opened in text mode does (traces.text_of), read_json decodes that
text, and a trace file is answered as its TextSpan, open, with
read_json's faults (see Trace answers). A file that is not there is the caller's `missing` error, "no
WHAT"; any other fault, a text that is not JSON included, its
`unreadable` error, "WHAT unreadable: ERR". A name the system refuses as
too long (ENAMETOOLONG) is quoted cut to 80 characters, any other whole
(quoted_fault). The cache reads and writes its own entries.

LocalExplorer reads a fixture/archive directory. chain.json is parsed and
checked once at construction (it is the index); state snapshots are re-read
from disk on every storage/balance query, and only the account and field a
query reads are checked. That per-query read is deliberate: it models an
archive node that charges per point query, it is what the cache exists to
absorb, and it is what makes analysis cost grow with state size when no
cache is in front. A LocalArchive is a directory whose chain.json is read
and not yet parsed: a cache in front of it opens its LocalExplorer only
when it must.

Trace answers: a trace crosses this boundary in one of two forms, a
parsed document or a traces.TextSpan, never as a str. Every trace text
read from a file is answered as its TextSpan: the whole trace file
(LocalExplorer opens it, and reads nothing), or the payload
of a cache entry, as the hit checked it (_stored_payload).
traces.read_trace alone decodes a span, whole when it has at most
TEXT_CHUNK bytes and a block at a time when longer (the traces module
docstring has the rules), and closes it. So a trace file that is not JSON,
or not UTF-8, is found by whoever reads its span, the walk
(filters.ReadState.walk), the customTracer filter or a cache miss, as the
same ProtocolError naming the trace, "trace for 0x... unreadable: ERR". A
pc-filtered trace is the filter's document, built as a span's entries
stream past, so only the kept entries are ever held.
RpcExplorer answers with the parsed reply, walked as a document.

RpcExplorer speaks JSON-RPC 2.0 over the standard library's HTTP client,
through the one function http_post; the package has no runtime dependency.
Busy replies (HTTP 429, 502, 503, 504) and connection failures are retried
within one bound on the number of tries, with capped backoff that honours
Retry-After. The transport modules are imported on the first request, so a
run over a local archive never loads them.

CachedExplorer is a read-through wrapper over any backend, one file per
query with a content digest, written atomically. In front of a local
archive its directory is anchored to the sha256 of the chain.json bytes
that filled it: a directory anchored to other bytes is refused, and one
anchored to these answers its hits without opening the archive, which
opens on the first miss. Every answer is checked where it is read, in one
place (CachedExplorer._lookup): a hit's bytes by _checked_entry, then a
block or point payload, decoded from the bytes that check read, by its
kind's read; a hit that fails either is dropped and fetched once. A trace
hit is answered as its span, which the walk checks; the span's `again`
asks the query once more, and the walk takes that second chance. A miss's
answer is checked by the same read before its entry is renamed into
place, so the inner backend's fault writes nothing. Per-key fetch
counters and per-kind hit/drop counters make cache behavior checkable
rather than assumed.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import threading
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path
from time import sleep
from typing import BinaryIO, Callable, ContextManager, Iterable, Iterator
from urllib.parse import urlsplit

from .chain import Transaction, tx_from_document, tx_to_document
from .errors import ArchiveGapError, ProtocolError, SleuthError, UsageError
from .hashing import digest, new_digest
from .traces import (
    CALL_OPS,
    TEXT_CHUNK,
    TextSpan,
    read_trace,
    text_of,
)
from .words import WORD_MASK, address_hex, hash_hex, storage_hex, word_hex


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

    def streamed(members: dict, chunks: Iterator[list]) -> dict:
        kept = [step for chunk in chunks for step in chunk if keeps(step)]
        return {**members, "structLogs": kept}  # members now holds those after the array too

    return read_trace(trace, lambda doc: apply_tracer(doc, tracer_spec), streamed)


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


class _read_faults:
    """The faults of reading the file that `what` names, as the reader's
    errors: missing("no WHAT") if there is no such file, unreadable("WHAT
    unreadable: ERR") if it cannot be read, is not UTF-8 or, when the body
    decodes it, is not JSON."""

    def __init__(self, what: str, missing, unreadable):
        self.what, self.missing, self.unreadable = what, missing, unreadable

    def __enter__(self):
        pass

    def __exit__(self, _kind, err, _traceback):
        if isinstance(err, FileNotFoundError):
            raise self.missing(f"no {self.what}") from None
        # ValueError: bad UTF-8, or bad JSON; RecursionError: JSON nested too deep
        if isinstance(err, (OSError, ValueError, RecursionError)):
            what, reason = quoted_fault(self.what, err)
            raise self.unreadable(f"{what} unreadable: {reason}") from None


def read_bytes(
    path: str | Path, what: str, missing=ArchiveGapError, unreadable=ProtocolError
) -> bytes:
    """The bytes of the file at path, which `what` names: missing("no
    WHAT") if there is no such file, unreadable("WHAT unreadable: ERR") if
    it cannot be read."""
    with _read_faults(what, missing, unreadable), open(path, "rb") as handle:
        return handle.read()


def read_text(
    path: str | Path, what: str, missing=ArchiveGapError, unreadable=ProtocolError
) -> str:
    """The text of the file at path, which `what` names, as a file opened in
    text mode reads it (traces.text_of): as read_bytes, and unreadable("WHAT
    unreadable: ERR") if it is not UTF-8."""
    with _read_faults(what, missing, unreadable):
        return text_of(read_bytes(path, what, missing, unreadable))


def read_json(path: str | Path, what: str, missing=ArchiveGapError, unreadable=ProtocolError):
    """The JSON document at path: as read_text, and unreadable("WHAT
    unreadable: ERR") if the text is not JSON."""
    text = read_text(path, what, missing, unreadable)
    with _read_faults(what, missing, unreadable):
        return json.loads(text)


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


def block_envelope(doc, where: str, read_tx: Callable[[object], Transaction]) -> dict:
    """The envelope of block object doc: its number, hash, parentHash and
    stateRoot in the chain.json shape, and its transactions as a tuple of
    the Transaction values read_tx reads. ProtocolError names the first
    field that is missing or malformed, a transaction's prefixed with its
    block."""
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
        txs = tuple(map(read_tx, txs))
    except ProtocolError as err:
        raise ProtocolError(f"{where} block {number}: {err}") from None
    return {
        "number": number,
        "hash": doc["hash"],
        "parentHash": doc["parentHash"],
        "stateRoot": doc["stateRoot"],
        "transactions": txs,
    }


def envelope_document(block: dict) -> dict:
    """The chain.json shape of an envelope from block_envelope: its
    transactions written back with tx_to_document."""
    return dict(block, transactions=[tx_to_document(tx) for tx in block["transactions"]])


# The two block questions, over a backend's _block(n), its checked envelope
# of block n. Each backend class assigns them as its own, so each class
# holds them in its __dict__.


def collect_block_details(self, number: int) -> dict:
    """{"block": envelope}: the document of block number's envelope."""
    return {"block": envelope_document(self._block(number))}


def block_transactions(self, number: int) -> tuple[Transaction, ...]:
    """Block number's transactions, as its envelope holds them."""
    return self._block(number)["transactions"]


class LocalExplorer:
    def __init__(self, directory: str | Path, chain: bytes | None = None):
        """The archive at directory, whose chain.json is parsed and checked
        here: the file's bytes, or chain, those bytes already read
        (LocalArchive)."""
        self.base = Path(directory)
        what = f"chain.json under {self.base}"
        chain = read_bytes(self.base / "chain.json", what) if chain is None else chain
        with _read_faults(what, ArchiveGapError, ProtocolError):
            chain = json.loads(text_of(chain))
        blocks = chain.get("blocks") if isinstance(chain, dict) else None
        if not isinstance(blocks, list):
            raise ProtocolError("chain.json has no blocks list")
        self._by_number: dict[int, dict] = {}
        for doc in blocks:
            block = block_envelope(doc, "chain.json", tx_from_document)
            if block["number"] in self._by_number:
                raise ProtocolError(f"chain.json lists block {block['number']} twice")
            self._by_number[block["number"]] = block
        if not self._by_number:
            raise ArchiveGapError("chain.json lists no blocks")
        self._tip = max(self._by_number)

    def _block(self, number: int) -> dict:
        block = self._by_number.get(number)
        if block is None:
            raise ArchiveGapError(f"no block {number} in archive (tip {self._tip})")
        return block

    collect_block_details = collect_block_details
    block_transactions = block_transactions

    def tx_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict | TextSpan:
        """The TextSpan of the whole trace file, open, whose faults are
        read_json's, or with a tracer spec the filtered document
        (filter_trace). A file that cannot seek (a pipe) reads as empty."""
        what = f"trace for {hash_hex(tx_hash)}"
        faults = partial(_read_faults, what, ArchiveGapError, ProtocolError)
        with faults():
            handle = open(self.base / "traces" / f"{tx_hash.hex()}.json", "rb")
        trace = TextSpan(handle, 0, os.fstat(handle.fileno()).st_size, faults)
        return trace if tracer_spec is None else filter_trace(trace, tracer_spec)

    def _state_doc(self, number: int) -> dict:
        root = self._block(number)["stateRoot"]
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


class LocalArchive:
    """An archive directory that LocalExplorer has not opened yet: the bytes
    of its chain.json, read with LocalExplorer's faults. open() parses and
    checks those bytes; a cache anchors its directory to their sha256
    (CachedExplorer), so a warm cache need not open the archive at all."""

    def __init__(self, directory: str | Path):
        self.base = directory
        what = f"chain.json under {directory}"
        self.chain = read_bytes(os.path.join(directory, "chain.json"), what)

    def open(self) -> LocalExplorer:
        return LocalExplorer(self.base, self.chain)


# -- JSON-RPC backend ----------------------------------------------------------


def _rpc_tx(tx) -> Transaction:
    """The transaction a JSON-RPC transaction object describes: its nonce
    and gas quantities read as the archive's nonce and gasLimit, then
    tx_from_document."""
    if isinstance(tx, dict):
        nonce = _as_int(tx.get("nonce"), "transaction nonce")
        tx = dict(tx, nonce=nonce, gasLimit=_as_int(tx.get("gas"), "transaction gas"))
    return tx_from_document(tx)


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

    Method surface: eth_getBlockByNumber, debug_traceTransaction,
    eth_getStorageAt, eth_getBalance. Each request is
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

    def _block(self, number: int) -> dict:
        """Block number's envelope, from one eth_getBlockByNumber reply."""
        result = self._rpc("eth_getBlockByNumber", [hex(number), True])
        if result is None:
            raise ArchiveGapError(f"no block {number} at {self.url}")
        if not isinstance(result, dict):
            raise ProtocolError("block reply is not an object")
        doc = dict(result, number=_as_int(result.get("number"), "block number"))
        block = block_envelope(doc, "eth_getBlockByNumber", _rpc_tx)
        if block["number"] != number:
            raise ProtocolError(
                f"eth_getBlockByNumber: asked for block {number}, got {block['number']}"
            )
        return block

    collect_block_details = collect_block_details
    block_transactions = block_transactions

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

# The file that anchors a cache directory to the local archive that filled
# it, and its bytes: `{"chainSha256":"<64 hex>"}`, the sha256 of the bytes
# of that archive's chain.json.
ANCHOR = "anchor.json"
_ANCHOR_TEXT = re.compile(rb'\{"chainSha256":"([0-9a-f]{64})"\}')


def _read_anchor(path: str) -> bytes | None:
    """The bytes of the anchor at path; None if there is none, or no
    directory it could be in (the mkdir that follows says why)."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        if err.errno in (errno.ENOENT, errno.ENOTDIR, errno.ENAMETOOLONG):
            return None
        raise UsageError(f"cache anchor {path} unreadable: {err}") from None


def _anchored_to(stored: bytes) -> str:
    """The digest an anchor's bytes name, or those bytes quoted if they are
    no anchor."""
    match = _ANCHOR_TEXT.fullmatch(stored)
    return f"chain.json sha256 {match[1].decode()}" if match else f"{stored!r:.80}"


# json.dumps(value, separators=(",", ":"), sort_keys=True) and json.dumps(key)
# of a str key, from encoders built once
_key_text = json.encoder.encode_basestring_ascii
if json.encoder.c_make_encoder is None:
    _compact = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
else:
    # no markers dict, which JSONEncoder builds anew for each call: one kept
    # from a failed encode would raise a false "Circular reference" after
    _compact_chunks = json.encoder.c_make_encoder(
        None, None, _key_text, None, ":", ",", True, False, True
    )

    def _compact(value) -> str:
        return "".join(_compact_chunks(value, 0))


def _temp_path(path: str) -> str:
    """The name beside path that this process and thread write it under
    before renaming it into place."""
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")


def _unlink(path: str):
    with suppress(FileNotFoundError):
        os.unlink(path)


def _write_entry(path: str, prefix: bytes, pieces: Iterable[str]) -> int:
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
    raised by the chunks, when the text turns out not to stream. The
    members that sort after structLogs are read once the chunks are
    consumed, as some of them may follow the array in the text."""
    low = _compact({k: v for k, v in members.items() if k < "structLogs"})[:-1]
    yield low + ("," if len(low) > 1 else "") + '"structLogs":['
    comma = ""
    for entries in chunks:
        if entries:
            yield comma + _compact(entries)[1:-1]
            comma = ","
    high = _compact({k: v for k, v in members.items() if k > "structLogs"})[1:]
    yield "]" + ("," if len(high) > 1 else "") + high


def _unreadable_entry(path: str, err: OSError) -> UsageError:
    return UsageError(f"cache entry {path} unreadable: {err}")


@contextmanager
def _entry_faults(path: str):
    """An OSError reading the cache entry at path is a UsageError."""
    try:
        yield
    except OSError as err:
        raise _unreadable_entry(path, err) from None


def _checked_entry(path: str, prefix: bytes) -> tuple[bytes, BinaryIO | None, int]:
    """(data, handle, stop) of the entry at path, written by _write_entry
    with this key prefix, once the prefix and, against the payload's digest,
    the tail are checked; its payload is bytes len(prefix) to stop. An entry
    of at most len(prefix) + TEXT_CHUNK + _TAIL_SIZE bytes is checked in the
    bytes of its one read, data, and handle is None; a longer one in one
    pass on the file, a block at a time, and handle is the file, open (the
    caller closes it). ValueError for any other bytes, FileNotFoundError if
    absent."""
    start = len(prefix)
    head = start + TEXT_CHUNK + _TAIL_SIZE  # the longest entry read whole
    fd = os.open(path, os.O_RDONLY)
    handle = None  # a long entry's file, which then holds fd; else fd is closed here
    try:
        data = os.read(fd, head + 1)  # one read(2) takes a short entry whole
        if not data.startswith(prefix):
            raise ValueError("not a cache entry for this key")
        if len(data) <= head:
            stop = max(start, len(data) - _TAIL_SIZE)  # shorter than both: a short tail
            sha256 = digest(memoryview(data)[start:stop]).hex().encode()
            tail = data[stop:]
        else:
            handle = open(fd, "rb", buffering=0)
            stop = handle.seek(0, io.SEEK_END) - _TAIL_SIZE
            hasher = new_digest()
            for block in TextSpan(handle, start, stop, partial(_entry_faults, path)).blocks():
                hasher.update(block)
            sha256 = hasher.hexdigest().encode()
            tail = handle.read()
        if tail != b'%b%b"}' % (_TAIL_HEAD, sha256):
            raise ValueError("payload digest mismatch")
        return data, handle, stop
    except BaseException:
        if handle is not None:
            handle.close()
        raise
    finally:
        if handle is None:
            os.close(fd)


def _stored_payload(path: str, prefix: bytes) -> TextSpan:
    """The TextSpan of the payload of the entry at path, open (the caller
    closes it), once _checked_entry passed it: over the bytes of its one
    read if it is short, else on the file it was checked on."""
    data, handle, stop = _checked_entry(path, prefix)
    if handle is None:
        handle = io.BytesIO(data)
    return TextSpan(handle, len(prefix), stop, partial(_entry_faults, path))


def _stored_text(path: str, prefix: bytes) -> str:
    """The text of the payload of the entry at path once _checked_entry
    passed it: a short one decoded from the bytes of its one read, as they
    are, a longer one read again from the file it was checked on, as a file
    opened in text mode reads it. Either parses as the other would: "\\r",
    which only the second reads as "\\n", is whitespace outside a JSON
    string and refused inside one."""
    data, handle, stop = _checked_entry(path, prefix)
    if handle is None:
        return str(memoryview(data)[len(prefix):stop], "utf-8")
    with TextSpan(handle, len(prefix), stop, None) as span:
        return span.text()


def _block_entry(answer) -> dict:
    """The envelope of a block payload, {"block": envelope}, read and
    checked by block_envelope."""
    block = answer.get("block") if isinstance(answer, dict) else None
    return block_envelope(block, "cache", tx_from_document)


def _checked_word(answer) -> int:
    """answer, if it is a word: an int, not a bool, in [0, WORD_MASK]."""
    if type(answer) is not int or not 0 <= answer <= WORD_MASK:
        raise ProtocolError(f"cache answer is not a word: {answer!r:.80}")
    return answer


class CachedExplorer:
    """Persistent read-through cache over any explorer.

    One file per distinct query, with the exact bytes

        {"key":<key as a JSON string>,"payload":<compact payload>,"sha256":"<hex>"}

    where the digest is taken over the payload bytes as stored. Every
    query is answered by _lookup, and every answer is checked there, once,
    by the same steps for a hit and a miss.

    The anchor. A cache in front of a local archive is given the archive
    unopened, as a LocalArchive, and the directory holds one more file,
    ANCHOR, naming the sha256 of the chain.json bytes that filled it. On
    open the cache hashes those bytes. If the anchor names them, the
    LocalExplorer is opened on the first miss only, from the bytes that
    were hashed, so a warm run never parses the archive. If the directory
    has no anchor (a new one, or one filled before anchors), the archive is
    opened at once, with every check of chain.json, and then the anchor is
    written, by temporary file and rename, as entries are. If it names
    other bytes, the archive is opened at once too, so a damaged one is its
    own fault (exit 3), and one that opens is a UsageError naming both
    digests: the directory answers for another archive. Any other inner
    backend (RpcExplorer, or an explorer already open) names no digest: a
    directory without an anchor serves it as it always did, and an anchored
    one is a UsageError. The directory is made only after these checks, so
    a refused archive leaves none behind, and only when it held no anchor.

    A hit of any kind is checked in one pass (_checked_entry): the key
    prefix, then the digest of the payload against the tail; an entry whose
    payload has at most TEXT_CHUNK bytes in the bytes of its one read, a
    longer one on the file, a block at a time. A block or point payload is
    then decoded, a short one from the bytes the check read (_stored_text),
    parsed and read by its kind's read: block_envelope for a block (_block,
    under both block questions), the word check for a point query (an int,
    not a bool, in [0, WORD_MASK]). A hit that fails the pass, does not
    parse or fails the read is a bad entry: it counts as dropped, not as a
    hit, is unlinked, and the query goes inner again. Replayed answers skip
    the inner backend entirely. Entries are written to a temporary file and
    renamed into place, so runs sharing a directory never read a torn
    entry.

    Traces stream. A trace hit is answered as the TextSpan of its payload,
    not decoded: one of at most TEXT_CHUNK bytes over the entry bytes the
    hit read and checked, a longer one on the file; the walk then reads the
    span again, on the same descriptor, so an entry unlinked or replaced
    after the check is still the entry that was checked. The walk is the
    trace's check, and it runs after the answer, so the hit's span carries
    its second chance: its `again` drops the entry (dropped, not a hit) and
    asks the query once more. A payload that does not decode, or that the
    walk refuses, is fetched again that way, and the fault of the walk over
    the fetched answer stands.

    A miss is written by one writer through traces.read_trace, which answers
    what it read: a document answer, or a span it decodes whole, as the
    compact sorted-key JSON of the document, and answers that document; a
    longer TextSpan answer (LocalExplorer's long trace) in a streamed pass
    of its own: chunk by chunk, each chunk's entries serialised compact with
    sorted keys, written and hashed piece by piece, never joined into one
    string, and answers the span of the entry it wrote, opened before the
    rename. A span the stream does not read is parsed whole and written as
    its document would be; one that is not JSON is its reader's
    ProtocolError, and like one that cannot be read it counts as no fetch.
    The kind's read runs on the answer before the entry is renamed into
    place: an answer it refuses is the inner backend's fault, a
    ProtocolError that counts one inner call, drops nothing and leaves no
    entry. The entry bytes are those of a document answer in every case
    (docs/formats.md), so the walk gives the same result over any answer,
    and no second copy is made.

    fetches maps each cache key to the number of inner calls made for it;
    by_kind counts hits, drops and inner calls per query kind, and hits and
    dropped are their totals.
    """

    def __init__(self, inner, directory: str | Path):
        self.base = directory
        # str(Path(directory) / name) for any name, joined without a Path: ""
        # for the working directory, which Path leaves out
        self._head = str(Path(directory) / "_")[:-1]
        self._inner, self._archive = inner, None
        anchor = None  # the anchor the directory holds, if the inner names its bytes
        if isinstance(inner, LocalArchive):
            anchor = b'{"chainSha256":"%s"}' % digest(inner.chain).hex().encode()
        stored = _read_anchor(self._head + ANCHOR)
        if anchor is not None:
            # opened on the first miss, or at once: a damaged archive is its own fault
            lazy = stored == anchor
            self._inner, self._archive = (None, inner) if lazy else (inner.open(), None)
        if stored not in (None, anchor):
            named = "an explorer that names no digest" if anchor is None else _anchored_to(anchor)
            raise UsageError(
                f"cache directory {self.base} answers for {_anchored_to(stored)}, not for {named}"
            )
        if stored is None:  # else the anchor just read shows the directory is there
            try:
                Path(directory).mkdir(parents=True, exist_ok=True)
            except OSError as err:
                where, reason = quoted_fault(f"cache directory {self.base}", err)
                raise UsageError(f"{where} unusable: {reason}") from None
            if anchor is not None:  # written as entries are
                path = self._head + ANCHOR
                tmp = _temp_path(path)
                try:
                    Path(tmp).write_bytes(anchor)
                    os.replace(tmp, path)
                except OSError as err:
                    _unlink(tmp)
                    raise UsageError(f"cache anchor {path} not written: {err}") from None
        self.fetches: dict[str, int] = {}
        self.by_kind: dict[str, dict[str, int]] = {}

    @property
    def inner(self):
        """The inner backend; over an anchored LocalArchive, opened here on
        first use."""
        if self._archive is not None:
            self._inner, self._archive = self._archive.open(), None
        return self._inner

    @property
    def hits(self) -> int:
        return sum(counts["hits"] for counts in self.by_kind.values())

    @property
    def dropped(self) -> int:
        return sum(counts["dropped"] for counts in self.by_kind.values())

    def _entry(self, kind: str, key_parts: list) -> tuple[str, str, bytes, dict]:
        """(key, path, key prefix, counts of its kind) of a query's entry."""
        key = _compact([kind, *key_parts])
        path = f"{self._head}{digest(key.encode()).hex()}.json"
        prefix = b'{"key":%b,"payload":' % _key_text(key).encode()
        counts = self.by_kind.get(kind)
        if counts is None:
            counts = self.by_kind[kind] = {"hits": 0, "dropped": 0, "innerCalls": 0}
        return key, path, prefix, counts

    def _lookup(self, kind: str, key_parts: list, read: Callable | None, fetch: str, *args):
        """The query's answer. On a hit, read of its entry's payload once
        the one check passed, decoded; or for a trace (read None) the
        payload's span, with its `again`. On a miss, the inner backend's
        method named fetch answers, called with args, and the answer is
        read of what the writer of that answer read (CachedExplorer)."""
        key, path, prefix, counts = self._entry(kind, key_parts)
        try:
            if read is None:
                answer = _stored_payload(path, prefix)
            else:
                answer = read(json.loads(_stored_text(path, prefix)))
        except FileNotFoundError:
            pass
        except (ValueError, RecursionError, ProtocolError):  # layout, digest, JSON or shape
            counts["dropped"] += 1
            _unlink(path)
        except OSError as err:
            raise _unreadable_entry(path, err) from None
        else:
            counts["hits"] += 1
            if read is None:  # a trace hit, which the walk checks after the answer
                def again():
                    _unlink(path)
                    counts["hits"] -= 1
                    counts["dropped"] += 1
                    return self._lookup(kind, key_parts, read, fetch, *args)
                answer.again = again
            return answer
        payload = getattr(self.inner, fetch)(*args)
        tmp = _temp_path(path)
        write = partial(_write_entry, tmp, prefix)

        def written(doc):
            write((_compact(doc),))
            return doc

        def streamed(members: dict, chunks: Iterator[list]) -> TextSpan:
            stop = write(_canonical_pieces(members, chunks))
            # opened before the rename, so the span reads the entry written
            return TextSpan(open(tmp, "rb"), len(prefix), stop, partial(_entry_faults, path))

        answer, fetched = None, False
        try:
            answer = read_trace(payload, written, streamed)
            fetched = True
            checked = answer if read is None else read(answer)
            os.replace(tmp, path)
        except BaseException as err:
            _unlink(tmp)
            if isinstance(answer, TextSpan):
                answer.close()
            # a span answer that cannot be read or is not JSON (its reader's
            # error) is a failed inner call, as the inner's own read and
            # parse of a short text were, and so is a document nested too
            # deep to write: it counts as no fetch; an answer the read
            # refuses counts as one
            if fetched or not isinstance(err, (RecursionError, SleuthError)):
                self._count_fetch(key, counts)
            if isinstance(err, RecursionError):  # json.dumps refused a document nested too deep
                raise ProtocolError(f"{kind} for {key_parts[0]} unreadable: {err}") from None
            if isinstance(err, OSError):
                raise UsageError(f"cache entry {path} not written: {err}") from None
            raise
        self._count_fetch(key, counts)
        return checked

    def _count_fetch(self, key: str, counts: dict):
        self.fetches[key] = self.fetches.get(key, 0) + 1
        counts["innerCalls"] += 1

    def _block(self, number: int) -> dict:
        """Block number's envelope, from its entry or from the inner
        document it writes, read by block_envelope (_block_entry)."""
        return self._lookup("block", [number], _block_entry, "collect_block_details", number)

    collect_block_details = collect_block_details
    block_transactions = block_transactions

    def tx_trace(self, tx_hash: bytes, tracer_spec: dict | None = None) -> dict | TextSpan:
        key_parts = [hash_hex(tx_hash), canonical_tracer(tracer_spec)]
        return self._lookup("trace", key_parts, None, "tx_trace", tx_hash, tracer_spec)

    def get_storage(self, addr: int, key: int, number: int) -> int:
        key_parts = [address_hex(addr), word_hex(key), number]
        return self._lookup("storage", key_parts, _checked_word, "get_storage", addr, key, number)

    def get_balance(self, addr: int, number: int) -> int:
        key_parts = [address_hex(addr), number]
        return self._lookup("balance", key_parts, _checked_word, "get_balance", addr, number)
