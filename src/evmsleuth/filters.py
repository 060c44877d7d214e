"""Candidate transaction selection and the CSV feed format.

A filter turns "everything that happened in blocks lo..hi" into the short
list of transactions worth analyzing: calls into the watched contract whose
selector matches one of the watched functions. With internal discovery on,
traces of the remaining transactions are scanned for call records that hit
the contract indirectly (relays, wrappers), and each such hit is emitted as
an internal row attributed to its enclosing transaction.

A filter reads through a ReadState, the read state of one investigation,
which the investigation's level then reads through too: each block is
fetched and its transactions parsed once, and a trace internal discovery
scanned for a candidate is not fetched or walked again by the evm level
(see ReadState).

Feeds round-trip through CSV so a candidate list can be exported, edited,
or produced by some other tool and re-ingested. Column order is fixed:

  block_number,tx_hash,from,to,value,input_selector,internal,parent_tx_hash

block_number and value are decimal; hashes, addresses, and the selector are
0x-prefixed hex; internal is true/false; parent_tx_hash is required on
internal rows and must be empty on top-level rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator

from .chain import Transaction, tx_from_document
from .errors import (
    FeedError,
    ProtocolError,
    ReconstructionError,
    TraceParseError,
    UsageError,
)
from .explorer import walk_trace
from .hashing import function_selector
from .traces import CALL_OPS, ReconstructedTrace, Select, gc_paused
from .words import address_hex, hash_hex

FEED_COLUMNS = (
    "block_number",
    "tx_hash",
    "from",
    "to",
    "value",
    "input_selector",
    "internal",
    "parent_tx_hash",
)


@dataclass(frozen=True)
class FilterQuery:
    contract: int
    selectors: tuple[str, ...]  # human-readable signatures
    include_internal: bool
    block_range: tuple[int, int]

    def __post_init__(self):
        lo, hi = self.block_range
        if lo < 0 or hi < lo:
            raise UsageError(f"bad block range {lo!s:.80}..{hi!s:.80}")
        if not self.selectors:
            raise UsageError("filter needs at least one function signature")
        for sig in self.selectors:
            try:
                function_selector(sig)
            except (TypeError, ValueError):
                raise UsageError(f"not a canonical function signature: {sig!r:.80}") from None

    def selector_bytes(self) -> frozenset[bytes]:
        return frozenset(function_selector(sig) for sig in self.selectors)


@dataclass(frozen=True)
class TxRef:
    """One candidate row. Internal rows carry the enclosing transaction's
    hash (that is the object a tracer can be pointed at) plus an explicit
    parent attribution."""

    block_number: int
    tx_hash: bytes
    sender: int
    to: int
    value: int
    selector: bytes | None
    internal: bool
    parent: bytes | None


def _call_steps(pc: int, op: str, code: int) -> bool:
    return op in CALL_OPS


class ReadState:
    """The reads of one investigation, shared by its filter and its level.

    A block is fetched and its transactions parsed the first time it is
    asked for, and answered from memory after that. A fetch or parse that
    raises leaves nothing behind, so the next ask fetches again. The scan
    forgets each block that yields no candidate, since the level never asks
    for it, so a long range is not held in memory.

    gate is the step predicate of a level that reads full traces (the evm
    level in local or cached mode), None for any other level. With a gate,
    internal discovery walks each trace it scans once, selecting call steps
    or gated steps, and keeps, for each transaction that yields a candidate
    row, the trace of its gated steps alone: the trace the level's own walk
    would build. The level takes it with take_trace and neither fetches nor
    walks that trace again. Without a gate the scan selects call steps and
    keeps nothing.

    One investigation makes one ReadState and drops it at its end; nothing
    is shared between investigations.
    """

    def __init__(self, explorer, gate: Select | None = None):
        self.explorer = explorer
        self.gate = gate
        # block number -> (transactions in block order, by hash)
        self._blocks: dict[int, tuple[tuple[Transaction, ...], dict[bytes, Transaction]]] = {}
        # (tx hash, root it was walked from) -> the trace of its gated steps
        self._kept: dict[tuple[bytes, int], ReconstructedTrace] = {}

    def _block(self, number: int) -> tuple:
        entry = self._blocks.get(number)
        if entry is None:
            block = self.explorer.collect_block_details(number)["block"]
            txs = tuple(map(tx_from_document, block["transactions"]))
            entry = self._blocks[number] = (txs, {tx.hash: tx for tx in txs})
        return entry

    def transactions(self, number: int) -> tuple[Transaction, ...]:
        """Block number's transactions, in block order."""
        return self._block(number)[0]

    def transaction(self, number: int, tx_hash: bytes) -> Transaction | None:
        """The transaction of block number with this hash, None if none."""
        return self._block(number)[1].get(tx_hash)

    def forget(self, number: int):
        """Drop block number from memory."""
        self._blocks.pop(number, None)

    def scan(self, tx: Transaction) -> ReconstructedTrace:
        """tx's full trace, checked in full, with its call steps built (and
        its gated steps, given a gate). A malformed trace is a ProtocolError
        naming the transaction."""
        gate = self.gate
        select = _call_steps if gate is None else (
            lambda pc, op, code: op in CALL_OPS or gate(pc, op, code)
        )
        with gc_paused():  # the trace lives and dies in here
            trace = self.explorer.tx_trace(tx.hash)
            try:
                return walk_trace(self.explorer, trace, tx.hash, None, tx.to, select)
            except (TraceParseError, ReconstructionError) as err:
                raise ProtocolError(
                    f"internal discovery: trace for {hash_hex(tx.hash)} is malformed: {err}"
                ) from None
            finally:
                del trace

    def keep(self, tx: Transaction, rec: ReconstructedTrace):
        """Keep the gated steps of tx's scanned trace for the level."""
        gate = self.gate
        if gate is not None:
            steps = [s for s in rec.steps if gate(s.pc, s.op, s.code_address)]
            gated = ReconstructedTrace(rec.failed, rec.gas, rec.return_value, steps)
            self._kept[tx.hash, tx.to] = gated

    def take_trace(self, tx: Transaction) -> ReconstructedTrace | None:
        """The gated trace kept for tx's hash walked from tx's own root, and
        forgotten here; None if none was kept."""
        return self._kept.pop((tx.hash, tx.to), None)


def tx_list(reads: ReadState, query: FilterQuery) -> list[TxRef]:
    """Scan the block range and return candidates in chain order.

    Top-level rows come straight from block bodies. Internal rows require
    tracing every transaction in range and scanning recorded call sites,
    which is exactly as expensive as it sounds, so it is paid once per
    investigation: the scan reads each block and trace through `reads`,
    and the level takes the same blocks, and the traces kept for its
    candidates, from there instead of reading them again (see ReadState).
    Each trace is checked in full, but only its call steps, and gated
    steps when `reads` has a gate, are built. Contract-creation
    transactions (`"to": null`) are not scanned: there is no call target
    to rebuild their frames from, so calls a constructor makes into the
    contract are not found. A scanned trace that is malformed is a
    ProtocolError naming the transaction, not a skip: a candidate list
    with a hole in it would silently drop the exploits that trace holds.
    """
    selectors = query.selector_bytes()
    lo, hi = query.block_range
    rows: list[TxRef] = []
    seen: set[TxRef] = set()

    def emit(row: TxRef):
        if row not in seen:
            seen.add(row)
            rows.append(row)

    for number in range(lo, hi + 1):
        block_rows = len(rows)
        for tx in reads.transactions(number):
            before = len(rows)
            if tx.to == query.contract and tx.selector in selectors:
                emit(
                    TxRef(
                        block_number=number,
                        tx_hash=tx.hash,
                        sender=tx.sender,
                        to=tx.to,
                        value=tx.value,
                        selector=tx.selector,
                        internal=False,
                        parent=None,
                    )
                )
            if not query.include_internal or tx.to is None:
                continue
            rec = reads.scan(tx)
            for step in rec.steps:
                site = step.call
                if site is None or site.input is None:
                    continue
                if site.to != query.contract or site.input[:4] not in selectors:
                    continue
                emit(
                    TxRef(
                        block_number=number,
                        tx_hash=tx.hash,
                        sender=step.code_address,
                        to=query.contract,
                        value=site.value or 0,
                        selector=site.input[:4],
                        internal=True,
                        parent=tx.hash,
                    )
                )
            if len(rows) > before:
                reads.keep(tx, rec)
        if len(rows) == block_rows:
            reads.forget(number)
    return rows


# -- CSV feed ------------------------------------------------------------------


def write_csv_feed(rows: list[TxRef]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FEED_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.block_number,
                hash_hex(row.tx_hash),
                address_hex(row.sender),
                address_hex(row.to),
                row.value,
                "" if row.selector is None else "0x" + row.selector.hex(),
                "true" if row.internal else "false",
                "" if row.parent is None else hash_hex(row.parent),
            ]
        )
    return out.getvalue()


def _feed_hex(text: str, what: str, line: int, size: int) -> bytes:
    """Exactly `size` bytes written as 0x + 2*size hex digits."""
    if not (text.startswith("0x") and len(text) == 2 + 2 * size):
        raise FeedError(f"{what} must be 0x + {2 * size} hex chars, got {text!r:.80}", line)
    try:
        raw = bytes.fromhex(text[2:])
    except ValueError:
        raw = b""
    if len(raw) != size:  # fromhex also skips embedded spaces
        raise FeedError(f"{what} is not hex: {text!r:.80}", line)
    return raw


def _feed_address(text: str, what: str, line: int) -> int:
    return int.from_bytes(_feed_hex(text, what, line, 20), "big")


def _feed_int(text: str, what: str, line: int) -> int:
    if not (text.isascii() and text.isdigit()):
        raise FeedError(f"{what} must be a decimal integer, got {text!r:.80}", line)
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise FeedError(f"{what} is too long: {len(text)} digits", line) from None


def _feed_records(text: str) -> Iterator[list[str]]:
    """The CSV records of a feed; what the csv module cannot read (a field
    past its size limit, a stray carriage return, a NUL before Python 3.11)
    is a FeedError at the reader's line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as err:
        raise FeedError(f"unreadable CSV: {err}", reader.line_num) from None


def parse_csv_feed(text: str) -> list[TxRef]:
    records = _feed_records(text)
    try:
        header = next(records)
    except StopIteration:
        raise FeedError("feed is empty", 1) from None
    if tuple(header) != FEED_COLUMNS:
        raise FeedError(
            f"bad header: expected {','.join(FEED_COLUMNS)}, got {','.join(header):.80}", 1
        )
    rows = []
    for line, record in enumerate(records, start=2):
        if not record:
            continue
        if len(record) != len(FEED_COLUMNS):
            raise FeedError(
                f"expected {len(FEED_COLUMNS)} fields, got {len(record)}", line
            )
        number, txh, sender, to, value, selector, internal, parent = record
        if internal not in ("true", "false"):
            raise FeedError(f"internal must be true or false, got {internal!r:.80}", line)
        is_internal = internal == "true"
        if is_internal and not parent:
            raise FeedError("internal row without parent_tx_hash", line)
        if not is_internal and parent:
            raise FeedError("top-level row with parent_tx_hash set", line)
        rows.append(
            TxRef(
                block_number=_feed_int(number, "block_number", line),
                tx_hash=_feed_hex(txh, "tx_hash", line, 32),
                sender=_feed_address(sender, "from", line),
                to=_feed_address(to, "to", line),
                value=_feed_int(value, "value", line),
                selector=_feed_hex(selector, "input_selector", line, 4) if selector else None,
                internal=is_internal,
                parent=_feed_hex(parent, "parent_tx_hash", line, 32) if parent else None,
            )
        )
    return rows
