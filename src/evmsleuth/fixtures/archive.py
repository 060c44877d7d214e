"""Blocks, receipts, transaction hashes, world-state bookkeeping, the miner
and the archive writer.

This is the producer side of an archive. A chain here is the forensic
source of truth: an ordered block list plus a world state mapping every
block's state root to a full account snapshot, so historical lookups never
replay transactions. mine_block executes transactions on the interpreter
to extend it, and write_archive lays it out on disk (chain.json, states/,
code/, traces/, labels.json; the fixture writer adds vulns/ and disasm/),
in the layout frozen in docs/formats.md; all quantities serialize as
0x-hex strings. The investigator reads that directory and never imports
this module (the read side of a transaction is evmsleuth.chain).

Stored snapshots are shared objects: treat anything returned by
WorldState.get() as read-only. Executing on top of one goes through
execute_transaction, which clones internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..chain import Transaction, tx_to_document
from ..errors import ArchiveGapError, UsageError
from ..hashing import digest
from ..words import Address, address_hex, hash_hex, storage_hex, word_hex
from .interpreter import (
    DEFAULT_GAS_LIMIT,
    ExecutionOutcome,
    LogEntry,
    execute_transaction,
    trace_to_document,
)
from .state import GlobalState, state_root

GENESIS_PARENT = b"\x00" * 32

STATUS_OK = "success"
STATUS_FAILED = "failure"

EXPLOIT_CLASSES = ("overflow", "dos", "reentrancy")
BENIGN = "benign"


def tx_hash(sender: int, to: int, value: int, data: bytes, nonce: int) -> bytes:
    """Canonical transaction hash over the fixed-width field serialization."""
    buf = b"".join(
        (
            b"tx01",
            sender.to_bytes(20, "big"),
            to.to_bytes(20, "big"),
            value.to_bytes(32, "big"),
            nonce.to_bytes(8, "big"),
            len(data).to_bytes(4, "big"),
            data,
        )
    )
    return digest(buf)


def make_transaction(
    sender: Address,
    to: Address,
    value: int,
    data: bytes = b"",
    nonce: int = 0,
    gas_limit: int = DEFAULT_GAS_LIMIT,
) -> Transaction:
    if data and len(data) < 4:
        raise UsageError("calldata must be empty or carry a 4-byte selector")
    return Transaction(
        hash=tx_hash(sender, to, value, data, nonce),
        sender=sender,
        to=to,
        value=value,
        data=data,
        nonce=nonce,
        gas_limit=gas_limit,
    )


@dataclass(frozen=True)
class Receipt:
    status: str
    gas_used: int
    logs: tuple[LogEntry, ...] = ()


@dataclass(frozen=True)
class Block:
    number: int
    hash: bytes
    parent: bytes
    state_root: bytes
    txs: tuple[Transaction, ...]
    receipts: tuple[Receipt, ...]


def _block_hash(number: int, parent: bytes, root: bytes, txs: tuple[Transaction, ...]) -> bytes:
    parts = [b"bk01", number.to_bytes(8, "big"), parent, root]
    parts.extend(t.hash for t in txs)
    return digest(b"".join(parts))


class Blockchain:
    def __init__(self):
        self.blocks: list[Block] = []

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block):
        if self.blocks:
            if block.number != self.tip.number + 1 or block.parent != self.tip.hash:
                raise UsageError("block does not extend the tip")
        elif block.number != 0 or block.parent != GENESIS_PARENT:
            raise UsageError("genesis block malformed")
        self.blocks.append(block)


class WorldState:
    """Map from state roots to historical snapshots (the archive's omega)."""

    def __init__(self):
        self.snapshots: dict[bytes, GlobalState] = {}

    def add(self, state: GlobalState) -> bytes:
        root = state_root(state)
        self.snapshots.setdefault(root, state)
        return root

    def get(self, root: bytes) -> GlobalState:
        found = self.snapshots.get(root)
        if found is None:
            raise ArchiveGapError(f"no snapshot for state root {hash_hex(root)}")
        return found


@dataclass(frozen=True)
class Label:
    exploit_class: str
    mechanism: str


class LabelStore:
    def __init__(self):
        self.labels: dict[bytes, Label] = {}

    def add(self, txh: bytes, exploit_class: str, mechanism: str = ""):
        if exploit_class not in EXPLOIT_CLASSES and exploit_class != BENIGN:
            raise UsageError(f"unknown exploit class {exploit_class!r}")
        self.labels[txh] = Label(exploit_class, mechanism)

    def exploit_hashes(self, exploit_class: str | None = None) -> list[bytes]:
        return [
            h
            for h, label in self.labels.items()
            if label.exploit_class != BENIGN
            and (exploit_class is None or label.exploit_class == exploit_class)
        ]


@dataclass
class Archive:
    """Everything an archive node can answer from: chain, snapshots, traces."""

    chain: Blockchain
    world: WorldState
    traces: dict[bytes, dict] = field(default_factory=dict)
    labels: LabelStore = field(default_factory=LabelStore)


@dataclass
class MinedBlock:
    block: Block
    state: GlobalState
    outcomes: list[ExecutionOutcome]


def make_genesis(state: GlobalState) -> tuple[Blockchain, WorldState]:
    chain = Blockchain()
    world = WorldState()
    root = world.add(state)
    chain.append(
        Block(
            number=0,
            hash=_block_hash(0, GENESIS_PARENT, root, ()),
            parent=GENESIS_PARENT,
            state_root=root,
            txs=(),
            receipts=(),
        )
    )
    return chain, world


def mine_block(
    chain: Blockchain,
    world: WorldState,
    pool: list[Transaction],
) -> MinedBlock:
    """Execute the pool transactions in order on top of the tip.

    Failed transactions stay in the block with failure receipts and no state
    effect. Appends the block and stores the post-state snapshot; returns
    the block together with the per-transaction outcomes (for trace export).
    """
    parent = chain.tip
    state = world.get(parent.state_root)
    outcomes: list[ExecutionOutcome] = []
    receipts: list[Receipt] = []
    for tx in pool:
        outcome = execute_transaction(
            state, tx.sender, tx.to, tx.value, tx.data, tx.gas_limit
        )
        outcomes.append(outcome)
        status = STATUS_OK if outcome.status == "success" else STATUS_FAILED
        receipts.append(Receipt(status, outcome.gas_used, tuple(outcome.logs)))
        state = outcome.final_state

    root = world.add(state)
    block = Block(
        number=parent.number + 1,
        hash=_block_hash(parent.number + 1, parent.hash, root, tuple(pool)),
        parent=parent.hash,
        state_root=root,
        txs=tuple(pool),
        receipts=tuple(receipts),
    )
    chain.append(block)
    return MinedBlock(block, state, outcomes)


def mine_and_record(archive: Archive, pool: list[Transaction]) -> MinedBlock:
    """mine_block plus trace capture into the archive."""
    mined = mine_block(archive.chain, archive.world, pool)
    for tx, outcome in zip(mined.block.txs, mined.outcomes):
        archive.traces[tx.hash] = trace_to_document(outcome)
    return mined


# -- serialization --


def _log_to_doc(entry: LogEntry) -> dict:
    return {
        "address": address_hex(entry.address),
        "topics": [word_hex(t) for t in entry.topics],
        "data": "0x" + entry.data.hex(),
    }


def block_to_document(block: Block) -> dict:
    return {
        "number": block.number,
        "hash": hash_hex(block.hash),
        "parentHash": hash_hex(block.parent),
        "stateRoot": hash_hex(block.state_root),
        "transactions": [tx_to_document(t) for t in block.txs],
        "receipts": [
            {
                "status": r.status,
                "gasUsed": r.gas_used,
                "logs": [_log_to_doc(entry) for entry in r.logs],
            }
            for r in block.receipts
        ],
    }


def state_to_document(state: GlobalState) -> dict:
    accounts = {}
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        accounts[address_hex(addr)] = {
            "nonce": acct.nonce,
            "balance": word_hex(acct.balance),
            "codeHash": hash_hex(acct.code_hash),
            "storage": {
                storage_hex(k): storage_hex(acct.storage[k])
                for k in sorted(acct.storage)
                if acct.storage[k]
            },
        }
    return {"stateRoot": hash_hex(state_root(state)), "accounts": accounts}


def _dump(path: Path, document: dict, compact: bool = False):
    if compact:
        path.write_text(json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def write_archive(archive: Archive, directory: str | Path):
    base = Path(directory)
    for sub in ("states", "code", "traces"):
        (base / sub).mkdir(parents=True, exist_ok=True)

    _dump(
        base / "chain.json",
        {"blocks": [block_to_document(b) for b in archive.chain.blocks]},
    )

    code_seen: dict[bytes, bytes] = {}
    for root, state in sorted(archive.world.snapshots.items()):
        _dump(base / "states" / f"{root.hex()}.json", state_to_document(state))
        code_seen.update(state.code_store)
    for code_digest, code in sorted(code_seen.items()):
        (base / "code" / f"{code_digest.hex()}.hex").write_text(code.hex() + "\n")

    for txh, trace in sorted(archive.traces.items()):
        _dump(base / "traces" / f"{txh.hex()}.json", trace, compact=True)

    _dump(
        base / "labels.json",
        {
            hash_hex(h): {"class": label.exploit_class, "mechanism": label.mechanism}
            for h, label in sorted(archive.labels.labels.items())
        },
    )
