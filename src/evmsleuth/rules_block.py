"""Block-level indicators: two state edges, no replay.

These rules read nothing but the σ0/σn pair around a block (the parent's
post-state and the block's own) plus the candidate transactions' envelope
fields. No trace is fetched and no instruction is interpreted, which is the
whole point: the archive already stores every block boundary, so lookup
replaces re-execution.

A state view is anything with balance_of(addr) and storage_at(addr, key).
The explorer layer provides a point-query adapter with these two methods
over the state an archive recorded at each block edge, so the rules run
identically over a local archive and a remote node. They never build or
mutate a world state.

The conditions are deliberately coarse (documented trade-off): effects that
cancel within one block, or that enter through a transaction addressed to
some other contract, are invisible here. The instruction-level rules exist
for exactly those cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashing import mapping_slot
from .rules_evm import VulnSpec
from .words import ADDRESS_MASK, hash_hex


@dataclass(frozen=True)
class BlockDetection:
    rule: str
    block_number: int
    candidates: tuple[bytes, ...]  # transactions satisfying the existential
    details: dict  # per-candidate, keyed by 0x tx hash

    def to_document(self) -> dict:
        return {
            "rule": self.rule,
            "blockNumber": self.block_number,
            "candidateTxHashes": [hash_hex(h) for h in self.candidates],
            "details": self.details,
        }


def decode_arg(data: bytes, index: int) -> int | None:
    """Argument word `index` from fixture-ABI calldata, None if too short."""
    start = 32 + 32 * index
    if len(data) < start + 32:
        return None
    return int.from_bytes(data[start : start + 32], "big")


def check_overflow(pre, post, tx, spec: VulnSpec) -> tuple[bool, dict, list[str]]:
    contract = spec.contract
    notes: list[str] = []
    sender_key = mapping_slot(spec.slot, tx.sender)
    sb0 = pre.storage_at(contract, sender_key)
    sb1 = post.storage_at(contract, sender_key)
    fired = sb1 > sb0
    detail = {"senderBefore": str(sb0), "senderAfter": str(sb1)}
    arg_index = spec.to_arg_index
    if arg_index is not None:
        raw = decode_arg(tx.data, arg_index)
        if raw is None:
            notes.append(
                f"tx {hash_hex(tx.hash)}: calldata too short for arg {arg_index}, "
                "receiver check skipped"
            )
        else:
            to = raw & ADDRESS_MASK
            to_key = mapping_slot(spec.slot, to)
            tb0 = pre.storage_at(contract, to_key)
            tb1 = post.storage_at(contract, to_key)
            detail["receiverBefore"] = str(tb0)
            detail["receiverAfter"] = str(tb1)
            fired = fired or tb1 < tb0
    return fired, detail, notes


def check_dos(pre, post, tx, spec: VulnSpec) -> tuple[bool, dict, list[str]]:
    contract = spec.contract
    bid0 = pre.storage_at(contract, spec.slot)
    bid1 = post.storage_at(contract, spec.slot)
    fired = tx.value > bid0 and bid1 == bid0
    return fired, {"value": str(tx.value), "highBid": str(bid0)}, []


def check_reentrancy(pre, post, tx, spec: VulnSpec) -> tuple[bool, dict, list[str]]:
    contract = spec.contract
    owed = pre.storage_at(contract, mapping_slot(spec.slot, tx.sender))
    held0 = pre.balance_of(contract)
    held1 = post.balance_of(contract)
    fired = held1 != held0 - owed
    detail = {"before": str(held0), "after": str(held1), "owed": str(owed)}
    return fired, detail, []


BLOCK_RULES = {
    "overflow": check_overflow,
    "dos": check_dos,
    "reentrancy": check_reentrancy,
}


def evaluate_block(
    pre, post, block_number: int, candidates, spec: VulnSpec
) -> tuple[BlockDetection | None, list[str]]:
    """Apply the spec's rule to each candidate transaction over one edge.

    `candidates` are the block's transactions already narrowed to the
    investigated contract and selector set. Returns a detection when at
    least one candidate fires, plus any per-transaction notes.
    """
    rule = BLOCK_RULES[spec.rule]
    fired: list[bytes] = []
    details: dict[str, dict] = {}
    notes: list[str] = []
    for tx in candidates:
        hit, detail, tx_notes = rule(pre, post, tx, spec)
        notes.extend(tx_notes)
        if hit:
            fired.append(tx.hash)
            details[hash_hex(tx.hash)] = detail
    if not fired:
        return None, notes
    return BlockDetection(spec.rule, block_number, tuple(fired), details), notes
