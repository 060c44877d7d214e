"""The read side of a chain.json transaction object.

A block's transactions (docs/formats.md) are read into Transaction by
tx_from_document, which names the first field that is missing or
malformed, and written back by tx_to_document. filters and explorer hold
transactions as Transaction; this module is all they need of a chain.

Building an archive (blocks, receipts, snapshots, labels, the miner that
executes transactions and the writer of the archive directory) is producer
code: it lives in evmsleuth.fixtures.archive, so reading an archive loads
nothing that executes a transaction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ProtocolError
from .words import Address, address_hex, hash_hex, word_hex


@dataclass(frozen=True)
class Transaction:
    hash: bytes
    sender: Address
    to: Address | None  # None: contract creation
    value: int
    data: bytes
    nonce: int
    gas_limit: int

    @property
    def selector(self) -> bytes | None:
        return self.data[:4] if len(self.data) >= 4 else None


def tx_to_document(tx: Transaction) -> dict:
    return {
        "hash": hash_hex(tx.hash),
        "from": address_hex(tx.sender),
        "to": None if tx.to is None else address_hex(tx.to),
        "value": word_hex(tx.value),
        "input": "0x" + tx.data.hex(),
        "nonce": tx.nonce,
        "gasLimit": tx.gas_limit,
    }


# The hex digits of each hex field of a transaction object.
_TX_HEX = {
    "hash": re.compile(r"0x([0-9a-fA-F]{64})"),
    "from": re.compile(r"0x([0-9a-fA-F]{40})"),
    "to": re.compile(r"0x([0-9a-fA-F]{40})"),
    "value": re.compile(r"0x([0-9a-fA-F]{1,64})"),
    "input": re.compile(r"0x([0-9a-fA-F]*)"),  # fromhex rejects an odd count
}


def _tx_field(doc: dict, name: str):
    if name not in doc:
        raise ProtocolError(f"transaction without {name}")
    value = doc[name]
    pattern = _TX_HEX.get(name)
    if pattern is None:  # nonce, gasLimit
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
    else:
        match = pattern.fullmatch(value) if isinstance(value, str) else None
        if match is not None:
            return match[1]
    raise ProtocolError(f"transaction {name} is malformed: {value!r:.80}")


def tx_from_document(doc: dict) -> Transaction:
    """The transaction a chain.json transaction object describes; ProtocolError
    names the first field that is missing or malformed."""
    if not isinstance(doc, dict):
        raise ProtocolError(f"transaction is not an object: {doc!r:.80}")
    try:
        data = bytes.fromhex(_tx_field(doc, "input"))
    except ValueError:
        raise ProtocolError(f"transaction input is malformed: {doc['input']!r:.80}") from None
    return Transaction(
        hash=bytes.fromhex(_tx_field(doc, "hash")),
        sender=int(_tx_field(doc, "from"), 16),
        # null marks a contract creation; a missing "to" is malformed
        to=None if doc.get("to", "") is None else int(_tx_field(doc, "to"), 16),
        value=int(_tx_field(doc, "value"), 16),
        data=data,
        nonce=_tx_field(doc, "nonce"),
        gas_limit=_tx_field(doc, "gasLimit"),
    )

