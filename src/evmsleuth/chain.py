"""The read side of a chain.json transaction object.

A block's transactions (docs/formats.md) are read into Transaction by
tx_from_document, which names the first field that is missing or
malformed, and written back by tx_to_document. The explorer reads each
transaction object once, where it checks the block that holds it
(explorer.block_envelope), and hands those values to the filters
(block_transactions); it writes them back only to build a block's
envelope document, and a cache hit is read from its stored document.
So tx_from_document runs for each transaction when an archive is opened
and on every block cache hit: a dict of the common shape is read after
one test of all its fields, and any other field by field (_tx_by_field),
which finds the first fault and words its message.
filters and explorer hold transactions as Transaction; this module is all
they need of a chain.

Building an archive (blocks, receipts, snapshots, labels, the miner that
executes transactions and the writer of the archive directory) is producer
code: it lives in evmsleuth.fixtures.archive, so reading an archive loads
nothing that executes a transaction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

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


# The hex fields of a transaction object, hash, from, to, value and input,
# joined by spaces: the common shape in one test (input's digit count, which
# must be even, is tested apart). A creation's null to is tested as _NO_TO.
_TX_SHAPE = re.compile(
    r"0x[0-9a-fA-F]{64} 0x[0-9a-fA-F]{40} 0x[0-9a-fA-F]{40} 0x[0-9a-fA-F]{1,64} 0x[0-9a-fA-F]*"
).fullmatch
_NO_TO = "0x" + "0" * 40
_TX_FIELDS = itemgetter("hash", "from", "to", "value", "input", "nonce", "gasLimit")


def tx_from_document(doc: dict) -> Transaction:
    """The transaction a chain.json transaction object describes; ProtocolError
    names the first field that is missing or malformed. A dict of the common
    shape is read after one test of its fields; any other, field by field
    (_tx_by_field), which finds the first fault."""
    try:
        tx_hash, sender, to, value, data, nonce, gas_limit = _TX_FIELDS(doc)
        hex_fields = " ".join((tx_hash, sender, _NO_TO if to is None else to, value, data))
    except (TypeError, KeyError):  # not a dict, a field missing, or one not a string
        return _tx_by_field(doc)
    shape = type(doc) is dict and _TX_SHAPE(hex_fields) and not len(data) % 2
    counts = type(nonce) is int and type(gas_limit) is int and nonce >= 0 and gas_limit >= 0
    if not (shape and counts):
        return _tx_by_field(doc)
    return Transaction(
        bytes.fromhex(tx_hash[2:]), int(sender, 16), None if to is None else int(to, 16),
        int(value, 16), bytes.fromhex(data[2:]), nonce, gas_limit,
    )


def _tx_by_field(doc) -> Transaction:
    """tx_from_document, reading and checking one field at a time."""
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
