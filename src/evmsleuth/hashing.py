"""Digest helpers shared across the package.

All identifiers (state roots, code hashes, transaction hashes, function
selectors, mapping slots) are derived from sha256 over domain-tagged
canonical byte strings. The exact layouts are frozen in docs/formats.md;
changing any of them invalidates previously written fixture directories.
"""

import hashlib

from .words import ADDRESS_BITS, WORD_MODULUS

def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def new_digest():
    """An incremental digest: update() it piece by piece, then digest()."""
    return hashlib.sha256()


EMPTY_CODE_HASH = digest(b"")


def function_selector(signature: str) -> bytes:
    """First 4 digest bytes of the canonical signature string.

    The signature must already be canonical: no spaces, no argument names,
    e.g. "withdraw(uint256)". Deterministic; distinct signatures yield
    distinct selectors for every signature this project ships.
    """
    if " " in signature or "(" not in signature or not signature.endswith(")"):
        raise ValueError(f"not a canonical signature: {signature!r}")
    return digest(signature.encode("ascii"))[:4]


def mapping_slot(index: int, key: int) -> int:
    """Storage slot of mapping variable `index` at `key`.

    Arithmetic rather than digest-based so that contracts written for the
    bundled interpreter (whose opcode set has no hashing instruction) can
    derive the same slot at runtime with PUSH32/ADD. Injective while keys
    stay below 2**160 (addresses and small integers, which is all the
    bundled fixtures use) and 1 <= index < 2**96.
    """
    if index < 1:
        raise ValueError("mapping indexes start at 1; lower slots are scalars")
    if not 0 <= key < WORD_MODULUS:
        raise ValueError("key out of word range")
    return ((index << ADDRESS_BITS) + key) % WORD_MODULUS


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


def internal_tx_hash(parent_hash: bytes, call_index: int) -> bytes:
    """Synthetic identifier for an internal transaction."""
    return digest(b"itx1" + parent_hash + call_index.to_bytes(4, "big"))
