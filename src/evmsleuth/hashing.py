"""Digest helpers shared across the package.

digest and new_digest are sha256: the cache names and checks its entries
with them, and the producer derives state roots, code hashes and
transaction hashes from domain-tagged canonical byte strings.
function_selector and mapping_slot give a watched function's selector and a
mapping entry's storage slot. The exact layouts are frozen in
docs/formats.md; changing any of them invalidates fixture directories.
"""

import hashlib

from .words import ADDRESS_BITS, WORD_MODULUS

def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def new_digest():
    """An incremental digest: update() it piece by piece, then digest()."""
    return hashlib.sha256()


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
