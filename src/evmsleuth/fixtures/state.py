"""World-state model of the producer: accounts, global state, state roots.

GlobalState is a mutable mapping of accounts with an undo journal so call
frames can roll back storage/balance effects cheaply. state_root() names a
snapshot by a deterministic digest over the canonical serialization frozen
in docs/formats.md - it is not a Merkle-Patricia root and makes no
compatibility claim beyond this project's own fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hashing import digest
from ..words import Address, Word

EMPTY_CODE_HASH = digest(b"")


@dataclass
class Account:
    nonce: int = 0
    balance: int = 0
    storage: dict[Word, Word] = field(default_factory=dict)
    code_hash: bytes = EMPTY_CODE_HASH

    def copy(self) -> "Account":
        return Account(self.nonce, self.balance, dict(self.storage), self.code_hash)


class GlobalState:
    """Mutable account mapping with an undo journal.

    The journal records the inverse of every mutation made through the
    mutator methods; checkpoint()/revert_to() give call frames transactional
    rollback without copying the whole state. clone() deep-copies accounts
    (code bytes are immutable and shared) and starts with a clean journal.
    """

    def __init__(self):
        self.accounts: dict[Address, Account] = {}
        self.code_store: dict[bytes, bytes] = {EMPTY_CODE_HASH: b""}
        self._journal: list[tuple] = []

    # -- queries (never create accounts) --

    def balance_of(self, addr: Address) -> int:
        acct = self.accounts.get(addr)
        return acct.balance if acct else 0

    def storage_at(self, addr: Address, key: Word) -> Word:
        acct = self.accounts.get(addr)
        return acct.storage.get(key, 0) if acct else 0

    def code_of(self, addr: Address) -> bytes:
        acct = self.accounts.get(addr)
        if acct is None:
            return b""
        return self.code_store[acct.code_hash]

    # -- mutators (journaled) --

    def ensure_account(self, addr: Address) -> Account:
        acct = self.accounts.get(addr)
        if acct is None:
            acct = Account()
            self.accounts[addr] = acct
            self._journal.append(("create", addr))
        return acct

    def set_balance(self, addr: Address, value: int):
        acct = self.ensure_account(addr)
        self._journal.append(("balance", addr, acct.balance))
        acct.balance = value

    def bump_nonce(self, addr: Address):
        acct = self.ensure_account(addr)
        self._journal.append(("nonce", addr, acct.nonce))
        acct.nonce += 1

    def set_storage(self, addr: Address, key: Word, value: Word):
        acct = self.ensure_account(addr)
        old = acct.storage.get(key)
        self._journal.append(("storage", addr, key, old))
        if value:
            acct.storage[key] = value
        else:
            acct.storage.pop(key, None)

    def install_code(self, addr: Address, code: bytes) -> bytes:
        """Bind code to an account (fixture deployment path). Unjournaled."""
        h = digest(code)
        self.code_store[h] = code
        self.ensure_account(addr).code_hash = h
        return h

    # -- journal --

    def checkpoint(self) -> int:
        return len(self._journal)

    def revert_to(self, mark: int):
        while len(self._journal) > mark:
            entry = self._journal.pop()
            kind = entry[0]
            if kind == "storage":
                _, addr, key, old = entry
                storage = self.accounts[addr].storage
                if old is None:
                    storage.pop(key, None)
                else:
                    storage[key] = old
            elif kind == "balance":
                _, addr, old = entry
                self.accounts[addr].balance = old
            elif kind == "nonce":
                _, addr, old = entry
                self.accounts[addr].nonce = old
            elif kind == "create":
                del self.accounts[entry[1]]

    def clone(self) -> "GlobalState":
        fresh = GlobalState()
        fresh.accounts = {addr: acct.copy() for addr, acct in self.accounts.items()}
        fresh.code_store = dict(self.code_store)
        return fresh


def storage_root(storage: dict[Word, Word]) -> bytes:
    parts = [b"sr01"]
    for key in sorted(k for k, v in storage.items() if v):
        parts.append(key.to_bytes(32, "big"))
        parts.append(storage[key].to_bytes(32, "big"))
    return digest(b"".join(parts))


def state_root(state: GlobalState) -> bytes:
    """Canonical state digest (layout frozen in docs/formats.md).

    Addresses ascending; per account: address(20) nonce(8) balance(32)
    codeHash(32) storageRoot(32); storage roots cover nonzero entries only,
    keys ascending, key(32) value(32). Account presence matters: an account
    created with all-zero fields still changes the root.
    """
    parts = [b"st01"]
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        parts.append(addr.to_bytes(20, "big"))
        parts.append(acct.nonce.to_bytes(8, "big"))
        parts.append(acct.balance.to_bytes(32, "big"))
        parts.append(acct.code_hash)
        parts.append(storage_root(acct.storage))
    return digest(b"".join(parts))
