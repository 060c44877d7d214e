"""Machine-state model: words, typed bounds, accounts, global state.

Words and addresses are plain ints (words in [0, 2**256), addresses in
[0, 2**160)). GlobalState is a mutable mapping of accounts with an undo
journal so call frames can roll back storage/balance effects cheaply.
state_root() is a deterministic digest over the canonical serialization
frozen in docs/formats.md - it is not a Merkle-Patricia root and makes no
compatibility claim beyond this project's own fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import words
from .errors import UsageError
from .hashing import EMPTY_CODE_HASH, digest

Address = int
Word = int


def address_hex(addr: Address) -> str:
    return f"0x{addr:040x}"


def hash_hex(h: bytes) -> str:
    return "0x" + h.hex()


def word_hex(value: Word) -> str:
    """Minimal lowercase hex with 0x prefix (trace stack convention)."""
    return hex(value)


def storage_hex(value: Word) -> str:
    """64-char zero-padded lowercase hex, no prefix (storage map convention)."""
    return f"{value:064x}"


@dataclass(frozen=True)
class IntTypeBounds:
    """Inclusive range of a Solidity-style integer type."""

    min: int
    max: int

    def __post_init__(self):
        if self.min > self.max:
            raise UsageError(f"empty bounds [{self.min}, {self.max}]")

    @property
    def signed(self) -> bool:
        return self.min < 0

    @classmethod
    def unsigned(cls, bits: int) -> "IntTypeBounds":
        _check_width(bits)
        return cls(0, (1 << bits) - 1)

    @classmethod
    def twos_complement(cls, bits: int) -> "IntTypeBounds":
        _check_width(bits)
        return cls(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)


def _check_width(bits: int):
    if bits < 8 or bits > 256 or bits % 8:
        raise UsageError(f"bad integer width {bits}")


UINT256 = IntTypeBounds.unsigned(256)
INT256 = IntTypeBounds.twos_complement(256)
UINT8 = IntTypeBounds.unsigned(8)


@dataclass(frozen=True)
class ArithOutcome:
    """Result of a bounds-checked arithmetic operation.

    result is the 256-bit machine value. z_result is the exact integer value
    of the operation under the bounds' signedness, or None when z_clamped
    (an EXP whose value provably exceeds every 256-bit range).
    out_of_bounds is the over/underflow verdict against the bounds.
    """

    result: Word
    z_result: int | None
    out_of_bounds: bool
    z_clamped: bool = False


def wrap_arith(op: str, operands: list[Word], bounds: IntTypeBounds) -> ArithOutcome:
    """Bounds-checked modular arithmetic for the flagged opcode set.

    op must be one of ADD MUL SUB SDIV ADDMOD MULMOD EXP; ADDMOD/MULMOD take
    three operands, the rest two. ADDMOD/MULMOD never report out_of_bounds
    (their semantics are explicitly modular); division by zero yields
    result 0 and is in bounds.
    """
    want = words.ARITH_ARITY.get(op)
    if want is None:
        raise UsageError(f"{op} is not a bounds-checked arithmetic opcode")
    if len(operands) != want:
        raise UsageError(f"{op} takes {want} operands, got {len(operands)}")
    for value in operands:
        if not 0 <= value <= words.WORD_MASK:
            raise UsageError(f"operand {value} outside the word domain")
    a, b = operands[0], operands[1]
    c = operands[2] if want == 3 else 0
    result, z, oob, clamped = words.check_bounds(
        op, a, b, c, bounds.min, bounds.max, bounds.signed
    )
    return ArithOutcome(result, z, oob, clamped)


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

    def account(self, addr: Address) -> Account | None:
        return self.accounts.get(addr)

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


EMPTY_STATE_ROOT = digest(b"st01")
