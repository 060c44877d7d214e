"""Machine-state model: words, their hex forms, typed bounds, bounded arithmetic.

Words and addresses are plain ints (words in [0, 2**256), addresses in
[0, 2**160)). wrap_arith gives a flagged opcode's 256-bit machine result,
its exact value and an over/underflow verdict against an IntTypeBounds.
The producer's world state is evmsleuth.fixtures.state.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words
from .errors import UsageError

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
