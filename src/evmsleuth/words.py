"""Word layer: 256-bit words, their hex forms, integer-type bounds and
bounds-checked arithmetic.

Words and addresses are plain ints (words in [0, 2**256), addresses in
[0, 2**160)); address_hex, hash_hex, word_hex and storage_hex spell them
the way the archive formats do. word_result is the EVM machine result of
an arithmetic mnemonic, which the interpreter runs on every arithmetic
step. wrap_arith is the one bounds-checked path: a flagged opcode's
machine result, its exact value and an over/underflow verdict against an
IntTypeBounds, which the overflow rule and the arithmetic oracle both use.
This module imports nothing from the package but `errors`.

Conventions:
- "signed" means two's-complement interpretation at full word width;
- the machine result of an operation is always the EVM modular semantics on
  raw words, independent of how a bounds check interprets the operands;
- EXP's exponent is always taken unsigned (a negative integer exponent has
  no exact integer value); the base follows the requested signedness. Exact
  values are clamped to None once the exponent guarantees every 256-bit
  type's range is exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

# There is one kernel; pipebench/run.py still records its name in the run
# metadata, so the constant stays.
BACKEND = "pure"

WORD_BITS = 256
WORD_MODULUS = 1 << WORD_BITS
WORD_MASK = WORD_MODULUS - 1
SIGN_BIT = 1 << (WORD_BITS - 1)

ADDRESS_BITS = 160
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

Address = int
Word = int

# Operand count of every bounds-checked arithmetic mnemonic.
ARITH_ARITY = {
    "ADD": 2,
    "MUL": 2,
    "SUB": 2,
    "SDIV": 2,
    "ADDMOD": 3,
    "MULMOD": 3,
    "EXP": 2,
}

# Exponents above this bound with |base| >= 2 provably overflow any 256-bit
# range; below it the exact power stays cheap to compute (<= ~133k bits).
_EXP_CLAMP = 520


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


def to_signed(word):
    """Two's-complement read of a raw word."""
    return word - WORD_MODULUS if word & SIGN_BIT else word


def _truncating_div(x, y):
    """x / y rounded toward zero, and 0 when y is 0 (the EVM's rule)."""
    if y == 0:
        return 0
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


def word_result(op, a, b, c=0):
    """EVM machine result on raw words (always exact, always defined)."""
    if op == "ADD":
        return (a + b) & WORD_MASK
    if op == "MUL":
        return (a * b) & WORD_MASK
    if op == "SUB":
        return (a - b) & WORD_MASK
    if op == "SDIV":
        return _truncating_div(to_signed(a), to_signed(b)) & WORD_MASK
    if op == "ADDMOD":
        return (a + b) % c if c else 0
    if op == "MULMOD":
        return (a * b) % c if c else 0
    if op == "EXP":
        return pow(a, b, WORD_MODULUS)
    raise ValueError(f"unknown arithmetic op {op!r}")


def exact_value(op, a, b, c=0, signed=False):
    """Exact integer value of the operation under the given signedness.

    Returns (value, clamped). value is None only when clamped is True,
    which only happens for EXP with |base| >= 2 and a huge exponent.
    """
    za = to_signed(a) if signed else a
    zb = to_signed(b) if signed else b
    if op == "ADD" or op == "ADDMOD":
        return za + zb, False
    if op == "MUL" or op == "MULMOD":
        return za * zb, False
    if op == "SUB":
        return za - zb, False
    if op == "SDIV":
        return _truncating_div(za, zb), False
    if op == "EXP":
        exp = b  # raw, unsigned by definition
        if za == 0:
            return (1 if exp == 0 else 0), False
        if za == 1:
            return 1, False
        if za == -1:
            return (1 if exp % 2 == 0 else -1), False
        if exp > _EXP_CLAMP:
            return None, True
        return za**exp, False
    raise ValueError(f"unknown arithmetic op {op!r}")


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
    three operands, the rest two. ADDMOD/MULMOD are never out of bounds:
    their semantics are explicitly modular, so the pre-mod exact value is
    diagnostic only. A clamped EXP is out of bounds by construction
    (|value| >= 2**521 exceeds every 256-bit type in whichever direction its
    sign points). Division by zero yields result 0 and is in bounds.
    """
    want = ARITH_ARITY.get(op)
    if want is None:
        raise UsageError(f"{op} is not a bounds-checked arithmetic opcode")
    if len(operands) != want:
        raise UsageError(f"{op} takes {want} operands, got {len(operands)}")
    for value in operands:
        if not 0 <= value <= WORD_MASK:
            raise UsageError(f"operand {value} outside the word domain")
    a, b = operands[0], operands[1]
    c = operands[2] if want == 3 else 0
    result = word_result(op, a, b, c)
    z, clamped = exact_value(op, a, b, c, bounds.signed)
    if want == 3:
        return ArithOutcome(result, z, False)
    if clamped:
        return ArithOutcome(result, None, True, True)
    return ArithOutcome(result, z, not bounds.min <= z <= bounds.max)
