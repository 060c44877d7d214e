"""Word kernel: 256-bit words and bounds-checked arithmetic.

Arithmetic shared by the interpreter and the overflow rule, keyed by opcode
mnemonic, plus the word and address constants every other module uses.
This module must not import anything else from the package.

Conventions:
- words are Python ints in [0, 2**256); addresses are ints in [0, 2**160);
- "signed" means two's-complement interpretation at full word width;
- the machine result of an operation is always the EVM modular semantics on
  raw words, independent of how a bounds check interprets the operands;
- EXP's exponent is always taken unsigned (a negative integer exponent has
  no exact integer value); the base follows the requested signedness. Exact
  values are clamped to None once the exponent guarantees every 256-bit
  type's range is exceeded.
"""

# There is one kernel; pipebench/run.py still records its name in the run
# metadata, so the constant stays.
BACKEND = "pure"

WORD_BITS = 256
WORD_MODULUS = 1 << WORD_BITS
WORD_MASK = WORD_MODULUS - 1
SIGN_BIT = 1 << (WORD_BITS - 1)

ADDRESS_BITS = 160
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

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


def to_signed(word):
    """Two's-complement read of a raw word."""
    return word - WORD_MODULUS if word & SIGN_BIT else word


def _sdiv_machine(a, b):
    if b == 0:
        return 0
    sa = to_signed(a)
    sb = to_signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & WORD_MASK


def word_result(op, a, b, c=0):
    """EVM machine result on raw words (always exact, always defined)."""
    if op == "ADD":
        return (a + b) & WORD_MASK
    if op == "MUL":
        return (a * b) & WORD_MASK
    if op == "SUB":
        return (a - b) & WORD_MASK
    if op == "SDIV":
        return _sdiv_machine(a, b)
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
        if b == 0:
            return 0, False
        q = abs(za) // abs(zb)
        if (za < 0) != (zb < 0):
            q = -q
        return q, False
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


def check_bounds(op, a, b, c, tmin, tmax, signed):
    """Full wrap-and-check: (result, exact, out_of_bounds, clamped).

    ADDMOD/MULMOD are never out of bounds: their semantics are explicitly
    modular, so the pre-mod exact value is diagnostic only. A clamped EXP is
    out of bounds by construction (|value| >= 2**521 exceeds every 256-bit
    type in whichever direction its sign points).
    """
    result = word_result(op, a, b, c)
    z, clamped = exact_value(op, a, b, c, signed)
    if ARITH_ARITY[op] == 3:
        return result, z, False, False
    if clamped:
        return result, None, True, True
    return result, z, (z < tmin or z > tmax), False
