"""Word kernel: 256-bit words, bounds-checked arithmetic, trace decoding.

Hot, dumb inner loops shared by the interpreter, the overflow rule and the
trace decoder, plus the word and address format every other module uses.
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

OP_ADD = 1
OP_MUL = 2
OP_SUB = 3
OP_SDIV = 4
OP_ADDMOD = 5
OP_MULMOD = 6
OP_EXP = 7

TERNARY_OPS = (OP_ADDMOD, OP_MULMOD)

# Mnemonic <-> kernel op code for the arithmetic subset under bounds checks.
ARITH_CODES = {
    "ADD": OP_ADD,
    "MUL": OP_MUL,
    "SUB": OP_SUB,
    "SDIV": OP_SDIV,
    "ADDMOD": OP_ADDMOD,
    "MULMOD": OP_MULMOD,
    "EXP": OP_EXP,
}

# Exponents above this bound with |base| >= 2 provably overflow any 256-bit
# range; below it the exact power stays cheap to compute (<= ~133k bits).
_EXP_CLAMP = 520


def mask256(value):
    return value & WORD_MASK


def to_signed(word):
    """Two's-complement read of a raw word."""
    return word - WORD_MODULUS if word & SIGN_BIT else word


def from_signed(value):
    """Encode an integer into the word domain (modular)."""
    return value & WORD_MASK


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
    if op == OP_ADD:
        return (a + b) & WORD_MASK
    if op == OP_MUL:
        return (a * b) & WORD_MASK
    if op == OP_SUB:
        return (a - b) & WORD_MASK
    if op == OP_SDIV:
        return _sdiv_machine(a, b)
    if op == OP_ADDMOD:
        return (a + b) % c if c else 0
    if op == OP_MULMOD:
        return (a * b) % c if c else 0
    if op == OP_EXP:
        return pow(a, b, WORD_MODULUS)
    raise ValueError(f"unknown arithmetic op code {op}")


def exact_value(op, a, b, c=0, signed=False):
    """Exact integer value of the operation under the given signedness.

    Returns (value, clamped). value is None only when clamped is True,
    which only happens for EXP with |base| >= 2 and a huge exponent.
    """
    za = to_signed(a) if signed else a
    zb = to_signed(b) if signed else b
    if op == OP_ADD or op == OP_ADDMOD:
        return za + zb, False
    if op == OP_MUL or op == OP_MULMOD:
        return za * zb, False
    if op == OP_SUB:
        return za - zb, False
    if op == OP_SDIV:
        if b == 0:
            return 0, False
        q = abs(za) // abs(zb)
        if (za < 0) != (zb < 0):
            q = -q
        return q, False
    if op == OP_EXP:
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
    raise ValueError(f"unknown arithmetic op code {op}")


def check_bounds(op, a, b, c, tmin, tmax, signed):
    """Full wrap-and-check: (result, exact, out_of_bounds, clamped).

    ADDMOD/MULMOD are never out of bounds: their semantics are explicitly
    modular, so the pre-mod exact value is diagnostic only. A clamped EXP is
    out of bounds by construction (|value| >= 2**521 exceeds every 256-bit
    type in whichever direction its sign points).
    """
    result = word_result(op, a, b, c)
    z, clamped = exact_value(op, a, b, c, signed)
    if op in TERNARY_OPS:
        return result, z, False, False
    if clamped:
        return result, None, True, True
    return result, z, (z < tmin or z > tmax), False


def decode_steps(struct_logs):
    """Decode raw structLog entries into flat tuples.

    Returns a list of (pc, op, gas, gas_cost, depth, stack, storage, call)
    where stack is a tuple of ints (bottom first, top last), storage is a
    tuple of (key, value) int pairs or None, and call is a
    (to, value, input_bytes, status) tuple or None.

    Raises ValueError with args (message, raw_index) on the first malformed
    entry; callers wrap this into their own error type.
    """
    out = []
    for i, entry in enumerate(struct_logs):
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object", i)
        try:
            pc = entry["pc"]
            op = entry["op"]
            gas = entry["gas"]
            gas_cost = entry["gasCost"]
            depth = entry["depth"]
        except KeyError as missing:
            raise ValueError(f"missing field {missing.args[0]!r}", i) from None
        if type(pc) is not int or pc < 0:
            raise ValueError(f"bad pc {pc!r}", i)
        if not isinstance(op, str) or not op:
            raise ValueError(f"bad op {op!r}", i)
        if type(gas) is not int or gas < 0:
            raise ValueError(f"bad gas {gas!r}", i)
        if type(gas_cost) is not int or gas_cost < 0:
            raise ValueError(f"bad gasCost {gas_cost!r}", i)
        if type(depth) is not int or depth < 1:
            raise ValueError(f"bad depth {depth!r}", i)
        raw_stack = entry.get("stack", [])
        if not isinstance(raw_stack, list):
            raise ValueError("stack is not a list", i)
        stack = []
        for item in raw_stack:
            word = _parse_hex_word(item, i)
            stack.append(word)
        storage = entry.get("storage")
        pairs = None
        if storage is not None:
            if not isinstance(storage, dict):
                raise ValueError("storage is not an object", i)
            pairs = tuple(
                sorted(
                    (_parse_hex_word(k, i), _parse_hex_word(v, i))
                    for k, v in storage.items()
                )
            )
        call = entry.get("call")
        call_tuple = None
        if call is not None:
            if not isinstance(call, dict):
                raise ValueError("call is not an object", i)
            try:
                to = _parse_hex_word(call["to"], i)
                value = _parse_hex_word(call["value"], i)
            except KeyError as missing:
                raise ValueError(f"call missing {missing.args[0]!r}", i) from None
            data_hex = call.get("input", "0x")
            if not isinstance(data_hex, str):
                raise ValueError("call input is not a string", i)
            body = data_hex[2:] if data_hex.startswith("0x") else data_hex
            try:
                data = bytes.fromhex(body)
            except ValueError:
                raise ValueError(f"bad call input hex {data_hex!r}", i) from None
            status = call.get("status")
            if status is not None and status not in (0, 1):
                raise ValueError(f"bad call status {status!r}", i)
            call_tuple = (to, value, data, status)
        out.append((pc, op, gas, gas_cost, depth, tuple(stack), pairs, call_tuple))
    return out


def _parse_hex_word(text, raw_index):
    if not isinstance(text, str) or not text:
        raise ValueError(f"bad hex word {text!r}", raw_index)
    body = text[2:] if text.startswith(("0x", "0X")) else text
    if not body:
        raise ValueError(f"bad hex word {text!r}", raw_index)
    try:
        value = int(body, 16)
    except ValueError:
        raise ValueError(f"bad hex word {text!r}", raw_index) from None
    if not 0 <= value <= WORD_MASK:
        raise ValueError(f"hex word out of range {text!r}", raw_index)
    return value
