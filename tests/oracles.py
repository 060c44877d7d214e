"""Independent reference implementations used to cross-check the package.

The arithmetic oracle is deliberately written from first principles over
Python bigints, with no imports from evmsleuth, so that tests compare two
unrelated derivations of the same math. Keep it that way: if it ever
delegates to the package, the arithmetic acceptance check stops proving
anything.

replay_block is the other reference: it re-executes an archived block with
the package's interpreter, the side that criterion 5 compares trace
reconstruction against. It imports the interpreter inside the function, so
the arithmetic oracle stays free of the package.
"""

import random

M = 1 << 256
HALF = 1 << 255

BINARY_OPS = ("ADD", "MUL", "SUB", "SDIV", "EXP")
TERNARY_OPS = ("ADDMOD", "MULMOD")
ALL_OPS = BINARY_OPS + TERNARY_OPS

# Above this exponent the oracle refuses to materialize powers; the verdict
# logic below still decides bounds without the exact value.
_ORACLE_EXP_LIMIT = 4096


def as_signed(word):
    return word - M if word >= HALF else word


def machine_result(op, a, b, c=0):
    """EVM modular semantics, recomputed from scratch."""
    if op == "ADD":
        return (a + b) % M
    if op == "MUL":
        return (a * b) % M
    if op == "SUB":
        return (a - b) % M
    if op == "SDIV":
        if b == 0:
            return 0
        sa, sb = as_signed(a), as_signed(b)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return q % M
    if op == "ADDMOD":
        return (a + b) % c if c else 0
    if op == "MULMOD":
        return (a * b) % c if c else 0
    if op == "EXP":
        return pow(a, b, M)
    raise AssertionError(op)


def exact_when_feasible(op, a, b, c=0, signed=False):
    """Exact integer value, or None when materializing it is unreasonable
    (only possible for EXP). The exponent of EXP is always unsigned.
    """
    za, zb = (as_signed(a), as_signed(b)) if signed else (a, b)
    if op in ("ADD", "ADDMOD"):
        return za + zb
    if op in ("MUL", "MULMOD"):
        return za * zb
    if op == "SUB":
        return za - zb
    if op == "SDIV":
        if b == 0:
            return 0
        q = abs(za) // abs(zb)
        if (za < 0) != (zb < 0):
            q = -q
        return q
    if op == "EXP":
        base = as_signed(a) if signed else a
        if base == 0:
            return 1 if b == 0 else 0
        if base == 1:
            return 1
        if base == -1:
            return 1 if b % 2 == 0 else -1
        if b > _ORACLE_EXP_LIMIT:
            return None
        return base**b
    raise AssertionError(op)


def bounds_verdict(op, a, b, c, lo, hi, signed):
    """True iff the exact value falls outside [lo, hi].

    Decides EXP without materializing astronomical powers: any base with
    |base| >= 2 raised beyond the oracle limit has magnitude >= 2**4097,
    which lies outside every range representable in 256 bits regardless of
    sign.
    """
    if op in TERNARY_OPS:
        return False
    z = exact_when_feasible(op, a, b, c, signed)
    if z is None:
        return True
    return z < lo or z > hi


def type_bounds(bits, signed):
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def random_word(rng: random.Random):
    """Boundary-heavy word distribution."""
    r = rng.random()
    if r < 0.25:
        return rng.randrange(0, 16)
    if r < 0.45:
        return rng.randrange(0, 1 << 16)
    if r < 0.60:
        return ((1 << rng.randrange(1, 256)) + rng.randrange(-2, 3)) % M
    if r < 0.70:
        return M - 1 - rng.randrange(0, 8)
    if r < 0.80:
        return (HALF + rng.randrange(-4, 5)) % M
    return rng.randrange(0, M)


def random_bounds(rng: random.Random):
    bits = rng.choice((8, 16, 32, 64, 128, 256))
    signed = rng.random() < 0.5
    return bits, signed, type_bounds(bits, signed)


def arith_cases(op, count, seed):
    """Yield (a, b, c, bits, signed, lo, hi) tuples for one opcode."""
    rng = random.Random(f"{op}/{seed}")
    for _ in range(count):
        a = random_word(rng)
        b = random_word(rng)
        c = random_word(rng) if op in TERNARY_OPS else 0
        if op == "EXP" and rng.random() < 0.5:
            # keep a healthy share of exactly-computable exponents
            b = rng.randrange(0, 64)
        bits, signed, (lo, hi) = random_bounds(rng)
        yield a, b, c, bits, signed, lo, hi


def replay_block(chain, world, number):
    """Re-execute block `number` from its parent snapshot.

    Returns the recomputed state root and the per-transaction outcomes, so a
    caller can compare the root against the stored header and each
    outcome's step trace against the archived trace.
    """
    from evmsleuth.fixtures.interpreter import execute_transaction
    from evmsleuth.fixtures.state import state_root

    block = chain.blocks[number]
    if number == 0:
        return block.state_root, []
    state = world.get(chain.blocks[number - 1].state_root)
    outcomes = []
    for tx in block.txs:
        outcome = execute_transaction(state, tx.sender, tx.to, tx.value, tx.data, tx.gas_limit)
        outcomes.append(outcome)
        state = outcome.final_state
    return state_root(state), outcomes
