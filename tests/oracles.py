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

reference_walk is the trace walk in its plain form, one predicate call and
every frame check on every step, which the package's walk, with its
selection by data and its frame work at frame edges only, must match step
for step and fault for fault. It too imports inside the function.
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


def reference_walk(struct_logs, root_target, relaxed=False, select=lambda pc, op, code: True):
    """The walk of traces.decode_steps as it was when a step predicate
    select(pc, op, code address) chose the steps to build: every step paid
    the predicate, the pending-call lookup and the frame checks. Same
    arguments otherwise, same steps and same faults.

    root_target is the transaction's `to` address: the identity and code of
    the root frame. Raises TraceParseError for a malformed entry or a
    broken step sequence and ReconstructionError when a step cannot be
    mapped onto frames, at the first faulty entry (see the traces module
    docstring); in relaxed mode the only frame error is a step whose frame
    has no origin among the kept steps (a filtered trace taken without call
    boundaries).
    """
    from evmsleuth.errors import ReconstructionError, TraceParseError
    from evmsleuth.traces import (
        _NO_WORDS,
        _PUSH_SIZES,
        _WORD,
        CALL_OPS,
        TERMINAL_OPS,
        CallSite,
        ReconstructedStep,
        _bad_op,
        _call_record,
        _field_fault,
        _parse_hex_word,
    )
    from evmsleuth.words import ADDRESS_MASK

    out: list[ReconstructedStep] = []
    # (storage identity, code address, identities below), root first
    frames = [(root_target, root_target, ())]
    frame_id = code = root_target
    below: tuple[int, ...] = ()
    # per depth, the call awaiting its resume step (read in strict mode),
    # as (call pc, CallSite of a selected call or None)
    pending: dict[int, tuple] = {}
    # the previous step's call, entered iff this step is one level deeper:
    # (call depth, child identity, child code)
    opened = None
    prev_pc = prev_op = prev_depth = None
    # ops and stack words already accepted in this walk (module docstring)
    known_ops: set = set()
    known_words: set = set()

    for i, entry in enumerate(struct_logs):
        # -- fields
        if not isinstance(entry, dict):
            raise TraceParseError("entry is not an object", i)
        try:
            pc = entry["pc"]
            op = entry["op"]
            gas = entry["gas"]
            gas_cost = entry["gasCost"]
            depth = entry["depth"]
        except KeyError as missing:
            raise TraceParseError(f"missing field {missing.args[0]!r}", i) from None
        if not (
            type(pc) is type(gas) is type(gas_cost) is type(depth) is int
            and pc >= 0
            and gas >= 0
            and gas_cost >= 0
            and depth >= 1
        ):
            _field_fault(pc, op, gas, gas_cost, depth, i)
        try:
            known = op in known_ops
        except TypeError:  # unhashable, so not a string
            known = False
        if not known:
            if _bad_op(op):
                raise TraceParseError(f"bad op {op!r}", i)
            known_ops.add(op)
        stack = entry.get("stack", _NO_WORDS)
        if not isinstance(stack, list):
            raise TraceParseError("stack is not a list", i)
        try:
            known = known_words.issuperset(stack)
        except TypeError:  # an unhashable word
            known = False
        if not known:
            for text in stack:
                if type(text) is str and _WORD(text):
                    known_words.add(text)
                else:
                    _parse_hex_word(text, i)
        storage = entry.get("storage")
        if storage is not None:
            if not isinstance(storage, dict):
                raise TraceParseError("storage is not an object", i)
            storage = sorted(
                (_parse_hex_word(k, i), _parse_hex_word(v, i)) for k, v in storage.items()
            )
        recorded = entry.get("call")
        if recorded is not None:
            recorded = _call_record(recorded, i)

        # -- sequence (strict mode)
        resume = None
        if not relaxed:
            resume = pending.pop(depth, None)
            if i == 0:
                if depth != 1:
                    raise TraceParseError(f"root frame starts at depth {depth}", 0)
                if pc != 0:
                    raise TraceParseError(f"root frame starts at pc {pc}", 0)
            elif depth > prev_depth:
                if depth > prev_depth + 1:
                    raise TraceParseError(f"depth jumps from {prev_depth} to {depth}", i)
                if prev_op not in CALL_OPS:
                    raise TraceParseError(f"depth increases after non-call op {prev_op}", i)
                if pc != 0:
                    raise TraceParseError(f"child frame starts at pc {pc}", i)
            elif depth == prev_depth:
                if prev_op in TERMINAL_OPS:
                    raise TraceParseError(
                        f"step follows terminal op {prev_op} in the same frame", i
                    )
                if prev_op != "JUMP" and prev_op != "JUMPI":
                    want = prev_pc + _PUSH_SIZES.get(prev_op, 1)
                    if pc != want:
                        raise TraceParseError(
                            f"pc {pc} after {prev_op} at {prev_pc} "
                            f"(expected {want}) without a jump",
                            i,
                        )
            else:
                if depth < prev_depth - 1:
                    raise TraceParseError(f"depth drops from {prev_depth} to {depth}", i)
                # stepwise descents through call ops leave the call that
                # opened the frame below pending at this depth
                call_pc = resume[0]
                if pc != call_pc + 1:
                    raise TraceParseError(
                        f"resume pc {pc} does not follow call at {call_pc}", i
                    )
            prev_pc, prev_op, prev_depth = pc, op, depth

        # -- frames
        if opened is not None:
            call_depth, child_id, child_code = opened
            opened = None
            if depth == call_depth + 1:
                below = below + (frame_id,)
                frame_id, code = child_id, child_code
                frames.append((frame_id, code, below))
        if depth != len(frames):
            if depth > len(frames):
                # strict sequences always descend through an entered call
                raise ReconstructionError(
                    f"step {i}: depth {depth} but only {len(frames)} frames known "
                    "(filtered trace without call boundaries?)"
                )
            del frames[depth:]
            frame_id, code, below = frames[-1]
            # a call still pending deeper down ended its own frame without
            # being entered; no later step may take its status
            for stale in [d for d in pending if d > depth]:
                del pending[stale]

        if resume is not None:
            # first step back in the caller: its stack top is the call status
            site = resume[1]
            if site is not None and site.status is None and stack:
                site.status = int(stack[-1], 16)

        if op == "SSTORE" and len(stack) < 2 and not storage and not relaxed:
            raise ReconstructionError(f"step {i}: SSTORE with bare stack")
        is_call = op in CALL_OPS
        if is_call:
            if recorded is not None:
                to = recorded[0]
            elif len(stack) >= (3 if op == "CALL" else 2):
                to = int(stack[-2], 16) & ADDRESS_MASK
            else:
                raise ReconstructionError(f"step {i}: {op} with bare stack")

        # -- the step itself, if selected
        site = None
        if select(pc, op, code):
            words = tuple(int(text, 16) for text in stack)
            storage_write = None
            if op == "SSTORE":
                if len(words) >= 2:
                    storage_write = (words[-1], words[-2])
                elif storage:
                    storage_write = storage[0]
            if is_call:
                if recorded is not None:
                    _, value, data, status = recorded
                    if op == "DELEGATECALL":
                        value = None
                else:
                    data = status = None
                    if op == "CALL":
                        value = words[-3]
                    elif op == "STATICCALL":
                        value = 0
                    else:
                        value = None
                site = CallSite(to, value, data, status)
            out.append(
                ReconstructedStep(
                    i, pc, op, depth, words, frame_id, code, below, storage_write, site
                )
            )
        if is_call:
            pending[depth] = (pc, site)
            opened = (depth, frame_id if op == "DELEGATECALL" else to, to)

    return out
