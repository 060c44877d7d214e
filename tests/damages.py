"""Hypothesis strategies that damage a JSON file's bytes, shared by the
tests that feed damaged archives, cache entries and trace texts to the
program."""

import json

from hypothesis import strategies as st

_JUNK_OPS = st.one_of(
    st.text(max_size=6),
    st.text(max_size=3).map(lambda tail: "PUSH" + tail),
    st.sampled_from(["PUSH", "PUSH33", "CALL", "DELEGATECALL", "SSTORE", "STOP", "JUMP"]),
    st.none(),
    st.integers(),
)


_CODECS = ["utf-16", "utf-32", "utf-8-sig", "indent"]


@st.composite
def damage(draw, original: bytes, kinds=("truncate", "flip", "splice", "junk-op")) -> tuple:
    """One damage to a JSON file's bytes: a truncation, a byte flip, a
    splice of one of its own stretches, a re-encoding (another Unicode
    encoding, or the same document re-serialised with indentation), or, in
    a trace, one op renamed to junk."""
    size = len(original)
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1))
    if kind == "flip":
        return kind, draw(st.integers(0, size - 1)), draw(st.integers(1, 255))
    if kind == "splice":
        start = draw(st.integers(0, size - 1))
        end = draw(st.integers(start + 1, min(size, start + 80)))
        at = draw(st.integers(0, size))
        return kind, start, end, at, draw(st.integers(at, min(size, at + 80)))
    if kind == "re-encode":
        return kind, draw(st.sampled_from(_CODECS))
    steps = len(json.loads(original)["structLogs"])
    return kind, draw(st.integers(0, max(steps - 1, 0))), draw(_JUNK_OPS)


def damaged(original: bytes, plan: tuple) -> bytes:
    kind, *args = plan
    if kind == "truncate":
        return original[: args[0]]
    if kind == "flip":
        at, mask = args
        return original[:at] + bytes([original[at] ^ mask]) + original[at + 1:]
    if kind == "splice":
        start, end, at, cut = args
        return original[:at] + original[start:end] + original[cut:]
    if kind == "re-encode":
        if args[0] == "indent":
            return json.dumps(json.loads(original), indent=1).encode()
        return original.decode().encode(args[0])
    index, op = args
    doc = json.loads(original)
    if doc["structLogs"]:  # a transfer to a code-free account has no step
        doc["structLogs"][index]["op"] = op
    return json.dumps(doc).encode()
