"""Hypothesis strategies that damage a JSON file's bytes, shared by the
tests that feed damaged archives, cache entries and trace texts to the
program, and the paths and re-encodings of the JSON values whose fields
the descriptor and RPC reply tests damage."""

import hashlib
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


def json_paths(value, prefix=()):
    """The key path of every member and item inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield (*prefix, key)
        yield from json_paths(item, (*prefix, key))


def re_encodings(value) -> list:
    """The same value written another way."""
    if value is None:
        return ["null", 0, []]
    if isinstance(value, bool):
        return [str(value).lower(), int(value)]
    if isinstance(value, int):
        return [str(value), float(value), hex(value), [value]]
    if isinstance(value, float):
        return [str(value)]
    if isinstance(value, str):
        out = [" " + value, value.upper(), [value]]
        if value.startswith("0x"):
            out += [value[2:], "0x" + value[2:].zfill(64)]
            if len(value) > 2:  # "0x", empty calldata, spells no number
                out.append(int(value, 16))
        if value.lstrip("-").isdigit():
            out += [int(value), float(value), hex(int(value))]
        return out
    if isinstance(value, list):
        return [{str(i): item for i, item in enumerate(value)}, value[:1], value * 2]
    return [[[key, item] for key, item in value.items()], list(value.values())]


@st.composite
def resealed(draw, entry: bytes) -> bytes:
    """A cache entry's bytes with its payload, or one value inside it
    (json_paths), written another way (re_encodings), and its sha256 taken
    again over the new payload: an entry whose digest matches, so only the
    check of its kind's shape can catch it."""
    doc = json.loads(entry)
    payload = doc["payload"]
    path = draw(st.sampled_from([(), *json_paths(payload)]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else payload
    new = draw(st.sampled_from(re_encodings(old)))
    if path:
        parent[path[-1]] = new
    else:
        payload = new
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return f'{{"key":{json.dumps(doc["key"])},"payload":{text},"sha256":"{sha}"}}'.encode()
