"""The report document is printed as exactly the bytes of
json.dumps(report, indent=1, sort_keys=True) plus a newline (docs/formats.md),
whatever writes them: cli.indented_json, which hands each container of
scalars to a C encoder, writes what json.dumps writes for every value."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmsleuth.cli import indented_json, main
from evmsleuth.fixtures import SCENARIO_NAMES, build_fixture_chain, write_fixture

SEED = 11


def dumps(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


@pytest.fixture(scope="module")
def scenario_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("printed")
    for name in SCENARIO_NAMES:
        write_fixture(build_fixture_chain(name, seed=SEED), base / name)
    return {name: base / name for name in SCENARIO_NAMES}


@pytest.mark.parametrize("level", ["evm", "block"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_the_printed_report_is_json_dumps_indent_1(scenario_dirs, tmp_path, name, level):
    archive = ["-e", f"local[dir={scenario_dirs[name]}]"]
    cache = ["-c", str(tmp_path / "cache")]
    runs = {"local": [], "cold": cache, "warm": cache}
    if level == "evm":
        runs["customTracer"] = ["-d", "evm[mode=customTracer]"]
    for mode, extra in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["investigate", "-t", "printed", *archive, "-d", level, *extra])
        printed = out.getvalue()
        assert code == 0, mode
        assert printed == dumps(json.loads(printed)) + "\n", mode


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 0.000472, 1e-06, 4e-06])
    | st.integers(min_value=0, max_value=10**7).map(lambda n: round(n / 1e6, 6))
    | st.text(max_size=6)
    | st.text(st.characters(max_codepoint=0x1F), max_size=4)  # control characters
    | st.sampled_from(["é", " ", "\ud800", "\U0001f600", '"\\/'])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=25,
)


@given(value=_VALUES)
@settings(max_examples=400, deadline=None)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert indented_json(value) == dumps(value)


def _nested(depth: int):
    value = {"leaf": [1, "x"]}
    for _ in range(depth):
        value = {"a": value, "b": 2}
    return value


@pytest.mark.parametrize(
    "value",
    [
        _nested(29),
        _nested(40),  # deeper than the encoders built: json.dumps writes it
        {2: [1], 1: "b"},  # keys that are not str beside a container
        {1: "a", 2.5: None, -3: []},
        {"flat": {3: "c", 1: "a", 2.5: None}},  # non-str keys in a container of scalars
        [[], {}, [[]], {"": {}}],
    ],
    ids=["29-deep", "40-deep", "int-key", "scalar-keys", "flat-int-keys", "empty"],
)
def test_the_writer_falls_back_to_what_json_dumps_writes(value):
    assert indented_json(value) == dumps(value)


@pytest.mark.parametrize(
    "value", [{"a": [1], "b": {1, 2}}, {"a": 1, 2: [1]}, [{"a": b"x"}]],
    ids=["a-set", "str-and-int-keys", "bytes"],
)
def test_a_value_json_dumps_refuses_raises_its_error(value):
    with pytest.raises(TypeError) as raised:
        dumps(value)
    with pytest.raises(TypeError, match=re.escape(str(raised.value))):
        indented_json(value)
