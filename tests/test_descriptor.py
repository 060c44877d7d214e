"""The vulnerability descriptor is read once, when the run starts: a field
that is missing or of the wrong type is exit 2 at either level and in every
mode, and never a skip, a traceback or a silently different run."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from damages import json_paths, re_encodings
from evmsleuth.cli import main
from evmsleuth.errors import ConfigError
from evmsleuth.fixtures import build_fixture_chain, write_fixture
from evmsleuth.rules_evm import VulnSpec

SEED = 11
SCENARIOS = ("Bank", "SimulationKotET", "TargetUnderflow")


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """scenario -> (archive directory, its descriptor document)."""
    base = tmp_path_factory.mktemp("descriptors")
    out = {}
    for name in SCENARIOS:
        fixture = build_fixture_chain(name, seed=SEED)
        write_fixture(fixture, base / name)
        out[name] = (base / name, fixture.vuln)
    return out


def investigate(archive, vuln, detector="evm", *extra) -> tuple[int, str, str]:
    """`investigate` over archive with the descriptor file at vuln."""
    name, _, options = detector.partition("[")
    options = f",{options[:-1]}" if options else ""
    argv = ["investigate", "-t", "d", "-e", f"local[dir={archive}]",
            "-d", f"{name}[vuln={vuln}{options}]", *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- the cases a per-level reading accepted --


def _set(path, value):
    """An edit: the descriptor's text with the field at path set to value."""

    def edit(doc):
        doc = json.loads(json.dumps(doc))
        *parents, last = path
        owner = doc
        for key in parents:
            owner = owner[key]
        owner[last] = value
        return json.dumps(doc)

    return edit


def _nested(doc):
    """An edit: the descriptor's text with a member 100,000 lists deep."""
    return json.dumps(doc)[:-1] + ', "deep": ' + "[" * 100_000 + "]" * 100_000 + "}"


# name -> (scenario, edit, what the error names)
CASES = {
    # the evm level skipped every candidate as "analysis failed"; the block
    # level ran without a complaint
    "typeMin-x": ("TargetUnderflow", _set(["params", "typeMin"], "x"), "params.typeMin"),
    # exit 2 at the block level, exit 0 at the evm level
    "slot-minus-1": ("Bank", _set(["params", "userBalancesSlot"], -1), "params.userBalancesSlot"),
    # "false" switched internal discovery on
    "internal-string": (
        "Bank", _set(["filter", "includeInternal"], "false"), "filter.includeInternal"
    ),
    # 228.7 gated pc 228; -5 was a pc
    "pc-fraction": ("Bank", _set(["vulnLocs", 0, "pcOffsets"], [228.7]), "vulnLocs[0].pcOffsets"),
    "pc-negative": ("Bank", _set(["vulnLocs", 0, "pcOffsets"], [-5]), "vulnLocs[0].pcOffsets"),
    "address-64-digits": (
        "Bank", _set(["contractAddress"], "0x" + "0" * 60 + "ba6b"), "contractAddress"
    ),
    # a RecursionError traceback, exit 1
    "nested-100000": ("Bank", _nested, "vuln.json"),
}

DETECTORS = [("evm",), ("evm[mode=customTracer]",), ("block",), ("evm", "-c"), ("block", "-c")]


@pytest.mark.parametrize("detector", DETECTORS, ids=" ".join)
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_field_is_exit_2_at_either_level(archives, tmp_path, case, detector):
    scenario, edit, named = CASES[case]
    archive, doc = archives[scenario]
    vuln = tmp_path / "vuln.json"
    vuln.write_text(edit(doc))
    name, *cache = detector
    extra = ["-c", str(tmp_path / "cache")] if cache else []
    code, out, err = investigate(archive, vuln, name, *extra)
    assert code == 2 and out == ""
    assert err.startswith("evmsleuth: ") and named in err and err.count("\n") == 1


# -- any one field dropped, retyped or re-encoded --


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=5,
)


@st.composite
def edited_descriptors(draw, archives):
    """(archive, descriptor) with one field of a scenario's descriptor
    dropped, replaced by any JSON value, or re-encoded."""
    archive, doc = archives[draw(st.sampled_from(SCENARIOS))]
    doc = json.loads(json.dumps(doc))
    *parents, last = draw(st.sampled_from(list(json_paths(doc))))
    owner = doc
    for key in parents:
        owner = owner[key]
    how = draw(st.sampled_from(["drop", "retype", "re-encode"]))
    if how == "drop":
        del owner[last]
    elif how == "retype":
        owner[last] = draw(_JSON)
    else:
        owner[last] = draw(st.sampled_from(re_encodings(owner[last])))
    return archive, doc


@pytest.fixture(scope="module")
def vuln_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edited") / "vuln.json"


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_an_edited_descriptor_is_exit_2_at_both_levels_or_neither(archives, vuln_path, data):
    archive, doc = data.draw(edited_descriptors(archives))
    vuln_path.write_text(json.dumps(doc))
    try:
        VulnSpec.from_document(doc)
        refused = False
    except ConfigError:
        refused = True
    for level in ("evm", "block"):
        code, out, err = investigate(archive, vuln_path, level)
        assert code in (0, 2, 3), err
        assert (code == 2) == refused, err
        if code == 0:
            json.loads(out)
        else:
            assert out == "" and err.startswith("evmsleuth: ")


# -- the descriptor a fixture directory carries --


def run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# command lines that read the implicit descriptor of the archive at {archive}
IMPLICIT = {
    "evm": ("investigate", "-t", "d", "-e", "local[dir={archive}]"),
    "block-cached": ("investigate", "-t", "d", "-e", "local[dir={archive}]", "-d", "block",
                     "-c", "{cache}"),
    "export-feed": ("export-feed", "-e", "local[dir={archive}]"),
}


def run_implicit(command, archive, cache) -> tuple[int, object, str]:
    """(exit code, result, stderr) of the command line over archive: the
    feed text, or the report without its timings."""
    code, out, err = run(*(arg.format(archive=archive, cache=cache) for arg in IMPLICIT[command]))
    if code == 0 and command != "export-feed":
        out = json.loads(out)
        del out["timings"]
    return code, out, err


def _bank_with_vulns(archives, tmp_path, build) -> str:
    """A copy of Bank whose vulns/ is replaced by what build(vulns, bank's
    descriptor text, TargetUnderflow's) makes of it."""
    copy = tmp_path / "bank"
    shutil.copytree(archives["Bank"][0], copy)
    shutil.rmtree(copy / "vulns")
    bank, target = (json.dumps(archives[name][1]) for name in ("Bank", "TargetUnderflow"))
    build(copy / "vulns", bank, target)
    return str(copy)


def _descriptors(**files):
    """A vulns/ directory holding files, name -> "bank" or "target"."""
    def build(vulns, bank, target):
        vulns.mkdir()
        for name, which in files.items():
            (vulns / name).write_text(bank if which == "bank" else target)
    return build


def _z_json_directory(vulns, bank, target):
    vulns.mkdir()
    (vulns / "z.json").mkdir()


def _no_vulns(vulns, bank, target):
    pass


def _vulns_a_file(vulns, bank, target):
    vulns.write_text(bank)


# how vulns/ is laid out -> the one stderr line every command line gives
# ({archive} and {vulns} are the copy's directories), or None where the copy
# runs as Bank's own directory does
LISTINGS = {
    # a glob of *.json matches a dot-file
    "dot-file": (_descriptors(**{".x.json": "bank"}), None),
    "z.json-directory": (
        _z_json_directory,
        "evmsleuth: vulnerability description at {vulns}/z.json unreadable: "
        "[Errno 21] Is a directory: '{vulns}/z.json'\n",
    ),
    "missing": (_no_vulns, "evmsleuth: no vulns/*.json under {archive}\n"),
    "a-file": (_vulns_a_file, "evmsleuth: no vulns/*.json under {archive}\n"),
    # more than one is refused, named in sorted order: B before a
    "B-and-a": (
        _descriptors(**{"B.json": "bank", "a.json": "target"}),
        "evmsleuth: 2 vulnerability descriptions under {vulns}: B.json, a.json; "
        "pass one with -d LEVEL[vuln=PATH] or --vuln PATH\n",
    ),
    # TargetUnderflow's descriptor beside Bank's was read first, by name: a
    # run over Bank's chain of another scenario, exit 0 with 0 candidates
    "AAA-beside-Bank": (
        _descriptors(**{"AAA.json": "target", "Bank.json": "bank"}),
        "evmsleuth: 2 vulnerability descriptions under {vulns}: AAA.json, Bank.json; "
        "pass one with -d LEVEL[vuln=PATH] or --vuln PATH\n",
    ),
}


@pytest.mark.parametrize("command", sorted(IMPLICIT))
@pytest.mark.parametrize("listing", list(LISTINGS))
def test_a_fixture_directory_carries_exactly_one_descriptor(archives, tmp_path, listing, command):
    build, refusal = LISTINGS[listing]
    archive = _bank_with_vulns(archives, tmp_path, build)
    code, out, err = run_implicit(command, archive, tmp_path / "cache")
    if refusal is None:  # what Bank's own directory gives
        assert (code, out) == run_implicit(command, archives["Bank"][0], tmp_path / "bank")[:2]
    else:
        assert (code, out) == (2, "")
        assert err == refusal.format(archive=archive, vulns=f"{archive}/vulns")
        assert not (tmp_path / "cache").exists()


def test_a_descriptor_named_on_the_command_line_needs_no_listing(archives, tmp_path):
    # vuln=PATH picks one of several, as the refusal says
    build = _descriptors(**{"AAA.json": "target", "Bank.json": "bank"})
    archive = _bank_with_vulns(archives, tmp_path, build)
    vuln = f"{archive}/vulns/Bank.json"
    code, out, _ = run("investigate", "-t", "d", "-e", f"local[dir={archive}]",
                       "-d", f"evm[vuln={vuln}]")
    assert code == 0 and json.loads(out)["totals"]["detections"] == 6
    code, out, _ = run("export-feed", "-e", f"local[dir={archive}]", "--vuln", vuln)
    assert code == 0 and len(out.splitlines()) == 9
