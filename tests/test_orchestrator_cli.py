"""End-to-end investigation runs and the command-line surface."""

import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import shutil
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock
from urllib.error import HTTPError, URLError

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from damages import damage, damaged, resealed
from isolated import modules_loaded, run_isolated_cli
from evmsleuth import filters, orchestrator, traces
from evmsleuth.cli import (
    PLAIN_COMMANDS,
    build_detector,
    build_explorer,
    build_filter,
    main,
    make_parser,
    parse_component,
    parse_shared,
    read_plain,
    split_params,
    with_cache,
)
from evmsleuth.errors import (
    ConfigError,
    FeedError,
    ReconstructionError,
    TraceParseError,
    UsageError,
)
from evmsleuth.explorer import ANCHOR, CachedExplorer, LocalExplorer, apply_tracer
from evmsleuth.filters import (
    FilterQuery,
    ReadState,
    TxRef,
    parse_csv_feed,
    tx_list,
    write_csv_feed,
)
from evmsleuth.fixtures import build_fixture_chain, scale_fixture, write_fixture
from evmsleuth.fixtures.bench import bench, scaled_fixture_dir
from evmsleuth.hashing import digest, function_selector
from evmsleuth.orchestrator import InvestigationConfig, run_investigation
from evmsleuth.rules_evm import VulnSpec
from evmsleuth.words import hash_hex

SEED = 11


@pytest.fixture(scope="module")
def bank():
    return build_fixture_chain("Bank", seed=SEED)


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    base = tmp_path_factory.mktemp("bank-archive") / "bank"
    write_fixture(bank, base)
    return base


@pytest.fixture(scope="module")
def spec(bank):
    return VulnSpec.from_document(bank.vuln)


@pytest.fixture(scope="module")
def scaled_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaled")
    fixture = scale_fixture("DelayedUnderflow", "instructions", 0, seed=SEED)
    write_fixture(fixture, scaled_fixture_dir(root, "instructions", 0))
    return root


def config_for(spec, explorer, **kw):
    return InvestigationConfig(tag="t", spec=spec, explorer=explorer, **kw)


def check_totals(doc):
    totals = doc["totals"]
    assert totals["detections"] == len(doc["detections"])
    assert totals["skips"] == len(doc["skips"])
    assert totals["distinctTxs"] <= totals["candidates"] or totals["candidates"] == 0
    assert set(doc["timings"]) == {"filter", "fetch", "analyze", "total"}


# -- configuration --


def test_config_validates_level_and_mode(spec, bank_dir, tmp_path):
    explorer = LocalExplorer(bank_dir)
    with pytest.raises(UsageError, match="unknown detector level"):
        config_for(spec, explorer, level="vm")
    with pytest.raises(UsageError, match="unknown mode"):
        config_for(spec, explorer, mode="turbo")
    with pytest.raises(UsageError, match="only applies to the evm level"):
        config_for(spec, explorer, level="block", mode="customTracer")
    with pytest.raises(UsageError, match="needs a cache directory"):
        config_for(spec, explorer, mode="cached")
    cached = CachedExplorer(explorer, tmp_path / "cache")
    config_for(spec, cached, mode="cached")  # accepted


# -- evm level --


def test_evm_run_finds_the_exploits(bank, spec, bank_dir):
    doc = run_investigation(config_for(spec, LocalExplorer(bank_dir)))
    check_totals(doc)
    assert doc["config"]["scenario"] == "Bank"
    assert doc["config"]["level"] == "evm"
    flagged = {d["txHash"] for d in doc["detections"]}
    labeled = {"0x" + h.hex() for h in bank.archive.labels.exploit_hashes()}
    assert flagged == labeled
    assert "explorerStats" not in doc


def test_evm_run_replays_no_transactions(spec, bank_dir):
    # interpreter work would show up in the step counter; analysis must not
    # execute any contract code, only walk recorded traces
    report = run_investigation(config_for(spec, LocalExplorer(bank_dir)))
    assert report["stepsInterpreted"] == 0


def test_mode_parity_on_detections(spec, bank_dir, tmp_path):
    local = run_investigation(config_for(spec, LocalExplorer(bank_dir)))
    cached = run_investigation(
        config_for(
            spec,
            CachedExplorer(LocalExplorer(bank_dir), tmp_path / "cache"),
            mode="cached",
        )
    )
    traced = run_investigation(
        config_for(spec, LocalExplorer(bank_dir), mode="customTracer")
    )
    canon = lambda report: json.dumps(report["detections"], sort_keys=True)
    assert canon(local) == canon(cached) == canon(traced)


def test_cached_mode_reports_explorer_stats(spec, bank_dir, tmp_path):
    cold = run_investigation(
        config_for(
            spec,
            CachedExplorer(LocalExplorer(bank_dir), tmp_path / "cache"),
            mode="cached",
        )
    )
    # each distinct query goes inner exactly once, even on a cold cache
    # (the filter and analyze phases legitimately revisit the same blocks)
    assert cold["explorerStats"]["innerCalls"] == cold["explorerStats"]["distinctQueries"]
    assert cold["explorerStats"]["innerCalls"] > 0
    warm = run_investigation(
        config_for(
            spec,
            CachedExplorer(LocalExplorer(bank_dir), tmp_path / "cache"),
            mode="cached",
        )
    )
    assert warm["explorerStats"]["innerCalls"] == 0
    assert warm["explorerStats"]["hits"] > 0
    assert json.dumps(warm["detections"]) == json.dumps(cold["detections"])
    # the per-kind counters add up to the totals, cold and warm
    for stats in (cold["explorerStats"], warm["explorerStats"]):
        by_kind = stats["byKind"]
        assert by_kind and set(by_kind) <= {"block", "trace", "storage", "balance"}
        for counter in ("hits", "dropped", "innerCalls"):
            assert sum(c[counter] for c in by_kind.values()) == stats[counter]
    assert warm["explorerStats"]["byKind"]["trace"]["hits"] > 0


def test_runs_are_deterministic(spec, bank_dir):
    docs = []
    for _ in range(2):
        doc = run_investigation(config_for(spec, LocalExplorer(bank_dir)))
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("damage", ["missing", "non-utf8"])
def test_missing_trace_degrades_to_a_skip(bank, spec, bank_dir, tmp_path, damage):
    clone = tmp_path / "clone"
    shutil.copytree(bank_dir, clone)
    victim = bank.archive.labels.exploit_hashes()[0]
    trace = clone / "traces" / f"{victim.hex()}.json"
    if damage == "missing":
        trace.unlink()
    else:
        trace.write_bytes(b'{"structLogs": "\xff"}')
    report = run_investigation(config_for(spec, LocalExplorer(clone)))
    check_totals(report)
    assert any("fetch failed" in s for s in report["skips"])
    flagged = {d["txHash"] for d in report["detections"]}
    assert "0x" + victim.hex() not in flagged
    assert flagged  # the other exploits still surface


def test_empty_filter_runs_clean(spec, bank_dir):
    query = FilterQuery(
        contract=spec.contract,
        selectors=("nothing()",),
        include_internal=False,
        block_range=spec.query.block_range,
    )
    report = run_investigation(
        config_for(spec, LocalExplorer(bank_dir), query=query)
    )
    assert report["totals"]["candidates"] == 0
    assert report["detections"] == [] and report["skips"] == []
    assert report["timings"]["analyze"] == 0.0


def test_feed_rows_replace_the_scan(spec, bank_dir):
    explorer = LocalExplorer(bank_dir)
    rows = tx_list(ReadState(explorer), spec.query)
    scanned = run_investigation(config_for(spec, explorer))
    fed = run_investigation(config_for(spec, explorer, feed=rows))
    assert json.dumps(fed["detections"]) == json.dumps(scanned["detections"])
    assert fed["totals"]["candidates"] == len(rows)


# -- block level --


def test_block_run_never_fetches_traces(bank, spec, bank_dir):
    report = run_investigation(config_for(spec, LocalExplorer(bank_dir), level="block"))
    check_totals(report)
    assert report["stepsInterpreted"] == 0
    assert report["detections"]
    for det in report["detections"]:
        assert det["rule"] == spec.rule
        assert det["candidateTxHashes"]
    # the reverting probe leaves no edge, so its block must stay clean
    failed = {
        h for h in bank.archive.labels.exploit_hashes()
        if bank.archive.traces[h]["failed"]
    }
    assert failed
    flagged_txs = {
        h for det in report["detections"] for h in det["candidateTxHashes"]
    }
    assert {"0x" + h.hex() for h in failed}.isdisjoint(flagged_txs)


@pytest.mark.parametrize(
    "damage",
    [
        "missing",
        "non-utf8",
        "no-accounts",
        "account-not-object",
        "bad-balance",
        "storage-not-object",
    ],
)
def test_block_run_skips_unreadable_state(bank, spec, bank_dir, tmp_path, damage):
    clone = tmp_path / "clone"
    shutil.copytree(bank_dir, clone)
    baseline = run_investigation(config_for(spec, LocalExplorer(clone), level="block"))
    victim = int(baseline["detections"][0]["blockNumber"])
    root = bank.archive.chain.blocks[victim - 1].state_root
    snapshot = clone / "states" / f"{root.hex()}.json"
    doc = json.loads(snapshot.read_text())
    accounts = doc["accounts"].values()
    if damage == "missing":
        snapshot.unlink()
    elif damage == "non-utf8":
        snapshot.write_bytes(b'{"accounts": "\xff"}')
    else:
        if damage == "no-accounts":
            del doc["accounts"]
        elif damage == "account-not-object":
            doc["accounts"] = dict.fromkeys(doc["accounts"], [])
        elif damage == "bad-balance":
            for fields in accounts:
                fields["balance"] = "zz"
        elif damage == "storage-not-object":
            for fields in accounts:
                fields["storage"] = []
        snapshot.write_text(json.dumps(doc))
    report = run_investigation(config_for(spec, LocalExplorer(clone), level="block"))
    assert any("state lookup failed" in s for s in report["skips"])
    remaining = {d["blockNumber"] for d in report["detections"]}
    expected = {d["blockNumber"] for d in baseline["detections"]} - {victim}
    # deleting one snapshot breaks the two edges it participates in
    assert remaining <= expected


def test_a_repeated_feed_row_is_one_distinct_transaction_at_both_levels(capsys, bank_dir, tmp_path):
    # a feed that lists its last row twice: candidates counts rows, and
    # distinctTxs transactions, at the block level as at the evm level
    code, out, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    header, *rows = out.splitlines()
    feed = tmp_path / "feed.csv"
    feed.write_text("\n".join([header, *rows, rows[-1]]) + "\n")
    for level in ("evm", "block"):
        code, out, err = run_cli(
            capsys, "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]", "-d", level,
            "-f", f"feed[path={feed}]",
        )
        assert code == 0, err
        totals = json.loads(out)["totals"]
        assert (totals["candidates"], totals["distinctTxs"]) == (len(rows) + 1, len(set(rows)))


# -- performance harness --


def test_bench_row_shapes(scaled_root):
    with pytest.raises(UsageError, match="at least 1"):
        bench(scaled_root, "instructions", [0], repeats=0)
    (row,) = bench(scaled_root, "instructions", [0], repeats=2)
    assert row["repeats"] == 2
    assert row["detections"] > 0
    assert row["analyze"] >= 0 and row["total"] >= row["analyze"]


def test_bench_requires_prebuilt_fixtures(tmp_path):
    with pytest.raises(UsageError, match="run fixtures scale first"):
        bench(tmp_path, "instructions", [84000], repeats=1)


def test_bench_reads_scaled_fixtures(scaled_root):
    table = bench(scaled_root, "instructions", [0], repeats=1)
    assert len(table) == 1
    row = table[0]
    assert row["axis"] == "instructions" and row["magnitude"] == 0
    assert row["detections"] > 0
    directory = scaled_fixture_dir(scaled_root, "instructions", 0)
    listed = sorted(directory.rglob("*"))
    cached = bench(scaled_root, "instructions", [0], mode="cached", repeats=1)
    assert cached[0]["detections"] == row["detections"]
    # the cache lived in a temporary directory: nothing was left by the fixture
    assert sorted(directory.rglob("*")) == listed


# -- component grammar --


def test_split_params_respects_parentheses():
    assert split_params("a=1,b=2") == ["a=1", "b=2"]
    assert split_params("sigs=vote(uint256,uint256)|poke(),from=1") == [
        "sigs=vote(uint256,uint256)|poke()",
        "from=1",
    ]
    assert split_params("") == []


def test_parse_component_grammar():
    assert parse_component("local") == ("local", {})
    assert parse_component("local[dir=/x]") == ("local", {"dir": "/x"})
    assert parse_component("evm[]") == ("evm", {})
    name, params = parse_component("select[sigs=vote(uint256,uint256)]")
    assert params["sigs"] == "vote(uint256,uint256)"
    for bad in ("x]", "x[dir=/y", "x[flag]"):
        with pytest.raises(UsageError):
            parse_component(bad)


def test_parse_shared_pairs():
    assert parse_shared(["from=1", "to=x=y"]) == {"from": "1", "to": "x=y"}
    with pytest.raises(UsageError, match="key=value"):
        parse_shared(["oops"])
    # only from and to are read, so any other key is refused, as leftovers are
    with pytest.raises(UsageError, match=r"^unknown shared parameter\(s\): form, note$"):
        parse_shared(["from=1", "note=x", "form=3"])


# -- component construction --


def test_build_explorer_variants(bank_dir, tmp_path):
    explorer, archive = build_explorer(f"local[dir={bank_dir}]")
    assert isinstance(explorer, LocalExplorer) and archive == str(bank_dir)
    assert with_cache(explorer, None) is explorer
    wrapped = with_cache(explorer, str(tmp_path / "cache"))
    assert isinstance(wrapped, CachedExplorer) and wrapped.inner is explorer
    with pytest.raises(UsageError, match="empty path"):
        with_cache(explorer, "")
    with pytest.raises(UsageError, match="needs dir=PATH"):
        build_explorer("local")
    with pytest.raises(UsageError, match="unknown explorer"):
        build_explorer("csv")
    with pytest.raises(UsageError, match="unknown explorer parameter"):
        build_explorer(f"local[dir={bank_dir},turbo=1]")
    with pytest.raises(UsageError, match="needs url=URL"):
        build_explorer("rpc")
    rpc, archive = build_explorer("rpc[url=http://localhost:1,timeout=2.5]")
    assert rpc.timeout == 2.5 and archive is None
    for bad in ("abc", "0", "-1", "inf", "nan"):
        with pytest.raises(UsageError, match="timeout must be a positive number"):
            build_explorer(f"rpc[url=http://localhost:1,timeout={bad}]")


def test_build_detector_variants(bank_dir):
    archive = str(bank_dir)  # the local archive build_explorer names
    level, spec, mode = build_detector("evm", archive, None)
    assert (level, mode) == ("evm", "local")
    assert spec.scenario == "Bank"
    level, _, mode = build_detector("block", archive, None)
    assert (level, mode) == ("block", "local")
    _, _, mode = build_detector("evm[mode=customTracer]", archive, None)
    assert mode == "customTracer"
    _, _, mode = build_detector("evm", archive, "/tmp/cache")
    assert mode == "cached"
    with pytest.raises(UsageError, match="unknown detector level"):
        build_detector("vm", archive, None)
    with pytest.raises(ConfigError, match="does not match"):
        build_detector("evm[rule=dos]", archive, None)
    with pytest.raises(UsageError, match="pick one mode"):
        build_detector("evm[mode=customTracer]", archive, "/tmp/cache")
    with pytest.raises(UsageError, match="no vulnerability description"):
        build_detector("evm", None, None)  # no local archive: rpc


def test_build_filter_variants(spec):
    query, feed = build_filter(None, spec, {})
    assert feed is None and query == spec.query
    query, _ = build_filter("spec[from=2,to=4,internal=true]", spec, {})
    assert query.block_range == (2, 4) and query.include_internal is True
    query, _ = build_filter("select[sigs=vote(uint256,uint256)|poke()]", spec, {})
    assert query.selectors == ("vote(uint256,uint256)", "poke()")
    query, _ = build_filter("spec[from=2]", spec, {"from": "3", "to": "5"})
    assert query.block_range == (3, 5)  # shared params win
    with pytest.raises(UsageError, match="unknown filter"):
        build_filter("everything", spec, {})
    with pytest.raises(UsageError, match="needs sigs"):
        build_filter("select", spec, {})
    with pytest.raises(UsageError, match="needs path"):
        build_filter("feed", spec, {})
    with pytest.raises(UsageError, match="no feed at"):
        build_filter("feed[path=/nope.csv]", spec, {})


# -- command line --


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_investigate_reports_json(capsys, bank_dir):
    code, out, err = run_cli(
        capsys, "investigate", "-t", "demo", "-e", f"local[dir={bank_dir}]"
    )
    assert code == 0
    doc = json.loads(out)
    check_totals(doc)
    assert doc["config"]["tag"] == "demo"
    assert doc["detections"]
    assert "tag            demo" in err
    assert "detections" in err


def test_cli_block_level(capsys, bank_dir):
    code, out, _ = run_cli(
        capsys,
        "investigate", "-t", "b", "-e", f"local[dir={bank_dir}]", "-d", "block",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stepsInterpreted"] == 0
    assert all("candidateTxHashes" in d for d in doc["detections"])


# Bank at seed 11, local: the stderr summary of each level, its time line aside
SUMMARIES = {
    "evm": """\
tag            demo
scenario       Bank
level/mode     evm/local
candidates     8 rows, 8 distinct
blocks         6
detections     6
skips          0
steps replayed 0

rule         where    target
reentrancy   block 3   0x1703d8ac4e60d37cca343319a5cad56630be8d53ebc0042c177c7de5bc954c82
reentrancy   block 3   0x29521e6ee8e4f63ed1071e13ea577cdf75cc0f9c8545592ef39c9fd1571b5e7a
reentrancy   block 6   0x9186eb3d8a7b94af1938a57b198fc895f771c3248a8e84e93f72dd25d1acb89d
reentrancy   block 6   0x898008c802a700f4551f1a78d3340ea047078e2148a62cd276a2aa2f2e62431f
reentrancy   block 8   0x172ba6122a2e5482a2be6aed748a6f5e200a4af5ea82e8a49c591bb6885fe7d4
reentrancy   block 10  0xd7b5905323f31a8a677988397890f34bd8c47e6deaf6cc41df40290c67ffafaf
""",
    "block": """\
tag            demo
scenario       Bank
level/mode     block/local
candidates     8 rows, 8 distinct
blocks         6
detections     3
skips          0
steps replayed 0

rule         where    target
reentrancy   block 3   2 candidate tx(s)
reentrancy   block 6   2 candidate tx(s)
reentrancy   block 8   1 candidate tx(s)
""",
}


@pytest.mark.parametrize("level", ["evm", "block"])
def test_cli_stderr_summary(capsys, bank_dir, level):
    code, _, err = run_cli(
        capsys, "investigate", "-t", "demo", "-e", f"local[dir={bank_dir}]", "-d", level
    )
    assert code == 0
    lines = err.splitlines(keepends=True)
    (timed,) = [line for line in lines if line.startswith("time ")]
    assert timed.split()[1::2] == ["filter", "fetch", "analyze", "total"]
    assert "".join(line for line in lines if line is not timed) == SUMMARIES[level]


def test_cli_modes_agree(capsys, bank_dir, tmp_path):
    runs = {}
    base = ["investigate", "-t", "m", "-e", f"local[dir={bank_dir}]"]
    code, out, _ = run_cli(capsys, *base)
    runs["local"] = json.loads(out)["detections"]
    assert code == 0
    code, out, _ = run_cli(capsys, *base, "-c", str(tmp_path / "cache"))
    doc = json.loads(out)
    runs["cached"] = doc["detections"]
    assert code == 0 and doc["config"]["mode"] == "cached"
    assert doc["explorerStats"]["innerCalls"] > 0
    code, out, _ = run_cli(capsys, *base, "-d", "evm[mode=customTracer]")
    doc = json.loads(out)
    runs["customTracer"] = doc["detections"]
    assert code == 0 and doc["config"]["mode"] == "customTracer"
    assert runs["local"] == runs["cached"] == runs["customTracer"]
    # warm cache: a second cached run answers without any inner call
    code, out, _ = run_cli(capsys, *base, "-c", str(tmp_path / "cache"))
    doc = json.loads(out)
    assert doc["explorerStats"]["innerCalls"] == 0
    assert doc["explorerStats"]["hits"] > 0


def test_each_investigation_checks_ops_and_words_afresh(capsys, monkeypatch, bank_dir):
    # the ingest memo lives and dies with one investigation's read state: a
    # second run in the same process makes every op and word check the
    # first made, and within a run each op is checked once, however many
    # of the run's traces use it
    checked = {"_WORD": [], "_op_facts": []}
    for name, seen in checked.items():
        monkeypatch.setattr(
            traces, name, lambda *args, _real=getattr(traces, name), _seen=seen: (
                _seen.append(args[0]) or _real(*args)
            ),
        )
    runs = []
    for _ in range(2):
        for seen in checked.values():
            seen.clear()
        code, out, _ = run_cli(capsys, "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]")
        assert code == 0 and json.loads(out)["detections"]
        runs.append({name: list(seen) for name, seen in checked.items()})
    first, second = runs
    assert first["_WORD"] and first["_op_facts"]
    assert len(second["_WORD"]) == len(first["_WORD"])
    assert len(second["_op_facts"]) == len(first["_op_facts"])
    assert len(set(first["_op_facts"])) == len(first["_op_facts"])


def test_cli_selector_override_narrows_the_scan(capsys, bank_dir):
    code, out, _ = run_cli(
        capsys,
        "investigate", "-t", "s", "-e", f"local[dir={bank_dir}]",
        "-f", "select[sigs=deposit()]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["filter"]["selectors"] == ["deposit()"]
    assert doc["detections"] == []  # depositors do not re-enter


def test_cli_exit_codes(capsys, bank_dir, tmp_path):
    code, _, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", "local[dir=/no/such/archive]"
    )
    assert code == 3 and "chain.json" in err
    code, _, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", "local[dir"
    )
    assert code == 2 and "bracket" in err
    code, _, _ = run_cli(
        capsys,
        "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]",
        "-d", "evm[rule=dos]",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys,
        "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]",
        "-d", "evm[mode=customTracer]", "-c", str(tmp_path / "cache"),
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", "rpc[url=http://localhost:1,timeout=abc]"
    )
    assert code == 2 and "timeout" in err
    vuln = bank_dir / "vulns" / "Bank.json"
    code, _, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", "rpc[url=http://127.0.0.1:1,timeout=1e10]",
        "-d", f"evm[vuln={vuln}]",
    )
    assert code == 2 and "timeout" in err


def _archive_with(base, tmp_path, tx_hash, damage):
    """A copy of the archive at base whose trace of tx_hash `damage` edited
    (or removed, when damage is None)."""
    clone = tmp_path / "clone"
    shutil.copytree(base, clone)
    path = clone / "traces" / f"{tx_hash.hex()}.json"
    if damage is None:
        path.unlink()
    else:
        trace = json.loads(path.read_text())
        damage(trace)
        path.write_text(json.dumps(trace))
    return clone


def _damaged_exploit_trace(bank, bank_dir, tmp_path, damage):
    """A copy of the Bank archive whose first exploit's trace `damage` has
    edited: (archive directory, exploit hash, damaged trace)."""
    victim = bank.archive.labels.exploit_hashes()[0]
    clone = _archive_with(bank_dir, tmp_path, victim, damage)
    trace = json.loads((clone / "traces" / f"{victim.hex()}.json").read_text())
    return clone, victim, trace


@pytest.mark.parametrize("detector", ["evm", "evm[mode=customTracer]"])
def test_cli_malformed_push_op_is_a_skip_record(capsys, bank, spec, bank_dir, tmp_path, detector):
    # an op named PUSH-something that names no push size is a malformed
    # entry in either ingest mode: the transaction is skipped, the run goes on
    pcs = set().union(*spec.gate.values())

    def junk_push_at_the_gate(trace):
        gated = next(s for s in trace["structLogs"] if s["pc"] in pcs and s["op"] == "SSTORE")
        gated["op"] = "PUSHZ"

    clone, victim, trace = _damaged_exploit_trace(bank, bank_dir, tmp_path, junk_push_at_the_gate)
    gated = next(s for s in trace["structLogs"] if s["op"] == "PUSHZ")
    if detector == "evm":
        index = trace["structLogs"].index(gated)
    else:
        index = apply_tracer(trace, {"pcSet": sorted(pcs)})["structLogs"].index(gated)
    code, out, _ = run_cli(
        capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]", "-d", detector
    )
    assert code == 0
    doc = json.loads(out)
    check_totals(doc)
    assert [s for s in doc["skips"] if "bad op" in s] == [
        f"tx 0x{victim.hex()}: analysis failed, skipped (step {index}: bad op 'PUSHZ')"
    ]
    flagged = {d["txHash"] for d in doc["detections"]}
    assert flagged and "0x" + victim.hex() not in flagged


def _unreadable_entry(entry):
    def damage(trace):
        trace["structLogs"][3] = entry

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda trace: trace.__setitem__("rtructLogs", trace.pop("structLogs")),
         "missing field 'structLogs'"),
        (lambda trace: trace.__setitem__("structLogs", {}), "structLogs must be a list"),
        (lambda trace: trace.__setitem__("structLogs", None), "structLogs must be a list"),
        (_unreadable_entry("step"), "step 0: entry is not an object"),
        (_unreadable_entry({"op": "CALL"}), "step 0: missing field 'pc'"),
        (_unreadable_entry({"pc": [1], "op": "ADD", "gas": 1, "gasCost": 1, "depth": 1}),
         "step 0: bad pc [1]"),
    ],
    ids=["no-structlogs", "structlogs-object", "structlogs-null", "entry-string",
         "entry-without-pc", "unhashable-pc"],
)
def test_cli_custom_tracer_over_an_unreadable_trace_is_a_skip_record(
    capsys, bank, bank_dir, tmp_path, damage, message
):
    # the pc filter keeps what it cannot read and ingest rejects it, so the
    # run skips the transaction instead of ending in a traceback
    clone, victim, _ = _damaged_exploit_trace(bank, bank_dir, tmp_path, damage)
    code, out, _ = run_cli(
        capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]",
        "-d", "evm[mode=customTracer]",
    )
    assert code == 0
    doc = json.loads(out)
    assert f"tx 0x{victim.hex()}: analysis failed, skipped ({message})" in doc["skips"]


def _int_op(trace):
    trace["structLogs"][1]["op"] = 7


def _text_pc(trace):
    trace["structLogs"][1]["pc"] = str(trace["structLogs"][1]["pc"])


@pytest.mark.parametrize(
    "damage, fault", [(_int_op, "bad op 7"), (_text_pc, "bad pc '")], ids=["int-op", "text-pc"]
)
@pytest.mark.parametrize("detector", ["evm", "evm[mode=customTracer]"])
def test_cli_entry_of_the_wrong_type_is_the_same_skip_in_both_modes(
    capsys, bank, bank_dir, tmp_path, detector, damage, fault
):
    # the pc filter keeps an entry whose pc is not an int or whose op is not
    # a string, so ingest rejects it in customTracer mode as it does in a
    # full trace, instead of the filter dropping it unread
    clone, victim, _ = _damaged_exploit_trace(bank, bank_dir, tmp_path, damage)
    code, out, _ = run_cli(
        capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]", "-d", detector
    )
    assert code == 0
    doc = json.loads(out)
    (skip,) = doc["skips"]
    assert skip.startswith(f"tx 0x{victim.hex()}: analysis failed, skipped (step ")
    assert fault in skip
    flagged = {d["txHash"] for d in doc["detections"]}
    assert len(flagged) == len(bank.archive.labels.exploit_hashes()) - 1
    assert "0x" + victim.hex() not in flagged


def _bad_pc(trace):
    trace["structLogs"][1]["pc"] = -5


def _junk_push(trace):
    trace["structLogs"][1]["op"] = "PUSHZ"


def _bare_sstore(trace):
    (sstore,) = [s for s in trace["structLogs"] if s["op"] == "SSTORE"]
    sstore["stack"] = []
    del sstore["storage"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_bad_pc, "step 1: bad pc -5"),
        (_bare_sstore, "SSTORE with bare stack"),
        (_junk_push, "step 1: bad op 'PUSHZ'"),
    ],
    ids=["bad-pc", "bare-sstore", "junk-push"],
)
@pytest.mark.parametrize(
    "command",
    [["investigate", "-t", "x", "-d", "evm"], ["investigate", "-t", "x", "-d", "block"],
     ["export-feed"]],
    ids=["investigate-evm", "investigate-block", "export-feed"],
)
def test_cli_malformed_trace_in_internal_discovery_exits_3(
    capsys, tmp_path, command, damage, message
):
    # internal discovery checks every trace in range in full, candidates or
    # not, and a hole in the candidate list would hide exploits: the run
    # aborts naming the transaction
    bec = build_fixture_chain("SimulationBECToken", seed=SEED)
    bec_dir = tmp_path / "bec"
    write_fixture(bec, bec_dir)
    bystander = bec.archive.chain.blocks[1].txs[0]
    wanted = VulnSpec.from_document(bec.vuln).query.selector_bytes()
    assert bystander.data[:4] not in wanted
    trace_path = bec_dir / "traces" / f"{bystander.hash.hex()}.json"
    trace = json.loads(trace_path.read_text())
    damage(trace)
    trace_path.write_text(json.dumps(trace))
    code, out, err = run_cli(
        capsys, *command, "-e", f"local[dir={bec_dir}]", "-f", "spec[internal=true]"
    )
    assert code == 3 and out == ""
    assert f"trace for {hash_hex(bystander.hash)} is malformed" in err and message in err


def _null_call_inputs(trace):
    for entry in trace["structLogs"]:
        if "call" in entry:
            entry["call"]["input"] = None


def _absent_call_inputs(trace):
    for entry in trace["structLogs"]:
        if "call" in entry:
            del entry["call"]["input"]


@pytest.mark.parametrize("detector", ["evm", "evm[mode=customTracer]"])
def test_cli_null_call_input_reads_as_absent(capsys, bank, bank_dir, tmp_path, detector):
    reports = []
    for damage in (_absent_call_inputs, _null_call_inputs):
        clone, victim, trace = _damaged_exploit_trace(
            bank, bank_dir, tmp_path / damage.__name__, damage
        )
        assert any("call" in entry for entry in trace["structLogs"])
        code, out, _ = run_cli(
            capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]", "-d", detector
        )
        assert code == 0
        doc = json.loads(out)
        del doc["timings"]
        reports.append(doc)
    assert reports[0] == reports[1]
    assert "0x" + victim.hex() in {d["txHash"] for d in reports[1]["detections"]}
    assert reports[1]["skips"] == []


# -- the collector pause around each trace document --


@pytest.fixture(scope="module")
def bec():
    return build_fixture_chain("SimulationBECToken", seed=SEED)


@pytest.fixture(scope="module")
def bec_dir(bec, tmp_path_factory):
    base = tmp_path_factory.mktemp("bec-archive") / "bec"
    write_fixture(bec, base)
    return base


_PAUSED_RUNS = {
    # name: (archive, extra arguments, trace damage, exit code)
    "evm-local": ("bank", [], None, 0),
    "evm-cached": ("bank", ["-c", "{tmp}/cache"], None, 0),
    "evm-customTracer": ("bank", ["-d", "evm[mode=customTracer]"], None, 0),
    "internal-discovery": ("bec", [], None, 0),
    "analysis-skip": ("bank", [], ("exploit", _bad_pc), 0),
    "fetch-skip": ("bank", [], ("exploit", None), 0),
    "internal-discovery-abort": ("bec", [], ("bystander", _bad_pc), 3),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("run", sorted(_PAUSED_RUNS))
def test_trace_ingest_runs_with_the_collector_paused(
    capsys, monkeypatch, bank, bank_dir, bec, bec_dir, tmp_path, run, enabled
):
    # every trace is ingested with the collector off, and the caller gets
    # its own collector state back however the run ends
    archive, extra, damage, want = _PAUSED_RUNS[run]
    fixture, base = (bank, bank_dir) if archive == "bank" else (bec, bec_dir)
    if damage is not None:
        which, edit = damage
        if which == "exploit":
            victim = fixture.archive.labels.exploit_hashes()[0]
        else:
            victim = fixture.archive.chain.blocks[1].txs[0].hash
        base = _archive_with(base, tmp_path, victim, edit)
    seen = []
    real = filters.ReadState.walk
    monkeypatch.setattr(
        filters.ReadState,
        "walk",
        lambda *args, **kw: seen.append(gc.isenabled()) or real(*args, **kw),
    )
    argv = [arg.format(tmp=tmp_path) for arg in extra]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, out, _ = run_cli(capsys, "investigate", "-t", "x", "-e", f"local[dir={base}]", *argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == want
    assert seen and not any(seen)
    if run.endswith("skip"):
        assert "skipped" in " ".join(json.loads(out)["skips"])


@pytest.mark.parametrize(
    "run", ["evm-local", "evm-cached", "analysis-skip", "internal-discovery"]
)
def test_each_trace_dies_inside_its_pause(
    capsys, monkeypatch, bank, bank_dir, bec_dir, tmp_path, run
):
    # the collector resumes with nothing of the trace left to traverse:
    # every JSON object decoded from it, in a streamed chunk, in the
    # document json.loads made of a short text where it was read (a trace
    # file, a cache entry), or after the walk refused a long one, is gone
    base = bec_dir if run == "internal-discovery" else bank_dir
    if run == "analysis-skip":
        victim = bank.archive.labels.exploit_hashes()[0]
        base = _archive_with(base, tmp_path, victim, _bad_pc)

    class Decoded(dict):  # a dict that can be watched through a weak reference
        pass

    decoded = []

    def watched_object(pairs):
        obj = Decoded(pairs)
        decoded.append(weakref.ref(obj))
        return obj

    watched_decoder = json.JSONDecoder(object_hook=watched_object)
    watched_loads = functools.partial(json.loads, object_hook=watched_object)
    monkeypatch.setattr(traces, "_raw_decode", watched_decoder.raw_decode)
    monkeypatch.setattr(traces, "json", SimpleNamespace(loads=watched_loads))
    monkeypatch.setattr(
        "evmsleuth.explorer.json", SimpleNamespace(loads=watched_loads, dumps=json.dumps)
    )
    alive_at_resume = []
    for module in (orchestrator, filters):

        @contextlib.contextmanager
        def watched(_real=module.gc_paused):
            with _real():
                yield
                alive_at_resume.extend(ref() is not None for ref in decoded)

        monkeypatch.setattr(module, "gc_paused", watched)
    cache = ["-c", str(tmp_path / "cache")] if run == "evm-cached" else []
    argv = ["investigate", "-t", "x", "-e", f"local[dir={base}]", *cache]
    for _ in range(2 if cache else 1):  # cold, then warm
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
    assert decoded and alive_at_resume and not any(alive_at_resume)


def test_block_level_never_pauses_the_collector(capsys, monkeypatch, bank_dir):
    # the per-query snapshot read is the block level's cost, and it is paid
    # with the collector as the caller left it
    pauses = []
    for module in (orchestrator, filters):
        monkeypatch.setattr(
            module,
            "gc_paused",
            lambda _real=module.gc_paused: pauses.append(1) or _real(),
        )
    base = ["investigate", "-t", "x", "-e", f"local[dir={bank_dir}]"]
    code, out, _ = run_cli(capsys, *base, "-d", "block")
    assert code == 0 and json.loads(out)["detections"]
    assert pauses == []
    code, out, _ = run_cli(capsys, *base, "-d", "evm")  # the spies do see a pause
    assert code == 0 and pauses


@pytest.fixture
def user_paths(tmp_path):
    """One of each unusable kind of path a user can name."""
    regular = tmp_path / "regular.txt"
    regular.write_text("not a directory\n")
    non_utf8 = tmp_path / "latin1.csv"
    non_utf8.write_bytes("block_number,caf\xe9\n".encode("latin-1"))
    return {"regular": regular, "directory": tmp_path, "non-utf8": non_utf8}


@pytest.mark.parametrize(
    "switch, template, kind",
    [
        ("-c", "{}", "regular"),
        ("-c", "{}/sub", "regular"),
        ("-d", "evm[vuln={}]", "directory"),
        ("-d", "evm[vuln={}]", "non-utf8"),
        ("-f", "feed[path={}]", "directory"),
        ("-f", "feed[path={}]", "non-utf8"),
    ],
)
def test_cli_unusable_user_paths_exit_2(capsys, bank_dir, user_paths, switch, template, kind):
    path = user_paths[kind]
    code, out, err = run_cli(
        capsys,
        "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]",
        switch, template.format(path),
    )
    assert code == 2 and out == ""
    assert str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--scenario", "Bank", "--out", "{}/x"],
        ["scale", "--axis", "storage", "--magnitude", "10", "--out", "{}/y"],
        ["scale", "--axis", "storage", "--magnitude", "10", "--root", "{}"],
    ],
    ids=["build", "scale-out", "scale-root"],
)
def test_cli_fixture_output_under_a_regular_file_exits_2(capsys, user_paths, argv):
    regular = user_paths["regular"]
    code, out, err = run_cli(capsys, "fixtures", *(arg.format(regular) for arg in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(regular) in err


def _drop_block_field(name):
    return lambda chain: chain["blocks"][2].pop(name)


def _drop_tx_field(name):
    return lambda chain: chain["blocks"][2]["transactions"][0].pop(name)


@pytest.mark.parametrize(
    "damage",
    [
        *[_drop_block_field(name) for name in ("hash", "parentHash", "stateRoot", "transactions")],
        lambda chain: chain["blocks"][2].update(transactions={}),
        _drop_tx_field("input"),
        _drop_tx_field("hash"),
    ],
    ids=["no-hash", "no-parentHash", "no-stateRoot", "no-transactions",
         "transactions-not-a-list", "tx-no-input", "tx-no-hash"],
)
@pytest.mark.parametrize("level", ["evm", "block"])
def test_cli_malformed_chain_json_exits_3(capsys, bank_dir, tmp_path, damage, level):
    clone = tmp_path / "clone"
    shutil.copytree(bank_dir, clone)
    chain = json.loads((clone / "chain.json").read_text())
    damage(chain)
    (clone / "chain.json").write_text(json.dumps(chain))
    code, out, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]", "-d", level
    )
    assert code == 3 and out == ""
    assert err.startswith("evmsleuth: chain.json block 2")


@pytest.mark.parametrize(
    "content", [b'{"scenario": "caf\xe9"}', b"{nope"], ids=["non-utf8", "non-json"]
)
def test_cli_unreadable_archive_vuln_exits_2(capsys, bank_dir, tmp_path, content):
    clone = tmp_path / "clone"
    shutil.copytree(bank_dir, clone)
    (vuln,) = (clone / "vulns").glob("*.json")
    vuln.write_bytes(content)
    code, out, err = run_cli(capsys, "investigate", "-t", "x", "-e", f"local[dir={clone}]")
    assert code == 2 and out == ""
    assert err.startswith("evmsleuth: ") and str(vuln) in err


@pytest.mark.parametrize("level", ["evm", "block"])
def test_cli_feed_row_outside_its_block_is_a_skip_record(capsys, bank_dir, tmp_path, level):
    # the first row of Bank's feed moved to block 4, which does not hold it
    code, out, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    first, *rest = parse_csv_feed(out)
    feed = tmp_path / "moved.csv"
    feed.write_text(write_csv_feed([dataclasses.replace(first, block_number=4), *rest]))
    base = ["investigate", "-t", "m", "-e", f"local[dir={bank_dir}]", "-d", level,
            "-f", f"feed[path={feed}]"]
    docs = []
    for extra in ([], ["-c", str(tmp_path / "cache")]):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0
        doc = json.loads(out)
        assert doc["skips"] == [f"tx {hash_hex(first.tx_hash)}: not in block 4, skipped"]
        assert doc["totals"]["skips"] == 1
        docs.append({k: v for k, v in doc.items() if k not in ("config", "timings", "explorerStats")})
    assert docs[0] == docs[1]


# -- contract creation --

CREATION = bytes([0xEE]) * 32


@pytest.fixture
def creation_dir(bank_dir, tmp_path):
    """The Bank archive plus a contract-creation transaction ("to": null)
    appended to block 3, sent by that block's first exploit sender. It has
    no trace file, so any attempt to trace it is an archive gap."""
    clone = tmp_path / "creation"
    shutil.copytree(bank_dir, clone)
    chain = json.loads((clone / "chain.json").read_text())
    txs = chain["blocks"][3]["transactions"]
    txs.append(dict(txs[1], hash=hash_hex(CREATION), to=None, input="0x6000"))
    (clone / "chain.json").write_text(json.dumps(chain))
    return clone


@pytest.mark.parametrize("level", ["evm", "block"])
def test_cli_feed_naming_a_creation_transaction(capsys, spec, creation_dir, tmp_path, level):
    feed = tmp_path / "creation.csv"
    selector = function_selector(spec.query.selectors[0])
    row = TxRef(3, CREATION, 0, spec.contract, 0, selector, False, None)
    feed.write_text(write_csv_feed([row]))
    code, out, _ = run_cli(
        capsys,
        "investigate", "-t", "c", "-e", f"local[dir={creation_dir}]",
        "-d", level, "-f", f"feed[path={feed}]",
    )
    assert code == 0
    doc = json.loads(out)
    if level == "evm":
        assert doc["skips"] == [f"tx {hash_hex(CREATION)}: contract creation, skipped"]
        assert doc["detections"] == []
    else:
        # block rules never read `to`: the creation is one more candidate,
        # and the block's balance drop is not owed to its sender
        assert doc["skips"] == []
        (det,) = doc["detections"]
        assert det["blockNumber"] == 3
        assert det["candidateTxHashes"] == [hash_hex(CREATION)]


def test_cli_internal_discovery_skips_creation_transactions(capsys, bank_dir, creation_dir):
    docs = []
    for directory in (bank_dir, creation_dir):
        code, out, _ = run_cli(
            capsys,
            "investigate", "-t", "i", "-e", f"local[dir={directory}]",
            "-f", "spec[internal=true]",
        )
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_cli_export_feed_round_trip(capsys, bank, spec, bank_dir, tmp_path):
    code, out, err = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    rows = parse_csv_feed(out)
    assert rows == tx_list(ReadState(LocalExplorer(bank_dir)), spec.query)
    assert "candidate rows" in err

    feed_path = tmp_path / "feed.csv"
    feed_path.write_text(out)
    code, fed_out, _ = run_cli(
        capsys,
        "investigate", "-t", "fed", "-e", f"local[dir={bank_dir}]",
        "-f", f"feed[path={feed_path}]",
    )
    assert code == 0
    code, scan_out, _ = run_cli(
        capsys, "investigate", "-t", "fed", "-e", f"local[dir={bank_dir}]"
    )
    assert json.loads(fed_out)["detections"] == json.loads(scan_out)["detections"]


def test_cli_export_feed_reads_the_vuln_option(capsys, bank, bank_dir, tmp_path):
    # --vuln replaces the archive's own descriptor: the same one scans the
    # same rows, one naming another contract finds none, a bad one is exit 2
    _, implicit, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    vuln = tmp_path / "vuln.json"
    vuln.write_text(json.dumps(bank.vuln))
    code, same, _ = run_cli(
        capsys, "export-feed", "-e", f"local[dir={bank_dir}]", "--vuln", str(vuln)
    )
    assert code == 0 and same == implicit and len(parse_csv_feed(same)) > 0
    other = dict(bank.vuln, contractAddress="0x" + "0" * 39 + "1")
    vuln.write_text(json.dumps(other))
    code, out, _ = run_cli(
        capsys, "export-feed", "-e", f"local[dir={bank_dir}]", "--vuln", str(vuln)
    )
    assert code == 0 and parse_csv_feed(out) == []
    vuln.write_text(json.dumps(dict(bank.vuln, contractAddress="0x1")))
    code, out, err = run_cli(
        capsys, "export-feed", "-e", f"local[dir={bank_dir}]", "--vuln", str(vuln)
    )
    assert code == 2 and out == "" and "contractAddress" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-d", "evm[vuln=/no/such/vuln.json]"], "no vulnerability description at"),
        (["-d", "block[vuln=/no/such/vuln.json]"], "no vulnerability description at"),
        (["-f", "spec[internal=yes]"], "internal must be true or false"),
        # only from and to are read: a mistyped key ran over the whole range
        (["-p", "form=3"], "unknown shared parameter(s): form"),
        (["-p", "to=4", "-p", "form=3", "-p", "fro=1"], "unknown shared parameter(s): form, fro"),
    ],
)
def test_cli_bad_detector_or_filter_parameter_exits_2(capsys, bank_dir, argv, message):
    code, out, err = run_cli(
        capsys, "investigate", "-t", "x", "-e", f"local[dir={bank_dir}]", *argv
    )
    assert code == 2 and out == ""
    assert err.startswith("evmsleuth: ") and message in err


@pytest.mark.parametrize(
    "command", [["investigate", "-t", "x"], ["export-feed"]], ids=lambda command: command[0]
)
def test_cli_shared_parameters_are_from_and_to(capsys, bank_dir, tmp_path, command):
    explorer = ["-e", f"local[dir={bank_dir}]"]
    code, out, err = run_cli(capsys, *command, *explorer, "-p", "form=3")
    assert (code, out, err) == (2, "", "evmsleuth: unknown shared parameter(s): form\n")
    code, out, _ = run_cli(capsys, *command, *explorer, "-p", "from=4", "-p", "to=4")
    assert code == 0
    if command[0] == "investigate":
        assert json.loads(out)["config"]["filter"]["blockRange"] == [4, 4]
    else:
        assert {row.block_number for row in parse_csv_feed(out)} == {4}


def test_cli_export_feed_rejects_feed_input(capsys, bank_dir, tmp_path):
    code, out, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    feed_path = tmp_path / "feed.csv"
    feed_path.write_text(out)
    code, _, err = run_cli(
        capsys,
        "export-feed", "-e", f"local[dir={bank_dir}]",
        "-f", f"feed[path={feed_path}]",
    )
    assert code == 2 and "does not re-export" in err


def _long_tx_hash(fields):
    fields[1] = "0x" + "1" * 200_000  # past the csv module's field limit


def _nul_in_tx_hash(fields):
    fields[1] = fields[1][:-1] + "\x00"  # unreadable to the csv module before 3.11


@pytest.mark.parametrize("damage", [_long_tx_hash, _nul_in_tx_hash], ids=["long-tx-hash", "nul"])
@pytest.mark.parametrize(
    "command", [["investigate", "-t", "x"], ["export-feed"]], ids=["investigate", "export-feed"]
)
def test_cli_feed_the_csv_module_cannot_read_exits_2(capsys, bank_dir, tmp_path, command, damage):
    code, out, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    lines = out.splitlines()
    fields = lines[2].split(",")
    damage(fields)
    lines[2] = ",".join(fields)
    feed_path = tmp_path / "feed.csv"
    feed_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, *command, "-e", f"local[dir={bank_dir}]", "-f", f"feed[path={feed_path}]"
    )
    assert code == 2 and out == ""
    assert err.startswith("evmsleuth: line 3: ")


@pytest.mark.parametrize(
    "command", [["investigate", "-t", "x"], ["export-feed"]], ids=["investigate", "export-feed"]
)
def test_cli_feed_error_line_stays_short(capsys, bank_dir, tmp_path, command):
    # a 100,000-character tx_hash (under the csv module's field limit) is
    # named on one stderr line that quotes only a prefix of it
    code, out, _ = run_cli(capsys, "export-feed", "-e", f"local[dir={bank_dir}]")
    assert code == 0
    lines = out.splitlines()
    fields = lines[2].split(",")
    fields[1] = "0x" + "1" * 99_998
    lines[2] = ",".join(fields)
    feed_path = tmp_path / "feed.csv"
    feed_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, *command, "-e", f"local[dir={bank_dir}]", "-f", f"feed[path={feed_path}]"
    )
    assert code == 2 and out == ""
    assert err.startswith("evmsleuth: line 3: tx_hash must be 0x + 64 hex chars")
    assert err.count("\n") == 1 and len(err) < 300


_LONG = "x" * 100_000


def _investigate(*args, explorer="local[dir=BANK]"):
    return ["investigate", "-t", "x", "-e", explorer, *args]


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (_investigate("-f", f"spec[from={_LONG}]"), 2),
        (_investigate("-f", f"spec[internal={_LONG}]"), 2),
        (_investigate("-f", _LONG), 2),
        (_investigate("-f", f"spec[{_LONG}=1]"), 2),
        (_investigate("-f", f"select[sigs={_LONG}]"), 2),
        (_investigate("-d", _LONG), 2),
        (_investigate("-d", f"evm[{_LONG}=1]"), 2),
        (_investigate("-d", f"evm[mode={_LONG}]"), 2),
        (_investigate("-d", f"evm[rule={_LONG}]"), 2),
        (_investigate("-p", _LONG), 2),
        (_investigate("-p", "from=" + "9" * 4000), 2),
        (_investigate(explorer=_LONG), 2),
        (_investigate(explorer=f"local[dir=BANK,{_LONG}=1]"), 2),
        (_investigate(explorer=f"rpc[url=http://127.0.0.1:1,timeout={_LONG}]"), 2),
        (_investigate(explorer=f"rpc[url=ftp://{_LONG}]"), 2),
        (_investigate(explorer=f"local[dir=/nonexistent/{_LONG}]"), 3),
        (_investigate("-f", f"feed[path={_LONG}]"), 2),
        (_investigate("-d", f"evm[vuln={_LONG}]"), 2),
        (["export-feed", "-e", "local[dir=BANK]", "--vuln", _LONG], 2),
        (_investigate("-c", _LONG), 2),
        (["fixtures", "build", "--scenario", "Bank", "--out", _LONG], 2),
        (["fixtures", "scale", "--axis", "storage", "--magnitude", "10", "--root", _LONG], 2),
        (["bench", "--root", _LONG, "--axis", "storage", "--magnitudes", "10"], 2),
        (["fixtures", "build", "--scenario", _LONG, "--out", "BANK/unbuilt"], 2),
    ],
    ids=[
        "spec-from", "spec-internal", "filter-name", "filter-parameter", "select-sigs",
        "detector-name", "detector-parameter", "detector-mode", "detector-rule",
        "p-without-equals", "p-from-digits", "explorer-name", "explorer-parameter",
        "rpc-timeout", "rpc-url", "local-dir", "feed-path", "detector-vuln",
        "export-feed-vuln", "cache-dir", "fixtures-out", "fixtures-root", "bench-root",
        "fixtures-scenario",
    ],
)
def test_cli_error_line_quotes_a_long_value_cut_short(capsys, bank_dir, argv, expected_code):
    # a command-line value of 100,000 characters (4,000 digits for -p from)
    # is named on one stderr line that quotes only a prefix of it
    code, out, err = run_cli(capsys, *(arg.replace("BANK", str(bank_dir)) for arg in argv))
    assert code == expected_code and out == ""
    assert err.startswith("evmsleuth: ")
    assert err.count("\n") == 1 and len(err) < 300


def test_cli_fixtures_build_and_scale(capsys, tmp_path):
    out_dir = tmp_path / "built"
    code, _, err = run_cli(
        capsys,
        "fixtures", "build", "--scenario", "Bank", "--out", str(out_dir),
        "--seed", str(SEED),
    )
    assert code == 0
    assert (out_dir / "chain.json").exists()
    assert "Bank" in err

    root = tmp_path / "scaledroot"
    code, _, _ = run_cli(
        capsys,
        "fixtures", "scale", "--axis", "instructions", "--magnitude", "0",
        "--root", str(root), "--seed", str(SEED),
    )
    assert code == 0
    assert (root / "instructions-0" / "chain.json").exists()

    code, out, _ = run_cli(
        capsys,
        "bench", "--root", str(root), "--axis", "instructions",
        "--magnitudes", "0", "--repeats", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("axis,magnitude,mode,level,repeats,analyze_s")
    assert len(lines) == 2
    assert lines[1].startswith("instructions,0,local,evm,1,")


@pytest.mark.parametrize(
    "magnitudes, message",
    [(",", "--magnitudes needs at least one integer"), ("-5", "magnitude must be non-negative")],
)
def test_cli_bench_rejects_bad_magnitudes(capsys, tmp_path, magnitudes, message):
    code, out, err = run_cli(
        capsys,
        "bench", "--root", str(tmp_path), "--axis", "storage", "--magnitudes", magnitudes,
    )
    assert code == 2 and out == "" and err == f"evmsleuth: {message}\n"


# -- the argument surface --

# main reads a plain investigate or export-feed command line itself
# (read_plain) and hands any other to the full parser; every argv here must
# read as it does through the full parser
_INVESTIGATE = ["investigate", "-t", "x", "-e", "local[dir=/tmp/bank]"]
_SCALE = ["fixtures", "scale", "--axis", "storage", "--magnitude", "10"]
_BENCH = ["bench", "--root", "r", "--axis", "storage", "--magnitudes", "1,2"]
_REFUSED_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "investigate"],
    ["investigate", "-h"],
    ["fixtures", "-h"],
    ["fixtures", "build", "-h"],
    ["fixtures", "scale", "-h"],
    ["bench", "-h"],
    ["export-feed", "-h"],
    ["frobnicate"],
    ["investigat", "-t", "x"],
    ["investigate"],
    ["investigate", "-e", "local[dir=/tmp/bank]"],
    ["investigate", "-t"],
    ["fixtures"],
    ["fixtures", "build"],
    ["fixtures", "scale", "--axis", "storage"],
    ["fixtures", "scale", "--axis", "depth", "--magnitude", "10"],
    ["fixtures", "scale", "--axis", "storage", "--magnitude", "ten"],
    ["bench", "--root", "r", "--axis", "storage"],
    ["export-feed"],
    [*_INVESTIGATE, "--bogus"],
    [*_INVESTIGATE, "fixtures"],
    ["fixtures", "--bogus"],
    ["fixtures", "build", "--out", "o", "--bogus"],
    [*_SCALE, "--bogus"],
    [*_BENCH, "--bogus"],
    [*_BENCH, "--mode", "turbo"],
    ["export-feed", "-e", "local[dir=/tmp/bank]", "--bogus"],
]
_VALID_ARGVS = [
    _INVESTIGATE,
    [*_INVESTIGATE, "-p", "from=1", "-p", "to=2", "-f", "spec", "-d", "block", "-c", "c"],
    ["fixtures", "build", "--out", "o"],
    ["fixtures", "build", "--scenario", "Bank", "--out", "o", "--seed", "11"],
    _SCALE,
    [*_SCALE, "--root", "r", "--out", "o", "--seed", "3"],
    _BENCH,
    [*_BENCH, "--mode", "cached", "--level", "block", "--repeats", "1"],
    ["export-feed", "-e", "local[dir=/tmp/bank]"],
    ["export-feed", "-e", "e", "-f", "spec", "-p", "from=1", "-c", "c", "--vuln", "v.json"],
    # the command lines pipebench runs
    ["investigate", "-t", "pipebench-local", "-e", "local[dir=/tmp/f]", "-d", "block"],
    ["investigate", "-t", "pipebench-cached", "-e", "local[dir=/tmp/f]", "-d", "evm",
     "-c", "/tmp/cache/f"],
    ["investigate", "-t", "pipebench-tracer", "-e", "local[dir=/tmp/f]",
     "-d", "evm[mode=customTracer]"],
]


def _refusal(capsys, call) -> tuple[object, str, str]:
    with pytest.raises(SystemExit) as exit_info:
        call()
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _REFUSED_ARGVS, ids=" ".join)
def test_cli_refusals_read_as_through_the_full_parser(capsys, argv):
    expected = _refusal(capsys, lambda: make_parser().parse_args(argv))
    assert _refusal(capsys, lambda: main(argv)) == expected


def test_cli_usage_texts_name_the_commands(capsys):
    # what the full parser says too, pinned: the usage line lists every
    # command, and a missing one is called "command"
    usage = "usage: evmsleuth [-h] {investigate,fixtures,bench,export-feed} ...\n"
    assert _refusal(capsys, lambda: main([])) == (
        2, "", usage + "evmsleuth: error: the following arguments are required: command\n"
    )
    assert _refusal(capsys, lambda: main([*_INVESTIGATE, "--bogus"])) == (
        2, "", usage + "evmsleuth: error: unrecognized arguments: --bogus\n"
    )


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
def test_cli_arguments_parse_as_through_the_full_parser(argv):
    # read_plain reads every investigate and export-feed command line here,
    # and leaves the others to the full parser
    expected = vars(make_parser().parse_args(argv))
    args = read_plain(argv)
    if argv[0] in PLAIN_COMMANDS:
        assert args is not None and vars(args) == expected
    else:
        assert args is None


_PLAIN_FLAGS = sorted({flag for _, options in PLAIN_COMMANDS.values()
                       for option in options for flag in option.flags})
_PLAIN_VALUES = ["", "x", "a=b", "investigate"]
_TOKENS = [*_PLAIN_FLAGS, "-h", "--help", "--", "--ta", "--cach", "--tag=x", "-tx",
           *_PLAIN_VALUES, "-1", "-x y"]


@st.composite
def _command_lines(draw) -> list[str]:
    # a command and FLAG VALUE pairs: each required option given, each flag
    # the command's own and each value plain, four times in five; else any
    # token in its place. Then, one time in five, a stray token anywhere.
    def one_in_five(usual: list[str]) -> str:
        return draw(st.sampled_from(_TOKENS if draw(st.integers(0, 4)) == 0 else usual))

    command = draw(st.sampled_from(sorted(PLAIN_COMMANDS)))
    options = PLAIN_COMMANDS[command][1]
    own = [flag for option in options for flag in option.flags]
    pairs = [(option.flags[0], one_in_five(_PLAIN_VALUES))
             for option in options if option.required and draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(0, 3))):
        pairs.append((one_in_five(own), one_in_five(_PLAIN_VALUES)))
    argv = [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_command_lines())
def test_read_plain_reads_what_the_full_parser_reads(argv):
    # whatever command line read_plain accepts, the full parser reads the
    # same way; it declines the rest, which main hands to the full parser
    args = read_plain(argv)
    if args is not None:
        assert vars(args) == vars(make_parser().parse_args(argv))


def test_a_plain_command_line_never_loads_argparse(bank_dir, tmp_path):
    # a fresh run of a command line read_plain reads imports neither
    # argparse nor gettext; -h still gets the full parser's help
    explorer = ["-e", f"local[dir={bank_dir}]"]
    for argv in (
        ["investigate", "-t", "x", *explorer],
        ["investigate", "-t", "x", *explorer, "-d", "block", "-c", str(tmp_path / "cache")],
        ["export-feed", *explorer],
    ):
        run = run_isolated_cli(*argv)
        assert run.returncode == 0, run.stderr
        assert {"argparse", "gettext"} & modules_loaded(run) == set()
    for argv in (["investigate", "-h"], ["export-feed", "--help"]):
        run = run_isolated_cli(*argv)
        assert run.returncode == 0
        assert run.stdout.startswith(f"usage: evmsleuth {argv[0]} [-h]")


@pytest.mark.parametrize("argv", [[], _INVESTIGATE + ["--bogus"], ["fixtures", "scale", "-h"]])
def test_cli_main_without_arguments_reads_sys_argv(capsys, monkeypatch, argv):
    expected = _refusal(capsys, lambda: make_parser().parse_args(argv))
    monkeypatch.setattr(sys, "argv", ["evmsleuth", *argv])
    assert _refusal(capsys, main) == expected


@pytest.mark.parametrize(
    "command", [["investigate", "-t", "x"], ["investigate", "-t", "x", "-d", "block"], ["export-feed"]],
    ids=["evm", "block", "export-feed"],
)
def test_cli_empty_cache_directory_exits_2(capsys, monkeypatch, bank_dir, tmp_path, command):
    # Path("") is the current directory: the cache must not land there
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "-e", f"local[dir={bank_dir}]", "-c", "")
    assert (code, out) == (2, "")
    assert err == "evmsleuth: -c needs a cache directory, got an empty path\n"
    assert list(tmp_path.iterdir()) == []


_RUN = ["investigate", "-t", "x", "-e"]
_RUN_ARCHIVE = [*_RUN, "local[dir=ARCHIVE]"]
_SCALE_STORAGE = ["fixtures", "scale", "--axis", "storage", "--magnitude", "10"]
_EMPTY_PATHS = {
    # name: (argv, with ARCHIVE for an archive outside the working
    # directory; the message before ", got an empty path"), as for -c
    # (test_cli_empty_cache_directory_exits_2)
    "local-dir": ([*_RUN, "local[dir=]"], "local dir= needs an archive directory"),
    "export-feed-dir": (["export-feed", "-e", "local[dir=]"], "local dir= needs an archive directory"),
    "detector-vuln": (
        [*_RUN_ARCHIVE, "-d", "evm[vuln=]"],
        "vuln= needs a vulnerability description",
    ),
    "feed-path": (
        [*_RUN_ARCHIVE, "-f", "feed[path=]"],
        "feed path= needs a feed file",
    ),
    "export-feed-vuln": (
        ["export-feed", "-e", "local[dir=ARCHIVE]", "--vuln", ""],
        "--vuln needs a vulnerability description",
    ),
    "fixtures-build-out": (
        ["fixtures", "build", "--scenario", "Bank", "--out", ""], "--out needs an output directory"
    ),
    "fixtures-scale-out": ([*_SCALE_STORAGE, "--out", ""], "--out needs an output directory"),
    "fixtures-scale-root": ([*_SCALE_STORAGE, "--root", ""], "--root needs a fixture root directory"),
    "bench-root": (
        ["bench", "--root", "", "--axis", "storage", "--magnitudes", "10"],
        "--root needs a fixture root directory",
    ),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_PATHS))
def test_cli_empty_path_exits_2_and_writes_nothing(capsys, monkeypatch, bank_dir, tmp_path, name):
    # Path("") is the current directory: no command reads or writes there
    # when a path it names is empty
    argv, message = _EMPTY_PATHS[name]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *(arg.replace("ARCHIVE", str(bank_dir)) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"evmsleuth: {message}, got an empty path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["investigate", "-t", "x", "-d", "evm[mode=customTracer]"], 2),
        (["investigate", "-t", "x", "-d", "evm[bogus=1]"], 2),
        (["investigate", "-t", "x", "-d", "evm[vuln=missing.json]"], 2),
        (["investigate", "-t", "x", "-f", "bogus"], 2),
        (["investigate", "-t", "x", "-p", "from=abc"], 2),
        (["investigate", "-t", "x", "-f", "feed[path=missing.csv]"], 2),
        (["export-feed", "-f", "bogus"], 2),
        (["export-feed", "--vuln", "missing.json"], 2),
        (["export-feed", "-p", "to=abc"], 2),
        (["export-feed", "-f", "feed[path=feed.csv]"], 2),
        (["investigate", "-t", "x", "-e", "local[dir=no-archive]"], 3),
        (["export-feed", "-e", "local[dir=no-archive]"], 3),
    ],
)
def test_cli_refused_command_line_creates_no_cache_directory(
    capsys, monkeypatch, bank_dir, tmp_path, argv, expected_code
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "feed.csv").write_text("block_number,tx_hash\n")
    explorer = [] if "-e" in argv else ["-e", f"local[dir={bank_dir}]"]
    code, out, err = run_cli(capsys, *argv, *explorer, "-c", "NEW")
    assert (code, out) == (expected_code, "")
    assert err.startswith("evmsleuth: ") and err.count("\n") == 1
    assert not (tmp_path / "NEW").exists()




# -- exit-code property --

# Free text never holds "=", so every key=value pair in a generated
# component has one of the keys below, and the file-valued parameters only
# ever name a path from `path_set`.
_TEXT = st.text(st.characters(blacklist_characters="="), max_size=12)


@pytest.fixture(scope="module")
def path_set(bank_dir, tmp_path_factory):
    """Per file-valued parameter: missing, directory, regular file,
    non-UTF-8, empty and valid (the valid one listed twice)."""
    base = tmp_path_factory.mktemp("paths")
    regular = base / "regular.txt"
    regular.write_text("plain text\n")
    latin1 = base / "latin1.txt"
    latin1.write_bytes("caf\xe9\n".encode("latin-1"))
    empty = base / "empty.txt"
    empty.write_text("")
    vuln = bank_dir / "vulns" / "Bank.json"
    feed = base / "feed.csv"
    query = VulnSpec.from_document(json.loads(vuln.read_text())).query
    feed.write_text(write_csv_feed(tx_list(ReadState(LocalExplorer(bank_dir)), query)))
    (base / "cache").mkdir()
    kinds = [str(p) for p in (base / "absent", base, regular, latin1, empty)]
    return {
        "vuln": [*kinds, str(vuln), str(vuln)],
        "path": [*kinds, str(feed), str(feed)],
        "cache": [*kinds, str(base / "cache"), str(base / "cache")],
    }


def _pick(draw, options):
    """One of `options`, or free text one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_TEXT)
    return draw(st.sampled_from(options))


def _component(draw, names, params, required=()):
    """'name' or 'name[key=value,...]', the values drawn by `params`; the
    `required` keys are always among them."""
    name = _pick(draw, names)
    optional = sorted(set(params) - set(required))
    keys = [*required, *draw(st.lists(st.sampled_from(optional), max_size=2, unique=True))]
    pairs = [f"{key}={params[key](draw)}" for key in keys]
    if draw(st.integers(0, 9)) == 0:
        pairs.append(_pick(draw, ["x=1", "=1", "dir=."]))
    return f"{name}[{','.join(pairs)}]" if pairs or draw(st.booleans()) else name


@st.composite
def investigate_argv(draw, archive, paths):
    def one_of(options):
        return lambda draw: _pick(draw, options)

    def path(kind):
        return lambda draw: draw(st.sampled_from(paths[kind]))

    ints = ["1", "3", "10", "0", "-1", "12", "0x2"]
    # an rpc explorer always names a url, and a valid descriptor (only local
    # archives carry one implicitly; bad descriptor paths are drawn with
    # local ones), so that its runs reach the node
    rpc = draw(st.booleans())
    if rpc:
        explorer = _component(draw, ["rpc"], {
            "url": lambda draw: draw(st.sampled_from([
                "http://127.0.0.1:8545", "https://127.0.0.1/rpc", "http://[::1]:8545/",
                "notaurl", "ftp://x/y", "http://", "http://h:port",
            ])),
            "retries": one_of(ints),
            "timeout": one_of(["1", "0.5", "0", "inf", "1e10", "abc"]),
        }, required=["url"])
        vuln = lambda draw: paths["vuln"][-1]
    else:
        explorer = f"local[dir={archive}]"
        vuln = path("vuln")
    argv = ["investigate", "-t", "prop", "-e", explorer]
    argv += ["-d", _component(draw, ["evm", "block"], {
        "vuln": vuln,
        "rule": one_of(["reentrancy", "dos"]),
        "mode": one_of(["local", "customTracer"]),
    }, required=["vuln"] if rpc else [])]
    if draw(st.booleans()):
        argv += ["-f", _component(draw, ["spec", "select", "feed"], {
            "from": one_of(ints),
            "to": one_of(ints),
            "internal": one_of(["true", "false"]),
            "sigs": one_of(["withdraw(uint256)", "deposit()|withdraw(uint256)", "x"]),
            "path": path("path"),
        })]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["-p", f"{_pick(draw, ['from', 'to'])}={_pick(draw, ints)}"]
    if draw(st.booleans()):
        argv += ["-c", draw(st.sampled_from(paths["cache"]))]
    # argparse rejects option-like values itself, before main() runs
    assume(not any(value.startswith("-") for value in argv[4::2]))
    return argv


def _node_reply(kind):
    """A stand-in for http_post whose node refuses the connection, is busy
    (HTTP 429 with Retry-After) or answers garbage."""

    def post(url, body, timeout):
        if kind == "refused":
            raise URLError(ConnectionRefusedError(111, "Connection refused"))
        if kind == "busy":
            raise HTTPError(url, 429, "Too Many Requests", {"Retry-After": "1"}, None)
        return b"that is no json"

    return post


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_code_is_always_documented(bank_dir, path_set, data):
    argv = data.draw(investigate_argv(bank_dir, path_set))
    node = _node_reply(data.draw(st.sampled_from(["refused", "busy", "garbage"])))
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("evmsleuth.explorer.http_post", node),
        mock.patch("evmsleuth.explorer.sleep"),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        check_totals(json.loads(out.getvalue()))
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("evmsleuth: ")


# -- damaged trace files --


def _investigate(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["investigate", "-t", "f", *argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_archives(bank_dir, bec, bec_dir):
    """A Bank archive, and a SimulationBECToken archive whose descriptor
    turns internal discovery on."""
    assert bec.vuln["filter"]["includeInternal"]
    return [bank_dir, bec_dir]


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_damaged_trace_file_is_never_a_traceback(fuzz_archives, data):
    # Bank runs read the top-level candidates' traces; SimulationBECToken
    # runs also check every trace in range for internal calls
    base = data.draw(st.sampled_from(fuzz_archives))
    path = data.draw(st.sampled_from(sorted((base / "traces").glob("*.json"))))
    original = path.read_bytes()
    path.write_bytes(damaged(original, data.draw(damage(original))))
    try:
        for detector in ("evm", "evm[mode=customTracer]"):
            code, out, err = _investigate(["-e", f"local[dir={base}]", "-d", detector])
            assert code in (0, 2, 3), err
            if code == 0:
                check_totals(json.loads(out))
            else:
                assert out == "" and err.startswith("evmsleuth: ")
    finally:
        path.write_bytes(original)


# -- damaged archive and cache files --


def _results(doc: dict) -> dict:
    return {key: doc[key] for key in ("detections", "skips", "totals")}


@pytest.fixture(scope="module")
def damage_targets(bank_dir, bec, bec_dir, tmp_path_factory):
    """What one damage may hit, by kind: (files, command lines that read
    them, the report of a warm cache or None). The Bank archive's
    chain.json, state snapshots and descriptor are read by local runs at
    both levels; cache entries by the cached run that wrote them, over
    Bank at both levels and over SimulationBECToken, whose internal
    discovery shares its block and trace reads with the evm level."""
    assert bec.vuln["filter"]["includeInternal"]
    local = [["-e", f"local[dir={bank_dir}]", "-d", level] for level in ("evm", "block")]
    targets = {
        "chain.json": ([bank_dir / "chain.json"], local, None),
        "state": (sorted((bank_dir / "states").glob("*.json")), local, None),
        "vuln": (sorted((bank_dir / "vulns").glob("*.json")), local, None),
    }
    caches = tmp_path_factory.mktemp("warm-caches")
    for name, base, level in (
        ("bank-evm", bank_dir, "evm"),
        ("bank-block", bank_dir, "block"),
        ("bec-evm", bec_dir, "evm"),
    ):
        argv = ["-e", f"local[dir={base}]", "-d", level, "-c", str(caches / name)]
        assert _investigate(argv)[0] == 0  # cold: writes every entry
        code, out, err = _investigate(argv)
        assert code == 0, err
        targets[f"cache {name}"] = (entry_files(caches / name), [argv], json.loads(out))
        if name == "bank-evm":
            targets["anchor"] = ([caches / name / ANCHOR], [argv], None)
    # warm caches over the undamaged chain.json, which open its damage at once
    for level in ("evm", "block"):
        argv = ["-e", f"local[dir={bank_dir}]", "-d", level, "-c", str(caches / f"chain-{level}")]
        assert _investigate(argv)[0] == 0
        targets["chain.json"][1].append(argv)
    return targets


def entry_files(cache: Path) -> list[Path]:
    """The entries of a cache directory: its files but the anchor."""
    return sorted(path for path in cache.glob("*.json") if path.name != ANCHOR)


def _walk_refuses(entry: bytes, runs: list) -> bool:
    """Whether entry is a trace entry whose payload the walk refuses
    (TraceParseError, ReconstructionError), walked from its transaction's
    target in the archive that runs read."""
    doc = json.loads(entry)
    kind, *parts = json.loads(doc["key"])
    if kind != "trace":
        return False
    tx_hash, tracer = parts
    base = runs[0][runs[0].index("-e") + 1].removeprefix("local[dir=").removesuffix("]")
    blocks = json.loads((Path(base) / "chain.json").read_text())["blocks"]
    (to,) = (tx["to"] for b in blocks for tx in b["transactions"] if tx["hash"] == tx_hash)
    try:
        traces.reconstruct_trace(doc["payload"], int(to, 16), traces.Walk(relaxed=bool(tracer)))
    except (TraceParseError, ReconstructionError):
        return True
    return False


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_damaged_archive_or_cache_file_is_never_a_traceback(damage_targets, data):
    kind = data.draw(st.sampled_from(sorted(damage_targets)))
    files, runs, warm = damage_targets[kind]
    path = data.draw(st.sampled_from(files))
    original = path.read_bytes()
    kinds = ("truncate", "flip", "splice", "re-encode")
    # a cache entry may also be re-sealed: one value of its payload written
    # another way, under a digest that matches
    reseal = warm is not None and data.draw(st.sampled_from((*kinds, "re-seal"))) == "re-seal"
    if reseal:
        broken = data.draw(resealed(original))
    else:
        broken = damaged(original, data.draw(damage(original, kinds)))
    # a re-sealed trace entry the walk refuses is dropped and fetched again
    refused = reseal and _walk_refuses(broken, runs)
    changed = broken != original
    path.write_bytes(broken)
    codes = []
    try:
        for argv in runs:
            code, out, err = _investigate(argv)
            codes.append(code)
            assert code in (0, 2, 3), err
            if code != 0:
                assert out == "" and err.startswith("evmsleuth: ")
                continue
            doc = json.loads(out)
            check_totals(doc)
            if warm is None or reseal and not refused:
                continue
            # the damaged entry is dropped, fetched again and rewritten as
            # it was; nothing else about the run changes
            stats = doc["explorerStats"]
            assert (stats["dropped"], stats["innerCalls"]) == (changed, changed)
            assert _results(doc) == _results(warm)
            assert path.read_bytes() == original
    finally:
        path.write_bytes(original)
    if kind == "chain.json":
        # a warm cache opens a changed archive at once: a damaged one fails
        # as the local run does, and one that opens is no longer the archive
        # the directory is anchored to
        local, cached = codes[:2], codes[2:]
        assert cached == [code if code else 2 * changed for code in local]
    if kind == "anchor":  # names no archive, or another one
        assert codes == [2 * changed]


def _reseal_traces_the_walk_refuses(cache_dir) -> int:
    """Re-seal each trace entry under cache_dir that has a step with its
    first step's gas written as a string, a payload with its digest that
    the walk refuses; the number of entries re-sealed."""
    resealed_entries = 0
    for path in entry_files(cache_dir):
        entry = json.loads(path.read_bytes())
        if json.loads(entry["key"])[0] != "trace" or not entry["payload"]["structLogs"]:
            continue
        first = entry["payload"]["structLogs"][0]
        first["gas"] = str(first["gas"])
        text = json.dumps(entry["payload"], separators=(",", ":"), sort_keys=True)
        sha = digest(text.encode()).hex()
        path.write_text(f'{{"key":{json.dumps(entry["key"])},"payload":{text},"sha256":"{sha}"}}')
        resealed_entries += 1
    return resealed_entries


def test_a_trace_entry_the_walk_refuses_is_fetched_again(bank_dir, tmp_path):
    # Bank's trace entries re-sealed with their first step's gas written as
    # a string: payloads with their digests that the walk refuses. The first
    # warm run drops each and fetches it again, the second hits the
    # rewritten entries, and both report the local run's detections
    local = ["-e", f"local[dir={bank_dir}]", "-d", "evm"]
    code, out, err = _investigate(local)
    expected = json.loads(out)["detections"]
    assert code == 0 and len(expected) == 6, err
    cached = [*local, "-c", str(tmp_path / "cache")]
    assert _investigate(cached)[0] == 0
    resealed_entries = _reseal_traces_the_walk_refuses(tmp_path / "cache")
    assert resealed_entries == 8
    for dropped in (resealed_entries, 0):
        code, out, err = _investigate(cached)
        doc = json.loads(out)
        assert code == 0 and doc["skips"] == [] and doc["detections"] == expected, err
        stats = {"hits": resealed_entries - dropped, "dropped": dropped, "innerCalls": dropped}
        assert doc["explorerStats"]["byKind"]["trace"] == stats


@pytest.mark.parametrize("archive", ["bec", "long"])
def test_internal_discovery_fetches_a_trace_entry_the_walk_refuses_again(
    bec_dir, tmp_path, archive
):
    # the scan of internal discovery walks every trace in range, so a trace
    # entry the walk refuses is dropped and fetched again there, as the
    # level's own walk does: SimulationBECToken's short traces, and the
    # 21,000-step exploit trace of the instructions axis, whose refused hit
    # is streamed before the walk falls back to its whole decode
    if archive == "long":
        directory = tmp_path / "long"
        write_fixture(scale_fixture("DelayedUnderflow", "instructions", 21_000, seed=SEED), directory)
    else:
        directory = bec_dir
    local = ["-e", f"local[dir={directory}]", "-d", "evm", "-f", "spec[internal=true]"]
    code, out, err = _investigate(local)
    expected = json.loads(out)
    assert code == 0 and expected["detections"], err
    cached = [*local, "-c", str(tmp_path / "cache")]
    assert _investigate(cached)[0] == 0
    entries = [json.loads(path.read_bytes()) for path in entry_files(tmp_path / "cache")]
    trace_entries = sum(json.loads(entry["key"])[0] == "trace" for entry in entries)
    resealed_entries = _reseal_traces_the_walk_refuses(tmp_path / "cache")
    assert (trace_entries, resealed_entries) == {"bec": (22, 18), "long": (2, 2)}[archive]
    if archive == "long":
        sizes = [path.stat().st_size for path in entry_files(tmp_path / "cache")]
        assert max(sizes) > 20 * traces.TEXT_CHUNK  # the long hit is checked on the file, and streamed
    for dropped in (resealed_entries, 0):
        code, out, err = _investigate(cached)
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["detections"], doc["skips"]) == (expected["detections"], expected["skips"])
        stats = {"hits": trace_entries - dropped, "dropped": dropped, "innerCalls": dropped}
        assert doc["explorerStats"]["byKind"]["trace"] == stats


# -- the cache anchor --


def _sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_cache_directory_refuses_a_rebuilt_archive(capsys, tmp_path):
    # a fixture rescaled at another seed under a directory its cache was
    # filled over: the old answers name transactions the new chain does not
    # hold, so the directory is refused, naming both chain.json digests
    root, cache = tmp_path / "scaled", tmp_path / "cache"
    scale = ["fixtures", "scale", "--axis", "storage", "--magnitude", "50", "--root", str(root)]
    chain = root / "storage-50" / "chain.json"
    run = ["investigate", "-t", "x", "-e", f"local[dir={chain.parent}]", "-d", "block",
           "-c", str(cache)]
    assert run_cli(capsys, *scale, "--seed", "11")[0] == 0
    old = _sha256_of(chain)
    assert run_cli(capsys, *run)[0] == 0
    assert run_cli(capsys, *scale, "--seed", "12")[0] == 0
    new = _sha256_of(chain)
    assert new != old
    code, out, err = run_cli(capsys, *run)
    assert (code, out) == (2, "")
    assert err.startswith("evmsleuth: ") and err.count("\n") == 1
    assert old in err and new in err
    assert run_cli(capsys, *run[:-2])[0] == 0  # the rebuilt archive itself is sound


def _damage_chain(path: Path, kind: str):
    if kind == "missing":
        path.unlink()
    elif kind == "non-json":
        path.write_bytes(path.read_bytes()[:-2])
    else:  # a block without its hash
        chain = json.loads(path.read_text())
        del chain["blocks"][2]["hash"]
        path.write_text(json.dumps(chain))


@pytest.mark.parametrize("mode", ["local", "cold", "warm", "customTracer"])
@pytest.mark.parametrize("kind", ["missing", "non-json", "malformed-block"])
def test_cli_damaged_chain_json_exits_3_in_every_mode(capsys, bank_dir, tmp_path, kind, mode):
    # a warm cache is anchored to the undamaged chain.json, so it opens the
    # damaged one at once and fails as a local run does; a cold one fails
    # before its directory is made
    clone, cache = tmp_path / "clone", tmp_path / "cache"
    shutil.copytree(bank_dir, clone)
    detector = "evm[mode=customTracer]" if mode == "customTracer" else "evm"
    run = ["investigate", "-t", "x", "-e", f"local[dir={clone}]", "-d", detector]
    if mode in ("cold", "warm"):
        run += ["-c", str(cache)]
    if mode == "warm":
        assert run_cli(capsys, *run)[0] == 0
    _damage_chain(clone / "chain.json", kind)
    code, out, err = run_cli(capsys, *run)
    assert (code, out) == (3, "") and err.startswith("evmsleuth: ")
    assert cache.exists() == (mode == "warm")


def test_a_warm_cache_never_opens_the_archive(capsys, monkeypatch, bank_dir, tmp_path):
    opened = []
    real = LocalExplorer.__init__

    def counted(self, *args, **kwargs):
        opened.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LocalExplorer, "__init__", counted)
    for level in ("evm", "block"):
        cache = tmp_path / level
        run = ["investigate", "-t", "x", "-e", f"local[dir={bank_dir}]", "-d", level,
               "-c", str(cache)]
        stats = []
        for delete in (False, False, True):  # cold, warm, warm without one entry
            if delete:
                entry_files(cache)[0].unlink()
            opened.clear()
            code, out, err = run_cli(capsys, *run)
            assert code == 0, err
            stats.append(json.loads(out)["explorerStats"])
            assert len(opened) == [1, 0, 1][len(stats) - 1]
        _, warm, refilled = stats
        assert (warm["innerCalls"], refilled["innerCalls"]) == (0, 1)
        assert warm["hits"] == refilled["hits"] + 1


def test_a_cache_directory_without_an_anchor_is_adopted(capsys, bank_dir, tmp_path):
    # as one filled before anchors were written: the archive is opened at
    # once, the anchor written, and every entry answers as before
    cache = tmp_path / "cache"
    run = ["investigate", "-t", "x", "-e", f"local[dir={bank_dir}]", "-c", str(cache)]
    assert run_cli(capsys, *run)[0] == 0
    anchor = (cache / ANCHOR).read_bytes()
    assert anchor == b'{"chainSha256":"' + _sha256_of(bank_dir / "chain.json").encode() + b'"}'
    (cache / ANCHOR).unlink()
    code, out, err = run_cli(capsys, *run)
    assert code == 0, err
    stats = json.loads(out)["explorerStats"]
    assert (stats["innerCalls"], stats["hits"]) == (0, len(entry_files(cache)))
    assert (cache / ANCHOR).read_bytes() == anchor


def test_an_anchored_cache_refuses_an_explorer_that_names_no_digest(capsys, bank_dir, tmp_path):
    # an rpc node, or an archive opened before the cache saw its bytes
    cache = tmp_path / "cache"
    run = ["investigate", "-t", "x", "-c", str(cache)]
    assert run_cli(capsys, *run, "-e", f"local[dir={bank_dir}]")[0] == 0
    vuln = bank_dir / "vulns" / "Bank.json"
    code, out, err = run_cli(
        capsys, *run, "-e", "rpc[url=http://127.0.0.1:9]", "-d", f"evm[vuln={vuln}]"
    )
    assert (code, out) == (2, "")
    assert "names no digest" in err and _sha256_of(bank_dir / "chain.json") in err
    with pytest.raises(UsageError, match="names no digest"):
        CachedExplorer(LocalExplorer(bank_dir), cache)


# -- hostile feeds --

# The csv module's default field size limit.
CSV_FIELD_LIMIT = 131_072


@pytest.fixture(scope="module")
def bank_feed(spec, bank_dir, tmp_path_factory):
    """Bank's exported feed as lines, and the path a drawn feed is written to."""
    rows = tx_list(ReadState(LocalExplorer(bank_dir)), spec.query)
    return write_csv_feed(rows).splitlines(), tmp_path_factory.mktemp("feeds") / "feed.csv"


def _past_the_field_limit(draw) -> str:
    unit = draw(st.text(min_size=1, max_size=3))
    return unit * (CSV_FIELD_LIMIT // len(unit) + draw(st.integers(1, 1000)))


@st.composite
def _column_damage(draw) -> str:
    """What a damaged column may hold instead of its value."""
    kind = draw(st.sampled_from(["text", "digits", "hex", "long", "quoted"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    if kind == "digits":  # up to past the int() digit limit
        return draw(st.sampled_from(["0", "9"])) * draw(st.integers(1, 6000))
    if kind == "hex":
        return "0x" + draw(st.text(alphabet="0123456789abcdefABCDEF x", max_size=70))
    if kind == "long":
        return _past_the_field_limit(draw)
    return '"' + draw(st.text(max_size=20)) + draw(st.sampled_from(['"', '""', ""]))


@st.composite
def hostile_feed(draw, lines: list[str]) -> str:
    """Free text (after the feed's header or alone), the exported feed with
    one column damaged (a field past the csv module's field limit among the
    damages), or the exported feed with one hostile edit: a BOM, a NUL, CRLF
    or lone CR line ends, an unbalanced quote, or a line past that limit."""
    header, rows = lines[0], lines[1:]
    kind = draw(st.sampled_from(["free", "column", "hostile"]))
    if kind == "free":
        prefix = draw(st.sampled_from(["", header + "\n"]))
        return prefix + draw(st.text())
    if kind == "column":
        index = draw(st.integers(0, len(rows) - 1))
        fields = rows[index].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_column_damage())
        damaged_rows = [*rows[:index], ",".join(fields), *rows[index + 1:]]
        return "\n".join([header, *damaged_rows]) + "\n"
    text = "\n".join(lines) + "\n"
    edit = draw(st.sampled_from(["bom", "nul", "crlf", "cr", "quote", "long-line"]))
    if edit == "bom":
        return "\ufeff" + text
    if edit == "crlf":
        return text.replace("\n", "\r\n")
    if edit == "cr":
        return text.replace("\n", "\r")
    if edit == "long-line":
        at = draw(st.integers(1, len(lines)))
        long_line = ",".join(_past_the_field_limit(draw) for _ in range(2))
        return "\n".join([*lines[:at], long_line, *lines[at:]]) + "\n"
    at = draw(st.integers(0, len(text)))
    return text[:at] + {"nul": "\x00", "quote": '"'}[edit] + text[at:]


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hostile_feed_is_never_a_traceback(bank_dir, bank_feed, data):
    lines, path = bank_feed
    text = data.draw(hostile_feed(lines))
    try:
        parse_csv_feed(text)
    except FeedError:
        pass
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    for level in ("evm", "block"):
        code, out, err = _investigate(
            ["-e", f"local[dir={bank_dir}]", "-d", level, "-f", f"feed[path={path}]"]
        )
        assert code in (0, 2), err
        if code == 0:
            check_totals(json.loads(out))
        else:
            assert out == "" and err.startswith("evmsleuth: ")
