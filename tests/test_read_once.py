"""Read once per investigation: each block fetched and parsed once, each
candidate trace fetched and walked once, and no result changed by it."""

import contextlib
import io
import json
import shutil
from collections import Counter

import pytest

from evmsleuth import traces
from evmsleuth.cli import main
from evmsleuth.explorer import CachedExplorer, LocalExplorer
from evmsleuth.fixtures import SCENARIO_NAMES, build_fixture_chain, write_fixture

SEED = 11

# filter switches: the descriptor's own, and internal discovery forced on
FILTERS = {"spec": [], "internal": ["-f", "spec[internal=true]"]}


@pytest.fixture(scope="module")
def scenario_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("read-once")
    for name in SCENARIO_NAMES:
        write_fixture(build_fixture_chain(name, seed=SEED), base / name)
    return {name: base / name for name in SCENARIO_NAMES}


def investigate(*argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["investigate", "-t", "reads", *argv])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


@pytest.fixture
def reads(monkeypatch):
    """Counts, per key, of block fetches, trace fetches (with whether the
    trace was pc-filtered) and trace walks, on both sides of the cache."""
    counts = Counter()

    def spy(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, layer in ((LocalExplorer, "archive"), (CachedExplorer, "cache")):
        spy(owner, "collect_block_details", lambda ex, n, layer=layer: ("block", layer, n))
        spy(
            owner,
            "tx_trace",
            lambda ex, h, tracer=None, layer=layer: ("trace", layer, h, tracer is not None),
        )
    spy(traces, "decode_steps", lambda *args, **kwargs: ("walk",))
    return counts


def scanned_transactions(directory) -> int:
    """Transactions in the descriptor's block range that have a call target:
    the ones internal discovery traces."""
    vuln = json.loads(next((directory / "vulns").glob("*.json")).read_text())
    lo, hi = vuln["filter"]["blockRange"]
    chain = json.loads((directory / "chain.json").read_text())
    return sum(
        tx["to"] is not None
        for block in chain["blocks"]
        if lo <= block["number"] <= hi
        for tx in block["transactions"]
    )


def one_investigation(reads, *argv) -> tuple[dict, Counter]:
    reads.clear()
    doc = investigate(*argv)
    return doc, Counter(reads)


def assert_read_once(counts: Counter, layer: str):
    """Each block number and each (hash, filtered) trace is asked of the
    outer layer at most once, and each fetched trace is walked once."""
    blocks = {key: n for key, n in counts.items() if key[:2] == ("block", layer)}
    fetched = {key: n for key, n in counts.items() if key[:2] == ("trace", layer)}
    assert blocks and max(blocks.values()) == 1, blocks
    assert all(n == 1 for n in fetched.values()), fetched
    assert counts[("walk",)] == len(fetched)


@pytest.mark.parametrize("filt", sorted(FILTERS))
@pytest.mark.parametrize("level", ["evm", "block"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_each_block_and_trace_is_read_once(reads, scenario_dirs, tmp_path, scenario, level, filt):
    base = ["-e", f"local[dir={scenario_dirs[scenario]}]", "-d", level, *FILTERS[filt]]
    runs = []
    for repeat in range(2):  # a second investigation pays all its reads again
        cache = ["-c", str(tmp_path / f"cache-{repeat}")]
        local = one_investigation(reads, *base)
        cold = one_investigation(reads, *base, *cache)
        warm = one_investigation(reads, *base, *cache)
        runs.append([counts for _, counts in (local, cold, warm)])
        assert_read_once(local[1], "archive")
        assert_read_once(cold[1], "cache")
        assert_read_once(warm[1], "cache")
        assert cold[0]["explorerStats"]["innerCalls"] == cold[0]["explorerStats"]["distinctQueries"]
        assert warm[0]["explorerStats"]["innerCalls"] == 0
        assert cold[0]["detections"] == warm[0]["detections"] == local[0]["detections"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_custom_tracer_scans_full_traces_and_fetches_filtered_ones(reads, scenario_dirs, scenario):
    # the scan reads full traces and the level pc-filtered ones, so nothing
    # is reused: one full fetch and walk per scanned transaction, one
    # filtered fetch and walk per candidate
    directory = scenario_dirs[scenario]
    argv = ["-e", f"local[dir={directory}]", "-d", "evm[mode=customTracer]", *FILTERS["internal"]]
    runs = []
    for _ in range(2):
        doc, counts = one_investigation(reads, *argv)
        full = [n for key, n in counts.items() if key[0] == "trace" and not key[3]]
        filtered = [n for key, n in counts.items() if key[0] == "trace" and key[3]]
        assert set(full) == set(filtered) == {1}
        assert len(full) == scanned_transactions(directory)
        assert len(filtered) == doc["totals"]["distinctTxs"] > 0
        assert counts[("walk",)] == len(full) + len(filtered)
        assert max(n for key, n in counts.items() if key[0] == "block") == 1
        runs.append(counts)
    assert runs[0] == runs[1]


def results(doc: dict) -> dict:
    return {key: doc[key] for key in ("detections", "skips", "totals")}


def export_feed(path, explorer, *argv):
    """Write the candidate CSV of a scan to path, and return path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["export-feed", "-e", explorer, *argv]) == 0
    path.write_text(out.getvalue())
    return path


@pytest.mark.parametrize("filt", sorted(FILTERS))
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_reuse_changes_no_result(scenario_dirs, tmp_path, scenario, filt):
    # a feed run scans nothing, so it reuses no trace; it must find what the
    # spec-filter run finds with the traces internal discovery kept
    directory = scenario_dirs[scenario]
    explorer = f"local[dir={directory}]"
    feed = export_feed(tmp_path / "feed.csv", explorer, *FILTERS[filt])
    for detector, cache in (
        ("evm", []),
        ("evm", ["-c", str(tmp_path / "cache-evm")]),
        ("evm[mode=customTracer]", []),
        ("block", []),
        ("block", ["-c", str(tmp_path / "cache-block")]),
    ):
        scanned = investigate("-e", explorer, "-d", detector, *FILTERS[filt], *cache)
        fed = investigate("-e", explorer, "-d", detector, "-f", f"feed[path={feed}]", *cache)
        assert results(fed) == results(scanned)
        assert scanned["totals"]["candidates"] > 0


def test_a_kept_trace_serves_only_the_root_it_was_walked_from(scenario_dirs, tmp_path):
    # A block that lists one hash twice with two call targets: the scan keeps
    # the trace it walked from the first target, while the level evaluates
    # the block's last transaction of that hash, as a feed run does; that
    # one has the other target, so it needs its own walk.
    source = scenario_dirs["DelayedUnderflow"]
    base = tmp_path / "archive"
    shutil.copytree(source, base)
    labels = json.loads((base / "labels.json").read_text())
    exploit = next(h for h, label in labels.items() if label["class"] != "benign")
    chain = json.loads((base / "chain.json").read_text())
    block = next(b for b in chain["blocks"] for tx in b["transactions"] if tx["hash"] == exploit)
    tx = next(tx for tx in block["transactions"] if tx["hash"] == exploit)
    block["transactions"].append(dict(tx, to=tx["from"]))
    (base / "chain.json").write_text(json.dumps(chain))
    explorer = f"local[dir={base}]"
    feed = export_feed(tmp_path / "feed.csv", explorer, *FILTERS["internal"])
    scanned = investigate("-e", explorer, *FILTERS["internal"])
    fed = investigate("-e", explorer, "-f", f"feed[path={feed}]")
    assert results(scanned) == results(fed)
    assert exploit not in {d["txHash"] for d in scanned["detections"]}
