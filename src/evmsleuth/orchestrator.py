"""Investigation driver: filter, fetch, analyze, report.

An investigation runs one detector level over one contract's vulnerability
description:

  evm    fetch traces for every candidate transaction, rebuild call frames,
         and run the instruction-level rules. Slow, exact, catches exploits
         that never perturb the block edge.

  block  never fetches a trace and never steps the interpreter. For each
         block holding candidates it compares the pre and post state through
         point queries and applies the block-edge rules. Fast, and blind to
         anything that cancels out within the block.

Three access modes, identical results, different costs: "local" reads the
backend directly, "cached" puts a persistent read-through cache in front,
"customTracer" (evm level only) asks the backend for pc-filtered traces
instead of complete ones.

run_investigation returns the report document (docs/formats.md) and is
its one writer: it fills the config, totals, timings and cache counters,
and the level functions append to it the detections, built by the rules in
the form in which they are reported, and the skip records. Per-transaction
and per-block failures degrade to skip records; a feed row whose block does
not hold its transaction is one at either level. Only configuration
problems (a bad descriptor is refused before the run, by
VulnSpec.from_document) and an unreachable archive abort a run. The report
carries wall-clock per phase and the number of interpreter steps executed,
so "block level does no replay" is a measurable claim rather than a
promise. The interpreter is producer code (evmsleuth.fixtures.interpreter)
that no module of the investigator imports, so stepsInterpreted reads its
STEP_COUNTER from sys.modules when something else loaded it, a test that
built its fixtures in-process say, and is 0 when it is not loaded.

Read once: run_investigation makes one filters.ReadState, which the filter
and the level share and which dies with the investigation. Each block's
transactions are fetched once. When internal discovery runs
and the evm level reads full traces (local or cached mode), the scan's one
walk of a trace also builds the gated steps, and the level evaluates the
trace kept for each candidate instead of fetching and walking it again.
customTracer mode (the level asks for a pc-filtered trace the scan did not
read) and the block level (no trace) keep nothing; a feed scans nothing,
so the level fetches each trace and each block once. In cached mode the
report's explorerStats.hits counts the hits of these single reads: a
block or trace the level takes from the read state is no cache lookup.
Each transaction object is read once, by the explorer's check of its
block (explorer.block_envelope, the check behind exit 3, which
LocalExplorer runs on every block when it opens the archive), and the
read state takes the Transaction values that check read
(block_transactions). The cache stores a block as its envelope document,
which that check reads on each hit. So in cached mode each block entry
has its transactions read once, and once more when the archive is opened
as well (a cold cache, or a miss in a warm one); a warm cache that misses
nothing never opens the archive. Every trace walk, the scan's and the
level's, is the read state's (ReadState.walk) and goes through its one
ingest memo (traces.IngestMemo), so each op and stack word is checked
once per investigation.

Trace decode: a trace text read from a file (a local trace file, a
cache entry) arrives as a span and is decoded by the walk
(ReadState.walk, traces.reconstruct_trace), in one call when it is
at most one chunk and a block and a chunk at a time when longer, so its
decode is timed in "analyze" with the walk and the rules, and "fetch"
is the opening of its file and, for a cache hit, the check of its
digest. A cache miss reads the text within "fetch", to write its entry,
and answers a short one as the document it decoded. A text that is not
JSON, or not UTF-8, is a "fetch failed" skip record that quotes the
error.

At the evm level each transaction's fetch, ingest and rules run with the
cyclic garbage collector paused (traces.gc_paused), and the trace is
dropped before the pause ends. Decoded JSON is a tree with no reference
cycle, so reference counting frees all of it and the collector never has
to traverse the containers of the chunks streamed through the walk, or of
a document parsed whole; nothing is lost by the pause. The block level
runs with the collector on: its cost is the per-query snapshot read that
the paper's cost shape is about, and it holds no trace.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .errors import ArchiveGapError, ProtocolError, SleuthError, UsageError
from .explorer import CachedExplorer, ExplorerView
from .filters import FilterQuery, ReadState, TxRef, tx_list
from .rules_block import evaluate_block
from .rules_evm import VulnSpec, evaluate_trace
from .traces import gc_paused
from .words import address_hex, hash_hex

LEVELS = ("evm", "block")
MODES = ("local", "cached", "customTracer")


@dataclass
class InvestigationConfig:
    tag: str
    spec: VulnSpec
    explorer: object
    level: str = "evm"
    mode: str = "local"
    shared_params: dict = field(default_factory=dict)
    feed: list[TxRef] | None = None
    query: FilterQuery | None = None

    def __post_init__(self):
        if self.level not in LEVELS:
            raise UsageError(f"unknown detector level {self.level!r} (use evm or block)")
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r} (use local, cached, or customTracer)")
        if self.mode == "customTracer" and self.level != "evm":
            raise UsageError("customTracer mode only applies to the evm level")
        if self.mode == "cached" and not isinstance(self.explorer, CachedExplorer):
            raise UsageError("cached mode needs a cache directory (-c)")


def _tracer_spec(config: InvestigationConfig) -> dict | None:
    if config.mode != "customTracer":
        return None
    pcs = sorted(frozenset().union(*config.spec.gate.values()))
    return {"pcSet": pcs, "includeCallBoundaries": True}


def _steps_interpreted() -> int:
    """Instructions the fixture interpreter has executed in this process;
    0 when it is not loaded, as it never is by an investigation alone."""
    interpreter = sys.modules.get("evmsleuth.fixtures.interpreter")
    return 0 if interpreter is None else interpreter.STEP_COUNTER.value


def run_investigation(config: InvestigationConfig) -> dict:
    """The report document of one investigation (docs/formats.md)."""
    spec = config.spec
    query = config.query or spec.query
    timings = {"filter": 0.0, "fetch": 0.0, "analyze": 0.0}
    steps_before = _steps_interpreted()
    t_start = time.perf_counter()

    # the evm level reuses the full traces internal discovery walks for it
    reuse = config.level == "evm" and config.mode != "customTracer"
    reads = ReadState(config.explorer, spec.gate if reuse else None)
    t0 = time.perf_counter()
    if config.feed is not None:
        rows = list(config.feed)
    else:
        rows = tx_list(reads, query)
    timings["filter"] = time.perf_counter() - t0

    report = {
        "config": {
            "tag": config.tag,
            "level": config.level,
            "mode": config.mode,
            "scenario": spec.scenario,
            "contract": address_hex(spec.contract),
            "filter": {
                "selectors": list(query.selectors),
                "includeInternal": query.include_internal,
                "blockRange": list(query.block_range),
            },
            "sharedParams": dict(config.shared_params),
        },
        "detections": [],
        "skips": [],
        "totals": {"candidates": len(rows)},
    }
    level = _run_evm_level if config.level == "evm" else _run_block_level
    level(config, rows, report, timings, reads)

    timings["total"] = time.perf_counter() - t_start
    report["totals"]["detections"] = len(report["detections"])
    report["totals"]["skips"] = len(report["skips"])
    report["stepsInterpreted"] = _steps_interpreted() - steps_before
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    if isinstance(config.explorer, CachedExplorer):
        ex = config.explorer
        report["explorerStats"] = {
            "distinctQueries": len(ex.fetches),
            "innerCalls": sum(ex.fetches.values()),
            "hits": ex.hits,
            "dropped": ex.dropped,
            "byKind": {kind: dict(counts) for kind, counts in sorted(ex.by_kind.items())},
        }
    return report


def _run_evm_level(config, rows, report, timings, reads):
    spec = config.spec
    explorer = config.explorer
    tracer = _tracer_spec(config)
    skips = report["skips"]
    order: dict[bytes, int] = {}
    for row in rows:
        order.setdefault(row.tx_hash, row.block_number)
    report["totals"]["distinctTxs"] = len(order)
    report["totals"]["blocksEvaluated"] = len(set(order.values()))

    for tx_hash, number in order.items():
        label = f"tx {hash_hex(tx_hash)}"
        with gc_paused():  # the trace lives and dies in here
            t0 = time.perf_counter()
            trace = None
            try:
                tx = reads.transaction(number, tx_hash)
                if tx is None:
                    skips.append(f"{label}: not in block {number}, skipped")
                    continue
                if tx.to is None:
                    skips.append(f"{label}: contract creation, skipped")
                    continue
                rec = reads.take_trace(tx)
                if rec is None:
                    trace = explorer.tx_trace(tx_hash, tracer)
            except (ArchiveGapError, ProtocolError) as err:
                skips.append(f"{label}: fetch failed, skipped ({err})")
                continue
            finally:
                timings["fetch"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            try:
                if rec is None:
                    rec = reads.walk(trace, tx, tracer, spec.gate)
                found, notes = evaluate_trace(rec, spec, tx_hash, number)
            except (ArchiveGapError, ProtocolError) as err:  # a text is not JSON
                skips.append(f"{label}: fetch failed, skipped ({err})")
                continue
            except SleuthError as err:
                skips.append(f"{label}: analysis failed, skipped ({err})")
                continue
            finally:
                del trace
                timings["analyze"] += time.perf_counter() - t0
            report["detections"].extend(found)
            skips.extend(notes)


def _run_block_level(config, rows, report, timings, reads):
    spec = config.spec
    explorer = config.explorer
    selectors = spec.query.selector_bytes()
    skips = report["skips"]

    by_block: dict[int, list[TxRef]] = {}
    for row in rows:
        if row.internal or row.to != spec.contract or row.selector not in selectors:
            continue
        by_block.setdefault(row.block_number, []).append(row)
    report["totals"]["distinctTxs"] = len({row.tx_hash for v in by_block.values() for row in v})
    report["totals"]["blocksEvaluated"] = len(by_block)

    for number in sorted(by_block):
        wanted = dict.fromkeys(row.tx_hash for row in by_block[number])
        t0 = time.perf_counter()
        try:
            candidates = tuple(tx for tx in reads.transactions(number) if tx.hash in wanted)
        except (ArchiveGapError, ProtocolError) as err:
            skips.append(f"block {number}: fetch failed, skipped ({err})")
            continue
        finally:
            timings["fetch"] += time.perf_counter() - t0
        held = {tx.hash for tx in candidates}
        skips.extend(
            f"tx {hash_hex(h)}: not in block {number}, skipped" for h in wanted if h not in held
        )

        t0 = time.perf_counter()
        try:
            pre = ExplorerView(explorer, number - 1)
            post = ExplorerView(explorer, number)
            detection, notes = evaluate_block(pre, post, number, candidates, spec)
        except (ArchiveGapError, ProtocolError) as err:
            skips.append(f"block {number}: state lookup failed, skipped ({err})")
            continue
        finally:
            timings["analyze"] += time.perf_counter() - t0
        if detection is not None:
            report["detections"].append(detection)
        skips.extend(notes)
