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

Per-transaction and per-block failures degrade to skip records in the
report; only configuration problems (a bad descriptor is refused before
the run, by VulnSpec.from_document) and an unreachable archive abort a run.
The report carries wall-clock per phase and the number of interpreter steps
executed, so "block level does no replay" is a measurable claim rather than
a promise. The interpreter is producer code (evmsleuth.fixtures.interpreter)
that no module of the investigator imports, so stepsInterpreted reads its
STEP_COUNTER from sys.modules when something else loaded it, a test that
built its fixtures in-process say, and is 0 when it is not loaded.

Read once: run_investigation makes one filters.ReadState, which the filter
and the level share and which dies with the investigation. Each block is
fetched and its transactions parsed once. When internal discovery runs
and the evm level reads full traces (local or cached mode), the scan's one
walk of a trace also builds the gated steps, and the level evaluates the
trace kept for each candidate instead of fetching and walking it again.
customTracer mode (the level asks for a pc-filtered trace the scan did not
read) and the block level (no trace) keep nothing; a feed scans nothing,
so the level fetches each trace and each block once. In cached mode the
report's explorerStats.hits counts the hits of these single reads: a
block or trace the level takes from the read state is no cache lookup.
A transaction object is read twice: by the read state, and by
LocalExplorer's check of every block when it opens the archive
(explorer.block_envelope, the check behind exit 3).

Trace decode: a trace text of at most one chunk (a local trace file, a
cache entry) is decoded by its reader, once, where it is read, so its
JSON decode is timed in "fetch" with the read. A longer text arrives as a
span and is decoded by the walk, a block and a chunk at a time
(explorer.walk_trace, traces.reconstruct_trace), so its decode is timed
in "analyze" with the walk and the rules, and "fetch" is the opening of
its file and, for a cache hit, the pass that checks its digest. A text
that is not JSON, or not UTF-8, is a "fetch failed" skip record that
quotes the error, found at either place.

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
from .explorer import CachedExplorer, ExplorerView, walk_trace
from .filters import FilterQuery, ReadState, TxRef, tx_list
from .rules_block import evaluate_block
from .rules_evm import VulnSpec, evaluate_trace
from .traces import gc_paused
from .words import address_hex

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


@dataclass
class Report:
    tag: str
    level: str
    mode: str
    scenario: str
    contract: int
    filter_echo: dict
    shared_params: dict
    candidates: int = 0
    distinct_txs: int = 0
    blocks_evaluated: int = 0
    detections: list[dict] = field(default_factory=list)
    skips: list[str] = field(default_factory=list)
    steps_interpreted: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    explorer_stats: dict | None = None

    def to_document(self) -> dict:
        doc = {
            "config": {
                "tag": self.tag,
                "level": self.level,
                "mode": self.mode,
                "scenario": self.scenario,
                "contract": address_hex(self.contract),
                "filter": self.filter_echo,
                "sharedParams": self.shared_params,
            },
            "detections": self.detections,
            "skips": self.skips,
            "totals": {
                "candidates": self.candidates,
                "distinctTxs": self.distinct_txs,
                "blocksEvaluated": self.blocks_evaluated,
                "detections": len(self.detections),
                "skips": len(self.skips),
            },
            "stepsInterpreted": self.steps_interpreted,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if self.explorer_stats is not None:
            doc["explorerStats"] = self.explorer_stats
        return doc


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


def run_investigation(config: InvestigationConfig) -> Report:
    spec = config.spec
    query = config.query or spec.query
    timings = {"filter": 0.0, "fetch": 0.0, "analyze": 0.0}
    steps_before = _steps_interpreted()
    t_start = time.perf_counter()

    # the evm level reuses the full traces internal discovery walks for it
    reuse = config.level == "evm" and config.mode != "customTracer"
    reads = ReadState(config.explorer, spec.gates if reuse else None)
    t0 = time.perf_counter()
    if config.feed is not None:
        rows = list(config.feed)
    else:
        rows = tx_list(reads, query)
    timings["filter"] = time.perf_counter() - t0

    report = Report(
        tag=config.tag,
        level=config.level,
        mode=config.mode,
        scenario=spec.scenario,
        contract=spec.contract,
        filter_echo={
            "selectors": list(query.selectors),
            "includeInternal": query.include_internal,
            "blockRange": list(query.block_range),
        },
        shared_params=dict(config.shared_params),
        candidates=len(rows),
    )

    if config.level == "evm":
        _run_evm_level(config, rows, report, timings, reads)
    else:
        _run_block_level(config, rows, report, timings, reads)

    timings["total"] = time.perf_counter() - t_start
    report.timings = timings
    report.steps_interpreted = _steps_interpreted() - steps_before
    if isinstance(config.explorer, CachedExplorer):
        ex = config.explorer
        report.explorer_stats = {
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
    order: dict[bytes, int] = {}
    for row in rows:
        order.setdefault(row.tx_hash, row.block_number)
    report.distinct_txs = len(order)
    report.blocks_evaluated = len(set(order.values()))

    for tx_hash, number in order.items():
        label = f"tx 0x{tx_hash.hex()}"
        with gc_paused():  # the trace lives and dies in here
            t0 = time.perf_counter()
            trace = None
            try:
                tx = reads.transaction(number, tx_hash)
                if tx is None:
                    report.skips.append(f"{label}: not in block {number}, skipped")
                    continue
                if tx.to is None:
                    report.skips.append(f"{label}: contract creation, skipped")
                    continue
                rec = reads.take_trace(tx)
                if rec is None:
                    trace = explorer.tx_trace(tx_hash, tracer)
            except (ArchiveGapError, ProtocolError) as err:
                report.skips.append(f"{label}: fetch failed, skipped ({err})")
                continue
            finally:
                timings["fetch"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            try:
                if rec is None:
                    rec = walk_trace(explorer, trace, tx_hash, tracer, tx.to, spec.gates)
                found, notes = evaluate_trace(rec, spec, tx_hash, number)
            except (ArchiveGapError, ProtocolError) as err:  # a long text is not JSON
                report.skips.append(f"{label}: fetch failed, skipped ({err})")
                continue
            except SleuthError as err:
                report.skips.append(f"{label}: analysis failed, skipped ({err})")
                continue
            finally:
                del trace
                timings["analyze"] += time.perf_counter() - t0
            report.detections.extend(d.to_document() for d in found)
            report.skips.extend(notes)


def _run_block_level(config, rows, report, timings, reads):
    spec = config.spec
    explorer = config.explorer
    selectors = spec.query.selector_bytes()

    by_block: dict[int, list[TxRef]] = {}
    for row in rows:
        if row.internal or row.to != spec.contract or row.selector not in selectors:
            continue
        by_block.setdefault(row.block_number, []).append(row)
    report.distinct_txs = sum(len(v) for v in by_block.values())
    report.blocks_evaluated = len(by_block)

    for number in sorted(by_block):
        wanted = {row.tx_hash for row in by_block[number]}
        t0 = time.perf_counter()
        try:
            candidates = tuple(tx for tx in reads.transactions(number) if tx.hash in wanted)
        except (ArchiveGapError, ProtocolError) as err:
            report.skips.append(f"block {number}: fetch failed, skipped ({err})")
            continue
        finally:
            timings["fetch"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            pre = ExplorerView(explorer, number - 1)
            post = ExplorerView(explorer, number)
            detection, notes = evaluate_block(pre, post, number, candidates, spec)
        except (ArchiveGapError, ProtocolError) as err:
            report.skips.append(f"block {number}: state lookup failed, skipped ({err})")
            continue
        finally:
            timings["analyze"] += time.perf_counter() - t0
        if detection is not None:
            report.detections.append(detection.to_document())
        report.skips.extend(notes)
