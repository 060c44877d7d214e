"""Outside-in span recording for the traced run.

The traced run replaces the module attributes through which evmsleuth's
layers call each other with wrappers that open and close spans; nothing
under src/ knows it is being traced. Wrappers are installed only around a
traced investigation and removed right after, so untraced investigations
run the original functions.

A span records its name, start, end, parent and the id of the
investigation it belongs to. Spans stay in memory until the run ends. Self
time is a span's duration minus the time its direct children cover, so the
self times of one investigation's spans add up to the duration of its root
span (`cli`). Counter work that is too slow to ignore (a stat call, a JSON
re-serialisation) runs inside a `bench.bookkeeping` span of its own, so it
is not charged to the layer that happens to be open around it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

BOOKKEEPING = "bench.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (investigation, id, parent, name, start, end)
        self.investigation = 0
        # totals of the current investigation, cleared by begin()
        self.self_s: Counter = Counter()
        self.dur_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open_spans: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._snapshot_sizes: dict[tuple, int] = {}
        self._block_details = None  # the unwrapped LocalExplorer method

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str):
        self._next_id += 1
        self._open_spans.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._open_spans.pop()
        duration = end - start
        parent = None
        if self._open_spans:
            parent = self._open_spans[-1][0]
            self._open_spans[-1][3] += duration
        self.spans.append((self.investigation, span_id, parent, name, start, end))
        self.self_s[name] += duration - child
        self.dur_s[name] += duration
        self.calls[name] += 1

    def _inside(self, name: str) -> bool:
        return any(span[1] == name for span in self._open_spans)

    def _parent_name(self) -> str | None:
        return self._open_spans[-1][1] if self._open_spans else None

    def begin(self, investigation: int):
        """Start a new investigation; its totals replace the previous ones."""
        self.investigation = investigation
        for totals in (self.self_s, self.dur_s, self.calls, self.counts):
            totals.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        """Span around `fn`. `before(*args)` runs ahead of the span and its
        value is handed to `after(state, result, *args)`, which runs after
        the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args) if before is not None else None
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(state, result, *args)
            return result

        return traced

    def _bookkeeping(self, work, *args):
        self._open(BOOKKEEPING)
        try:
            work(*args)
        finally:
            self._close()

    def install(self):
        """Replace the layers' entry points with traced wrappers."""
        from evmsleuth import cli, explorer, orchestrator, traces
        from evmsleuth.explorer import CachedExplorer, LocalExplorer

        self._block_details = LocalExplorer.collect_block_details
        count = self.counts

        def steps_decoded(_state, result, *_args):
            count["words.steps_decoded"] += len(result)

        def steps_materialised(_state, result, *_args):
            count["traces.steps_materialised"] += len(result.steps)

        def digest_bytes(_state, _result, data):
            count["hashing.digest.bytes"] += len(data)

        def local_trace(_state, _result, ex, tx_hash, *_rest):
            if self._inside("filters.tx_list") and self._parent_name() != "cache.lookup.trace":
                count["filters.traces_scanned"] += 1
            self._bookkeeping(self._count_trace_bytes, ex, tx_hash)

        def point_query(_state, _result, ex, *args):
            self._bookkeeping(self._count_snapshot_bytes, ex, args[-1])

        def hits_before(ex, *_args):
            return ex.hits

        def cached_trace(hits, result, ex, *_args):
            if self._inside("filters.tx_list"):
                count["filters.traces_scanned"] += 1
            cache_miss(hits, result, ex)

        def cache_miss(hits, result, ex, *_args):
            if ex.hits == hits:
                self._bookkeeping(self._count_payload_bytes, result)

        targets = [
            (cli, "main", "cli", None, None),
            (cli, "run_investigation", "orchestrator", None, None),
            (orchestrator, "tx_list", "filters.tx_list", None, None),
            (orchestrator, "evaluate_trace", "rules_evm.evaluate", None, None),
            (orchestrator, "evaluate_block", "rules_block.evaluate", None, None),
            (traces, "parse_trace_document", "traces.parse", None, None),
            (traces, "decode_steps", "words.decode_steps", None, steps_decoded),
            (traces, "reconstruct", "traces.reconstruct", None, steps_materialised),
            (explorer, "digest", "hashing.digest", None, digest_bytes),
            (LocalExplorer, "collect_block_details", "explorer.block_details", None, None),
            (LocalExplorer, "tx_trace", "explorer.tx_trace", None, local_trace),
            (LocalExplorer, "get_storage", "explorer.point_query", None, point_query),
            (LocalExplorer, "get_balance", "explorer.point_query", None, point_query),
            (CachedExplorer, "collect_block_details", "cache.lookup.block", hits_before, cache_miss),
            (CachedExplorer, "tx_trace", "cache.lookup.trace", hits_before, cached_trace),
            (CachedExplorer, "get_storage", "cache.lookup.storage", hits_before, cache_miss),
            (CachedExplorer, "get_balance", "cache.lookup.balance", hits_before, cache_miss),
        ]
        for owner, attr, name, before, after in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters that need a syscall or a re-serialisation -------------------

    def _count_trace_bytes(self, ex, tx_hash: bytes):
        path = Path(ex.base) / "traces" / f"{tx_hash.hex()}.json"
        self.counts["explorer.trace_bytes"] += path.stat().st_size

    def _count_snapshot_bytes(self, ex, number: int):
        key = (str(ex.base), number)
        size = self._snapshot_sizes.get(key)
        if size is None:
            root = self._block_details(ex, number)["block"]["stateRoot"]
            size = (Path(ex.base) / "states" / f"{root[2:]}.json").stat().st_size
            self._snapshot_sizes[key] = size
        self.counts["explorer.snapshot_bytes_parsed"] += size

    def _count_payload_bytes(self, payload):
        # the cache digests the compact sorted serialisation of the payload
        canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        self.counts["cache.payload_bytes"] += len(canonical.encode())

    # -- output --------------------------------------------------------------

    def write(self, path: Path, origin: float):
        """Write every span as one JSON line, times relative to `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for investigation, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "investigation": investigation,
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                }) + "\n")
