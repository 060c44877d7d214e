"""Pipeline benchmark for `evmsleuth investigate`.

    python3 pipebench/run.py --workload deep-trace --seed 11 --seconds 35 --trace 0

Run it from the repository root; it imports evmsleuth from ./src. One run:

1. sets up: generates the workload's fixtures from --seed in a child
   process, writes them, and warms a cache directory per fixture; five
   times, keeping the last set (the median is `setup_s`);
2. takes a local-mode reference report per fixture;
3. for --seconds, runs sweeps in a closed loop with one caller, calling
   `evmsleuth.cli.main(["investigate", ...])` in-process with stdout
   captured: the next investigation starts when the previous one returns,
   and the workload's modes take turns, round by round; a fixed reference
   work, timed before every sweep and after the last, turns each sweep's
   wall clock into multiples of it (`ref`, see reference.py);
4. checks every report and prints every metric by name, unit and sample
   count, then, as the last line, one JSON object with the keys
   `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 every
mode alternates an untraced and a traced sweep; the traced sweeps give the
per-layer metrics (see tracing.py) and the pair gives the tracing overhead.
README.md lists the workloads, the metrics and the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracing import BOOKKEEPING, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
# a percentile is reported only with at least ten samples beyond it
P90_MIN_SWEEPS = 100
SETUP_TIMEOUT_S = 600


@dataclass(frozen=True)
class Workload:
    axis: str  # build_fixtures.py axis: instructions, storage or suite
    magnitude: int
    level: str
    modes: tuple[str, ...]


WORKLOADS = {
    # One exploit transaction of ~84k steps: trace ingest is nearly all the
    # time and no block-edge query is made.
    "deep-trace": Workload("instructions", 84_000, "evm", ("local", "cached", "tracer")),
    # Four exploits in one block over two ~4.5 MB snapshots: all the work is
    # block-edge point queries and no trace is read.
    "state-edges": Workload("storage", 32_000, "block", ("local", "cached")),
    # Six labelled scenarios, 114 short traces, BEC with internal discovery:
    # fixed per-investigation costs dominate.
    "suite-sweep": Workload("suite", 0, "evm", ("local", "cached", "cold", "tracer")),
}

# Printed with --trace 0; every workload has every one of them. A `ref`
# is the wall clock of the fixed reference work timed around each sweep
# (see reference.py); the wall-clock `<mode>.p50_s`, and the cold and
# tracer modes of the workloads that run them, are in the table only
# (README.md says why).
END_TO_END = {
    "local.p50_ref": "ref",
    "cached.p50_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics of the traced sweeps of one mode, per sweep.
LAYER_UNITS = {
    "cli.self_s": "s",
    "orchestrator.self_s": "s",
    "filters.tx_list.self_s": "s",
    "filters.traces_scanned": "count",
    "explorer.tx_trace.s": "s",
    "explorer.trace_bytes": "B",
    "explorer.block_details.s": "s",
    "explorer.block_details.calls": "count",
    "explorer.point_query.s": "s",
    "explorer.point_queries": "count",
    "explorer.snapshot_bytes_parsed": "B",
    "cache.lookup.self_s.trace": "s",
    "cache.lookup.self_s.storage": "s",
    "cache.lookup.self_s.block": "s",
    "cache.lookup.self_s.balance": "s",
    "cache.hits": "count",
    "cache.inner_calls": "count",
    "cache.dropped": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_written": "B",
    "cache.write_amplification": "ratio",
    "hashing.digest.s": "s",
    "hashing.digest.bytes": "B",
    "words.decode_steps.s": "s",
    "words.steps_decoded": "count",
    "traces.parse.self_s": "s",
    "traces.reconstruct.s": "s",
    "traces.steps_materialised": "count",
    "rules_evm.evaluate.s": "s",
    "rules_block.evaluate.self_s": "s",
}

# Printed with --trace 1: each layer metric in the mode whose end-to-end
# metric it should move (README.md has the map), then set-up and tracing.
PER_LAYER = {
    **{f"{mode}.{name}": LAYER_UNITS[name] for mode, name in (
        ("local", "cli.self_s"),
        ("local", "orchestrator.self_s"),
        ("local", "filters.tx_list.self_s"),
        ("local", "filters.traces_scanned"),
        ("cold", "filters.tx_list.self_s"),
        ("local", "explorer.tx_trace.s"),
        ("local", "explorer.trace_bytes"),
        ("tracer", "explorer.tx_trace.s"),
        ("local", "explorer.block_details.s"),
        ("local", "explorer.block_details.calls"),
        ("local", "explorer.point_query.s"),
        ("local", "explorer.point_queries"),
        ("local", "explorer.snapshot_bytes_parsed"),
        ("cached", "cache.lookup.self_s.trace"),
        ("cached", "cache.lookup.self_s.storage"),
        ("cached", "cache.lookup.self_s.block"),
        ("cached", "cache.lookup.self_s.balance"),
        ("cached", "cache.hits"),
        ("cached", "cache.inner_calls"),
        ("cached", "cache.dropped"),
        ("cached", "cache.hit_ratio"),
        ("cold", "cache.hits"),
        ("cold", "cache.inner_calls"),
        ("cold", "cache.hit_ratio"),
        ("cold", "cache.bytes_written"),
        ("cold", "cache.write_amplification"),
        ("cached", "hashing.digest.s"),
        ("cached", "hashing.digest.bytes"),
        ("local", "words.decode_steps.s"),
        ("local", "words.steps_decoded"),
        ("local", "traces.parse.self_s"),
        ("local", "traces.reconstruct.s"),
        ("local", "traces.steps_materialised"),
        ("local", "rules_evm.evaluate.s"),
        ("cached", "rules_block.evaluate.self_s"),
    )},
    "setup.build_s": "s",
    "setup.write_s": "s",
    "setup.warm_s": "s",
    "trace.wall_s": "s",
    "trace.layer_self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

PAGE_CACHE_NOTE = (
    "fixture and cache files are read back through the OS page cache; "
    "no cache is dropped between investigations"
)


class BenchError(Exception):
    """The benchmark cannot produce a meaningful result."""


@dataclass
class Fixture:
    name: str
    directory: Path
    facts: dict
    exploits: frozenset[str]  # 0x tx hashes labelled as exploits
    reference: str | None = None  # canonical detections of the local run


@dataclass
class LayerTotals:
    """Traced-sweep totals of one mode."""

    sweeps: int = 0
    wall_s: float = 0.0
    self_s: Counter = field(default_factory=Counter)
    dur_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def per_sweep(self, value: float) -> float:
        return value / self.sweeps if self.sweeps else 0.0

    def metrics(self) -> dict[str, float]:
        per, s, d, c, n = self.per_sweep, self.self_s, self.dur_s, self.calls, self.counts
        hits, inner = n["cache.hits"], n["cache.inner_calls"]
        payload = n["cache.payload_bytes"]
        return {
            "cli.self_s": per(s["cli"]),
            "orchestrator.self_s": per(s["orchestrator"]),
            "filters.tx_list.self_s": per(s["filters.tx_list"]),
            "filters.traces_scanned": per(n["filters.traces_scanned"]),
            "explorer.tx_trace.s": per(d["explorer.tx_trace"]),
            "explorer.trace_bytes": per(n["explorer.trace_bytes"]),
            "explorer.block_details.s": per(d["explorer.block_details"]),
            "explorer.block_details.calls": per(c["explorer.block_details"]),
            "explorer.point_query.s": per(d["explorer.point_query"]),
            "explorer.point_queries": per(c["explorer.point_query"]),
            "explorer.snapshot_bytes_parsed": per(n["explorer.snapshot_bytes_parsed"]),
            "cache.lookup.self_s.trace": per(s["cache.lookup.trace"]),
            "cache.lookup.self_s.storage": per(s["cache.lookup.storage"]),
            "cache.lookup.self_s.block": per(s["cache.lookup.block"]),
            "cache.lookup.self_s.balance": per(s["cache.lookup.balance"]),
            "cache.hits": per(hits),
            "cache.inner_calls": per(inner),
            "cache.dropped": per(n["cache.dropped"]),
            "cache.hit_ratio": hits / (hits + inner) if hits + inner else 0.0,
            "cache.bytes_written": per(n["cache.bytes_written"]),
            "cache.write_amplification": n["cache.bytes_written"] / payload if payload else 0.0,
            "hashing.digest.s": per(d["hashing.digest"]),
            "hashing.digest.bytes": per(n["hashing.digest.bytes"]),
            "words.decode_steps.s": per(d["words.decode_steps"]),
            "words.steps_decoded": per(n["words.steps_decoded"]),
            "traces.parse.self_s": per(s["traces.parse"]),
            "traces.reconstruct.s": per(d["traces.reconstruct"]),
            "traces.steps_materialised": per(n["traces.steps_materialised"]),
            "rules_evm.evaluate.s": per(d["rules_evm.evaluate"]),
            "rules_block.evaluate.self_s": per(s["rules_block.evaluate"]),
        }

    def self_time(self, bookkeeping: bool) -> float:
        """Per-sweep self time of the layer spans, or of the bookkeeping ones."""
        return self.per_sweep(
            sum(v for k, v in self.self_s.items() if (k == BOOKKEEPING) == bookkeeping)
        )


def canonical(detections: list) -> str:
    return json.dumps(detections, sort_keys=True, separators=(",", ":"))


def read_exploits(directory: Path) -> frozenset[str]:
    labels = json.loads((directory / "labels.json").read_text())
    return frozenset(h for h, fields in labels.items() if fields["class"] != "benign")


def tree_bytes(directory: Path) -> int:
    if not directory.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, run_dir: Path, trace: bool):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.trace = trace
        self.cli = importlib.import_module("evmsleuth.cli")
        self.fixtures: list[Fixture] = []
        self.warm_cache = run_dir / "cache"
        self.cold_cache = run_dir / "cold"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: dict[str, list[float]] = defaultdict(list)
        self.samples: dict[str, list[float]] = defaultdict(list)  # wall seconds per sweep
        self.relative: dict[str, list[float]] = defaultdict(list)  # the same in ref
        self.reference_s: list[float] = []  # one before every sweep and one after the last
        self.layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.tracer = Tracer() if trace else None

    # -- one investigation ------------------------------------------------------

    def cache_dir(self, fx: Fixture, mode: str) -> Path | None:
        if mode == "cached":
            return self.warm_cache / fx.name
        if mode == "cold":
            return self.cold_cache / fx.name
        return None

    def argv(self, fx: Fixture, mode: str) -> list[str]:
        level = self.workload.level
        if mode == "tracer":
            level += "[mode=customTracer]"
        argv = ["investigate", "-t", f"pipebench-{mode}",
                "-e", f"local[dir={fx.directory}]", "-d", level]
        cache_dir = self.cache_dir(fx, mode)
        if cache_dir is not None:
            argv += ["-c", str(cache_dir)]
        return argv

    def investigate(self, argv: list[str]) -> tuple[int, str, str, float]:
        """One `evmsleuth investigate` call: exit code, stdout, stderr, seconds."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # each investigation starts from a clean heap, as a fresh process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is exit 1 for a real caller
                code = 1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def check(self, fx: Fixture, code: int, out: str, err: str) -> tuple[str | None, dict | None]:
        """The first thing wrong with one report, or None."""
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}", None
        try:
            doc = json.loads(out)
        except ValueError:
            return "report is not JSON", None
        if doc["skips"]:
            return f"{len(doc['skips'])} skip record(s), first: {doc['skips'][0]}", doc
        if self.workload.level == "evm":
            flagged = {d["txHash"] for d in doc["detections"]}
        else:
            flagged = {h for d in doc["detections"] for h in d["candidateTxHashes"]}
        false, missed = flagged - fx.exploits, fx.exploits - flagged
        if false or missed:
            return (
                f"{len(false)} false positive(s) and {len(missed)} missed exploit(s) "
                f"against labels.json"
            ), doc
        if fx.reference is not None and canonical(doc["detections"]) != fx.reference:
            return "detections differ from local mode", doc
        return None, doc

    def run_checked(self, fx: Fixture, mode: str, argv: list[str]) -> tuple[float, dict | None]:
        code, out, err, elapsed = self.investigate(argv)
        problem, doc = self.check(fx, code, out, err)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{fx.name} [{mode}]: {problem}")
        return elapsed, doc

    # -- set-up -----------------------------------------------------------------

    def build(self, target: Path) -> tuple[dict, list[Fixture]]:
        wl = self.workload
        child = subprocess.run(
            [sys.executable, str(HERE / "build_fixtures.py"), str(SRC),
             wl.axis, str(wl.magnitude), str(self.seed), str(target)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise BenchError(f"fixture build failed: {child.stderr.strip()[-500:]}")
        built = json.loads(child.stdout)
        fixtures = []
        for name, facts in built["fixtures"].items():
            directory = Path(facts.pop("dir"))
            exploits = read_exploits(directory)
            if not exploits:
                raise BenchError(
                    f"{name}: labels.json names no exploit, so the detection check "
                    "would pass vacuously"
                )
            fixtures.append(Fixture(name, directory, facts, exploits))
        return built, fixtures

    def set_up(self):
        """Build, write and warm SETUP_REPEATS times; keep the last set."""
        for i in range(SETUP_REPEATS):
            target = self.run_dir / f"setup-{i}"
            built, fixtures = self.build(target / "fixtures")
            self.warm_cache = target / "cache"
            warm = 0.0
            for fx in fixtures:
                elapsed, _ = self.run_checked(fx, "warm", self.argv(fx, "cached"))
                warm += elapsed
            # the child's interpreter start-up and imports are not set-up work
            self.setup["setup_s"].append(built["build_s"] + built["write_s"] + warm)
            self.setup["setup.build_s"].append(built["build_s"])
            self.setup["setup.write_s"].append(built["write_s"])
            self.setup["setup.warm_s"].append(warm)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(target)
        self.fixtures = fixtures
        for fx in self.fixtures:
            _, doc = self.run_checked(fx, "reference", self.argv(fx, "local"))
            if doc is not None:
                fx.reference = canonical(doc["detections"])

    # -- measurement ------------------------------------------------------------

    def sweep(self, mode: str, traced: bool) -> float:
        """One pass over the workload's fixtures in one mode; timed seconds."""
        total = 0.0
        for fx in self.fixtures:
            cache_dir = self.cache_dir(fx, mode)
            if mode == "cold":
                shutil.rmtree(cache_dir, ignore_errors=True)
            argv = self.argv(fx, mode)
            if not traced:
                elapsed, _ = self.run_checked(fx, mode, argv)
                total += elapsed
                continue
            before = tree_bytes(cache_dir) if cache_dir else 0
            self.tracer.begin(self.attempted)
            self.tracer.install()
            try:
                elapsed, doc = self.run_checked(fx, mode, argv)
            finally:
                self.tracer.uninstall()
            total += elapsed
            self.account(mode, doc, cache_dir, before, elapsed)
        if traced:
            self.layers[mode].sweeps += 1
        return total

    def account(self, mode: str, doc: dict | None, cache_dir: Path | None,
                before: int, elapsed: float):
        totals = self.layers[mode]
        tracer = self.tracer
        totals.wall_s += elapsed
        totals.self_s.update(tracer.self_s)
        totals.dur_s.update(tracer.dur_s)
        totals.calls.update(tracer.calls)
        totals.counts.update(tracer.counts)
        stats = (doc or {}).get("explorerStats")
        if stats is not None:
            totals.counts["cache.hits"] += stats["hits"]
            totals.counts["cache.inner_calls"] += stats["innerCalls"]
            totals.counts["cache.dropped"] += stats["dropped"]
        if cache_dir is not None:
            totals.counts["cache.bytes_written"] += tree_bytes(cache_dir) - before

    def measure(self, seconds: float):
        """Closed loop: rounds of one sweep per mode (untraced and traced with
        --trace 1), the mode order rotating, until `seconds` have passed.
        The reference work is timed between sweeps, and each untraced sweep
        is also recorded in multiples of the two reference timings around it."""
        modes = self.workload.modes
        deadline = time.perf_counter() + seconds
        self.reference_s.append(reference.time_once())
        rnd = 0
        while rnd == 0 or time.perf_counter() < deadline:
            shift = rnd % len(modes)
            passes = ((False, True) if rnd % 2 == 0 else (True, False)) if self.trace else (False,)
            for mode in modes[shift:] + modes[:shift]:
                for traced in passes:
                    elapsed = self.sweep(mode, traced)
                    self.reference_s.append(reference.time_once())
                    if not traced:
                        before, after = self.reference_s[-2:]
                        self.samples[mode].append(elapsed)
                        self.relative[mode].append(elapsed / math.sqrt(before * after))
                if rnd > 0 and time.perf_counter() >= deadline:
                    return  # the modes' sample counts differ by at most one
            rnd += 1

    # -- results ----------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        metrics = {}
        for mode in self.workload.modes:
            for unit, samples in (("ref", self.relative[mode]), ("s", self.samples[mode])):
                metrics[f"{mode}.p50_{unit}"] = (statistics.median(samples), unit, len(samples))
                if len(samples) >= P90_MIN_SWEEPS:
                    p90 = statistics.quantiles(samples, n=10)[8]
                    metrics[f"{mode}.p90_{unit}"] = (p90, unit, len(samples))
        ref = self.reference_s
        metrics["reference.p50_s"] = (statistics.median(ref), "s", len(ref))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB", 1)
        setup = self.setup["setup_s"]
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        metrics["failed_ratio"] = (self.failed / self.attempted, "ratio", self.attempted)
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        metrics = {}
        for mode in self.workload.modes:
            totals = self.layers[mode]
            for name, value in totals.metrics().items():
                metrics[f"{mode}.{name}"] = (value, LAYER_UNITS[name], totals.sweeps)
        for name in ("setup.build_s", "setup.write_s", "setup.warm_s"):
            values = self.setup[name]
            metrics[name] = (statistics.median(values), "s", len(values))
        # per round (one sweep of each mode), traced against untraced sweeps
        # of the same rounds
        modes = self.workload.modes
        layers = [self.layers[m] for m in modes]
        rounds = min(totals.sweeps for totals in layers)
        traced = sum(totals.per_sweep(totals.wall_s) for totals in layers)
        untraced = sum(statistics.fmean(self.samples[m]) for m in modes)
        metrics["trace.wall_s"] = (traced, "s", rounds)
        metrics["trace.layer_self_s"] = (sum(t.self_time(False) for t in layers), "s", rounds)
        metrics["trace.bookkeeping_s"] = (sum(t.self_time(True) for t in layers), "s", rounds)
        metrics["trace.overhead_s"] = (traced - untraced, "s", rounds)
        metrics["trace.overhead_ratio"] = (traced / untraced - 1, "ratio", rounds)
        # a layer metric of a mode this workload does not run reads 0
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, (0.0, unit, 0))
        return metrics

    def metadata(self, seconds: float) -> dict:
        from evmsleuth import words

        return {
            "workload": self.name,
            "seed": self.seed,
            "seconds": seconds,
            "trace": int(self.trace),
            "loop": "closed, one caller, one thread; modes interleaved round by round",
            "python": platform.python_version(),
            "words_backend": words.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "page_cache": PAGE_CACHE_NOTE,
            "fixtures": {fx.name: fx.facts for fx in self.fixtures},
        }


def print_table(metrics: dict[str, tuple[float, str, int]]):
    for name, (value, unit, count) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit:<6} n={count}")


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        bench = Bench(name, workload, seed, run_dir, trace)
        origin = time.perf_counter()
        bench.set_up()
        bench.measure(seconds)
        print(json.dumps({"meta": bench.metadata(seconds)}, sort_keys=True))
        end_to_end = bench.end_to_end()
        print_table(end_to_end)
        wanted, chosen = END_TO_END, end_to_end
        if trace:
            per_layer = bench.per_layer()
            print_table(per_layer)
            bench.tracer.write(WORK / f"spans-{name}.jsonl", origin)
            wanted, chosen = PER_LAYER, per_layer
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in bench.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            metric: {"value": chosen[metric][0], "unit": unit} for metric, unit in wanted.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evmsleuth" / "__init__.py").is_file():
        print(f"pipebench: no evmsleuth sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as err:
        print(f"pipebench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
