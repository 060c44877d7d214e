"""Acceptance gate: the eight release criteria, one verdict line each.

Each criterion is one test, so the pass/fail column of `pytest -v` doubles
as the acceptance report; run with -s to also see the measured numbers.
Criterion 4 builds five padded traces and four pre-populated states, so this
module is the slow one; everything else finishes in seconds.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from isolated import modules_loaded, run_isolated_cli
import evmsleuth
from evmsleuth.explorer import CachedExplorer, LocalExplorer
from evmsleuth.fixtures import build_suite, scale_fixture, write_fixture
from evmsleuth.fixtures.bench import bench, scaled_fixture_dir
from evmsleuth.fixtures.interpreter import STEP_COUNTER
from evmsleuth.orchestrator import InvestigationConfig, run_investigation
from evmsleuth.rules_evm import VulnSpec
from evmsleuth.traces import reconstruct_document
from evmsleuth.words import ARITH_ARITY, IntTypeBounds, wrap_arith

SEED = 11

# Generation targets for the default suite; detection must match the labels
# produced against these counts exactly.
EXPECTED_EXPLOITS = {
    "Bank": 6,
    "DelayedUnderflow": 11,
    "ProductVote": 20,
    "SimulationBECToken": 12,
    "SimulationKotET": 4,
    "TargetUnderflow": 20,
}

INSTRUCTION_MAGNITUDES = (21_000, 42_000, 84_000, 168_000, 336_000)
STORAGE_MAGNITUDES = (500, 2_000, 8_000, 32_000)

EVM_SUITE_BUDGET_S = 60.0
PERF_BUDGET_S = 600.0
LINEAR_R2_FLOOR = 0.95
BLOCK_SPREAD_CEILING = 3.0
CASES_PER_OPCODE = 10_000


@pytest.fixture(scope="module")
def suite():
    return build_suite(seed=SEED)


@pytest.fixture(scope="module")
def suite_dirs(suite, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-archives")
    dirs = {}
    for name, fixture in suite.items():
        dirs[name] = root / name
        write_fixture(fixture, dirs[name])
    return dirs


@pytest.fixture(scope="module")
def scaled_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-scaled")
    for magnitude in INSTRUCTION_MAGNITUDES:
        fixture = scale_fixture("DelayedUnderflow", "instructions", magnitude, seed=SEED)
        write_fixture(fixture, scaled_fixture_dir(root, "instructions", magnitude))
    for magnitude in STORAGE_MAGNITUDES:
        fixture = scale_fixture("TargetUnderflow", "storage", magnitude, seed=SEED)
        write_fixture(fixture, scaled_fixture_dir(root, "storage", magnitude))
    return root


def run_over(fixture, directory, level="evm", mode="local", cache_dir=None):
    explorer = LocalExplorer(directory)
    if mode == "cached":
        explorer = CachedExplorer(explorer, cache_dir)
    config = InvestigationConfig(
        tag=f"acceptance-{fixture.name}",
        spec=VulnSpec.from_document(fixture.vuln),
        explorer=explorer,
        level=level,
        mode=mode,
    )
    return run_investigation(config), explorer


def evm_flagged(report):
    return {bytes.fromhex(d["txHash"][2:]) for d in report.detections}


def block_flagged(report):
    hashes = set()
    for detection in report.detections:
        hashes.update(bytes.fromhex(h[2:]) for h in detection["candidateTxHashes"])
    return hashes


def verdict(number, title, problems, detail):
    status = "FAIL" if problems else "PASS"
    note = "; ".join(problems) if problems else detail
    print(f"acceptance {number} {title}: {status} [{note}]", flush=True)
    assert not problems, f"criterion {number} ({title}): " + "; ".join(problems)


# -- 1: detection accuracy, evm level --


def test_criterion_1_evm_detection_accuracy(suite, suite_dirs):
    problems = []
    total_tp = 0
    started = time.perf_counter()
    for name, fixture in suite.items():
        report, _ = run_over(fixture, suite_dirs[name])
        flagged = evm_flagged(report)
        labeled = set(fixture.archive.labels.exploit_hashes())
        if len(labeled) != EXPECTED_EXPLOITS[name]:
            problems.append(
                f"{name}: {len(labeled)} labeled exploits, "
                f"expected {EXPECTED_EXPLOITS[name]}"
            )
        fp = len(flagged - labeled)
        fn = len(labeled - flagged)
        if fp or fn:
            problems.append(f"{name}: FP={fp} FN={fn}")
        total_tp += len(flagged & labeled)
    elapsed = time.perf_counter() - started
    if elapsed >= EVM_SUITE_BUDGET_S:
        problems.append(f"suite took {elapsed:.1f}s, budget {EVM_SUITE_BUDGET_S:.0f}s")
    verdict(1, "evm-detection-accuracy", problems, f"TP={total_tp} FP=0 FN=0 {elapsed:.1f}s")


# -- 2: block-level miss mechanisms --


def test_criterion_2_block_level_misses(suite, suite_dirs):
    problems = []
    for name, fixture in suite.items():
        report, _ = run_over(fixture, suite_dirs[name], level="block")
        flagged = block_flagged(report)
        labels = fixture.archive.labels
        fp = flagged - set(labels.exploit_hashes())
        if fp:
            problems.append(f"{name}: {len(fp)} block-level false positives")
        if name != "SimulationBECToken":
            continue
        missed = set(labels.exploit_hashes()) - flagged
        mechanisms = sorted(labels.labels[h].mechanism for h in missed)
        if len(missed) != 4:
            problems.append(f"BEC missed {len(missed)} exploits, expected 4")
        if mechanisms != ["occluded", "proxied", "proxied", "proxied"]:
            problems.append(f"BEC miss mechanisms {mechanisms}")
    verdict(2, "block-level-miss-mechanisms", problems, "BEC misses 3 proxied + 1 occluded, FP=0")


# -- 3: no-replay guarantee --


def _producer_loads(bank_dir, work) -> tuple[int, list[str]]:
    """Run the investigator's commands over Bank, each in a fresh process:
    both levels in every mode, internal discovery, a feed, export-feed,
    and a bare import of evmsleuth.cli. Returns the number of runs and one
    problem for each run that failed or loaded a module of the producer
    (evmsleuth.fixtures, which holds the interpreter)."""
    explorer = ["-e", f"local[dir={bank_dir}]"]
    feed = work / "feed.csv"
    evm_cache, block_cache = str(work / "evm-cache"), str(work / "block-cache")
    investigations = (
        ["-d", "evm"],
        ["-d", "evm", "-c", evm_cache],  # cold
        ["-d", "evm", "-c", evm_cache],  # warm
        ["-d", "evm[mode=customTracer]"],
        ["-d", "evm", "-f", "spec[internal=true]"],
        ["-d", "evm", "-f", f"feed[path={feed}]"],
        ["-d", "block"],
        ["-d", "block", "-c", block_cache],  # cold
        ["-d", "block", "-c", block_cache],  # warm
    )
    commands = [
        [],
        ["export-feed", *explorer],
        *(["investigate", "-t", "c3", *explorer, *rest] for rest in investigations),
    ]
    problems = []
    for argv in commands:
        what = " ".join(argv) or "import evmsleuth.cli"
        run = run_isolated_cli(*argv)
        if run.returncode != 0:
            problems.append(f"{what}: exit {run.returncode}")
            continue
        if argv[:1] == ["export-feed"]:
            feed.write_text(run.stdout)
        producer = sorted(m for m in modules_loaded(run) if m.startswith("evmsleuth.fixtures"))
        if producer:
            problems.append(f"{what} loaded {', '.join(producer)}")
    return len(commands), problems


def test_criterion_3_block_level_interprets_nothing(suite, suite_dirs, tmp_path):
    problems = []
    before = STEP_COUNTER.value
    blocks = 0
    for name, fixture in suite.items():
        report, _ = run_over(fixture, suite_dirs[name], level="block")
        blocks += report.blocks_evaluated
        if report.steps_interpreted != 0:
            problems.append(f"{name}: report counted {report.steps_interpreted} steps")
    executed = STEP_COUNTER.value - before
    if executed != 0:
        problems.append(f"interpreter ran {executed} steps during block-level analysis")
    if blocks == 0:
        problems.append("no blocks were evaluated, counter check is vacuous")
    # structural: the investigator cannot replay, it never loads the interpreter
    runs, loads = _producer_loads(suite_dirs["Bank"], tmp_path)
    problems.extend(loads)
    verdict(
        3, "no-replay-guarantee", problems,
        f"0 steps over {blocks} evaluated blocks; {runs} fresh runs loaded no producer module",
    )


# -- 4: performance shape --


def test_criterion_4_performance_shape(scaled_root):
    problems = []
    started = time.perf_counter()
    magnitudes = list(INSTRUCTION_MAGNITUDES)

    evm_rows = bench(scaled_root, "instructions", magnitudes, mode="local", level="evm", repeats=1)
    evm_times = [row["analyze"] for row in evm_rows]
    r_squared = statistics.correlation(magnitudes, evm_times) ** 2
    if r_squared < LINEAR_R2_FLOOR:
        problems.append(f"evm analyze not linear in steps: R²={r_squared:.4f}")

    block_rows = bench(scaled_root, "instructions", magnitudes, mode="local", level="block", repeats=3)
    block_times = [row["analyze"] for row in block_rows]
    spread = max(block_times) / min(block_times)
    if spread >= BLOCK_SPREAD_CEILING:
        problems.append(f"block-level spread {spread:.2f}x across instruction magnitudes")

    storage = list(STORAGE_MAGNITUDES)
    local_rows = bench(scaled_root, "storage", storage, mode="local", level="block", repeats=3)
    local_times = [row["analyze"] for row in local_rows]
    if not all(a < b for a, b in zip(local_times, local_times[1:])):
        problems.append(f"block-level time not monotone over storage sizes: {local_times}")

    cached_rows = bench(scaled_root, "storage", storage, mode="cached", level="block", repeats=3)
    cached_times = [row["analyze"] for row in cached_rows]
    slower = [m for m, c, l in zip(storage, cached_times, local_times) if c >= l]
    if slower:
        problems.append(f"cached not strictly faster at storage magnitudes {slower}")

    elapsed = time.perf_counter() - started
    if elapsed >= PERF_BUDGET_S:
        problems.append(f"measurements took {elapsed:.0f}s, budget {PERF_BUDGET_S:.0f}s")
    verdict(
        4,
        "performance-shape",
        problems,
        f"R²={r_squared:.4f} spread={spread:.2f}x cached<local at all sizes {elapsed:.0f}s",
    )


# -- evm ingest memory: flat in trace length --

# Peak resident memory an evm investigation may add, at every instruction
# magnitude and in every mode. Parsing the 84k-step trace whole took about
# 46 MB on top of its 6.6 MB text; reading it as a whole text took the
# text twice over. Streamed from its file a block at a time it takes some
# 2 MB: a block, one chunk of entries, and the walk's memo of the distinct
# stack words it has checked, which grows by some 10 bytes a step in these
# traces (about 4 MB at 336k steps).
INGEST_MEMORY_CEILING_MB = 8.0

# One investigation in a fresh interpreter: the peak resident memory it
# added to the process (getrusage's ru_maxrss, in kilobytes on Linux), and
# its number of detections, as JSON on stdout.
_MEASURED_INVESTIGATION = """
import json, resource, sys
from evmsleuth.explorer import CachedExplorer, LocalExplorer
from evmsleuth.orchestrator import InvestigationConfig, run_investigation
from evmsleuth.rules_evm import VulnSpec, read_vuln_doc

directory, mode, cache = sys.argv[1:]
spec = VulnSpec.from_document(read_vuln_doc(directory))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
explorer = LocalExplorer(directory)
if mode in ("cold", "warm"):
    explorer = CachedExplorer(explorer, cache)
config = InvestigationConfig(
    tag=f"memory-{mode}", spec=spec, explorer=explorer,
    mode="cached" if mode in ("cold", "warm") else mode,
)
detections = len(run_investigation(config).detections)
added = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"addedKiB": added, "detections": detections}))
"""


# Runs the investigations named in argv[2], a JSON list of argument
# lists, each in a fresh interpreter of its own that runs argv[1], and
# prints what they print as a JSON list. Linux carries a process's peak
# resident memory across exec, so a child started straight from the test
# process would start at the test process's peak; the children of this
# small process start at its own.
_LAUNCHER = """
import json, subprocess, sys

script, runs = sys.argv[1], json.loads(sys.argv[2])
out = []
for argv in runs:
    child = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(child.stderr)
    out.append(json.loads(child.stdout))
print(json.dumps(out))
"""


def test_evm_ingest_memory_is_flat_in_trace_length(scaled_root, tmp_path):
    # no copy of a trace text longer than a chunk, and no parsed document
    # of it, is ever held, in local, cached cold (a miss writes the entry
    # in a streamed pass of its own), cached warm (a hit is hashed, then
    # walked, a block at a time), or customTracer mode (the filter keeps
    # only the entries it selects). Each investigation runs in a fresh
    # process, so the peak it adds is its own.
    runs = [
        (magnitude, mode)
        for magnitude in INSTRUCTION_MAGNITUDES
        for mode in ("local", "cold", "warm", "customTracer")
    ]
    argv = [
        [str(scaled_fixture_dir(scaled_root, "instructions", magnitude)), mode,
         str(tmp_path / f"cache-{magnitude}")]
        for magnitude, mode in runs
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(evmsleuth.__file__).parents[1]))
    launcher = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, _MEASURED_INVESTIGATION, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert launcher.returncode == 0, launcher.stderr
    problems = []
    worst = 0.0
    for (magnitude, mode), measured in zip(runs, json.loads(launcher.stdout)):
        assert measured["detections"] == 1, (magnitude, mode)
        added = measured["addedKiB"] / 1024
        worst = max(worst, added)
        if added >= INGEST_MEMORY_CEILING_MB:
            problems.append(f"{magnitude} {mode}: {added:.1f} MB")
    print(f"evm ingest memory: an investigation adds at most {worst:.2f} MB", flush=True)
    assert not problems, "; ".join(problems)


# -- 5: oracle equivalence, reconstruction vs interpreter --


def test_criterion_5_reconstruction_matches_interpreter(suite):
    problems = []
    transactions = 0
    steps = 0
    for name, fixture in suite.items():
        chain = fixture.archive.chain
        world = fixture.archive.world
        for number in range(1, len(chain.blocks)):
            block = chain.blocks[number]
            root, outcomes = oracles.replay_block(chain, world, number)
            if root != block.state_root:
                problems.append(f"{name} block {number}: replayed root differs")
                continue
            for tx, outcome in zip(block.txs, outcomes):
                doc = fixture.archive.traces.get(tx.hash)
                if doc is None:
                    problems.append(f"{name} block {number}: missing stored trace")
                    continue
                rebuilt = reconstruct_document(doc, tx.to)
                transactions += 1
                if len(rebuilt.steps) != len(outcome.trace):
                    problems.append(
                        f"{name} block {number}: {len(rebuilt.steps)} reconstructed "
                        f"steps vs {len(outcome.trace)} interpreted"
                    )
                    continue
                for got, want in zip(rebuilt.steps, outcome.trace):
                    steps += 1
                    mine = (got.frame_id, got.pc, got.depth, got.stack)
                    real = (want.frame_id, want.pc, want.depth, want.stack)
                    if mine != real:
                        problems.append(
                            f"{name} block {number} raw {got.raw_index}: {mine} != {real}"
                        )
                        break
    verdict(
        5,
        "reconstruction-equivalence",
        problems[:5],
        f"{steps} steps over {transactions} transactions, all roots reproduced",
    )


# -- 6: arithmetic oracle --


def test_criterion_6_arithmetic_oracle(suite):
    problems = []
    checked = 0
    for op in sorted(ARITH_ARITY):
        for a, b, c, bits, signed, lo, hi in oracles.arith_cases(op, CASES_PER_OPCODE, SEED):
            operands = [a, b, c] if op in ("ADDMOD", "MULMOD") else [a, b]
            outcome = wrap_arith(op, operands, IntTypeBounds(lo, hi))
            expected = oracles.machine_result(op, a, b, c)
            flagged = oracles.bounds_verdict(op, a, b, c, lo, hi, signed)
            checked += 1
            if outcome.result != expected or outcome.out_of_bounds != flagged:
                problems.append(
                    f"{op}({a}, {b}, {c}) int{bits} signed={signed}: "
                    f"got ({outcome.result}, {outcome.out_of_bounds}), "
                    f"oracle ({expected}, {flagged})"
                )
                break
    verdict(6, "arithmetic-oracle", problems, f"{checked} cases over {len(ARITH_ARITY)} opcodes")


# -- 7: mode invariance --


def test_criterion_7_mode_invariance(suite, suite_dirs, tmp_path_factory):
    problems = []
    cache_root = tmp_path_factory.mktemp("acceptance-caches")
    for name, fixture in suite.items():
        local_report, _ = run_over(fixture, suite_dirs[name])
        cached_report, cached = run_over(
            fixture, suite_dirs[name], mode="cached", cache_dir=cache_root / name
        )
        tracer_report, _ = run_over(fixture, suite_dirs[name], mode="customTracer")
        reference = json.dumps(local_report.detections, sort_keys=True)
        for mode, report in (("cached", cached_report), ("customTracer", tracer_report)):
            if json.dumps(report.detections, sort_keys=True) != reference:
                problems.append(f"{name}: {mode} detections differ from local")
        over_fetched = {k: n for k, n in cached.fetches.items() if n > 1}
        if over_fetched:
            problems.append(f"{name}: {len(over_fetched)} queries hit the inner explorer twice")
    verdict(7, "mode-invariance", problems, "3 modes byte-identical, ≤1 inner call per query")


# -- 8: failed-exploit handling --


def test_criterion_8_reverted_exploit(suite, suite_dirs):
    problems = []
    fixture = suite["Bank"]
    labels = fixture.archive.labels
    probes = [h for h, label in labels.labels.items() if label.mechanism == "reverting-probe"]
    if len(probes) != 1:
        problems.append(f"{len(probes)} reverting probes labeled, expected 1")
    else:
        probe = probes[0]
        evm_report, _ = run_over(fixture, suite_dirs["Bank"])
        hits = [d for d in evm_report.detections if bytes.fromhex(d["txHash"][2:]) == probe]
        if not hits:
            problems.append("reverted exploit not detected at the evm level")
        if any(d["txStatus"] != "failed" for d in hits):
            problems.append("reverted exploit not annotated txStatus=failed")
        block_report, _ = run_over(fixture, suite_dirs["Bank"], level="block")
        if probe in block_flagged(block_report):
            problems.append("reverted exploit flagged at the block level")
    verdict(8, "failed-exploit-handling", problems, "detected as failed, absent from block level")
