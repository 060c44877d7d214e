"""Compare two source trees of the investigator in one interpreter: the
sweeps of one workload run through each tree's cli.main in turn, round by
round, and every report must be the same in both.

    python tests/ab_sweeps.py SRC_A SRC_B
        [--workload state-edges|suite|deep-trace] [--mode cached|local]
        [--seed 11] [--rounds 20]

SRC_A and SRC_B are `src` directories, each holding an evmsleuth package;
they may be one and the same (an A/A run). Each is imported under a
module name of its own, so both are loaded at once and a round compares
them under the same interpreter, heap and page cache. The fixtures are
built once, by SRC_A's fixtures package. In mode `cached`, the default,
each tree warms a cache directory of its own, and the sweeps are
investigations over warm caches, what the benchmark's `cached.p50_ref`
measures; in mode `local` they read the archives directly, what its
`local.p50_ref` measures.

The workloads are those of pipebench/run.py: `state-edges`, the
TargetUnderflow storage fixture at magnitude 32000, investigated at block
level; `suite`, the six scenarios at evm level; `deep-trace`, the
DelayedUnderflow instructions fixture at magnitude 84000 (one exploit trace
of about 84,000 steps, a long cache hit checked on the file and streamed),
at evm level. A sweep is one
investigation of each fixture; the trees take turns, and the one that
goes first alternates from round to round. Every sweep's reports, with
their `timings` left out, must equal the first sweep's, so the trees agree
and neither changes from round to round; a difference stops the run with
exit 1.

Prints, per tree, the median sweep in milliseconds and the number of rounds
in which its sweep was the faster, then the change of B's median against
A's. Nothing is gated on timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

# name: (fixture axis, magnitude, level), as in pipebench/run.py
WORKLOADS = {
    "state-edges": ("storage", 32_000, "block"),
    "suite": ("suite", 0, "evm"),
    "deep-trace": ("instructions", 84_000, "evm"),
}
# the scenario each scaled axis scales
SCALED = {"storage": "TargetUnderflow", "instructions": "DelayedUnderflow"}


def load_tree(src: Path, name: str):
    """The evmsleuth package under src, imported as the package `name`,
    with its cli module loaded."""
    init = src / "evmsleuth" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def build(fixtures, workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the workload's fixtures under out, with the fixtures package
    given: {name: directory}."""
    axis, magnitude, _ = WORKLOADS[workload]
    if axis == "suite":
        built = fixtures.build_suite(seed)
    else:
        scenario = SCALED[axis]
        built = {scenario: fixtures.scale_fixture(scenario, axis, magnitude, seed=seed)}
    dirs = {}
    for name, fixture in built.items():
        dirs[name] = out / name
        fixtures.write_fixture(fixture, dirs[name])
    return dirs


def investigate(package, argv: list[str]) -> tuple[dict, float]:
    """(report without its timings, seconds) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules[f"{package.__name__}.cli"].main
    gc.collect()  # each investigation starts from a clean heap
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{package.__name__}: exit {code}: {err.getvalue().strip()[-300:]}")
    report = json.loads(out.getvalue())
    report.pop("timings")
    return report, elapsed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="SRC")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="state-edges")
    parser.add_argument("--mode", choices=["cached", "local"], default="cached")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    packages = [load_tree(src.resolve(), f"evmsleuth_{tag}") for src, tag in zip(args.trees, "ab")]
    level = WORKLOADS[args.workload][2]
    with tempfile.TemporaryDirectory(prefix="ab-sweeps-") as work:
        work = Path(work)
        fixtures = importlib.import_module(f"{packages[0].__name__}.fixtures")
        dirs = build(fixtures, args.workload, args.seed, work / "fixtures")
        argvs = {}
        for package in packages:
            argvs[package] = []
            for name, directory in dirs.items():
                command = ["investigate", "-t", "ab", "-e", f"local[dir={directory}]", "-d", level]
                if args.mode == "cached":
                    command += ["-c", str(work / package.__name__ / name)]
                    investigate(package, command)  # cold: writes every entry
                argvs[package].append(command)
        sweeps = {package: [] for package in packages}
        reports = None
        for round_ in range(args.rounds):
            for package in packages[::-1] if round_ % 2 else packages:
                seconds = 0.0
                swept = []
                for command in argvs[package]:
                    report, elapsed = investigate(package, command)
                    swept.append(report)
                    seconds += elapsed
                if reports is None:
                    reports = swept
                elif swept != reports:
                    print(f"round {round_}: {package.__name__} reports differ", file=sys.stderr)
                    return 1
                sweeps[package].append(seconds)
    a, b = (sweeps[package] for package in packages)
    medians = [statistics.median(a), statistics.median(b)]
    wins = [sum(x < y for x, y in zip(a, b)), sum(y < x for x, y in zip(a, b))]
    print(f"{args.workload} {args.mode}, seed {args.seed}, {args.rounds} rounds, "
          f"{len(dirs)} fixture(s) a sweep; reports equal")
    for src, median, won in zip(args.trees, medians, wins):
        print(f"  {str(src):40s} median {median * 1e3:9.3f} ms  faster in {won}/{args.rounds}")
    print(f"  B against A: {(medians[1] / medians[0] - 1) * 100:+.1f}% in the median")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
