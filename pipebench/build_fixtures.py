"""Set-up child: generate one workload's fixtures and describe them.

    python3 pipebench/build_fixtures.py SRC AXIS MAGNITUDE SEED OUT

AXIS is `instructions` or `storage` (one scaled fixture written to OUT) or
`suite` (all six scenarios, each in OUT/<scenario>; MAGNITUDE is ignored).
Prints one JSON object: the build and write times and, per fixture
directory, the facts a later claim needs to be re-checked on another seed.

It runs in a process of its own so that the benchmark process's peak
resident memory measures investigations, not fixture generation.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("*.json")) if directory.is_dir() else 0


def _facts(fixture, directory: Path) -> dict:
    archive = fixture.archive
    chain = archive.chain
    steps = [len(t["structLogs"]) for t in archive.traces.values()]
    return {
        "blocks": chain.height + 1,
        "transactions": sum(len(block.txs) for block in chain.blocks),
        "traces": len(archive.traces),
        "trace_steps": sum(steps),
        "longest_trace_steps": max(steps, default=0),
        "trace_bytes": _tree_bytes(directory / "traces"),
        "snapshots": len(archive.world.snapshots),
        "snapshot_bytes": _tree_bytes(directory / "states"),
        "labelled_exploits": len(archive.labels.exploit_hashes()),
    }


def main(argv: list[str]) -> int:
    src, axis, magnitude, seed, out = argv
    sys.path.insert(0, src)
    from evmsleuth.fixtures import build_suite, scale_fixture, write_fixture

    out_dir = Path(out)
    seed_value = int(seed)
    t0 = time.perf_counter()
    if axis == "suite":
        fixtures = {name: (f, out_dir / name) for name, f in build_suite(seed_value).items()}
    else:
        scenario = "DelayedUnderflow" if axis == "instructions" else "TargetUnderflow"
        fixture = scale_fixture(scenario, axis, int(magnitude), seed=seed_value)
        fixtures = {scenario: (fixture, out_dir)}
    t1 = time.perf_counter()
    for fixture, directory in fixtures.values():
        write_fixture(fixture, directory)
    t2 = time.perf_counter()
    print(json.dumps({
        "build_s": t1 - t0,
        "write_s": t2 - t1,
        "fixtures": {
            name: {"dir": str(directory), **_facts(fixture, directory)}
            for name, (fixture, directory) in fixtures.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
