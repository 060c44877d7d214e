"""The cost-shape harness behind `evmsleuth bench`: run_investigation timed
over the scaled fixtures that `fixtures scale` writes, one per magnitude of a
cost axis. The package's __init__ does not import this module, so an
investigation loads neither it nor the rest of the producer.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

from ..errors import UsageError
from ..explorer import CachedExplorer, LocalExplorer, quoted_fault
from ..orchestrator import InvestigationConfig, run_investigation
from ..rules_evm import VulnSpec, read_vuln_doc

# The bench CSV's header: a name per value of a bench row, in bench's order.
CSV_HEADER = ("axis", "magnitude", "mode", "level", "repeats",
              "analyze_s", "fetch_s", "total_s", "detections", "steps_interpreted")


def scaled_fixture_dir(root: str | Path, axis: str, magnitude: int) -> Path:
    """Where `fixtures scale --root` writes one scaled fixture, and bench
    reads it."""
    if magnitude < 0:
        raise UsageError("magnitude must be non-negative")
    return Path(root) / f"{axis}-{magnitude}"


def bench(
    root: str | Path,
    axis: str,
    magnitudes: list[int],
    mode: str = "local",
    level: str = "evm",
    repeats: int = 3,
) -> list[dict]:
    """One row per magnitude: the best of `repeats` investigations of its
    scaled fixture, best by analyze time, since block-level runs finish fast
    enough for scheduler noise to matter.

    With mode "cached" one untimed warm-up run fills the cache first, so the
    numbers show steady-state cost rather than first-touch I/O. The cache is
    a temporary directory per magnitude, removed after its timed runs: its
    entries are keyed by query, not by archive, so one kept beside the
    fixture could answer a rescaled fixture from the old archive.
    """
    if repeats < 1:
        raise UsageError("repeats must be at least 1")
    table = []
    for magnitude in magnitudes:
        directory = scaled_fixture_dir(root, axis, magnitude)
        where = f"scaled fixture at {directory}"
        try:
            found = directory.is_dir()
        except OSError as err:  # a name too long to look up
            where, _ = quoted_fault(where, err)
            found = False
        if not found:
            raise UsageError(f"no {where}; run fixtures scale first")
        spec = VulnSpec.from_document(read_vuln_doc(directory))
        with tempfile.TemporaryDirectory(prefix="evmsleuth-bench-") as cache_dir:
            explorer = LocalExplorer(directory)
            if mode == "cached":
                explorer = CachedExplorer(explorer, cache_dir)
            config = InvestigationConfig(
                tag=directory.name, spec=spec, explorer=explorer, level=level, mode=mode
            )
            if mode == "cached":
                run_investigation(config)  # warm-up, untimed
            runs = (run_investigation(config) for _ in range(repeats))
            best = min(runs, key=lambda report: report.timings["analyze"])
        timings = best.timings
        table.append({
            "axis": axis, "magnitude": magnitude, "mode": mode, "level": level,
            "repeats": repeats, "analyze": round(timings["analyze"], 6),
            "fetch": round(timings["fetch"], 6), "total": round(timings["total"], 6),
            "detections": len(best.detections), "stepsInterpreted": best.steps_interpreted,
        })
    return table


def write_csv(table: list[dict], out):
    """The bench CSV of table's rows, header first, to the text stream out."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(row.values() for row in table)
