"""Smoke test of the pipeline benchmark at the smallest magnitudes.

    python3 -m pytest -q pipebench/test_smoke.py

Runs every workload for a fraction of a second over the smallest scaled
fixtures (instructions 21000, storage 500) and the suite, untraced and
traced, and checks the output contract and the correctness gate.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import run

SMALL = {
    "deep-trace": dataclasses.replace(run.WORKLOADS["deep-trace"], magnitude=21_000),
    "state-edges": dataclasses.replace(run.WORKLOADS["state-edges"], magnitude=500),
    "suite-sweep": run.WORKLOADS["suite-sweep"],
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", SMALL)


def bench(workload: str, trace: int = 0) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seconds", "0.2", "--trace", str(trace)])
    return code, out.getvalue().splitlines()


def table(lines: list[str]) -> dict[str, tuple[float, str]]:
    """metric name -> (value, unit) from the printed metric lines."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def relabel(monkeypatch, edit):
    """Apply `edit` to every labels.json the benchmark reads."""
    real = run.read_exploits

    def tampered(directory):
        path = directory / "labels.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return real(directory)

    monkeypatch.setattr(run, "read_exploits", tampered)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMALL))
def test_every_metric_prints_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = table(lines)
    for name, unit in {**run.END_TO_END, **wanted}.items():
        assert printed[name][1] == unit, name
    assert printed["failed_ratio"] == (0.0, "ratio")
    meta = json.loads(lines[0])["meta"]
    assert meta["seed"] == 11 and meta["words_backend"] in ("pure", "native")
    assert all(facts["labelled_exploits"] > 0 for facts in meta["fixtures"].values())


@pytest.mark.parametrize("workload", list(SMALL))
def test_a_tampered_label_fails_investigations(workload, monkeypatch):
    # an extra exploit label for a transaction that does not exist
    relabel(monkeypatch, lambda labels: {
        **labels, "0x" + "ab" * 32: {"class": "overflow", "mechanism": "tampered"},
    })
    code, lines = bench(workload)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["failed"] > 0 and not result["correct"]
    assert table(lines)["failed_ratio"][0] > 0


def test_no_expected_detection_stops_the_run(monkeypatch):
    relabel(monkeypatch, lambda labels: {})
    code, lines = bench("state-edges")
    assert code == 1
    assert not any(line.startswith('{"correct"') for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "pipebench"
    shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "deep-trace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert child.stdout == ""


def test_each_sweep_is_divided_by_the_reference_timings_around_it(monkeypatch, tmp_path):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    bench = run.Bench("state-edges", SMALL["state-edges"], 11, tmp_path, trace=False)
    timings = iter([1.0, 4.0, 9.0])  # one before the first sweep, one after each
    monkeypatch.setattr(run.reference, "time_once", lambda: next(timings))
    monkeypatch.setattr(bench, "sweep", lambda mode, traced: 3.0)
    bench.measure(0)  # a single round: one sweep of each mode
    assert bench.reference_s == [1.0, 4.0, 9.0]
    assert bench.samples == {"local": [3.0], "cached": [3.0]}
    assert bench.relative == {"local": [3.0 / 2.0], "cached": [3.0 / 6.0]}
