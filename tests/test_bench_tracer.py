"""The benchmark's tracer (pipebench/tracing.py) times the package from
outside, by wrapping module and class attributes: installed around an
investigation, it opens the spans of the trace ingest stages, and
uninstalled, it leaves every attribute the object it was."""

import contextlib
import importlib.util
import io
from pathlib import Path

from evmsleuth import cli, explorer, orchestrator, traces
from evmsleuth.explorer import CachedExplorer, LocalExplorer
from evmsleuth.fixtures import build_fixture_chain, write_fixture

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_times_the_ingest_stages_and_restores_every_hook(tmp_path):
    write_fixture(build_fixture_chain("Bank", seed=11), tmp_path / "bank")
    owners = (cli, explorer, orchestrator, traces, LocalExplorer, CachedExplorer)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        hooked = [(owner, attr) for owner, attr, _ in tracer._patches]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["investigate", "-t", "x", "-e", f"local[dir={tmp_path / 'bank'}]"])
    finally:
        tracer.uninstall()
    assert code == 0 and '"detections"' in out.getvalue()
    stages = ("parse_trace_document", "decode_steps", "reconstruct")
    assert {(traces, name) for name in stages} <= set(hooked)
    for owner, attr in hooked:
        assert vars(owner)[attr] is before[owner][attr], (owner, attr)
    for span in ("traces.parse", "words.decode_steps", "traces.reconstruct"):
        assert tracer.calls[span] > 0, span
    steps = tracer.counts["words.steps_decoded"]
    assert steps > 0 and steps == tracer.counts["traces.steps_materialised"]
