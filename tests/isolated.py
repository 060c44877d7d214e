"""The command line run in a fresh interpreter, for tests about what a run
loads: `requests` is made unimportable, evmsleuth's main runs on the given
arguments, and the names of the modules the process holds at its end are
written as the last line of its stderr. Processes started together can be
held at a gate, so that their runs overlap."""

import json
import os
import subprocess
import sys
from pathlib import Path

import evmsleuth

_SCRIPT = """
import json, sys
sys.modules["requests"] = None
from evmsleuth.cli import main
go, argv = sys.argv[1], sys.argv[2:]
if go:
    import os, time
    print("ready", file=sys.stderr, flush=True)
    while not os.path.exists(go):
        time.sleep(0.001)
code = main(argv) if argv else 0
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def start_isolated_cli(*argv: str, go: str = "") -> subprocess.Popen:
    """Start `evmsleuth argv` in a fresh interpreter, with pipes for its
    output. Given a path `go`, the process imports evmsleuth.cli, writes
    "ready" as its first stderr line and runs only once `go` exists."""
    env = dict(os.environ, PYTHONPATH=str(Path(evmsleuth.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, go, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def run_isolated_cli(*argv: str) -> subprocess.CompletedProcess:
    """`evmsleuth argv` in a fresh interpreter; with no argv, the process
    only imports evmsleuth.cli."""
    with start_isolated_cli(*argv) as process:
        try:
            out, err = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    return subprocess.CompletedProcess(process.args, process.returncode, out, err)


def modules_loaded(run: subprocess.CompletedProcess) -> set[str]:
    """The modules a finished run_isolated_cli process held at its end."""
    return set(json.loads(run.stderr.splitlines()[-1]))
