"""The command line run in a fresh interpreter, for tests about what a run
loads: `requests` is made unimportable, evmsleuth's main runs on the given
arguments, and the names of the modules the process holds at its end are
written as the last line of its stderr."""

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
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def run_isolated_cli(*argv: str) -> subprocess.CompletedProcess:
    """`evmsleuth argv` in a fresh interpreter; with no argv, the process
    only imports evmsleuth.cli."""
    env = dict(os.environ, PYTHONPATH=str(Path(evmsleuth.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def modules_loaded(run: subprocess.CompletedProcess) -> set[str]:
    """The modules a finished run_isolated_cli process held at its end."""
    return set(json.loads(run.stderr.splitlines()[-1]))
