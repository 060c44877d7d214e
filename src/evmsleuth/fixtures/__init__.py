"""Hand-assembled vulnerable contracts and the labeled chains built from them.

This package is the archive producer: the world-state model and its state
roots (state), the interpreter, the miner and archive writer (archive), the
assembler and the scenarios. The investigator is everything outside it and
never imports it; it reads what the producer wrote.
"""

from .scenarios import (  # noqa: F401
    EXPLOIT_COUNTS,
    SCENARIO_NAMES,
    ScenarioFixture,
    build_fixture_chain,
    build_suite,
    scale_fixture,
    write_fixture,
)
