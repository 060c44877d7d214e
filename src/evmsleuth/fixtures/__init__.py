"""Hand-assembled vulnerable contracts and the labeled chains built from them."""

from .scenarios import (  # noqa: F401
    EXPLOIT_COUNTS,
    SCENARIO_NAMES,
    ScenarioFixture,
    build_fixture_chain,
    build_suite,
    read_vuln_doc,
    read_vuln_file,
    scale_fixture,
    write_fixture,
)
