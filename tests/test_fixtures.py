"""Fixture generator: assembler, scenario chains, labels, scaling."""

import pytest

from oracles import replay_block
from evmsleuth.errors import UsageError
from evmsleuth.fixtures import (
    EXPLOIT_COUNTS,
    SCENARIO_NAMES,
    build_fixture_chain,
    build_suite,
    scale_fixture,
    write_fixture,
)
from evmsleuth.fixtures.asm import Assembler
from evmsleuth.hashing import function_selector
from evmsleuth.fixtures.interpreter import MNEMONICS, execute_transaction
from evmsleuth.fixtures.state import GlobalState
from evmsleuth.rules_evm import read_vuln_doc

SEED = 11


@pytest.fixture(scope="module")
def suite():
    return build_suite(seed=SEED)


# -- assembler --


def test_push_width_inference():
    program = Assembler().push(0).push(255).push(256).push(1 << 16).assemble()
    assert program.code == bytes(
        [MNEMONICS["PUSH1"], 0, MNEMONICS["PUSH1"], 255,
         MNEMONICS["PUSH2"], 1, 0, MNEMONICS["PUSH3"], 1, 0, 0]
    )


def test_push_rejects_misfits():
    with pytest.raises(UsageError):
        Assembler().push(256, width=1)
    with pytest.raises(UsageError):
        Assembler().push(-1)
    with pytest.raises(UsageError):
        Assembler().push(0, width=33)


def test_label_ref_two_pass():
    a = Assembler()
    a.jump("end").op("STOP").label("end").op("STOP")
    program = a.assemble()
    # PUSH2 offset JUMP STOP JUMPDEST STOP
    assert program.labels["end"] == 5
    assert program.code[0] == MNEMONICS["PUSH2"]
    assert int.from_bytes(program.code[1:3], "big") == 5


def test_undefined_and_duplicate_labels():
    with pytest.raises(UsageError):
        Assembler().jump("nowhere").assemble()
    with pytest.raises(UsageError):
        Assembler().label("x").label("x").assemble()


def test_mark_names_next_instruction():
    a = Assembler()
    a.op("STOP").mark("here").push(1).op("POP")
    program = a.assemble()
    assert program.marks["here"] == 1  # the PUSH1, not the STOP
    with pytest.raises(UsageError):
        Assembler().mark("dangling").assemble()


def test_dispatch_routes_by_selector():
    sel_a = function_selector("alpha()")
    sel_b = function_selector("beta()")
    a = Assembler()
    a.dispatch([(sel_a, "alpha"), (sel_b, "beta")])
    a.op("STOP")
    a.label("alpha").op("POP").push(1).push(0).op("SSTORE").op("STOP")
    a.label("beta").op("POP").push(2).push(0).op("SSTORE").op("STOP")
    program = a.assemble()

    def run(selector: bytes) -> int:
        state = GlobalState()
        state.ensure_account(0xAA).balance = 10
        state.install_code(0xCC, program.code)
        out = execute_transaction(state, 0xAA, 0xCC, 0, selector + bytes(28))
        assert out.status == "success"
        return out.final_state.storage_at(0xCC, 0)

    assert run(sel_a) == 1
    assert run(sel_b) == 2
    assert run(b"\x00\x00\x00\x00") == 0  # falls through to STOP


# -- scenario suite --


def test_suite_names_and_exploit_counts(suite):
    assert tuple(suite) == SCENARIO_NAMES
    for name, fixture in suite.items():
        labeled = fixture.archive.labels.exploit_hashes()
        assert len(labeled) == EXPLOIT_COUNTS[name], name
        # every labeled exploit is a real transaction with a stored trace
        for txh in labeled:
            assert txh in fixture.archive.traces


def test_every_block_replays_to_stored_root(suite):
    for name, fixture in suite.items():
        chain, world = fixture.archive.chain, fixture.archive.world
        for n in range(chain.height + 1):
            root, _ = replay_block(chain, world, n)
            assert root == chain.blocks[n].state_root, (name, n)


def test_vuln_docs_are_complete(suite):
    for name, fixture in suite.items():
        doc = fixture.vuln
        assert doc["scenario"] == name
        assert doc["rule"] in ("overflow", "dos", "reentrancy")
        assert doc["vulnLocs"], name
        for loc in doc["vulnLocs"]:
            assert loc["pcOffsets"] == sorted(loc["pcOffsets"])
        rng = doc["filter"]["blockRange"]
        assert rng[0] == 1 and rng[1] == fixture.archive.chain.height


def test_vuln_pcs_land_on_claimed_instructions(suite):
    # the marked pc must appear in the exploit traces of its scenario
    for name, fixture in suite.items():
        pcs = {
            (int(loc["codeAddress"], 16), pc)
            for loc in fixture.vuln["vulnLocs"]
            for pc in loc["pcOffsets"]
        }
        seen = set()
        for txh in fixture.archive.labels.exploit_hashes():
            for step in fixture.archive.traces[txh]["structLogs"]:
                seen.add(step["pc"])
        assert {pc for _, pc in pcs} <= seen, name


def test_build_is_deterministic(tmp_path):
    a = build_fixture_chain("Bank", seed=SEED)
    b = build_fixture_chain("Bank", seed=SEED)
    write_fixture(a, tmp_path / "a")
    write_fixture(b, tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_different_seeds_differ():
    a = build_fixture_chain("Bank", seed=1)
    b = build_fixture_chain("Bank", seed=2)
    assert a.archive.chain.tip.hash != b.archive.chain.tip.hash


@pytest.mark.parametrize("name", ["NoSuchThing", "all"])
def test_unknown_scenario(name):
    # "all" is the CLI's word for the whole suite, not a scenario
    with pytest.raises(UsageError, match=f"unknown scenario '{name}'"):
        build_fixture_chain(name)


def test_write_and_read_vuln_doc(tmp_path):
    fixture = build_fixture_chain("TargetUnderflow", seed=SEED)
    write_fixture(fixture, tmp_path)
    doc = read_vuln_doc(tmp_path)
    assert doc == fixture.vuln
    with pytest.raises(UsageError):
        read_vuln_doc(tmp_path / "empty")


# -- scenario-specific structure --


def test_bec_has_proxied_and_occluded_mechanisms(suite):
    fixture = suite["SimulationBECToken"]
    labels = fixture.archive.labels
    mechanisms = {}
    for txh in labels.exploit_hashes():
        mechanisms.setdefault(labels.labels[txh].mechanism, []).append(txh)
    assert len(mechanisms.get("proxied", [])) == 3
    assert len(mechanisms.get("occluded", [])) == 1
    assert fixture.vuln["filter"]["includeInternal"] is True
    # proxied exploits enter through another contract: top-level `to` differs
    contract = int(fixture.vuln["contractAddress"], 16)
    chain = fixture.archive.chain
    tx_to = {}
    for n in range(1, chain.height + 1):
        for tx in chain.blocks[n].txs:
            tx_to[tx.hash] = tx.to
    for txh in mechanisms["proxied"]:
        assert tx_to[txh] != contract
    for txh in mechanisms["occluded"]:
        assert tx_to[txh] == contract


def test_kotet_exploits_are_failed_transactions(suite):
    fixture = suite["SimulationKotET"]
    for txh in fixture.archive.labels.exploit_hashes():
        assert fixture.archive.traces[txh]["failed"] is True


def test_bank_probe_is_sole_failed_exploit(suite):
    fixture = suite["Bank"]
    failed = [
        txh
        for txh in fixture.archive.labels.exploit_hashes()
        if fixture.archive.traces[txh]["failed"]
    ]
    assert len(failed) == 1
    assert fixture.archive.labels.labels[failed[0]].mechanism == "reverting-probe"


# -- scaling --


def test_scale_instructions_hits_magnitude_within_tolerance():
    for magnitude in (21_000, 84_000):
        fixture = scale_fixture("DelayedUnderflow", "instructions", magnitude, seed=SEED)
        txh = fixture.archive.labels.exploit_hashes()[0]
        steps = len(fixture.archive.traces[txh]["structLogs"])
        assert abs(steps - magnitude) <= 0.02 * magnitude, (magnitude, steps)


def test_scale_instructions_zero_returns_base():
    base = build_fixture_chain("DelayedUnderflow", seed=SEED)
    scaled = scale_fixture("DelayedUnderflow", "instructions", 0, seed=SEED)
    assert scaled.archive.chain.tip.hash == base.archive.chain.tip.hash


def test_scale_storage_adds_rows():
    fixture = scale_fixture("TargetUnderflow", "storage", 500, seed=SEED)
    contract = int(fixture.vuln["contractAddress"], 16)
    state = fixture.archive.world.get(fixture.archive.chain.blocks[0].state_root)
    rows = len(state.accounts[contract].storage)
    assert rows >= 500


def test_scale_rejects_bad_requests():
    with pytest.raises(UsageError):
        scale_fixture("Bank", "instructions", 21_000)
    with pytest.raises(UsageError):
        scale_fixture("DelayedUnderflow", "storage", 500)
    with pytest.raises(UsageError):
        scale_fixture("DelayedUnderflow", "instructions", 10**9)
    with pytest.raises(UsageError):
        scale_fixture("TargetUnderflow", "storage", -1)
    with pytest.raises(UsageError):
        scale_fixture("DelayedUnderflow", "nonsense", 5)
