"""Instruction-level rule evaluation over reconstructed traces."""

import pytest

from evmsleuth.errors import ConfigError
from evmsleuth.filters import FilterQuery
from evmsleuth.fixtures import build_fixture_chain
from evmsleuth.rules_evm import Detection, VulnSpec, evaluate_trace
from evmsleuth.traces import reconstruct_document
from evmsleuth.words import IntTypeBounds, address_hex, word_hex

SEED = 11

CONTRACT = 0xC0DE
ATTACKER = 0xBAD0
TX = bytes(range(32))
BLOCK = 4

UINT256_MAX = str(2**256 - 1)

_PARAMS = {
    "overflow": {"typeMin": "0", "typeMax": UINT256_MAX, "balanceOfSlot": 1},
    "dos": {"highestBidSlot": 1},
    "reentrancy": {"userBalancesSlot": 2},
}


def vuln_doc(rule="overflow", pcs=(4,), code=CONTRACT, params=None):
    return {
        "scenario": "Synthetic",
        "contractAddress": "0x%040x" % CONTRACT,
        "rule": rule,
        "vulnLocs": [{"codeAddress": "0x%040x" % code, "pcOffsets": list(pcs)}],
        "params": dict(_PARAMS[rule]) if params is None else params,
        "filter": {
            "selectors": ["poke()"],
            "includeInternal": False,
            "blockRange": [1, 5],
        },
    }


def spec_for(rule="overflow", pcs=(4,), code=CONTRACT, params=None):
    return VulnSpec.from_document(vuln_doc(rule, pcs, code, params))


def step(pc, op, depth, stack=(), **extra):
    entry = {
        "pc": pc,
        "op": op,
        "gas": 50_000,
        "gasCost": 3,
        "depth": depth,
        "stack": ["0x%x" % w for w in stack],
    }
    entry.update(extra)
    return entry


def doc(steps, failed=False):
    return {"gas": 1234, "failed": failed, "returnValue": "0x", "structLogs": steps}


def arith_trace(op, stack):
    """One arithmetic step at pc 35 inside the contract's own code."""
    src = doc(
        [
            step(0, "PUSH32", 1),
            step(33, "PUSH1", 1),
            step(35, op, 1, stack),
            step(36, "STOP", 1),
        ]
    )
    return reconstruct_document(src, CONTRACT)


# -- vuln descriptor parsing --


def test_from_document_round_trip():
    spec = spec_for("dos", pcs=(7, 3))
    assert spec.scenario == "Synthetic"
    assert spec.contract == CONTRACT
    assert spec.rule == "dos"
    assert spec.gate == {CONTRACT: frozenset({3, 7})}
    assert spec.query == FilterQuery(CONTRACT, ("poke()",), False, (1, 5))
    assert (spec.slot, spec.bounds, spec.to_arg_index) == (1, None, None)


def test_from_document_resolves_the_overflow_params():
    params = {"typeMin": -128, "typeMax": "127", "balanceOfSlot": 3, "toArgIndex": 2}
    spec = spec_for("overflow", params=params)
    assert (spec.slot, spec.bounds, spec.to_arg_index) == (3, IntTypeBounds(-128, 127), 2)
    spec = spec_for("overflow", params=dict(params, toArgIndex=None))
    assert spec.to_arg_index is None


def test_from_document_leaves_unused_params_unread():
    # typeMin is no dos param; highestBidSlot is a scalar slot, so 0 is one
    spec = spec_for("dos", params={"highestBidSlot": 0, "typeMin": "x"})
    assert spec.slot == 0


def _set(path, value):
    """A mutation that sets the descriptor field at path (a key sequence)."""

    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


_BAD_PCS = r"vulnLocs\[0\].pcOffsets must be a list of non-negative integers"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("scenario"), "scenario is missing"),
        (lambda d: d.pop("params"), "params is missing"),
        (lambda d: d["filter"].pop("includeInternal"), "filter.includeInternal is missing"),
        (_set(["scenario"], 7), "scenario must be a string"),
        (_set(["contractAddress"], "pond"), "contractAddress must be 0x and 40 hex digits"),
        (_set(["contractAddress"], "0x" + "0" * 60 + "c0de"), "contractAddress must be"),
        (_set(["contractAddress"], "%040x" % CONTRACT), "contractAddress must be"),
        (_set(["rule"], "phish"), "rule must be one of overflow, dos, reentrancy"),
        (_set(["rule"], ["dos"]), "rule must be one of"),
        (_set(["vulnLocs"], []), "vulnLocs must be a non-empty list"),
        (_set(["vulnLocs"], 5), "vulnLocs must be a non-empty list"),
        (_set(["vulnLocs"], [5]), r"vulnLocs\[0\] must be an object"),
        (_set(["vulnLocs"], [{"codeAddress": "0x1"}]), r"vulnLocs\[0\].codeAddress must be"),
        (_set(["vulnLocs", 0, "pcOffsets"], 4), r"vulnLocs\[0\].pcOffsets must be a list"),
        (_set(["vulnLocs", 0, "pcOffsets"], [211.7]), _BAD_PCS),
        (_set(["vulnLocs", 0, "pcOffsets"], [4, -5]), _BAD_PCS),
        (_set(["vulnLocs", 0, "pcOffsets"], [True]), _BAD_PCS),
        (_set(["vulnLocs", 0, "pcOffsets"], ["4"]), _BAD_PCS),
        (_set(["params"], 5), "params must be an object"),
        (_set(["params", "balanceOfSlot"], -1), "balanceOfSlot must be an integer of at least 1"),
        (_set(["params", "balanceOfSlot"], 0), "balanceOfSlot must be an integer of at least 1"),
        (_set(["params", "balanceOfSlot"], "1"), "params.balanceOfSlot must be"),
        (_set(["params", "typeMin"], "x"), "params.typeMin must be an integer or a decimal string"),
        (_set(["params", "typeMin"], " 0"), "params.typeMin must be"),
        (_set(["params", "typeMin"], 0.0), "params.typeMin must be"),
        (_set(["params", "typeMax"], False), "params.typeMax must be"),
        (_set(["params", "typeMax"], "-1"), r"params.typeMax must be at least typeMin \(0\)"),
        (_set(["params", "toArgIndex"], -1), "params.toArgIndex must be an integer of at least 0"),
        (_set(["params", "toArgIndex"], "2"), "params.toArgIndex must be"),
        (_set(["filter"], []), "filter must be an object"),
        (_set(["filter", "selectors"], []), "filter.selectors must be a non-empty list"),
        (_set(["filter", "selectors"], "poke()"), "filter.selectors must be a non-empty list"),
        (_set(["filter", "selectors"], [["(", ")"]]), "filter.selectors must be"),
        (_set(["filter", "selectors"], ["poke ()"]), "filter.selectors: not a canonical"),
        (_set(["filter", "includeInternal"], "false"), "filter.includeInternal must be a boolean"),
        (_set(["filter", "includeInternal"], 0), "filter.includeInternal must be a boolean"),
        (_set(["filter", "blockRange"], [0, 5]), "filter.blockRange must be two integers"),
        (_set(["filter", "blockRange"], [3, 2]), "filter.blockRange must be"),
        (_set(["filter", "blockRange"], ["1", 2]), "filter.blockRange must be"),
        (_set(["filter", "blockRange"], [True, 2]), "filter.blockRange must be"),
        (_set(["filter", "blockRange"], [1, 2, 3]), "filter.blockRange must be"),
    ],
)
def test_from_document_rejects_malformed(mutate, fragment):
    src = vuln_doc()
    mutate(src)
    with pytest.raises(ConfigError, match=fragment):
        VulnSpec.from_document(src)


@pytest.mark.parametrize("doc", [[], "descriptor", None, 5])
def test_from_document_rejects_a_non_object(doc):
    with pytest.raises(ConfigError, match="vuln descriptor: the document must be an object"):
        VulnSpec.from_document(doc)


@pytest.mark.parametrize(
    "rule, missing",
    [
        ("overflow", "typeMax"),
        ("overflow", "balanceOfSlot"),
        ("dos", "highestBidSlot"),
        ("reentrancy", "userBalancesSlot"),
    ],
)
def test_each_rule_requires_its_params(rule, missing):
    params = dict(_PARAMS[rule])
    del params[missing]
    with pytest.raises(ConfigError, match=f"params.{missing} is missing"):
        spec_for(rule, params=params)


def test_an_error_message_shows_a_long_value_cut_short():
    with pytest.raises(ConfigError) as refused:
        spec_for("dos", params={"highestBidSlot": "9" * 100_000})
    assert len(str(refused.value)) < 120


# -- overflow rule --


def test_overflow_flags_wrapping_multiply():
    spec = spec_for("overflow", pcs=(35,))
    rec = arith_trace("MUL", (2**255, 2))
    hits, notes = evaluate_trace(rec, spec, TX, BLOCK)
    assert notes == []
    assert len(hits) == 1
    hit = hits[0]
    assert hit.pc == 35 and hit.rule == "overflow"
    assert hit.detail["op"] == "MUL"
    assert hit.detail["operands"] == [word_hex(2), word_hex(2**255)]
    assert hit.detail["result"] == word_hex(0)
    assert hit.detail["zResult"] == str(2**256)
    assert hit.detail["zClamped"] is False
    assert hit.detail["typeMax"] == UINT256_MAX


def test_overflow_ignores_in_range_arithmetic():
    spec = spec_for("overflow", pcs=(35,))
    hits, notes = evaluate_trace(arith_trace("MUL", (5, 3)), spec, TX, BLOCK)
    assert hits == [] and notes == []


def test_underflow_depends_on_signedness():
    unsigned = spec_for("overflow", pcs=(35,))
    rec = arith_trace("SUB", (1, 0))  # top of stack is the minuend
    hits, _ = evaluate_trace(rec, unsigned, TX, BLOCK)
    assert len(hits) == 1
    assert hits[0].detail["zResult"] == "-1"
    assert hits[0].detail["result"] == word_hex(2**256 - 1)

    signed_params = {
        "typeMin": str(-(2**255)),
        "typeMax": str(2**255 - 1),
        "balanceOfSlot": 1,
    }
    signed = spec_for("overflow", pcs=(35,), params=signed_params)
    hits, _ = evaluate_trace(rec, signed, TX, BLOCK)
    assert hits == []


@pytest.mark.parametrize("op", ["ADDMOD", "MULMOD"])
def test_modular_ops_never_flag(op):
    spec = spec_for("overflow", pcs=(35,))
    rec = arith_trace(op, (5, 2**256 - 1, 2**256 - 1))
    hits, notes = evaluate_trace(rec, spec, TX, BLOCK)
    assert hits == [] and notes == []


def test_clamped_exponentiation_flags_without_exact_value():
    spec = spec_for("overflow", pcs=(35,))
    rec = arith_trace("EXP", (2**20, 3))  # base on top, huge exponent below
    hits, _ = evaluate_trace(rec, spec, TX, BLOCK)
    assert len(hits) == 1
    assert hits[0].detail["zResult"] is None
    assert hits[0].detail["zClamped"] is True


def test_overflow_skips_short_stacks_with_a_note():
    spec = spec_for("overflow", pcs=(35,))
    rec = arith_trace("MUL", (2,))
    hits, notes = evaluate_trace(rec, spec, TX, BLOCK)
    assert hits == []
    assert notes == ["step 2: MUL with 1 stack words, skipped"]


def test_bad_bounds_fail_when_the_descriptor_is_read():
    # not on the first gated step of some trace, in the middle of a run
    params = {"typeMin": "x", "typeMax": "1", "balanceOfSlot": 1}
    with pytest.raises(ConfigError, match="params.typeMin must be"):
        spec_for("overflow", pcs=(99,), params=params)


def test_a_gated_step_that_is_not_arithmetic_is_no_hit_and_no_note():
    spec = spec_for("overflow", pcs=(33,))  # the PUSH1 before the MUL
    hits, notes = evaluate_trace(arith_trace("MUL", (2**255, 2)), spec, TX, BLOCK)
    assert hits == [] and notes == []


def test_locations_sharing_a_code_address_merge_into_one_gate():
    rec = reconstruct_document(
        doc(
            [
                step(0, "PUSH32", 1),
                step(33, "PUSH1", 1),
                step(35, "MUL", 1, (2**255, 2)),
                step(36, "MUL", 1, (2**255, 4)),
                step(37, "STOP", 1),
            ]
        ),
        CONTRACT,
    )
    split = vuln_doc("overflow", pcs=(35,))
    split["vulnLocs"].append({"codeAddress": "0x%040x" % CONTRACT, "pcOffsets": [36]})
    split_spec = VulnSpec.from_document(split)
    joint_spec = spec_for("overflow", pcs=(35, 36))
    assert split_spec.gate == joint_spec.gate == {CONTRACT: frozenset({35, 36})}
    hits, notes = evaluate_trace(rec, split_spec, TX, BLOCK)
    assert [hit.pc for hit in hits] == [35, 36] and notes == []
    assert (hits, notes) == evaluate_trace(rec, joint_spec, TX, BLOCK)


def test_overflow_requires_location_match():
    off_pc = spec_for("overflow", pcs=(99,))
    rec = arith_trace("MUL", (2**255, 2))
    assert evaluate_trace(rec, off_pc, TX, BLOCK) == ([], [])
    off_code = spec_for("overflow", pcs=(35,), code=ATTACKER)
    assert evaluate_trace(rec, off_code, TX, BLOCK) == ([], [])


# -- dos rule --


def failed_call_trace(op="CALL", status=0, extension=None):
    stack = (0, 0, 0, 0, 5, ATTACKER, 60_000)
    if op != "CALL":
        stack = (0, 0, 0, 0, ATTACKER, 60_000)
    call_step = step(2, op, 1, stack)
    if extension is not None:
        call_step["call"] = extension
    return doc(
        [
            step(0, "PUSH1", 1),
            call_step,
            step(3, "POP", 1, (status,)),
            step(4, "STOP", 1),
        ]
    )


def test_dos_flags_refused_transfer():
    spec = spec_for("dos", pcs=(2,))
    rec = reconstruct_document(failed_call_trace(), CONTRACT)
    hits, notes = evaluate_trace(rec, spec, TX, BLOCK)
    assert notes == []
    assert len(hits) == 1
    hit = hits[0]
    assert hit.pc == 2 and hit.rule == "dos"
    assert hit.detail == {
        "to": address_hex(ATTACKER),
        "value": word_hex(5),
        "status": 0,
    }


def test_dos_ignores_successful_calls():
    spec = spec_for("dos", pcs=(2,))
    rec = reconstruct_document(failed_call_trace(status=1), CONTRACT)
    assert evaluate_trace(rec, spec, TX, BLOCK) == ([], [])


def test_dos_ignores_staticcall():
    # a read-only probe cannot carry value, so a refused one is not a lockup
    extension = {"to": "0x%x" % ATTACKER, "value": "0x0", "status": 0}
    spec = spec_for("dos", pcs=(2,))
    rec = reconstruct_document(
        failed_call_trace(op="STATICCALL", extension=extension), CONTRACT
    )
    assert evaluate_trace(rec, spec, TX, BLOCK) == ([], [])


def test_dos_notes_unavailable_status():
    spec = spec_for("dos", pcs=(2,))
    rec = reconstruct_document(failed_call_trace(), CONTRACT, relaxed=True)
    hits, notes = evaluate_trace(rec, spec, TX, BLOCK)
    assert hits == []
    assert notes == [
        "step 1: CALL status unavailable (filtered trace without call records), skipped"
    ]


def test_dos_on_failed_transaction_keeps_status():
    spec = spec_for("dos", pcs=(2,))
    trace = failed_call_trace()
    trace["failed"] = True
    rec = reconstruct_document(trace, CONTRACT)
    hits, _ = evaluate_trace(rec, spec, TX, 9)
    assert hits[0].tx_status == "failed"
    assert hits[0].to_document()["txStatus"] == "failed"


# -- reentrancy rule --


def reentrant_trace(second_op="CALL", sstore_stack=(9, 3), relaxed=False):
    """CONTRACT calls ATTACKER, which re-enters CONTRACT (or borrows its
    code via DELEGATECALL); the innermost frame stores at pc 2."""
    inner_target = CONTRACT
    second_stack = (0, 0, 0, 0, 5, inner_target, 60_000)
    if second_op != "CALL":
        second_stack = (0, 0, 0, 0, inner_target, 60_000)
    src = doc(
        [
            step(0, "PUSH1", 1),
            step(2, "CALL", 1, (0, 0, 0, 0, 5, ATTACKER, 60_000)),
            step(0, "PUSH1", 2),
            step(2, second_op, 2, second_stack),
            step(0, "PUSH1", 3),
            step(2, "SSTORE", 3, sstore_stack),
            step(3, "STOP", 3),
            step(3, "POP", 2, (1,)),
            step(4, "STOP", 2),
            step(3, "POP", 1, (1,)),
            step(4, "STOP", 1),
        ]
    )
    return reconstruct_document(src, CONTRACT, relaxed=relaxed)


def test_reentrancy_flags_nested_activation():
    spec = spec_for("reentrancy", pcs=(2,))
    hits, notes = evaluate_trace(reentrant_trace(), spec, TX, BLOCK)
    assert notes == []
    assert len(hits) == 1
    hit = hits[0]
    assert hit.pc == 2 and hit.depth == 3
    assert hit.frame_id == CONTRACT and hit.code_address == CONTRACT
    assert hit.detail["slot"] == word_hex(3)
    assert hit.detail["value"] == word_hex(9)
    assert hit.detail["framesBelow"] == [address_hex(CONTRACT), address_hex(ATTACKER)]


def test_reentrancy_ignores_top_level_store():
    spec = spec_for("reentrancy", pcs=(2,))
    src = doc(
        [
            step(0, "PUSH1", 1),
            step(2, "SSTORE", 1, (9, 3)),
            step(3, "STOP", 1),
        ]
    )
    rec = reconstruct_document(src, CONTRACT)
    assert evaluate_trace(rec, spec, TX, BLOCK) == ([], [])


def test_reentrancy_covers_delegatecall_without_a_code_gate():
    # ATTACKER borrows the contract's code: the store lands on the
    # attacker's own storage, yet a deeper activation of that identity
    # exists, and the vulnerable instruction is genuinely executing
    spec = spec_for("reentrancy", pcs=(2,))
    hits, _ = evaluate_trace(reentrant_trace(second_op="DELEGATECALL"), spec, TX, BLOCK)
    assert len(hits) == 1
    hit = hits[0]
    assert hit.frame_id == ATTACKER
    assert hit.code_address == CONTRACT
    assert hit.to_document()["frame"] == address_hex(ATTACKER)
    assert hit.to_document()["code"] == address_hex(CONTRACT)


def test_reentrancy_reports_unknown_write_as_null():
    spec = spec_for("reentrancy", pcs=(2,))
    rec = reentrant_trace(sstore_stack=(), relaxed=True)
    hits, _ = evaluate_trace(rec, spec, TX, BLOCK)
    assert len(hits) == 1
    assert hits[0].detail["slot"] is None
    assert hits[0].detail["value"] is None


# -- detection documents --


def test_detection_document_shape():
    hit = Detection(
        rule="dos",
        tx_hash=TX,
        block_number=4,
        raw_index=17,
        pc=2,
        depth=1,
        frame_id=CONTRACT,
        code_address=CONTRACT,
        tx_status="success",
        detail={"status": 0},
    )
    out = hit.to_document()
    assert sorted(out) == [
        "blockNumber",
        "code",
        "depth",
        "detail",
        "frame",
        "pc",
        "rule",
        "txHash",
        "txStatus",
    ]
    assert out["txHash"] == "0x" + TX.hex()
    assert "step" not in out and "rawIndex" not in out


# -- real traces --


def test_bank_exploits_all_flag_reentrancy():
    fixture = build_fixture_chain("Bank", seed=SEED)
    spec = VulnSpec.from_document(fixture.vuln)
    assert spec.rule == "reentrancy"
    flagged = set()
    failed_seen = False
    for txh, raw in fixture.archive.traces.items():
        rec = reconstruct_document(raw, spec.contract)
        hits, _ = evaluate_trace(rec, spec, txh, 0)
        if hits:
            flagged.add(txh)
            failed_seen = failed_seen or raw["failed"]
    assert flagged == set(fixture.archive.labels.exploit_hashes())
    assert failed_seen  # the reverting probe is an exploit and must flag
