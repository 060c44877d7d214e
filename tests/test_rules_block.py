"""Block-edge rule evaluation: two snapshots, no interpretation."""

from dataclasses import dataclass, field

import pytest

from evmsleuth.fixtures import build_fixture_chain
from evmsleuth.hashing import function_selector, mapping_slot
from evmsleuth.rules_block import (
    check_dos,
    check_overflow,
    check_reentrancy,
    decode_arg,
    evaluate_block,
)
from evmsleuth.rules_evm import VulnSpec

SEED = 11

CONTRACT = 0xC0DE
SENDER = 0xAA01
RECEIVER = 0xAA02

UINT256_MAX = str(2**256 - 1)


@dataclass
class View:
    balances: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)

    def balance_of(self, addr):
        return self.balances.get(addr, 0)

    def storage_at(self, addr, key):
        return self.storage.get((addr, key), 0)


@dataclass(frozen=True)
class Tx:
    hash: bytes
    sender: int
    value: int
    data: bytes


def make_tx(tag, sender=SENDER, value=0, data=b""):
    return Tx(bytes([tag]) * 32, sender, value, data)


def spec_for(rule, params):
    return VulnSpec.from_document(
        {
            "scenario": "Synthetic",
            "contractAddress": "0x%040x" % CONTRACT,
            "rule": rule,
            "vulnLocs": [{"codeAddress": "0x%040x" % CONTRACT, "pcOffsets": [4]}],
            "params": params,
            "filter": {
                "selectors": ["poke()"],
                "includeInternal": False,
                "blockRange": [1, 5],
            },
        }
    )


def calldata(*args):
    body = function_selector("poke()") + b"\x00" * 28
    return body + b"".join(a.to_bytes(32, "big") for a in args)


# -- calldata decoding --


def test_decode_arg_reads_padded_words():
    data = calldata(5, 7)
    assert decode_arg(data, 0) == 5
    assert decode_arg(data, 1) == 7
    assert decode_arg(data, 2) is None
    assert decode_arg(b"", 0) is None
    assert decode_arg(calldata(), 0) is None


# -- overflow edge --


def overflow_spec(to_arg=None):
    params = {"typeMin": "0", "typeMax": UINT256_MAX, "balanceOfSlot": 3}
    if to_arg is not None:
        params["toArgIndex"] = to_arg
    return spec_for("overflow", params)


def test_overflow_fires_on_sender_credit():
    spec = overflow_spec()
    pre = View(storage={(CONTRACT, mapping_slot(3, SENDER)): 10})
    post = View(storage={(CONTRACT, mapping_slot(3, SENDER)): 10**30})
    fired, detail, notes = check_overflow(pre, post, make_tx(1), spec)
    assert fired is True
    assert detail == {"senderBefore": "10", "senderAfter": str(10**30)}
    assert notes == []


def test_overflow_ignores_plain_spend():
    spec = overflow_spec()
    pre = View(storage={(CONTRACT, mapping_slot(3, SENDER)): 10})
    post = View(storage={(CONTRACT, mapping_slot(3, SENDER)): 4})
    fired, _, _ = check_overflow(pre, post, make_tx(1), spec)
    assert fired is False


def test_overflow_receiver_debit_needs_arg_index():
    pre = View(storage={(CONTRACT, mapping_slot(3, RECEIVER)): 50})
    post = View(storage={(CONTRACT, mapping_slot(3, RECEIVER)): 20})
    tx = make_tx(2, data=calldata(RECEIVER, 30))
    fired, _, _ = check_overflow(pre, post, tx, overflow_spec())
    assert fired is False  # sender balance unchanged, receiver not examined
    fired, detail, notes = check_overflow(pre, post, tx, overflow_spec(to_arg=0))
    assert fired is True
    assert detail["receiverBefore"] == "50" and detail["receiverAfter"] == "20"
    assert notes == []


def test_overflow_receiver_arg_masks_to_address_width():
    dirty = (0xFF << 160) | RECEIVER  # high bits beyond the address
    pre = View(storage={(CONTRACT, mapping_slot(3, RECEIVER)): 50})
    post = View(storage={(CONTRACT, mapping_slot(3, RECEIVER)): 20})
    tx = make_tx(2, data=calldata(dirty, 30))
    fired, _, _ = check_overflow(pre, post, tx, overflow_spec(to_arg=0))
    assert fired is True


def test_overflow_short_calldata_skips_receiver_with_note():
    spec = overflow_spec(to_arg=1)
    pre = View()
    post = View()
    tx = make_tx(3, data=calldata(RECEIVER))  # arg 1 missing
    fired, detail, notes = check_overflow(pre, post, tx, spec)
    assert fired is False
    assert "receiverBefore" not in detail
    assert len(notes) == 1 and "receiver check skipped" in notes[0]


# -- dos edge --


def test_dos_fires_when_higher_bid_bounces():
    spec = spec_for("dos", {"highestBidSlot": 0})
    pre = View(storage={(CONTRACT, 0): 100})
    post = View(storage={(CONTRACT, 0): 100})
    fired, detail, _ = check_dos(pre, post, make_tx(4, value=150), spec)
    assert fired is True
    assert detail == {"value": "150", "highBid": "100"}


def test_dos_ignores_low_or_accepted_bids():
    spec = spec_for("dos", {"highestBidSlot": 0})
    pre = View(storage={(CONTRACT, 0): 100})
    same = View(storage={(CONTRACT, 0): 100})
    moved = View(storage={(CONTRACT, 0): 150})
    fired, _, _ = check_dos(pre, same, make_tx(4, value=100), spec)
    assert fired is False  # not strictly higher
    fired, _, _ = check_dos(pre, moved, make_tx(4, value=150), spec)
    assert fired is False  # the bid landed


# -- reentrancy edge --


def reentrancy_views(held0, held1, owed):
    pre = View(
        balances={CONTRACT: held0},
        storage={(CONTRACT, mapping_slot(1, SENDER)): owed},
    )
    post = View(balances={CONTRACT: held1})
    return pre, post


def test_reentrancy_fires_on_excess_outflow():
    spec = spec_for("reentrancy", {"userBalancesSlot": 1})
    pre, post = reentrancy_views(1000, 700, 100)
    fired, detail, _ = check_reentrancy(pre, post, make_tx(5), spec)
    assert fired is True
    assert detail == {"before": "1000", "after": "700", "owed": "100"}


def test_reentrancy_accepts_exact_withdrawal():
    spec = spec_for("reentrancy", {"userBalancesSlot": 1})
    pre, post = reentrancy_views(1000, 900, 100)
    fired, _, _ = check_reentrancy(pre, post, make_tx(5), spec)
    assert fired is False


def test_reentrancy_fires_on_no_op_with_positive_debt():
    # a tx that should have paid out but moved nothing is just as anomalous
    spec = spec_for("reentrancy", {"userBalancesSlot": 1})
    pre, post = reentrancy_views(1000, 1000, 100)
    fired, _, _ = check_reentrancy(pre, post, make_tx(5), spec)
    assert fired is True


# -- block evaluation --


def test_evaluate_block_collects_firing_candidates():
    spec = spec_for("dos", {"highestBidSlot": 0})
    pre = View(storage={(CONTRACT, 0): 100})
    post = View(storage={(CONTRACT, 0): 100})
    quiet = make_tx(1, value=50)
    loud_a = make_tx(2, value=200)
    loud_b = make_tx(3, value=300)
    hit, notes = evaluate_block(pre, post, 7, [quiet, loud_a, loud_b], spec)
    assert notes == []
    assert hit.rule == "dos" and hit.block_number == 7
    assert hit.candidates == (loud_a.hash, loud_b.hash)
    doc = hit.to_document()
    assert doc["candidateTxHashes"] == [
        "0x" + loud_a.hash.hex(),
        "0x" + loud_b.hash.hex(),
    ]
    assert doc["details"]["0x" + loud_b.hash.hex()]["value"] == "300"


def test_evaluate_block_returns_none_without_hits():
    spec = spec_for("dos", {"highestBidSlot": 0})
    pre = View(storage={(CONTRACT, 0): 100})
    post = View(storage={(CONTRACT, 0): 100})
    hit, notes = evaluate_block(pre, post, 7, [make_tx(1, value=50)], spec)
    assert hit is None and notes == []
    hit, notes = evaluate_block(pre, post, 7, [], spec)
    assert hit is None


def test_evaluate_block_propagates_notes():
    spec = overflow_spec(to_arg=0)
    tx = make_tx(6, data=calldata())
    hit, notes = evaluate_block(View(), View(), 7, [tx], spec)
    assert hit is None
    assert len(notes) == 1 and "skipped" in notes[0]


# -- stored snapshots --


def big_step_lookup(chain, world, number: int):
    """The σ0/σn edge of block `number` straight from stored snapshots."""
    block = chain.blocks[number]
    parent = chain.blocks[number - 1]
    return world.get(parent.state_root), world.get(block.state_root)


@pytest.fixture(scope="module")
def bank():
    return build_fixture_chain("Bank", seed=SEED)


def test_big_step_lookup_reads_the_stored_edge(bank):
    chain, world = bank.archive.chain, bank.archive.world
    spec = VulnSpec.from_document(bank.vuln)
    for n in range(1, chain.height + 1):
        pre, post = big_step_lookup(chain, world, n)
        held_pre = pre.balance_of(spec.contract)
        # the edge is contiguous: block n's pre-state is block n-1's post
        if n > 1:
            _, prev_post = big_step_lookup(chain, world, n - 1)
            assert prev_post.balance_of(spec.contract) == held_pre


def test_bank_blocks_flag_exactly_the_completed_exploits(bank):
    chain, world = bank.archive.chain, bank.archive.world
    spec = VulnSpec.from_document(bank.vuln)
    wanted = {function_selector(sig) for sig in spec.query.selectors}
    exploit_blocks = set()
    probe_blocks = set()
    labeled = set(bank.archive.labels.exploit_hashes())
    flagged = set()
    for n in range(1, chain.height + 1):
        block = chain.blocks[n]
        candidates = [
            tx
            for tx in block.txs
            if tx.to == spec.contract and tx.data[:4] in wanted
        ]
        for tx in block.txs:
            if tx.hash in labeled:
                if bank.archive.traces[tx.hash]["failed"]:
                    probe_blocks.add(n)
                else:
                    exploit_blocks.add(n)
        pre, post = big_step_lookup(chain, world, n)
        hit, _ = evaluate_block(pre, post, n, candidates, spec)
        if hit is not None:
            flagged.add(n)
    assert exploit_blocks and probe_blocks
    assert flagged == exploit_blocks
    # the reverting probe leaves the edge clean, so lookup alone misses it
    assert not (probe_blocks & flagged)
