"""Chain assembly, archives, and their on-disk round trip."""

import dataclasses
import json
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import replay_block
from evmsleuth.chain import _tx_by_field, tx_from_document, tx_to_document
from evmsleuth.errors import ArchiveGapError, ProtocolError, UsageError
from evmsleuth.explorer import LocalExplorer
from evmsleuth.fixtures.archive import (
    Archive,
    LabelStore,
    make_genesis,
    make_transaction,
    mine_and_record,
    mine_block,
    write_archive,
)
from evmsleuth.fixtures.interpreter import MNEMONICS
from evmsleuth.fixtures.state import GlobalState
from evmsleuth.words import hash_hex

SENDER = 0xAA01
OTHER = 0xAA02
CONTRACT = 0xCC01

# PUSH1 v PUSH1 k SSTORE STOP: one storage write per call
STORE_CODE = bytes(
    [MNEMONICS["PUSH1"], 7, MNEMONICS["PUSH1"], 1, MNEMONICS["SSTORE"], MNEMONICS["STOP"]]
)


def seeded_state() -> GlobalState:
    state = GlobalState()
    state.ensure_account(SENDER).balance = 10_000
    state.ensure_account(OTHER).balance = 500
    state.install_code(CONTRACT, STORE_CODE)
    return state


def fresh_archive() -> Archive:
    chain, world = make_genesis(seeded_state())
    return Archive(chain, world, {}, LabelStore())


# -- transactions --


def test_make_transaction_hash_is_content_derived():
    a = make_transaction(SENDER, OTHER, 5, nonce=0)
    b = make_transaction(SENDER, OTHER, 5, nonce=0)
    c = make_transaction(SENDER, OTHER, 5, nonce=1)
    assert a.hash == b.hash
    assert a.hash != c.hash


def test_make_transaction_rejects_short_calldata():
    with pytest.raises(UsageError):
        make_transaction(SENDER, OTHER, 0, data=b"\x01\x02")


def test_selector_property():
    tx = make_transaction(SENDER, CONTRACT, 0, data=b"\x11\x22\x33\x44" + b"\x00" * 28)
    assert tx.selector == b"\x11\x22\x33\x44"
    assert make_transaction(SENDER, OTHER, 1).selector is None


# -- mining --


def test_mine_block_advances_tip_and_stores_snapshot():
    arch = fresh_archive()
    tx = make_transaction(SENDER, OTHER, 100, nonce=0)
    mined = mine_and_record(arch, [tx])
    assert arch.chain.height == 1
    assert arch.chain.tip.hash == mined.block.hash
    post = arch.world.get(mined.block.state_root)
    assert post.balance_of(OTHER) == 600
    assert tx.hash in arch.traces


def test_mine_block_failed_tx_leaves_state_unchanged():
    arch = fresh_archive()
    pre_root = arch.chain.tip.state_root
    overdraft = make_transaction(SENDER, OTHER, 10_000_000, nonce=0)
    mined = mine_block(arch.chain, arch.world, [overdraft])
    assert mined.outcomes[0].status == "exception"
    # block exists and carries the tx, but its post-state equals the pre-state
    assert mined.block.state_root == pre_root
    assert mined.block.txs == (overdraft,)


# -- replay --


def test_replay_block_reproduces_stored_roots():
    arch = fresh_archive()
    mine_and_record(arch, [make_transaction(SENDER, OTHER, 100, nonce=0)])
    mine_and_record(arch, [make_transaction(SENDER, CONTRACT, 0, b"\xde\xad\xbe\xef", nonce=1)])
    mine_and_record(arch, [make_transaction(OTHER, SENDER, 50, nonce=0)])
    for n in range(arch.chain.height + 1):
        root, _ = replay_block(arch.chain, arch.world, n)
        assert root == arch.chain.blocks[n].state_root


def test_replay_genesis_is_identity():
    arch = fresh_archive()
    root, outcomes = replay_block(arch.chain, arch.world, 0)
    assert root == arch.chain.blocks[0].state_root
    assert outcomes == []


# -- labels --


def test_label_store_roundtrip_and_validation():
    store = LabelStore()
    txh = bytes(range(32))
    store.add(txh, "overflow", mechanism="wrapped-debit")
    assert store.exploit_hashes() == [txh]
    assert store.exploit_hashes("overflow") == [txh]
    assert store.exploit_hashes("dos") == []
    assert bytes(32) not in store.labels
    with pytest.raises(UsageError):
        store.add(bytes(32), "not-a-rule")


# -- document round trips --


def test_tx_document_roundtrip():
    tx = make_transaction(SENDER, CONTRACT, 9, b"\x01\x02\x03\x04" + bytes(28), nonce=4)
    assert tx_from_document(tx_to_document(tx)) == tx


def test_contract_creation_document_has_no_target():
    tx = make_transaction(SENDER, CONTRACT, 0, b"\x60\x00\x60\x00", nonce=4)
    creation = dataclasses.replace(tx, to=None)
    doc = tx_to_document(creation)
    assert doc["to"] is None
    assert tx_from_document(doc) == creation


_GOOD_TX = tx_to_document(make_transaction(SENDER, CONTRACT, 9, b"\x01\x02\x03\x04", nonce=4))


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "not an object"),
        *[({k: v for k, v in _GOOD_TX.items() if k != name}, f"without {name}")
          for name in _GOOD_TX],
        (dict(_GOOD_TX, hash="0x" + "ab" * 31), "hash is malformed"),
        (dict(_GOOD_TX, hash="ab" * 32), "hash is malformed"),
        (dict(_GOOD_TX, hash=None), "hash is malformed"),
        (dict(_GOOD_TX, to="0x12"), "to is malformed"),
        (dict(_GOOD_TX, to="0x" + "g" * 40), "to is malformed"),
        (dict(_GOOD_TX, **{"from": 5}), "from is malformed"),
        (dict(_GOOD_TX, value="0x"), "value is malformed"),
        (dict(_GOOD_TX, value="-0x1"), "value is malformed"),
        (dict(_GOOD_TX, value="0x" + "1" * 65), "value is malformed"),
        (dict(_GOOD_TX, input="0x123"), "input is malformed"),
        (dict(_GOOD_TX, input="0x12 34"), "input is malformed"),
        (dict(_GOOD_TX, nonce="0x4"), "nonce is malformed"),
        (dict(_GOOD_TX, nonce=-1), "nonce is malformed"),
        (dict(_GOOD_TX, nonce=True), "nonce is malformed"),
        (dict(_GOOD_TX, gasLimit=1.5), "gasLimit is malformed"),
    ],
)
def test_tx_from_document_rejects_malformed(doc, message):
    with pytest.raises(ProtocolError, match=message):
        tx_from_document(doc)


def _hex(digits: int):
    return st.text(alphabet="0123456789abcdefABCDEF", min_size=digits, max_size=digits)


@st.composite
def tx_documents(draw) -> dict:
    """A transaction object in the chain.json shape, hex in either case."""
    return {
        "hash": "0x" + draw(_hex(64)),
        "from": "0x" + draw(_hex(40)),
        "to": draw(st.none() | _hex(40).map("0x".__add__)),
        "value": "0x" + draw(st.integers(1, 64).flatmap(_hex)),
        "input": "0x" + draw(st.integers(0, 40).flatmap(lambda n: _hex(2 * n))),
        "nonce": draw(st.integers(0, 2**70)),
        "gasLimit": draw(st.integers(0, 2**70)),
    }


_MISSING = object()

# What one field of a transaction object may hold in place of its value
_TX_DAMAGES = {
    "missing": lambda value: _MISSING,
    "null": lambda value: None,
    "true": lambda value: True,
    "negative": lambda value: -1,
    "empty": lambda value: "",
    "float": lambda value: 1.5,
    "list": lambda value: [value],
    "text": lambda value: str(value),  # an int as text
    "0X": lambda value: "0X" + str(value)[2:],
    "upper": lambda value: str(value).upper(),  # 0X and uppercase digits
    "upper-digits": lambda value: "0x" + str(value)[2:].upper(),
    "digit-more": lambda value: str(value) + "a",  # 65 digits in a hash, odd in an input
    "digit-fewer": lambda value: str(value)[:-1],  # 63 digits in a hash
    "no-prefix": lambda value: str(value)[2:],
    "space": lambda value: f" {value}",
}


def _damaged_tx(doc: dict, name: str, damage: str) -> dict:
    value = _TX_DAMAGES[damage](doc[name])
    rest = {k: v for k, v in doc.items() if k != name}
    return rest if value is _MISSING else {**rest, name: value}


@pytest.mark.parametrize("damage", sorted(_TX_DAMAGES))
@pytest.mark.parametrize("name", sorted(_GOOD_TX))
@settings(max_examples=10, deadline=None)
@given(doc=tx_documents(), data=st.data())
def test_tx_from_document_reads_as_the_per_field_reader(name, damage, doc, data):
    # the one-test reader of the common shape answers what the per-field
    # reader answers, a Transaction or the ProtocolError naming the first
    # fault: on the shape, with one field damaged, with a second one
    # damaged too, and on what is not a dict

    def answer(read, doc):
        try:
            return read(doc)
        except ProtocolError as err:
            return f"ProtocolError: {err}"

    once = _damaged_tx(doc, name, damage)
    second = data.draw(st.sampled_from(sorted(once)))
    twice = _damaged_tx(once, second, data.draw(st.sampled_from(sorted(_TX_DAMAGES))))
    for each in (doc, once, twice, [doc], None, MappingProxyType(doc)):
        assert answer(tx_from_document, each) == answer(_tx_by_field, each)
    tx = tx_from_document(doc)
    assert tx_from_document(tx_to_document(tx)) == tx


# -- archive directories --


def build_small_archive() -> Archive:
    arch = fresh_archive()
    mine_and_record(arch, [make_transaction(SENDER, OTHER, 100, nonce=0)])
    mined = mine_and_record(
        arch, [make_transaction(SENDER, CONTRACT, 0, b"\xde\xad\xbe\xef", nonce=1)]
    )
    arch.labels.add(mined.block.txs[0].hash, "overflow", mechanism="test")
    return arch


def test_archive_roundtrip(tmp_path):
    # written out and read back through the reader investigations use
    arch = build_small_archive()
    write_archive(arch, tmp_path)
    local = LocalExplorer(tmp_path)
    tip = arch.chain.height
    with pytest.raises(ArchiveGapError, match=f"no block {tip + 1} in archive \\(tip {tip}\\)"):
        local.collect_block_details(tip + 1)
    for block in arch.chain.blocks:
        details = local.collect_block_details(block.number)
        envelope = details["block"]
        assert envelope["number"] == block.number
        assert envelope["hash"] == hash_hex(block.hash)
        assert envelope["parentHash"] == hash_hex(block.parent)
        assert envelope["stateRoot"] == hash_hex(block.state_root)
        assert tuple(tx_from_document(t) for t in envelope["transactions"]) == block.txs
        assert list(details) == ["block"]
        state = arch.world.get(block.state_root)
        assert state.accounts
        for addr, acct in state.accounts.items():
            assert local.get_balance(addr, block.number) == acct.balance
            for key, value in acct.storage.items():
                assert local.get_storage(addr, key, block.number) == value
    assert arch.traces
    for txh, trace in arch.traces.items():
        with local.tx_trace(txh) as span:  # a full trace is answered as the span of its file
            assert (span.start, span.stop) == (0, span.handle.seek(0, 2))
            assert json.loads(span.text()) == trace
    labels = json.loads((tmp_path / "labels.json").read_text())
    assert labels == {
        hash_hex(h): {"class": label.exploit_class, "mechanism": label.mechanism}
        for h, label in arch.labels.labels.items()
    }


def test_archive_write_is_deterministic(tmp_path):
    arch = build_small_archive()
    write_archive(arch, tmp_path / "a")
    write_archive(arch, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_traces_written_compact(tmp_path):
    arch = build_small_archive()
    write_archive(arch, tmp_path)
    trace_files = list((tmp_path / "traces").iterdir())
    assert trace_files
    for path in trace_files:
        text = path.read_text()
        assert ": " not in text and ", " not in text
        json.loads(text)
