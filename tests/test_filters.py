"""Candidate transaction filtering and the CSV feed interchange."""

import pytest

from evmsleuth.chain import Transaction
from evmsleuth.errors import FeedError, UsageError
from evmsleuth.explorer import LocalExplorer
from evmsleuth.filters import (
    FEED_COLUMNS,
    FilterQuery,
    ReadState,
    TxRef,
    parse_csv_feed,
    tx_list,
    write_csv_feed,
)
from evmsleuth.fixtures import build_fixture_chain, write_fixture
from evmsleuth.hashing import function_selector

SEED = 11


def query_from(fixture, include_internal=None):
    doc = fixture.vuln
    filt = doc["filter"]
    return FilterQuery(
        contract=int(doc["contractAddress"], 16),
        selectors=tuple(filt["selectors"]),
        include_internal=(
            filt["includeInternal"] if include_internal is None else include_internal
        ),
        block_range=tuple(filt["blockRange"]),
    )


@pytest.fixture(scope="module")
def bank():
    return build_fixture_chain("Bank", seed=SEED)


@pytest.fixture(scope="module")
def bank_explorer(bank, tmp_path_factory):
    base = tmp_path_factory.mktemp("bank-archive") / "bank"
    write_fixture(bank, base)
    return LocalExplorer(base)


@pytest.fixture(scope="module")
def bec():
    return build_fixture_chain("SimulationBECToken", seed=SEED)


@pytest.fixture(scope="module")
def bec_explorer(bec, tmp_path_factory):
    base = tmp_path_factory.mktemp("bec-archive") / "bec"
    write_fixture(bec, base)
    return LocalExplorer(base)


# -- query validation --


def test_query_rejects_bad_inputs():
    good = dict(
        contract=0xC0DE,
        selectors=("poke()",),
        include_internal=False,
        block_range=(1, 5),
    )
    FilterQuery(**good)
    with pytest.raises(UsageError, match="bad block range"):
        FilterQuery(**dict(good, block_range=(5, 3)))
    with pytest.raises(UsageError, match="bad block range"):
        FilterQuery(**dict(good, block_range=(-1, 3)))
    with pytest.raises(UsageError, match="at least one function"):
        FilterQuery(**dict(good, selectors=()))
    for sig in ("poke", "poke ()", "pöke()", 7):
        with pytest.raises(UsageError, match="not a canonical function signature"):
            FilterQuery(**dict(good, selectors=("poke()", sig)))


def test_selector_bytes_hashes_signatures():
    query = FilterQuery(
        contract=0xC0DE,
        selectors=("poke()", "prod(uint256)"),
        include_internal=False,
        block_range=(1, 5),
    )
    assert query.selector_bytes() == frozenset(
        {function_selector("poke()"), function_selector("prod(uint256)")}
    )


# -- top-level candidate listing --


def test_tx_list_finds_every_watched_call(bank, bank_explorer):
    query = query_from(bank)
    rows = tx_list(ReadState(bank_explorer), query)
    assert rows
    wanted = query.selector_bytes()
    for row in rows:
        assert row.to == query.contract
        assert row.selector in wanted
        assert row.internal is False and row.parent is None
    # exploits all call a watched function, so the filter must surface them
    hashes = {row.tx_hash for row in rows}
    assert set(bank.archive.labels.exploit_hashes()) <= hashes


def test_tx_list_keeps_chain_order_without_duplicates(bank, bank_explorer):
    rows = tx_list(ReadState(bank_explorer), query_from(bank))
    numbers = [row.block_number for row in rows]
    assert numbers == sorted(numbers)
    assert len(rows) == len(set(rows))


def test_tx_list_ignores_other_functions(bank, bank_explorer):
    query = query_from(bank)
    rows = tx_list(ReadState(bank_explorer), query)
    chain = bank.archive.chain
    listed = {row.tx_hash for row in rows}
    wanted = query.selector_bytes()
    for n in range(1, chain.height + 1):
        for tx in chain.blocks[n].txs:
            watched = tx.to == query.contract and tx.data[:4] in wanted
            assert (tx.hash in listed) == watched


def test_scan_holds_only_blocks_with_candidates(bank, bank_explorer):
    # the level reads a block the scan fetched without fetching it again,
    # and the scan keeps no block without a candidate, however long the range
    fetched = []

    class Counting:
        def block_transactions(self, number):
            fetched.append(number)
            return bank_explorer.block_transactions(number)

    reads = ReadState(Counting())
    rows = tx_list(reads, query_from(bank))
    lo, hi = query_from(bank).block_range
    assert fetched == list(range(lo, hi + 1))
    with_rows = {row.block_number for row in rows}
    assert with_rows and set(fetched) - with_rows
    for number in range(lo, hi + 1):
        assert reads.transactions(number) == tuple(bank.archive.chain.blocks[number].txs)
    assert sorted(fetched[hi - lo + 1:]) == sorted(set(fetched) - with_rows)


# -- internal discovery --


def test_internal_rows_surface_proxied_calls(bec, bec_explorer):
    query = query_from(bec)
    assert query.include_internal is True
    rows = tx_list(ReadState(bec_explorer), query)
    internal = [row for row in rows if row.internal]
    assert len(internal) == 3
    for row in internal:
        assert row.parent == row.tx_hash  # attributed to the enclosing tx
        assert row.to == query.contract
        assert row.selector in query.selector_bytes()
        assert row.sender != query.contract  # the proxy's code address
    # every labeled exploit is reachable once internals are in
    hashes = {row.tx_hash for row in rows}
    assert set(bec.archive.labels.exploit_hashes()) <= hashes


def test_top_level_scan_misses_proxied_calls(bec, bec_explorer):
    with_internal = tx_list(ReadState(bec_explorer), query_from(bec))
    without = tx_list(ReadState(bec_explorer), query_from(bec, include_internal=False))
    assert all(not row.internal for row in without)
    proxied = {row.tx_hash for row in with_internal if row.internal}
    assert proxied and proxied.isdisjoint({row.tx_hash for row in without})


class _OneTransaction:
    """An explorer of block 1 holding tx alone, whose trace is trace."""

    def __init__(self, tx: Transaction, trace: dict):
        self.tx = tx
        self.trace = trace

    def block_transactions(self, number: int) -> tuple:
        return (self.tx,)

    def tx_trace(self, tx_hash: bytes, tracer_spec=None) -> dict:
        return self.trace


def test_internal_rows_read_a_recorded_callee_as_an_address():
    # a relay's call record may write its callee as a full 256-bit word:
    # its low 160 bits name the contract, as they do on the stack
    contract, relay = 0xC0DE, 0x5E1A
    selector = function_selector("poke()")
    tx = Transaction(bytes(range(32)), 0xA11CE, relay, 0, b"", 0, 21_000)
    query = FilterQuery(contract, ("poke()",), True, (1, 1))

    def rows(to: int) -> list[TxRef]:
        def entry(pc, op, depth, stack=(), **extra):
            words = ["0x%x" % word for word in stack]
            return {"pc": pc, "op": op, "gas": 50_000, "gasCost": 3, "depth": depth,
                    "stack": words, **extra}

        call = {"to": "0x%x" % to, "value": "0x0", "input": "0x" + selector.hex()}
        entries = [
            entry(0, "PUSH1", 1),
            entry(2, "CALL", 1, (0, 0, 0, 0, 0, contract, 60_000), call=call),
            entry(0, "STOP", 2),
            entry(3, "STOP", 1, (1,)),
        ]
        trace = {"gas": 0, "failed": False, "returnValue": "0x", "structLogs": entries}
        return tx_list(ReadState(_OneTransaction(tx, trace)), query)

    want = [TxRef(1, tx.hash, relay, contract, 0, selector, True, tx.hash)]
    assert rows(contract) == want
    assert rows((0xDEAD << 160) | contract) == want


# -- csv feed --


def sample_rows():
    return [
        TxRef(
            block_number=3,
            tx_hash=bytes([1]) * 32,
            sender=0xAA01,
            to=0xC0DE,
            value=10,
            selector=function_selector("poke()"),
            internal=False,
            parent=None,
        ),
        TxRef(
            block_number=4,
            tx_hash=bytes([2]) * 32,
            sender=0xAA02,
            to=0xC0DE,
            value=0,
            selector=function_selector("poke()"),
            internal=True,
            parent=bytes([2]) * 32,
        ),
        TxRef(
            block_number=5,
            tx_hash=bytes([3]) * 32,
            sender=0xAA03,
            to=0xC0DE,
            value=7,
            selector=None,
            internal=False,
            parent=None,
        ),
    ]


def test_feed_round_trip():
    rows = sample_rows()
    text = write_csv_feed(rows)
    assert text.splitlines()[0] == ",".join(FEED_COLUMNS)
    assert parse_csv_feed(text) == rows


def test_feed_round_trip_from_real_scan(bec, bec_explorer):
    rows = tx_list(ReadState(bec_explorer), query_from(bec))
    assert parse_csv_feed(write_csv_feed(rows)) == rows


HEADER = ",".join(FEED_COLUMNS)
H64 = "0x" + "11" * 32
A40 = "0x" + "aa" * 20
TOP = f"3,{H64},{A40},{A40},10,0xaabbccdd,false,"
INTERNAL = f"4,{H64},{A40},{A40},0,0xaabbccdd,true,{H64}"


def feed(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def test_feed_accepts_blank_lines_and_empty_selector():
    rows = parse_csv_feed(feed(TOP, "", INTERNAL))
    assert [row.internal for row in rows] == [False, True]
    bare = TOP.replace("0xaabbccdd", "")
    assert parse_csv_feed(feed(bare))[0].selector is None


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("", "feed is empty", 1),
        ("a,b\n", "bad header", 1),
        (feed("3,0x11"), "expected 8 fields", 2),
        (feed(TOP.replace("false", "maybe")), "internal must be true or false", 2),
        (feed(TOP.replace("false,", "true,")), "internal row without parent", 2),
        (feed(TOP + H64), "top-level row with parent", 2),
        (feed(TOP.replace("0xaabbccdd", "0x123")), "8 hex chars", 2),
        (feed(TOP.replace(H64, "0x11")), "64 hex chars", 2),
        (feed(TOP.replace(H64, "0x" + "zz" * 32)), "is not hex", 2),
        (feed(TOP.replace(A40, "0xaa", 1)), "40 hex chars", 2),
        (feed(TOP.replace("3,", "three,", 1)), "must be a decimal integer", 2),
        (feed(TOP, TOP.replace("10", "ten")), "must be a decimal integer", 3),
        (feed(TOP.replace("3,", "\u00b2,", 1)), "block_number must be a decimal", 2),
        (feed(TOP.replace(",10,", ",\u00b2,")), "value must be a decimal", 2),
        (feed(TOP.replace("0xaabbccdd", "0xzzzzzzzz")), "input_selector is not hex", 2),
        (feed(TOP.replace("0xaabbccdd", "0xaa bb cc")), "input_selector is not hex", 2),
        (feed(TOP.replace(A40, "0x-" + "a" * 39, 1)), "from is not hex", 2),
        pytest.param(
            feed(TOP.replace(",10,", ",1" + "0" * 5000 + ",")), "value is too long: 5001 digits",
            2, id="value-past-the-int-digit-limit",
        ),
        # what the csv module cannot read: a field past its 131,072-character
        # limit, a carriage return inside an unquoted field, and (before
        # Python 3.11; from 3.11 on the field fails its own check) a NUL
        pytest.param(
            feed(TOP.replace(H64, "0x" + "1" * 200_000)), "field larger than field limit", 2,
            id="long-tx-hash",
        ),
        pytest.param(
            feed(TOP, TOP.replace(A40, "0x" + "a" * 131_072, 1)), "field larger", 3,
            id="long-from-on-line-3",
        ),
        pytest.param(
            HEADER + "x" * 131_072 + "\n", "field larger than field limit", 1, id="long-header"
        ),
        pytest.param(
            feed(TOP.replace(",false", ",fal\rse")), "new-line character", 2,
            id="carriage-return-in-a-field",
        ),
        pytest.param(
            feed(TOP.replace(H64, H64[:-1] + "\x00")), "line contains NUL|tx_hash is not hex", 2,
            id="nul",
        ),
    ],
)
def test_feed_rejects_malformed_rows(text, fragment, line):
    with pytest.raises(FeedError, match=fragment) as err:
        parse_csv_feed(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, prefix",
    [
        pytest.param(
            feed(TOP.replace(H64, "0x" + "1" * 99_998)), "line 2: tx_hash must be 0x + 64",
            id="long-tx-hash",
        ),
        pytest.param(
            feed(TOP.replace(H64, "0x" + "z" * 99_998)), "line 2: tx_hash must be 0x + 64",
            id="long-non-hex-tx-hash",
        ),
        pytest.param(
            feed(TOP, TOP.replace(",10,", "," + "x" * 100_000 + ",")),
            "line 3: value must be a decimal integer", id="long-value",
        ),
        pytest.param(
            feed(TOP.replace(",false", "," + "f" * 100_000)), "line 2: internal must be",
            id="long-internal",
        ),
        pytest.param("h" * 100_000 + "\n", "line 1: bad header: expected", id="long-header"),
    ],
)
def test_feed_error_echoes_a_bounded_prefix(text, prefix):
    # the message names the line and the field and quotes at most 80
    # characters of the offending text, however long that text is
    with pytest.raises(FeedError) as err:
        parse_csv_feed(text)
    message = str(err.value)
    assert message.startswith(prefix) and len(message) < 300


def test_feed_error_quotes_a_short_value_whole():
    with pytest.raises(FeedError) as err:
        parse_csv_feed(feed(TOP.replace(H64, "0x11")))
    assert str(err.value) == "line 2: tx_hash must be 0x + 64 hex chars, got '0x11'"
    with pytest.raises(FeedError) as err:
        parse_csv_feed("a,b\n")
    assert str(err.value) == f"line 1: bad header: expected {HEADER}, got a,b"

