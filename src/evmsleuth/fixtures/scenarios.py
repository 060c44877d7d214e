"""Deterministic exploit scenarios with ground-truth labels.

Each builder assembles the vulnerable contract(s), replays a scripted
session block by block, and returns the archive together with the vuln
descriptor and an annotated disassembly. Sessions are deterministic in
(scenario, seed): same inputs, byte-identical fixture directories.

Every transaction's expected status is asserted while the chain is mined,
so a broken contract program fails fast at build time instead of producing
a quietly mislabeled fixture.

Scenario roster (exploit counts are part of the fixture contract):

  Bank                 6   reentrant withdraw drains
  DelayedUnderflow    11   wrapped debit pays out later
  ProductVote         20   reentrant double votes on one rebate
  SimulationBECToken  12   unchecked doubling, 8 direct / 3 proxied / 1 occluded
  SimulationKotET      4   refund to a throne squatter that bounces
  TargetUnderflow     20   plain balance underflow, storage-scaling target
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from ..chain import Transaction
from ..errors import UsageError
from ..explorer import quoted_fault
from ..hashing import function_selector
from ..words import Address, address_hex, hash_hex
from .archive import (
    BENIGN,
    Archive,
    MinedBlock,
    make_genesis,
    make_transaction,
    mine_and_record,
    write_archive,
)
from .asm import Assembler, Program
from .state import GlobalState

# -- cast of addresses (stable across seeds; randomness drives amounts only) --

ADMIN = 0xAD01
PING = 0x9106

_NOISE = tuple(0xF000 + i for i in range(4))
_USERS = tuple(0xA000 + i for i in range(6))
_ATTACKERS = tuple(0xE000 + i for i in range(20))
_MULES = tuple(0xB000 + i for i in range(20))

BANK = 0xBA6B
BANK_AGENT = 0xBA6A
BANK_AGENT_ABORT = 0xBA6F

PRODUCT_VOTE = 0x50E0
VOTE_AGENT = 0x50EA

BEC_TOKEN = 0xBEC0
BEC_PROXY = 0xBEC9

KOTET = 0x406E
KOTET_AGENT = 0x406A

DELAYED = 0xDE1A
TARGET = 0x7A26

REWARD_THRESHOLD = 1 << 250

SCENARIO_NAMES = (
    "Bank",
    "DelayedUnderflow",
    "ProductVote",
    "SimulationBECToken",
    "SimulationKotET",
    "TargetUnderflow",
)

EXPLOIT_COUNTS = {
    "Bank": 6,
    "DelayedUnderflow": 11,
    "ProductVote": 20,
    "SimulationBECToken": 12,
    "SimulationKotET": 4,
    "TargetUnderflow": 20,
}

# Scaling ceilings for scale_fixture; past these the padded claim would not
# fit the default gas limit / a build would stop being interactive.
INSTRUCTION_CEILING = 1_000_000
STORAGE_CEILING = 100_000

_UINT256_MAX = (1 << 256) - 1


def calldata(signature: str, *args: int) -> bytes:
    """ABI used by every fixture contract: 4-byte selector, zero pad to 32,
    then one 32-byte word per argument."""
    out = bytearray(function_selector(signature))
    if args:
        out.extend(bytes(28))
        for value in args:
            out.extend(value.to_bytes(32, "big"))
    return bytes(out)


@dataclass
class ScenarioFixture:
    name: str
    archive: Archive
    vuln: dict
    disasm: str


# -- session scaffolding ------------------------------------------------------


class _Session:
    """Genesis setup plus scripted mining with per-tx status assertions."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.genesis = GlobalState()
        self.archive: Archive | None = None
        self.pending: list[Transaction] = []
        self.programs: dict[Address, Program] = {}
        self._nonces: dict[Address, int] = {}
        self._expect: dict[bytes, str] = {}

    def fund(self, address: Address, balance: int):
        self.genesis.set_balance(address, balance)

    def install(self, address: Address, program: Program, balance: int = 0):
        """Put program's code at address and its listing in the fixture's
        disassembly."""
        self.programs[address] = program
        self.genesis.install_code(address, program.code)
        if balance:
            self.genesis.set_balance(address, balance)

    def preset(self, address: Address, key: int, value: int):
        self.genesis.set_storage(address, key, value)

    def begin(self):
        # the sink of some noise transfers, left out of the disassembly
        self.genesis.install_code(PING, Assembler().op("STOP").assemble().code)
        chain, world = make_genesis(self.genesis)
        self.archive = Archive(chain, world)

    def tx(
        self,
        sender: Address,
        to: Address,
        value: int = 0,
        data: bytes = b"",
        label: str = BENIGN,
        mechanism: str = "",
        expect: str = "success",
    ) -> Transaction:
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        t = make_transaction(sender, to, value, data, nonce)
        if label != BENIGN:
            self.archive.labels.add(t.hash, label, mechanism)
        self._expect[t.hash] = expect
        self.pending.append(t)
        return t

    def seal(self) -> MinedBlock:
        mined = mine_and_record(self.archive, self.pending)
        for t, outcome in zip(mined.block.txs, mined.outcomes):
            want = self._expect[t.hash]
            got = "success" if outcome.status == "success" else "failure"
            if got != want:
                raise UsageError(
                    f"{self.name}: tx {hash_hex(t.hash)} expected {want}, "
                    f"got {got} ({outcome.exception})"
                )
        self.pending = []
        return mined

    def noise_block(self, count: int = 2):
        for _ in range(count):
            a, b = self.rng.sample(_NOISE, 2)
            self.tx(a, b, value=self.rng.randrange(1, 1000))
        if self.rng.random() < 0.5:
            self.tx(self.rng.choice(_NOISE), PING, value=self.rng.randrange(0, 10))
        self.seal()

    def fund_cast(self, *extra: Address):
        for eoa in (*_NOISE, *_USERS, ADMIN, *extra):
            self.fund(eoa, 10**18)

    @property
    def height(self) -> int:
        return self.archive.chain.height

    def fixture(
        self,
        contract: Address,
        rule: str,
        marks: list[tuple[int, str]],
        params: dict,
        selectors: list[str],
        include_internal: bool,
    ) -> ScenarioFixture:
        programs = self.programs
        locs: dict[int, list[int]] = {}
        for addr, mark in marks:
            locs.setdefault(addr, []).append(programs[addr].marks[mark])
        vuln = {
            "scenario": self.name,
            "contractAddress": address_hex(contract),
            "rule": rule,
            "vulnLocs": [
                {"codeAddress": address_hex(addr), "pcOffsets": sorted(pcs)}
                for addr, pcs in sorted(locs.items())
            ],
            "params": params,
            "filter": {
                "selectors": selectors,
                "includeInternal": include_internal,
                "blockRange": [1, self.height],
            },
        }
        listing = "".join(
            f"== code at {address_hex(addr)} ==\n{programs[addr].listing}\n"
            for addr in sorted(programs)
        )
        return ScenarioFixture(self.name, self.archive, vuln, listing)


def _overflow_params(balance_slot: int, to_arg_index: int | None) -> dict:
    """The params of an overflow descriptor over uint256 arithmetic."""
    return {
        "typeMin": "0",
        "typeMax": str(_UINT256_MAX),
        "balanceOfSlot": balance_slot,
        "toArgIndex": to_arg_index,
    }


def _reentry_agent(
    target: Address,
    signature: str,
    head_args: tuple[int, ...],
    self_address: Address,
    abort: bool,
) -> Program:
    """Fallback-only agent. First entry re-calls `target` once with itself as
    the final argument; nested entries see the in-flight flag (slot 0) and
    absorb the payment, so every drain nests exactly one level. With `abort`
    the agent reverts after the nested call returns, which drags the outer
    transaction down with it."""
    a = Assembler()
    a.push(0).op("SLOAD")
    a.jumpi("absorb")
    a.push(1).push(0).op("SSTORE")
    a.store_calldata_word(0, int.from_bytes(function_selector(signature), "big") << 224)
    args = (*head_args, self_address)
    for i, value in enumerate(args):
        a.store_calldata_word(32 + 32 * i, value)
    a.push(32 * (1 + len(args))).push(0)
    a.push(0)
    a.push(target, 20)
    a.push(0)
    a.op("CALL").op("POP")
    a.push(0).push(0).op("SSTORE")
    if abort:
        a.revert()
    else:
        a.op("STOP")
    a.label("absorb").op("STOP")
    return a.assemble()


# -- Bank: reentrant withdraw -------------------------------------------------


def _bank_program() -> Program:
    a = Assembler()
    a.dispatch(
        [
            (function_selector("deposit(uint256)"), "deposit"),
            (function_selector("withdraw(uint256)"), "withdraw"),
        ]
    )
    a.op("STOP")

    a.label("deposit").op("POP")
    a.arg(0).mapping_slot(1)
    a.op("DUP1").op("SLOAD")
    a.op("CALLVALUE").op("ADD")
    a.op("SWAP1").op("SSTORE")
    a.op("STOP")

    # pays out before clearing the ledger entry
    a.label("withdraw").op("POP")
    a.push(0).push(0)
    a.arg(0).mapping_slot(1).op("SLOAD")
    a.arg(0)
    a.push(0)
    a.mark("payout").op("CALL")
    a.jumpi("paid")
    a.revert()
    a.label("paid")
    a.push(0)
    a.arg(0).mapping_slot(1)
    a.mark("clear").op("SSTORE")
    a.op("STOP")
    return a.assemble()


def _build_bank(seed: int) -> ScenarioFixture:
    s = _Session("Bank", seed)
    atk, atk2 = _ATTACKERS[0], _ATTACKERS[1]
    s.fund_cast(atk, atk2)
    s.install(BANK, _bank_program(), balance=100_000)
    s.install(BANK_AGENT, _reentry_agent(BANK, "withdraw(uint256)", (), BANK_AGENT, abort=False))
    s.install(
        BANK_AGENT_ABORT,
        _reentry_agent(BANK, "withdraw(uint256)", (), BANK_AGENT_ABORT, abort=True),
    )
    s.begin()

    u1, u2 = _USERS[0], _USERS[1]

    def deposit(beneficiary: Address, value: int, sender: Address):
        s.tx(sender, BANK, value=value, data=calldata("deposit(uint256)", beneficiary))

    def drain(value: int):
        deposit(BANK_AGENT, value, atk)
        s.tx(
            atk,
            BANK,
            data=calldata("withdraw(uint256)", BANK_AGENT),
            label="reentrancy",
            mechanism="drain",
        )

    deposit(u1, 500, u1)
    deposit(u2, 700, u2)
    s.seal()

    s.noise_block()

    # two drains per block; the top-up deposits are not in the filter set
    drain(300)
    drain(200)
    s.seal()

    s.tx(u1, BANK, data=calldata("withdraw(uint256)", u1))
    s.seal()

    s.noise_block()

    drain(100)
    drain(150)
    s.seal()

    s.tx(u2, BANK, data=calldata("withdraw(uint256)", u2))
    s.seal()

    drain(50)
    s.seal()

    s.noise_block()

    # never deposited: the nested clear still runs, then the agent reverts
    # the whole withdraw, so the block books no transfer at all
    s.tx(
        atk2,
        BANK,
        data=calldata("withdraw(uint256)", BANK_AGENT_ABORT),
        label="reentrancy",
        mechanism="reverting-probe",
        expect="failure",
    )
    s.seal()

    return s.fixture(
        BANK,
        "reentrancy",
        [(BANK, "clear")],
        {"userBalancesSlot": 1},
        ["withdraw(uint256)"],
        include_internal=False,
    )


# -- ProductVote: reentrant vote rebate ---------------------------------------


def _vote_program() -> Program:
    a = Assembler()
    a.dispatch(
        [
            (function_selector("register(uint256)"), "register"),
            (function_selector("vote(uint256,uint256)"), "vote"),
        ]
    )
    a.op("STOP")

    a.label("register").op("POP")
    a.arg(0).mapping_slot(1)
    a.op("DUP1").op("SLOAD")
    a.op("CALLVALUE").op("ADD")
    a.op("SWAP1").op("SSTORE")
    a.op("STOP")

    # rebate goes out while the credit is still standing
    a.label("vote").op("POP")
    a.arg(1).mapping_slot(1).op("SLOAD")
    a.op("ISZERO")
    a.jumpi("reject")
    a.push(0).push(0)
    a.push(1)
    a.arg(1)
    a.push(0)
    a.mark("rebate").op("CALL")
    a.jumpi("tally")
    a.revert()
    a.label("tally")
    a.push(1)
    a.arg(0).mapping_slot(2).op("SLOAD")
    a.op("ADD")
    a.arg(0).mapping_slot(2)
    a.op("SSTORE")
    a.push(0)
    a.arg(1).mapping_slot(1)
    a.mark("clear").op("SSTORE")
    a.op("STOP")
    a.label("reject")
    a.revert()
    return a.assemble()


def _build_product_vote(seed: int) -> ScenarioFixture:
    s = _Session("ProductVote", seed)
    product = 3
    atk = _ATTACKERS[2]
    s.fund_cast(atk)
    s.install(PRODUCT_VOTE, _vote_program(), balance=1_000)
    s.install(
        VOTE_AGENT,
        _reentry_agent(PRODUCT_VOTE, "vote(uint256,uint256)", (product,), VOTE_AGENT, abort=False),
    )
    s.begin()

    def register(beneficiary: Address, value: int, sender: Address):
        s.tx(sender, PRODUCT_VOTE, value=value, data=calldata("register(uint256)", beneficiary))

    def ballot(sender: Address, product_id: int, beneficiary: Address, **kw):
        s.tx(
            sender,
            PRODUCT_VOTE,
            data=calldata("vote(uint256,uint256)", product_id, beneficiary),
            **kw,
        )

    # a one-credit register buys exactly one one-wei rebate
    for u in _USERS[:3]:
        register(u, 1, u)
    s.seal()

    for u in _USERS[:3]:
        ballot(u, s.rng.randrange(1, 6), u)
        s.seal()

    s.noise_block()

    for round_ in range(10):
        for _ in range(2):
            register(VOTE_AGENT, 1, atk)
            ballot(atk, product, VOTE_AGENT, label="reentrancy", mechanism="double-vote")
        s.seal()
        if round_ == 4:
            s.noise_block()

    # fresh credit so a late benign vote still passes the credit check
    register(_USERS[3], 1, _USERS[3])
    s.seal()
    ballot(_USERS[3], 2, _USERS[3])
    s.seal()

    return s.fixture(
        PRODUCT_VOTE,
        "reentrancy",
        [(PRODUCT_VOTE, "clear")],
        {"userBalancesSlot": 1},
        ["vote(uint256,uint256)"],
        include_internal=False,
    )


# -- SimulationKotET: refund to a contract that bounces ------------------------


def _kotet_program() -> Program:
    a = Assembler()
    a.dispatch([(function_selector("claimThrone()"), "claim")])
    a.op("STOP")

    a.label("claim").op("POP")
    a.op("CALLVALUE")
    a.push(1).op("SLOAD")
    a.op("LT")
    a.jumpi("outbid")
    a.revert()
    a.label("outbid")
    a.push(0).push(0)
    a.push(1).op("SLOAD")
    a.push(2).op("SLOAD")
    a.push(0)
    a.mark("refund").op("CALL")
    a.jumpi("crowned")
    a.revert()
    a.label("crowned")
    a.op("CALLER").push(2).op("SSTORE")
    a.op("CALLVALUE").push(1).op("SSTORE")
    a.op("STOP")
    return a.assemble()


def _kotet_agent_program() -> Program:
    # claims through attack(); bare value transfers (the refund) revert
    a = Assembler()
    a.dispatch([(function_selector("attack()"), "attack")])
    a.revert()
    a.label("attack").op("POP")
    a.store_calldata_word(
        0, int.from_bytes(function_selector("claimThrone()"), "big") << 224
    )
    a.push(4).push(0)
    a.op("CALLVALUE")
    a.push(KOTET, 20)
    a.push(0)
    a.op("CALL")
    a.jumpi("seated")
    a.revert()
    a.label("seated").op("STOP")
    return a.assemble()


def _build_kotet(seed: int) -> ScenarioFixture:
    s = _Session("SimulationKotET", seed)
    atk = _ATTACKERS[3]
    victims = _USERS[2:6]
    s.fund_cast(atk)
    s.install(KOTET, _kotet_program(), balance=1_000_000)
    s.install(KOTET_AGENT, _kotet_agent_program())
    s.preset(KOTET, 1, 100)
    s.preset(KOTET, 2, ADMIN)
    s.begin()

    claim = calldata("claimThrone()")

    # honest reign: each refund reaches a plain account
    s.tx(_USERS[0], KOTET, value=150, data=claim)
    s.tx(_USERS[1], KOTET, value=200, data=claim)
    s.tx(_USERS[2], KOTET, value=120, data=claim, expect="failure")  # underbid
    s.seal()

    s.noise_block()

    # squatter takes the throne through its own entry point
    s.tx(atk, KOTET_AGENT, value=300, data=calldata("attack()"))
    s.seal()

    bids = (400, 450, 500, 550)
    for pair in (bids[:2], bids[2:]):
        for victim, bid in zip(victims, pair):
            s.tx(
                victim,
                KOTET,
                value=bid,
                data=claim,
                label="dos",
                mechanism="bounced-refund",
                expect="failure",
            )
        victims = victims[2:]
        s.seal()

    s.noise_block()

    return s.fixture(
        KOTET,
        "dos",
        [(KOTET, "refund")],
        {"highestBidSlot": 1},
        ["claimThrone()"],
        include_internal=False,
    )


# -- SimulationBECToken: unchecked doubling -----------------------------------


def _bec_program() -> Program:
    a = Assembler()
    a.dispatch(
        [
            (function_selector("batchTransfer(uint256,uint256,uint256)"), "batch"),
            (function_selector("setBalance(uint256,uint256)"), "setbal"),
        ]
    )
    a.op("STOP")

    a.label("batch").op("POP")
    a.arg(2)
    a.push(2)
    a.mark("amount").op("MUL")
    a.op("DUP1")
    a.op("CALLER").mapping_slot(1).op("SLOAD")
    a.op("LT")
    a.jumpi("reject")
    a.op("CALLER").mapping_slot(1).op("SLOAD")
    a.op("SUB")
    a.op("CALLER").mapping_slot(1)
    a.op("SSTORE")
    a.arg(2)
    a.arg(0).mapping_slot(1).op("SLOAD")
    a.op("ADD")
    a.arg(0).mapping_slot(1)
    a.op("SSTORE")
    a.arg(2)
    a.arg(1).mapping_slot(1).op("SLOAD")
    a.op("ADD")
    a.arg(1).mapping_slot(1)
    a.op("SSTORE")
    a.op("STOP")
    a.label("reject")
    a.revert()

    a.label("setbal").op("POP")
    a.arg(1)
    a.arg(0).mapping_slot(1)
    a.op("SSTORE")
    a.op("STOP")
    return a.assemble()


def _bec_proxy_program() -> Program:
    a = Assembler()
    a.dispatch([(function_selector("relay(uint256,uint256,uint256)"), "relay")])
    a.op("STOP")
    a.label("relay").op("POP")
    a.store_calldata_word(
        0,
        int.from_bytes(function_selector("batchTransfer(uint256,uint256,uint256)"), "big")
        << 224,
    )
    for i in range(3):
        a.arg(i)
        a.push(32 + 32 * i)
        a.op("MSTORE")
    a.push(128).push(0)
    a.push(0)
    a.push(BEC_TOKEN, 20)
    a.push(0)
    a.op("CALL")
    a.jumpi("done")
    a.revert()
    a.label("done").op("STOP")
    return a.assemble()


def _build_bec_token(seed: int) -> ScenarioFixture:
    s = _Session("SimulationBECToken", seed)
    s.fund_cast(*_ATTACKERS)
    s.install(BEC_TOKEN, _bec_program())
    s.install(BEC_PROXY, _bec_proxy_program())
    s.begin()

    traders = _USERS[:4]
    half = 1 << 255

    def batch(sender: Address, r1: Address, r2: Address, value: int, **kw):
        s.tx(
            sender,
            BEC_TOKEN,
            data=calldata("batchTransfer(uint256,uint256,uint256)", r1, r2, value),
            **kw,
        )

    s.tx(ADMIN, BEC_TOKEN, data=calldata("setBalance(uint256,uint256)", traders[0], 5_000))
    s.tx(ADMIN, BEC_TOKEN, data=calldata("setBalance(uint256,uint256)", traders[1], 3_000))
    s.seal()

    batch(traders[0], traders[2], traders[3], 40)
    s.seal()

    s.noise_block()

    # eight direct hits, two per block; one block carries a benign batch too
    direct = _ATTACKERS[4:12]
    for i in range(0, 8, 2):
        for eoa, mule in zip(direct[i : i + 2], _MULES[i : i + 2]):
            batch(eoa, eoa, mule, half, label="overflow", mechanism="direct")
        if i == 4:
            batch(traders[1], traders[0], traders[2], 25)
        s.seal()

    s.noise_block()

    # three routed through the relay: the outer transaction never touches
    # the token, so block-edge accounting has nothing to look at
    for eoa, mule in zip(_ATTACKERS[12:15], _MULES[8:11]):
        s.tx(
            eoa,
            BEC_PROXY,
            data=calldata("relay(uint256,uint256,uint256)", eoa, mule, half),
            label="overflow",
            mechanism="proxied",
        )
        s.seal()

    # the admin resets the attacker's entry in the same block, so the edge
    # diff cancels even though the trace still carries the wrap
    occluded = _ATTACKERS[15]
    batch(occluded, occluded, _MULES[11], half, label="overflow", mechanism="occluded")
    s.tx(ADMIN, BEC_TOKEN, data=calldata("setBalance(uint256,uint256)", occluded, 0))
    s.seal()

    batch(traders[1], traders[3], traders[0], 10)
    s.seal()

    return s.fixture(
        BEC_TOKEN,
        "overflow",
        [(BEC_TOKEN, "amount")],
        _overflow_params(1, 0),
        ["batchTransfer(uint256,uint256,uint256)"],
        include_internal=True,
    )


# -- DelayedUnderflow: wrapped debit pays out later ----------------------------


def _delayed_program(pad_iters: int = 0) -> Program:
    a = Assembler()
    a.dispatch(
        [
            (function_selector("claim(uint256)"), "claim"),
            (function_selector("grant(uint256,uint256)"), "grant"),
        ]
    )
    a.op("STOP")

    a.label("claim").op("POP")
    if pad_iters:
        # busywork loop: 8 + 14 * pad_iters extra steps, nothing touched
        a.push(pad_iters, 3)
        a.label("churn")
        a.op("DUP1").op("ISZERO")
        a.jumpi("churn_done")
        a.push(1).push(1).op("ADD").op("POP")
        a.push(1).op("SWAP1").op("SUB")
        a.jump("churn")
        a.label("churn_done").op("POP")
    a.arg(0)
    a.op("CALLER").mapping_slot(1).op("SLOAD")
    a.mark("debit").op("SUB")
    a.op("DUP1")
    a.op("CALLER").mapping_slot(1)
    a.op("SSTORE")
    a.op("DUP1")
    a.push(REWARD_THRESHOLD, 32)
    a.op("GT")
    a.jumpi("done")
    a.op("DUP1")
    a.op("CALLER").mapping_slot(2).op("SLOAD")
    a.op("ADD")
    a.op("CALLER").mapping_slot(2)
    a.op("SSTORE")
    a.label("done").op("POP")
    a.op("STOP")

    a.label("grant").op("POP")
    a.arg(1)
    a.arg(0).mapping_slot(1)
    a.op("SSTORE")
    a.op("STOP")
    return a.assemble()


def _build_delayed(seed: int, pad_iters: int = 0, lean: bool = False) -> ScenarioFixture:
    s = _Session("DelayedUnderflow", seed)
    count = 1 if lean else EXPLOIT_COUNTS["DelayedUnderflow"]
    claimants = _ATTACKERS[:count]
    s.fund_cast(*claimants)
    s.install(DELAYED, _delayed_program(pad_iters))
    s.begin()

    def grant(who: Address, amount: int):
        s.tx(ADMIN, DELAYED, data=calldata("grant(uint256,uint256)", who, amount))

    def claim(sender: Address, spend: int, **kw):
        s.tx(sender, DELAYED, data=calldata("claim(uint256)", spend), **kw)

    credits = {}
    for eoa in claimants:
        credits[eoa] = 100 + s.rng.randrange(0, 400)
        grant(eoa, credits[eoa])
    benign = () if lean else _USERS[:4]
    for eoa in benign:
        credits[eoa] = 1_000 + s.rng.randrange(0, 500)
        grant(eoa, credits[eoa])
    s.seal()

    if not lean:
        for eoa in benign[:2]:
            claim(eoa, s.rng.randrange(1, credits[eoa] // 2))
            s.seal()
        s.noise_block()

    # the wrap itself: spend a little more than the ledger holds
    for i, eoa in enumerate(claimants):
        claim(
            eoa,
            credits[eoa] + 1 + s.rng.randrange(0, 50),
            label="overflow",
            mechanism="wrapped-debit",
        )
        s.seal()
        if not lean and i == 5:
            s.noise_block()

    if not lean:
        for eoa in benign[2:]:
            claim(eoa, s.rng.randrange(1, credits[eoa] // 2))
            s.seal()

    return s.fixture(
        DELAYED,
        "overflow",
        [(DELAYED, "debit")],
        _overflow_params(2, None),
        ["claim(uint256)"],
        include_internal=False,
    )


# -- TargetUnderflow: storage-scaling underflow target -------------------------


def _target_program() -> Program:
    a = Assembler()
    a.dispatch([(function_selector("redeem(uint256)"), "redeem")])
    a.op("STOP")
    a.label("redeem").op("POP")
    a.arg(0)
    a.op("CALLER").mapping_slot(1).op("SLOAD")
    a.mark("debit").op("SUB")
    a.op("CALLER").mapping_slot(1)
    a.op("SSTORE")
    a.op("STOP")
    return a.assemble()


def _build_target(seed: int, prepopulate: int = 0, lean: bool = False) -> ScenarioFixture:
    s = _Session("TargetUnderflow", seed)
    count = 4 if lean else EXPLOIT_COUNTS["TargetUnderflow"]
    redeemers = _ATTACKERS[:count]
    s.fund_cast(*redeemers)
    s.install(TARGET, _target_program())
    holders = () if lean else _USERS[:4]
    for u in holders:
        s.preset(TARGET, (1 << 160) + u, 10_000)
    # bulk rows drive the cost of every state-snapshot parse
    for i in range(prepopulate):
        s.preset(TARGET, (3 << 160) + i, i + 1)
    s.begin()

    def redeem(sender: Address, amount: int, **kw):
        s.tx(sender, TARGET, data=calldata("redeem(uint256)", amount), **kw)

    if not lean:
        redeem(holders[0], 2_500)
        s.seal()
        s.noise_block()

    for i in range(0, count, 4):
        for eoa in redeemers[i : i + 4]:
            redeem(
                eoa,
                1 + s.rng.randrange(0, 1_000),
                label="overflow",
                mechanism="wrapped-debit",
            )
        s.seal()

    if not lean:
        redeem(holders[1], 400)
        s.seal()
        s.noise_block()
        redeem(holders[2], 9_999)
        s.seal()

    return s.fixture(
        TARGET,
        "overflow",
        [(TARGET, "debit")],
        _overflow_params(1, None),
        ["redeem(uint256)"],
        include_internal=False,
    )


# -- entry points --------------------------------------------------------------

_BUILDERS = {
    "Bank": _build_bank,
    "DelayedUnderflow": _build_delayed,
    "ProductVote": _build_product_vote,
    "SimulationBECToken": _build_bec_token,
    "SimulationKotET": _build_kotet,
    "TargetUnderflow": _build_target,
}


def build_fixture_chain(scenario: str, seed: int = 0) -> ScenarioFixture:
    """Build one scenario; scale_fixture builds the scaled variants."""
    builder = _BUILDERS.get(scenario)
    if builder is None:
        known = ", ".join(SCENARIO_NAMES)
        raise UsageError(f"unknown scenario {scenario!r:.80} (expected one of: {known})")
    return builder(seed)


def build_suite(seed: int = 0) -> dict[str, ScenarioFixture]:
    return {name: _BUILDERS[name](seed) for name in SCENARIO_NAMES}


def _exploit_trace_steps(fixture: ScenarioFixture) -> int:
    txh = fixture.archive.labels.exploit_hashes()[0]
    return len(fixture.archive.traces[txh]["structLogs"])


# The scenario each cost axis scales.
SCALED_SCENARIOS = {"instructions": "DelayedUnderflow", "storage": "TargetUnderflow"}


def scale_fixture(scenario: str, axis: str, magnitude: int, seed: int = 0) -> ScenarioFixture:
    """Scaled variants for the two cost axes.

    instructions: DelayedUnderflow with the claim padded so its trace runs
    `magnitude` steps (within 2%); magnitude 0 returns the base fixture.
    storage: TargetUnderflow with `magnitude` extra storage rows at genesis.
    """
    if magnitude < 0:
        raise UsageError("magnitude must be non-negative")
    if axis not in SCALED_SCENARIOS:
        raise UsageError(f"unknown axis {axis!r} (expected instructions or storage)")
    if scenario != SCALED_SCENARIOS[axis]:
        raise UsageError(f"{axis} axis scales {SCALED_SCENARIOS[axis]} only")
    if axis == "instructions":
        if magnitude == 0:
            return _build_delayed(seed)
        if magnitude > INSTRUCTION_CEILING:
            raise UsageError(f"magnitude {magnitude} above ceiling {INSTRUCTION_CEILING}")
        base = _exploit_trace_steps(_build_delayed(seed, lean=True))
        if magnitude <= base + 22:
            raise UsageError(f"magnitude {magnitude} below the un-padded claim ({base} steps)")
        iters = round((magnitude - base - 8) / 14)
        fixture = _build_delayed(seed, pad_iters=iters, lean=True)
        got = _exploit_trace_steps(fixture)
        if abs(got - magnitude) > 0.02 * magnitude:  # pragma: no cover
            raise UsageError(f"padding landed at {got} steps, wanted {magnitude}")
        return fixture
    if magnitude == 0:
        return _build_target(seed)
    if magnitude > STORAGE_CEILING:
        raise UsageError(f"magnitude {magnitude} above ceiling {STORAGE_CEILING}")
    return _build_target(seed, prepopulate=magnitude, lean=True)


def write_fixture(fixture: ScenarioFixture, directory: str | Path):
    """Write the fixture's archive, descriptor and disassembly under
    directory; UsageError naming it if the files cannot be written."""
    base = Path(directory)
    try:
        write_archive(fixture.archive, base)
        (base / "vulns").mkdir(exist_ok=True)
        (base / "disasm").mkdir(exist_ok=True)
        (base / "vulns" / f"{fixture.name}.json").write_text(
            json.dumps(fixture.vuln, indent=1, sort_keys=True) + "\n"
        )
        (base / "disasm" / f"{fixture.name}.txt").write_text(fixture.disasm)
    except OSError as err:
        where, _ = quoted_fault(f"fixture at {base}", err)
        raise UsageError(f"cannot write {where}: {err.strerror or err}") from None

