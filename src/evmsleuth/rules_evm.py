"""Instruction-level indicators of compromise over reconstructed traces.

Three rule classes, each keyed to vulnerable code locations from a vuln
descriptor:

  overflow    flagged arithmetic whose exact integer value leaves the
              declared type's range (modular ADDMOD/MULMOD never flag)
  dos         a CALL at the vulnerable offset returning status 0
  reentrancy  an SSTORE at the vulnerable offset while another activation
              of the same storage identity sits deeper in the stack

A rule sees one reconstructed trace at a time and reports every hit; the
caller stamps transaction context. Failed transactions are analyzed like
successful ones (their traces are real executions), and each detection
carries the transaction status so downstream reporting can say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .model import IntTypeBounds, address_hex, hash_hex, wrap_arith, word_hex
from .traces import ReconstructedTrace
from .words import ARITH_ARITY


RULE_CLASSES = ("overflow", "dos", "reentrancy")

_REQUIRED_PARAMS = {
    "overflow": ("typeMin", "typeMax", "balanceOfSlot"),
    "dos": ("highestBidSlot",),
    "reentrancy": ("userBalancesSlot",),
}


@dataclass(frozen=True)
class VulnLocation:
    code_address: int
    pc_offsets: frozenset[int]


@dataclass(frozen=True)
class VulnSpec:
    """Parsed vuln descriptor: where to look and what the rule needs."""

    scenario: str
    contract: int
    rule: str
    locations: tuple[VulnLocation, ...]
    params: dict
    selectors: tuple[str, ...]
    include_internal: bool
    block_range: tuple[int, int]

    @classmethod
    def from_document(cls, doc: dict) -> "VulnSpec":
        try:
            scenario = doc["scenario"]
            contract = int(doc["contractAddress"], 16)
            rule = doc["rule"]
            raw_locs = doc["vulnLocs"]
            params = doc["params"]
            filt = doc["filter"]
            selectors = tuple(filt["selectors"])
            include_internal = bool(filt["includeInternal"])
            lo, hi = filt["blockRange"]
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"malformed vuln descriptor: {err!r}") from None
        if rule not in RULE_CLASSES:
            raise ConfigError(f"unknown rule class {rule!r}")
        for name in _REQUIRED_PARAMS[rule]:
            if name not in params:
                raise ConfigError(f"rule {rule!r} needs param {name!r}")
        locations = []
        for entry in raw_locs:
            try:
                locations.append(
                    VulnLocation(
                        int(entry["codeAddress"], 16),
                        frozenset(int(pc) for pc in entry["pcOffsets"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"malformed vulnLocs entry: {err!r}") from None
        if not locations:
            raise ConfigError("vulnLocs is empty")
        if not (isinstance(lo, int) and isinstance(hi, int) and 0 < lo <= hi):
            raise ConfigError(f"bad blockRange [{lo}, {hi}]")
        return cls(
            scenario,
            contract,
            rule,
            tuple(locations),
            dict(params),
            selectors,
            include_internal,
            (lo, hi),
        )

    def bounds(self) -> IntTypeBounds:
        try:
            return IntTypeBounds(int(self.params["typeMin"]), int(self.params["typeMax"]))
        except (KeyError, ValueError, TypeError) as err:
            raise ConfigError(f"bad type bounds in params: {err!r}") from None

    def slot(self, name: str) -> int:
        value = self.params.get(name)
        if not isinstance(value, int) or value < 0:
            raise ConfigError(f"param {name!r} must be a non-negative slot index")
        return value

    def to_arg_index(self) -> int | None:
        value = self.params.get("toArgIndex")
        if value is None:
            return None
        if not isinstance(value, int) or value < 0:
            raise ConfigError("toArgIndex must be None or a non-negative index")
        return value


@dataclass(frozen=True)
class TxContext:
    tx_hash: bytes
    block_number: int
    failed: bool

    @property
    def status(self) -> str:
        return "failed" if self.failed else "success"


@dataclass(frozen=True)
class Detection:
    rule: str
    tx_hash: bytes
    block_number: int
    raw_index: int
    pc: int
    depth: int
    frame_id: int
    code_address: int
    tx_status: str
    detail: dict

    def to_document(self) -> dict:
        # raw_index stays off the document: it numbers steps within one
        # trace encoding, and the same finding must serialize identically
        # whether the trace arrived complete or pc-filtered.
        return {
            "rule": self.rule,
            "txHash": hash_hex(self.tx_hash),
            "blockNumber": self.block_number,
            "pc": self.pc,
            "depth": self.depth,
            "frame": address_hex(self.frame_id),
            "code": address_hex(self.code_address),
            "txStatus": self.tx_status,
            "detail": self.detail,
        }


def _located(spec: VulnSpec, step) -> bool:
    return any(
        step.code_address == loc.code_address and step.pc in loc.pc_offsets
        for loc in spec.locations
    )


def detect_overflow(
    rec: ReconstructedTrace, spec: VulnSpec, ctx: TxContext
) -> tuple[list[Detection], list[str]]:
    bounds = spec.bounds()
    hits: list[Detection] = []
    notes: list[str] = []
    for step in rec.steps:
        arity = ARITH_ARITY.get(step.op)
        if arity is None or not _located(spec, step):
            continue
        if len(step.stack) < arity:
            notes.append(
                f"step {step.raw_index}: {step.op} with {len(step.stack)} stack words, skipped"
            )
            continue
        operands = [step.stack[-1 - k] for k in range(arity)]
        outcome = wrap_arith(step.op, operands, bounds)
        if not outcome.out_of_bounds:
            continue
        hits.append(
            Detection(
                rule="overflow",
                tx_hash=ctx.tx_hash,
                block_number=ctx.block_number,
                raw_index=step.raw_index,
                pc=step.pc,
                depth=step.depth,
                frame_id=step.frame_id,
                code_address=step.code_address,
                tx_status=ctx.status,
                detail={
                    "op": step.op,
                    "operands": [word_hex(v) for v in operands],
                    "result": word_hex(outcome.result),
                    "zResult": None if outcome.z_result is None else str(outcome.z_result),
                    "zClamped": outcome.z_clamped,
                    "typeMin": str(bounds.min),
                    "typeMax": str(bounds.max),
                },
            )
        )
    return hits, notes


def detect_dos_revert(
    rec: ReconstructedTrace, spec: VulnSpec, ctx: TxContext
) -> tuple[list[Detection], list[str]]:
    hits: list[Detection] = []
    notes: list[str] = []
    for step in rec.steps:
        if step.op != "CALL" or not _located(spec, step):
            continue
        site = step.call
        if site is None:
            notes.append(f"step {step.raw_index}: CALL without operands, skipped")
            continue
        if site.status is None:
            notes.append(
                f"step {step.raw_index}: CALL status unavailable "
                "(filtered trace without call records), skipped"
            )
            continue
        if site.status != 0:
            continue
        hits.append(
            Detection(
                rule="dos",
                tx_hash=ctx.tx_hash,
                block_number=ctx.block_number,
                raw_index=step.raw_index,
                pc=step.pc,
                depth=step.depth,
                frame_id=step.frame_id,
                code_address=step.code_address,
                tx_status=ctx.status,
                detail={
                    "to": address_hex(site.to),
                    "value": word_hex(site.value or 0),
                    "status": 0,
                },
            )
        )
    return hits, notes


def detect_reentrancy(
    rec: ReconstructedTrace, spec: VulnSpec, ctx: TxContext
) -> tuple[list[Detection], list[str]]:
    hits: list[Detection] = []
    for step in rec.steps:
        if step.op != "SSTORE" or not _located(spec, step):
            continue
        if step.frame_id not in step.frames_below:
            continue
        write = step.storage_write or (None, None)
        hits.append(
            Detection(
                rule="reentrancy",
                tx_hash=ctx.tx_hash,
                block_number=ctx.block_number,
                raw_index=step.raw_index,
                pc=step.pc,
                depth=step.depth,
                frame_id=step.frame_id,
                code_address=step.code_address,
                tx_status=ctx.status,
                detail={
                    "slot": None if write[0] is None else word_hex(write[0]),
                    "value": None if write[1] is None else word_hex(write[1]),
                    "framesBelow": [address_hex(f) for f in step.frames_below],
                },
            )
        )
    return hits, []


RULES = {
    "overflow": detect_overflow,
    "dos": detect_dos_revert,
    "reentrancy": detect_reentrancy,
}


def evaluate_trace(
    rec: ReconstructedTrace, spec: VulnSpec, ctx: TxContext
) -> tuple[list[Detection], list[str]]:
    """Run the spec's rule class over one reconstructed trace."""
    return RULES[spec.rule](rec, spec, ctx)
