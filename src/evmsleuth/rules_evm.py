"""Instruction-level indicators of compromise over reconstructed traces.

A vuln descriptor names the weak spot as code addresses plus pcs
(read_vuln_file reads one from a file, read_vuln_doc from a fixture
directory's vulns/). VulnSpec folds those locations into one gate,
{code address: pcs}, and a step is gated when the gate lists its pc for
the code it executes (the code, not the storage identity, so DELEGATECALL
borrowers of the vulnerable code are seen). VulnSpec.gates is that test as
a step predicate: the evm level hands it to trace ingest, which then builds
only the gated steps. evaluate_trace walks the steps once and hands only
gated steps to the rule class's per-step check:

  overflow    flagged arithmetic whose exact integer value leaves the
              declared type's range (modular ADDMOD/MULMOD never flag)
  dos         a CALL returning status 0
  reentrancy  an SSTORE while another activation of the same storage
              identity sits deeper in the stack

A check returns a detail for a hit and/or a note for a gated step it had to
skip; evaluate_trace stamps transaction context and builds every detection.
Failed transactions are analyzed like successful ones (their traces are
real executions), and each detection carries the transaction status so
downstream reporting can say so.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError, UsageError
from .traces import ReconstructedStep, ReconstructedTrace
from .words import ARITH_ARITY, IntTypeBounds, address_hex, hash_hex, word_hex, wrap_arith


RULE_CLASSES = ("overflow", "dos", "reentrancy")

_REQUIRED_PARAMS = {
    "overflow": ("typeMin", "typeMax", "balanceOfSlot"),
    "dos": ("highestBidSlot",),
    "reentrancy": ("userBalancesSlot",),
}


@dataclass(frozen=True)
class VulnSpec:
    """Parsed vuln descriptor: where to look and what the rule needs."""

    scenario: str
    contract: int
    rule: str
    gate: dict[int, frozenset[int]]  # code address -> vulnerable pcs
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
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        for name in _REQUIRED_PARAMS[rule]:
            if name not in params:
                raise ConfigError(f"rule {rule!r} needs param {name!r}")
        gate: dict[int, frozenset[int]] = {}
        try:
            for entry in raw_locs:
                code = int(entry["codeAddress"], 16)
                pcs = frozenset(int(pc) for pc in entry["pcOffsets"])
                gate[code] = gate.get(code, frozenset()) | pcs
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"malformed vulnLocs entry: {err!r}") from None
        if not gate:
            raise ConfigError("vulnLocs is empty")
        if not (isinstance(lo, int) and isinstance(hi, int) and 0 < lo <= hi):
            raise ConfigError(f"bad blockRange [{lo}, {hi}]")
        return cls(
            scenario,
            contract,
            rule,
            gate,
            dict(params),
            selectors,
            include_internal,
            (lo, hi),
        )

    def gates(self, pc: int, op: str, code: int) -> bool:
        """The step predicate of the gate: does the gate list this pc for
        the code the step executes?"""
        return pc in self.gate.get(code, ())

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


def read_vuln_file(path: str | Path) -> dict:
    """The JSON document in a vuln descriptor file. UsageError if there is no
    such file, ConfigError if it cannot be read or is not UTF-8 JSON; both
    name the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"no vulnerability description at {path}") from None
    except (OSError, ValueError) as err:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"cannot read vulnerability description at {path}: {err}") from None


def read_vuln_doc(directory: str | Path) -> dict:
    """Load the single vuln descriptor from a fixture directory."""
    vulns = sorted(Path(directory).glob("vulns/*.json"))
    if not vulns:
        raise UsageError(f"no vulns/*.json under {directory}")
    return read_vuln_file(vulns[0])


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


# A per-step check returns (detail of a hit or None, note on a skip or None).
StepCheck = Callable[[ReconstructedStep], tuple[dict | None, str | None]]


def overflow_check(spec: VulnSpec) -> StepCheck:
    bounds = spec.bounds()

    def check(step):
        arity = ARITH_ARITY.get(step.op)
        if arity is None:
            return None, None
        if len(step.stack) < arity:
            return None, f"{step.op} with {len(step.stack)} stack words, skipped"
        operands = [step.stack[-1 - k] for k in range(arity)]
        outcome = wrap_arith(step.op, operands, bounds)
        if not outcome.out_of_bounds:
            return None, None
        return {
            "op": step.op,
            "operands": [word_hex(v) for v in operands],
            "result": word_hex(outcome.result),
            "zResult": None if outcome.z_result is None else str(outcome.z_result),
            "zClamped": outcome.z_clamped,
            "typeMin": str(bounds.min),
            "typeMax": str(bounds.max),
        }, None

    return check


def dos_check(spec: VulnSpec) -> StepCheck:
    def check(step):
        if step.op != "CALL":
            return None, None
        site = step.call
        if site is None:
            return None, "CALL without operands, skipped"
        if site.status is None:
            return None, (
                "CALL status unavailable (filtered trace without call records), skipped"
            )
        if site.status != 0:
            return None, None
        return {"to": address_hex(site.to), "value": word_hex(site.value or 0), "status": 0}, None

    return check


def reentrancy_check(spec: VulnSpec) -> StepCheck:
    def check(step):
        if step.op != "SSTORE" or step.frame_id not in step.frames_below:
            return None, None
        slot, value = step.storage_write or (None, None)
        return {
            "slot": None if slot is None else word_hex(slot),
            "value": None if value is None else word_hex(value),
            "framesBelow": [address_hex(f) for f in step.frames_below],
        }, None

    return check


STEP_CHECKS = {
    "overflow": overflow_check,
    "dos": dos_check,
    "reentrancy": reentrancy_check,
}


def evaluate_trace(
    rec: ReconstructedTrace, spec: VulnSpec, ctx: TxContext
) -> tuple[list[Detection], list[str]]:
    """Run the spec's rule over the gated steps of one reconstructed trace.

    Returns every detection in step order, plus a note for each gated step
    the rule had to skip.
    """
    check = STEP_CHECKS[spec.rule](spec)
    hits: list[Detection] = []
    notes: list[str] = []
    for step in rec.steps:
        if not spec.gates(step.pc, step.op, step.code_address):
            continue
        detail, note = check(step)
        if note is not None:
            notes.append(f"step {step.raw_index}: {note}")
        if detail is not None:
            hits.append(
                Detection(
                    rule=spec.rule,
                    tx_hash=ctx.tx_hash,
                    block_number=ctx.block_number,
                    raw_index=step.raw_index,
                    pc=step.pc,
                    depth=step.depth,
                    frame_id=step.frame_id,
                    code_address=step.code_address,
                    tx_status=ctx.status,
                    detail=detail,
                )
            )
    return hits, notes
