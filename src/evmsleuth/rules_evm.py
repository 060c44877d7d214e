"""Instruction-level indicators of compromise over reconstructed traces.

A vuln descriptor names the weak spot as code addresses plus pcs.
VulnSpec.from_document is its one reader: it resolves every field an
investigation uses, once, and a field that is missing or not of its type
is a ConfigError naming it, so a bad descriptor is exit 2 when it is read,
at either level and in every mode. scenario is a string; contractAddress
and each vulnLocs[i].codeAddress are 0x and 40 hex digits; pcOffsets are
non-negative integers; the rule's slot param is a non-negative integer, at
least 1 where it indexes a mapping (balanceOfSlot, userBalancesSlot);
typeMin and typeMax are integers or decimal strings, min <= max;
toArgIndex is absent, null or a non-negative integer; filter.selectors is
a non-empty list of canonical signatures, filter.includeInternal a boolean
and filter.blockRange two integers with 0 < lo <= hi. An integer is a JSON
integer, never a boolean. A param the rule does not use is not read.

VulnSpec folds the locations into one gate, {code address: pcs}, and a
step is gated when the gate lists its pc for the code it executes (the
code, not the storage identity, so DELEGATECALL borrowers of the
vulnerable code are seen). VulnSpec.gates is that test as a step
predicate: the evm level hands it to trace ingest, which then builds only
the gated steps. evaluate_trace walks the steps once and hands only gated
steps to the rule class's per-step check:

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

import re
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError, UsageError
from .explorer import read_json
from .filters import FilterQuery
from .traces import ReconstructedStep, ReconstructedTrace
from .words import ARITH_ARITY, IntTypeBounds, address_hex, hash_hex, word_hex, wrap_arith


RULE_CLASSES = ("overflow", "dos", "reentrancy")

# Each rule's slot param and its least value: 1 for a mapping (mapping_slot).
_SLOT_PARAMS = {
    "overflow": ("balanceOfSlot", 1),
    "dos": ("highestBidSlot", 0),
    "reentrancy": ("userBalancesSlot", 1),
}

_ADDRESS = re.compile(r"0x[0-9a-fA-F]{40}").fullmatch
_DECIMAL = re.compile(r"-?[0-9]{1,4300}").fullmatch  # int() reads at most 4300 digits


def _check(value, name: str, ok: Callable[[object], object], want: str):
    if not ok(value):
        raise ConfigError(f"vuln descriptor: {name} must be {want}, got {reprlib.repr(value)}")
    return value


def _field(obj: dict, name: str, ok: Callable[[object], object], want: str):
    """The member of obj that the last part of the dotted name names, checked."""
    key = name.rpartition(".")[2]
    if key not in obj:
        raise ConfigError(f"vuln descriptor: {name} is missing")
    return _check(obj[key], name, ok, want)


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _address(obj: dict, name: str) -> int:
    ok = lambda v: isinstance(v, str) and _ADDRESS(v)
    return int(_field(obj, name, ok, "0x and 40 hex digits"), 16)


def _integer(obj: dict, name: str, least: int = 0) -> int:
    # type(), not isinstance(): a bool is an int to Python, not to JSON
    ok = lambda v: type(v) is int and v >= least
    return _field(obj, name, ok, f"an integer of at least {least}")


def _type_bound(params: dict, name: str) -> int:
    ok = lambda v: type(v) is int or isinstance(v, str) and _DECIMAL(v)
    return int(_field(params, name, ok, "an integer or a decimal string"))


@dataclass(frozen=True)
class VulnSpec:
    """A resolved vuln descriptor: where to look and what the rule needs."""

    scenario: str
    contract: int
    rule: str
    gate: dict[int, frozenset[int]]  # code address -> vulnerable pcs
    query: FilterQuery  # the descriptor's own filter
    slot: int  # the rule's slot param
    bounds: IntTypeBounds | None = None  # overflow only: typeMin..typeMax
    to_arg_index: int | None = None  # overflow only: the receiver's argument

    @classmethod
    def from_document(cls, doc) -> "VulnSpec":
        """Resolve every field (module docstring); ConfigError naming the
        first field that is missing or not of its type."""
        doc = _check(doc, "the document", _is_object, "an object")
        scenario = _field(doc, "scenario", lambda v: isinstance(v, str), "a string")
        contract = _address(doc, "contractAddress")
        rule = _field(doc, "rule", RULE_CLASSES.__contains__, "one of " + ", ".join(RULE_CLASSES))
        locs = _field(doc, "vulnLocs", lambda v: isinstance(v, list) and v, "a non-empty list")
        gate: dict[int, frozenset[int]] = {}
        is_pcs = lambda v: isinstance(v, list) and all(type(pc) is int and pc >= 0 for pc in v)
        for i, loc in enumerate(locs):
            where = f"vulnLocs[{i}]"
            code = _address(_check(loc, where, _is_object, "an object"), where + ".codeAddress")
            pcs = _field(loc, where + ".pcOffsets", is_pcs, "a list of non-negative integers")
            gate[code] = gate.get(code, frozenset()) | frozenset(pcs)

        params = _field(doc, "params", _is_object, "an object")
        slot_name, least = _SLOT_PARAMS[rule]
        slot = _integer(params, "params." + slot_name, least)
        bounds = to_arg_index = None
        if rule == "overflow":
            low = _type_bound(params, "params.typeMin")
            high = _check(_type_bound(params, "params.typeMax"), "params.typeMax",
                          lambda v: v >= low, f"at least typeMin ({low})")
            bounds = IntTypeBounds(low, high)
            if params.get("toArgIndex") is not None:
                to_arg_index = _integer(params, "params.toArgIndex")

        filt = _field(doc, "filter", _is_object, "an object")
        is_sigs = lambda v: isinstance(v, list) and v and all(isinstance(sig, str) for sig in v)
        selectors = _field(filt, "filter.selectors", is_sigs, "a non-empty list of signatures")
        is_bool = lambda v: isinstance(v, bool)
        internal = _field(filt, "filter.includeInternal", is_bool, "a boolean")
        is_range = lambda v: (isinstance(v, list) and len(v) == 2
                              and all(type(n) is int for n in v) and 0 < v[0] <= v[1])
        span = _field(filt, "filter.blockRange", is_range, "two integers with 0 < lo <= hi")
        try:
            query = FilterQuery(contract, tuple(selectors), internal, tuple(span))
        except UsageError as err:  # a signature that is not canonical
            raise ConfigError(f"vuln descriptor: filter.selectors: {err}") from None
        return cls(scenario, contract, rule, gate, query, slot, bounds, to_arg_index)

    def gates(self, pc: int, op: str, code: int) -> bool:
        """The step predicate of the gate: does the gate list this pc for
        the code the step executes?"""
        return pc in self.gate.get(code, ())


def read_vuln_doc(directory: str | Path) -> dict:
    """Load the single vuln descriptor from a fixture directory."""
    vulns = sorted(Path(directory).glob("vulns/*.json"))
    if not vulns:
        raise UsageError(f"no vulns/*.json under {directory}")
    path = vulns[0]
    return read_json(path, f"vulnerability description at {path}", UsageError, ConfigError)


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
    bounds = spec.bounds

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
        site = step.call  # every selected call step has one (traces.decode_steps)
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
    rec: ReconstructedTrace, spec: VulnSpec, tx_hash: bytes, block_number: int
) -> tuple[list[Detection], list[str]]:
    """Run the spec's rule over the gated steps of one reconstructed trace,
    that of transaction tx_hash in block block_number.

    Returns every detection in step order, plus a note for each gated step
    the rule had to skip.
    """
    check = STEP_CHECKS[spec.rule](spec)
    status = "failed" if rec.failed else "success"
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
                    tx_hash=tx_hash,
                    block_number=block_number,
                    raw_index=step.raw_index,
                    pc=step.pc,
                    depth=step.depth,
                    frame_id=step.frame_id,
                    code_address=step.code_address,
                    tx_status=status,
                    detail=detail,
                )
            )
    return hits, notes
