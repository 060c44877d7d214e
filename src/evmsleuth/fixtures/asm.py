"""Tiny structured assembler for the interpreter's opcode subset.

Programs are built by method calls rather than parsed from text; labels
resolve to PUSH2 immediates in a single fixup pass. mark() records the pc of
the next emitted instruction under a name, which is how scenario builders
obtain exact vulnerable-location offsets without counting bytes by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UsageError
from .interpreter import MNEMONICS

_LABEL_WIDTH = 2  # labels assemble to PUSH2 <offset>


@dataclass
class _Item:
    kind: str  # "op" | "push" | "label" | "ref"
    name: str = ""
    value: int = 0
    width: int = 0
    size: int = 0


@dataclass
class Program:
    code: bytes
    marks: dict[str, int]
    labels: dict[str, int]
    listing: str


class Assembler:
    def __init__(self):
        self._items: list[_Item] = []
        self._annotations: dict[int, str] = {}  # item index -> mark name

    def op(self, name: str) -> "Assembler":
        if name not in MNEMONICS:
            raise UsageError(f"unknown mnemonic {name!r}")
        self._items.append(_Item("op", name=name, size=1))
        return self

    def push(self, value: int, width: int | None = None) -> "Assembler":
        if value < 0:
            raise UsageError("immediates are unsigned")
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        if not 1 <= width <= 32 or value >= 1 << (8 * width):
            raise UsageError(f"value {value:#x} does not fit PUSH{width}")
        self._items.append(_Item("push", value=value, width=width, size=1 + width))
        return self

    def label(self, name: str) -> "Assembler":
        """Define a jump target (emits JUMPDEST)."""
        self._items.append(_Item("label", name=name, size=1))
        return self

    def ref(self, name: str) -> "Assembler":
        """Push the offset of a label (resolved at assembly)."""
        self._items.append(_Item("ref", name=name, size=1 + _LABEL_WIDTH))
        return self

    def jump(self, name: str) -> "Assembler":
        return self.ref(name).op("JUMP")

    def jumpi(self, name: str) -> "Assembler":
        return self.ref(name).op("JUMPI")

    def mark(self, name: str) -> "Assembler":
        """Name the pc of the next emitted instruction."""
        self._annotations[len(self._items)] = name
        return self

    # -- composite helpers used by every fixture contract --

    def dispatch(self, table: list[tuple[bytes, str]]) -> "Assembler":
        """Selector dispatch over CALLDATALOAD(0).

        Calldata places the 4-byte selector at offset 0 with bytes 4..31
        zero, so the loaded word equals selector << 224 exactly. Falls
        through after the table (callers append the default behavior).
        Each branch target receives the selector word on top of the stack.
        """
        self.push(0).op("CALLDATALOAD")
        for selector, target in table:
            word = int.from_bytes(selector, "big") << 224
            self.op("DUP1").push(word, 32).op("EQ").jumpi(target)
        self.op("POP")
        return self

    def arg(self, index: int) -> "Assembler":
        """Load argument word `index` (offset 32 + 32*index)."""
        return self.push(32 + 32 * index).op("CALLDATALOAD")

    def mapping_slot(self, index: int) -> "Assembler":
        """Key on stack -> slot on stack (slot = (index << 160) + key)."""
        return self.push(index << 160, 32).op("ADD")

    def revert(self) -> "Assembler":
        return self.push(0).push(0).op("REVERT")

    def store_calldata_word(self, offset: int, value: int) -> "Assembler":
        """MSTORE a constant word into scratch memory (calldata building)."""
        return self.push(value, 32).push(offset).op("MSTORE")

    # -- assembly --

    def assemble(self) -> Program:
        if any(index >= len(self._items) for index in self._annotations):
            raise UsageError("mark() with no following instruction")
        offsets: list[int] = []
        labels: dict[str, int] = {}
        pc = 0
        for item in self._items:
            offsets.append(pc)
            if item.kind == "label":
                if item.name in labels:
                    raise UsageError(f"duplicate label {item.name!r}")
                labels[item.name] = pc
            pc += item.size
        if pc >= 1 << (8 * _LABEL_WIDTH):
            raise UsageError("program too large for 2-byte label references")

        marks: dict[str, int] = {}
        for index, note in self._annotations.items():
            marks[note] = offsets[index]

        blob = bytearray()
        lines: list[str] = []
        for i, item in enumerate(self._items):
            at = offsets[i]
            note = f"  ; {self._annotations[i]}" if i in self._annotations else ""
            if item.kind == "op":
                blob.append(MNEMONICS[item.name])
                lines.append(f"{at:#06x}  {item.name}{note}")
            elif item.kind == "push":
                blob.append(MNEMONICS[f"PUSH{item.width}"])
                blob.extend(item.value.to_bytes(item.width, "big"))
                lines.append(f"{at:#06x}  PUSH{item.width} {item.value:#x}{note}")
            elif item.kind == "label":
                blob.append(MNEMONICS["JUMPDEST"])
                lines.append(f"{at:#06x}  JUMPDEST  ; :{item.name}{note}")
            elif item.kind == "ref":
                target = labels.get(item.name)
                if target is None:
                    raise UsageError(f"undefined label {item.name!r}")
                blob.append(MNEMONICS[f"PUSH{_LABEL_WIDTH}"])
                blob.extend(target.to_bytes(_LABEL_WIDTH, "big"))
                lines.append(f"{at:#06x}  PUSH2 {target:#06x}  ; -> {item.name}{note}")
            else:  # pragma: no cover
                raise UsageError(item.kind)
        return Program(bytes(blob), marks, labels, "\n".join(lines) + "\n")

