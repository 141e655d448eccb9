"""Assembled program image.

A :class:`Program` is the interchange format between the assembler, the
compiler back end, and both simulators: a list of instructions with fixed
byte addresses, a symbol table, an initialized data image and an entry
point. :meth:`Program.parcel_image` renders the instruction stream to raw
16-bit parcels, which is what the cycle simulator's prefetch unit consumes.

A program is not changed once assembled: simulators copy its image into
their own memory, and caches share one program between callers. Its
parcel image is therefore rendered once per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction
from repro.isa.parcels import PARCEL_BYTES

DEFAULT_CODE_BASE = 0x1000
DEFAULT_DATA_BASE = 0x8000
DEFAULT_STACK_TOP = 0x100000


@dataclass(frozen=True)
class DataItem:
    """One initialized or reserved word in the data segment."""

    address: int
    value: int
    name: str | None = None


@dataclass
class Program:
    """A fully laid-out program.

    ``instructions`` is address-ordered; each instruction's address is in
    ``addresses`` at the same index. ``symbols`` maps labels (code and
    data) to byte addresses. ``entry`` is the address execution starts at.
    """

    instructions: list[Instruction] = field(default_factory=list)
    addresses: list[int] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    data: list[DataItem] = field(default_factory=list)
    entry: int = DEFAULT_CODE_BASE
    code_base: int = DEFAULT_CODE_BASE
    stack_top: int = DEFAULT_STACK_TOP

    def __post_init__(self) -> None:
        if len(self.instructions) != len(self.addresses):
            raise ValueError("instructions and addresses must align")

    @property
    def code_end(self) -> int:
        """First byte address past the last instruction."""
        if not self.instructions:
            return self.code_base
        return self.addresses[-1] + self.instructions[-1].length_bytes()

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction whose first parcel is at ``address``."""
        index = self.index_of(address)
        if index is None:
            raise KeyError(f"no instruction at {address:#x}")
        return self.instructions[index]

    def index_of(self, address: int) -> int | None:
        """Return the instruction index at ``address`` (None if between)."""
        return self._address_index().get(address)

    def _address_index(self) -> dict[int, int]:
        cached = getattr(self, "_addr_index_cache", None)
        if cached is None or len(cached) != len(self.addresses):
            cached = {addr: i for i, addr in enumerate(self.addresses)}
            object.__setattr__(self, "_addr_index_cache", cached)
        return cached

    def parcel_image(self) -> Mapping[int, int]:
        """Code as a read-only map of byte address -> 16-bit parcel,
        rendered on the first call."""
        image = self.__dict__.get("_parcel_image")
        if image is None:
            rendered: dict[int, int] = {}
            for address, instruction in zip(self.addresses,
                                            self.instructions):
                for i, parcel in enumerate(encode_instruction(instruction)):
                    rendered[address + i * PARCEL_BYTES] = parcel
            image = self._parcel_image = MappingProxyType(rendered)
        return image

    def __getstate__(self) -> dict[str, Any]:
        # a mappingproxy cannot be pickled; the image is rendered again
        state = dict(self.__dict__)
        state.pop("_parcel_image", None)
        return state

    def data_image(self) -> dict[int, int]:
        """Render the data segment to a map of byte address -> 32-bit word."""
        return {item.address: item.value for item in self.data}

    def symbol(self, name: str) -> int:
        """Look up a label's byte address."""
        return self.symbols[name]

    def listing(self) -> str:
        """Human-readable listing with addresses and label annotations."""
        by_address: dict[int, list[str]] = {}
        for name, address in self.symbols.items():
            by_address.setdefault(address, []).append(name)
        lines = []
        for address, instruction in zip(self.addresses, self.instructions):
            for name in sorted(by_address.get(address, ())):
                lines.append(f"{name}:")
            lines.append(f"  {address:#06x}  {instruction}")
        return "\n".join(lines)
