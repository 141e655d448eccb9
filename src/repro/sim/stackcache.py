"""Stack-cache locality model.

CRISP keeps the top of the stack in an on-chip *Stack Cache* (32 words on
the real die), which is what makes its memory-to-memory instruction
format fast: most operands are stack-resident. The paper leaves the
details to its companion papers, and our EU charges uniform operand
timing — but the *claim* behind the design (operand accesses
overwhelmingly land in a small window above SP) is measurable, and this
model measures it.

It observes the functional simulator and the reference kernel
(:mod:`repro.sim.reference`) via :func:`attach`; every architectural
operand access is classified as stack-cache hit (within ``words`` words
above the current SP), other-stack, global, or immediate-free. The fast
cycle kernel's shape executors access memory words inline on the byte
map, not through :meth:`~repro.sim.memory.Memory.read_word`, so attached
to a :class:`~repro.sim.cpu.CrispCpu` state the model would miss every
instruction-body operand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.parcels import to_s32
from repro.sim.semantics import MachineState


@dataclass
class StackCacheModel:
    """Counts operand accesses by locality class."""

    words: int = 32  #: stack-cache capacity (CRISP: 32 words)
    hits: int = 0  #: accesses within the cached window above SP
    stack_misses: int = 0  #: stack accesses beyond the window
    global_accesses: int = 0  #: absolute / pointer accesses
    accesses: int = 0

    def observe(self, address: int, sp: int) -> None:
        """Classify one memory-operand access."""
        self.accesses += 1
        offset = to_s32(address - sp)
        if 0 <= offset < 4 * self.words:
            self.hits += 1
        elif offset >= 0:
            self.stack_misses += 1
        else:
            self.global_accesses += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of memory operands served by the stack cache."""
        return self.hits / self.accesses if self.accesses else 0.0

    def summary(self) -> str:
        return (f"{self.accesses} operand accesses: "
                f"{100 * self.hit_rate:.1f}% stack-cache "
                f"({self.words} words), "
                f"{self.stack_misses} deep-stack, "
                f"{self.global_accesses} global")


def attach(state: MachineState, words: int = 32) -> StackCacheModel:
    """Instrument a machine state's operand accesses.

    Wraps the memory's word read/write so every data access is
    classified against the current SP. Instruction fetches go through
    parcel reads and are not counted.
    """
    model = StackCacheModel(words)
    memory = state.memory
    original_read = memory.read_word
    original_write = memory.write_word

    def read_word(address: int) -> int:
        model.observe(address, state.sp)
        return original_read(address)

    def write_word(address: int, value: int) -> None:
        model.observe(address, state.sp)
        original_write(address, value)

    memory.read_word = read_word  # type: ignore[method-assign]
    memory.write_word = write_word  # type: ignore[method-assign]
    return model
