"""The canonical decoded-instruction form.

On the real chip every Decoded Instruction Cache entry is a fixed 192-bit
word — control fields, both operands, a 31-bit Next-PC and a 31-bit
Alternate Next-PC — "similar to a horizontal microinstruction".
:class:`DecodedEntry` is the behavioural analogue: the (possibly folded)
instruction pair plus the two next-address fields and the control bits the
execution unit consumes (the sets-CC bit is carried with each pipeline
stage on the real machine; see the paper's "Practical Considerations").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction
from repro.isa.opcodes import BranchKind


@dataclass(frozen=True)
class DecodedEntry:
    """One Decoded Instruction Cache entry.

    Exactly one of these shapes holds:

    * plain instruction — ``body`` set, ``branch`` None;
    * standalone branch — ``body`` None, ``branch`` set;
    * folded pair — both set (the paper's Branch Folding case).

    ``next_pc`` is the address the EU fetches next when this entry follows
    its selected path; ``alt_pc`` is the other path of a conditional branch
    (carried down the pipeline for misprediction recovery) and None
    otherwise. ``next_pc`` is None only for *dynamic* targets (returns and
    indirect jumps), which cannot be precomputed at decode time.
    """

    address: int  #: byte address of the first parcel (the cache tag)
    body: Instruction | None
    branch: Instruction | None
    next_pc: int | None
    alt_pc: int | None
    length_bytes: int  #: total parcels consumed, in bytes

    # The control bits and derived addresses below are fixed once the
    # entry exists — on the real chip they are literal wires of the
    # 192-bit cache word. ``__post_init__`` computes them once into plain
    # instance attributes (not dataclass fields: __init__/__eq__ keep
    # their shape) so the execution unit reads them at attribute-load
    # cost every cycle. Only ``branch_pc`` / ``predicted_taken`` /
    # ``branch_sense`` stay properties, to keep their historical raising
    # behaviour on entries without a (conditional) branch.

    def __post_init__(self) -> None:
        body, branch = self.body, self.branch
        if body is None and branch is None:
            raise ValueError("decoded entry needs a body or a branch")
        if body is not None and body.is_branch:
            raise ValueError("entry body must be a non-branching instruction")

        from repro.isa.opcodes import Opcode
        cache = object.__setattr__
        sets_cc = body is not None and body.sets_flag
        uses_cc = branch is not None and branch.is_conditional_branch
        cache(self, "sets_cc", sets_cc)
        cache(self, "uses_cc", uses_cc)
        cache(self, "is_folded", body is not None and branch is not None)
        cache(self, "folds_compare_and_branch", sets_cc and uses_cc)
        cache(self, "dynamic_target",
              branch is not None and self.next_pc is None)
        cache(self, "halts",
              body is not None and body.opcode is Opcode.HALT)
        # dynamic-fold eligibility: a folded conditional with a static
        # target (both next-address fields populated) can be steered down
        # the predicted-taken path under FoldPolicy.dynamic_fold
        cache(self, "dyn_foldable",
              uses_cc and body is not None and self.next_pc is not None)
        cache(self, "sequential", self.address + self.length_bytes)
        if branch is None:
            cache(self, "_branch_pc", None)
            cache(self, "_branch_sense", None)
        else:
            cache(self, "_branch_pc",
                  self.address if body is None
                  else self.address + body.length_bytes())
            cache(self, "_branch_sense", branch._branch_sense)
        cache(self, "_predicted_taken",
              branch._predicted_taken if uses_cc else None)
        # a conditional branch transfers when the flag equals this bit
        # (the execution unit's form of taken_when)
        cache(self, "_taken_on",
              self._branch_sense is BranchKind.IF_TRUE if uses_cc else None)
        # opcode-name strings and one-parcel bits for the execution unit's
        # batched ExecutionStats counters (Enum.value is a descriptor call)
        cache(self, "_body_name",
              None if body is None else body.opcode.value)
        cache(self, "_body_one_parcel",
              body is not None and body._length_parcels == 1)
        cache(self, "_branch_name",
              None if branch is None else branch.opcode.value)
        cache(self, "_branch_one_parcel",
              branch is not None and branch._length_parcels == 1)
        # the body's shape executor, bound by the fast EU the first time
        # it executes this entry (repro.sim.semantics.bind_executor)
        cache(self, "_executor", None)

    # The executor is a generated function: it is left out of the pickled
    # state (entries reach the predecode disk tier and worker processes)
    # and unbound again on load.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_executor", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__["_executor"] = None

    @property
    def branch_pc(self) -> int:
        """Byte address of the branch instruction itself — the *static
        branch site* telemetry keys on. For a folded pair this is the
        branch's own address (past the body), so attribution stays stable
        whether or not folding is enabled."""
        pc = self._branch_pc
        if pc is None:
            raise ValueError("entry has no branch")
        return pc

    @property
    def predicted_taken(self) -> bool:
        """Static prediction bit of the conditional branch."""
        predicted = self._predicted_taken
        if predicted is None:
            raise ValueError("entry has no conditional branch")
        return predicted

    @property
    def branch_sense(self) -> BranchKind:
        """Sense of the branch (ALWAYS / IF_TRUE / IF_FALSE)."""
        sense = self._branch_sense
        if sense is None:
            raise ValueError("entry has no branch")
        return sense

    def taken_when(self, flag: bool) -> bool:
        """Would the branch transfer, given ``flag``?"""
        sense = self._branch_sense
        if sense is BranchKind.IF_TRUE:
            return flag
        if sense is BranchKind.IF_FALSE:
            return not flag
        if sense is None:
            raise ValueError("entry has no branch")
        return True

    def __str__(self) -> str:
        parts = []
        if self.body is not None:
            parts.append(str(self.body))
        if self.branch is not None:
            parts.append(str(self.branch))
        joined = " + ".join(parts) if self.is_folded else parts[0]
        next_part = "dyn" if self.next_pc is None else f"{self.next_pc:#x}"
        alt = f" alt={self.alt_pc:#x}" if self.alt_pc is not None else ""
        return f"[{self.address:#x}: {joined} -> {next_part}{alt}]"
