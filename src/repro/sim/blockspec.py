"""Block-specializing trace compiler: the ``blockspec`` engine tier.

The decoded-instruction stream of a hot program is dominated by a few
short loops whose pipeline behaviour repeats exactly: the same entries
stream through IR -> OR -> RR, the same compares resolve the same folded
branches, and the only thing that changes is the data. The per-cycle
fast kernel still pays full Python dispatch for every one of those
cycles. This module removes that cost the same way the paper's PDU
removes branch cost — by doing the work once, ahead of time, and caching
the result keyed on the decoded content.

:class:`BlockSpecEngine` watches the fetch stream for hot addresses,
then *abstractly interprets* the three-stage pipeline over the canonical
pre-decoded entries starting from the live latch signature: every
control decision that depends on the runtime CC flag becomes an
``if f:`` fork in the generated code, and a path that returns to the
head state becomes a loop closure (a superblock across the loop's
folded branches). The result is one specialized Python function per
(head address, latch signature): opcode dispatch unrolled, operand
constants baked in, and the per-cycle stats bookkeeping collapsed into
per-leaf count deltas applied once when the trace exits.

Deoptimization points — the trace is never entered, or exits, so the
per-cycle kernel handles these bit-identically (``docs/pipeline.md``
lists the invariants; ``repro.verify`` enforces them differentially):

* icache misses, non-resident or stale cache lines (a generation
  counter on :class:`~repro.sim.icache.DecodedICache` revalidates);
* CC interlocks live in the latches (unresolved slots) and dynamic-fold
  shadow records (a dynamic-fold config never traces at all);
* pending interrupts, PDU activity, watchdog-budget proximity;
* attached observability sinks (per-event ``site=`` attribution needs
  the per-cycle path; sink-less counter probes are batched instead);
* any instruction the emitter does not admit: ``halt``, returns and
  indirect branches (dynamic targets), and the division family (whose
  ``ZeroDivisionError`` must surface at an exact cycle boundary).

Caching: compiled code objects are process-local (code objects do not
pickle); the generated *source* plus its leaf metadata is cached in
:mod:`repro.sim.progcache` — the in-memory tier and, when enabled, the
sha256-verified/quarantined disk tier — keyed on parcel image, fold
policy, head address, latch signature and emitter version, so two
processes always emit byte-identical source for the same content.
"""

from __future__ import annotations

import sys

from repro.isa.opcodes import Condition, OpClass, Opcode, opcode_condition
from repro.isa.operands import AddrMode
from repro.isa.parcels import PARCEL_BYTES, to_u32
from repro.sim.eu import StageSlot
from repro.sim.progcache import (
    cache_key,
    default_cache,
    policy_key,
    predecode_cached,
)

#: emitter version: part of the disk-cache key, bump on any change to the
#: generated-code shape or the leaf/closure metadata layout
VERSION = "1"

#: fetches of the same address before a trace head is considered hot
HOT_THRESHOLD = 8

#: longest path (in cycles) the compiler follows before forcing an exit
MAX_PATH_CYCLES = 48

#: most exit leaves + loop closures per trace before rejecting it
MAX_LEAVES = 24

#: most (head, signature) compile attempts per head address
MAX_VARIANTS = 4

_MASK = 0xFFFFFFFF

#: division can raise ZeroDivisionError mid-trace, which must surface at
#: an exact cycle boundary with consistent stats — excluded from traces
_DIV_OPCODES = frozenset({
    Opcode.DIV, Opcode.REM, Opcode.UDIV, Opcode.UREM,
    Opcode.DIV3, Opcode.REM3, Opcode.UDIV3, Opcode.UREM3,
})


def _admissible(entry) -> bool:
    """May this decoded entry execute inside a trace?"""
    if entry.halts or entry.dynamic_target:
        return False
    body = entry.body
    if body is not None and body.opcode in _DIV_OPCODES:
        return False
    return True


# ---- expression emitter ----------------------------------------------------
#
# Generated code runs over six locals: ``a`` (accumulator), ``sp``,
# ``f`` (the CC flag), ``rw``/``ww`` (bound Memory.read_word/write_word)
# and the cycle budget ``limit``. All values are kept in the same
# canonical forms the interpreter uses: a/sp and every operand read are
# u32, f is a bool. to_s32 is inlined as ``((x ^ 2**31) - 2**31)``.


def _s32(expr: str) -> str:
    return f"(({expr} ^ 2147483648) - 2147483648)"


def _read_expr(operand) -> str:
    mode = operand.mode
    if mode is AddrMode.IMM:
        return str(to_u32(operand.value))
    if mode is AddrMode.ACC:
        return "a"
    if mode is AddrMode.ACC_IND:
        return "rw(a)"
    if mode is AddrMode.ABS:
        return f"rw({operand.value})"
    if operand.value == 0:
        return "rw(sp)"
    return f"rw((sp + {operand.value}) & {_MASK})"


def _write_stmt(operand, expr: str) -> str:
    mode = operand.mode
    if mode is AddrMode.ACC:
        return f"a = ({expr}) & {_MASK}"  # write_operand masks; ww masks too
    if mode is AddrMode.ACC_IND:
        return f"ww(a, {expr})"
    if mode is AddrMode.ABS:
        return f"ww({operand.value}, {expr})"
    if operand.value == 0:
        return f"ww(sp, {expr})"
    return f"ww((sp + {operand.value}) & {_MASK}, {expr})"


_ALU_TEMPLATES = {
    "mov": lambda x, y: y,
    "add": lambda x, y: f"({x} + {y})",
    "sub": lambda x, y: f"({x} - {y})",
    "and": lambda x, y: f"({x} & {y})",
    "or": lambda x, y: f"({x} | {y})",
    "xor": lambda x, y: f"({x} ^ {y})",
    "shl": lambda x, y: f"({x} << ({y} & 31))",
    "shr": lambda x, y: f"({x} >> ({y} & 31))",  # x is already u32
    "sar": lambda x, y: f"({_s32(x)} >> ({y} & 31))",
    "mul": lambda x, y: f"({_s32(x)} * {_s32(y)})",
    "not": lambda x, y: f"(~{y})",
    "neg": lambda x, y: f"(-{y})",
}

_CMP_TEMPLATES = {
    Condition.EQ: lambda x, y: f"({x} == {y})",
    Condition.NE: lambda x, y: f"({x} != {y})",
    Condition.SLT: lambda x, y: f"({_s32(x)} < {_s32(y)})",
    Condition.SLE: lambda x, y: f"({_s32(x)} <= {_s32(y)})",
    Condition.SGT: lambda x, y: f"({_s32(x)} > {_s32(y)})",
    Condition.SGE: lambda x, y: f"({_s32(x)} >= {_s32(y)})",
    Condition.ULT: lambda x, y: f"({x} < {y})",
    Condition.ULE: lambda x, y: f"({x} <= {y})",
    Condition.UGT: lambda x, y: f"({x} > {y})",
    Condition.UGE: lambda x, y: f"({x} >= {y})",
}


def _alu_template(opcode: Opcode):
    name = opcode.value
    if name.endswith("3"):
        name = name[:-1]
    return _ALU_TEMPLATES[name]


# ---- abstract pipeline state ----------------------------------------------


class _Slot:
    """Compile-time mirror of a :class:`~repro.sim.eu.StageSlot`.

    ``ord`` is the fetch order inside the trace: the head latches are
    0 (IR), -1 (OR) and -2 (RR); the entry fetched during trace cycle
    ``c`` (1-based) gets ord ``c``. At runtime a slot's seq is
    recovered as ``eu._seq - (leaf_cycles - ord)`` because every trace
    cycle fetches exactly one entry.
    """

    __slots__ = ("addr", "ord", "valid", "chosen_taken", "resolved",
                 "speculated", "governing", "other_pc")

    def __init__(self, addr, ordinal, valid=True, chosen_taken=None,
                 resolved=True, speculated=False, governing=None,
                 other_pc=None):
        self.addr = addr
        self.ord = ordinal
        self.valid = valid
        self.chosen_taken = chosen_taken
        self.resolved = resolved
        self.speculated = speculated
        self.governing = governing
        self.other_pc = other_pc

    def clone(self) -> "_Slot":
        return _Slot(self.addr, self.ord, self.valid, self.chosen_taken,
                     self.resolved, self.speculated, self.governing,
                     self.other_pc)


class _Path:
    """One control-flow path through the abstract interpretation."""

    __slots__ = ("cyc", "rr", "or_", "ir", "fetched", "nextpc", "flag",
                 "redirected", "retire", "d", "opc", "indent", "addrs")

    def clone(self) -> "_Path":
        q = _Path.__new__(_Path)
        q.cyc = self.cyc
        q.rr = self.rr.clone() if self.rr is not None else None
        q.or_ = self.or_.clone() if self.or_ is not None else None
        q.ir = self.ir.clone() if self.ir is not None else None
        q.fetched = self.fetched.clone() if self.fetched is not None else None
        q.nextpc = self.nextpc
        q.flag = self.flag
        q.redirected = self.redirected
        q.retire = self.retire
        q.d = dict(self.d)
        q.opc = dict(self.opc)
        q.indent = self.indent
        q.addrs = list(self.addrs)
        return q


class _Reject(Exception):
    """Trace rejected at compile time (too many leaves, etc.)."""


# ---- the trace compiler ----------------------------------------------------

#: latch positions and their head ordinals, oldest first (matches the
#: (rr, or_, ir) order the execution unit iterates everywhere)
_HEAD_ORDS = (-2, -1, 0)


class _TraceCompiler:
    """Abstractly interpret the EU from one head state; emit Python.

    The interpretation mirrors :meth:`repro.sim.eu.ExecutionUnit.tick`
    statement for statement over the *canonical* pre-decoded entries
    (deterministic across processes, unlike live icache content). Stats
    and batched ExecutionStats counters become per-path delta dicts;
    architectural effects become generated statements; a runtime flag
    test becomes an ``if f:`` fork duplicating the rest of the cycle.
    """

    def __init__(self, entries, head, sig, icache_size, allowed=None):
        self.entries = entries
        self.head = head
        self.sig = sig
        self.icache_size = icache_size
        #: when set, only these addresses may be fetched in-trace; a
        #: fetch outside the set becomes an exit leaf. Phase 1 explores
        #: unrestricted to find the loop; phase 2 restricts to the
        #: closure-path ("hot") addresses so runtime icache validation
        #: only covers lines that are actually resident in steady state.
        self.allowed = allowed
        self.hot: set[int] = set()  # addresses on some closure path
        self.lines: list[tuple[int, object]] = []
        self.leaves: list[dict] = []
        self.closures: list[dict] = []
        self.used: dict[int, int] = {}  # icache index -> trace address
        self.used_addrs: list[int] = []
        self.max_path = 0

    # -- bookkeeping helpers --

    def _w(self, path, text) -> None:
        self.lines.append((path.indent, text))

    def _bump(self, path, key, amount=1) -> None:
        d = path.d
        d[key] = d.get(key, 0) + amount

    def _opc(self, path, name) -> None:
        opc = path.opc
        opc[name] = opc.get(name, 0) + 1

    def _reserve(self, addr) -> bool:
        """Claim a direct-mapped icache index for ``addr``.

        Two trace addresses sharing an index would conflict-miss on the
        real machine, so the trace cannot span both.
        """
        index = (addr // PARCEL_BYTES) % self.icache_size
        previous = self.used.get(index)
        if previous is None:
            self.used[index] = addr
            self.used_addrs.append(addr)
            return True
        return previous == addr

    def _check_budget(self) -> None:
        if len(self.leaves) + len(self.closures) + 1 > MAX_LEAVES:
            raise _Reject

    def _fork(self, path, cont) -> None:
        """Emit ``if f:`` / ``else:``; run ``cont`` on each arm with the
        flag known. Every continuation terminates its arm with a
        ``continue`` (closure) or ``return`` (exit leaf)."""
        self._w(path, "if f:")
        true_arm = path.clone()
        true_arm.flag = True
        true_arm.indent += 1
        cont(true_arm)
        self._w(path, "else:")
        path.flag = False
        path.indent += 1
        cont(path)

    # -- leaves --

    def _latch_spec(self, slot):
        if slot is None or not slot.valid:
            return None  # an invalid slot is architecturally a bubble
        return (slot.addr, slot.ord, True, slot.chosen_taken, slot.resolved,
                slot.speculated, slot.governing, slot.other_pc)

    def _emit_exit(self, path) -> None:
        self._check_budget()
        idx = len(self.leaves)
        self.leaves.append({
            "idx": idx, "cyc": path.cyc, "d": path.d, "opc": path.opc,
            "nextpc": path.nextpc, "retire": path.retire,
            "latches": [self._latch_spec(slot)
                        for slot in (path.rr, path.or_, path.ir)],
        })
        if path.cyc:
            self._w(path, f"n += {path.cyc}")
        if path.retire is not None:
            self._w(path, f"r = {path.retire}")
        self._w(path, ("RET", idx))

    def _emit_closure(self, path) -> None:
        self._check_budget()
        self.hot.update(path.addrs)
        j = len(self.closures)
        self.closures.append({"cyc": path.cyc, "d": path.d, "opc": path.opc,
                              "retire": path.retire})
        self._w(path, f"n += {path.cyc}")
        if path.retire is not None:
            self._w(path, f"r = {path.retire}")
        self._w(path, f"c{j} += 1")
        self._w(path, "continue")

    def _matches_head(self, path) -> bool:
        for slot, want in zip((path.rr, path.or_, path.ir), self.sig):
            if slot is None or not slot.valid:
                if want is not None:
                    return False
                continue
            if not slot.resolved:
                return False  # an interlock is live: not the head state
            if want is None or (slot.addr, slot.chosen_taken) != want:
                return False
        return True

    # -- one abstract cycle (mirrors ExecutionUnit.tick) --

    def _cycle(self, path) -> None:
        if path.cyc > 0 and path.nextpc == self.head \
                and self._matches_head(path):
            self._emit_closure(path)
            return
        if path.cyc >= MAX_PATH_CYCLES:
            self._emit_exit(path)
            return
        addr = path.nextpc
        entry = self.entries.get(addr)
        if entry is None or not _admissible(entry) \
                or (self.allowed is not None and addr not in self.allowed) \
                or not self._reserve(addr):
            self._emit_exit(path)
            return
        path.addrs.append(addr)
        path.fetched = _Slot(addr, path.cyc + 1)
        path.redirected = False
        retiring = path.rr
        if retiring is None or not retiring.valid:
            self._bump(path, "stall")
            self._latch(path)
        else:
            self._exec_rr(path)

    def _exec_rr(self, path) -> None:
        slot = path.rr
        entry = self.entries[slot.addr]
        self._bump(path, "issued")
        path.retire = entry.sequential
        body = entry.body
        if body is not None:
            self._emit_body(path, body)
            self._bump(path, "exec")
            self._bump(path, "xi")
            self._opc(path, entry._body_name)
            # entry.halts is inadmissible, so the halt path never appears
        if entry.sets_cc:
            has_dependent = any(
                s is not None and s.valid and not s.resolved
                and s.governing == slot.ord
                for s in (path.rr, path.or_, path.ir, path.fetched))
            if has_dependent:
                # the compare just computed the flag: fork on it, resolve
                # every governed branch inside each arm
                self._fork(path, self._resolve_then_branch)
                return
        self._branch_part(path)

    def _resolve_then_branch(self, path) -> None:
        self._resolve_dependents(path)
        self._branch_part(path)

    def _resolve_dependents(self, path) -> None:
        cmp_slot = path.rr
        flag = path.flag
        for slot in (path.rr, path.or_, path.ir, path.fetched):
            if slot is None or not slot.valid or slot.resolved:
                continue
            if slot.governing != cmp_slot.ord:
                continue
            entry = self.entries[slot.addr]
            correct = entry.taken_when(flag)
            slot.resolved = True
            if slot.chosen_taken == correct:
                continue  # shadow records never occur in traces
            if slot is path.fetched:
                penalty = 1
            elif slot is path.rr:
                penalty = 3
            elif slot is path.or_:
                penalty = 2
            else:
                penalty = 1
            self._bump(path, "mis")
            self._bump(path, "pen", penalty)
            slot.chosen_taken = correct
            self._squash_younger(path, slot)
            assert slot.other_pc is not None
            path.nextpc = slot.other_pc
            path.redirected = True

    def _squash_younger(self, path, slot) -> None:
        seen = False
        for candidate in (path.rr, path.or_, path.ir, path.fetched):
            if candidate is slot:
                seen = True
                continue
            if seen and candidate is not None and candidate.valid:
                candidate.valid = False
                self._bump(path, "squash")

    def _branch_part(self, path) -> None:
        slot = path.rr
        entry = self.entries[slot.addr]
        if entry.branch is None:
            self._latch(path)
            return
        if entry.is_folded:
            self._bump(path, "folded")
        self._bump(path, "exec")
        cls = entry.branch.op_class
        # RETURN and dynamic targets are inadmissible; never reached here
        if cls is OpClass.CALL:
            self._w(path, f"sp = (sp - 4) & {_MASK}")
            self._w(path, f"ww(sp, {entry.sequential})")
            path.retire = entry.next_pc
            self._record_branch(path, entry, True)
            self._latch(path)
            return
        if not entry.uses_cc:
            path.retire = entry.next_pc
            self._record_branch(path, entry, True)
            self._latch(path)
            return
        if not slot.resolved:
            # unfolded conditional resolving at its own RR: full 3 cycles
            if path.flag is None:
                self._fork(path, self._resolve_at_rr)
                return
            self._resolve_at_rr(path)
            return
        self._finish_conditional(path)

    def _resolve_at_rr(self, path) -> None:
        slot = path.rr
        entry = self.entries[slot.addr]
        correct = entry.taken_when(path.flag)
        slot.resolved = True
        if slot.chosen_taken != correct:
            self._bump(path, "mis")
            self._bump(path, "pen", 3)
            slot.chosen_taken = correct
            self._squash_younger(path, slot)
            assert slot.other_pc is not None
            path.nextpc = slot.other_pc
            path.redirected = True
        self._finish_conditional(path)

    def _finish_conditional(self, path) -> None:
        slot = path.rr
        entry = self.entries[slot.addr]
        taken_pc = entry.next_pc if entry._predicted_taken else entry.alt_pc
        path.retire = taken_pc if slot.chosen_taken else entry.sequential
        self._record_branch(path, entry, bool(slot.chosen_taken))
        self._latch(path)

    def _record_branch(self, path, entry, taken) -> None:
        self._opc(path, entry._branch_name)
        self._bump(path, "xi")
        self._bump(path, "xb")
        if entry._branch_one_parcel:
            self._bump(path, "x1")
        if entry.uses_cc:
            self._bump(path, "xc")
            # predictor training only exists under dynamic_fold configs,
            # which never trace
        if taken:
            self._bump(path, "xt")

    def _latch(self, path) -> None:
        path.rr, path.or_, path.ir, path.fetched = (
            path.or_, path.ir, path.fetched, None)
        latched = path.ir
        if latched is not None and latched.valid:
            self._select_path(path)
        else:
            self._end_cycle(path)

    def _select_path(self, path) -> None:
        slot = path.ir
        entry = self.entries[slot.addr]
        if path.redirected:
            self._end_cycle(path)
            return
        # dynamic targets are inadmissible; never latched
        if not entry.uses_cc:
            path.nextpc = entry.next_pc
            self._end_cycle(path)
            return
        outstanding = entry.folds_compare_and_branch
        if not outstanding:
            older = path.or_
            if older is not None and older.valid \
                    and self.entries[older.addr].sets_cc:
                outstanding = True
            else:
                older = path.rr
                outstanding = (older is not None and older.valid
                               and self.entries[older.addr].sets_cc)
        if not outstanding:
            # flag is architectural: the branch resolves at fetch time
            if path.flag is None:
                self._fork(path, self._select_resolved)
                return
            self._select_resolved(path)
            return
        self._bump(path, "lock")
        slot.chosen_taken = entry._predicted_taken
        slot.resolved = False
        slot.speculated = True
        # dynamic-fold steering never happens in traces (dyn is None)
        if entry.is_folded:
            if entry.folds_compare_and_branch:
                governing = slot
            else:
                governing = path.or_
                if not (governing is not None and governing.valid
                        and self.entries[governing.addr].sets_cc):
                    governing = path.rr
            slot.governing = governing.ord
        slot.other_pc = entry.alt_pc
        path.nextpc = entry.next_pc
        self._end_cycle(path)

    def _select_resolved(self, path) -> None:
        slot = path.ir
        entry = self.entries[slot.addr]
        predicted = entry._predicted_taken
        taken_pc = entry.next_pc if predicted else entry.alt_pc
        fall_pc = entry.alt_pc if predicted else entry.next_pc
        actual = entry.taken_when(path.flag)
        if actual != predicted:
            self._bump(path, "zco")
        slot.chosen_taken = actual
        slot.resolved = True
        slot.other_pc = fall_pc if actual else taken_pc
        path.nextpc = taken_pc if actual else fall_pc
        self._end_cycle(path)

    def _end_cycle(self, path) -> None:
        path.cyc += 1
        if path.cyc > self.max_path:
            self.max_path = path.cyc
        self._cycle(path)

    # -- body emission --

    def _emit_body(self, path, instruction) -> None:
        cls = instruction.op_class
        operands = instruction.operands
        if cls is OpClass.ALU2:
            dst, src = operands
            template = _alu_template(instruction.opcode)
            self._w(path, _write_stmt(
                dst, template(_read_expr(dst), _read_expr(src))))
        elif cls is OpClass.ALU3:
            template = _alu_template(instruction.opcode)
            expr = template(_read_expr(operands[0]), _read_expr(operands[1]))
            self._w(path, f"a = ({expr}) & {_MASK}")
        elif cls is OpClass.CMP:
            template = _CMP_TEMPLATES[opcode_condition(instruction.opcode)]
            self._w(path, "f = " + template(
                _read_expr(operands[0]), _read_expr(operands[1])))
            path.flag = None  # data-dependent: unknown until forked on
        elif instruction.opcode is Opcode.ENTER:
            self._w(path, f"sp = (sp - {operands[0].value}) & {_MASK}")
        elif instruction.opcode is Opcode.SPADD:
            self._w(path, f"sp = (sp + {operands[0].value}) & {_MASK}")
        # NOP emits nothing; HALT/branches are inadmissible as bodies

    # -- entry point --

    def compile(self):
        """Return ``(source, meta)`` for a worthwhile trace, else None."""
        slots = []
        for item, ordinal in zip(self.sig, _HEAD_ORDS):
            if item is None:
                slots.append(None)
                continue
            addr, chosen_taken = item
            entry = self.entries.get(addr)
            if entry is None or not _admissible(entry):
                return None
            slots.append(_Slot(addr, ordinal, chosen_taken=chosen_taken))
        # leaf 0: the cycle-budget exit at the loop head — zero deltas,
        # the head state itself
        self.leaves.append({
            "idx": 0, "cyc": 0, "d": {}, "opc": {},
            "nextpc": self.head, "retire": None,
            "latches": [None if item is None
                        else (item[0], ordinal, True, item[1], True,
                              False, None, None)
                        for item, ordinal in zip(self.sig, _HEAD_ORDS)],
        })
        root = _Path.__new__(_Path)
        root.cyc = 0
        root.rr, root.or_, root.ir = slots
        root.fetched = None
        root.nextpc = self.head
        root.flag = None
        root.redirected = False
        root.retire = None
        root.d = {}
        root.opc = {}
        root.indent = 2
        root.addrs = []
        depth = sys.getrecursionlimit()
        sys.setrecursionlimit(max(depth, 10000))
        try:
            self._cycle(root)
        except _Reject:
            return None
        finally:
            sys.setrecursionlimit(depth)
        if not self.closures:
            return None  # no loop: per-cycle execution is just as good
        meta = {"max_path": self.max_path, "used": self.used_addrs,
                "leaves": self.leaves, "closures": self.closures}
        return self._render(), meta

    def _render(self) -> str:
        count = len(self.closures)
        names = ", ".join(f"c{j}" for j in range(count))
        counters = f"({names},)" if count == 1 else f"({names})"
        out = ["def __trace(a, sp, f, rw, ww, limit):",
               "    n = 0",
               "    r = -1"]
        out.extend(f"    c{j} = 0" for j in range(count))
        out.append("    while True:")
        out.append("        if n > limit:")
        out.append(f"            return 0, n, a, sp, f, r, {counters}")
        for indent, text in self.lines:
            pad = "    " * indent
            if isinstance(text, tuple):
                out.append(f"{pad}return {text[1]}, n, a, sp, f, r, "
                           f"{counters}")
            else:
                out.append(pad + text)
        return "\n".join(out) + "\n"


def _compile_trace(entries, head, sig, icache_size):
    """Two-phase trace compilation: explore, then restrict to the loop.

    Phase 1 explores every data-dependent fork, so its address set
    includes cold side paths (loop exits) that are never icache-resident
    in steady state — a trace validated against that set would never
    run. Phase 2 recompiles admitting only the addresses that lie on
    some loop-closure path; any fetch off the loop becomes an immediate
    exit leaf, and runtime validation covers exactly the hot lines.
    """
    explorer = _TraceCompiler(entries, head, sig, icache_size)
    unrestricted = explorer.compile()
    if unrestricted is None:
        return None
    if explorer.hot == set(explorer.used_addrs):
        return unrestricted
    restricted = _TraceCompiler(entries, head, sig, icache_size,
                                allowed=explorer.hot).compile()
    # phase 2 cannot lose the closures (their paths fetch only hot
    # addresses), but fall back defensively if it somehow rejects
    return restricted if restricted is not None else unrestricted


# ---- compiled-trace runtime ------------------------------------------------


class _Leaf:
    __slots__ = ("cyc", "d", "opc", "nextpc", "retire", "latches")


class _Closure:
    __slots__ = ("cyc", "d", "opc")


class _CompiledTrace:
    __slots__ = ("fn", "max_path", "used", "leaves", "closures", "gen_ok")


#: process-wide code-object cache (code objects cannot pickle, so the
#: disk tier stores source + metadata and each process compiles once)
_COMPILED: dict[str, _CompiledTrace | None] = {}


def clear_compiled_traces() -> None:
    """Drop the process-wide compiled-trace cache (tests)."""
    _COMPILED.clear()


def _materialize(payload) -> _CompiledTrace | None:
    if payload is None:
        return None
    try:
        source, meta = payload
        namespace: dict = {}
        exec(compile(source, "<blockspec>", "exec"), namespace)
        trace = _CompiledTrace()
        trace.fn = namespace["__trace"]
        trace.max_path = meta["max_path"]
        trace.used = tuple(meta["used"])
        leaves = []
        for spec in meta["leaves"]:
            leaf = _Leaf()
            leaf.cyc = spec["cyc"]
            leaf.d = spec["d"]
            leaf.opc = spec["opc"]
            leaf.nextpc = spec["nextpc"]
            leaf.retire = spec["retire"]
            leaf.latches = [None if item is None else tuple(item)
                            for item in spec["latches"]]
            leaves.append(leaf)
        trace.leaves = leaves
        closures = []
        for spec in meta["closures"]:
            closure = _Closure()
            closure.cyc = spec["cyc"]
            closure.d = spec["d"]
            closure.opc = spec["opc"]
            closures.append(closure)
        trace.closures = closures
        trace.gen_ok = -1
        return trace
    except Exception:
        # a digest-valid but semantically foreign payload (format drift
        # without a VERSION bump): fall back to per-cycle execution
        return None


_UNSET = object()


class BlockSpecEngine:
    """Per-CPU trace cache and steady-state entry/exit logic."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.eu = cpu.eu
        policy = cpu.config.fold_policy
        self.entries = {entry.address: entry
                        for entry in predecode_cached(cpu.program, policy)}
        self.heat: dict[int, int] = {}  # head address -> count (-1 = dead)
        self.traces: dict = {}  # (head, sig) -> _CompiledTrace | None
        self.head_variants: dict[int, int] = {}
        self.head_live: dict[int, bool] = {}
        self._cache = default_cache()
        image = cpu.program.parcel_image()
        self._image_part = ",".join(
            f"{addr:x}:{parcel:x}" for addr, parcel in sorted(image.items()))
        self._policy_part = policy_key(policy)
        self._icache = cpu.icache
        self._icache_size = cpu.icache.size

    # -- steady-state detection --

    def _signature(self):
        """Normalized latch state, or None when untraceable.

        Invalid slots are conflated with empty latches (architecturally
        both are bubbles); unresolved slots (live CC interlocks) and
        shadow records (dynamic folds) make the state untraceable. A
        slot's ``chosen_taken`` counts only where the EU's path selection
        wrote it (a conditional entry with a static target): a recycled
        latch keeps a stale value everywhere else.
        """
        sig = []
        for slot in (self.eu.rr, self.eu.or_, self.eu.ir):
            if slot is None or not slot.valid:
                sig.append(None)
                continue
            if not slot.resolved or slot.shadow is not None:
                return None
            entry = slot.entry
            sig.append((entry.address,
                        slot.chosen_taken
                        if entry.uses_cc and not entry.dynamic_target
                        else None))
        return tuple(sig)

    def try_trace(self, remaining: int) -> int:
        """Run one compiled trace if the machine is in a steady state.

        Returns the number of cycles consumed (0 = stay on the
        per-cycle path). ``remaining`` is the watchdog budget left; the
        trace is bounded so it can never overrun it.
        """
        eu = self.eu
        addr = eu.ir_next_pc
        if addr is None:
            return 0
        cpu = self.cpu
        if cpu._miss_address is not None \
                or cpu._pending_interrupt is not None:
            return 0
        pdu = cpu.pdu
        if pdu.fetch_countdown or pdu.inflight:
            return 0
        if pdu.decode_pc is not None \
                and pdu.entries_ahead < pdu.prefetch_depth:
            return 0
        if cpu._obs_sinks:
            return 0  # per-event site attribution needs per-cycle probes
        heat = self.heat
        count = heat.get(addr, 0)
        if count < HOT_THRESHOLD:
            if count >= 0:
                heat[addr] = count + 1
            return 0
        sig = self._signature()
        if sig is None:
            return 0
        key = (addr, sig)
        trace = self.traces.get(key, _UNSET)
        if trace is _UNSET:
            variants = self.head_variants.get(addr, 0)
            if variants >= MAX_VARIANTS:
                return 0
            self.head_variants[addr] = variants + 1
            trace = self._get_trace(addr, sig)
            self.traces[key] = trace
            if trace is not None:
                self.head_live[addr] = True
            elif (self.head_variants[addr] >= MAX_VARIANTS
                  and not self.head_live.get(addr)):
                heat[addr] = -1  # hopeless head: stop probing it
        if trace is None:
            return 0
        if remaining <= trace.max_path:
            return 0  # too close to the watchdog budget: deoptimize
        entries = self.entries
        for slot in (eu.rr, eu.or_, eu.ir):
            if slot is None or not slot.valid:
                continue
            live = slot.entry
            canon = entries.get(live.address)
            if canon is None or (live is not canon and live != canon):
                return 0  # latch holds a stale (self-modified) decode
        if not self._validate(trace):
            return 0
        return self._run(trace, remaining)

    def _validate(self, trace) -> bool:
        """Every trace address must be resident in the live icache with
        a decode value-equal to the canonical one (generation-cached)."""
        icache = self._icache
        generation = icache.generation
        if trace.gen_ok == generation:
            return True
        lines = icache._lines
        size = self._icache_size
        entries = self.entries
        for addr in trace.used:
            line = lines[(addr // PARCEL_BYTES) % size]
            if line is None or line.address != addr:
                return False
            canon = entries[addr]
            if line is not canon and line != canon:
                return False
        trace.gen_ok = generation
        return True

    # -- compile / cache --

    def _get_trace(self, addr, sig):
        key = cache_key("blockspec", VERSION, self._image_part,
                        self._policy_part, f"{addr:x}", repr(sig))
        cached = _COMPILED.get(key, _UNSET)
        if cached is not _UNSET:
            return cached
        cache = self._cache

        def build():
            result = _compile_trace(self.entries, addr, sig,
                                    self._icache_size)
            if result is not None:
                cache.blocks_compiled += 1
                cache.generated_bytes += len(result[0])
            return result

        trace = _materialize(cache.get_or_build(key, build))
        _COMPILED[key] = trace
        return trace

    # -- trace execution --

    def _run(self, trace, remaining: int) -> int:
        cpu = self.cpu
        eu = self.eu
        state = cpu.state
        memory = state.memory
        # the generated loop re-checks at each head visit and an
        # iteration adds at most max_path cycles, so n never exceeds
        # limit + max_path = remaining: the watchdog stays exact
        limit = remaining - trace.max_path
        idx, n, a, sp, f, r, counters = trace.fn(
            state.accum, state.sp, state.flag,
            memory.read_word, memory.write_word, limit)
        leaf = trace.leaves[idx]
        d = dict(leaf.d)
        opc = dict(leaf.opc)
        closures = trace.closures
        for j, count in enumerate(counters):
            if not count:
                continue
            closure = closures[j]
            for key, value in closure.d.items():
                d[key] = d.get(key, 0) + value * count
            for key, value in closure.opc.items():
                opc[key] = opc.get(key, 0) + value * count
        state.accum = a
        state.sp = sp
        state.flag = f
        stats = cpu.stats
        stats.cycles += n
        stats.icache_hits += n
        cpu.icache.hits += n
        get = d.get
        stats.issued_instructions += get("issued", 0)
        stats.executed_instructions += get("exec", 0)
        stats.folded_branches += get("folded", 0)
        stats.mispredictions += get("mis", 0)
        stats.misprediction_penalty_cycles += get("pen", 0)
        stats.zero_cost_overrides += get("zco", 0)
        stats.stall_cycles += get("stall", 0)
        stats.squashed_slots += get("squash", 0)
        eu._x_instructions += get("xi", 0)
        eu._x_branches += get("xb", 0)
        eu._x_conditional += get("xc", 0)
        eu._x_taken += get("xt", 0)
        eu._x_one_parcel += get("x1", 0)
        counts = eu._x_opcode_counts
        for name, value in opc.items():
            counts[name] = counts.get(name, 0) + value
        if eu._obs_on:
            # no sink listens (try_trace checked): the EU's counter probes
            # follow the stats above when the run loop publishes them
            cpu._p_demand_hit.add(n)
            eu._n_interlock += get("lock", 0)
        eu._seq += n  # every trace cycle fetches exactly one entry
        seq_after = eu._seq
        if leaf.retire is not None:
            eu.retire_next_pc = leaf.retire
        elif r != -1:
            eu.retire_next_pc = r
        eu.ir_next_pc = leaf.nextpc
        eu._redirected = False
        originals = {0: eu.ir, -1: eu.or_, -2: eu.rr}
        # on a first-iteration exit the head latches are the original
        # runtime slots (possibly with non-consecutive seqs from fetch
        # bubbles before the trace); they are never mutated in-trace
        # (head slots are resolved and older than everything fetched),
        # so reuse the objects as-is
        first = n == leaf.cyc
        cycles = leaf.cyc
        pool = eu._slot_pool
        entries = self.entries
        new_slots = []
        reused = set()
        for spec in leaf.latches:
            if spec is None:
                new_slots.append(None)
                continue
            addr, ordinal, _valid, chosen_taken, resolved, speculated, \
                governing, other_pc = spec
            if first and ordinal <= 0:
                reused.add(ordinal)
                new_slots.append(originals[ordinal])
                continue
            seq = seq_after - (cycles - ordinal)
            if governing is None:
                governing_seq = None
            elif first and governing <= 0:
                governing_seq = originals[governing].seq
            else:
                governing_seq = seq_after - (cycles - governing)
            entry = entries[addr]
            if pool:
                slot = pool.pop()
                slot.entry = entry
                slot.seq = seq
                slot.valid = True
                slot.chosen_taken = chosen_taken
                slot.other_pc = other_pc
                slot.governing_seq = governing_seq
                slot.resolved = resolved
                slot.speculated = speculated
                slot.shadow = None
            else:
                slot = StageSlot(entry, seq, True, chosen_taken, other_pc,
                                 governing_seq, resolved, speculated, None)
            new_slots.append(slot)
        eu.rr, eu.or_, eu.ir = new_slots
        for ordinal, slot in originals.items():
            if slot is not None and ordinal not in reused:
                pool.append(slot)
        return n
