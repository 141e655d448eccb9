"""The whole machine: PDU + Decoded Instruction Cache + EU (Figure 1).

:class:`CrispCpu` wires the three blocks together and steps them one clock
at a time. Each cycle:

1. the PDU advances (memory access, decode/fold, cache fill);
2. the EU's ``IR.Next-PC`` register addresses the Decoded Instruction
   Cache — a miss sends a demand to the PDU;
3. the EU executes its RR stage (resolving branches, possibly squashing
   and redirecting) and latches its stages.

:meth:`CrispCpu.run` and :meth:`CrispCpu.step` run the same fused loop
(:meth:`CrispCpu._cycles`), which reads the cache inline and skips the
PDU's tick on cycles where it would change nothing.

Configuration knobs cover everything the benchmarks sweep: the fold
policy, cache size, memory latency, decode depth and prefetch distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.program import Program
from repro.core.policy import FoldPolicy
from repro.obs.events import EventBus
from repro.sim.dynfold import INJECT_MODES, DynamicFoldUnit
from repro.sim.eu import ExecutionUnit
from repro.sim.icache import DecodedICache
from repro.sim.memory import Memory
from repro.sim.pdu import PrefetchDecodeUnit
from repro.sim.progcache import default_cache, predecode_cached
from repro.sim.semantics import (
    MachineState,
    SimulationError,
    SimulationHungError,
)
from repro.sim.stats import PipelineStats

#: how many post-budget fetch addresses the watchdog samples for the
#: SimulationHungError diagnostic ring buffer
WATCHDOG_RING = 64

#: The engine tiers, default first: the one list ``CpuConfig``,
#: ``crisp-sim --engine`` and the ``crisp-verify`` differential build
#: their choices and arms from. Every tier after the first must be
#: bit-identical to it, and ``crisp-verify`` checks that it is.
ENGINES: tuple[str, ...] = ("fast", "blockspec")


@dataclass(frozen=True)
class CpuConfig:
    """Microarchitectural parameters of the simulated machine."""

    fold_policy: FoldPolicy = field(default_factory=FoldPolicy.crisp)
    icache_entries: int = 32
    mem_latency: int = 2  #: cycles per four-parcel instruction fetch
    decode_latency: int = 2  #: PDR + PIR stages
    prefetch_depth: int = 16  #: entries decoded ahead of the last demand
    max_cycles: int = 50_000_000  #: watchdog budget for :meth:`CrispCpu.run`
    #: fault injection mode (None or "always-wrong"); see
    #: :mod:`repro.sim.dynfold`
    inject: str | None = None
    #: execution engine tier, one of :data:`ENGINES`; every tier is
    #: bit-identical in results (docs/pipeline.md, "Engine tiers")
    engine: str = ENGINES[0]

    def __post_init__(self) -> None:
        # a zero latency or depth never decodes (the PDU spins at the
        # entry point until the watchdog fires); reject such configs here,
        # naming the field, rather than deep inside the machine
        if not isinstance(self.fold_policy, FoldPolicy):
            raise ValueError(
                f"fold_policy must be a FoldPolicy, got {self.fold_policy!r}")
        entries = self.icache_entries
        if (not isinstance(entries, int) or entries <= 0
                or entries & (entries - 1)):
            raise ValueError(
                f"icache_entries must be a positive power of two, "
                f"got {entries!r}")
        for name in ("mem_latency", "decode_latency", "prefetch_depth",
                     "max_cycles"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")
        if self.inject not in (None, *INJECT_MODES):
            raise ValueError(
                f"inject must be one of {(None, *INJECT_MODES)}, "
                f"got {self.inject!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")


class CrispCpu:
    """Cycle-accurate simulator of the CRISP-like machine."""

    def __init__(self, program: Program,
                 config: CpuConfig | None = None,
                 obs: EventBus | None = None) -> None:
        self.program = program
        self.config = config or CpuConfig()
        #: per-run telemetry namespace; pass a shared bus to aggregate, or
        #: ``EventBus(enabled=False)`` to strip instrumentation entirely
        self.obs = obs if obs is not None else EventBus()
        self.memory = Memory()
        self.memory.load_program(program)
        self.state = MachineState(
            self.memory, pc=program.entry, sp=program.stack_top)
        self.stats = PipelineStats()
        self.icache = DecodedICache(self.config.icache_entries, obs=self.obs)
        #: one dynamic-fold unit per machine, shared by the PDU (queries
        #: only) and the EU (folds, trains, untrains)
        self.dyn = (DynamicFoldUnit(self.config.fold_policy)
                    if self.config.fold_policy.dynamic_fold else None)
        #: the PDU decodes through the process's table for this policy,
        #: so machines share decodes (see repro.sim.progcache)
        self.pdu = PrefetchDecodeUnit(
            self.memory, self.icache, self.config.fold_policy,
            mem_latency=self.config.mem_latency,
            decode_latency=self.config.decode_latency,
            prefetch_depth=self.config.prefetch_depth,
            obs=self.obs, dyn=self.dyn,
            decode_table=default_cache().decode_table(
                self.config.fold_policy))
        self.eu = ExecutionUnit(self.state, self.stats, obs=self.obs,
                                dyn=self.dyn, inject=self.config.inject)
        self._pending_interrupt: int | None = None
        self.interrupts_taken = 0
        self._obs_on = self.obs.enabled
        self._obs_sinks = self.obs.sinks_ref()
        self._p_demand_hit = self.obs.counter("icache.demand_hit")
        self._p_demand_miss = self.obs.counter("icache.demand_miss")
        self._p_miss_latency = self.obs.histogram("icache.miss.latency")
        self._miss_address: int | None = None  #: demand miss being timed
        self._miss_cycle = 0
        #: demanded addresses found to be instruction boundaries
        self._boundaries: set[int] = set()
        self._blockspec = None  #: lazily-built BlockSpecEngine
        # cold start: the PDU begins decoding at the entry point
        self.pdu.demand(program.entry)

    @property
    def halted(self) -> bool:
        """True once a ``halt`` has executed at the RR stage."""
        return self.eu.halted

    def step(self) -> None:
        """Advance the machine by one clock cycle."""
        self._cycles(1)

    def _cycles(self, budget: int) -> None:
        """The cycle loop: run up to ``budget`` clock cycles, stopping
        after the one in which the machine halts.

        Each cycle ticks the PDU, reads the Decoded Instruction Cache at
        ``IR.Next-PC`` (inlined :meth:`DecodedICache.lookup`; a miss
        sends a demand to the PDU), ticks the EU and delivers a pending
        interrupt. The PDU tick is skipped while the PDU is idle —
        nothing in flight, no fetch outstanding, and no decode possible
        before the prefetch limit — because such a tick changes nothing
        but its own per-tick ``_starved`` flag.

        On a bus without sinks no counter probe is touched per event:
        the demand hits are kept in a local, and every other counter is
        published from the counts the machine keeps anyway when the loop
        returns, by any exit (:meth:`_publish_probes`). With a sink
        attached every event is published as it happens, with its
        fields.

        A demand miss at an address that is not an instruction boundary
        of the program, once the EU's latches hold nothing valid, means
        control has left the program: it raises the functional
        simulator's :class:`~repro.sim.semantics.SimulationError` instead
        of stalling until the watchdog. A wrong-path fetch still stalls,
        since the branch that chose the path is still in flight.
        """
        pdu = self.pdu
        eu = self.eu
        stats = self.stats
        icache = self.icache
        lines = icache._lines
        index_mask = icache.size - 1
        prefetch_depth = pdu.prefetch_depth
        pdu_tick = pdu.tick
        eu_tick = eu.tick
        # the probe guards cannot change mid-run: nothing can attach a
        # sink to a bus that has none
        obs_on = self._obs_on
        detail = obs_on and bool(self._obs_sinks)
        if detail:
            self._publish_probes()  # what ran since the last loop
            eu._per_event = True
        p_demand_hit = self._p_demand_hit
        boundaries = self._boundaries
        hits = 0
        misses = stats.icache_misses
        try:
            for _ in range(budget):
                if (pdu.inflight or pdu.fetch_countdown
                        or (pdu.decode_pc is not None
                            and pdu.entries_ahead < prefetch_depth)):
                    pdu_tick()

                fetched = None
                address = eu.ir_next_pc
                if address is not None:
                    # DecodedICache.index_of: the parcel address's low bits
                    fetched = lines[(address >> 1) & index_mask]
                    if fetched is not None and fetched.address == address:
                        if address == self._miss_address:
                            if obs_on:
                                self._p_miss_latency.observe(
                                    stats.cycles - self._miss_cycle)
                            self._miss_address = None
                        if detail:
                            icache.hits += 1
                            stats.icache_hits += 1
                            p_demand_hit.add()
                        else:
                            hits += 1
                    else:
                        fetched = None
                        icache.misses += 1
                        stats.icache_misses += 1
                        if detail:
                            self._p_demand_miss.inc(site=address)
                        if address != self._miss_address:
                            self._miss_address = address
                            self._miss_cycle = stats.cycles
                        if address not in boundaries:
                            slot = eu.rr
                            if slot is None or not slot.valid:
                                slot = eu.or_
                                if slot is None or not slot.valid:
                                    slot = eu.ir
                                    if slot is None or not slot.valid:
                                        self._check_boundary(address)
                        pdu.demand(address)

                eu_tick(fetched)
                stats.cycles += 1

                if self._pending_interrupt is not None and not eu.halted:
                    vector = self._pending_interrupt
                    self._pending_interrupt = None
                    eu.take_interrupt(vector)
                    pdu.demand(vector)
                    self.interrupts_taken += 1
                if eu.halted:
                    break
        finally:
            if hits:
                icache.hits += hits
                stats.icache_hits += hits
                if obs_on:
                    p_demand_hit.add(hits)
            if obs_on:
                if detail:
                    eu._per_event = False
                elif stats.icache_misses != misses:
                    self._p_demand_miss.add(stats.icache_misses - misses)
                self._publish_probes(published=detail)

    def _publish_probes(self, published: bool = False) -> None:
        """Add to each counter probe what its unit counted since the last
        call; ``published`` says the EU's events went out one by one."""
        self.eu.publish_probes(published)
        self.pdu.publish_probes()
        self.icache.publish_probes()

    def _check_boundary(self, address: int) -> None:
        """The EU demands ``address`` with its pipeline drained, so the
        demand is on the architectural path: it must be an instruction
        boundary of the program."""
        if self.program.index_of(address) is None:
            raise SimulationError(
                f"control reached {address:#x}, not an instruction boundary")
        self._boundaries.add(address)

    def interrupt(self, vector: int) -> None:
        """Raise an interrupt: taken precisely at the next clock edge.

        The handler at ``vector`` runs with the interrupted program's PSW
        flag and resume PC on the stack; it returns with ``reti``.
        """
        self._pending_interrupt = vector

    def run(self, max_cycles: int | None = None) -> PipelineStats:
        """Run to ``halt``; the cycle-budget watchdog raises a diagnostic
        :class:`~repro.sim.semantics.SimulationHungError` on exhaustion.

        ``max_cycles`` overrides ``config.max_cycles`` when given.
        """
        limit = self.config.max_cycles if max_cycles is None else max_cycles
        if self.config.engine == "blockspec" and self.dyn is None:
            # dynamic-fold policies carry shadow records through the
            # latches, which the trace compiler never admits — running
            # them through the per-cycle loop keeps --engine trivially
            # bit-identical across the whole config space
            return self._run_blockspec(limit)
        eu = self.eu
        if not eu.halted:
            self._cycles(limit)
        eu.flush_execution()  # idempotent: a halt already folded the batch
        if eu.halted:  # also when it halted on the last budgeted cycle
            return self.stats
        raise self._watchdog_error(limit)

    def _run_blockspec(self, limit: int) -> PipelineStats:
        """The blockspec run loop: per-cycle steps interleaved with
        compiled-trace bursts whenever the machine reaches a traced
        steady state. The cycle budget is shared exactly — a trace burst
        consumes its cycle count from the same ``limit``, and traces are
        bounded so the watchdog semantics match the per-cycle loop. A
        trace burst moves the stats, not the probes; each step, and this
        loop's exit, publishes them."""
        from repro.sim.blockspec import BlockSpecEngine
        if self._blockspec is None:
            self._blockspec = BlockSpecEngine(self)
        try_trace = self._blockspec.try_trace
        eu = self.eu
        step = self.step
        steps = 0
        try:
            while steps < limit:
                if eu.halted:
                    eu.flush_execution()
                    return self.stats
                consumed = try_trace(limit - steps)
                if consumed:
                    steps += consumed
                    continue
                step()
                steps += 1
        finally:
            if self._obs_on:
                self._publish_probes()
        eu.flush_execution()
        if eu.halted:  # halted on the last budgeted cycle
            return self.stats
        raise self._watchdog_error(limit)

    def _watchdog_error(self, limit: int) -> SimulationHungError:
        """Budget exhausted: sample the next fetch addresses (a hang shows
        up as a short repeating PC cycle) and attach the dynamic-fold
        unit's per-site tallies. Sampling *after* exhaustion keeps the
        hot run loop free of ring-buffer bookkeeping."""
        pcs: list[int] = []
        for _ in range(WATCHDOG_RING):
            if self.eu.halted:
                break
            if self.eu.ir_next_pc is not None:
                pcs.append(self.eu.ir_next_pc)
            self.step()
        return SimulationHungError(
            limit, pcs,
            self.dyn.fold_counts if self.dyn is not None else None,
            self.dyn.flush_counts if self.dyn is not None else None)

    # ---- conveniences ------------------------------------------------------

    def warm_cache(self) -> None:
        """Pre-decode every instruction into the Decoded Instruction Cache.

        Useful for microbenchmarks that measure steady-state pipeline
        behaviour (e.g. the per-distance misprediction penalties) without
        cold-start miss noise. Only meaningful when the program fits the
        cache without conflicts. Decode results are memoized per
        (program image, fold policy) — see :mod:`repro.sim.progcache` —
        so repeated runs of the same program decode once.
        """
        for entry in predecode_cached(self.program, self.config.fold_policy):
            self.icache.fill(entry)

    def read_symbol(self, name: str) -> int:
        """Read the word at a data symbol's address."""
        return self.memory.read_word(self.program.symbol(name))


def run_cycle_accurate(program: Program,
                       config: CpuConfig | None = None,
                       max_cycles: int | None = None,
                       obs: EventBus | None = None) -> CrispCpu:
    """Run ``program`` on the cycle-accurate machine and return the CPU."""
    cpu = CrispCpu(program, config, obs=obs)
    cpu.run(max_cycles)
    return cpu
