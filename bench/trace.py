"""Layer timers for the benchmark.

The benchmark times the program's layers from outside: it replaces the
name a caller looks up (``repro.lang.compiler.parse``,
``PrefetchDecodeUnit.tick``, ...) with a wrapper and puts the original
back afterwards. The program itself carries no timers.

A timer stack gives each layer its calls and its self time. The self
time of one call is its duration minus the durations of the calls
nested in it. The wrapper also costs time: part of it falls inside the
interval the wrapper measures (``inner``) and part outside it, which
would land in the caller's self time (``outer``). :meth:`LayerTimer.calibrate`
measures both once on a no-op, and every call is corrected by them, so

    sum(self times) + root self time + calls * (inner + outer) = pass time

holds exactly. Calls at per-cycle granularity are only aggregated;
coarser calls are also kept as spans, written out as a Chrome trace.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(slots=True)
class Layer:
    """What one layer's calls added up to."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


_ABSENT = object()


class LayerTimer:
    """A timer stack plus the patches that feed it."""

    def __init__(self, spans: bool = False) -> None:
        self.layers: dict[str, Layer] = {}
        self.counts: Counter = Counter()
        self.items: list[tuple[float, bool]] = []  #: (seconds, ok)
        #: (decoder id, address) of every decode; the decoders are kept
        #: alive so an id names one decoder for the whole pass
        self.decoded: set[tuple[int, int]] = set()
        self.decoders: dict[int, Any] = {}
        self.spans: list[tuple[str, float, float]] | None = \
            [] if spans else None
        self.inner = 0.0  #: wrapper cost inside the measured interval
        self.outer = 0.0  #: wrapper cost charged to the caller
        self._stack = [0.0]  #: child time of each open call; [0] = root
        self._patches: list[tuple[Any, str, Any]] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(self, name: str, fn: Callable, *, span: bool = False,
             after: Callable | None = None,
             item_ok: Callable | None = None) -> Callable:
        """Return ``fn`` timed as layer ``name``.

        ``after(timer, args, result)`` runs on each normal return;
        ``item_ok(result)`` makes every call a benchmark item, recorded
        with its duration and verdict. A call that raises is a failed
        item.
        """
        stack = self._stack
        layer = self.layer(name)
        clock = time.perf_counter
        inner, outer = self.inner, self.outer
        spans = self.spans if span else None
        items = self.items if item_ok is not None else None

        if spans is None and after is None and items is None:
            def lean(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    children = stack.pop()
                    stack[-1] += elapsed + outer
                    layer.calls += 1
                    layer.self_s += elapsed - children - inner
                    layer.total_s += elapsed
            return lean

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = _ABSENT
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed + outer
                layer.calls += 1
                layer.self_s += elapsed - children - inner
                layer.total_s += elapsed
                if spans is not None:
                    spans.append((name, start, elapsed))
                if result is not _ABSENT and after is not None:
                    after(self, args, result)
                if items is not None:
                    items.append((elapsed, result is not _ABSENT
                                  and bool(item_ok(result))))
        return timed

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost per call on a no-op: the no-op's
        self time is ``inner``; what a loop of wrapped calls costs its
        caller beyond a loop of bare calls is ``outer``."""
        inner, outer = [], []
        for _ in range(repeats):
            probe = LayerTimer()
            noop = probe.wrap("noop", _noop)

            def loop():
                for _ in range(calls):
                    noop()
            probe.wrap("loop", loop)()
            start = time.perf_counter()
            for _ in range(calls):
                _noop()
            bare = time.perf_counter() - start
            inner.append(probe.layers["noop"].self_s / calls)
            outer.append((probe.layers["loop"].self_s - bare) / calls)
        self.inner = statistics.median(inner)
        self.outer = statistics.median(outer)

    def measure(self, fn: Callable[[], Any]) -> tuple[float, float, Any]:
        """Run ``fn`` as the root; return (seconds, root self seconds,
        result)."""
        self._stack[:] = [0.0]
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return elapsed, elapsed - self._stack[0], result

    def timer_s(self) -> float:
        """Wrapper cost taken out of the self times."""
        calls = sum(layer.calls for layer in self.layers.values())
        return calls * (self.inner + self.outer)

    # ---- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def patch_layer(self, target: str, name: str, **wrap_args) -> None:
        """Time the callable named ``module:attr`` or
        ``module:Class.attr`` as layer ``name``."""
        owner, attr = resolve(target)
        self.patch(owner, attr,
                   self.wrap(name, getattr(owner, attr), **wrap_args))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---- output --------------------------------------------------------

    def chrome_trace(self, other: dict) -> dict:
        """The kept spans as a Chrome trace (``chrome://tracing``,
        Perfetto). Nesting follows from the intervals on one track."""
        spans = self.spans or []
        origin = min((start for _, start, _ in spans), default=0.0)
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": elapsed * 1e6,
                   "pid": 0, "tid": 0}
                  for name, start, elapsed in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}


def _noop() -> None:
    pass


def resolve(target: str) -> tuple[Any, str]:
    """``module:attr`` / ``module:Class.attr`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


# ---- the layers --------------------------------------------------------


def _count_cycles(timer: LayerTimer, args, _result) -> None:
    stats = args[0].stats
    timer.counts["sim.cycles"] += stats.cycles
    timer.counts["sim.icache_miss_cycles"] += stats.icache_misses


def _count_reference_cycles(timer: LayerTimer, args, _result) -> None:
    timer.counts["sim.reference.cycles"] += args[0].stats.cycles


def _count_decode(timer: LayerTimer, args, _result) -> None:
    folder, pc = args
    timer.decoders[id(folder)] = folder
    timer.decoded.add((id(folder), pc))


def _count_tokens(timer: LayerTimer, _args, tokens) -> None:
    timer.counts["lang.tokens"] += len(tokens)


def _count_parcels(timer: LayerTimer, _args, program) -> None:
    from repro.verify.runner import program_parcels
    timer.counts["asm.parcels"] += program_parcels(program)


def _count_trace_cycles(timer: LayerTimer, _args, cycles) -> None:
    timer.counts["sim.blockspec.trace_cycles"] += cycles


@dataclass(frozen=True)
class LayerSpec:
    """Where a layer's calls are looked up, and how they are recorded."""

    targets: tuple[str, ...]
    per_cycle: bool = False  #: aggregate only, keep no spans
    after: Callable | None = None


#: Every layer the traced pass times, by the module that owns it.
LAYERS: dict[str, LayerSpec] = {
    "sim.cpu.run": LayerSpec(("repro.sim.cpu:CrispCpu.run",),
                             after=_count_cycles),
    "sim.cpu.step": LayerSpec(("repro.sim.cpu:CrispCpu.step",),
                              per_cycle=True),
    "sim.pdu.tick": LayerSpec(("repro.sim.pdu:PrefetchDecodeUnit.tick",),
                              per_cycle=True),
    "sim.pdu.decode": LayerSpec(("repro.core.folder:BranchFolder.decode",),
                                per_cycle=True, after=_count_decode),
    "sim.eu.tick": LayerSpec(("repro.sim.eu:ExecutionUnit.tick",),
                             per_cycle=True),
    "sim.icache.lookup": LayerSpec(
        ("repro.sim.icache:DecodedICache.lookup",), per_cycle=True),
    "sim.reference": LayerSpec(("repro.sim.reference:ReferenceCpu.run",),
                               after=_count_reference_cycles),
    "sim.progcache.build": LayerSpec(()),  # see _install_progcache
    "lang.lexer": LayerSpec(("repro.lang.parser:tokenize",),
                            after=_count_tokens),
    "lang.parser": LayerSpec(("repro.lang.compiler:parse",)),
    "lang.simplify": LayerSpec(
        ("repro.lang.passes.simplify:simplify_unit",)),
    "lang.sema": LayerSpec(("repro.lang.compiler:analyze",)),
    "lang.codegen": LayerSpec(("repro.lang.compiler:generate",)),
    "lang.peephole": LayerSpec(("repro.lang.compiler:peephole_module",)),
    "lang.spreading": LayerSpec(("repro.lang.compiler:spread_module",)),
    "lang.predict": LayerSpec(("repro.lang.compiler:apply_prediction",)),
    "lang.render": LayerSpec(("repro.lang.asmir:AsmModule.render",)),
    "asm.assemble": LayerSpec(("repro.lang.compiler:assemble",
                               "repro.verify.runner:assemble"),
                              after=_count_parcels),
    "verify.generate": LayerSpec(("repro.verify.runner:generate_source",)),
    "verify.oracle": LayerSpec(("repro.verify.runner:run_oracle",)),
    "verify.nextpc_check": LayerSpec(
        ("repro.verify.runner:check_nextpc_invariants",)),
    "verify.differential": LayerSpec(
        ("repro.verify.runner:run_differential",)),
    "verify.coverage": LayerSpec(
        ("repro.verify.coverage:CoverageMap.add_records",)),
    "obs.attribute_run": LayerSpec(("repro.verify.runner:attribute_run",)),
    "eval.map_ordered": LayerSpec(("repro.eval.parallel:map_ordered",
                                   "repro.verify.cli:map_ordered")),
}

#: The layers every pass times: items and the kernels' run calls, one
#: wrapper call per simulated program, so the untraced passes measure
#: kernel throughput without per-cycle timers.
KERNEL_LAYERS = ("sim.cpu.run", "sim.reference")

ITEM = "bench.item"


def _install_progcache(timer: LayerTimer) -> None:
    """Time the build callable every cache miss runs."""
    from repro.sim.progcache import ProgramCache

    original = ProgramCache.get_or_build

    def get_or_build(cache, key, build):
        return original(cache, key, timer.wrap("sim.progcache.build",
                                               build, span=True))
    timer.patch(ProgramCache, "get_or_build", get_or_build)


def install(timer: LayerTimer, layers: Iterable[str],
            item_targets: Iterable[str], item_ok: Callable) -> None:
    """Patch ``layers`` and the workload's item calls into ``timer``."""
    for target in item_targets:
        timer.patch_layer(target, ITEM, span=True, item_ok=item_ok)
    for name in layers:
        spec = LAYERS[name]
        if name == "sim.progcache.build":
            _install_progcache(timer)
        for target in spec.targets:
            timer.patch_layer(target, name, span=not spec.per_cycle,
                              after=spec.after)


def install_blockspec(timer: LayerTimer) -> None:
    """Make every machine built for the fast engine run blockspec, and
    count the cycles its compiled traces run."""
    import dataclasses

    from repro.sim.cpu import CpuConfig, CrispCpu

    original = CrispCpu.__init__

    def init(cpu, program, config=None, obs=None):
        config = config or CpuConfig()
        if config.engine == "fast":
            config = dataclasses.replace(config, engine="blockspec")
        original(cpu, program, config, obs)
    timer.patch(CrispCpu, "__init__", init)
    timer.patch_layer("repro.sim.blockspec:BlockSpecEngine._run",
                      "sim.blockspec.run", after=_count_trace_cycles)
