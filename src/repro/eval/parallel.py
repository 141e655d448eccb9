"""Parallel sweep runner: deterministic fan-out over worker processes.

Sweeps and table regeneration are embarrassingly parallel — every
(workload, configuration) point simulates independently — but
parallelism is only acceptable here if it is *invisible* in the output:
a run with ``--jobs 4`` must produce byte-identical tables, manifests
and JSON documents to the serial run. Three properties make that hold:

1. **Pure tasks.** A task is a small picklable description (workload
   *name*, config, seed) — never a live simulator. The worker rebuilds
   everything it needs from the description: sources resolve through
   :func:`repro.workloads.resolve_source` (a pure function of name and
   seed) and compile through the content-hash cache
   (:mod:`repro.sim.progcache`), so a worker's program is exactly the
   program the serial path would have built.
2. **Ordered merge.** Results come back via :meth:`Executor.map`, which
   yields in task-submission order regardless of completion order.
   Nothing downstream can observe scheduling.
3. **Per-task seeds.** Any randomness a task needs travels *in* the
   task. Workers never consult shared RNG state, so the fan-out degree
   cannot leak into results.

``jobs`` convention (shared by ``crisp-eval --jobs`` and
``crisp-obs run --jobs``): ``None``/``1`` = serial in-process, ``0`` =
one worker per CPU, ``N`` = at most N workers. The serial path runs the
same worker functions without a pool, so it is also the fallback when a
pool cannot start.

**Fault tolerance.** A long campaign must not be lost to one crashed or
hung worker. A task that raises — or whose worker process dies, which
surfaces as :class:`~concurrent.futures.process.BrokenProcessPool` — is
redispatched once, after an exponential backoff, into a *fresh* pool
(the broken one is unusable). The retry runs the identical task object,
so per-task seeds are preserved and a flaky-environment retry is
byte-identical to a first-try success. A task that fails again is
marked in the merged output as a :class:`TaskFailure` in its original
slot instead of aborting the whole campaign; callers decide whether a
marker is fatal. The no-failure fast path is exactly ``pool.map``, so
determinism is untouched.

**Campaign telemetry.** Pass a
:class:`~repro.obs.campaign.CampaignRecorder` and every task comes back
with an out-of-band :class:`TaskMeta` — in-worker wall-clock, worker
pid, compile-cache traffic, any spans the worker recorded via
:func:`repro.obs.spans.span` — which the scheduler folds into
:class:`~repro.obs.campaign.TaskRecord` entries (retry counts and
failure triage are added scheduler-side, where they are known). The
meta rides *alongside* the result in a :class:`_Envelope`, the result
itself is returned unchanged, and with no recorder the worker function
is not wrapped at all — so recording can never perturb the
byte-identical-output guarantee above.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.sim.cpu import CpuConfig

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def effective_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None → 1, 0 → cpu_count, N → N."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class TaskFailure:
    """Placeholder merged in place of a result when a task keeps failing.

    Carries enough to reproduce the failure serially: the original task
    (with its seed and arguments still inside), the last error rendered
    as text (exceptions from a dead worker process are not reliably
    picklable), the full traceback — for in-worker exceptions this
    includes the remote traceback :mod:`concurrent.futures` chains in —
    and the attempt count. Callers check
    ``isinstance(result, TaskFailure)`` and decide whether one lost
    point is fatal for their report.
    """

    index: int  #: position in the submitted task list
    task: Any
    error: str
    attempts: int
    traceback: str = ""  #: rendered exception chain (may be empty)


#: Base delay (seconds) before redispatching a failed task; attempt *k*
#: waits ``RETRY_BACKOFF * 2**k``. Kept small: the common causes (a
#: worker OOM-killed, a transient fork failure) clear immediately.
RETRY_BACKOFF = 0.05

#: How many times a failed task is redispatched before it is marked.
RETRIES = 1


def _failure(index: int, task: Any, exc: BaseException,
             attempts: int) -> TaskFailure:
    rendered = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__))
    return TaskFailure(index, task, f"{type(exc).__name__}: {exc}",
                       attempts, traceback=rendered)


# ---- campaign instrumentation ----------------------------------------------


@dataclass
class TaskMeta:
    """Out-of-band measurements one instrumented task sends back."""

    pid: int
    started: float  #: epoch seconds at task start (in-worker clock)
    wall: float  #: in-worker execution seconds
    cache_hits: int  #: progcache hits (memory + disk) during the task
    cache_misses: int
    spans: list = field(default_factory=list)


@dataclass
class _Envelope:
    """An instrumented worker's return value: result + measurements."""

    result: Any
    meta: TaskMeta


class _Instrumented:
    """Picklable wrapper measuring one task inside the worker process.

    Activates a :class:`~repro.obs.spans.SpanRecorder` around the call
    so worker code using :func:`repro.obs.spans.span` contributes
    sub-spans, and snapshots the process-wide progcache counters to
    attribute cache traffic to the task. The wrapped result is returned
    untouched inside the envelope.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: Callable[[Any], Any]) -> None:
        self.worker = worker

    def __call__(self, task: Any):
        from repro.obs import spans as spans_module
        from repro.sim.progcache import default_cache

        cache = default_cache()
        hits0 = cache.hits + cache.disk_hits
        misses0 = cache.misses
        recorder = spans_module.SpanRecorder()
        spans_module.activate(recorder)
        started = time.time()
        clock0 = time.perf_counter()
        try:
            result = self.worker(task)
        finally:
            spans_module.deactivate()
        wall = time.perf_counter() - clock0
        return _Envelope(result, TaskMeta(
            pid=os.getpid(), started=started, wall=wall,
            cache_hits=cache.hits + cache.disk_hits - hits0,
            cache_misses=cache.misses - misses0,
            spans=list(recorder.spans)))


def task_label(task: Any) -> str:
    """A short human-readable identity for a task record."""
    for attr in ("label", "name"):
        value = getattr(task, attr, None)
        if isinstance(value, str):
            return value
    text = repr(task)
    return text if len(text) <= 80 else text[:77] + "..."


def _record_success(recorder, labeler, index: int, task: Any,
                    envelope: _Envelope, retries: int) -> Any:
    """Unwrap an envelope, folding its meta into the campaign record."""
    from repro.obs.campaign import TaskRecord
    meta = envelope.meta
    recorder.task_done(TaskRecord(
        index=index, label=labeler(task), seed=getattr(task, "seed", None),
        worker=recorder.worker_slot(meta.pid), pid=meta.pid,
        started=meta.started, wall=meta.wall, retries=retries,
        cache_hits=meta.cache_hits, cache_misses=meta.cache_misses,
        spans=meta.spans))
    return envelope.result


def _record_failure(recorder, labeler, failure: TaskFailure) -> None:
    from repro.obs.campaign import TaskRecord
    recorder.task_done(TaskRecord(
        index=failure.index, label=labeler(failure.task),
        seed=getattr(failure.task, "seed", None),
        retries=failure.attempts - 1, failed=True,
        error=failure.error, traceback=failure.traceback))


def _serial_with_retry(worker: Callable[[_Task], _Result],
                       task_list: list[_Task],
                       recorder=None, labeler=task_label) -> list:
    run = _Instrumented(worker) if recorder is not None else worker
    results: list = []
    for index, task in enumerate(task_list):
        for attempt in range(RETRIES + 1):
            try:
                outcome = run(task)
            except Exception as exc:
                if attempt >= RETRIES:
                    failure = _failure(index, task, exc, attempt + 1)
                    if recorder is not None:
                        _record_failure(recorder, labeler, failure)
                    results.append(failure)
                else:
                    time.sleep(RETRY_BACKOFF * (2 ** attempt))
            else:
                if recorder is not None:
                    outcome = _record_success(recorder, labeler, index,
                                              task, outcome, attempt)
                results.append(outcome)
                break
    return results


def map_ordered(worker: Callable[[_Task], _Result],
                tasks: Iterable[_Task],
                jobs: int | None = None,
                recorder=None,
                labeler: Callable[[Any], str] = task_label) -> list[_Result]:
    """Apply ``worker`` to every task, results in task order.

    The parallel path and the serial path run the *same* worker
    function; only the transport differs. ``worker`` and each task must
    be picklable when ``jobs > 1`` (module-level functions and frozen
    dataclasses of primitives are safe).

    A task that raises or whose worker process dies is retried once in
    a fresh pool (see the module docstring); a persistent failure comes
    back as a :class:`TaskFailure` in the task's slot rather than an
    exception.

    ``recorder`` (a :class:`~repro.obs.campaign.CampaignRecorder`)
    turns on out-of-band campaign telemetry: tasks are wrapped in
    :class:`_Instrumented`, measurements are recorded scheduler-side
    and the returned results are bit-for-bit what an unrecorded run
    yields. ``labeler`` names tasks in the records.
    """
    task_list = list(tasks)
    workers = min(effective_jobs(jobs), len(task_list))
    if workers <= 1:
        return _serial_with_retry(worker, task_list, recorder, labeler)
    run = _Instrumented(worker) if recorder is not None else worker
    results: list = [None] * len(task_list)
    pending: list[tuple[int, _Task]] = list(enumerate(task_list))
    for attempt in range(RETRIES + 1):
        failed: list[tuple[int, _Task, BaseException]] = []
        # A fresh pool per attempt: a BrokenProcessPool poisons every
        # outstanding future, so the retry cannot reuse it.
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))) as pool:
            futures = [(index, task, pool.submit(run, task))
                       for index, task in pending]
            for index, task, future in futures:
                try:
                    outcome = future.result()
                except Exception as exc:
                    failed.append((index, task, exc))
                else:
                    if recorder is not None:
                        # a task reaches round ``attempt`` only by
                        # failing that many times before
                        outcome = _record_success(recorder, labeler,
                                                  index, task, outcome,
                                                  attempt)
                    results[index] = outcome
        if not failed:
            break
        if attempt >= RETRIES:
            for index, task, exc in failed:
                failure = _failure(index, task, exc, attempt + 1)
                if recorder is not None:
                    _record_failure(recorder, labeler, failure)
                results[index] = failure
            break
        time.sleep(RETRY_BACKOFF * (2 ** attempt))
        pending = [(index, task) for index, task, _exc in failed]
    return results


# ---- sweep tasks -----------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """One picklable sweep point: everything a worker needs, by value."""

    workload: str  #: name resolvable by :func:`repro.workloads.resolve_source`
    label: str
    config: CpuConfig
    spreading: bool = True
    seed: int | None = None  #: synthetic-workload seed (``gen_*`` names)


def run_sweep_task(task: SweepTask):
    """Simulate one sweep point (the worker for sweep grids)."""
    from repro.eval.sweeps import SweepPoint
    from repro.lang import CompilerOptions
    from repro.sim.cpu import run_cycle_accurate
    from repro.sim.progcache import compile_cached
    from repro.workloads import resolve_source

    source = resolve_source(task.workload, task.seed)
    program = compile_cached(source,
                             CompilerOptions(spreading=task.spreading))
    stats = run_cycle_accurate(program, task.config).stats
    return SweepPoint(task.workload, task.label, task.config, stats)


def run_sweep_tasks(tasks: Sequence[SweepTask],
                    jobs: int | None = None) -> list[Any]:
    """Run sweep points (possibly in parallel), in task order."""
    return map_ordered(run_sweep_task, tasks, jobs)


# ---- Table-4 tasks ---------------------------------------------------------


def run_table4_case(task: tuple[str, str]):
    """Worker for one Table-4 case: ``(case_name, source)`` → stats."""
    from repro.eval.table4 import CASE_DEFINITIONS, run_case

    case_name, source = task
    case = next(c for c in CASE_DEFINITIONS if c.name == case_name)
    return run_case(case, source)
