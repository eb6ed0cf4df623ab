"""Parallel campaign runner for the experiment harness.

The paper's evaluation is an embarrassingly-parallel sweep: a 5-locations
x N-systems x 2-workloads year matrix (Figures 8-10, Section 5.2) and a
1520-location worldwide grid (Figures 12/13).  Every cell is an
independent deterministic year simulation, so this module fans them out
over a process pool:

* worker count comes from the ``workers`` argument, the ``REPRO_WORKERS``
  environment variable, or ``os.cpu_count()``, in that order;
* the uncached cells become work units — lane chunks, ``(cell, day)``
  chunks and single cells — and one loop submits them and handles each
  finished one; ``workers=1`` (or a single pending unit) runs the same
  units through the same loop on an in-process executor — no pool, no
  pickling;
* results come back in task order regardless of completion order, and the
  simulations are deterministic, so serial and parallel runs produce
  identical results;
* cells already present in the memory or disk cache are served in the
  parent without spawning anything, and workers persist fresh results
  through the same atomic, schema-versioned disk cache
  (:mod:`repro.analysis.experiments`), so a re-run is free.

Failure handling (docs/ROBUSTNESS.md):

* every worker exception is wrapped in
  :class:`~repro.errors.TaskExecutionError`, which carries the failing
  (system, climate, workload, bias) cell's label across the process
  boundary;
* one rule for every unit: a failed chunk never fails a cell — each of
  its cells comes back as a single with one more attempt, so one bad
  lane cannot poison its chunk-mates — and a single fails once its
  attempts exceed ``task_retries`` / ``REPRO_TASK_RETRIES`` (default 1
  retry); retries back off exponentially;
* a crashed worker (``BrokenProcessPool``) or a pool that makes no
  progress for ``task_timeout_s`` / ``REPRO_TASK_TIMEOUT_S`` seconds is
  terminated, and the unfinished cells continue as singles on the
  in-process executor, checking the cache first so a cell the dead
  worker already persisted is never recomputed or re-written;
* with a ``failures`` list the run completes and reports failed cells
  (:class:`TaskFailure`) instead of dying on the first one.

Workers return the JSON cache payload rather than the live
:class:`YearResult` so the parallel path goes through exactly the same
serialization as a disk-cache hit.

Public contract (the campaign service, :mod:`repro.service`, builds on
exactly these guarantees — keep them):

* **Pool-safe worker entry points.**  :func:`_execute_task_payload`,
  :func:`_execute_lane_chunk_payload`, and
  :func:`_execute_day_chunk_payload` are the only functions shipped to
  worker processes.  They take plain picklable data (:class:`YearTask`),
  return plain JSON payloads, read every ``REPRO_*`` artifact/cache knob
  from the environment per call, and persist results through the atomic
  disk cache only — never the worker's memory cache — so any number of
  pools, in any number of parent processes, may run them concurrently
  against the same cache directory, and a long-lived worker does not
  grow with the cells it ran.  (Day chunks are the one exception to
  worker-side persistence: they return per-day summaries, and the parent
  folding them into a whole cell is the writer.)
* **Env knobs read per call** (safe to change between calls in one
  process): ``REPRO_WORKERS``, ``REPRO_TASK_RETRIES``,
  ``REPRO_TASK_TIMEOUT_S``, ``REPRO_MP_CONTEXT``, and — inside workers —
  the artifact-store knobs (``REPRO_ARTIFACTS``, ``REPRO_ARTIFACTS_DIR``,
  ``REPRO_CACHE_DIR``).  ``REPRO_LANES`` / ``REPRO_SIM_ENGINE`` /
  ``REPRO_SAMPLE_DAYS`` are read at import of
  :mod:`repro.analysis.experiments` and are fixed per process.
* **Warm state is optional.**  :func:`_warm_shared_state` only moves
  work earlier (train/generate once, persist to the artifact store);
  skipping it costs time in the first worker to need each artifact,
  never correctness.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import CoolAirConfig
from repro.errors import ReproError, TaskExecutionError
from repro.sim.yearsim import YearResult, fold_days, sampled_days
from repro.weather.climate import Climate

logger = logging.getLogger("repro.analysis.runner")

# Called after each finished cell with (done_count, total, task).
ProgressCallback = Callable[[int, int, "YearTask"], None]

# Streaming consumer: called with (task_index, task, result) as each cell
# completes, before (and regardless of whether) the result is retained.
ConsumeCallback = Callable[[int, "YearTask", "YearResult"], None]

# First-retry backoff; doubles per subsequent retry of the same cell.
RETRY_BACKOFF_S = 0.5


@dataclasses.dataclass(frozen=True)
class YearTask:
    """One (system, location, workload) cell of a campaign.

    Mirrors :func:`repro.analysis.experiments.year_result`'s signature and
    must stay picklable (plain data only) so it can cross to workers.
    """

    system: Union[str, CoolAirConfig]
    climate: Climate
    workload: str = "facebook"
    deferrable: bool = False
    sample_every_days: Optional[int] = None
    forecast_bias_c: float = 0.0
    # Day-unfold width for in-worker execution (see
    # ``experiments.year_result``): > 1 steps an eligible cell's sampled
    # days as lockstep lanes inside the worker.  Bit-identical to the
    # day-sequential run, so cache keys ignore it (and cross-request
    # dedupe in the service is unaffected).
    day_lanes: Optional[int] = None
    # Cooling plant backend (see repro.cooling.backends); non-parasol
    # plants carry their own cache keys and ride the lane engine through
    # their lane-vectorized units.
    plant: str = "parasol"

    def label(self) -> str:
        name = self.system if isinstance(self.system, str) else self.system.name
        return (
            f"{name} @ {self.climate.name} ({self.workload}"
            f"{', deferrable' if self.deferrable else ''}"
            f"{f', bias {self.forecast_bias_c:+.1f}C' if self.forecast_bias_c else ''}"
            f"{f', plant {self.plant}' if self.plant != 'parasol' else ''})"
        )


@dataclasses.dataclass
class TaskFailure:
    """One cell that exhausted its retries; collected via ``failures``."""

    task: YearTask
    error: str
    attempts: int

    def label(self) -> str:
        return self.task.label()


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > CPU count."""
    if requested is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                )
        else:
            requested = os.cpu_count() or 1
    if requested < 1:
        raise ReproError(f"worker count must be >= 1, got {requested}")
    return requested


def resolve_lanes(requested: Optional[int] = None) -> int:
    """Lanes per lockstep batch: explicit argument > ``REPRO_LANES``."""
    from repro.analysis import experiments

    if requested is None:
        requested = experiments.DEFAULT_LANES
    if requested < 1:
        raise ReproError(f"lane count must be >= 1, got {requested}")
    return requested


def resolve_mp_context(requested: Optional[str] = None) -> Optional[str]:
    """Pool start method: argument > ``REPRO_MP_CONTEXT`` > platform default.

    ``fork`` workers inherit the parent's warmed traces/models as shared
    pages; ``spawn`` workers start from fresh interpreters and rebuild
    their state from the artifact store (:mod:`repro.artifacts`) instead
    — which is exactly what the data-plane benchmark measures.  ``None``
    keeps the platform default.
    """
    if requested is None:
        requested = os.environ.get("REPRO_MP_CONTEXT") or None
    if requested is None:
        return None
    valid = multiprocessing.get_all_start_methods()
    if requested not in valid:
        raise ReproError(
            f"mp context must be one of {valid}, got {requested!r}"
        )
    return requested


def resolve_task_retries(requested: Optional[int] = None) -> int:
    """Retries per failing cell: argument > ``REPRO_TASK_RETRIES`` > 1."""
    if requested is None:
        env = os.environ.get("REPRO_TASK_RETRIES")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_TASK_RETRIES must be an integer, got {env!r}"
                )
        else:
            requested = 1
    if requested < 0:
        raise ReproError(f"task retries must be >= 0, got {requested}")
    return requested


def resolve_task_timeout(requested: Optional[float] = None) -> Optional[float]:
    """Progress timeout in seconds: argument > ``REPRO_TASK_TIMEOUT_S``.

    ``None`` (the default) or a non-positive value disables the timeout.
    The timeout bounds the wait for *any* cell to complete, so a hung
    worker cannot stall a campaign forever.
    """
    if requested is None:
        env = os.environ.get("REPRO_TASK_TIMEOUT_S")
        if env is not None:
            try:
                requested = float(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_TASK_TIMEOUT_S must be a number, got {env!r}"
                )
    if requested is not None and requested <= 0:
        return None
    return requested


class WorkerPool:
    """A process pool whose lifetime its owner decides.

    :func:`run_year_tasks` owns one per call; the campaign service holds
    one for the life of ``serve`` and submits the module's worker entry
    points to it directly, so many campaigns share the same workers.

    The underlying executor is created lazily on first use and recreated
    lazily after :meth:`reset`, so a crashed or hung worker generation
    never poisons the pool object itself.  Thread-safety: creation and
    reset are lock-guarded; ``submit`` may be called from any thread
    (``ProcessPoolExecutor.submit`` is itself thread-safe).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self._ctx_name = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._generation = 0

    @property
    def generation(self) -> int:
        """Bumped on every :meth:`reset`; lets callers detect restarts."""
        return self._generation

    def submit(self, fn, /, *args, **kwargs):
        """Submit work; raises ``BrokenProcessPool`` if the pool just died."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=(
                        multiprocessing.get_context(self._ctx_name)
                        if self._ctx_name
                        else None
                    ),
                )
            executor = self._executor
        return executor.submit(fn, *args, **kwargs)

    def reset(self) -> None:
        """Discard a broken/hung worker generation without waiting on it.

        Outstanding futures are cancelled where possible; already-running
        cells in dead workers surface ``BrokenProcessPool`` to their
        waiters, who re-check the cache and resubmit.  The next
        :meth:`submit` starts a fresh executor.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._generation += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def terminate(self) -> None:
        """Stop every worker now, running cells included, and reap them.

        Queued work is cancelled; a cell a worker is running is lost (its
        cache entry is written atomically, so it is simply missing).
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()


def _wrap_error(label: str, err: BaseException) -> TaskExecutionError:
    if isinstance(err, TaskExecutionError):
        return err
    return TaskExecutionError(label, f"{type(err).__name__}: {err}")


def _run_task(task: YearTask, use_disk_cache: bool = True) -> YearResult:
    from repro.analysis import experiments

    _, result = experiments.cell_result(
        task.system,
        task.climate,
        workload=task.workload,
        deferrable=task.deferrable,
        sample_every_days=task.sample_every_days,
        forecast_bias_c=task.forecast_bias_c,
        use_disk_cache=use_disk_cache,
        day_lanes=task.day_lanes,
        plant=task.plant,
    )
    return result


def _execute_task_payload(task: YearTask, use_disk_cache: bool) -> dict:
    """Worker entry point: run one cell, return its JSON payload.

    Any exception is re-raised as a :class:`TaskExecutionError` carrying
    the cell's identity, so the parent never sees an anonymous traceback.
    """
    from repro.analysis import experiments

    try:
        result = _run_task(task, use_disk_cache)
    except Exception as err:
        raise _wrap_error(task.label(), err) from err
    return experiments._result_to_json(result)


def _lane_scenarios(tasks: Sequence[YearTask]):
    """The tasks' lane scenarios, and the trained model CoolAir lanes share."""
    from repro.analysis import experiments
    from repro.sim.campaign import trained_cooling_model
    from repro.sim.lanes import LaneScenario

    scenarios = []
    for task in tasks:
        system, _ = experiments._resolve_system(task.system)
        scenarios.append(
            LaneScenario(
                system=system,
                climate=task.climate,
                trace=experiments.workload_trace(task.workload, task.deferrable),
                forecast_bias_c=task.forecast_bias_c,
                plant=task.plant,
            )
        )
    needs_model = any(not isinstance(s.system, str) for s in scenarios)
    return scenarios, trained_cooling_model() if needs_model else None


def _run_lane_chunk(
    chunk: Sequence[YearTask], use_disk_cache: bool
) -> List[YearResult]:
    """Run a chunk of cells as one lockstep lane batch.

    All tasks in a chunk must share (and do, by construction in
    :func:`run_year_tasks`) the same day-sampling stride; systems,
    climates, workloads, and forecast biases mix freely across lanes.
    Each lane's result is bit-identical to its scalar run and is
    persisted to the disk cache under its own key.
    """
    from repro.analysis import experiments
    from repro.sim.lanes import run_year_lanes

    sample = chunk[0].sample_every_days or experiments.DEFAULT_SAMPLE_DAYS
    scenarios, model = _lane_scenarios(chunk)
    results = run_year_lanes(scenarios, model=model, sample_every_days=sample)
    if use_disk_cache:
        for task, result in zip(chunk, results):
            key = experiments.cache_key(
                task.system,
                task.climate,
                task.workload,
                task.deferrable,
                task.sample_every_days,
                task.forecast_bias_c,
                "lanes",
                plant=task.plant,
            )
            experiments._write_disk_entry(key, result)
    return results


def _execute_lane_chunk_payload(
    chunk: Sequence[YearTask], use_disk_cache: bool
) -> List[dict]:
    """Worker entry point: run a lane chunk, return JSON payloads."""
    from repro.analysis import experiments

    try:
        results = _run_lane_chunk(chunk, use_disk_cache)
    except Exception as err:
        labels = "; ".join(task.label() for task in chunk)
        raise _wrap_error(f"lane chunk [{labels}]", err) from err
    return [experiments._result_to_json(result) for result in results]


def _run_day_chunk(
    items: Sequence[Tuple[YearTask, int]], use_disk_cache: bool
) -> List[dict]:
    """Run a chunk of ``(cell, day)`` work items as one lockstep batch.

    Each item occupies one lane: its cell's scenario replicated at that
    item's sampled day.  Items may mix cells (and strides) freely — every
    lane carries its own day — and sibling items of one cell share the
    cell's trace and trained model, so the lane-combo plan cache hits
    across them.  Returns one day summary
    (:func:`repro.sim.lanes.day_summary`) per item; the parent folds them
    back into :class:`YearResult`s with :func:`~repro.sim.yearsim.fold_days`
    (``use_disk_cache`` is unused here — only whole cells are cached, by
    the parent, after the fold).
    """
    from repro.sim.lanes import LaneRunner, day_summary

    scenarios, model = _lane_scenarios([task for task, _ in items])
    runner = LaneRunner(scenarios, model=model)
    metrics, _ = runner.run_day([int(day) for _, day in items])
    return [day_summary(day_metrics) for day_metrics in metrics]


def _execute_day_chunk_payload(
    items: Sequence[Tuple[YearTask, int]], use_disk_cache: bool
) -> List[dict]:
    """Worker entry point: run a ``(cell, day)`` chunk, return day dicts."""
    try:
        return _run_day_chunk(items, use_disk_cache)
    except Exception as err:
        labels = "; ".join(
            f"{task.label()} day {day}" for task, day in items
        )
        raise _wrap_error(f"day chunk [{labels}]", err) from err


def _warm_shared_state(tasks: Sequence[YearTask]) -> None:
    """Materialize traces and every needed cooling model before the pool.

    With the default ``fork`` start method workers inherit these as
    shared pages, so each expensive learning campaign runs once in the
    parent instead of once per worker.  Every *distinct* model
    requirement across the task list is warmed: a config whose fault
    schedule punches log gaps trains a different (degraded) model than
    the default, and such cells used to silently retrain it inside every
    worker that drew one.  Under ``spawn`` the warm pass still pays off —
    it persists each model to the artifact store, which freshly spawned
    workers load instead of retraining.
    """
    from repro.analysis import experiments
    from repro.sim.campaign import trained_cooling_model

    gap_keys = set()
    model_needs = []
    for task in tasks:
        experiments.workload_trace(task.workload, task.deferrable)
        system, _ = experiments._resolve_system(task.system)
        if isinstance(system, str):
            continue
        # Mirrors how ``experiments.year_result`` derives each cell's
        # model, so exactly the keys the workers will ask for get warmed.
        gaps = (
            tuple(system.faults.log_gaps) if system.faults is not None else ()
        )
        if gaps not in gap_keys:
            gap_keys.add(gaps)
            model_needs.append(gaps)
    for gaps in model_needs:
        trained_cooling_model(log_gaps=gaps)


def _note_retry(
    retried: Optional[List[str]], task: YearTask, attempt: int, err: BaseException
) -> None:
    logger.warning(
        "retrying %s (attempt %d) after: %s", task.label(), attempt + 1, err
    )
    if retried is not None:
        retried.append(task.label())


class _InlineExecutor:
    """An executor that runs each submission at once, in this process.

    ``submit`` returns an already finished :class:`Future`, so in-process
    runs (``workers=1``, a single pending unit, recovery after a dead or
    stalled pool) go through the same loop as pooled ones.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as err:  # noqa: BLE001 - delivered like a worker's
            future.set_exception(err)
        return future


@dataclasses.dataclass(frozen=True)
class _Unit:
    """One submission: a worker entry point and the task indices it covers.

    ``kind`` is ``"cell"`` (one cell, :func:`_execute_task_payload`),
    ``"lanes"`` (a lane chunk) or ``"days"`` (a ``(cell, day)`` chunk,
    whose ``items`` are its ``(cell, day position, day)`` triples).
    """

    kind: str
    entry: Callable
    arg: object
    cells: Tuple[int, ...]
    items: Tuple[Tuple[int, int, int], ...] = ()


def run_year_tasks(
    tasks: Sequence[YearTask],
    workers: Optional[int] = None,
    use_disk_cache: bool = True,
    progress: Optional[ProgressCallback] = None,
    lanes: Optional[int] = None,
    day_lanes: Optional[int] = None,
    task_retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    backoff_s: float = RETRY_BACKOFF_S,
    failures: Optional[List[TaskFailure]] = None,
    retried: Optional[List[str]] = None,
    consume: Optional[ConsumeCallback] = None,
    keep_results: bool = True,
    cost_model=None,
) -> List[Optional[YearResult]]:
    """Run a batch of campaign cells, in parallel where possible.

    Returns one :class:`YearResult` per task, in task order.  Cached
    cells never reach the pool; with ``workers=1`` everything runs
    in-process.  ``lanes`` (default ``REPRO_LANES``) batches uncached
    cells into lockstep lane groups for the lane-batched engine —
    composing with the process pool as workers x lanes — and ``lanes=1``
    (or ``REPRO_SIM_ENGINE=scalar``) restores strictly per-cell runs.
    Results are bit-identical however the work is split.

    ``day_lanes`` (default ``REPRO_DAY_UNFOLD``) unfolds each eligible
    cell's sampled days into ``(cell, day)`` work items: consecutive runs
    of up to ``day_lanes`` items — sibling days of one cell, or a mix of
    cells — become one lockstep lane batch per chunk, and the per-day
    summaries are folded back into each cell's :class:`YearResult` in day
    order, bit-identical to the day-sequential run.  Cells whose days are
    not provably independent (faulted, deferrable, temporal scheduling —
    see :func:`repro.analysis.experiments.day_unfold_eligible`) keep the
    day-sequential path, and a day-unfolded cell that comes back as a
    single (a retry, or recovery) unfolds in the worker instead
    (``experiments.year_result`` with ``day_lanes``), so every path
    computes the same bits.

    Streaming: ``consume`` is called with ``(index, task, result)`` as
    each cell completes (cache hits included), in completion order, and
    ``keep_results=False`` then drops the full result instead of
    retaining it — the returned list holds ``None`` in every slot and
    the parent's memory cache is not seeded, so memory stays bounded for
    arbitrarily large sweeps.  Failed cells never reach ``consume``.

    ``task_retries`` retries each failing cell (with exponential
    ``backoff_s`` doubling), ``task_timeout_s`` bounds the wait for any
    cell to complete before the pool is declared stuck, and a crashed
    worker moves the unfinished cells in-process (cache-checked first,
    so nothing is recomputed or re-written).  The pool's start method is
    ``REPRO_MP_CONTEXT``.  Without a ``failures`` list the first
    exhausted cell raises :class:`~repro.errors.TaskExecutionError`; with
    one, failed cells are appended as :class:`TaskFailure` and their
    slots stay ``None``.

    ``cost_model`` (a :class:`repro.analysis.screening.CostModel`) closes
    the calibration loop: when ``lanes`` is not given explicitly and the
    model has already observed real cells, its suggested lane width is
    used, and after the run the model observes (executed cells, elapsed
    seconds) for this batch — cache hits excluded, so the estimate always
    reflects actual simulation cost.
    """
    from repro.analysis import experiments

    workers = resolve_workers(workers)
    if (
        lanes is None
        and cost_model is not None
        and getattr(cost_model, "calibrated", False)
    ):
        lanes = cost_model.suggested_lanes()
    lanes = resolve_lanes(lanes)
    day_width = experiments.resolve_day_lanes(day_lanes, lanes)
    retries = resolve_task_retries(task_retries)
    timeout_s = resolve_task_timeout(task_timeout_s)
    results: List[Optional[YearResult]] = [None] * len(tasks)
    done = 0
    executed = 0

    def tick(task: YearTask) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(tasks), task)

    def record(index: int, result: YearResult) -> None:
        """One cell finished: stream it, retain it if asked, tick."""
        if keep_results:
            results[index] = result
        if consume is not None:
            consume(index, tasks[index], result)
        tick(tasks[index])

    def fail(index: int, err: BaseException, attempts: int) -> None:
        error = _wrap_error(tasks[index].label(), err)
        if failures is None:
            raise error
        logger.error("cell failed permanently: %s", error)
        failures.append(
            TaskFailure(task=tasks[index], error=str(error), attempts=attempts)
        )
        tick(tasks[index])

    def task_key(index: int) -> str:
        task = tasks[index]
        return experiments.cache_key(
            task.system,
            task.climate,
            task.workload,
            task.deferrable,
            task.sample_every_days,
            task.forecast_bias_c,
            plant=task.plant,
        )

    pending: List[int] = []
    for index, task in enumerate(tasks):
        cached = experiments.load_cached(
            task_key(index), use_disk_cache, cache_memory=keep_results
        )
        if cached is not None:
            record(index, cached)
        else:
            pending.append(index)

    # Partition the uncached cells: day-unfolded cells expand into
    # (cell, day) work items; other lane-engine-compatible cells group by
    # sampling stride (a lane batch steps all lanes over the same days);
    # everything else — exotic-timing or faulted configs, the scalar
    # engine, lanes=1 — runs one cell at a time.
    #
    # Day-unfolding: ``etasks`` are the *execution* tasks — an eligible
    # cell gets its unfold width stamped on, so when it comes back as a
    # single (retry, broken-pool recovery) it still unfolds in-worker via
    # ``experiments.year_result``.  Reporting (record/fail/consume/
    # progress/cache keys) always uses the original ``tasks``; the two
    # differ only in ``day_lanes``, which cache keys and labels ignore.
    etasks: List[YearTask] = list(tasks)
    day_cells: List[int] = []
    lane_groups: Dict[int, List[int]] = {}
    singles: List[int] = []
    for index in pending:
        task = tasks[index]
        system, _ = experiments._resolve_system(task.system)
        width = day_width if task.day_lanes is None else task.day_lanes
        if (
            day_width > 1
            and width > 1
            and experiments.day_unfold_eligible(system, task.deferrable)
        ):
            etasks[index] = dataclasses.replace(task, day_lanes=width)
            day_cells.append(index)
        elif lanes > 1 and experiments.effective_engine(system) == "lanes":
            sample = task.sample_every_days or experiments.DEFAULT_SAMPLE_DAYS
            lane_groups.setdefault(sample, []).append(index)
        else:
            singles.append(index)

    # (cell index, day position, day) work items for the unfolded cells,
    # in cell-then-day order, sliced into lockstep chunks of up to
    # ``day_width`` lanes.  Chunks may straddle cells — every lane carries
    # its own day — and ``day_state`` reassembles each cell's summaries
    # in day position regardless of completion order.  A cell leaves
    # ``day_state`` when it is folded or comes back as a single; its
    # summaries from day chunks still in flight are then ignored.
    day_items: List[Tuple[int, int, int]] = []
    day_state: Dict[int, Tuple[List[int], list]] = {}
    for index in day_cells:
        days = sampled_days(
            tasks[index].sample_every_days or experiments.DEFAULT_SAMPLE_DAYS
        )
        day_state[index] = (days, [None] * len(days))
        for pos, day in enumerate(days):
            day_items.append((index, pos, day))

    def chunked(items: list, width: int) -> List[list]:
        """``items`` in slices of up to ``width`` lanes.

        Spread across the workers before filling lanes, so a single
        over-full batch never starves process parallelism.
        """
        size = max(1, min(width, -(-len(items) // workers)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def single(index: int) -> _Unit:
        return _Unit("cell", _execute_task_payload, etasks[index], (index,))

    units = [
        _Unit(
            "days",
            _execute_day_chunk_payload,
            [(tasks[i], day) for i, _, day in items],
            tuple(sorted({i for i, _, _ in items})),
            tuple(items),
        )
        for items in chunked(day_items, day_width)
    ]
    for indices in lane_groups.values():
        units += [
            _Unit(
                "lanes",
                _execute_lane_chunk_payload,
                [tasks[i] for i in chunk],
                tuple(chunk),
            )
            for chunk in chunked(indices, lanes)
        ]
    units += [single(index) for index in singles]

    inline = _InlineExecutor()
    pool: Optional[WorkerPool] = None
    if workers > 1 and len(units) > 1:
        _warm_shared_state([tasks[i] for i in pending])
        pool = WorkerPool(min(workers, len(units)))
    executor = inline if pool is None else pool
    inflight: Dict[Future, _Unit] = {}
    attempts: Dict[int, int] = {}
    exec_start = time.perf_counter()

    def finished_cell(index: int, result: YearResult) -> None:
        """A cell ran: seed the memory cache if results are kept, record."""
        nonlocal executed
        executed += 1
        if keep_results:
            experiments.store_result(
                task_key(index), result, use_disk_cache=False
            )
        record(index, result)

    def take_cells(unit: _Unit) -> List[int]:
        """The unit's cells still waiting on it, released from their chunk.

        A lane chunk or single is its cells' only unit; a day-unfolded
        cell waits on several day chunks until it is folded or comes back
        as a single.
        """
        if unit.kind == "days":
            return [i for i in unit.cells if day_state.pop(i, None)]
        return list(unit.cells)

    def submit(unit: _Unit) -> None:
        """Run ``unit`` on the current executor; handle it if it finished."""
        try:
            future = executor.submit(unit.entry, unit.arg, use_disk_cache)
        except RuntimeError:  # BrokenProcessPool, or a pool shut down
            recover([unit])
            return
        if future.done():
            finish(future, unit)
        else:
            inflight[future] = unit

    def finish(future: Future, unit: _Unit) -> None:
        """The one handler for a finished unit."""
        try:
            out = future.result()
        except BrokenProcessPool:
            recover([unit])
            return
        except Exception as err:  # noqa: BLE001 - typed + retried
            retry(unit, err)
            return
        if unit.kind != "days":
            payloads = [out] if unit.kind == "cell" else out
            for index, payload in zip(unit.cells, payloads):
                finished_cell(index, experiments._result_from_json(payload))
            return
        for (index, pos, _day), summary in zip(unit.items, out):
            if index not in day_state:
                continue
            days, summaries = day_state[index]
            summaries[pos] = summary
            if None not in summaries:
                del day_state[index]
                fold_day_cell(index, days, summaries)

    def fold_day_cell(index: int, days: List[int], summaries: list) -> None:
        """All of a cell's day summaries arrived: fold them in day order.

        :func:`fold_days` makes the same float additions in the same
        order as the day-sequential run, so the folded result is
        bit-identical to it.  The parent is the cache writer for day
        chunks (workers only ever see fragments of the cell).
        """
        system, _ = experiments._resolve_system(tasks[index].system)
        result = fold_days(
            "Baseline" if isinstance(system, str) else system.name,
            tasks[index].climate.name,
            days,
            summaries,
        )
        if use_disk_cache:
            experiments._write_disk_entry(task_key(index), result)
        finished_cell(index, result)

    def retry(unit: _Unit, err: BaseException) -> None:
        """The one failure rule, the same for every unit and executor.

        A failed chunk never fails a cell: each cell still waiting on it
        comes back as a single with one more attempt, so one bad lane
        cannot poison its chunk-mates.  A single fails once its attempts
        exceed ``retries``.
        """
        cells = take_cells(unit)
        for index in cells:
            attempts[index] = attempts.get(index, 0) + 1
        if unit.kind == "cell" and attempts[cells[0]] > retries:
            fail(cells[0], err, attempts=attempts[cells[0]])
            return
        for index in cells:
            _note_retry(retried, tasks[index], attempts[index], err)
        if cells and backoff_s > 0:
            used = max(attempts[index] for index in cells)
            time.sleep(backoff_s * (2 ** (used - 1)))
        for index in cells:
            submit(single(index))

    def recover(units: List[_Unit]) -> None:
        """The pool died or stalled: finish its cells in-process.

        The first call terminates the pool and adds every in-flight unit
        it will never finish; units that did finish stay in flight and
        are handled as usual.  Each lost cell is served from the cache if
        the dying worker persisted it, else it comes back as a single
        with its attempt count unchanged.
        """
        nonlocal executor
        lost = list(units)
        if executor is not inline:
            logger.warning(
                "worker pool broke or stalled; recovering unfinished "
                "cells in-process"
            )
            executor = inline
            pool.terminate()
            for future, other in list(inflight.items()):
                if not future.done():
                    del inflight[future]
                    lost.append(other)
        for unit in lost:
            for index in take_cells(unit):
                cached = experiments.load_cached(
                    task_key(index), use_disk_cache, cache_memory=keep_results
                )
                if cached is not None:
                    record(index, cached)
                else:
                    submit(single(index))

    try:
        for unit in units:
            submit(unit)
        while inflight:
            finished, _ = wait(
                inflight, timeout=timeout_s, return_when=FIRST_COMPLETED
            )
            if not finished:
                logger.warning("no cell completed within %.0fs", timeout_s)
                recover([])
            for future in finished:
                finish(future, inflight.pop(future))
    finally:
        if pool is not None:
            # Normal exit has nothing queued; on an error exit (first
            # failure raising) this stops queued cells from running.
            pool.shutdown()

    if cost_model is not None and executed:
        cost_model.observe(executed, time.perf_counter() - exec_start)
    return results
