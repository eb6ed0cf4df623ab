"""Shared experiment runner for the benchmark harness.

Figures 8, 9, and 10 all read from the same 5-locations x N-systems year
matrix, and several Section 5.2 studies reuse subsets of it, so this module
runs each (system, location, workload) combination once and caches the
:class:`~repro.sim.yearsim.YearResult` both in memory and on disk (JSON
under ``.cache/`` at the repository root).  Delete the cache directory to
force fresh runs.

Cache contract (see ``docs/EXPERIMENTS.md`` for the full write-up):

* Entries are keyed by a *versioned* cache key: the system's config
  fingerprint (name + a hash of every :class:`CoolAirConfig` field), the
  climate, the workload settings, and ``CACHE_SCHEMA_VERSION``.  Changing
  a version's configuration or bumping the schema version silently starts
  a fresh cache generation instead of serving stale results.
* Writes are atomic (temp file + ``os.replace``) so concurrent workers —
  see :mod:`repro.analysis.runner` — never expose half-written entries.
* Corrupt or mismatched entries are treated as misses and recomputed,
  never crashed on.

Environment knobs (for CI-speed vs fidelity trade-offs):

* ``REPRO_SAMPLE_DAYS`` — stride between simulated days (default 14; set
  to 7 for the paper's exact first-day-of-each-week sampling; larger =
  faster).
* ``REPRO_TRACE_JOBS`` — number of jobs in the generated Facebook trace
  (default 1200; the paper's full 5500 changes utilization little because
  traces are rescaled to the same average utilization).
* ``REPRO_WORLD_LOCATIONS`` — world-grid size for Figures 12/13
  (default 24; the paper uses 1520 — set it for a full run).
* ``REPRO_WORKERS`` — worker processes for the campaign runner
  (default ``os.cpu_count()``; 1 forces serial execution).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro import artifacts
from repro.core.config import CoolAirConfig
from repro.errors import ConfigError
from repro.core.versions import ALL_VERSIONS
from repro.sim.campaign import trained_cooling_model
from repro.sim.yearsim import YearResult, run_year
from repro.weather.climate import Climate
from repro.weather.locations import NAMED_LOCATIONS, world_grid
from repro.workload.traces import FacebookTraceGenerator, NutchTraceGenerator, Trace

# ``REPRO_CACHE_DIR`` relocates the result cache (spawned workers and
# subprocess benchmarks inherit it through the environment, unlike a
# monkeypatched module attribute).
CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_CACHE_DIR")
    or pathlib.Path(__file__).resolve().parents[3] / ".cache"
)

# Bump whenever the simulator or the YearResult payload changes meaning:
# entries written under a different schema version are recomputed.
# v3: half-up sensor quantization + daily_degraded_fraction payload field.
# v4: day boundaries reset actuator/latch/disk state, making sampled days
#     independent (the invariant behind day-unfolded lane scheduling).
# v5: a temporal-policy day that moves no job replays the initial demand
#     profile, not the previous day's rescheduled one (All-DEF and
#     Energy-DEF cells can change).
CACHE_SCHEMA_VERSION = 5

DEFAULT_SAMPLE_DAYS = int(os.environ.get("REPRO_SAMPLE_DAYS", "14"))
DEFAULT_TRACE_JOBS = int(os.environ.get("REPRO_TRACE_JOBS", "1200"))
DEFAULT_WORLD_LOCATIONS = int(os.environ.get("REPRO_WORLD_LOCATIONS", "24"))

# Which numeric path computes year runs: the lane-batched engine
# (``repro.sim.lanes``, the default) or the scalar reference
# (``repro.sim.yearsim``).  The two are maintained bit-identical (see
# ``tests/test_lane_equivalence.py``), but the cache key still records the
# engine so results can never be served across numeric paths whose
# equivalence has not been proven for that configuration.
DEFAULT_SIM_ENGINE = os.environ.get("REPRO_SIM_ENGINE", "lanes")
SIM_ENGINES = ("lanes", "scalar")

# How many scenarios each lane-batched chunk steps in lockstep (see
# ``run_year_lanes``); composes with worker processes as workers x lanes.
DEFAULT_LANES = int(os.environ.get("REPRO_LANES", "8"))


def resolve_day_lanes(
    day_lanes: Optional[int] = None, lanes: Optional[int] = None
) -> int:
    """The day-unfold width a run should use (1 = stay day-sequential).

    An explicit ``day_lanes`` argument always wins.  Otherwise
    ``REPRO_DAY_UNFOLD`` decides: unset/``0`` keeps the day-sequential
    path, ``1`` unfolds to the run's lane width (``lanes`` if given, else
    ``REPRO_LANES``), and any other integer is an explicit width.  Read
    per call so spawned workers inherit it through the environment.
    """
    if day_lanes is not None:
        if day_lanes < 1:
            raise ConfigError(f"day_lanes must be >= 1, got {day_lanes}")
        return int(day_lanes)
    raw = os.environ.get("REPRO_DAY_UNFOLD", "0").strip()
    if raw in ("", "0"):
        return 1
    if raw == "1":
        return lanes if lanes is not None else DEFAULT_LANES
    try:
        width = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_DAY_UNFOLD must be a non-negative integer, got {raw!r}"
        )
    if width < 1:
        raise ConfigError(f"REPRO_DAY_UNFOLD must be >= 0, got {raw!r}")
    return width

_memory_cache: Dict[str, YearResult] = {}
_trace_cache: Dict[str, Trace] = {}


def facebook_trace(deferrable: bool = False) -> Trace:
    """The (cached) day-long Facebook workload trace.

    Served from the artifact store when enabled — generated once per
    (params, deferrable) key on a machine, materialized from the columnar
    entry everywhere else — and memoized per process either way.
    """
    key = f"facebook-{deferrable}-{DEFAULT_TRACE_JOBS}"
    if key not in _trace_cache:
        generator = FacebookTraceGenerator(num_jobs=DEFAULT_TRACE_JOBS)
        _trace_cache[key] = artifacts.materialize_trace(
            "facebook",
            {
                "num_jobs": generator.num_jobs,
                "seed": generator.seed,
                "target_utilization": generator.target_utilization,
                "num_servers": generator.num_servers,
                "slots_per_server": generator.slots_per_server,
                "deferrable": deferrable,
            },
            lambda: generator.generate(deferrable=deferrable),
        )
    return _trace_cache[key]


def nutch_trace(deferrable: bool = False) -> Trace:
    """The (cached) day-long Nutch workload trace."""
    key = f"nutch-{deferrable}"
    if key not in _trace_cache:
        generator = NutchTraceGenerator()
        _trace_cache[key] = artifacts.materialize_trace(
            "nutch",
            {
                "num_jobs": generator.num_jobs,
                "mean_interarrival_s": generator.mean_interarrival_s,
                "seed": generator.seed,
                "target_utilization": generator.target_utilization,
                "num_servers": generator.num_servers,
                "slots_per_server": generator.slots_per_server,
                "deferrable": deferrable,
            },
            lambda: generator.generate(deferrable=deferrable),
        )
    return _trace_cache[key]


def workload_trace(workload: str, deferrable: bool = False) -> Trace:
    """The cached trace of a cell's workload: ``"facebook"`` or ``"nutch"``."""
    if workload == "facebook":
        return facebook_trace(deferrable)
    return nutch_trace(deferrable)


# -- cache schema --------------------------------------------------------------


def _result_to_json(result: YearResult) -> dict:
    payload = {
        "label": result.label,
        "climate_name": result.climate_name,
        "sampled_days": result.sampled_days,
        "daily_worst_range_c": result.daily_worst_range_c,
        "daily_outside_range_c": result.daily_outside_range_c,
        "daily_avg_violation_c": result.daily_avg_violation_c,
        "daily_max_rate_c_per_hour": result.daily_max_rate_c_per_hour,
        "cooling_kwh": result.cooling_kwh,
        "it_kwh": result.it_kwh,
        "delivery_overhead": result.delivery_overhead,
        "water_l": result.water_l,
        "daily_degraded_fraction": result.daily_degraded_fraction,
    }
    # Regime occupancy only appears for runs that had any (the hybrid
    # plant), keeping every other payload byte-identical to before the
    # fields existed; absent keys load as the 0.0 defaults.
    if result.tower_mech_hours or result.chiller_mech_hours:
        payload["tower_mech_hours"] = result.tower_mech_hours
        payload["chiller_mech_hours"] = result.chiller_mech_hours
    return payload


def _result_from_json(payload: dict) -> YearResult:
    return YearResult(**payload)


def config_fingerprint(system: Union[str, CoolAirConfig]) -> str:
    """A cache-key component that changes whenever the config changes.

    ``"baseline"`` fingerprints as itself; a :class:`CoolAirConfig` as its
    name plus a hash over every field, so two configs that share a name
    but differ in any setting never collide, and editing a version's
    defaults invalidates its old cache entries.
    """
    if isinstance(system, str):
        return system
    blob = json.dumps(
        dataclasses.asdict(system), sort_keys=True, default=str
    )
    digest = hashlib.sha1(blob.encode()).hexdigest()[:10]
    return f"{system.name}-{digest}"


def effective_engine(
    system: Union[str, CoolAirConfig],
    engine: Optional[str] = None,
) -> str:
    """The simulation engine a run of ``system`` would actually use.

    Thin wrapper over :func:`repro.sim.eligibility.decide_engine` (the
    single statement of the rules) that resolves the requested engine
    from ``REPRO_SIM_ENGINE``.  A config with exotic timing or a
    non-empty :class:`~repro.faults.FaultSchedule` falls back to the
    scalar reference path (and is fingerprinted as such, so the cache
    stays honest about which numeric path produced each entry); every
    cooling plant rides the lane engine.
    """
    from repro.sim.eligibility import decide_engine

    return decide_engine(system, engine or DEFAULT_SIM_ENGINE).engine


def _resolve_system(
    system: Union[str, CoolAirConfig]
) -> Tuple[Union[str, CoolAirConfig], str]:
    """Named Table 1 versions become configs; returns (system, label)."""
    if isinstance(system, str) and system != "baseline":
        system = ALL_VERSIONS[system]()
    label = system if isinstance(system, str) else system.name
    return system, label


def day_unfold_eligible(
    system: Union[str, CoolAirConfig],
    deferrable: bool = False,
    engine: Optional[str] = None,
) -> bool:
    """Whether a cell's sampled days may be unfolded into lanes.

    Day-unfolding simulates a year's sampled days side by side, which is
    only valid when every day is provably independent of the days before
    it.  Three things break that today and route to the day-sequential
    path instead:

    * the scalar engine (faulted cells and exotic timing already fall
      back there via :func:`effective_engine` — fault schedules are
      day-granular state the unfold cannot replay);
    * deferrable workloads (their traces exist to be temporally
      rescheduled); and
    * any temporal-scheduling policy other than ``NONE`` (the scheduler
      mutates job start times across days — All-DEF and Energy-DEF).

    Thin wrapper over :func:`repro.sim.eligibility.decide_engine`, which
    states those rules once for every caller.
    """
    from repro.sim.eligibility import decide_engine

    system, _ = _resolve_system(system)
    return decide_engine(
        system, engine or DEFAULT_SIM_ENGINE, deferrable=deferrable
    ).day_unfold


def cache_key(
    system: Union[str, CoolAirConfig],
    climate: Climate,
    workload: str = "facebook",
    deferrable: bool = False,
    sample_every_days: Optional[int] = None,
    forecast_bias_c: float = 0.0,
    engine: Optional[str] = None,
    plant: str = "parasol",
) -> str:
    """The versioned cache key for one (system, location, workload) run.

    Besides the config fingerprint, the key pins every numeric-path switch
    that could change bits: the simulation engine (lane-batched vs the
    scalar reference) joins the schema version here, so flipping
    ``REPRO_SIM_ENGINE`` starts a separate cache generation instead of
    serving results computed by a different code path.  The cooling plant
    adds a ``-p{plant}`` token only when it is not the default
    ``parasol``, keeping every pre-backend key byte-identical.
    """
    system, _ = _resolve_system(system)
    sample = sample_every_days or DEFAULT_SAMPLE_DAYS
    engine = effective_engine(system, engine)
    plant_token = "" if plant == "parasol" else f"-p{plant}"
    return (
        f"{config_fingerprint(system)}-{climate.name}-{workload}"
        f"-def{deferrable}-s{sample}"
        f"-b{forecast_bias_c:+.1f}-j{DEFAULT_TRACE_JOBS}"
        f"-e{engine}{plant_token}-v{CACHE_SCHEMA_VERSION}"
    )


def cache_path(key: str) -> pathlib.Path:
    return CACHE_DIR / f"{key}.json"


def _load_disk_entry(key: str) -> Optional[YearResult]:
    """Read one cache entry; any corruption or mismatch is a miss."""
    path = cache_path(key)
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("key") != key:
            return None
        return _result_from_json(payload["result"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def _write_disk_entry(key: str, result: YearResult) -> None:
    """Atomically persist one entry (safe under concurrent writers)."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "key": key,
        "result": _result_to_json(result),
    }
    path = cache_path(key)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def load_cached(
    key: str, use_disk_cache: bool = True, cache_memory: bool = True
) -> Optional[YearResult]:
    """Memory-then-disk lookup; returns None on a miss.

    ``cache_memory=False`` skips seeding the in-process memory cache on a
    disk hit — the streaming world sweep folds each result into compact
    summary columns instead of pinning the whole matrix in the parent.
    """
    if key in _memory_cache:
        return _memory_cache[key]
    if not use_disk_cache:
        return None
    result = _load_disk_entry(key)
    if result is not None and cache_memory:
        _memory_cache[key] = result
    return result


def store_result(
    key: str, result: YearResult, use_disk_cache: bool = True
) -> None:
    _memory_cache[key] = result
    if use_disk_cache:
        _write_disk_entry(key, result)


# -- the single-run entry point ------------------------------------------------


def year_result(
    system: Union[str, CoolAirConfig],
    climate: Climate,
    workload: str = "facebook",
    deferrable: bool = False,
    sample_every_days: Optional[int] = None,
    forecast_bias_c: float = 0.0,
    use_disk_cache: bool = True,
    engine: Optional[str] = None,
    day_lanes: Optional[int] = None,
    plant: Optional[str] = None,
) -> YearResult:
    """One cached year run.

    ``system`` is ``"baseline"``, a version name from Table 1 (e.g.
    ``"All-ND"``), or an explicit :class:`CoolAirConfig`.  ``engine``
    selects the numeric path (default ``REPRO_SIM_ENGINE``); a single
    task runs as a one-lane batch under the lane engine, bit-identical to
    the scalar reference.  ``day_lanes`` > 1 (default
    ``REPRO_DAY_UNFOLD``) unfolds an eligible cell's sampled days into
    that many lanes stepped in lockstep — bit-identical again, so the
    cache key does not record it.  ``plant`` selects the cooling backend
    (default ``REPRO_PLANT`` or ``parasol``); every backend rides the
    lane engine through its lane-vectorized units.
    """
    key, result = cell_result(
        system,
        climate,
        workload,
        deferrable,
        sample_every_days,
        forecast_bias_c,
        use_disk_cache,
        engine,
        day_lanes,
        plant,
    )
    _memory_cache[key] = result
    return result


def cell_result(
    system: Union[str, CoolAirConfig],
    climate: Climate,
    workload: str = "facebook",
    deferrable: bool = False,
    sample_every_days: Optional[int] = None,
    forecast_bias_c: float = 0.0,
    use_disk_cache: bool = True,
    engine: Optional[str] = None,
    day_lanes: Optional[int] = None,
    plant: Optional[str] = None,
) -> Tuple[str, YearResult]:
    """:func:`year_result` without seeding the memory cache.

    Returns ``(cache key, result)``: a cache hit, or a fresh run persisted
    to the disk cache only.  The campaign runner's worker entry points run
    cells through it, so a worker — a long-lived pool process, or the
    parent of a streaming run — never pins the cells it computed.
    """
    from repro.cooling.backends import resolve_plant

    plant = resolve_plant(plant)
    sample = sample_every_days or DEFAULT_SAMPLE_DAYS
    system, _ = _resolve_system(system)
    engine = effective_engine(system, engine)
    key = cache_key(
        system,
        climate,
        workload,
        deferrable,
        sample,
        forecast_bias_c,
        engine,
        plant,
    )
    cached = load_cached(key, use_disk_cache, cache_memory=False)
    if cached is not None:
        return key, cached

    trace = workload_trace(workload, deferrable)
    if isinstance(system, str):
        model = None
    else:
        gaps = system.faults.log_gaps if system.faults is not None else ()
        model = trained_cooling_model(log_gaps=gaps)
    if engine == "lanes":
        from repro.sim.lanes import (
            LaneScenario,
            run_year_lanes,
            run_year_unfolded,
        )

        scenario = LaneScenario(
            system=system,
            climate=climate,
            trace=trace,
            forecast_bias_c=forecast_bias_c,
            plant=plant,
        )
        width = resolve_day_lanes(day_lanes)
        if width > 1 and day_unfold_eligible(system, deferrable, engine):
            result = run_year_unfolded(
                scenario, width, model=model, sample_every_days=sample
            )
        else:
            (result,) = run_year_lanes(
                [scenario], model=model, sample_every_days=sample
            )
    else:
        result = run_year(
            system,
            climate,
            trace,
            model=model,
            sample_every_days=sample,
            forecast_bias_c=forecast_bias_c,
            plant=plant,
        )
    if use_disk_cache:
        _write_disk_entry(key, result)
    return key, result


# -- campaign matrices ---------------------------------------------------------

FIVE_LOCATION_SYSTEMS: Tuple[str, ...] = (
    "baseline",
    "Temperature",
    "Energy",
    "Variation",
    "All-ND",
)


def five_location_matrix(
    systems: Tuple[str, ...] = FIVE_LOCATION_SYSTEMS,
    workload: str = "facebook",
    sample_every_days: Optional[int] = None,
    workers: Optional[int] = None,
    lanes: Optional[int] = None,
    day_lanes: Optional[int] = None,
    progress=None,
    task_retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    failures: Optional[list] = None,
    plant: Optional[str] = None,
) -> Dict[str, Dict[str, YearResult]]:
    """The Figures 8-10 matrix: {system: {location: YearResult}}.

    ``workers`` fans uncached cells out over worker processes (see
    :mod:`repro.analysis.runner`) and ``lanes`` batches cells into
    lockstep lane groups within each worker (workers x lanes cells in
    flight); ``None`` resolves ``REPRO_WORKERS`` / CPU count and
    ``REPRO_LANES``.  Results are identical any way the work is split.

    ``task_retries`` / ``task_timeout_s`` tune the runner's failure
    handling, and passing a ``failures`` list collects failed cells
    (as :class:`~repro.analysis.runner.TaskFailure`) instead of raising
    on the first one; failed cells are omitted from the matrix.
    """
    from repro.analysis.runner import YearTask, run_year_tasks
    from repro.cooling.backends import resolve_plant

    plant = resolve_plant(plant)
    tasks = []
    cells = []
    for system in systems:
        for name, climate in NAMED_LOCATIONS.items():
            deferrable = system in ("All-DEF", "Energy-DEF")
            tasks.append(YearTask(
                system=system,
                climate=climate,
                workload=workload,
                deferrable=deferrable,
                sample_every_days=sample_every_days,
                plant=plant,
            ))
            cells.append((system, name))
    results = run_year_tasks(
        tasks,
        workers=workers,
        lanes=lanes,
        day_lanes=day_lanes,
        progress=progress,
        task_retries=task_retries,
        task_timeout_s=task_timeout_s,
        failures=failures,
    )
    matrix: Dict[str, Dict[str, YearResult]] = {}
    for (system, name), result in zip(cells, results):
        if result is not None:
            matrix.setdefault(system, {})[name] = result
    return matrix


def resolve_stream(stream: Optional[bool] = None) -> bool:
    """Whether the world sweep streams (``REPRO_STREAM_WORLD``, on by
    default); an explicit argument always wins."""
    if stream is not None:
        return stream
    return os.environ.get("REPRO_STREAM_WORLD", "1") != "0"


def world_sweep(
    num_locations: Optional[int] = None,
    coolair_system: str = "All-ND",
    sample_every_days: Optional[int] = None,
    workers: Optional[int] = None,
    lanes: Optional[int] = None,
    day_lanes: Optional[int] = None,
    progress=None,
    task_retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    failures: Optional[list] = None,
    stream: Optional[bool] = None,
    screen: Optional[str] = None,
    screen_policy=None,
    screen_stats: Optional[dict] = None,
    plant: Optional[str] = None,
):
    """The Figures 12/13 worldwide study as a :class:`WorldSummary`.

    Runs ``baseline`` and ``coolair_system`` for every grid climate
    (``num_locations`` defaults to ``REPRO_WORLD_LOCATIONS``), fanning
    uncached cells out over ``workers`` processes with ``lanes`` cells
    stepped in lockstep per worker.  With a ``failures`` list, failed
    cells are collected instead of raising; a climate missing either of
    its (baseline, coolair) results is dropped from the summary.

    ``stream`` (default ``REPRO_STREAM_WORLD``, on) folds each completed
    cell into compact summary columns as it lands instead of holding the
    full result list in the parent — bit-identical output, parent memory
    bounded by the grid size (see
    :class:`~repro.analysis.worldmap.StreamingWorldAccumulator`).

    ``screen`` (default ``REPRO_SCREEN``, off) selects the screening
    pipeline for planetary-scale grids: ``"on"`` fully simulates only
    climate-cluster representatives plus surrogate-uncertain cells and
    serves the rest with bounded corrections and provenance tags (see
    :mod:`repro.analysis.screening`; ``screen_policy`` tunes it).
    ``"off"`` is the exhaustive path, bit-identical to previous
    releases.  Passing a ``screen_stats`` dict collects the run's
    provenance counters, cluster stats, and cost-model snapshot.
    """
    from repro.analysis.runner import YearTask, run_year_tasks
    from repro.analysis.screening import resolve_screen
    from repro.analysis.worldmap import summarize_world
    from repro.cooling.backends import resolve_plant

    plant = resolve_plant(plant)
    mode = resolve_screen(screen)
    climates = world_grid(num_locations or DEFAULT_WORLD_LOCATIONS)
    if mode == "on":
        return _screened_world_sweep(
            climates,
            coolair_system,
            sample_every_days=sample_every_days,
            workers=workers,
            lanes=lanes,
            day_lanes=day_lanes,
            progress=progress,
            task_retries=task_retries,
            task_timeout_s=task_timeout_s,
            failures=failures,
            policy=screen_policy,
            screen_stats=screen_stats,
            plant=plant,
        )
    tasks = []
    for climate in climates:
        for system in ("baseline", coolair_system):
            tasks.append(YearTask(
                system=system,
                climate=climate,
                sample_every_days=sample_every_days,
                plant=plant,
            ))
    if resolve_stream(stream):
        from repro.analysis.worldmap import StreamingWorldAccumulator

        accumulator = StreamingWorldAccumulator(climates, coolair_system)
        run_year_tasks(
            tasks,
            workers=workers,
            lanes=lanes,
            day_lanes=day_lanes,
            progress=progress,
            task_retries=task_retries,
            task_timeout_s=task_timeout_s,
            failures=failures,
            consume=accumulator.consume,
            keep_results=False,
        )
        return accumulator.summary()
    results = run_year_tasks(
        tasks,
        workers=workers,
        lanes=lanes,
        day_lanes=day_lanes,
        progress=progress,
        task_retries=task_retries,
        task_timeout_s=task_timeout_s,
        failures=failures,
    )
    # Pair each climate's (baseline, coolair) results by task identity —
    # positional 2*i indexing silently mispairs if the task layout above
    # ever changes (and did not survive reordering or filtering).
    by_task: Dict[Tuple[str, str], YearResult] = {}
    for task, result in zip(tasks, results):
        if result is None:
            continue
        name = (
            task.system if isinstance(task.system, str) else task.system.name
        )
        by_task[(task.climate.name, name)] = result
    pairs = []
    coordinates = []
    for c in climates:
        baseline = by_task.get((c.name, "baseline"))
        coolair = by_task.get((c.name, coolair_system))
        if baseline is None or coolair is None:
            continue
        pairs.append((baseline, coolair))
        coordinates.append((c.latitude, c.longitude))
    return summarize_world(pairs, coordinates)


def _screened_world_sweep(
    climates,
    coolair_system: str,
    sample_every_days: Optional[int] = None,
    workers: Optional[int] = None,
    lanes: Optional[int] = None,
    day_lanes: Optional[int] = None,
    progress=None,
    task_retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    failures: Optional[list] = None,
    policy=None,
    screen_stats: Optional[dict] = None,
    plant: str = "parasol",
):
    """The screened world sweep: simulate representatives + uncertain
    cells, serve the rest (see :mod:`repro.analysis.screening`).

    Always streams (the whole point is grids too large to hold results
    for).  Phase 1 simulates one representative per climate cluster,
    phase 2 promotes the cells the surrogate is uncertain about, phase 3
    prices everything else from cluster representatives or the surrogate
    and tags provenance.  The cost model observes both simulation phases
    and sizes phase 2's lane batches when ``lanes`` is not forced.
    """
    from repro.analysis.runner import run_year_tasks
    from repro.analysis.screening import ScreeningSession
    from repro.analysis.worldmap import StreamingWorldAccumulator

    session = ScreeningSession(
        climates,
        coolair_system=coolair_system,
        policy=policy,
        sample_every_days=sample_every_days,
        plant=plant,
    )
    accumulator = StreamingWorldAccumulator(climates, coolair_system)
    common = dict(
        workers=workers,
        day_lanes=day_lanes,
        progress=progress,
        task_retries=task_retries,
        task_timeout_s=task_timeout_s,
        failures=failures,
        consume=accumulator.consume,
        keep_results=False,
        cost_model=session.cost_model,
    )
    run_year_tasks(session.representative_tasks(), lanes=lanes, **common)
    uncertain = session.uncertain_tasks(accumulator)
    if uncertain:
        run_year_tasks(uncertain, lanes=lanes, **common)
    counters = session.serve(accumulator)
    if screen_stats is not None:
        screen_stats.update(
            {
                "counters": counters.to_json(),
                "grid_points": len(session.climates),
                "clusters": len(session.clusters),
                "cluster_tol": session.effective_tol,
                "simulated_locations": session.simulated_locations,
                "promoted_locations": session.promoted_locations,
                "cells_simulated": 2 * session.simulated_locations,
                "cost_model": session.cost_model.snapshot(),
            }
        )
    return accumulator.summary(partial=True)
