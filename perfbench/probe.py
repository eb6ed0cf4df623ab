"""Helper steps the benchmark runs in a fresh program interpreter.

``python perfbench/probe.py STEP --workload W --seed N``, with
``PYTHONPATH=src`` and the run's ``REPRO_CACHE_DIR`` and ``REPRO_ARTIFACTS_DIR``:

* ``store``   builds the workload's artifacts (trace, trained models,
  TMY grids) into an empty store; prints ``{"store_build_s": ...}``;
* ``setup``   loads what a CLI session needs before its first cell
  (model, trace, weather) from a warm store, then prints ``ready``;
* ``prefill`` computes ``service_mixed``'s prefilled matrix cells into
  the result cache, in-process, before the service starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def workload_tasks(workload: str, seed: int):
    """The campaign cells of ``workload``, as the program would build them."""
    from repro.analysis.runner import YearTask
    from repro.weather.locations import NAMED_LOCATIONS, world_grid

    if workload == "matrix_cold":
        return [
            YearTask(
                system=system,
                climate=NAMED_LOCATIONS[name],
                sample_every_days=workloads.MATRIX_SAMPLE_DAYS,
            )
            for system in workloads.MATRIX_SYSTEMS
            for name in workloads.NAMED_CLIMATES
        ]
    if workload == "world_hybrid_cold":
        return [
            YearTask(
                system=system,
                climate=climate,
                sample_every_days=workloads.WORLD_SAMPLE_DAYS,
                plant=workloads.WORLD_PLANT,
            )
            for climate in world_grid(workloads.world_points(seed))
            for system in workloads.WORLD_SYSTEMS
        ]
    return matrix_job_tasks() + faults_job_tasks()


def service_specs():
    """The two jobs ``service_mixed`` submits, in submission order."""
    from repro.service.spec import CampaignSpec

    return [
        CampaignSpec(
            kind="matrix",
            systems=workloads.MATRIX_SYSTEMS,
            sample_every_days=workloads.SERVICE_SAMPLE_DAYS,
        ),
        CampaignSpec(
            kind="faults",
            system=workloads.FAULT_SYSTEM,
            location=workloads.FAULT_LOCATION,
            sample_every_days=workloads.SERVICE_SAMPLE_DAYS,
        ),
    ]


def matrix_job_tasks():
    return service_specs()[0].expand()


def faults_job_tasks():
    return service_specs()[1].expand()


def load_inputs(tasks) -> None:
    """Trace, every distinct trained model and every TMY grid the cells use."""
    from repro import artifacts
    from repro.analysis import experiments
    from repro.sim.campaign import trained_cooling_model

    experiments.facebook_trace(False)
    gap_keys = []
    for task in tasks:
        if task.system == "baseline":
            continue
        faults = getattr(task.system, "faults", None)
        gaps = tuple(faults.log_gaps) if faults is not None else ()
        if gaps not in gap_keys:
            gap_keys.append(gaps)
    for gaps in gap_keys:
        trained_cooling_model(log_gaps=gaps)
    seen = set()
    for task in tasks:
        if task.climate.name not in seen:
            seen.add(task.climate.name)
            artifacts.tmy_series(task.climate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["store", "setup", "prefill"])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.step == "setup":
        import repro.cli  # noqa: F401 - a CLI session imports it first

        load_inputs(workload_tasks(args.workload, args.seed))
        print("ready", flush=True)
        return 0
    if args.step == "store":
        tasks = workload_tasks(args.workload, args.seed)
        # Imports stay outside the timed build.
        import repro.analysis.experiments  # noqa: F401
        import repro.artifacts  # noqa: F401
        import repro.sim.campaign  # noqa: F401

        start = time.perf_counter()
        load_inputs(tasks)
        print(json.dumps({"store_build_s": time.perf_counter() - start}))
        return 0
    from repro.analysis.runner import run_year_tasks

    tasks = matrix_job_tasks()
    chosen = [tasks[i] for i in workloads.prefill_cells(args.seed)]
    run_year_tasks(chosen, workers=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
