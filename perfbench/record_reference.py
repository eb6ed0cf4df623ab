"""Record the correctness gate's reference results from this checkout.

    python3 perfbench/record_reference.py [--workload NAME]

Runs each workload's cold campaign once (every world-grid density the
seed can pick) and writes ``perfbench/reference/<workload>.json``.  Only
re-record when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def record_matrix() -> dict:
    job = bench.Run("matrix_cold", 0, 0)
    try:
        cache = job.path("cache")
        job.build_store(job.store)
        cold = job.cli_campaign(cache, job.store)
        cells = gate.read_cache_cells(cache)
        rows = {
            key: ("baseline" if payload["label"] == "Baseline" else payload["label"])
            + "|" + payload["climate_name"]
            for key, payload in cells.items()
        }
        return {"stdout": cold.stdout().decode(), "rows": rows, "cells": cells}
    finally:
        job.close()


def record_world() -> dict:
    grids, cells = {}, {}
    for points in workloads.WORLD_POINTS:
        seed = next(s for s in range(1000) if workloads.world_points(s) == points)
        job = bench.Run("world_hybrid_cold", seed, 0)
        try:
            cache = job.path("cache")
            job.build_store(job.store)
            cold = job.cli_campaign(cache, job.store)
            observed = gate.read_cache_cells(cache)
            cells.update(observed)
            grids[str(points)] = {
                "stdout": cold.stdout().decode(),
                "cells": sorted(observed),
            }
        finally:
            job.close()
    return {"grids": grids, "cells": cells}


def record_service() -> dict:
    job = bench.Run("service_mixed", 0, 0)
    try:
        job.build_store(job.store)
        session, control, _ = job.start_service(job.path("cache"), job.store, "record")
        cold = job.service_campaign(control, job.rel("record.sock"))
        job.stop_service(session, control)
        matrix, faults = cold["results"]
        return {"matrix": matrix["cells"], "faults": faults["cells"]}
    finally:
        job.close()


RECORDERS = {
    "matrix_cold": record_matrix,
    "world_hybrid_cold": record_world,
    "service_mixed": record_service,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES)
    args = parser.parse_args()
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for name in [args.workload] if args.workload else workloads.NAMES:
        reference = RECORDERS[name]()
        with open(gate.reference_path(name), "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {gate.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
