"""The benchmark's workloads: what each runs, derived from the seed.

No ``repro`` import here; the parameters are plain data so run.py,
the probes, the reference recorder and the tests all agree on them.

* ``matrix_cold`` is the paper's fixed Figures 8-10 campaign (5 Table 1
  systems x 5 named climates) and ignores the seed.
* ``world_hybrid_cold`` draws the world-grid density from
  ``WORLD_POINTS`` by seed.
* ``service_mixed`` draws which ``SERVICE_PREFILL`` of the 25 matrix
  cells are in the result cache before the service starts: two per
  system and two per climate, so every seed leaves the same mix to run.
"""

from __future__ import annotations

import random
from typing import Dict, List

# Sampling strides: days 0 and 183 (winter and summer) for the matrix and
# the world; day 0 alone for the service, whose width-1 and scalar cells
# cost several times more per cell-day.  A run repeats its campaign
# (``run.SCHEDULE``), so these keep one run near 40-60 s.
MATRIX_SAMPLE_DAYS = 183
WORLD_SAMPLE_DAYS = 183
SERVICE_SAMPLE_DAYS = 365

MATRIX_SYSTEMS = ("baseline", "Temperature", "Energy", "Variation", "All-ND")
NAMED_CLIMATES = ("Newark", "Chad", "Santiago", "Iceland", "Singapore")
MATRIX_CELLS = len(MATRIX_SYSTEMS) * len(NAMED_CLIMATES)

WORLD_POINTS = (23, 24)
WORLD_PLANT = "hybrid"
WORLD_SYSTEMS = ("baseline", "All-ND")
WORLD_WORKERS = 2

SERVICE_WORKERS = 2
# Prefilled cells per system (and per climate) of the service's matrix job.
SERVICE_PREFILL_EACH = 2
SERVICE_PREFILL = SERVICE_PREFILL_EACH * len(MATRIX_SYSTEMS)
FAULT_SYSTEM = "All-ND"
FAULT_LOCATION = "Newark"
FAULT_SCENARIOS = 8

NAMES = ("matrix_cold", "world_hybrid_cold", "service_mixed")
# The workloads BENCHMARK.json declares.  ``matrix_cold`` still runs by
# hand; it is left out so each declared run can measure more work (its
# layers all run in ``world_hybrid_cold`` too).
DECLARED = ("world_hybrid_cold", "service_mixed")


def world_points(seed: int) -> int:
    return random.Random(f"world-{seed}").choice(WORLD_POINTS)


def prefill_cells(seed: int) -> List[int]:
    """Indices into the matrix job's cells (system-major order).

    The cells where a seed-shuffled cyclic Latin square over systems x
    climates holds one of ``SERVICE_PREFILL_EACH`` symbols: each system
    and each climate gets the same number.  A CoolAir cell costs several
    times a baseline one, so an unbalanced pick would change the work the
    service runs from seed to seed.
    """
    rng = random.Random(f"prefill-{seed}")
    n = len(NAMED_CLIMATES)
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    return sorted(
        s * n + c
        for s in range(len(MATRIX_SYSTEMS))
        for c in range(n)
        if (rows[s] + cols[c]) % n < SERVICE_PREFILL_EACH
    )


def params(workload: str, seed: int) -> Dict:
    """Everything a run of ``workload`` at ``seed`` depends on."""
    if workload == "matrix_cold":
        days = len(range(0, 365, MATRIX_SAMPLE_DAYS))
        return {"cells": MATRIX_CELLS, "days": days}
    if workload == "world_hybrid_cold":
        points = world_points(seed)
        days = len(range(0, 365, WORLD_SAMPLE_DAYS))
        return {"points": points, "cells": 2 * points, "days": days}
    if workload == "service_mixed":
        days = len(range(0, 365, SERVICE_SAMPLE_DAYS))
        return {
            "prefill": prefill_cells(seed),
            "cells": MATRIX_CELLS + FAULT_SCENARIOS,
            "days": days,
        }
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(NAMES)}")
