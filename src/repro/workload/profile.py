"""Aggregated day-long demand profiles for year-scale simulation.

Year-long runs repeat the same day-long workload every simulated day
(Section 5.1), so the expensive part — how many busy slot-seconds the
trace demands in each control interval — can be computed once with a fluid
(water-filling) execution model and replayed cheaply.

The fluid model shares the cluster's slot capacity fairly among eligible
unfinished jobs, capping each job's share by its remaining parallelism,
and drains map work before reduce work.  Temporal scheduling simply shifts
job eligibility times, so deferrable variants reuse the same machinery.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.traces import SECONDS_PER_DAY, Trace


@dataclasses.dataclass
class DemandProfile:
    """Per-interval workload demand for one day.

    ``busy_slot_seconds[i]`` is the slot-seconds of work executed in
    interval ``i``; ``demanded_servers[i]`` is the number of servers that
    must be active to execute it at the given slots per server.
    """

    interval_s: float
    num_servers: int
    slots_per_server: int
    busy_slot_seconds: np.ndarray

    @property
    def num_intervals(self) -> int:
        return int(self.busy_slot_seconds.shape[0])

    @property
    def demanded_servers(self) -> np.ndarray:
        """Active servers needed in each interval (ceil of busy slots)."""
        avg_busy_slots = self.busy_slot_seconds / self.interval_s
        servers = np.ceil(avg_busy_slots / self.slots_per_server).astype(int)
        return np.minimum(servers, self.num_servers)

    @property
    def utilization(self) -> np.ndarray:
        """Cluster-wide slot utilization per interval, in [0, 1]."""
        capacity = self.num_servers * self.slots_per_server * self.interval_s
        return np.clip(self.busy_slot_seconds / capacity, 0.0, 1.0)

    @property
    def average_utilization(self) -> float:
        return float(np.mean(self.utilization))

    def server_utilization(self, interval: int) -> float:
        """CPU utilization of each *active* server in an interval."""
        demanded = int(self.demanded_servers[interval])
        if demanded == 0:
            return 0.0
        busy_slots = self.busy_slot_seconds[interval] / self.interval_s
        return float(min(1.0, busy_slots / (demanded * self.slots_per_server)))


def build_demand_profile(
    trace: Trace,
    num_servers: int = 64,
    slots_per_server: int = 2,
    interval_s: float = 600.0,
) -> DemandProfile:
    """Run the fluid execution model over one day of the trace."""
    if interval_s <= 0:
        raise WorkloadError("interval_s must be positive")
    num_intervals = int(math.ceil(SECONDS_PER_DAY / interval_s))
    busy = np.zeros(num_intervals)

    # Per-job state: (eligible_time, map_work, reduce_work, map_cap, red_cap)
    state = [
        {
            "eligible": job.effective_start_s,
            "map_work": job.map_work_s,
            "reduce_work": job.reduce_work_s,
            "map_cap": job.num_maps,
            "reduce_cap": max(1, job.num_reduces),
        }
        for job in trace.jobs
    ]

    capacity_slots = num_servers * slots_per_server
    for interval in range(num_intervals):
        t0 = interval * interval_s
        t1 = t0 + interval_s
        active = [
            s
            for s in state
            if s["eligible"] < t1 and (s["map_work"] > 0 or s["reduce_work"] > 0)
        ]
        if not active:
            continue
        remaining_capacity = capacity_slots * interval_s
        # Water-filling: repeatedly hand each unsatisfied job an equal share
        # capped by its parallelism and remaining work.
        pending = list(active)
        while pending and remaining_capacity > 1e-9:
            share = remaining_capacity / len(pending)
            next_pending = []
            for job_state in pending:
                in_map = job_state["map_work"] > 0
                cap_slots = job_state["map_cap"] if in_map else job_state["reduce_cap"]
                work = job_state["map_work"] if in_map else job_state["reduce_work"]
                # A job cannot use more slot-seconds than its parallelism
                # allows in this interval, nor more than its remaining work.
                grant = min(share, cap_slots * interval_s, work)
                if in_map:
                    job_state["map_work"] -= grant
                else:
                    job_state["reduce_work"] -= grant
                busy[interval] += grant
                remaining_capacity -= grant
                still_hungry = (
                    grant >= share - 1e-9
                    and (job_state["map_work"] > 0 or job_state["reduce_work"] > 0)
                )
                if still_hungry:
                    next_pending.append(job_state)
            if len(next_pending) == len(pending) and share < 1e-9:
                break
            pending = next_pending

    return DemandProfile(
        interval_s=interval_s,
        num_servers=num_servers,
        slots_per_server=slots_per_server,
        busy_slot_seconds=busy,
    )


# (id(trace), num_servers, interval_s) -> (weak reference to the trace,
# its initial profile).  The weak reference tells a live trace from a
# dead one whose id was reused.
_initial_profiles: Dict[
    Tuple[int, int, float], Tuple[weakref.ref, DemandProfile]
] = {}


def initial_demand_profile(
    trace: Trace, num_servers: int, interval_s: float
) -> DemandProfile:
    """``build_demand_profile(trace, ...)``, memoized per process.

    Year runs build the same initial profile for every cell and lane that
    steps one trace, so it is kept per trace identity.  Only a trace with
    no job rescheduled is memoized: the temporal scheduler's start times
    change the profile, so such a trace is built afresh every time.  The
    returned profile is shared; callers replace it (as
    ``ProfileWorkload.rebuild`` does), never mutate it.
    """
    if any(job.scheduled_start_s is not None for job in trace.jobs):
        return build_demand_profile(
            trace, num_servers=num_servers, interval_s=interval_s
        )
    key = (id(trace), num_servers, interval_s)
    entry = _initial_profiles.get(key)
    if entry is not None and entry[0]() is trace:
        return entry[1]
    profile = build_demand_profile(
        trace, num_servers=num_servers, interval_s=interval_s
    )
    _initial_profiles[key] = (weakref.ref(trace), profile)
    return profile
