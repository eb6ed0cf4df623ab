"""Campaign benchmark for the CoolAir reproduction.

Runs one workload from outside the program, the way a user does: the
``python -m repro matrix|world|serve`` front ends and the service
client, each against a fresh cache directory.  See ``perfbench/README.md``.

    python3 perfbench/run.py --workload world_hybrid_cold --seed 1 --seconds 40 --trace 0

Each run has four phases: build the artifact store from empty, start a
fresh session, run the cold campaign, replay it warm on the filled result
cache.  Further warm replays and session start-ups fill the run to
``--seconds``; the benchmark reports their medians.  Every run ends with
the correctness gate (``gate.py``).  Timed samples are reported at a
reference host speed, set by a calibration kernel timed between sessions
(``speed.py``); the raw values are in the meta line.  The last stdout
line is the result object; with ``--trace 1`` the run is repeated with
the layer wrappers installed (``traced_main.py``) and the per-layer
table is reported instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Any single program session is killed after this long; a run must end
# within 180 s, so one stuck session cannot hang it.
SESSION_TIMEOUT_S = 150.0
# Pool workers get this long to exit after their session ends.
STRAY_GRACE_S = 10.0
# How often a session's peak RSS (and, traced, its process group) is read.
POLL_S = 0.02
# Per workload: cold campaigns per run, warm replays after each, and a
# throwaway store build after every n-th campaign; metrics are medians.
# A replay is cheap and its time short, so it is sampled more.  The
# service's single-cell latencies spread most, and its store build costs
# most, so it runs more campaigns and fewer store builds.
SCHEDULE = {
    "matrix_cold": (4, 3, 1),
    "world_hybrid_cold": (4, 3, 1),
    "service_mixed": (6, 2, 2),
}
# Repeated phases (store build, session start-up, warm replay) run at
# least this often, and keep running until the run has lasted --seconds.
MIN_REPEATS = 3
REPEATED = ("store_build_s", "setup_s", "warm_replay_s")
# The traced session's layers plus ``other`` must match its wall time,
# and the worker tables the workers seen, within this share.
TRACE_TOLERANCE = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("store_build_s", "s"),
    ("cell_days_per_s", "cell-days/s"),
    ("first_cell_s", "s"),
    ("cell_latency_p50_s", "s"),
    ("cell_latency_tail_s", "s"),
    ("warm_replay_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Metrics scaled to the reference host speed (``speed.py``): times are
# multiplied by the scale, rates divided; memory is left as measured.
RATES = ("cell_days_per_s",)
UNSCALED = ("peak_rss_mb",)

SELF_LAYERS = (
    "sim.lanes", "sim.engine", "core.predictor", "core.optimizer",
    "core.utility", "core.compute", "physics.thermal",
    "physics.psychrometrics", "cooling.backends", "cooling.baseline",
    "workload", "weather", "sim.trace", "analysis.runner", "artifacts",
    "sim.campaign", "analysis.worldmap", "service",
)
CALL_LAYERS = (
    "core.predictor", "core.optimizer", "core.utility", "core.compute",
    "physics.thermal", "physics.psychrometrics", "cooling.backends",
    "cooling.baseline", "workload",
)
# Layers of the learning campaign and model fit that a store build runs.
STORE_LAYERS = (
    "sim.campaign", "sim.engine", "physics.thermal", "physics.psychrometrics",
    "workload", "weather", "artifacts",
)
CONTROL_LAYERS = ("core.predictor", "core.utility", "core.optimizer", "core.compute")
PLANT_LAYERS = ("physics.thermal", "physics.psychrometrics", "cooling.backends")


def per_layer_names() -> List[tuple]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    names += [(f"{layer}.calls", "count") for layer in CALL_LAYERS]
    names += [
        ("sim.lanes.setup_s", "s"),
        ("sim.lanes.lane_days", "count"),
        ("sim.lanes.width_mean", "lanes"),
        ("sim.engine.days", "count"),
        ("sim.campaign.days", "count"),
        ("core.predictor.candidates", "count"),
        ("core.coolair.start_day_s", "s"),
        ("physics.psychrometrics.elements", "count"),
        ("analysis.runner.wait_s", "s"),
        ("analysis.runner.chunks", "count"),
        ("analysis.runner.lane_fill", "ratio"),
        ("analysis.runner.payload_bytes", "B"),
        ("analysis.runner.worker_setup_s", "s"),
        ("analysis.runner.retries", "count"),
        ("analysis.experiments.cache_hits", "count"),
        ("analysis.experiments.cache_misses", "count"),
        ("analysis.experiments.cache_read_s", "s"),
        ("analysis.experiments.cache_write_s", "s"),
        ("artifacts.hits", "count"),
        ("artifacts.misses", "count"),
        ("service.queue_wait_s", "s"),
        ("service.execute_s", "s"),
        ("service.idle_s", "s"),
        ("service.executed", "count"),
        ("service.cached", "count"),
        ("service.deduped", "count"),
        ("service.pool_resets", "count"),
        ("other.self_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.busy_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.closure", "ratio"),
        ("trace.worker_tables", "count"),
        ("trace.workers_seen", "count"),
        ("trace.control_share", "ratio"),
        ("trace.plant_share", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    names += [(f"store.{layer}.self_s", "s") for layer in STORE_LAYERS]
    names += [
        ("store.sim.campaign.days", "count"),
        ("store.other.self_s", "s"),
        ("store.trace.traced_s", "s"),
        ("store.trace.closure", "ratio"),
    ]
    return names


class BenchError(RuntimeError):
    """The run cannot produce a result (the program did not run)."""


# -- program sessions ------------------------------------------------------------


class Session:
    """One program process in its own process group, timed from launch.

    Stdout and stderr lines are timestamped as they arrive.  A poller
    reads the main process's VmHWM every ``POLL_S`` while it runs (the
    mark only grows, so the last read is its peak) and, with
    ``watch_group``, records every other process of its group: the
    workers it forked.  ``strays`` checks, after ``wait``, that no
    process of the group (pool workers included) outlived it.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], watch_group: bool = False) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.end: Optional[float] = None
        self.returncode: Optional[int] = None
        self.peak_rss_mb = 0.0
        self.workers_seen: set = set()
        self._watch_group = watch_group
        self._reaped = threading.Event()
        self.out: List[tuple] = []
        self.err: List[tuple] = []
        self._line = threading.Condition()
        self._readers = [
            threading.Thread(target=self._read, args=(self.proc.stdout, self.out), daemon=True),
            threading.Thread(target=self._read, args=(self.proc.stderr, self.err), daemon=True),
        ]
        self._poller = threading.Thread(target=self._poll, daemon=True)
        for thread in self._readers + [self._poller]:
            thread.start()
        self._watchdog = threading.Timer(SESSION_TIMEOUT_S, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _poll(self) -> None:
        status = f"/proc/{self.proc.pid}/status"
        while not self._reaped.wait(POLL_S):
            try:
                with open(status) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_mb = int(line.split()[1]) / 1024.0
                            break
            except OSError:
                pass
            if self._watch_group:
                self.workers_seen.update(group_members(self.pgid))
                self.workers_seen.discard(self.proc.pid)

    def _read(self, stream, sink: List[tuple]) -> None:
        for line in stream:
            stamp = time.perf_counter()
            with self._line:
                sink.append((stamp, line))
                self._line.notify_all()
        stream.close()

    def wait_stdout(self, pattern: str, timeout_s: float) -> float:
        """Seconds from launch until a stdout line matches ``pattern``."""
        regex = re.compile(pattern.encode())
        deadline = time.perf_counter() + timeout_s
        seen = 0
        with self._line:
            while True:
                for stamp, line in self.out[seen:]:
                    if regex.search(line):
                        return stamp - self.start
                seen = len(self.out)
                left = deadline - time.perf_counter()
                if left <= 0 or not self.running():
                    raise BenchError(f"no {pattern!r} line from {self.proc.args[1:4]}")
                self._line.wait(min(left, 0.5))

    def running(self) -> bool:
        """Whether the process still holds its stdout open (never reaps)."""
        return self._readers[0].is_alive()

    def wait(self) -> int:
        _, status = os.waitpid(self.proc.pid, 0)
        self.end = time.perf_counter()
        self._reaped.set()
        self._watchdog.cancel()
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._poller.join()
        for reader in self._readers:
            reader.join(timeout=STRAY_GRACE_S)
        return self.returncode

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def stdout(self) -> bytes:
        return b"".join(line for _, line in self.out)

    def stderr_text(self) -> str:
        return b"".join(line for _, line in self.err).decode(errors="replace")

    def progress_times(self) -> List[float]:
        """Seconds from launch of each ``[i/N] cell`` progress line."""
        return [
            stamp - self.start
            for stamp, line in self.err
            if re.match(rb"\[\d+/\d+\] ", line)
        ]

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def strays(self) -> bool:
        """Whether any process of the group outlived the session (killed)."""
        deadline = time.perf_counter() + STRAY_GRACE_S
        while group_members(self.pgid):
            if time.perf_counter() >= deadline:
                self.kill()
                return True
            time.sleep(0.05)
        return False


def group_members(pgid: int) -> List[int]:
    """Live processes of process group ``pgid`` (zombies awaiting reaping excluded)."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(name))
    return members


def import_program() -> None:
    """Make the checkout's ``repro`` importable here (the service client)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def program_env(cache_dir: str, **extra: str) -> Dict[str, str]:
    """The program's environment: no inherited REPRO_* knob, a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.update(extra)
    return env


# -- one run -------------------------------------------------------------------------


class Run:
    """One workload at one seed: phases, samples and the correctness verdicts."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = workloads.params(workload, seed)
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        self.store = self.path("store")
        # Raw sample values, and the (start, end) of each on perf_counter.
        self.samples: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
        self.intervals: Dict[str, List[tuple]] = {name: [] for name, _ in END_TO_END}
        self.speed = speed.HostSpeed()
        self.speed.probe()
        self.cold_walls: List[float] = []
        self.sessions: List[Session] = []
        self.notes: Dict[str, object] = {}
        self.problems: List[str] = []
        self.verdicts: List[gate.Verdict] = []
        self.tables: Dict[str, dict] = {}
        # The first cold campaign's output, which every warm replay must match.
        self.cold_output = b""
        self.first_cold: dict = {}
        self.started = time.perf_counter()
        self.reference: dict = {}

    # -- plumbing --------------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def rel(self, name: str) -> str:
        """A path relative to the checkout root (short enough for a socket)."""
        return os.path.relpath(self.path(name), ROOT)

    def launch(self, argv: List[str], env: Dict[str, str], watch_group: bool = False) -> Session:
        session = Session(argv, env, watch_group)
        self.sessions.append(session)
        return session

    def finish(self, session: Session, what: str, ok_codes=(0,)) -> Session:
        code = session.wait()
        if session.strays():
            self.problems.append(f"{what}: processes outlived the session")
        # Between sessions nothing else of the run is busy.
        self.speed.probe()
        if code not in ok_codes:
            raise BenchError(f"{what} exited {code}: {session.stderr_text()[-2000:]}")
        return session

    def env(self, cache: str, store: str) -> Dict[str, str]:
        extra = {"REPRO_ARTIFACTS_DIR": store}
        if self.workload == "world_hybrid_cold":
            # ``world`` has no --sample-days flag.
            extra["REPRO_SAMPLE_DAYS"] = str(workloads.WORLD_SAMPLE_DAYS)
        return program_env(cache, **extra)

    def command(self, kind: str, args: List[str], trace_dir: Optional[str]) -> List[str]:
        """argv for ``repro`` or a probe step, wrapped when tracing."""
        if trace_dir is not None:
            return [os.path.join("perfbench", "traced_main.py"), trace_dir, kind] + args
        if kind == "repro":
            return ["-m", "repro"] + args
        return [os.path.join("perfbench", "probe.py")] + args

    def probe(self, step: str, cache: str, store: str, trace_dir: Optional[str] = None) -> Session:
        args = [step, "--workload", self.workload, "--seed", str(self.seed)]
        session = self.launch(self.command("probe", args, trace_dir), self.env(cache, store),
                              watch_group=trace_dir is not None)
        return self.finish(session, f"probe {step}")

    def build_store(self, store: str, trace_dir: Optional[str] = None) -> Session:
        """Phase 1: the workload's artifacts into the empty store ``store``."""
        return self.probe("store", self.path("store-results"), store, trace_dir)

    def store_sample(self, store: Optional[str] = None) -> None:
        """One timed store build; without ``store``, a throwaway one."""
        target = store or self.path("store-extra")
        session = self.build_store(target)
        value = json.loads(session.stdout().decode().splitlines()[-1])["store_build_s"]
        self.sample("store_build_s", value, session.start, session.end)
        if store is None:
            shutil.rmtree(target)

    def sample(self, name: str, value: float, start: float, end: float) -> None:
        """One raw sample of ``name``, measured over ``[start, end]``."""
        self.samples[name].append(value)
        self.intervals[name].append((start, end))

    def scaled(self, name: str) -> List[float]:
        """The samples of ``name`` at the reference host speed."""
        return scale_samples(name, self.samples[name], self.intervals[name], self.speed)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fill(self, *actions) -> None:
        """Repeat the repeated phases in turn until the run has lasted
        --seconds and each of their metrics has ``MIN_REPEATS`` samples.

        The cold campaigns are interleaved with them too (``SCHEDULE``),
        so the samples spread over the whole run instead of bunching
        where one slow spell of the host would take them all.
        """
        i = 0
        while self.elapsed() < self.seconds or min(
            len(self.samples[name]) for name in REPEATED
        ) < MIN_REPEATS:
            actions[i % len(actions)]()
            i += 1

    def record_cells(self, latencies: List[float], start: float, end: float,
                     first_s: float) -> None:
        """A cold campaign's cell samples; it ran over ``[start, end]``."""
        cells = self.params["cells"]
        if len(latencies) != cells:
            raise BenchError(f"{len(latencies)} cell completions seen, {cells} expected")
        wall_s = end - start
        self.cold_walls.append(wall_s)
        self.sample("cell_days_per_s", cells * self.params["days"] / wall_s, start, end)
        self.sample("first_cell_s", first_s, start, end)
        self.sample("cell_latency_p50_s", stats.nearest_rank(sorted(latencies), 50), start, end)
        pct, value, beyond = stats.tail_percentile(latencies)
        self.sample("cell_latency_tail_s", value, start, end)
        self.notes["cell_latency_tail"] = {"percentile": pct, "n": len(latencies), "beyond": beyond}

    # -- one-shot CLI workloads ----------------------------------------------------

    def cli_args(self) -> List[str]:
        if self.workload == "matrix_cold":
            return ["matrix", "--workers", "1",
                    "--sample-days", str(workloads.MATRIX_SAMPLE_DAYS)]
        return ["world", "--plant", workloads.WORLD_PLANT,
                "--locations", str(self.params["points"]),
                "--workers", str(workloads.WORLD_WORKERS)]

    def cli_campaign(self, cache: str, store: str, trace_dir: Optional[str] = None) -> Session:
        argv = self.command("repro", self.cli_args(), trace_dir)
        session = self.launch(argv, self.env(cache, store), watch_group=trace_dir is not None)
        return self.finish(session, "campaign", ok_codes=(0, 1))

    def cli_setup(self) -> None:
        args = ["setup", "--workload", self.workload, "--seed", str(self.seed)]
        session = self.launch(self.command("probe", args, None),
                              self.env(self.path("cache0"), self.store))
        ready = session.wait_stdout(r"^ready", SESSION_TIMEOUT_S)
        self.finish(session, "session setup")
        self.sample("setup_s", ready, session.start, session.start + ready)

    def run_cli(self) -> None:
        self.reference = gate.load_reference(self.workload)
        self.store_sample(self.store)
        campaigns, replays, store_every = SCHEDULE[self.workload]
        for j in range(campaigns):
            cache = self.path(f"cache{j}")
            cold = self.cli_campaign(cache, self.store)
            done = cold.progress_times()
            self.record_cells(done, cold.start, cold.end, min(done, default=math.nan))
            self.sample("peak_rss_mb", cold.peak_rss_mb, cold.start, cold.end)
            self.verdicts.append(self.check_cli(cold, cache))
            if j == 0:
                self.cold_output = cold.stdout()
            for _ in range(replays):
                self.cli_warm()
            if (j + 1) % store_every == 0:
                self.store_sample()
            self.cli_setup()
        self.fill(self.store_sample, self.cli_setup, self.cli_warm)

    def cli_warm(self) -> None:
        """A fresh CLI session replaying the first campaign from its cache.

        Its output must match the cold one byte for byte, and it must not
        write the cache: a cell it recomputed would be written back.
        """
        cache = self.path("cache0")
        before = cache_state(cache)
        replay = self.cli_campaign(cache, self.store)
        self.sample("warm_replay_s", replay.wall_s, replay.start, replay.end)
        gate.check_identical(self.verdicts[0], self.cold_output, replay.stdout(), "output")
        if cache_state(cache) != before:
            self.verdicts[0].fail_all("warm replay wrote to the result cache")

    def check_cli(self, cold: Session, cache: str) -> gate.Verdict:
        observed = gate.read_cache_cells(cache)
        text = cold.stdout().decode()
        if self.workload == "matrix_cold":
            expected = self.reference["cells"]
            verdict = gate.Verdict(expected)
            gate.check_cells(verdict, observed, expected)
            gate.check_matrix_table(verdict, text, self.reference["stdout"],
                                    self.reference["rows"])
        else:
            points = self.params["points"]
            grid = self.reference["grids"][str(points)]
            verdict = gate.Verdict(grid["cells"])
            gate.check_cells(verdict, observed, self.reference["cells"])
            gate.check_world_summary(verdict, text, grid["stdout"], points)
        if cold.returncode != 0:
            verdict.fail_all(f"campaign exited {cold.returncode}")
        return verdict

    # -- the service workload ----------------------------------------------------

    def start_service(self, cache: str, store: str, tag: str,
                      trace_dir: Optional[str] = None):
        """Launch ``serve``; returns (session, client, seconds until it answered)."""
        import_program()
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        socket = self.rel(f"{tag}.sock")
        args = ["serve", "--workers", str(workloads.SERVICE_WORKERS), "--socket", socket]
        session = self.launch(self.command("repro", args, trace_dir), self.env(cache, store),
                              watch_group=trace_dir is not None)
        deadline = session.start + SESSION_TIMEOUT_S
        while True:
            client = ServiceClient(socket_path=socket)
            try:
                client.connect()
                if client.ping():
                    return session, client, time.perf_counter() - session.start
            except (ReproError, OSError):
                pass
            client.close()
            if not session.running() or time.perf_counter() > deadline:
                raise BenchError(f"service never answered: {session.stderr_text()[-2000:]}")
            time.sleep(0.005)

    def stop_service(self, session: Session, client) -> None:
        """Stop ``serve`` through the protocol, then check nothing outlived it."""
        client.shutdown()
        client.close()
        self.finish(session, "serve")

    def service_campaign(self, control, socket: str) -> dict:
        """Submit the matrix job, then the faults job, on two connections."""
        from repro.service.client import ServiceClient
        import probe

        before = control.list_jobs()["service"]
        clients = [control, ServiceClient(socket_path=socket).connect()]
        events: List[List[tuple]] = [[], []]
        submitted: List[float] = []
        job_ids: List[str] = []

        def listen(client, sink) -> None:
            for event in client.events():
                sink.append((time.perf_counter(), event))

        readers = []
        for client, spec, sink in zip(clients, probe.service_specs(), events):
            submitted.append(time.perf_counter())
            job_ids.append(client.submit(spec, stream=True)["job_id"])
            reader = threading.Thread(target=listen, args=(client, sink), daemon=True)
            reader.start()
            readers.append(reader)
        for reader in readers:
            reader.join(SESSION_TIMEOUT_S)
        if any(reader.is_alive() for reader in readers):
            raise BenchError("service jobs did not finish")
        clients[1].close()
        latencies, executed = [], []
        for start, sink in zip(submitted, events):
            for stamp, event in sink:
                if event.get("event") == "cell":
                    latencies.append(stamp - start)
                    if event.get("source") == "executed":
                        executed.append(stamp - submitted[0])
        done = max(t for sink in events for t, e in sink if e.get("event") == "done")
        after = control.list_jobs()["service"]
        return {
            "latencies": latencies,
            "first_executed_s": min(executed, default=math.nan),
            "wall_s": done - submitted[0],
            "submitted_at": submitted[0],
            "done_at": done,
            "results": [control.result(job_id) for job_id in job_ids],
            "cached": control.status(job_ids[0])["job"]["cached"],
            "counters": {
                key: after[f"cells_{key}"] - before[f"cells_{key}"]
                for key in ("executed", "cached", "deduped", "failed")
            },
            "pool_resets": after["pool_resets"] - before["pool_resets"],
        }

    def check_service(self, cold: dict) -> gate.Verdict:
        observed, expected = {}, {}
        for name, result in zip(("matrix", "faults"), cold["results"]):
            observed.update({f"{name}#{i}": c for i, c in enumerate(result["cells"])})
            expected.update({f"{name}#{i}": c for i, c in enumerate(self.reference[name])})
        verdict = gate.Verdict(expected)
        gate.check_cells(verdict, observed, expected)
        gate.check_counters(verdict, cold["counters"], self.params["cells"])
        prefilled = len(self.params["prefill"])
        if cold["cached"] != prefilled:
            verdict.fail_all(f"{cold['cached']} cells served from cache, {prefilled} prefilled")
        return verdict

    def check_replay(self, verdict: gate.Verdict, cold: dict, replay: dict) -> None:
        gate.check_identical(verdict, cold["results"], replay["results"], "results")
        if replay["counters"]["cached"] != self.params["cells"]:
            verdict.fail_all("warm replay was not served entirely from cache")

    def run_service(self) -> None:
        self.reference = gate.load_reference(self.workload)
        self.store_sample(self.store)
        prefill = self.path("prefill")
        self.probe("prefill", prefill, self.store)
        campaigns, replays, store_every = SCHEDULE[self.workload]
        for j in range(campaigns):
            cache = self.path(f"cache{j}")
            shutil.copytree(prefill, cache)
            session, control, ready = self.start_service(cache, self.store, f"cold{j}")
            self.sample("setup_s", ready, session.start, session.start + ready)
            cold = self.service_campaign(control, self.rel(f"cold{j}.sock"))
            self.record_cells(cold["latencies"], cold["submitted_at"], cold["done_at"],
                              cold["first_executed_s"])
            self.notes["service_counters"] = cold["counters"]
            verdict = self.check_service(cold)
            self.verdicts.append(verdict)
            resubmit = self.service_campaign(control, self.rel(f"cold{j}.sock"))
            self.notes["warm_resubmit_s"] = resubmit["wall_s"]
            self.check_replay(verdict, cold, resubmit)
            self.stop_service(session, control)
            self.sample("peak_rss_mb", session.peak_rss_mb, session.start, session.end)
            if j == 0:
                self.first_cold = cold
            for _ in range(replays):
                self.service_replay()
            if (j + 1) % store_every == 0:
                self.store_sample()
        self.fill(self.store_sample, self.service_setup, self.service_replay)

    def service_setup(self) -> None:
        """A new ``serve`` until it answers ``ping``, then stopped."""
        tag = f"setup{len(self.samples['setup_s'])}"
        session, client, ready = self.start_service(self.path("setup-cache"), self.store, tag)
        self.stop_service(session, client)
        self.sample("setup_s", ready, session.start, session.start + ready)

    def service_replay(self) -> None:
        """A new ``serve``: start-up, then the first campaign served from cache."""
        tag = f"warm{len(self.samples['warm_replay_s'])}"
        session, client, ready = self.start_service(self.path("cache0"), self.store, tag)
        replay = self.service_campaign(client, self.rel(f"{tag}.sock"))
        self.stop_service(session, client)
        self.sample("setup_s", ready, session.start, session.start + ready)
        self.sample("warm_replay_s", replay["done_at"] - session.start,
                    session.start, replay["done_at"])
        self.check_replay(self.verdicts[0], self.first_cold, replay)

    # -- the traced run ----------------------------------------------------------

    def run_traced(self) -> Dict[str, float]:
        """Store build and one cold campaign again, wrapped: two span tables."""
        store_dir, campaign_dir = self.path("trace-store"), self.path("trace-campaign")
        store, cache = self.path("traced-store"), self.path("traced-cache")
        store_session = self.build_store(store, store_dir)
        service: Dict[str, int] = {}
        if self.workload == "service_mixed":
            shutil.copytree(self.path("prefill"), cache)
            session, control, _ = self.start_service(cache, store, "traced", campaign_dir)
            traced = self.service_campaign(control, self.rel("traced.sock"))
            self.stop_service(session, control)
            wall = traced["wall_s"]
            service = dict(traced["counters"], pool_resets=traced["pool_resets"])
        else:
            session = self.cli_campaign(cache, store, campaign_dir)
            wall = session.wall_s
        missing = set()
        for trace_dir in (store_dir, campaign_dir):
            for name in os.listdir(trace_dir):
                if name.startswith("missing-"):
                    with open(os.path.join(trace_dir, name)) as handle:
                        missing.update(line for line in handle.read().splitlines() if line)
        self.notes["trace_missing"] = sorted(missing)
        self.tables = {
            "cold campaign": tracer.merge(tracer.load_dir(campaign_dir)),
            "store build": tracer.merge(tracer.load_dir(store_dir)),
        }
        for title, traced_session in (("cold campaign", session), ("store build", store_session)):
            self.problems += check_trace(title, self.tables[title], traced_session.wall_s,
                                         len(traced_session.workers_seen))
        values = layer_table(
            self.tables["cold campaign"], wall / stats.median(self.cold_walls), service
        )
        values.update(store_table(self.tables["store build"]))
        return values

    # -- cleanup -------------------------------------------------------------------

    def close(self) -> None:
        for session in self.sessions:
            if session.returncode is None:
                session.kill()
                session.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def scale_samples(name: str, values: List[float], intervals: List[tuple],
                  host: speed.HostSpeed) -> List[float]:
    """Raw samples of metric ``name`` taken to the reference host speed."""
    if name in UNSCALED:
        return list(values)
    out = []
    for value, (start, end) in zip(values, intervals):
        factor = host.scale(start, end)
        out.append(value / factor if name in RATES else value * factor)
    return out


def check_trace(title: str, merged: dict, wall_s: float, workers_seen: int) -> List[str]:
    """Hold a merged span table against what the benchmark saw from outside.

    Sets ``merged["closure"]``, the main process's layers plus ``other``
    over the session's wall time on the benchmark's own clock, and
    ``merged["workers_seen"]``; returns a problem for a closure off 1, or
    a worker-table count off the workers seen, by more than
    ``TRACE_TOLERANCE``.
    """
    merged["closure"] = merged["main_s"] / wall_s
    merged["wall_s"] = wall_s
    merged["workers_seen"] = workers_seen
    problems = []
    if abs(merged["closure"] - 1.0) > TRACE_TOLERANCE:
        problems.append(f"{title} trace: layers + other {merged['main_s']:.3f} s "
                        f"against {wall_s:.3f} s wall")
    if abs(merged["worker_tables"] - workers_seen) > TRACE_TOLERANCE * workers_seen:
        problems.append(f"{title} trace: {merged['worker_tables']} worker tables, "
                        f"{workers_seen} workers seen")
    return problems


def layer_table(merged: dict, overhead: float, service: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metric values from a merged span table."""
    self_s, calls, counters = merged["self_s"], merged["calls"], merged["counters"]
    traced = merged["traced_s"]
    # Shares are of busy time: a CLI parent blocked on its pool and the
    # service's idle event loop are waiting, not work.
    busy = traced - self_s.get("analysis.runner.wait", 0.0) - self_s.get("service.idle", 0.0)
    values: Dict[str, float] = {}
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
    runs = counters.get("sim.lanes.run_days", 0)
    chunks = counters.get("analysis.runner.chunks", 0)
    slots = counters.get("analysis.runner.lane_slots", 0)
    values.update({
        "sim.lanes.setup_s": counters.get("sim.lanes.setup_s", 0.0),
        "sim.lanes.lane_days": counters.get("sim.lanes.lane_days", 0),
        "sim.lanes.width_mean": counters.get("sim.lanes.lane_days", 0) / runs if runs else 0.0,
        "sim.engine.days": counters.get("sim.engine.days", 0),
        "sim.campaign.days": counters.get("sim.campaign.days", 0),
        "core.predictor.candidates": counters.get("core.predictor.candidates", 0),
        "core.coolair.start_day_s": self_s.get("core.coolair", 0.0),
        "physics.psychrometrics.elements": counters.get("physics.psychrometrics.elements", 0),
        "analysis.runner.wait_s": self_s.get("analysis.runner.wait", 0.0),
        "analysis.runner.chunks": chunks,
        "analysis.runner.lane_fill": (
            counters.get("analysis.runner.chunk_cells", 0) / slots if slots else 0.0
        ),
        "analysis.runner.payload_bytes": counters.get("analysis.runner.payload_bytes", 0),
        "analysis.runner.worker_setup_s": counters.get("analysis.runner.worker_setup_s", 0.0),
        "analysis.runner.retries": counters.get("analysis.runner.retries", 0),
        "analysis.experiments.cache_hits": counters.get("analysis.experiments.cache_hits", 0),
        "analysis.experiments.cache_misses": counters.get("analysis.experiments.cache_misses", 0),
        "analysis.experiments.cache_read_s": counters.get("analysis.experiments.cache_read_s", 0.0),
        "analysis.experiments.cache_write_s": counters.get("analysis.experiments.cache_write_s", 0.0),
        "artifacts.hits": counters.get("artifacts.hits", 0),
        "artifacts.misses": counters.get("artifacts.misses", 0),
        "service.queue_wait_s": counters.get("service.queue_wait_s", 0.0),
        "service.execute_s": counters.get("service.execute_s", 0.0),
        "service.idle_s": self_s.get("service.idle", 0.0),
        "service.executed": service.get("executed", 0),
        "service.cached": service.get("cached", 0),
        "service.deduped": service.get("deduped", 0),
        "service.pool_resets": service.get("pool_resets", 0),
        "other.self_s": merged["other_s"],
        "trace.traced_s": traced,
        "trace.busy_s": busy,
        "trace.coverage": merged["coverage"],
        "trace.closure": merged["closure"],
        "trace.worker_tables": merged["worker_tables"],
        "trace.workers_seen": merged["workers_seen"],
        "trace.control_share": sum(self_s.get(l, 0.0) for l in CONTROL_LAYERS) / busy,
        "trace.plant_share": sum(self_s.get(l, 0.0) for l in PLANT_LAYERS) / busy,
        "trace.overhead": overhead,
    })
    return values


def store_table(merged: dict) -> Dict[str, float]:
    """Per-layer metrics of the traced store build, prefixed ``store.``."""
    values = {f"store.{layer}.self_s": merged["self_s"].get(layer, 0.0) for layer in STORE_LAYERS}
    values["store.sim.campaign.days"] = merged["counters"].get("sim.campaign.days", 0)
    values["store.other.self_s"] = merged["other_s"]
    values["store.trace.traced_s"] = merged["traced_s"]
    values["store.trace.closure"] = merged["closure"]
    return values


def format_layer_table(title: str, merged: dict) -> str:
    """Self time per layer, with its share of busy time."""
    waits = ("analysis.runner.wait", "service.idle")
    traced = merged["traced_s"]
    busy = traced - sum(merged["self_s"].get(name, 0.0) for name in waits)
    rows = sorted(merged["self_s"].items(), key=lambda row: -row[1])
    rows.append(("other", merged["other_s"]))
    lines = [f"{title + ' layer':32s} {'self s':>9s} {'busy %':>7s}"]
    for name, seconds in rows:
        share = "" if name in waits else f"{seconds / busy:7.1%}"
        lines.append(f"{name:32s} {seconds:9.3f} {share:>7s}")
    total = sum(seconds for _, seconds in rows)
    lines.append(
        f"{'sum':32s} {total:9.3f}  = {total / traced:.2%} of {traced:.3f} traced "
        f"process-s ({busy:.3f} busy) in {merged['processes']} process(es)"
    )
    lines.append(
        f"{'closure':32s} main process {merged['main_s']:.3f} s of {merged['wall_s']:.3f} s "
        f"session wall = {merged['closure']:.3f}; {merged['worker_tables']} worker tables, "
        f"{merged['workers_seen']} workers seen"
    )
    return "\n".join(lines)


# -- run metadata ------------------------------------------------------------------


def cache_state(cache: str) -> Dict[str, tuple]:
    """Every file of a result cache with its modification time and size."""
    state = {}
    for base, _, files in os.walk(cache):
        for name in files:
            info = os.stat(os.path.join(base, name))
            state[os.path.join(base, name)] = (info.st_mtime_ns, info.st_size)
    return state


def revision() -> Optional[str]:
    """The checkout's git commit; None when it is not a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "revision": revision(),
        "loadavg_before": os.getloadavg(),
    }
    # A terminated run still stops its sessions (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.workload == "service_mixed":
            run.run_service()
        else:
            run.run_cli()
        traced = run.run_traced() if args.trace else None
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        run.close()
    meta["loadavg_after"] = os.getloadavg()
    meta["params"] = run.params
    meta["calibration_s"] = run.speed.median_s()
    meta["reference_s"] = speed.REFERENCE_S
    meta["samples"] = {name: [round(v, 6) for v in values] for name, values in run.samples.items()}
    meta["raw_medians"] = {name: stats.median(values) for name, values in run.samples.items()}
    # Seconds from the run's start: every kernel pass, every sample's interval.
    meta["kernel_passes"] = [[round(t - run.started, 3), round(v, 5)] for t, v in run.speed.passes]
    meta["intervals"] = {
        name: [[round(a - run.started, 3), round(b - run.started, 3)] for a, b in spans]
        for name, spans in run.intervals.items()
    }
    meta.update(run.notes)
    meta["problems"] = run.problems
    meta["failed_cells"] = [r for v in run.verdicts for r in v.reasons()][:10]
    print(json.dumps({"meta": meta}))

    attempted = sum(v.attempted for v in run.verdicts)
    failed = sum(len(v.failed) for v in run.verdicts)
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
    }
    if traced is None:
        result["metrics"] = {
            name: {"value": stats.median(run.scaled(name)), "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        for title, merged in run.tables.items():
            print(format_layer_table(title, merged))
        result["metrics"] = {
            name: {"value": traced[name], "unit": unit}
            for name, unit in per_layer_names()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
