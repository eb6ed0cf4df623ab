"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the program.  Instead, :func:`install` replaces
public functions and methods of the program's layers with thin wrappers
that record a span per call into a :class:`SpanTable`.  A layer's *self
time* is its span's duration minus the part its child spans (calls into
other wrapped functions) cover, so the self times of all layers plus the
untraced remainder (``other``) add up to the process's lifetime.  The
main process's table starts at the process's own start (read from
``/proc``), so interpreter start-up and imports count as ``other``, and
the benchmark checks that sum against its own clock for the session.

One table lives in each traced process.  Forked pool workers start a
fresh table at the fork and write it to ``<dir>/<pid>.json`` after every
outermost span and at exit; the main process writes its table at exit.
:func:`merge` folds the per-pid files into one per-layer table.
"""

from __future__ import annotations

import atexit
import collections
import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional


class _Frame:
    __slots__ = ("layer", "start", "end", "child_s")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTable:
    """Per-layer self time, outermost-call counts and counters.

    ``other_s`` is the main thread's time outside every span, from
    ``start`` (default: now) on.  Spans on helper threads add to their
    layers and to ``thread_s`` (the helper threads' traced time), so
    ``sum(self) - thread_s + other`` is the main thread's accounted time,
    which equals the lifetime unless spans overlap on it.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        start: Optional[float] = None,
    ) -> None:
        self.clock = clock
        self.dump_dir: Optional[str] = None
        self.role = "main"
        self._reset(start)

    def _reset(self, start: Optional[float] = None) -> None:
        self.start = self.clock() if start is None else start
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.other_s = 0.0
        self.thread_s = 0.0
        # Scratch state for counting hooks that pair two calls.
        self.marks: Dict[str, float] = {}
        self._idle_since: Optional[float] = self.start
        self._main = threading.get_ident()
        self._local = threading.local()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str) -> _Frame:
        now = self.clock()
        stack = self._stack()
        if not stack and threading.get_ident() == self._main:
            if self._idle_since is not None:
                self.other_s += now - self._idle_since
                self._idle_since = None
        frame = _Frame(layer, now)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> bool:
        """Close ``frame``; returns whether it was its layer's outermost."""
        now = frame.end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = now - frame.start
        self.self_s[frame.layer] += duration - frame.child_s
        outer = not any(f.layer == frame.layer for f in stack)
        if outer:
            self.calls[frame.layer] += 1
        if stack:
            stack[-1].child_s += duration
        elif threading.get_ident() == self._main:
            self._idle_since = now
        else:
            self.thread_s += duration
        return outer

    def inside(self, layer: str) -> bool:
        """Whether the calling thread is inside a span of ``layer``."""
        return any(frame.layer == layer for frame in self._stack())

    def main_idle(self) -> bool:
        return threading.get_ident() == self._main and not self._stack()

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        now = self.clock()
        other = self.other_s
        if self._idle_since is not None:
            other += now - self._idle_since
        return {
            "pid": os.getpid(),
            "role": self.role,
            "lifetime_s": now - self.start,
            "other_s": other,
            "thread_s": self.thread_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def dump(self) -> None:
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)

    # -- process lifecycle ---------------------------------------------------

    def _after_fork(self) -> None:
        self._reset()
        self.role = "worker"

    @staticmethod
    def _after_mp_fork(table: "SpanTable") -> None:
        # multiprocessing clears its finalizer registry in a new child
        # before running after-fork hooks, so register the exit dump here.
        multiprocessing.util.Finalize(table, table.dump, exitpriority=100)

    def attach(self, dump_dir: str) -> None:
        """Write this process's table (and each forked child's) on exit."""
        self.dump_dir = dump_dir
        os.register_at_fork(after_in_child=self._after_fork)
        multiprocessing.util.register_after_fork(self, SpanTable._after_mp_fork)
        atexit.register(self.dump)


def process_start() -> float:
    """This process's start on the ``time.perf_counter`` clock.

    The kernel records a process's start in clock ticks since boot; both
    it and ``perf_counter`` (``CLOCK_MONOTONIC``) count from boot, to
    within one tick (10 ms).
    """
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    return time.perf_counter() - age


def merge(snapshots: Iterable[dict]) -> dict:
    """Fold per-process snapshots into one table over all processes.

    Besides the sums, ``main_s`` is the main process's own accounted
    time (its main thread's self times plus ``other``), which the
    benchmark holds against the session's wall time, and
    ``worker_tables`` the number of forked workers that wrote a table.
    """
    total = {
        "processes": 0,
        "worker_tables": 0,
        "main_s": 0.0,
        "lifetime_s": 0.0,
        "other_s": 0.0,
        "thread_s": 0.0,
        "self_s": collections.defaultdict(float),
        "calls": collections.defaultdict(int),
        "counters": collections.defaultdict(float),
    }
    for snap in snapshots:
        total["processes"] += 1
        if snap["role"] == "main":
            total["main_s"] += (
                sum(snap["self_s"].values()) - snap["thread_s"] + snap["other_s"]
            )
        else:
            total["worker_tables"] += 1
        for key in ("lifetime_s", "other_s", "thread_s"):
            total[key] += snap[key]
        for key in ("self_s", "calls", "counters"):
            for name, value in snap[key].items():
                total[key][name] += value
    traced = total["lifetime_s"] + total["thread_s"]
    total["traced_s"] = traced
    total["coverage"] = (
        sum(total["self_s"].values()) / traced if traced else 0.0
    )
    for key in ("self_s", "calls", "counters"):
        total[key] = dict(total[key])
    return total


def load_dir(path: str) -> List[dict]:
    snapshots = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as handle:
                snapshots.append(json.load(handle))
    return snapshots


# -- wrapping ------------------------------------------------------------------

# hook(table, frame, args, kwargs, result, outermost) runs after each call.
Hook = Callable[[SpanTable, _Frame, tuple, dict, object, bool], None]


def _span_wrapper(table: SpanTable, layer: str, fn, hook: Optional[Hook]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = table.enter(layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            outer = table.exit(frame)
            if hook is not None:
                hook(table, frame, args, kwargs, result, outer)
            if table.role == "worker" and table.main_idle():
                table.dump()

    return wrapper


def _replace_everywhere(original, replacement, prefix: str) -> int:
    """Rebind every module-level name bound to ``original``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(
    table: SpanTable,
    targets: Iterable[tuple],
    package: str = "repro",
) -> List[str]:
    """Wrap each ``(module, qualname, layer, hook)`` target.

    ``qualname`` is ``func`` or ``Class.method``.  Targets that do not
    exist at this commit are skipped and returned, so a renamed function
    drops out of the table instead of breaking the run.
    """
    import importlib

    missing = []
    for module_name, qualname, layer, hook in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}:{qualname}")
            continue
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            missing.append(f"{module_name}:{qualname}")
            continue
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attr)
            if raw is None:
                missing.append(f"{module_name}:{qualname}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    _span_wrapper(table, layer, raw.__func__, hook)))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    _span_wrapper(table, layer, raw.__func__, hook)))
            elif inspect.isfunction(raw):
                setattr(owner, attr, _span_wrapper(table, layer, raw, hook))
            else:
                missing.append(f"{module_name}:{qualname}")
            continue
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            missing.append(f"{module_name}:{qualname}")
            continue
        _replace_everywhere(
            original, _span_wrapper(table, layer, original, hook), package
        )
    return missing
