"""Run a program command or a probe step with the layer wrappers installed.

``python perfbench/traced_main.py TRACE_DIR repro ARGS...`` runs
``python -m repro ARGS...``; ``... TRACE_DIR probe ARGS...`` runs
``perfbench/probe.py ARGS...``.  The wrappers are installed before the
command starts, so pool workers forked later inherit them; every traced
process writes its span table to ``TRACE_DIR/<pid>.json``.
"""

from __future__ import annotations

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    trace_dir, kind, *argv = sys.argv[1:]
    os.makedirs(trace_dir, exist_ok=True)
    # The table starts with the process: start-up and imports count as ``other``.
    table = tracer.SpanTable(start=tracer.process_start())
    # Import every wrapped module before wrapping, so names other modules
    # imported with ``from ... import`` are rebound too.
    targets = layers.program_targets()
    serving = kind == "repro" and argv[:1] == ["serve"]
    if serving:
        targets += layers.service_targets()
    for module_name in sorted({t[0] for t in targets} | {"repro.cli"}):
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    missing = tracer.install(table, targets)
    if serving:
        missing += layers.install_service_timers(table)
    with open(os.path.join(trace_dir, f"missing-{os.getpid()}.txt"), "w") as out:
        out.write("\n".join(missing))
    table.attach(trace_dir)
    if kind == "repro":
        from repro.cli import main as repro_main

        return repro_main(argv)
    import probe

    return probe.main(argv)


if __name__ == "__main__":
    sys.exit(main())
