"""Median and run-to-run spread of end-to-end metrics over many runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload world_hybrid_cold --seed $s --seconds 40 | tail -1 >> runs.jsonl
    done
    python3 perfbench/spread.py runs.jsonl

The spread is the interquartile distance of the runs' values as a share
of their median (``statistics.quantiles(values, n=4)``), the rule the
bounds in ``BENCHMARK.json`` are checked against.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main(paths) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    for path in paths:
        with open(path) as handle:
            runs = [json.loads(line) for line in handle if line.strip()]
        failed = sum(run["failed"] for run in runs)
        print(f"{path}: {len(runs)} runs, all correct: "
              f"{all(run['correct'] for run in runs)}, failed cells: {failed}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            spread = stats.quartile_spread(values)
            print(f"  {name:22s} median {stats.median(values):10.4f}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}  {'ok' if spread <= bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
