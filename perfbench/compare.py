"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``result-<workload>-seed<n>-trace0.json`` files that
``perfbench/run.py`` writes to ``.perfbench-out/``.  For every workload and
end-to-end metric the medians over runs are compared; a change worse than
the metric's bound is a regression (exit status 1).  When the two sides ran
on different kernel backends the comparison is flagged and not reported as a
regression, the same rule ``scripts/bench_compare.py`` applies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(directory: Path) -> dict:
    """``{workload: {"backends": set, "metrics": {name: [values]}}}`` from result files."""
    runs: dict = {}
    for path in sorted(directory.glob("result-*-trace0.json")):
        result = json.loads(path.read_text())
        entry = runs.setdefault(
            result["provenance"]["workload"], {"backends": set(), "metrics": {}}
        )
        entry["backends"].add(result["provenance"]["kernel_backend"])
        for name, metric in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(metric["value"])
    return runs


def compare(base: dict, new: dict, spec: dict) -> int:
    status = 0
    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}")
    for workload in sorted(set(base) & set(new)):
        cross = base[workload]["backends"] != new[workload]["backends"]
        if cross:
            print(
                f"NOTE {workload}: cross-backend comparison "
                f"({sorted(base[workload]['backends'])} -> {sorted(new[workload]['backends'])}); "
                "differences reflect the backend switch, not regressions"
            )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = base[workload]["metrics"].get(name)
            after = new[workload]["metrics"].get(name)
            if not before or not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            change = (a - b) / b if b else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = ""
            if worse > metric["bound"]:
                verdict = "flagged (cross-backend)" if cross else "REGRESSION"
                status = status or (0 if cross else 1)
            print(
                f"{workload:16s} {name:16s} {b:12.6g} {a:12.6g} {change:+8.1%} "
                f"{metric['bound']:6.2f} {verdict}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_runs(args.base), load_runs(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
