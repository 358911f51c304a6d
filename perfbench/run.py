"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload static-central --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # the four workloads in turn

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it installs the layer wrappers of
``perfbench/tracing.py`` and reports the per-layer metrics, plus
``trace.overhead_frac`` (a traced ``build_s`` over an untraced one, minus one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed output
check or validity gate makes the run exit with status 1.  Results,
provenance and (traced runs) the span JSONL go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"

if __name__ == "__main__" or __name__ == "__mp_main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed, Clock  # noqa: E402

#: Set-up repetitions per run (one in-process, the rest in child processes).
SETUP_REPEATS = 7


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, service start, warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name]
    command += ["--seed", str(seed)]
    # Own process group, so a probe that hangs is killed with its pool workers.
    probe = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = probe.communicate(timeout=120)
    finally:
        if probe.poll() is None:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.wait()
    if probe.returncode != 0:
        raise subprocess.CalledProcessError(probe.returncode, command, stdout)
    return float(stdout.strip().splitlines()[-1])


def provenance(workload, args) -> dict:
    import numpy

    from repro import kernels

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": kernels.active_backend(workload.num_vertices),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "golden": workload.golden_status(),
    }


def run_units(workload, seconds: float, on_unit=None, on_extra=None):
    """Run units for ``seconds``: at least two, and no unit predicted to end late.

    Returns the unit samples and the side samples taken after each unit.
    """
    units, extras, durations = [], [], []
    start = time.perf_counter()
    while True:
        # Every unit starts from a collected heap: the previous unit's graphs
        # (reference cycles through their distance caches) would otherwise be
        # reclaimed at a random point inside the next unit's timings.
        gc.collect()
        began = time.perf_counter()
        units.append(workload.unit(len(units)))
        if on_unit is not None:
            on_unit()
        extras.append(workload.after_unit())
        if on_extra is not None:
            on_extra()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(units) >= 2 and elapsed + stats.median(durations) > seconds:
            return units, extras


def merge(samples_list) -> dict:
    merged: dict = {}
    for samples in samples_list:
        for key, values in samples.items():
            merged.setdefault(key, []).extend(values)
    return merged


def end_to_end(units, extras, setup_samples) -> dict:
    merged = merge(units + extras)
    throughput = [
        len(unit["op_s"]) / sum(unit["unit_s"]) for unit in units if sum(unit["unit_s"]) > 0
    ]
    return {
        "setup_s": stats.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "build_s": stats.median(merged["build_s"]),
        "verify_s": stats.median(merged["verify_s"]),
        "latency_p50_ms": stats.median(merged["op_s"]) * 1e3,
        "throughput_ops": stats.median(throughput),
    }


def context_metrics(workload, units, extras) -> dict:
    """The numbers printed next to the gated metrics but not gated."""
    ops = merge(units)["op_s"]
    extra = {
        "operations": (len(ops), "count"),
        # Allocation-heavy generation swings with the host by more than the
        # largest bound (quartile spread 0.22-0.28 over ten runs), so it is
        # reported, not gated.
        "generate_s": (stats.median(merge(units + extras)["generate_s"]), "s"),
    }
    tail = stats.tail_percentile(len(ops))
    if tail is not None:
        extra[f"latency_p{tail:g}_ms"] = (stats.percentile(ops, tail) * 1e3, "ms")
    if workload.name == "dynamic-churn":
        extra["churn_s"] = (stats.median([sum(u["unit_s"]) for u in units]), "s")
    return extra


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def layer_metrics(spans, counters) -> dict:
    """The per-layer metrics of one unit (BENCHMARK.json ``per_layer``)."""
    from perfbench.tracing import child_total, span_totals

    totals = span_totals(spans)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    c = counters.get
    lookups = c("graphs.cache_hits", 0) + c("graphs.cache_misses", 0)
    return {
        "primitives.exploration_s": self_s("primitives.exploration"),
        "primitives.exploration_calls": calls("primitives.exploration"),
        "primitives.ruling_set_s": self_s("primitives.ruling_set"),
        "primitives.bfs_forest_s": self_s("primitives.bfs_forest"),
        "primitives.traceback_s": self_s("primitives.traceback"),
        "core.cluster_table_s": self_s("core.cluster_table"),
        "core.certificate_s": self_s("core.certificate"),
        "core.driver_self_s": self_s("core.driver"),
        "core.popular_clusters": c("core.popular_clusters", 0),
        "core.cluster_merges": c("core.cluster_merges", 0),
        "core.spanner_edge_ratio": stats.ratio(
            c("algorithms.spanner_edges", 0), c("algorithms.graph_edges", 0)
        ),
        "graphs.add_edges_s": self_s("graphs.add_edges"),
        "graphs.add_edges_calls": calls("graphs.add_edges"),
        "graphs.csr_builds": calls("graphs.csr"),
        "graphs.csr_s": self_s("graphs.csr"),
        "graphs.bfs_sources": calls("graphs.bfs"),
        "graphs.bfs_s": self_s("graphs.bfs"),
        "graphs.distance_cache_hit_ratio": stats.ratio(c("graphs.cache_hits", 0), lookups),
        "graphs.invalidations": c("graphs.invalidations", 0),
        "congest.run_protocol_s": self_s("congest.run_protocol"),
        "congest.protocol_runs": calls("congest.run_protocol"),
        "congest.messages": c("congest.messages", 0),
        "congest.words": c("congest.words", 0),
        "congest.simulated_rounds": c("congest.simulated_rounds", 0),
        "congest.messages_per_s": stats.ratio(
            c("congest.messages", 0), total_s("congest.run_protocol")
        ),
        "analysis.stretch_s": self_s("analysis.stretch"),
        "analysis.pairs_checked": c("analysis.pairs_checked", 0),
        "serve.submit_s": self_s("serve.submit"),
        "serve.resolve_s": self_s("serve.resolve"),
        "serve.pool_wait_s": self_s("serve.pool_wait"),
        "serve.hit_ratio": stats.ratio(c("serve.hits", 0), c("serve.responses", 0)),
        "serve.coalesced": c("serve.coalesced", 0),
        "serve.pool_submissions": c("serve.pool_submissions", 0),
        "serve.batches": c("serve.batches", 0),
        "serve.rejected": c("serve.rejected", 0),
        "experiments.store_get_s": self_s("experiments.store_get"),
        "experiments.store_put_s": self_s("experiments.store_put"),
        "experiments.store_hits": c("experiments.store_hits", 0),
        "experiments.store_misses": c("experiments.store_misses", 0),
        "dynamic.rebuilds": c("dynamic.rebuild", 0),
        "dynamic.rebuild_s": child_total(spans, "algorithms.run", "dynamic.maintain"),
        "dynamic.work_units": c("dynamic.work_units", 0),
        "dynamic.absorbed": c("dynamic.absorbed", 0),
        "dynamic.repaired": c("dynamic.repaired", 0),
    }


def units_of(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json, the single source of truth."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def as_metrics(values: dict, section: str) -> dict:
    """The result line's ``metrics``; fails when the names drift from BENCHMARK.json."""
    units = units_of(section)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json {section}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def traced_run(workload, args) -> dict:
    """Per-layer metrics: one untraced unit, then traced units until time is up."""
    from perfbench.tracing import Instrumentation, Recorder, layer_table, span_totals

    gc.collect()
    untraced = [workload.unit(0), workload.after_unit()]
    recorder = Recorder()
    workload.clock = Clock(recorder)
    instrumentation = Instrumentation(recorder).install()
    per_unit = []
    all_spans = []

    def collect():
        spans, counters = recorder.take_unit()
        counters.update(workload.unit_counters())
        per_unit.append(layer_metrics(spans, counters))
        all_spans.extend(spans)

    try:
        # Spans of the side measurements go to the JSONL but not into a unit.
        traced, extras = run_units(
            workload, args.seconds, on_unit=collect, on_extra=recorder.take_unit
        )
    finally:
        instrumentation.uninstall()
    workload.check_once()

    untraced_build = stats.median(merge(untraced)["build_s"])
    traced_build = stats.median(merge(traced + extras)["build_s"])
    metrics = {
        name: stats.median([unit[name] for unit in per_unit]) for name in per_unit[0]
    }
    metrics["trace.overhead_frac"] = traced_build / untraced_build - 1.0

    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    written = recorder.write_jsonl(span_path)

    totals = span_totals(all_spans)
    units = len(per_unit)
    print(f"\nper-layer self time, mean per unit over {units} traced units")
    print(f"{'layer':14s} {'calls':>10s} {'self_s':>10s}")
    for layer, row in sorted(layer_table(totals).items(), key=lambda item: -item[1]["self_s"]):
        print(f"{layer:14s} {row['calls'] / units:10.0f} {row['self_s'] / units:10.4f}")
    result = as_metrics(metrics, "per_layer")
    print(f"\nper-layer metrics, median over {units} traced units")
    for name, metric in result.items():
        print(f"{name:36s} {metric['value']:16.6g} {metric['unit']}")
    print(
        f"\ntrace.overhead_frac base: untraced build_s {untraced_build:.6f} s, "
        f"traced build_s {traced_build:.6f} s"
    )
    print(f"spans: {written} written to {span_path} ({recorder.dropped_spans} beyond the cap)")
    return {
        "attempted": sum(len(unit["op_s"]) for unit in untraced + traced),
        "metrics": result,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measured_run(workload, args) -> dict:
    setup_samples = [args.setup_s] + [
        probe_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]
    units, extras = run_units(workload, args.seconds)
    workload.check_once()
    metrics = as_metrics(end_to_end(units, extras, setup_samples), "end_to_end")
    print(f"\n{'metric':22s} {'value':>14s} {'unit':6s} workload")
    for name, metric in metrics.items():
        print(f"{name:22s} {metric['value']:14.6g} {metric['unit']:6s} {workload.name}")
    for name, (value, unit) in context_metrics(workload, units, extras).items():
        print(f"{name:22s} {value:14.6g} {unit:6s} {workload.name} (not gated)")
    print(f"units: {len(units)}; setup samples: {[round(s, 4) for s in setup_samples]}")
    return {
        "attempted": sum(len(unit["op_s"]) for unit in units),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], help="one workload, or all four in turn"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def run_all(args) -> int:
    """Every workload in its own interpreter; the first failing status wins."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        code = subprocess.run(command, cwd=str(ROOT), check=False).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe is not None:
        workload = WORKLOADS[args.setup_probe](args.seed, OUT_DIR)
        try:
            print(timed_setup(workload))
        finally:
            workload.close()
        return 0

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        args.setup_s = timed_setup(workload)
        workload.prepare()
        info = provenance(workload, args)
        print("provenance " + json.dumps(info, sort_keys=True))
        result = traced_run(workload, args) if args.trace else measured_run(workload, args)
    except CheckFailed as exc:
        print(f"CHECK FAILED [{workload.name} seed={args.seed}]: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    line = {"correct": True, "attempted": result["attempted"], "failed": 0, "metrics": result["metrics"]}
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": info, **line}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - any crash is a failed run, never a result line
        traceback.print_exc()
        sys.exit(2)
