"""The four benchmark workloads, each driven through the public API of ``repro``.

Every workload follows one shape:

* ``setup()`` -- imports and warm-up (what a user pays once per process);
* ``prepare()`` -- derives the inputs and reference outputs from the seed,
  untimed and untraced;
* ``unit(k)`` -- one repeatable unit of measured work; every unit of a run
  does identical work on identical inputs, so per-unit counts repeat
  exactly and timings can be summarised by medians;
* ``after_unit()`` -- side measurements taken between units, so that their
  samples spread over the whole run;
* ``check_once()`` -- output checks that need not repeat per unit.

A failed output check raises :class:`CheckFailed`; the run then prints the
failure, prints no result line and exits with status 1.  See README.md for
why each workload was chosen and which layer it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

GOLDENS_PATH = Path(__file__).resolve().with_name("goldens.json")

#: A build that keeps at least this share of the input edges does no
#: sparsification work, so a static workload built on it measures nothing
#: the paper claims (ROADMAP item 1).
VALIDITY_MAX_KEPT = 0.9


class CheckFailed(Exception):
    """An output check or the workload-validity gate failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def edge_digest(graph) -> str:
    """Order-independent digest of a graph's edge set."""
    text = ";".join(f"{u},{v}" for u, v in sorted(graph.edge_set()))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def validity_gate(run) -> None:
    """Fail a static build that keeps >= 90% of its input edges or merges no clusters."""
    kept = run.num_edges / run.graph.num_edges if run.graph.num_edges else 1.0
    merges = sum(int(phase.get("cluster_merges", 0)) for phase in run.phases)
    require(
        kept < VALIDITY_MAX_KEPT,
        f"workload-validity gate: build kept {run.num_edges}/{run.graph.num_edges} "
        f"input edges ({kept:.1%} >= {VALIDITY_MAX_KEPT:.0%}); the input is too sparse "
        "for the construction to do any work",
    )
    require(merges > 0, "workload-validity gate: zero superclustering merges")


def load_goldens() -> Dict[str, Dict[str, object]]:
    if GOLDENS_PATH.exists():
        return json.loads(GOLDENS_PATH.read_text())
    return {}


class Clock:
    """Times named blocks; when a recorder is attached, each block is a span too."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder

    @contextmanager
    def block(self, name: str, trace: Optional[str] = None):
        timing = _Timing()
        span = self.recorder.open(name) if self.recorder is not None else None
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - start
            if span is not None:
                self.recorder.close(span, trace)


class _Timing:
    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


def new_samples() -> Dict[str, List[float]]:
    """Per-unit samples: stage timings, operation latencies and counters."""
    return {"generate_s": [], "build_s": [], "verify_s": [], "op_s": [], "unit_s": []}


class Workload:
    """Base class: name, graph size and the unit loop contract."""

    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.clock = Clock()
        self.goldens = load_goldens().get(self.name)
        self.golden = (self.goldens or {}).get(str(seed))

    @property
    def num_vertices(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        from repro import algorithms

        algorithms.all_specs()

    def prepare(self) -> None:
        pass

    def unit(self, k: int) -> Dict[str, List[float]]:
        raise NotImplementedError

    def after_unit(self) -> Dict[str, List[float]]:
        """Side measurements interleaved with the units, outside their timings."""
        return new_samples()

    def check_once(self) -> None:
        pass

    def unit_counters(self) -> Dict[str, float]:
        """Counters the workload reads off its own outputs for the last unit."""
        return {}

    def close(self) -> None:
        pass

    def golden_status(self) -> str:
        if self.goldens is None:
            return "this workload has no goldens"
        return "checked" if self.golden is not None else "no golden recorded for this seed"


# ----------------------------------------------------------------------
# static-central / static-congest
# ----------------------------------------------------------------------
class StaticWorkload(Workload):
    """Batch, one caller: generate -> ``repro.build`` -> sampled stretch check.

    The input is ``sparse_gnp`` with average degree ``n^(1/kappa)`` (kappa = 3,
    the registry default), dense enough that the construction discards most
    edges and superclusters (ROADMAP item 1's density-scaled family).
    """

    algorithm = ""
    size = 0
    verify_pairs = 0
    VERIFY_CHECKS = 4

    @property
    def num_vertices(self) -> int:
        return self.size

    def edge_probability(self) -> float:
        n = self.size
        return n ** (1.0 / 3.0) / (n - 1)

    def setup(self) -> None:
        super().setup()
        from repro import build, kernels
        from repro.graphs.generators import sparse_gnp_random_graph

        if kernels.active_backend(self.size) == kernels.KERNEL_NUMPY:
            kernels.require_numpy()
        build(self.algorithm, sparse_gnp_random_graph(256, 0.1, seed=self.seed))

    def prepare(self) -> None:
        self.digests: List[str] = []

    def unit(self, k: int) -> Dict[str, List[float]]:
        from repro import build
        from repro.analysis.stretch import evaluate_run_stretch
        from repro.graphs.generators import sparse_gnp_random_graph

        samples = new_samples()
        clock = self.clock
        reports = []
        with clock.block("bench.op", trace=f"build-{k}") as op:
            with clock.block("bench.generate") as gen:
                graph = sparse_gnp_random_graph(self.size, self.edge_probability(), seed=self.seed)
            with clock.block("bench.build") as built:
                run = build(self.algorithm, graph)
            # Several small checks on distinct pair samples: more verify_s samples per run.
            for check in range(self.VERIFY_CHECKS):
                with clock.block("bench.verify") as verified:
                    reports.append(
                        evaluate_run_stretch(
                            run, num_pairs=self.verify_pairs, seed=self.seed * 1000 + check
                        )
                    )
                samples["verify_s"].append(verified.seconds)
        samples["generate_s"].append(gen.seconds)
        samples["build_s"].append(built.seconds)
        samples["op_s"].append(op.seconds)
        samples["unit_s"].append(op.seconds)
        self.check_run(run, reports)
        return samples

    def check_run(self, run, reports) -> None:
        validity_gate(run)
        guarantee = run.effective_guarantee()
        require(guarantee is not None, f"{run.algorithm} declares no guarantee")
        for report in reports:
            require(
                report.satisfies_guarantee and report.pairs_checked > 0,
                f"sampled stretch violates {guarantee}: {len(report.violations)} violations, "
                f"{report.disconnected_mismatches} disconnected pairs",
            )
        require(run.spanner.is_subgraph_of(run.graph), "spanner is not a subgraph of the input")
        digest = edge_digest(run.spanner)
        if self.digests:
            require(digest == self.digests[0], "two units built different spanners from one input")
        self.digests.append(digest)
        if self.golden is not None:
            require(
                digest == self.golden["digest"],
                f"spanner edge digest {digest[:12]} differs from the golden "
                f"{str(self.golden['digest'])[:12]} recorded for seed {self.seed}",
            )


class StaticCentral(StaticWorkload):
    name = "static-central"
    algorithm = "new-centralized"
    # kernels.AUTO_MIN_VERTICES: the smallest n at which `auto` picks numpy.
    size = 32768
    verify_pairs = 5


class StaticCongest(StaticWorkload):
    name = "static-congest"
    algorithm = "new-distributed"
    size = 4096
    verify_pairs = 12

    def prepare(self) -> None:
        super().prepare()
        from repro import build
        from repro.graphs.generators import sparse_gnp_random_graph

        graph = sparse_gnp_random_graph(self.size, self.edge_probability(), seed=self.seed)
        self.reference_digest = edge_digest(build("new-centralized", graph).spanner)

    def check_run(self, run, reports) -> None:
        super().check_run(run, reports)
        require(
            self.digests[-1] == self.reference_digest,
            "new-distributed and new-centralized built different spanners on one graph",
        )


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
class ServeZipf(Workload):
    """Closed loop: ``serve.loadgen.run_load`` over a fresh store per unit.

    One unit replays the seed's fixed Zipf request stream against a fresh
    :class:`SpannerService` and a fresh temporary ``ResultStore``, sharing
    one pre-started pool of :data:`WORKERS` workers.
    """

    name = "serve-zipf"
    REQUESTS = 20000
    WINDOW = 8
    WORKERS = 2
    SIZES = (256, 512)
    #: Stretch and distance queries re-derived directly for the payload check.
    QUERY_SAMPLE = 24
    #: The direct path is timed over the catalogues of this many seeds (the
    #: run's own and derived ones), so that no single seed's graphs set it.
    DIRECT_CATALOGUES = 4

    @property
    def num_vertices(self) -> int:
        return max(self.SIZES)

    def setup(self) -> None:
        super().setup()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.serve import tasks

        # Forked, not spawned: a spawn pool starts multiprocessing's
        # resource-tracker process, which outlives the benchmark by seconds.
        self.pool = ProcessPoolExecutor(
            self.WORKERS, mp_context=multiprocessing.get_context("fork")
        )
        warm = {"algorithm": "greedy", "family": "path", "size": 8, "seed": 0}
        futures = [self.pool.submit(tasks.build_task, warm, 0) for _ in range(2 * self.WORKERS)]
        for future in futures:
            future.result()

    def prepare(self) -> None:
        from repro.serve import default_catalogue, generate_requests

        self.catalogue = default_catalogue(self.seed, sizes=self.SIZES)
        self.requests = generate_requests(self.REQUESTS, self.seed, catalogue=self.catalogue)
        self.direct = [(self.catalogue, self._sample_queries(self.requests)[0])]
        for j in range(1, self.DIRECT_CATALOGUES):
            seed = 10**6 + self.DIRECT_CATALOGUES * self.seed + j
            catalogue = default_catalogue(seed, sizes=self.SIZES)
            requests = generate_requests(self.REQUESTS, seed, catalogue=catalogue)
            self.direct.append((catalogue, self._sample_queries(requests)[0]))
        self.status_counts: Optional[Dict[str, int]] = None
        self.last_stats: Dict[str, int] = {}
        self._service = None

    def unit(self, k: int) -> Dict[str, List[float]]:
        from repro.experiments.store import ResultStore
        from repro.serve import SpannerService, run_load

        self._drop_service()
        samples = new_samples()
        self._store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.out_dir))
        # Kept open after the unit: check_once reads the served payloads off it.
        self._service = SpannerService(
            ResultStore(self._store_dir), workers=self.WORKERS, executor=self.pool
        )
        report = run_load(self._service, self.requests, concurrency=self.WINDOW)
        samples["op_s"].extend(report.latencies)
        samples["unit_s"].append(report.elapsed_seconds)
        self.check_report(report)
        self.last_stats = dict(report.stats)
        return samples

    def _drop_service(self) -> None:
        if getattr(self, "_service", None) is not None:
            self._service.close()
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._service = None

    def check_report(self, report) -> None:
        summary = report.to_dict()
        require(summary["dropped"] == 0, f"{summary['dropped']} requests dropped")
        require(summary["failure_count"] == 0, f"failure manifest: {report.failures}")
        counts = dict(summary["status_counts"])
        for status in ("rejected", "failed", "timeout"):
            if counts.get(status):
                raise CheckFailed(f"{counts[status]} requests {status}")
        if self.status_counts is None:
            self.status_counts = counts
        require(counts == self.status_counts, f"status counts changed between units: {counts}")
        if self.golden is not None:
            require(
                counts == self.golden["status_counts"],
                f"status counts {counts} differ from the golden "
                f"{self.golden['status_counts']} recorded for seed {self.seed}",
            )

    def unit_counters(self) -> Dict[str, float]:
        stats = self.last_stats
        return {
            "serve.responses": stats.get("responses", 0),
            "serve.hits": stats.get("hit", 0),
            "serve.coalesced": stats.get("coalesced", 0),
            "serve.pool_submissions": stats.get("pool_submissions", 0),
            "serve.batches": stats.get("batches", 0),
            "serve.rejected": stats.get("rejected", 0),
        }

    def _sample_queries(self, requests):
        from repro.serve import DistanceQuery, StretchQuery

        stretch, distance, seen = [], [], set()
        for request in requests:
            if request in seen:
                continue
            seen.add(request)
            if isinstance(request, StretchQuery) and len(stretch) < self.QUERY_SAMPLE:
                stretch.append(request)
            elif isinstance(request, DistanceQuery) and len(distance) < self.QUERY_SAMPLE:
                distance.append(request)
        return stretch, distance

    def check_payloads(self, service) -> None:
        """Served payloads are byte-identical to the direct build/stretch path."""
        from repro import build
        from repro.analysis.stretch import evaluate_run_stretch
        from repro.experiments.pipeline import canonicalize_payload
        from repro.experiments.registry import canonical_json
        from repro.graphs.distances import INFINITY
        from repro.graphs.generators import make_workload

        stretch, distance = self._sample_queries(self.requests)
        served = service.serve(list(self.catalogue) + stretch + distance)
        runs = {}
        for request, response in zip(self.catalogue, served):
            graph = make_workload(request.family, request.size, seed=request.seed)
            run = build(request.algorithm, graph, seed=request.seed)
            runs[request] = run
            direct = canonical_json(canonicalize_payload(run.to_dict()))
            require(
                response.payload is not None and canonical_json(response.payload) == direct,
                f"served build payload differs from repro.build for {request.describe()}",
            )
        offset = len(self.catalogue)
        for query, response in zip(stretch, served[offset:]):
            report = evaluate_run_stretch(
                runs[query.build], num_pairs=query.num_pairs, seed=query.pair_seed
            )
            direct = canonical_json(canonicalize_payload(report.to_dict()))
            require(
                response.payload is not None and canonical_json(response.payload) == direct,
                f"served stretch payload differs from evaluate_run_stretch for {query.describe()}",
            )
        offset += len(stretch)
        for query, response in zip(distance, served[offset:]):
            graph = make_workload(query.family, query.size, seed=query.seed)
            cache = graph.distance_cache()
            expected = [
                -1 if cache.distance(u, v) == INFINITY else int(cache.distance(u, v))
                for u, v in query.pairs
            ]
            require(
                response.payload is not None and response.payload["distances"] == expected,
                f"served distances differ from BFS for {query.describe()}",
            )

    def check_once(self) -> None:
        self.check_payloads(self._service)

    def after_unit(self) -> Dict[str, List[float]]:
        """Time the catalogues' direct generate -> build -> verify path once.

        One sample covers :data:`DIRECT_CATALOGUES` catalogues: generating
        their distinct graphs, building every entry, checking every sampled
        stretch query.  Single entries take a few milliseconds, too little to
        time steadily.
        """
        samples = new_samples()
        # A cyclic collection landing inside a ~0.1 s block moved single
        # samples by up to 40%; like timeit, collect first and pause it.
        gc.collect()
        gc.disable()
        try:
            self._time_direct_path(samples)
        finally:
            gc.enable()
        return samples

    def _time_direct_path(self, samples) -> None:
        from repro import build
        from repro.analysis.stretch import evaluate_run_stretch
        from repro.graphs.generators import make_workload

        catalogue = [request for entries, _ in self.direct for request in entries]
        stretch = [query for _, queries in self.direct for query in queries]
        keys = sorted({request.graph_key() for request in catalogue})
        clock = self.clock
        with clock.block("bench.generate", trace="direct") as gen:
            graphs = {key: make_workload(key[0], key[1], seed=key[2]) for key in keys}
        with clock.block("bench.build", trace="direct") as built:
            runs = {
                request: build(request.algorithm, graphs[request.graph_key()], seed=request.seed)
                for request in catalogue
            }
        with clock.block("bench.verify", trace="direct") as verified:
            reports = [
                evaluate_run_stretch(
                    runs[query.build], num_pairs=query.num_pairs, seed=query.pair_seed
                )
                for query in stretch
            ]
        for query, report in zip(stretch, reports):
            require(report.satisfies_guarantee, f"stretch violated: {query.describe()}")
        samples["generate_s"].append(gen.seconds)
        samples["build_s"].append(built.seconds)
        samples["verify_s"].append(verified.seconds)

    def close(self) -> None:
        self._drop_service()
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self.pool = None


# ----------------------------------------------------------------------
# dynamic-churn
# ----------------------------------------------------------------------
class DynamicChurn(Workload):
    """Batch: ``DynamicSpanner`` replays a seeded ``uniform`` ``ChurnTrace``.

    One unit generates the trace, builds the initial spanner, maintains it
    through every delta and checks the final spanner on all vertex pairs.
    """

    name = "dynamic-churn"
    ALGORITHM = "baswana-sen"
    SIZE = 500
    STEPS = 20
    BATCH = 8
    BUILD_REPEATS = 20
    VERIFY_REPEATS = 2

    @property
    def num_vertices(self) -> int:
        return self.SIZE

    def prepare(self) -> None:
        from repro.dynamic import ChurnTrace

        self.trace = ChurnTrace(
            "uniform", size=self.SIZE, steps=self.STEPS, batch_size=self.BATCH, seed=self.seed
        )
        self.decisions: Optional[List[str]] = None

    def unit(self, k: int) -> Dict[str, List[float]]:
        from repro.analysis.stretch import evaluate_stretch
        from repro.dynamic import DynamicSpanner

        samples = new_samples()
        clock = self.clock
        with clock.block("bench.generate", trace=f"replay-{k}") as gen:
            initial = self.trace.initial_graph()
            deltas = list(self.trace.deltas())
        samples["generate_s"].append(gen.seconds)
        # The initial build takes milliseconds, and single builds on this
        # scale fall into two modes about 1.5x apart; a median of them flips
        # between the modes.  So one sample is the mean of BUILD_REPEATS
        # builds, and the last spanner is maintained.
        with clock.block("bench.build", trace=f"replay-{k}") as built:
            for _ in range(self.BUILD_REPEATS):
                dynamic = DynamicSpanner(self.ALGORITHM, initial, seed=self.seed)
        samples["build_s"].append(built.seconds / self.BUILD_REPEATS)
        churn = 0.0
        for delta in deltas:
            start = time.perf_counter()
            record = dynamic.maintain(delta)
            step = time.perf_counter() - start
            churn += step
            samples["op_s"].append(step)
            require(
                record.certificate_violations == 0 or record.rebuilt,
                f"step {record.step}: certificate failed without a rebuild",
            )
        for _ in range(self.VERIFY_REPEATS):
            # Fresh copies: each check starts with cold distance caches.
            graph, spanner = dynamic.graph.copy(), dynamic.spanner.copy()
            with clock.block("bench.verify", trace=f"replay-{k}") as verified:
                report = evaluate_stretch(graph, spanner, guarantee=dynamic.guarantee)
            samples["verify_s"].append(verified.seconds)
        samples["unit_s"].append(churn)
        require(spanner.is_subgraph_of(graph), "final spanner is not a subgraph of the final graph")
        require(
            report.satisfies_guarantee,
            f"final spanner violates {dynamic.guarantee} on "
            f"{len(report.violations) + report.disconnected_mismatches} pairs",
        )
        decisions = [record.decision for record in dynamic.records]
        if self.decisions is None:
            self.decisions = decisions
        require(decisions == self.decisions, "maintenance decisions changed between replays")
        return samples


WORKLOADS = {cls.name: cls for cls in (StaticCentral, StaticCongest, ServeZipf, DynamicChurn)}
