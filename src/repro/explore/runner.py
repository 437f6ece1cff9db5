"""Sweep execution: fan points out over processes, cache results on disk.

The runner evaluates every :class:`~repro.explore.space.SweepPoint` of a
space into a plain-dict *summary* of the resulting
:class:`~repro.sim.performance.PerformanceReport`.  Summaries are JSON
(floats survive the round-trip bit-exactly), so a content-addressed disk
cache makes re-runs and overlapping sweeps near-free: the cache key is the
point fingerprint (architecture parameters + graph signature + compiler
options), the value is the summary.

``workers=1`` runs serially in-process (deterministic, debuggable);
``workers>1`` uses a :class:`concurrent.futures.ProcessPoolExecutor` and is
guaranteed to produce identical results in identical order — points are
independent compilations and the map preserves input order.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..perf import CompileCache
from ..perf import cache as perf_cache
from ..perf.kernels import fold
from ..sched import CIMMLC, no_optimization
from ..sim.performance import PerformanceReport
from .space import SweepPoint, SweepSpace

#: Cache layout version; bump when the summary schema changes.
#: v3: energy metrics (``energy_total``, ``energy_per_inference``,
#: ``weight_write_energy``, the ``reconfiguration`` breakdown component)
#: and the area proxies (``area_crossbars``, ``cores_used``).
#: v4: multi-chip ``scale`` blocks carry ``chips`` and per-``transfers``
#: routing detail (src/dst stage+chip, bits, hops, cycles, occupancy,
#: energy) so :func:`repro.trace.trace_from_summary` can rebuild a shard
#: trace — and ``repro sweep --prefilter replay`` re-price link axes —
#: without recompiling.  See the migration note in docs/PERFORMANCE.md.
CACHE_VERSION = 4

#: Cap on the worker-pool graph registry: beyond this many distinct
#: graphs the registry resets on pool re-creation instead of growing
#: (and re-pickling) forever in long sessions.
_MAX_POOL_GRAPHS = 32


def default_cache_dir() -> str:
    """The cache root used when none is given: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-explore``."""
    return os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-explore"))


def summarize_report(report: PerformanceReport,
                     noc_cycles: float = 0.0,
                     crossbars_used: int = 0,
                     cores_used: int = 0) -> Dict:
    """Flatten a :class:`PerformanceReport` into a JSON-able summary dict.

    ``noc_cycles`` is the schedule's total data-movement budget (NoC +
    buffer traffic, overlapped with compute) — kept for bottleneck
    attribution, which the report itself does not carry.
    ``crossbars_used`` / ``cores_used`` are the schedule's peak resident
    hardware footprint (the area proxies the report does not carry
    either; :func:`evaluate_point` reads them off the schedule).
    """
    return {
        "schedule_levels": list(report.schedule_levels),
        "pipelined": report.pipelined,
        "total_cycles": report.total_cycles,
        "compute_cycles": report.compute_cycles,
        "reconfiguration_cycles": report.reconfiguration_cycles,
        "noc_cycles": noc_cycles,
        "steady_state_interval": report.steady_state_interval,
        "segment_intervals": list(report.segment_intervals),
        "weight_load_cycles": report.weight_load_cycles,
        "weight_write_energy": report.weight_write_energy,
        "peak_power": report.power.peak_power,
        "avg_power": report.power.avg_power,
        "peak_active_crossbars": report.power.peak_active_crossbars,
        "energy_total": report.power.total_energy,
        "energy_per_inference": report.energy_per_inference,
        "area_crossbars": crossbars_used,
        "cores_used": cores_used,
        "energy": {
            "crossbar": report.power.energy_crossbar,
            "converter": report.power.energy_converter,
            "movement": report.power.energy_movement,
            "reconfiguration": report.power.energy_reconfiguration,
        },
        "segments": [
            {
                "index": seg.index,
                "cycles": seg.cycles,
                "reconfiguration": seg.reconfiguration,
                "bottleneck": seg.bottleneck,
                "bottleneck_cycles": seg.bottleneck_cycles,
            }
            for seg in report.segments
        ],
    }


def summarize_multichip(report: "MultiChipReport",
                        noc_cycles: float = 0.0,
                        crossbars_used: int = 0,
                        cores_used: int = 0) -> Dict:
    """Flatten a :class:`~repro.sim.performance.MultiChipReport` into the
    same summary schema as :func:`summarize_report` (so tables, Pareto
    extraction, and the serve bridge work unchanged), plus a ``scale``
    block with per-stage and per-link detail.

    ``noc_cycles`` carries the stages' total on-die data-movement budget
    (same convention as :func:`summarize_report`) so bottleneck
    attribution treats multi-chip points like single-chip ones;
    ``crossbars_used`` / ``cores_used`` sum each stage's peak resident
    footprint (stages are resident concurrently).
    """
    return {
        "schedule_levels": list(report.stages[0].schedule_levels
                                if report.stages else ()),
        "pipelined": True,
        "total_cycles": report.total_cycles,
        "compute_cycles": fold(r.compute_cycles for r in report.stages),
        "reconfiguration_cycles": fold(r.reconfiguration_cycles
                                       for r in report.stages),
        "noc_cycles": noc_cycles,
        "steady_state_interval": report.steady_state_interval,
        "segment_intervals": list(report.stage_intervals),
        "weight_load_cycles": fold(r.weight_load_cycles
                                   for r in report.stages),
        "weight_write_energy": report.weight_write_energy,
        "peak_power": report.peak_power,
        "avg_power": fold(r.power.avg_power for r in report.stages),
        "peak_active_crossbars": sum(r.power.peak_active_crossbars
                                     for r in report.stages),
        "energy_total": report.total_energy,
        "energy_per_inference": report.energy_per_inference,
        "area_crossbars": crossbars_used,
        "cores_used": cores_used,
        "energy": {
            "crossbar": fold(r.power.energy_crossbar for r in report.stages),
            "converter": fold(r.power.energy_converter for r in report.stages),
            "movement": fold(r.power.energy_movement for r in report.stages),
            "reconfiguration": fold(r.power.energy_reconfiguration
                                    for r in report.stages),
            "link": report.link_energy,
        },
        "segments": [],
        "scale": {
            "num_chips": report.num_chips,
            "chips": list(report.chips),
            "stage_intervals": list(report.stage_intervals),
            "stage_latencies": [r.total_cycles for r in report.stages],
            "link_intervals": list(report.link_intervals),
            "link_bits": [t.bits for t in report.transfers],
            "chip_peak_powers": list(report.chip_peak_powers),
            "link_energy": report.link_energy,
            # Per-transfer routing detail (v4): everything the trace
            # layer needs to rebuild and re-price the shard timeline
            # without recompiling (repro.trace.trace_from_summary).
            "transfers": [
                {"seq": i, "src_stage": t.src_stage,
                 "dst_stage": t.dst_stage, "src_chip": t.src_chip,
                 "dst_chip": t.dst_chip, "bits": t.bits, "hops": t.hops,
                 "cycles": t.cycles, "occupancy": t.occupancy,
                 "energy": t.energy}
                for i, t in enumerate(report.transfers)
            ],
        },
    }


def _peak_crossbars(schedule) -> int:
    """Most crossbars resident at once (the area proxy: segments swap,
    so residency peaks over segments rather than summing)."""
    return max((schedule.crossbars_used(i)
                for i in range(len(schedule.segments))), default=0)


def _peak_cores(schedule) -> int:
    """Most cores occupied at once (see :func:`_peak_crossbars`)."""
    return max((schedule.cores_used(i)
                for i in range(len(schedule.segments))), default=0)


def evaluate_point(point: SweepPoint,
                   cache: Optional[CompileCache] = None) -> Dict:
    """Compile one point and summarize its performance report.

    Multi-chip points (``point.chips > 1``) shard through
    :func:`repro.scale.shard` instead of a single-chip compilation.
    Module-level so :class:`ProcessPoolExecutor` can pickle it.

    ``cache`` defaults to the process-wide
    :data:`~repro.perf.cache.PROCESS_CACHE`, so per-op profiles and
    duplication searches are shared across every point (and series),
    in sweep workers and serial runs alike, that agrees on the
    quantities they depend on.
    """
    cache = perf_cache.resolve(cache)
    if point.chips < 1:
        from ..errors import ArchitectureError

        raise ArchitectureError(
            f"point {point.label!r}: chips must be >= 1, got {point.chips}")
    if point.chips > 1:
        from ..scale import shard

        plan = shard(point.graph, point.system(), options=point.options,
                     optimize=point.options is not None, cache=cache)
        noc = fold(d.profile.mov_cycles
                   for sched in plan.schedules
                   for d in sched.decisions.values())
        return summarize_multichip(
            plan.report, noc_cycles=noc,
            crossbars_used=sum(_peak_crossbars(s) for s in plan.schedules),
            cores_used=sum(_peak_cores(s) for s in plan.schedules))
    if point.options is None:
        result = no_optimization(point.graph, point.arch, cache=cache)
    else:
        result = CIMMLC(point.arch, point.options,
                        cache=cache).compile(point.graph)
    sched = result.schedule
    noc = fold(d.profile.mov_cycles
               for i in range(len(sched.segments))
               for d in sched.segment_decisions(i))
    return summarize_report(result.report, noc_cycles=noc,
                            crossbars_used=_peak_crossbars(sched),
                            cores_used=_peak_cores(sched))


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

#: Graphs registered in this worker, keyed by content signature.  Filled
#: by :func:`_worker_init` when the pool starts, so each distinct graph
#: crosses the process boundary once per pool instead of once per point.
_WORKER_GRAPHS: Dict[str, "Graph"] = {}  # noqa: F821 - forward name


def _worker_init(graph_blob: bytes) -> None:
    """Pool initializer: unpickle the sweep's graphs into this worker."""
    _WORKER_GRAPHS.update(pickle.loads(graph_blob))


@dataclass(frozen=True)
class _PointTask:
    """A :class:`SweepPoint` minus its graph (referenced by signature).

    What actually crosses the process boundary per point: the
    architecture and options pickle in microseconds, while
    the graph — the heavy part — is resolved from the worker-side
    registry populated by :func:`_worker_init`.
    """

    label: str
    series: str
    arch: "CIMArchitecture"  # noqa: F821 - forward name
    options: Optional["CompilerOptions"]  # noqa: F821 - forward name
    chips: int
    link_bandwidth: Optional[float]
    link_latency: Optional[float]
    topology: str
    graph_sig: str

    @classmethod
    def from_point(cls, point: SweepPoint) -> "_PointTask":
        """Strip the graph off ``point``, keeping its signature."""
        return cls(point.label, point.series, point.arch, point.options,
                   point.chips, point.link_bandwidth, point.link_latency,
                   point.topology, point.graph.signature())

    def to_point(self, graph: "Graph") -> SweepPoint:  # noqa: F821
        """Rebuild the full point around the registry ``graph``."""
        return SweepPoint(self.label, self.series, self.arch, graph,
                          self.options, self.chips, self.link_bandwidth,
                          self.link_latency, self.topology)


def _evaluate_task(task: _PointTask) -> Dict:
    """Worker-side entry: resolve the graph, evaluate with the
    process-wide compile cache."""
    return evaluate_point(task.to_point(_WORKER_GRAPHS[task.graph_sig]))


class ResultCache:
    """Content-addressed JSON cache: one file per point fingerprint."""

    def __init__(self, root: str) -> None:
        self.root = os.path.join(os.path.expanduser(root), f"v{CACHE_VERSION}")
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[Dict]:
        """Cached summary for ``key``, or ``None`` on miss/corruption."""
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, summary: Dict) -> None:
        """Store ``summary`` under ``key`` (atomic, best-effort)."""
        # Write-then-rename so concurrent sweeps never read a torn file.
        # json.dumps runs the C encoder (json.dump would run the
        # pure-Python iterencode); its ASCII text is the file's bytes.
        data = json.dumps(summary).encode()
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(key))
        except OSError:  # pragma: no cover - best-effort cache
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))


@dataclass(frozen=True, eq=False)
class PointResult:
    """One evaluated point: the point, its summary, and cache provenance."""

    point: SweepPoint
    summary: Dict
    cached: bool = False

    @property
    def label(self) -> str:
        """The design-point label (delegates to the point)."""
        return self.point.label

    @property
    def series(self) -> str:
        """The measurement series label (delegates to the point)."""
        return self.point.series

    @property
    def total_cycles(self) -> float:
        """End-to-end latency of the point, from the summary."""
        return self.summary["total_cycles"]

    @property
    def peak_power(self) -> float:
        """Peak power of the point, from the summary."""
        return self.summary["peak_power"]

    @property
    def energy_per_inference(self) -> float:
        """Energy one inference consumes at this point, from the summary."""
        return self.summary["energy_per_inference"]


@dataclass
class SweepResult:
    """All point results of one sweep, in space order, plus cache stats.

    ``deduped`` counts points that were *identical* to another point of
    the same sweep (same content fingerprint) and therefore shared its
    evaluation instead of dispatching their own.
    """

    results: List[PointResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    deduped: int = 0

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def by_label(self) -> Dict[str, Dict[str, PointResult]]:
        """``{point label: {series: result}}`` preserving insertion order."""
        grouped: Dict[str, Dict[str, PointResult]] = {}
        for r in self.results:
            grouped.setdefault(r.label, {})[r.series] = r
        return grouped

    def speedups(self, baseline_series: str = "baseline") -> Dict[str, Dict[str, float]]:
        """Per-label ``series -> baseline_cycles / series_cycles``.

        Every label must include the baseline series (raises
        :class:`KeyError` otherwise — use
        :func:`~repro.explore.report.metric_result` for raw metrics).
        """
        out: Dict[str, Dict[str, float]] = {}
        for label, series_map in self.by_label().items():
            base = series_map.get(baseline_series)
            if base is None:
                raise KeyError(
                    f"label {label!r} has no {baseline_series!r} series; "
                    f"sweep the baseline too or report raw metrics via "
                    f"metric_result()")
            out[label] = {
                name: base.total_cycles / r.total_cycles
                for name, r in series_map.items()
                if name != baseline_series
            }
        return out

    @property
    def all_cached(self) -> bool:
        """True when every point came from the disk cache."""
        return bool(self.results) and self.cache_misses == 0


class SweepRunner:
    """Evaluates a :class:`SweepSpace`, optionally in parallel and cached.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs serially in-process.
    cache_dir:
        Root of the disk cache.  ``None`` disables caching entirely.

    The runner additionally (a) *deduplicates* identical points (same
    content fingerprint) before dispatch, (b) keeps one
    :class:`ProcessPoolExecutor` alive across :meth:`run`
    calls — re-created only when a sweep introduces a graph the pool's
    workers have not seen — and (c) ships each distinct graph to the
    workers once, through the pool initializer, instead of re-pickling
    it with every point.  Workers keep a process-wide
    :class:`~repro.perf.CompileCache`, so points sharing an
    architecture reuse per-op profiles and duplication searches.
    """

    def __init__(self, workers: int = 1,
                 cache_dir: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_graphs: Dict[str, "Graph"] = {}  # noqa: F821

    # -- worker-pool lifecycle -----------------------------------------

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self.close()
        except Exception:
            pass

    def _pooled_summaries(self, todo: List[SweepPoint]) -> Iterator[Dict]:
        """Fan ``todo`` out over the (persistent) worker pool."""
        needed = {}
        for p in todo:
            needed.setdefault(p.graph.signature(), p.graph)
        if self._pool is None or any(s not in self._pool_graphs
                                     for s in needed):
            self.close()
            if len(self._pool_graphs) + len(needed) > _MAX_POOL_GRAPHS:
                # Bound the initializer payload in long sessions: drop
                # the accumulated registry and re-ship only this run's
                # graphs (older graphs just trigger a later re-create).
                self._pool_graphs = {}
            self._pool_graphs.update(needed)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(pickle.dumps(self._pool_graphs),))
        tasks = [_PointTask.from_point(p) for p in todo]
        return self._pool.map(_evaluate_task, tasks)

    # -- evaluation ----------------------------------------------------

    def run(self, space: SweepSpace) -> SweepResult:
        """Evaluate every point, consulting/filling the cache.

        Results come back in space order regardless of worker count,
        disk-cache state, or dedup — points are independent
        compilations and every dispatch path preserves input order.
        """
        points = list(space)
        slots: List[Optional[PointResult]] = [None] * len(points)
        pending: List[int] = []
        keys: List[str] = [point.fingerprint() for point in points]
        first_of: Dict[str, int] = {}      # fingerprint -> pending index
        dup_of: Dict[int, int] = {}        # duplicate -> canonical index
        for i, point in enumerate(points):
            if self.cache is not None:
                summary = self.cache.get(keys[i])
                if summary is not None:
                    slots[i] = PointResult(point, summary, cached=True)
                    continue
            if keys[i] in first_of:
                dup_of[i] = first_of[keys[i]]
                continue
            first_of[keys[i]] = i
            pending.append(i)

        if pending:
            todo = [points[i] for i in pending]
            if self.workers > 1 and len(todo) > 1:
                summaries = self._pooled_summaries(todo)
            else:
                summaries = map(evaluate_point, todo)
            # Each summary is cached as it arrives, so a point that
            # raises keeps every point finished before it.
            for i, summary in zip(pending, summaries):
                slots[i] = PointResult(points[i], summary, cached=False)
                if self.cache is not None:
                    self.cache.put(keys[i], summary)
        for i, canonical in dup_of.items():
            # A fingerprint collision within the sweep: reuse the
            # canonical evaluation (deep-copied; summaries are mutable).
            source = slots[canonical]
            slots[i] = PointResult(points[i],
                                   copy.deepcopy(source.summary),
                                   cached=source.cached)

        return SweepResult(
            results=[r for r in slots if r is not None],
            cache_hits=len(points) - len(pending) - len(dup_of),
            cache_misses=len(pending),
            deduped=len(dup_of),
        )
