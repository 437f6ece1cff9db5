"""The four benchmark workloads: set-up, timed body, correctness checks.

Each workload is a closed loop of one: the process calls the program
and waits for every result.  The body calls only public entry points;
checks run after the body and do not trust the compiler under test
(independent reference executor, conservation laws, cache provenance).
An op fails if it raises or if any check on its output fails.

:func:`run_round` runs one round in the current process; ``round.py``
calls it in a fresh process per round.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.arch import (
    PRESETS,
    ComputingMode,
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
    isaac_flash,
)
from repro.explore import SweepRunner, SweepSpace
from repro.fleet import AdmissionControl, Autoscaler, build_fleet, parse_router
from repro.fleet import simulate_fleet
from repro.models import MODEL_ZOO
from repro.mops import FlowValidator
from repro.quant import random_input, random_weights
from repro.scale import shard
from repro.sched import CIMMLC, annotate_placement
from repro.sched.lowering import lower_to_flow
from repro.serve import TenantSpec, make_trace, parse_policy, tenant_counts
from repro.sim.functional import CIMMachine
from repro.sim.reference import ReferenceExecutor
from repro.trace import Mutation, critical_path, record_shard, replay

from . import layers
from .probe import Interval, SpeedProbe
from .spans import SpanRecorder, counting_wrapper, instrument

#: Workload sizes.  ``tiny`` exists for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "zoo_compile": {"models": sorted(MODEL_ZOO), "presets": sorted(PRESETS),
                        "functional": ("lenet", "mlp", "tiny-conv",
                                       "conv-relu")},
        # Fig. 22 core and crossbar-size axes, five models, four levels.
        "arch_sweep": {"models": ("resnet18", "vgg16", "vit-tiny",
                                  "mobilenet", "resnet50"),
                       "cores": (256, 512, 768, 1024),
                       "xb_size": ("64x512", "128x256", "256x128", "512x64")},
        # 200 requests per Mcycle: ~80% utilisation, daily peaks above
        # capacity, so admission refuses and the autoscaler scales up.
        "fleet_diurnal": {"traces": 2, "requests": 50_000, "rate": 200.0},
        "shard_pipeline": {"models": ("resnet18", "mobilenet", "resnet50",
                                      "vit-tiny"),
                           "chips": (2, 4)},
    },
    "tiny": {
        "zoo_compile": {"models": ("lenet", "mlp", "tiny-conv"),
                        "presets": ("functional-testbed", "isaac-baseline"),
                        "functional": ("mlp", "tiny-conv")},
        "arch_sweep": {"models": ("mlp",), "cores": (64, 128),
                       "xb_size": ("128x256",)},
        "fleet_diurnal": {"traces": 2, "requests": 400, "rate": 200.0},
        "shard_pipeline": {"models": ("lenet",), "chips": (2,)},
    },
}

MODES = (ComputingMode.CM, ComputingMode.XBM, ComputingMode.WLM)
LINK_BANDWIDTH_SCALES = (0.25, 0.5, 2.0, 4.0)
REL_TOL = 1e-9


@dataclass
class Op:
    """One unit of work: its host time, outputs, and failure (if any)."""

    label: str
    interval: Optional[Interval] = None
    error: Optional[str] = None
    cycles: Optional[float] = None
    energy: Optional[float] = None
    value: object = None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-6)


def _timed(ops: List[Op], fn, probe: SpeedProbe) -> None:
    """Run ``fn(op)`` for every op, timing each; a raise fails the op."""
    for op in ops:
        interval = Interval(probe)
        try:
            fn(op)
        except Exception as exc:  # an op that raises counts as failed
            op.fail(f"{type(exc).__name__}: {exc}")
        op.interval = interval.close()


def _check_summary(op: Op, s: Dict) -> None:
    """Conservation laws of one performance summary."""
    segs = s["segments"]
    if not (math.isfinite(s["total_cycles"]) and s["total_cycles"] > 0):
        op.fail(f"total_cycles {s['total_cycles']!r}")
    if not _close(s["total_cycles"],
                  s["compute_cycles"] + s["reconfiguration_cycles"]):
        op.fail("total_cycles != compute + reconfiguration")
    if not _close(s["compute_cycles"], sum(g["cycles"] for g in segs)):
        op.fail("compute_cycles != sum of segment cycles")
    if not _close(s["reconfiguration_cycles"],
                  sum(g["reconfiguration"] for g in segs)):
        op.fail("reconfiguration_cycles != sum over segments")
    if not _close(s["energy_per_inference"], sum(s["energy"].values())):
        op.fail("energy_per_inference != sum of energy components")


def _report_summary(report) -> Dict:
    power = report.power
    return {
        "total_cycles": report.total_cycles,
        "compute_cycles": report.compute_cycles,
        "reconfiguration_cycles": report.reconfiguration_cycles,
        "segments": [{"cycles": g.cycles, "reconfiguration": g.reconfiguration}
                     for g in report.segments],
        "energy_per_inference": report.energy_per_inference,
        "energy": {"crossbar": power.energy_crossbar,
                   "converter": power.energy_converter,
                   "movement": power.energy_movement,
                   "reconfiguration": power.energy_reconfiguration},
    }


class Workload:
    """Base: subclasses fill ``ops`` in :meth:`body` and check them."""

    name = ""

    def __init__(self, seed: int, round_index: int, size: Dict,
                 work_dir: str, probe: Optional[SpeedProbe] = None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}:{round_index}")
        self.size = size
        self.work_dir = work_dir
        self.probe = probe or SpeedProbe()
        self.ops: List[Op] = []
        self.extra: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def body(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def extra_metrics(self, speed: float) -> None:
        """Workload-specific metrics, into ``self.extra``."""

    def throughput(self, wall_s: float) -> float:
        """Work per reference second of the body."""
        return len(self.ops) / wall_s

    def wall(self, body: Interval, speed: float) -> float:
        """The body in reference seconds: each op at its own speed, the
        rest at the body's ``speed``."""
        ops = [op.interval for op in self.ops]
        rest = body.seconds - sum(iv.seconds for iv in ops)
        return sum(iv.scaled(speed) for iv in ops) + rest * speed

    def outputs(self):
        """``(cycles, energy)`` lists of every simulated output."""
        done = [op for op in self.ops if op.error is None]
        return ([op.cycles for op in done], [op.energy for op in done])


class ZooCompile(Workload):
    """Every zoo model on every preset, compiled and placed, cold."""

    name = "zoo_compile"

    def setup(self) -> None:
        self.graphs = {m: MODEL_ZOO[m]() for m in self.size["models"]}
        self.archs = {a: PRESETS[a]() for a in self.size["presets"]}
        pairs = [(a, m) for a in self.archs for m in self.graphs]
        self.rng.shuffle(pairs)
        self.ops = [Op(f"{a}/{m}", value=(a, m)) for a, m in pairs]
        self.wseed = self.rng.randrange(2 ** 31)

    def body(self) -> None:
        def compile_and_place(op: Op) -> None:
            arch, model = op.value
            result = CIMMLC(self.archs[arch]).compile(self.graphs[model])
            placements = [annotate_placement(result.schedule, segment=seg)
                          for seg in range(len(result.schedule.segments))]
            op.value = (arch, model, result, placements)
        _timed(self.ops, compile_and_place, self.probe)

    def check(self) -> None:
        for op in self.ops:
            if op.error is not None:
                continue
            arch_name, model, result, placements = op.value
            op.value = None
            summary = _report_summary(result.report)
            _check_summary(op, summary)
            op.cycles = summary["total_cycles"]
            op.energy = summary["energy_per_inference"]
            _check_placement(op, result.schedule, placements,
                             self.archs[arch_name].chip.core_number)
            if arch_name == "functional-testbed" \
                    and model in self.size["functional"]:
                for mode in MODES:
                    _check_functional(op, model, mode, self.wseed)


def _check_placement(op: Op, schedule, placements, core_number: int) -> None:
    """Distinct in-chip cores, at most ``core_number`` per segment."""
    for seg, placement in enumerate(placements):
        cores = [c for placed in placement.values() for c in placed]
        if len(cores) != len(set(cores)):
            op.fail(f"segment {seg}: a core is placed twice")
        if any(not 0 <= c < core_number for c in cores):
            op.fail(f"segment {seg}: core outside 0..{core_number - 1}")
        if len(cores) > core_number:
            op.fail(f"segment {seg}: {len(cores)} cores > {core_number}")
        if not set(placement) <= set(schedule.segments[seg]):
            op.fail(f"segment {seg}: placed an op of another segment")


def _check_functional(op: Op, model: str, mode, wseed: int) -> None:
    """Lower, validate and execute on the machine model; the output must
    equal the independent reference executor's bit for bit."""
    graph = MODEL_ZOO[model]()
    arch = functional_testbed(mode)
    weights = random_weights(graph, seed=wseed, low=-4, high=4)
    inputs = random_input(graph, seed=wseed + 1)
    program = lower_to_flow(CIMMLC(arch).schedule(graph), weights)
    FlowValidator(arch).validate(program.flow)
    machine = CIMMachine(arch)
    machine.run(program, inputs)
    reference = ReferenceExecutor(graph, weights).run(inputs)
    for out in graph.outputs:
        got = machine.read_tensor(program, out, reference[out].shape)
        if not np.array_equal(got, reference[out].astype(np.float64)):
            op.fail(f"{model} {mode.value}: output differs from reference")


class ArchSweep(Workload):
    """A Fig.-22-style grid, cold into a fresh result cache, then again
    from disk."""

    name = "arch_sweep"

    def setup(self) -> None:
        graphs = [MODEL_ZOO[m]() for m in self.size["models"]]
        space = SweepSpace.grid(isaac_baseline(), graphs,
                                {"cores": list(self.size["cores"]),
                                 "xb_size": list(self.size["xb_size"])})
        self.points = list(space)
        self.rng.shuffle(self.points)
        self.ops = [Op(f"{p.label}/{p.series}", value=p) for p in self.points]
        self.cache_dir = tempfile.mkdtemp(prefix="result-cache-",
                                          dir=self.work_dir)

    def body(self) -> None:
        with SweepRunner(workers=1, cache_dir=self.cache_dir) as runner:
            def evaluate(op: Op) -> None:
                op.value = runner.run(SweepSpace([op.value]))
            _timed(self.ops, evaluate, self.probe)
            warm = Interval(self.probe)
            self.warm = None
            try:
                self.warm = runner.run(SweepSpace(self.points))
            except Exception as exc:  # fails every op below
                self.warm_error = f"{type(exc).__name__}: {exc}"
            self.warm_pass = warm.close()

    def check(self) -> None:
        warm = self.warm.results if self.warm is not None else None
        for i, op in enumerate(self.ops):
            if warm is None:
                op.fail(f"second pass raised: {self.warm_error}")
            if op.error is not None:
                continue
            cold = op.value
            op.value = None
            if len(cold) != 1 or cold.cache_misses != 1:
                op.fail("cold point was not evaluated")
                continue
            summary = cold.results[0].summary
            _check_summary(op, summary)
            op.cycles = summary["total_cycles"]
            op.energy = summary["energy_per_inference"]
            if not warm[i].cached:
                op.fail("second pass missed the disk cache")
            if warm[i].summary != summary:
                op.fail("second-pass summary differs from the cold pass")
        if self.warm is not None and not self.warm.all_cached:
            for op in self.ops:
                op.fail("second pass is not all_cached")

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def throughput(self, wall_s: float) -> float:
        return self.extra["points_per_s"]

    def extra_metrics(self, speed: float) -> None:
        n = len(self.ops)
        cold = sum(op.interval.scaled(speed) for op in self.ops)
        self.extra.update(points_per_s=n / cold,
                          warm_points_per_s=n / self.warm_pass.scaled(speed))


class FleetDiurnal(Workload):
    """The CLI-default fleet with autoscaler and admission control under
    an open-loop diurnal-bursty arrival schedule."""

    name = "fleet_diurnal"
    SPECS = (("resnet18", 4.0), ("mobilenet", 1.0))

    def setup(self) -> None:
        self.specs = [TenantSpec(m, m, weight=w) for m, w in self.SPECS]
        self.plan = build_fleet(isaac_flash(), self.specs, replicas=8)
        self.policy = parse_policy("timeout:8:50000")
        self.ops = []
        for k in range(self.size["traces"]):
            seed = self.rng.randrange(2 ** 31)
            trace = make_trace("diurnal-bursty", self.specs,
                               self.size["rate"] * 1e-6,
                               self.size["requests"], seed=seed)
            self.ops.append(Op(f"trace{k}:seed{seed}", value=trace))

    def body(self) -> None:
        def simulate(op: Op) -> None:
            op.value = (op.value, simulate_fleet(
                self.plan, op.value, policy=self.policy,
                router=parse_router("least-loaded"),
                admission=AdmissionControl(max_outstanding=64),
                autoscaler=Autoscaler()))
        _timed(self.ops, simulate, self.probe)

    def check(self) -> None:
        tenants = [t for replica in self.plan.replicas
                   for t in replica.tenants]
        self.requests = 0
        p99s, met, arrived, refused, util = [], 0.0, 0, 0, []
        for op in self.ops:
            if op.error is not None:
                continue
            trace, report = op.value
            op.value = None
            self.requests += len(trace)
            counts = tenant_counts(trace)
            for t in report.tenants:
                if t.arrived != t.completed + t.rejected:
                    op.fail(f"{t.tenant}: arrived != completed + rejected")
                if t.arrived != counts.get(t.tenant, 0):
                    op.fail(f"{t.tenant}: {t.arrived} arrived, trace has "
                            f"{counts.get(t.tenant, 0)}")
            if sum(report.rejections.values()) != report.rejected:
                op.fail("rejections by reason do not sum to rejected")
            if not _close(report.total_energy, report.replica_energy
                          + report.deploy_energy + report.link_energy):
                op.fail("total_energy != replica + deploy + link")
            if not _close(report.replica_energy,
                          sum(r.energy for r in report.replicas)):
                op.fail("replica_energy != sum over replicas")
            p99s.append(report.p99)
            met += report.slo_attainment * sum(t.arrived
                                               for t in report.tenants)
            arrived += sum(t.arrived for t in report.tenants)
            refused += report.rejected
            util.append(report.utilization)
        self.extra.update(
            p99_cycles=statistics.median(p99s) if p99s else 0.0,
            slo_attainment=met / arrived if arrived else 0.0,
            refusals_per_100k=refused * 1e5 / arrived if arrived else 0.0,
            utilization=statistics.mean(util) if util else 0.0)
        self.tenant_outputs = (
            [t.service.latency_cycles for t in tenants],
            [t.service.energy_per_inference for t in tenants])

    def throughput(self, wall_s: float) -> float:
        return self.requests / wall_s

    def outputs(self):
        return self.tenant_outputs


class ShardPipeline(Workload):
    """Shard onto 2- and 4-chip systems, then record, replay, attribute
    and run a link-bandwidth what-if grid on each plan."""

    name = "shard_pipeline"

    def setup(self) -> None:
        pairs = [(m, c) for m in self.size["models"]
                 for c in self.size["chips"]]
        self.rng.shuffle(pairs)
        self.ops = [Op(f"{m}/{c}chips",
                       value=(MODEL_ZOO[m](),
                              MultiChipSystem(isaac_baseline(), c)))
                    for m, c in pairs]

    def body(self) -> None:
        def run(op: Op) -> None:
            graph, system = op.value
            plan = shard(graph, system)
            recorded = record_shard(plan)
            identity = replay(recorded)
            path = critical_path(recorded)
            what_if = [replay(recorded, Mutation(link_bandwidth_scale=s))
                       for s in LINK_BANDWIDTH_SCALES]
            op.value = (plan, recorded, identity, path, what_if)
        _timed(self.ops, run, self.probe)

    def check(self) -> None:
        for op in self.ops:
            if op.error is not None:
                continue
            plan, recorded, identity, path, what_if = op.value
            op.value = None
            total = plan.report.total_cycles
            if identity.trace.digest() != recorded.digest():
                op.fail("identity replay digest differs from the recording")
            if path.total != total:
                op.fail(f"critical path {path.total!r} != plan total "
                        f"{total!r}")
            if not (math.isfinite(total) and total > 0):
                op.fail(f"total_cycles {total!r}")
            if len(what_if) != len(LINK_BANDWIDTH_SCALES):
                op.fail("what-if grid incomplete")
            op.cycles = total
            op.energy = plan.report.energy_per_inference


WORKLOADS = {cls.name: cls for cls in (ZooCompile, ArchSweep, FleetDiurnal,
                                       ShardPipeline)}


# -- traced run ------------------------------------------------------------


class _Tracing:
    """Span wrappers on every measured entry point, plus counters."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.compilers: Dict[int, object] = {}
        rec = self.rec
        self.inst = instrument(rec, layers.ENTRY_POINTS,
                               scopes=("repro", __name__))
        for name in layers.COMPILE_CACHE_LOOKUPS:
            self.inst.patch(f"repro.perf.cache:CompileCache.{name}",
                            lambda fn: counting_wrapper(
                                rec, "perf.compile_cache", fn))
        self.inst.patch("repro.explore.runner:ResultCache.get",
                        lambda fn: counting_wrapper(
                            rec, "explore.result_cache", fn))
        self.inst.patch("repro.perf.incremental:IncrementalCompiler.compile",
                        self._remember_compiler)

    def _remember_compiler(self, fn):
        def wrapper(compiler, *args, **kwargs):
            self.compilers[id(compiler)] = compiler
            return fn(compiler, *args, **kwargs)
        return wrapper

    def metrics(self) -> Dict[str, float]:
        rec = self.rec
        rec.finish()
        entries = rec.per_entry()
        out: Dict[str, float] = {}
        for name, _, _ in layers.ENTRY_POINTS:
            row = entries.get(name, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
            if name in layers.PARENTS:
                out[f"{name}.total_s"] = row["total_s"]
        hits = rec.counters.get("perf.compile_cache.hits", 0)
        misses = rec.counters.get("perf.compile_cache.misses", 0)
        out["perf.compile_cache.hits"] = hits
        out["perf.compile_cache.misses"] = misses
        out["perf.compile_cache.hit_ratio"] = (hits / (hits + misses)
                                               if hits + misses else 0.0)
        for key in ("exact_hits", "full_compiles", "delta_compiles",
                    "spliced_segments"):
            out[f"perf.incremental.{key}"] = sum(
                c.stats()[key] for c in self.compilers.values())
        for key in ("hits", "misses"):
            out[f"explore.result_cache.{key}"] = rec.counters.get(
                f"explore.result_cache.{key}", 0)
        events = out["serve.engine.EventLoop.push.calls"]
        out["serve.events"] = events
        out["fleet.ns_per_event"] = (
            out["fleet.engine.FleetEngine.run.total_s"] * 1e9 / events
            if events else 0.0)
        for root in ("bench.setup", "bench.body"):
            out[f"{root}.self_s"] = entries.get(root, {}).get("self_s", 0.0)
        out["bench.trace_overhead_s"] = 0.0  # filled in by run.py
        return out


def run_round(name: str, seed: int, round_index: int, size: str = "full",
              trace: bool = False, setup: Optional[Interval] = None,
              work_dir: Optional[str] = None,
              chrome_path: Optional[str] = None) -> Dict:
    """One round of workload ``name``: set up, time the body, check.

    ``setup`` is the interval opened when the process started, before
    ``import repro``, on a running :class:`SpeedProbe`; by default both
    start now.  Host times are probe-corrected and scaled to reference
    speed (the ``raw_`` fields are not scaled).  With ``trace`` no probe
    runs; the entry points are wrapped in span recorders for the set-up
    and the body, and the result carries the per-layer metrics.
    """
    workload = WORKLOADS[name]
    if setup is None:
        probe = SpeedProbe()
        if not trace:
            probe.start()
        setup = Interval(probe)
    probe = setup.probe
    work_dir = work_dir or tempfile.gettempdir()
    wl = workload(seed, round_index, SIZES[size][name], work_dir, probe)
    tracing = _Tracing() if trace else None
    span = tracing.rec.span if tracing else (lambda _name: nullcontext())
    try:
        try:
            with span("bench.setup"):
                wl.setup()
            setup.close()
            body = Interval(probe)
            with span("bench.body"):
                wl.body()
            body.close()
        finally:
            probe.stop()
            if tracing:
                tracing.inst.remove()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        speed = body.speed()
        wl.check()
        wl.extra_metrics(speed)
    finally:
        wl.close()
    cycles, energy = wl.outputs()
    wall_s = wl.wall(body, speed)
    result = {
        "workload": name,
        "round": round_index,
        "setup_s": setup.seconds * speed,
        "wall_s": wall_s,
        "raw_setup_s": setup.seconds,
        "raw_wall_s": body.seconds,
        "speed": speed,
        "probes": setup.count + body.count,
        "peak_rss_mb": rss_mb,
        "throughput": wl.throughput(wall_s),
        "op_ms": [op.interval.scaled(speed) * 1e3 for op in wl.ops],
        "errors": {op.label: op.error for op in wl.ops if op.error},
        "cycles": cycles,
        "energy": energy,
        "extra": wl.extra,
        "versions": {"repro": repro.__version__, "numpy": np.__version__},
    }
    if tracing:
        result["layers"] = tracing.metrics()
        if chrome_path:
            with open(chrome_path, "w") as fh:
                json.dump(tracing.rec.chrome_trace(), fh)
    return result
