"""Production vs. the scalar oracle: bit-identical results, observable
reuse.

Layers of pinning:

* **the seam** — :func:`repro.perf.reference.installed` swaps exactly
  its listed attributes, keeps the process memos idle, and restores
  every original on exit; only the oracle and the bench harness import
  :mod:`repro.perf.reference`;
* **kernel equality** — every production kernel (NoC costs, latency/
  fill evaluation, duplication searches, placement scoring) produces
  values ``==`` to its oracle form on the same inputs, across models,
  presets, and topologies;
* **report equality** — whole ``PerformanceReport`` /
  ``MultiChipReport`` objects match field-for-field between the oracle
  and production;
* **cache behaviour** — :class:`repro.perf.CompileCache` hit counters
  prove profiles/duplication searches are shared, the sweep runner
  deduplicates identical points, and its worker pool persists across
  runs;
* **disk memo integrity** — :class:`repro.perf.DiskCompileCache`
  survives corrupted/truncated entries (clean recompile), orphans
  entries on a schema bump, and keeps two concurrent processes
  bit-identical;
* **incremental recompilation** — :class:`repro.perf.
  IncrementalCompiler` compiles a one-axis architecture family over
  one shared cache, bit-identical to from-scratch.
"""

import ast
import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.arch import (
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
    noc,
    table2_example,
)
from repro.explore import SweepPoint, SweepRunner, SweepSpace, level_series
from repro.explore import runner as runner_mod
from repro.models import lenet, mlp, resnet18, vit_tiny
from repro.perf import (
    CompileCache,
    DiskCompileCache,
    IncrementalCompiler,
    default_compile_cache,
    disk_cache_enabled,
    reference,
)
from repro.perf import diskcache as diskcache_mod
from repro.sched import CIMMLC, CompilerOptions, no_optimization
from repro.sched import cg, placement
from repro.sched.cg import duplicate_min_bottleneck, duplicate_min_total
from repro.sched.costs import CostModel
from repro.sched.placement import annotate_placement, place_greedy
from repro.sched.schedule import OpDecision
from repro.scale import shard
from repro.serve import TenantSpec, plan_spatial
from repro.sim import performance
from repro.sim.performance import PerformanceSimulator

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _report_fields(report):
    return {
        "total": report.total_cycles,
        "compute": report.compute_cycles,
        "reconf": report.reconfiguration_cycles,
        "segments": report.segments,
        "op_latency": report.op_latency,
        "power": report.power,
        "weight_load": report.weight_load_cycles,
        "intervals": report.segment_intervals,
        "steady": report.steady_state_interval,
    }


def _memo_state():
    """Entry and hit counts of every implicit process memo."""
    caches = (cg._IMPLICIT_SEARCH_CACHE, runner_mod._PROCESS_CACHE)
    lrus = (noc._average_cost, noc._max_cost, noc.hop_cost_array)
    return ([c.stats() for c in caches],
            [(f.cache_info().hits, f.cache_info().currsize) for f in lrus],
            len(placement._GREEDY_MEMO))


class TestReferenceSeam:
    def test_installed_swaps_oracle_and_restores(self):
        originals = [vars(owner)[attr]
                     for owner, attr, _ in reference.SWAPS]
        with reference.installed():
            for owner, attr, oracle in reference.SWAPS:
                assert vars(owner)[attr] is oracle, attr
        for (owner, attr, _), original in zip(reference.SWAPS, originals):
            assert vars(owner)[attr] is original, attr

    def test_process_memos_stay_idle_inside_the_seam(self):
        # Fresh spec/architecture values so no lru entry pre-exists.
        arch = isaac_baseline().with_cores(96).with_xb_size((96, 96))
        cache = CompileCache()
        before = _memo_state()
        with reference.installed():
            schedule = CIMMLC(arch).schedule(lenet())
            annotate_placement(schedule)
            PerformanceSimulator(arch).run(schedule)
            SweepRunner().run(SweepSpace.from_arch_points(
                [("c32", functional_testbed().with_cores(32))], mlp(),
                series=level_series(["CG"])))
            plan_spatial(functional_testbed(), [TenantSpec("mlp", "mlp")])
            IncrementalCompiler(cache=cache).compile(mlp(), arch)
        assert _memo_state() == before
        assert cache.stats() == CompileCache().stats()

    def test_explicit_cache_is_honoured_inside_the_seam(self):
        cache = CompileCache()
        with reference.installed():
            CIMMLC(functional_testbed(), cache=cache).compile(mlp())
        assert cache.profile_misses >= 1 and cache.dup_misses >= 1

    def test_restores_when_the_block_raises(self):
        original = vars(cg)["pipelined_latency"]
        with pytest.raises(RuntimeError):
            with reference.installed():
                raise RuntimeError("boom")
        assert cg.pipelined_latency is original
        assert runner_mod._PROCESS_CACHE is not None

    def test_only_oracle_and_bench_import_the_seam(self):
        allowed = {os.path.join("repro", "perf", "reference.py"),
                   os.path.join("repro", "perf", "bench.py")}
        offenders = []
        for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, SRC)
                with open(path) as fh:
                    text = fh.read()
                if "REPRO_FASTPATH" in text:
                    offenders.append((rel, "REPRO_FASTPATH"))
                if rel in allowed:
                    continue
                package = rel[:-3].replace(os.sep, ".").split(".")
                for node in ast.walk(ast.parse(text)):
                    if isinstance(node, ast.ImportFrom):
                        base = package[:len(package) - node.level] \
                            if node.level else []
                        module = ".".join(base + ([node.module]
                                                  if node.module else []))
                        names = [f"{module}.{a.name}" for a in node.names]
                    elif isinstance(node, ast.Import):
                        names = [a.name for a in node.names]
                    else:
                        continue
                    if any(n == "repro.perf.reference"
                           or n.startswith("repro.perf.reference.")
                           for n in names):
                        offenders.append((rel, "imports the oracle"))
        assert offenders == []


class TestNocKernelEquality:
    @pytest.mark.parametrize("spec", [
        noc.mesh(1.0), noc.mesh(2.5), noc.mesh(1.0, grid=(4, 8)),
        noc.htree(1.0), noc.htree(0.7), noc.shared_bus(3.0),
        noc.NocSpec("ideal"),
        noc.matrix_noc([[0.5 * abs(i - j) + (0.1 if i == j else 0.0)
                         for j in range(32)] for i in range(32)]),
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 17, 32])
    def test_average_and_max_cost(self, spec, n):
        ref = (reference.average_cost(spec, n), reference.max_cost(spec, n))
        fast = (spec.average_cost(n), spec.max_cost(n))
        assert ref == fast  # exact, not approx


#: (model factory, architecture factory) pairs covering the three
#: computing modes and both big and tiny graphs.
CASES = [
    (mlp, functional_testbed),
    (lenet, isaac_baseline),
    (vit_tiny, lambda: isaac_baseline().with_xb_size((128, 256))),
    (mlp, table2_example),
]


class TestReportEquality:
    @pytest.mark.parametrize("model,arch_fn", CASES)
    def test_compile_reports_identical(self, model, arch_fn):
        arch = arch_fn()
        with reference.installed():
            ref = CIMMLC(arch).compile(model())
        fast = CIMMLC(arch).compile(model())
        assert _report_fields(ref.report) == _report_fields(fast.report)

    @pytest.mark.parametrize("model,arch_fn", CASES[:2])
    def test_baseline_reports_identical(self, model, arch_fn):
        arch = arch_fn()
        with reference.installed():
            ref = no_optimization(model(), arch)
        fast = no_optimization(model(), arch)
        assert _report_fields(ref.report) == _report_fields(fast.report)

    def test_simulator_identical_on_one_schedule(self):
        arch = isaac_baseline()
        schedule = CIMMLC(arch).schedule(lenet())
        with reference.installed():
            ref = PerformanceSimulator(arch).run(schedule)
        fast = PerformanceSimulator(arch).run(schedule)
        assert _report_fields(ref) == _report_fields(fast)

    def test_multichip_report_identical(self):
        with reference.installed():
            ref = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        fast = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        assert ref.stages == fast.stages
        assert ref.report.total_cycles == fast.report.total_cycles
        assert ref.report.steady_state_interval == \
            fast.report.steady_state_interval
        assert ref.report.channel_occupancies == \
            fast.report.channel_occupancies
        assert ref.report.transfers == fast.report.transfers
        for a, b in zip(ref.report.stages, fast.report.stages):
            assert _report_fields(a) == _report_fields(b)


def _profiles(model, arch_fn):
    arch = arch_fn()
    return list(CostModel(arch).profiles(model()).values()), \
        arch.chip.core_number


class TestSearchKernelEquality:
    # table2_example is excluded: the whole model exceeds its 2-core
    # chip, so a single-segment search raises CapacityError on both
    # sides (the compile path segments first — covered above).
    @pytest.mark.parametrize("model,arch_fn", CASES[:3])
    def test_duplication_searches_identical(self, model, arch_fn):
        profiles, budget = _profiles(model, arch_fn)
        with reference.installed():
            ref = (duplicate_min_bottleneck(profiles, budget),
                   duplicate_min_total(profiles, budget))
        fast = (duplicate_min_bottleneck(profiles, budget),
                duplicate_min_total(profiles, budget))
        assert ref == fast

    @pytest.mark.parametrize("model,arch_fn", CASES[:3])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_search_bodies_identical(self, model, arch_fn, scale):
        profiles, budget = _profiles(model, arch_fn)
        budget *= scale
        assert reference.duplicate_min_bottleneck(profiles, budget) == \
            cg._duplicate_min_bottleneck(profiles, budget)
        assert reference.duplicate_min_total(profiles, budget) == \
            cg._duplicate_min_total(profiles, budget)

    def test_refine_exchange_identical_from_perturbed_starts(self):
        profiles, budget = _profiles(vit_tiny, CASES[2][1])
        cim = [p for p in profiles if p.is_cim]
        rng = random.Random(0)
        for _ in range(5):
            start = {p.name: 1 for p in cim}
            spare = budget - sum(p.cores_per_replica for p in cim)
            for p in rng.sample(cim, len(cim)):
                extra = rng.randint(0, min(p.max_useful_dup - 1,
                                           spare // p.cores_per_replica))
                start[p.name] += extra
                spare -= extra * p.cores_per_replica
            assert reference.refine_exchange(cim, budget, dict(start)) == \
                cg._refine_exchange(cim, budget, dict(start))

    @pytest.mark.parametrize("num_mvms", [1, 2, 7, 100, 511, 512, 513,
                                          4096, 50_000])
    def test_useful_dups_identical_at_every_size(self, num_mvms):
        profile = _profiles(vit_tiny, CASES[2][1])[0][0]
        for cap in (1, 3, 64, num_mvms, 10 * num_mvms):
            p = dataclasses.replace(profile, num_mvms=num_mvms,
                                    max_useful_dup=cap,
                                    cores_per_replica=1)
            assert reference.useful_dups(p, cap) == \
                cg._useful_dups(p, cap)

    @pytest.mark.parametrize("model,arch_fn", CASES)
    def test_segment_latencies_identical(self, model, arch_fn):
        arch = arch_fn()
        schedule = CIMMLC(arch).schedule(model())
        for seg in range(len(schedule.segments)):
            decisions = schedule.segment_decisions(seg)
            for pipelined in (True, False):
                assert reference.segment_latencies(decisions, pipelined) \
                    == performance._segment_latencies(decisions, pipelined)
            assert reference.pipelined_latency(decisions) == \
                cg.pipelined_latency(decisions)
            assert reference.sequential_latency(decisions) == \
                cg.sequential_latency(decisions)
        undup = [OpDecision(d.profile) for d in decisions]
        assert reference.pipelined_latency(undup) == \
            cg.pipelined_latency(undup)

    def test_placement_identical(self):
        schedule = CIMMLC(isaac_baseline()).schedule(lenet())
        for io_anchor in (None, 0, 5):
            ref = reference.place_greedy(schedule, io_anchor=io_anchor)
            fast = place_greedy(schedule, io_anchor=io_anchor)
            assert ref == fast

    def test_placement_identical_on_a_region(self):
        arch = isaac_baseline()
        schedule = CIMMLC(arch.with_cores(16)).schedule(lenet())
        region = list(range(40, 56))
        kwargs = dict(region=region, die_cores=arch.chip.core_number)
        assert reference.place_greedy(schedule, **kwargs) == \
            place_greedy(schedule, **kwargs)


class TestBenchRefusal:
    def test_run_bench_refuses_when_digests_differ(self, monkeypatch):
        from repro.perf.bench import run_bench

        real = reference.refine_exchange

        def perturbed(cim, budget, dups, cache=None):
            dups = real(cim, budget, dups, cache)
            dups[cim[0].name] += 1
            return dups

        monkeypatch.setattr(reference, "refine_exchange", perturbed)
        with pytest.raises(RuntimeError, match="'duplication'.*refusing"):
            run_bench(["duplication"], quick=True)
        assert cg._refine_exchange is not perturbed   # seam undone


class TestCompileCache:
    def test_profiles_shared_across_compilations(self):
        cache = CompileCache()
        arch = functional_testbed()
        a = CIMMLC(arch, cache=cache).compile(mlp())
        misses = cache.profile_misses
        b = CIMMLC(arch, cache=cache).compile(mlp())
        assert cache.profile_hits >= 1
        assert cache.profile_misses == misses   # no new profile work
        assert _report_fields(a.report) == _report_fields(b.report)

    def test_content_addressing_ignores_object_identity(self):
        # Two distinct but equal graphs / architectures share entries.
        cache = CompileCache()
        CIMMLC(functional_testbed(), cache=cache).compile(mlp())
        CIMMLC(functional_testbed(), cache=cache).compile(mlp())
        assert cache.profile_hits >= 1 and cache.dup_hits >= 1

    def test_series_share_dup_searches(self):
        # CG and CG+MVM run the same CG-level search: one miss, one hit.
        cache = CompileCache()
        arch = isaac_baseline()
        CIMMLC(arch, CompilerOptions(max_level="CG"),
               cache=cache).compile(lenet())
        hits_before = cache.dup_hits
        CIMMLC(arch, CompilerOptions(max_level="MVM"),
               cache=cache).compile(lenet())
        assert cache.dup_hits > hits_before
        assert cache.segment_hits >= 1

    def test_stats_and_clear(self):
        cache = CompileCache()
        CIMMLC(functional_testbed(), cache=cache).compile(mlp())
        stats = cache.stats()
        assert stats["profiles_stored"] >= 1
        cache.clear()
        stats = cache.stats()
        assert stats["profiles_stored"] == 0 and stats["profile_hits"] == 0

    def test_cache_does_not_change_results(self):
        arch = functional_testbed()
        plain = CIMMLC(arch).compile(mlp())
        cached = CIMMLC(arch, cache=CompileCache()).compile(mlp())
        assert _report_fields(plain.report) == _report_fields(cached.report)


class TestSweepRunnerFastPath:
    def _point(self, label, arch, graph):
        return SweepPoint(label, "CG", arch, graph,
                          CompilerOptions(max_level="CG"))

    def test_dedup_identical_points(self, monkeypatch):
        base = functional_testbed()
        graph = mlp()
        space = SweepSpace([
            self._point("a", base, graph),
            self._point("twin-of-a", base, graph),
            self._point("b", base.with_cores(8), graph),
        ])
        calls = []
        real = runner_mod.evaluate_point
        monkeypatch.setattr(runner_mod, "evaluate_point",
                            lambda p: calls.append(p.label) or real(p))
        result = SweepRunner().run(space)
        assert result.deduped == 1
        assert result.cache_misses == 2
        assert sorted(calls) == ["a", "b"]      # twin never dispatched
        assert result.results[0].summary == result.results[1].summary
        assert len(result) == 3                 # order and size preserved

    def test_dedup_also_inside_reference_seam(self, monkeypatch):
        base = functional_testbed()
        graph = mlp()
        space = SweepSpace([self._point("a", base, graph),
                            self._point("twin", base, graph)])
        calls = []
        real = runner_mod.evaluate_point
        monkeypatch.setattr(runner_mod, "evaluate_point",
                            lambda p: calls.append(p.label) or real(p))
        with reference.installed():
            result = SweepRunner().run(space)
        assert result.deduped == 1 and calls == ["a"]
        assert result.results[0].summary == result.results[1].summary

    def test_pool_persists_until_new_graph(self):
        base = functional_testbed()
        with SweepRunner(workers=2) as runner:
            series = level_series(["CG"])
            space1 = SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                mlp(), series=series)
            runner.run(space1)
            pool = runner._pool
            assert pool is not None
            space2 = SweepSpace.from_arch_points(
                [("c32", base.with_cores(32)),
                 ("c64", base.with_cores(64))], mlp(), series=series)
            runner.run(space2)
            assert runner._pool is pool         # same graph: reused
            space3 = SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                lenet(), series=series)
            runner.run(space3)
            assert runner._pool is not pool     # new graph: recreated
        assert runner._pool is None             # context exit closed it

    def test_parallel_pool_matches_serial(self):
        base = functional_testbed()
        series = level_series(["baseline", "CG"])
        def space():
            return SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                mlp(), series=series)
        serial = SweepRunner(workers=1).run(space())
        with SweepRunner(workers=2) as runner:
            parallel = runner.run(space())
        assert [r.summary for r in serial] == [r.summary for r in parallel]

    def test_reference_path_matches_fast_path(self):
        base = functional_testbed()
        series = level_series(["baseline", "CG"])
        def space():
            return SweepSpace.from_arch_points(
                [("c8", base.with_cores(8))], mlp(), series=series)
        with reference.installed():
            ref = SweepRunner().run(space())
        fast = SweepRunner().run(space())
        assert [r.summary for r in ref] == [r.summary for r in fast]


class TestGraphSignature:
    def test_cached_and_invalidated(self):
        g = mlp()
        sig = g.signature()
        assert g.signature() == sig             # cached, stable
        assert mlp().signature() == sig         # content-addressed
        from repro.graph import TensorSpec
        g.add_tensor(TensorSpec("extra", (1, 4), 8))
        assert g.signature() != sig             # mutation invalidates

    def test_annotations_do_not_change_identity(self):
        g = lenet()
        sig = g.signature()
        CIMMLC(isaac_baseline()).compile(g)     # writes annotations
        assert g.signature() == sig

    def test_node_lookup_indexed(self):
        g = mlp()
        name = g.nodes[0].name
        assert g.node(name) is g.nodes[0]
        from repro.errors import GraphError
        with pytest.raises(GraphError):
            g.node("no-such-node")


class TestDiskCompileCache:
    def _compile(self, cache):
        return CIMMLC(functional_testbed(), cache=cache).compile(mlp())

    def test_second_instance_is_fully_warm(self, tmp_path):
        cold = DiskCompileCache(str(tmp_path))
        ref = self._compile(cold)
        assert cold.disk_writes > 0 and cold.profile_misses >= 1
        warm = DiskCompileCache(str(tmp_path))     # a "new process"
        res = self._compile(warm)
        assert warm.profile_misses == 0
        assert warm.dup_misses == 0
        assert warm.segment_misses == 0
        assert warm.disk_hits > 0
        assert _report_fields(ref.report) == _report_fields(res.report)

    def test_corrupted_entries_degrade_to_clean_recompile(self, tmp_path):
        cold = DiskCompileCache(str(tmp_path))
        ref = self._compile(cold)
        for i, name in enumerate(sorted(cold._files())):
            path = os.path.join(cold.root, name)
            if i % 2 == 0:
                with open(path, "wb") as fh:     # garbage pickle
                    fh.write(b"\x80\x05not a pickle")
            else:                                # truncated pickle
                data = open(path, "rb").read()
                with open(path, "wb") as fh:
                    fh.write(data[:max(1, len(data) // 2)])
        hurt = DiskCompileCache(str(tmp_path))
        res = self._compile(hurt)
        assert hurt.disk_hits == 0               # every read degraded
        assert hurt.profile_misses >= 1          # ...to a fresh compute
        assert _report_fields(ref.report) == _report_fields(res.report)
        healed = DiskCompileCache(str(tmp_path))  # rewritten entries
        self._compile(healed)
        assert healed.profile_misses == 0 and healed.disk_hits > 0

    def test_schema_bump_orphans_old_entries(self, tmp_path, monkeypatch):
        old = DiskCompileCache(str(tmp_path))
        self._compile(old)
        old_files = old._files()
        assert old_files
        monkeypatch.setattr(diskcache_mod, "SCHEMA_VERSION",
                            diskcache_mod.SCHEMA_VERSION + 1)
        bumped = DiskCompileCache(str(tmp_path))
        assert bumped.root != old.root
        self._compile(bumped)
        assert bumped.disk_hits == 0             # nothing carried over
        assert bumped.profile_misses >= 1
        assert old._files() == old_files         # old version untouched

    def test_concurrent_processes_bit_identical(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        child = (
            "import hashlib, json, sys\n"
            "from repro.arch import functional_testbed\n"
            "from repro.models import lenet\n"
            "from repro.perf import default_compile_cache\n"
            "from repro.sched import CIMMLC\n"
            "cache = default_compile_cache()\n"
            "result = CIMMLC(functional_testbed(), cache=cache)"
            ".compile(lenet())\n"
            "digest = hashlib.sha256(repr((result.report.total_cycles,"
            " result.report.op_latency, result.report.power))"
            ".encode()).hexdigest()\n"
            "json.dump({'digest': digest, 'stats': cache.stats()},"
            " sys.stdout)\n")
        env = dict(os.environ,
                   REPRO_DISK_CACHE="1",
                   REPRO_COMPILE_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        procs = [subprocess.Popen([sys.executable, "-c", child], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = []
        for proc in procs:
            stdout, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            outs.append(json.loads(stdout))
        assert outs[0]["digest"] == outs[1]["digest"]
        warm = DiskCompileCache(str(tmp_path))
        CIMMLC(functional_testbed(), cache=warm).compile(lenet())
        assert warm.profile_misses == 0          # racers populated it
        assert warm.dup_misses == 0 and warm.segment_misses == 0

    def test_default_cache_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert not disk_cache_enabled()
        assert type(default_compile_cache()) is CompileCache
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
        cache = default_compile_cache()
        assert isinstance(cache, DiskCompileCache)
        assert cache.root.startswith(str(tmp_path))

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = DiskCompileCache(str(tmp_path))
        self._compile(cache)
        assert sum(cache.entries().values()) > 0
        cache.clear()
        assert sum(cache.entries().values()) == 0
        assert cache.size_bytes() == 0


class TestIncrementalCompiler:
    def test_one_axis_family_matches_scratch(self):
        graph = mlp()
        arch = functional_testbed()
        inc = IncrementalCompiler()
        results = {c: inc.compile(graph, arch.with_cores(c))
                   for c in (16, 24, 32)}
        assert inc.full_compiles == 3
        for cores, res in results.items():
            scratch = CIMMLC(arch.with_cores(cores)).compile(mlp())
            assert _report_fields(res.report) == \
                _report_fields(scratch.report)

    def test_equal_graph_copies_get_distinct_schedules(self):
        # Two tenants holding equal-signature copies must not share (and
        # cross-annotate) one schedule; the replay must hit the cache
        # instead of re-searching.
        inc = IncrementalCompiler()
        a = inc.compile(mlp(), functional_testbed())
        dup_misses = inc.cache.dup_misses
        b = inc.compile(mlp(), functional_testbed())
        assert a.schedule is not b.schedule
        assert inc.cache.dup_misses == dup_misses   # no re-search
        assert inc.cache.profile_hits >= 1 and inc.cache.dup_hits >= 1
        assert _report_fields(a.report) == _report_fields(b.report)

    def test_reference_path_defers_to_plain_compile(self):
        inc = IncrementalCompiler()
        with reference.installed():
            res = inc.compile(mlp(), functional_testbed())
        assert inc.full_compiles == 0
        assert inc.cache.stats() == CompileCache().stats()  # bypassed
        ref = CIMMLC(functional_testbed()).compile(mlp())
        assert _report_fields(res.report) == _report_fields(ref.report)

    def test_stats_include_cache_counters(self):
        inc = IncrementalCompiler(cache=CompileCache())
        inc.compile(mlp(), functional_testbed())
        stats = inc.stats()
        # The keys the host-time benchmark's traced run reads.
        for key in ("exact_hits", "full_compiles", "delta_compiles",
                    "spliced_segments"):
            assert key in stats
        assert stats["full_compiles"] == 1
        assert stats["exact_hits"] == stats["delta_compiles"] == \
            stats["spliced_segments"] == 0
        assert stats["cache_profiles_stored"] >= 1
