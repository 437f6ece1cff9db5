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
* **partition equality** — the multi-chip partitioner's interval table
  equals the scalar bisection over every stage (hypothesis-generated
  profiles), and whole partitions match the oracle's;
* **per-graph memos** — a graph's profile facts and CIM-to-CIM paths
  are derived once, not once per architecture, equal the oracle's
  per-node and per-segment forms over the zoo, and are dropped by
  every mutation point;
* **cache behaviour** — :class:`repro.perf.CompileCache` hit counters
  prove profiles/duplication searches are shared, the sweep runner
  deduplicates identical points, and its worker pool persists across
  runs;
* **incremental recompilation** — :class:`repro.perf.
  IncrementalCompiler` compiles a one-axis architecture family over
  one shared cache, bit-identical to from-scratch.
"""

import ast
import dataclasses
import math
import os
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arch import (
    PRESETS,
    BitBinding,
    MultiChipSystem,
    functional_testbed,
    get_preset,
    isaac_baseline,
    noc,
    table2_example,
)
from repro.errors import CapacityError
from repro.explore import SweepPoint, SweepRunner, SweepSpace, level_series
from repro.explore import runner as runner_mod
from repro.faults import FaultModel
from repro.graph import Graph, GraphBuilder, Node, TensorSpec
from repro.models import MODEL_ZOO, get_model, lenet, mlp, resnet18, vit_tiny
from repro.perf import CompileCache, IncrementalCompiler, reference
from repro.perf import cache as perf_cache
from repro.perf.kernels import BottleneckSearch, fold, seq_sum
from repro.sched import CIMMLC, CompilerOptions, no_optimization
from repro.sched import cg, costs, placement
from repro.sched.cg import duplicate_min_bottleneck, duplicate_min_total
from repro.sched.costs import CostModel, OpProfile
from repro.sched.placement import annotate_placement, place_greedy
from repro.sched.schedule import OpDecision
from repro.scale import partition as scale_partition
from repro.scale import partition_layers, shard
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


def _plan_parts(plan):
    """A serving plan as comparable values: per tenant its spec, cores,
    service profile, scheduling decisions and placed cores."""
    return [(t.spec, t.cores, t.service, t.schedule.to_dict(),
             {n.name: n.annotations.get("cores_placed")
              for n in t.schedule.graph.nodes})
            for t in plan.tenants]


def _memo_state():
    """Entry and hit counts of every implicit process memo (the greedy
    placements are a layer of ``PROCESS_CACHE``)."""
    lrus = (noc._average_cost, noc.hop_cost_array)
    return (perf_cache.PROCESS_CACHE.stats(),
            [(f.cache_info().hits, f.cache_info().currsize) for f in lrus])


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
        assert perf_cache.PROCESS_CACHE is not None

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
                # Removed switches, spelled from parts so that a search
                # for their names finds no reader left in the repository.
                for variable in ("FASTPATH", "DISK_CACHE",
                                 "COMPILE_CACHE_DIR"):
                    if "REPRO_" + variable in text:
                        offenders.append((rel, "REPRO_" + variable))
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

    def test_only_the_noc_memos_use_functools(self):
        # Implicit memos live in the process compile cache or on the
        # graph (Graph.derived); the NoC cost aggregates are the one
        # lru_cache exception.
        users = set()
        for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    if _uses_functools_memo(ast.parse(fh.read())):
                        users.add(os.path.relpath(path, SRC))
        assert users == {os.path.join("repro", "arch", "noc.py")}

    @pytest.mark.parametrize("source,uses", [
        ("import functools\n@functools.lru_cache\ndef f(): pass", True),
        ("import functools as _ft\n@_ft.lru_cache(None)\ndef f(): pass",
         True),
        ("import functools as _ft\ng = _ft.cache(len)", True),
        ("from functools import lru_cache", True),
        ("from functools import lru_cache as memo", True),
        ("from functools import cache as memo", True),
        ("import functools\nfunctools.reduce(max, [1])", False),
        ("from functools import reduce as lru_cache", False),
        ("import other as functools\nfunctools.lru_cache", False),
    ])
    def test_the_functools_scan_sees_aliases(self, source, uses):
        assert _uses_functools_memo(ast.parse(source)) is uses


def _uses_functools_memo(tree) -> bool:
    """True when ``tree`` imports ``functools.lru_cache`` or
    ``functools.cache``, under any alias, or reads either from the
    ``functools`` module bound to any name."""
    memos = {"lru_cache", "cache"}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(a.name in memos for a in node.names):
            return True
    return any(isinstance(node, ast.Attribute) and node.attr in memos
               and isinstance(node.value, ast.Name)
               and node.value.id in modules
               for node in ast.walk(tree))


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


def _segment_decisions(schedule):
    """Every segment's decisions, in segment order."""
    return [schedule.segment_decisions(i)
            for i in range(len(schedule.segments))]


def _balance_whole_graph(graph, profiles, dups, arch):
    """``cg.balance_for_bandwidth`` as a walk over the whole graph's
    topological order, skipping operators outside ``dups``."""
    trimmed = dict(dups)
    chip = arch.chip
    for node in graph.topological():
        if node.name not in trimmed:
            continue
        p = profiles[node.name]
        if not p.is_cim or trimmed[node.name] <= 1:
            continue
        limits = []
        if chip.l0_bw_bits is not None and p.num_mvms > 0:
            compute = p.num_mvms * p.mvm_cycles_base
            limits.append(chip.l0_bw_bits * compute / max(1.0, p.out_bits))
        if arch.mode.visible_tiers == 1:
            rate = chip.alu_ops
        else:
            per_core = arch.core.alu_ops or chip.alu_ops
            rate = None if per_core is None else \
                per_core * chip.core_number
        if rate is not None:
            for succ in graph.successors(node):
                sp = profiles[succ.name]
                if sp.is_cim or sp.alu_cycles <= 0:
                    continue
                compute = p.num_mvms * p.mvm_cycles_base
                limits.append(compute / max(1e-9, sp.alu_cycles))
        if limits:
            cap = max(1, math.floor(min(limits)))
            trimmed[node.name] = min(trimmed[node.name], cap)
    return trimmed


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
        segments = _segment_decisions(schedule)
        for pipelined in (True, False):
            assert performance._schedule_latencies(segments, pipelined) \
                == [reference.segment_latencies(decisions, pipelined)
                    for decisions in segments]
        for decisions in segments:
            assert reference.pipelined_latency(decisions) == \
                cg.pipelined_latency(decisions)
            assert reference.sequential_latency(decisions) == \
                cg.sequential_latency(decisions)
        undup = [OpDecision(d.profile) for d in decisions]
        assert reference.pipelined_latency(undup) == \
            cg.pipelined_latency(undup)

    def test_schedule_latencies_identical_on_the_zoo(self):
        # Every zoo model on every preset, segment by segment: the one
        # schedule-wide pass equals the scalar oracle applied to each
        # segment alone, pipelined and sequential.
        for preset in sorted(PRESETS):
            arch = get_preset(preset)
            for model in sorted(MODEL_ZOO):
                segments = _segment_decisions(
                    CIMMLC(arch).schedule(get_model(model)))
                for pipelined in (True, False):
                    fast = performance._schedule_latencies(segments,
                                                           pipelined)
                    assert len(fast) == len(segments)
                    for decisions, got in zip(segments, fast):
                        assert got == reference.segment_latencies(
                            decisions, pipelined), (preset, model)

    def test_simulator_runs_through_its_seam(self, monkeypatch):
        # The oracle form of the schedule-wide pass applies the scalar
        # segment_latencies to every segment; a simulator that stopped
        # calling its SWAPS attribute would leave the spy idle.
        seen = []
        original = reference.segment_latencies

        def spy(decisions, pipelined):
            seen.append([d.profile.name for d in decisions])
            return original(decisions, pipelined)

        monkeypatch.setattr(reference, "segment_latencies", spy)
        arch = isaac_baseline().with_cores(2)
        schedule = CIMMLC(arch).schedule(lenet())
        assert len(schedule.segments) > 1
        with reference.installed():
            inside = PerformanceSimulator(arch).run(schedule)
        assert seen == [list(seg) for seg in schedule.segments]
        assert _report_fields(inside) == \
            _report_fields(PerformanceSimulator(arch).run(schedule))

    def test_balance_is_segment_local(self, monkeypatch):
        # Every balance call of every zoo model × preset compile equals
        # the whole-graph walk, key order included.  The searched counts
        # rarely exceed a cap, so each call is also checked at 1000x
        # duplication, where most capped operators are trimmed.
        calls = []
        balance = cg.balance_for_bandwidth

        def checked(graph, profiles, dups, arch):
            for counts in (dups, {n: 1000 * d for n, d in dups.items()}):
                got = balance(graph, profiles, counts, arch)
                want = _balance_whole_graph(graph, profiles, counts, arch)
                assert list(got.items()) == list(want.items())
            calls.append(len(dups))
            return balance(graph, profiles, dups, arch)

        monkeypatch.setattr(cg, "balance_for_bandwidth", checked)
        segments = 0
        for preset in sorted(PRESETS):
            arch = get_preset(preset)
            for model in sorted(MODEL_ZOO):
                schedule = CIMMLC(arch).schedule(get_model(model))
                segments += len(schedule.segments)
        assert len(calls) == segments

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


#: Fractional cycle counts: zero, integers, and sevenths up to 1e7.
_cycles = st.one_of(
    st.just(0.0),
    st.integers(0, 10 ** 7).map(float),
    st.integers(0, 7 * 10 ** 7).map(lambda k: k / 7))


#: Per-operator draws of the duplication-search tests: (num_mvms, cores
#: per replica, mvm_cycles_base, row_waves, input_passes, alu, mov,
#: max_useful_dup before clamping to num_mvms, seq_passes, reload).
#: Passes and waves are drawn apart from mvm_cycles_base, so the
#: bisection's ``hi`` can fall below its ``lo``; a max_useful_dup of 1
#: makes searches that end at ``hi``.
_search_ops = st.lists(
    st.tuples(st.one_of(st.integers(1, 16), st.integers(1, 5000)),
              st.integers(1, 20),
              st.one_of(st.integers(1, 64), st.integers(1, 10 ** 5)),
              st.integers(1, 16), st.integers(1, 64), _cycles, _cycles,
              st.one_of(st.just(1), st.integers(1, 5000)),
              st.integers(1, 2), _cycles),
    min_size=1, max_size=40)


@st.composite
def _search_case(draw):
    """``(profiles, budget)``: 1-40 CIM operators plus a digital operator
    and a CIM operator with no MVMs, both skipped by the search."""
    profiles = [
        OpProfile(name=f"op{k}", op_type="Conv", is_cim=True,
                  num_mvms=mvms, vxb=None, n_xb=cores,
                  cores_per_replica=cores, mvm_cycles_base=mvm,
                  row_waves=waves, input_passes=passes, alu_cycles=alu,
                  mov_cycles=mov, weight_bits=1, in_bits=1, out_bits=1,
                  fill_fraction=0.5, max_useful_dup=min(dup, mvms),
                  seq_passes=seq, reload_cycles=reload)
        for k, (mvms, cores, mvm, waves, passes, alu, mov, dup, seq,
                reload) in enumerate(draw(_search_ops))]
    digital = OpProfile(
        name="relu", op_type="Relu", is_cim=False, num_mvms=0, vxb=None,
        n_xb=0, cores_per_replica=0, mvm_cycles_base=0, row_waves=1,
        input_passes=1, alu_cycles=draw(_cycles), mov_cycles=draw(_cycles),
        weight_bits=0, in_bits=1, out_bits=1, fill_fraction=0.5,
        max_useful_dup=1)
    empty = dataclasses.replace(profiles[0], name="empty", num_mvms=0)
    for op in (digital, empty):
        profiles.insert(draw(st.integers(0, len(profiles))), op)
    return profiles, draw(st.integers(1, 3000))


def _search_outcome(search, profiles, budget):
    try:
        return search(profiles, budget)
    except CapacityError as exc:
        return f"CapacityError: {exc}"


class TestBottleneckSearch:
    @settings(max_examples=150, deadline=None)
    @given(case=_search_case())
    def test_matches_the_scalar_bisection(self, case):
        profiles, budget = case
        assert _search_outcome(reference.duplicate_min_bottleneck,
                               profiles, budget) == \
            _search_outcome(cg._duplicate_min_bottleneck, profiles, budget)

    @settings(max_examples=100, deadline=None)
    @given(case=_search_case())
    def test_first_feasible_is_exact_and_cost_never_rises(self, case):
        profiles, budget = case
        cim = [p for p in profiles if p.is_cim and p.num_mvms > 0]
        search = BottleneckSearch(cim, budget)
        lo = min(max(p.mvm_cycles_base for p in cim),
                 max(p.latency(1) for p in cim))
        hi = max(p.latency(1) for p in cim)
        t = search.first_feasible(lo, hi)
        if search.cost(hi) > budget:
            assert t is None
        else:
            assert lo <= t <= hi and search.cost(t) <= budget
            assert t == lo or \
                search.cost(np.nextafter(t, -np.inf)) > budget
        # The bisection replay relies on cost(T) never rising with T:
        # check it where the steps are, within 2 ulps of every floor and
        # of every alu + k * mvm edge of the window count.
        edges = [search.floor]
        for p in cim:
            windows = {math.ceil(p.num_mvms / d)
                       for d in range(1, min(p.max_useful_dup, 64) + 1)}
            k = np.array(sorted(windows | set(range(1, 9))), np.float64)
            edges.append(p.alu_cycles + k * p.mvm_cycles_base)
        grid = np.concatenate(edges)
        near = [grid]
        for direction in (-np.inf, np.inf):
            step = grid
            for _ in range(2):
                step = np.nextafter(step, direction)
                near.append(step)
        grid = np.unique(np.concatenate(near))
        costs = search.cost(grid)
        assert np.all(np.diff(costs) <= 0)
        assert costs.tolist() == [search.cost(x) for x in grid]


class TestOrderedSums:
    def test_seq_sum_is_a_left_to_right_loop(self):
        # Compensated summation (Python 3.12's sum()) would give 1.0.
        values = [1e16, 1.0, -1e16]
        total = 0.0
        for value in values:
            total += value
        assert seq_sum(np.array(values)) == total == 0.0
        assert reference._fold(values) == total
        assert fold(values) == total
        # Integer terms keep an exact int result, as ``sum()`` does.
        assert fold([]) == 0 and type(fold([])) is int
        assert fold([2**60, 1, True]) == 2**60 + 2
        assert type(fold([2**60, 1, True])) is int


#: Per-operator draws for the interval-table test: (is_cim, cores per
#: replica as a share of the chip, num_mvms, mvm cycles, alu, mov,
#: weight bits as a share of the chip).  Shares above 1 make operators
#: that alone exceed the chip; num_mvms 0 makes zero-load operators.
_interval_ops = st.lists(
    st.tuples(st.booleans(), st.floats(0.0, 1.2), st.integers(0, 4000),
              st.integers(1, 40), st.floats(0.0, 300.0),
              st.floats(0.0, 300.0), st.floats(0.0, 1.2)),
    min_size=1, max_size=14)


def _interval_case(draws, core_number):
    arch = functional_testbed().with_cores(core_number)
    ops = []
    for k, (cim, core_share, mvms, mvm, alu, mov, bit_share) in \
            enumerate(draws):
        cores = max(1, round(core_share * core_number)) if cim else 0
        ops.append(OpProfile(
            name=f"op{k}", op_type="Conv" if cim else "Relu", is_cim=cim,
            num_mvms=mvms if cim else 0, vxb=None, n_xb=cores,
            cores_per_replica=cores, mvm_cycles_base=mvm if cim else 0,
            row_waves=1, input_passes=1, alu_cycles=alu, mov_cycles=mov,
            weight_bits=round(bit_share * arch.chip_capacity_bits)
            if cim else 0,
            in_bits=1, out_bits=1, fill_fraction=0.5,
            max_useful_dup=max(1, mvms)))
    return ops, arch


def _partition_outcome(graph, chips, arch, cost_model=None,
                       chip_archs=None):
    try:
        return partition_layers(graph, chips, arch, cost_model=cost_model,
                                chip_archs=chip_archs)
    except CapacityError as exc:
        return f"CapacityError: {exc}"


#: Architectures of the partition equality test: whole-model residency
#: on one chip, a core-bound chip, and a capacity-bound chip.
PARTITION_ARCHS = {
    "isaac-baseline": isaac_baseline,
    "isaac-200-cores": lambda: isaac_baseline().with_cores(200),
    "testbed-12-cores": lambda: functional_testbed().with_cores(12),
}


def _partition_three_ways(monkeypatch, *args, **kwargs):
    """Production, production on *full* interval tables (the DP must
    read nothing outside ``need``), and the scalar oracle."""
    fast = _partition_outcome(*args, **kwargs)
    table = scale_partition._interval_matrix
    with monkeypatch.context() as patch:
        patch.setattr(scale_partition, "_interval_matrix",
                      lambda ops, arch, need=None: table(ops, arch))
        full = _partition_outcome(*args, **kwargs)
    with reference.installed():
        oracle = _partition_outcome(*args, **kwargs)
    return fast, full, oracle


class TestPartitionKernelEquality:
    @settings(max_examples=40, deadline=None)
    @given(draws=_interval_ops, core_number=st.integers(1, 48),
           need_seed=st.integers(0, 2 ** 32 - 1))
    def test_interval_table_matches_the_scalar_bisection(
            self, draws, core_number, need_seed):
        ops, arch = _interval_case(draws, core_number)
        assert scale_partition._interval_matrix(ops, arch).tolist() == \
            reference.interval_matrix(ops, arch)
        need = np.random.default_rng(need_seed).random(
            (len(ops), len(ops) + 1)) < 0.5
        assert scale_partition._interval_matrix(ops, arch, need).tolist() \
            == reference.interval_matrix(ops, arch, need)

    def test_stages_sharing_cim_rows_keep_their_own_floor(self):
        # Stages [0, 3) and [1, 3) fold the same two CIM rows, but the
        # digital ops[0] raises the first one's floor to 500 cycles,
        # where it fits at once; [1, 3) has to bisect below that.
        ops, arch = _interval_case(
            [(False, 0.0, 0, 1, 500.0, 0.0, 0.0),
             (True, 0.2, 100, 10, 0.0, 0.0, 0.1),
             (True, 0.2, 100, 10, 0.0, 0.0, 0.1)], core_number=10)
        fast = scale_partition._interval_matrix(ops, arch)
        oracle = reference.interval_matrix(ops, arch)
        assert fast[0, 3] == oracle[0][3] == 500.0
        assert fast[1, 3] == oracle[1][3] < 500.0
        assert fast.tolist() == oracle

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), stages=st.integers(1, 5),
           fits=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_split_dp_matches_the_scalar_loop(self, n, stages, fits, seed):
        # Entries from four finite values, inf elsewhere, and cuts of
        # 0-3 bits: exact ties in both objective terms are common.
        rng = np.random.default_rng(seed)
        tables = [np.where(rng.random((n, n + 1)) < fits,
                           rng.choice([1.0, 2.0, 2.5, 4.0], (n, n + 1)),
                           math.inf) for _ in range(stages)]
        cuts = rng.integers(0, 4, n + 1).tolist()
        assert scale_partition._best_bounds(tables, cuts) == \
            reference.best_bounds([t.tolist() for t in tables], cuts)

    @pytest.mark.parametrize("model", ["lenet", "mlp", "tiny-conv",
                                       "resnet18", "mobilenet"])
    @pytest.mark.parametrize("arch_name", sorted(PARTITION_ARCHS))
    def test_partition_layers_matches_the_oracle(self, monkeypatch, model,
                                                 arch_name):
        # One warm profile cache for every run: inside the seam the
        # scalar NoC oracle would otherwise rebuild every profile.
        graph, arch = get_model(model), PARTITION_ARCHS[arch_name]()
        cost_model = CostModel(arch, cache=CompileCache())
        for chips in range(1, 6):
            fast, full, oracle = _partition_three_ways(
                monkeypatch, graph, chips, arch, cost_model)
            assert fast == full == oracle, chips

    def test_degraded_partition_matches_the_oracle(self, monkeypatch):
        # Chips 0 and 3 share one degraded shape, so one interval table
        # serves both the first and the last DP layer.
        die = functional_testbed()
        weak = FaultModel(dead_cores=tuple(range(12))).degrade_arch(die)
        archs = [weak, die, die.with_cores(24), weak]
        fast, full, oracle = _partition_three_ways(
            monkeypatch, lenet(), 4, die, chip_archs=archs)
        assert fast == full == oracle
        assert not isinstance(fast, str)


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

    def test_uncached_searches_and_sweep_points_share_the_process_cache(
            self):
        # An uncached compile memoizes only its duplication searches
        # and segment densities, in the process cache; a sweep point of
        # the same compile then finds them there instead of searching
        # again.
        from repro.perf.bench import clear_process_caches

        arch = functional_testbed().with_cores(40)
        options = CompilerOptions(max_level="CG")
        clear_process_caches()
        CIMMLC(arch, options).compile(mlp())
        process = perf_cache.PROCESS_CACHE
        searched = process.dup_misses
        assert searched >= 1 and process.profile_misses == 0
        runner_mod.evaluate_point(SweepPoint("p", "CG", arch, mlp(),
                                             options))
        assert process.dup_misses == searched and process.dup_hits >= 1
        clear_process_caches()
        assert process.stats() == CompileCache().stats()

    def test_placement_layer_counts_and_clears(self, monkeypatch):
        cache = CompileCache()
        monkeypatch.setattr(perf_cache, "PROCESS_CACHE", cache)
        schedule = CIMMLC(functional_testbed()).schedule(lenet())
        first = place_greedy(schedule)
        assert place_greedy(schedule) == first
        stats = cache.stats()
        assert (stats["placement_misses"], stats["placement_hits"],
                stats["placements_stored"]) == (1, 1, 1)
        cache.clear()
        assert cache.stats() == CompileCache().stats()
        # With the process cache off, production places from scratch
        # every time and stores nothing.
        bodies = []
        body = placement._place_greedy
        monkeypatch.setattr(placement, "_place_greedy",
                            lambda *args: bodies.append(1) or body(*args))
        monkeypatch.setattr(perf_cache, "PROCESS_CACHE", None)
        assert place_greedy(schedule) == place_greedy(schedule) == first
        assert len(bodies) == 2
        assert cache.stats() == CompileCache().stats()

    def test_planners_compile_through_the_process_cache(self):
        # With no cache= the serve planners use the process cache, so a
        # second identical plan reuses the first plan's profiles and
        # duplication searches.
        from repro.perf.bench import clear_process_caches

        specs = [TenantSpec("lenet", "lenet", 2.0), TenantSpec("mlp", "mlp")]
        clear_process_caches()
        first = plan_spatial(functional_testbed(), specs)
        process = perf_cache.PROCESS_CACHE
        before = process.stats()
        second = plan_spatial(functional_testbed(), specs)
        after = process.stats()
        assert _plan_parts(first) == _plan_parts(second)
        assert after["profile_hits"] > before["profile_hits"]
        assert after["dup_misses"] == before["dup_misses"]
        clear_process_caches()


def _changed(value):
    """A different value of an ``OpProfile`` field's type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if dataclasses.is_dataclass(value):
        return None          # the optional VXB shape
    raise TypeError(f"no changed value for {value!r}: extend _changed")


class TestNameFreeKeys:
    """The per-segment memos key on operator content, not names, and
    answer by position; min-total keeps the names it breaks ties on."""

    def _cim_profile(self):
        profiles, _ = _profiles(lenet, isaac_baseline)
        return next(p for p in profiles if p.is_cim and p.num_mvms > 1)

    def test_renamed_profiles_share_one_min_bottleneck_entry(self):
        p = self._cim_profile()
        q = dataclasses.replace(p, name="renamed")
        assert p == q and hash(p) == hash(q)
        cache = CompileCache()
        first = duplicate_min_bottleneck([p], 64, cache)
        second = duplicate_min_bottleneck([q], 64, cache)
        assert (cache.dup_misses, cache.dup_hits) == (1, 1)
        assert second == {"renamed": first[p.name]}
        assert second == reference.duplicate_min_bottleneck([q], 64)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(OpProfile)
                  if f.name != "name"])
    def test_every_other_field_is_in_the_key(self, field):
        p = self._cim_profile()
        q = dataclasses.replace(p, **{field: _changed(getattr(p, field))})
        assert p != q
        cache = CompileCache()
        duplicate_min_bottleneck([p], 64, cache)
        try:
            duplicate_min_bottleneck([q], 64, cache)
        except CapacityError:
            pass
        assert (cache.dup_misses, cache.dup_hits) == (2, 0)

    def test_min_total_keeps_names_for_its_tie_breaks(self):
        # Two equal operators in swapped name order: the greedy breaks
        # their exact ties on the name, so the answers differ by
        # position and a name-free key would hand the second call the
        # first call's counts.
        base = dataclasses.replace(self._cim_profile(), num_mvms=1000,
                                   max_useful_dup=1000, cores_per_replica=1)
        a = dataclasses.replace(base, name="a")
        b = dataclasses.replace(base, name="b")
        budget = cg._EXACT_DP_BUDGET + 5
        cache = CompileCache()
        for order in ([a, b], [b, a], [a, b]):
            assert duplicate_min_total(order, budget, cache) == \
                reference.duplicate_min_total(order, budget)
        assert (cache.dup_misses, cache.dup_hits) == (2, 1)

    def test_segment_density_key_is_name_free_but_keeps_budget_and_gate(
            self):
        profiles, _ = _profiles(lenet, isaac_baseline)
        seg = [p for p in profiles if p.is_cim][:2]
        renamed = [dataclasses.replace(p, name=f"renamed{i}")
                   for i, p in enumerate(seg)]
        arch = isaac_baseline()

        def density(ops, arch, pipelined, cache):
            return cg._segment_density([p.name for p in ops],
                                       {p.name: p for p in ops}, arch,
                                       pipelined, cache)

        cache = CompileCache()
        assert density(seg, arch, True, cache) == \
            density(renamed, arch, True, cache)
        assert (cache.density_misses, cache.density_hits) == (1, 1)
        # Another budget, the sequential gate, and (sequential only)
        # other names each miss and match a cold evaluation.
        for ops, chip, pipelined in ((seg, arch.with_cores(4), True),
                                     (seg, arch, False),
                                     (renamed, arch, False)):
            misses = cache.density_misses
            assert density(ops, chip, pipelined, cache) == \
                density(ops, chip, pipelined, CompileCache())
            assert cache.density_misses == misses + 1

    def test_repeated_segments_share_one_placement(self, monkeypatch):
        monkeypatch.setattr(perf_cache, "PROCESS_CACHE", CompileCache())
        bodies = []
        body = placement._place_greedy

        def counted(*args):
            bodies.append(args)
            return body(*args)

        monkeypatch.setattr(placement, "_place_greedy", counted)
        arch = get_preset("jia2021")
        n = arch.chip.core_number
        schedule = CIMMLC(arch).schedule(resnet18())
        segments = range(len(schedule.segments))
        for seg in segments:
            assert place_greedy(schedule, seg) == \
                reference.place_greedy(schedule, seg)
        assert 0 < len(bodies) < len(schedule.segments)
        for kwargs in (dict(io_anchor=0), dict(io_anchor=n - 1),
                       dict(region=range(n, 2 * n), die_cores=2 * n),
                       dict(region=range(n, 2 * n), die_cores=2 * n,
                            io_anchor=2 * n - 1)):
            for seg in segments:
                assert place_greedy(schedule, seg, **kwargs) == \
                    reference.place_greedy(schedule, seg, **kwargs)

    @staticmethod
    def _wiring_cases(arch):
        """Three graphs whose one segment has equal per-operator core
        counts: a chain, a fan-out (other edges) and a chain whose wide
        middle output is also a graph output (other boundary bits), each
        scheduled on ``arch``; and four placement variants (anchor,
        regions).  A leading ReLU keeps the first CIM operator off the
        I/O anchor."""
        def three_gemms(fan_out=False, tap=False):
            b = GraphBuilder("three-gemms")
            x = b.relu(b.input("x", (1, 16)))
            a = b.gemm(x, 32, name="a")
            c = b.gemm(a, 256, name="c")
            d = b.gemm(a if fan_out else c, 32, name="d")
            return b.build(outputs=[c, d] if fan_out or tap else [d])

        n = arch.chip.core_number
        schedules = [CIMMLC(arch).schedule(three_gemms(**kw))
                     for kw in ({}, dict(fan_out=True), dict(tap=True))]
        variants = ({}, dict(io_anchor=n - 1),
                    dict(region=range(n), die_cores=2 * n),
                    dict(region=range(n, 2 * n), die_cores=2 * n))
        return schedules, variants

    def test_placement_key_covers_wiring_boundary_and_region(
            self, monkeypatch):
        # The three graphs placed through one memo.
        monkeypatch.setattr(perf_cache, "PROCESS_CACHE", CompileCache())
        schedules, variants = self._wiring_cases(get_preset("puma"))
        placed = {}
        for i, schedule in enumerate(schedules):
            for j, kwargs in enumerate(variants):
                placed[i, j] = place_greedy(schedule, **kwargs)
                assert placed[i, j] == \
                    reference.place_greedy(schedule, **kwargs)
        assert placed[0, 0] != placed[1, 0]     # the edges matter
        assert placed[0, 1] != placed[2, 1]     # the boundary bits
        assert placed[0, 2] != placed[0, 3]     # the region

    def test_a_free_noc_keys_no_wiring(self, monkeypatch):
        # On a free NoC every core scores 0: the three graphs place
        # alike per variant, so neither their edges nor their boundary
        # bits enter the key, and one body serves all three.
        monkeypatch.setattr(perf_cache, "PROCESS_CACHE", CompileCache())
        bodies = []
        body = placement._place_greedy
        monkeypatch.setattr(placement, "_place_greedy",
                            lambda *args: bodies.append(1) or body(*args))
        puma = get_preset("puma")
        arch = dataclasses.replace(puma, chip=dataclasses.replace(
            puma.chip, core_noc=noc.IDEAL_NOC))
        schedules, variants = self._wiring_cases(arch)
        for kwargs in variants:
            del bodies[:]
            placed = [place_greedy(s, **kwargs) for s in schedules]
            assert placed == [reference.place_greedy(s, **kwargs)
                              for s in schedules]
            assert placed[0] == placed[1] == placed[2]
            assert len(bodies) == 1, kwargs


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


def _named(profiles):
    """A profile dict as comparable values: node name, profile name and
    every field (``OpProfile`` equality alone ignores the names)."""
    return [(key, p.name, [getattr(p, f.name)
                           for f in dataclasses.fields(OpProfile)])
            for key, p in profiles.items()]


def _rebuilt(graph):
    """A freshly built graph equal in content to ``graph`` now."""
    return Graph(graph.name, graph.inputs, graph.outputs,
                 dict(graph.tensors),
                 [Node(n.name, n.op_type, list(n.inputs), list(n.outputs),
                       dict(n.attrs)) for n in graph.nodes])


def _conv_relu_pool():
    """x -> conv ``a`` -> relu ``r`` -> 2x2 max-pool ``p`` (stride 2)."""
    b = GraphBuilder("conv-relu-pool")
    x = b.input("x", (1, 3, 8, 8))
    y = b.relu(b.conv(x, 4, 3, padding=1, name="a"), name="r")
    return b.build(outputs=[b.maxpool(y, 2, name="p")])


@pytest.fixture(scope="module")
def zoo_pass():
    """Every zoo model scheduled on every preset, each graph object
    shared by the presets as in hostbench ``zoo_compile``: the
    schedules and the calls made to the facts builder and to
    ``CostModel.profiles``."""
    graphs = {m: MODEL_ZOO[m]() for m in sorted(MODEL_ZOO)}
    builds, priced = [], []
    builder, profiles = costs._derive_facts, CostModel.profiles
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costs, "_derive_facts",
                      lambda graph: builds.append(graph) or builder(graph))
        patch.setattr(CostModel, "profiles",
                      lambda self, graph: priced.append(graph)
                      or profiles(self, graph))
        schedules = [CIMMLC(PRESETS[a]()).schedule(g)
                     for a in sorted(PRESETS) for g in graphs.values()]
    return graphs, schedules, builds, priced


class TestGraphFacts:
    """Profiling derives each graph's facts once and prices them per
    architecture; placement walks each graph's CIM paths once.  Both
    per-graph memos equal the oracle's per-node and per-segment forms
    and are dropped by every mutation point."""

    def test_profiles_match_the_oracle_on_the_zoo(self, zoo_pass):
        graphs = zoo_pass[0]
        compared = 0
        for preset in sorted(PRESETS):
            arch = PRESETS[preset]()
            for model, graph in graphs.items():
                for binding in BitBinding:
                    cost_model = CostModel(arch, binding)
                    assert _named(cost_model.profiles(graph)) == _named(
                        reference.derive_profiles(cost_model, graph)), \
                        (model, preset, binding)
                    compared += 1
        assert compared == 238

    def test_profiles_match_the_oracle_on_mixed_bits(self):
        # The zoo is 8-bit throughout; here the input, the weights and
        # the intermediates differ, so each bit-derived fact shows.
        b = GraphBuilder("mixed-bits", bits=2)
        x = b.input("x", (1, 3, 8, 8), bits=6)
        y = b.maxpool(b.relu(b.conv(x, 4, 3, padding=1, name="a")), 2)
        graph = b.build(outputs=[b.gemm(b.flatten(y), 10, name="fc")])
        for preset in sorted(PRESETS):
            for binding in BitBinding:
                cost_model = CostModel(PRESETS[preset](), binding)
                assert _named(cost_model.profiles(graph)) == _named(
                    reference.derive_profiles(cost_model, graph))

    def test_facts_derived_once_per_graph(self, zoo_pass):
        graphs, schedules, builds, priced = zoo_pass
        assert len(schedules) == len(priced) == 7 * 17
        assert len(builds) == 17
        assert {id(g) for g in builds} == {id(g) for g in graphs.values()}

    def test_edges_match_the_oracle_walk(self, zoo_pass):
        schedules = list(zoo_pass[1])
        for model in ("resnet18", "mobilenet", "resnet50", "vit-tiny"):
            for chips in (2, 4):
                plan = shard(get_model(model),
                             MultiChipSystem(isaac_baseline(), chips))
                schedules.extend(plan.schedules)
        assert len(schedules) > 119 + 8
        for schedule in schedules:
            for seg in range(len(schedule.segments)):
                assert placement._edges(schedule, seg) == \
                    reference.edges(schedule, seg)

    def _diamond(self):
        # conv a feeds conv b through two digital paths, relu -> add
        # and the add directly, so the walk meets b twice.
        b = GraphBuilder("diamond")
        y = b.conv(b.input("x", (1, 4, 8, 8)), 4, 3, padding=1, name="a")
        z = b.add(b.relu(y, name="r"), y, name="s")
        out = b.conv(z, 4, 3, padding=1, name="b")
        return CIMMLC(isaac_baseline()).schedule(b.build(outputs=[out]))

    def test_a_digital_diamond_keeps_both_paths_in_order(self):
        schedule = self._diamond()
        assert schedule.segments == [["a", "r", "s", "b"]]
        bits = schedule.graph.tensors["s_out"].size_bits
        assert placement._edges(schedule, 0) == \
            [("a", "b", bits), ("a", "b", bits)] == \
            reference.edges(schedule, 0)

    def test_a_segment_without_the_digital_op_drops_the_edge(self):
        schedule = self._diamond()
        # The relu sits in another segment: only the direct path through
        # the add remains, and without the add no path does.
        bits = schedule.graph.tensors["s_out"].size_bits
        for segments, edges in (([["a", "s", "b"], ["r"]],
                                 [("a", "b", bits)]),
                                ([["a", "r", "b"], ["s"]], [])):
            cut = dataclasses.replace(schedule, segments=segments)
            assert placement._edges(cut, 0) == edges == \
                reference.edges(cut, 0)

    def _after(self, mutate):
        """Profiles of a profiled graph after ``mutate(graph)``, of a
        fresh graph equal to the result, and from before the change."""
        arch = isaac_baseline()
        graph = _conv_relu_pool()
        before = _named(CostModel(arch).profiles(graph))
        mutate(graph)
        return (_named(CostModel(arch).profiles(graph)),
                _named(CostModel(arch).profiles(_rebuilt(graph))), before)

    def test_add_tensor_drops_the_facts(self):
        # A tensor's bits: the conv weights drop to 4 bits.
        def mutate(graph):
            w = graph.tensors.pop("a_w")
            graph.add_tensor(TensorSpec(w.name, w.shape, 4, is_weight=True))

        after, fresh, before = self._after(mutate)
        assert after == fresh != before

    def test_infer_shapes_adding_a_tensor_drops_the_facts(self):
        # A tensor's shape: a 16x16 input, whose intermediate shapes
        # infer_shapes adds back.
        def mutate(graph):
            graph.tensors["x"] = TensorSpec("x", (1, 3, 16, 16), 8)
            for name in ("a_out", "r_out", "p_out"):
                del graph.tensors[name]
            graph.infer_shapes()

        after, fresh, before = self._after(mutate)
        assert after == fresh != before

    def test_add_node_drops_the_facts_on_an_attribute(self):
        # An attribute: the pool re-added with stride 1.
        def mutate(graph):
            pool = graph.nodes.pop()
            graph.tensors["p_out"] = TensorSpec("p_out", (1, 4, 7, 7), 8)
            graph.add_node(Node(pool.name, pool.op_type, pool.inputs,
                                pool.outputs, {**pool.attrs, "stride": 1}))

        after, fresh, before = self._after(mutate)
        assert after == fresh != before

    def test_add_node_drops_the_facts_on_the_op_type(self):
        # The op type: the relu becomes a softmax (windowed, full fill).
        def mutate(graph):
            relu = graph.nodes.pop(1)
            graph.add_node(Node(relu.name, "Softmax", relu.inputs,
                                relu.outputs))

        after, fresh, before = self._after(mutate)
        assert after == fresh != before

    def test_pickled_graph_keeps_equal_profiles(self):
        # SweepRunner ships graphs to its workers by pickling them.
        graph = resnet18()
        CostModel(isaac_baseline()).profiles(graph)
        shipped = pickle.loads(pickle.dumps(graph))
        for arch in (isaac_baseline(), get_preset("puma")):
            assert _named(CostModel(arch).profiles(shipped)) == \
                _named(CostModel(arch).profiles(resnet18()))

    def test_the_memo_adds_no_compile_cache_lookup(self):
        graph, cache = mlp(), CompileCache()
        process = perf_cache.PROCESS_CACHE.stats()
        for cores in (8, 16, 8):
            arch = functional_testbed().with_cores(cores)
            CostModel(arch, cache=cache).profiles(graph)
            CostModel(arch).profiles(graph)
        assert cache.stats() == {**CompileCache().stats(),
                                 "profile_misses": 2, "profile_hits": 1,
                                 "profiles_stored": 2}
        assert perf_cache.PROCESS_CACHE.stats() == process


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
