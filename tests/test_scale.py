"""Multi-chip sharding: link model, partitioner, pipeline, integrations."""

import pickle

import pytest

from repro import CIMMLC
from repro.arch import (
    ChipLink,
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
)
from repro.errors import ArchitectureError, CapacityError
from repro.explore import SweepRunner, SweepSpace
from repro.faults import FaultModel
from repro.graph import TensorSpec
from repro.models import MODEL_ZOO, get_model, resnet18
from repro.scale import partition as partition_mod
from repro.scale import (
    boundary_cut_bits,
    link_table,
    min_chips,
    partition_layers,
    pipeline_summary,
    placement_table,
    shard,
    stage_subgraph,
    stage_transfers,
)
from repro.sched import costs
from repro.sched.costs import CostModel
from repro.serve import TenantSpec, plan_sharded, poisson_trace, simulate

#: A capacity-constrained chip where sharding genuinely helps: resnet18
#: fits resident (186 cores minimum) but leaves little duplication room.
SMALL_CHIP = isaac_baseline().with_cores(200)
LINK = ChipLink(bandwidth_bits=512.0, latency_cycles=100.0)


# ---------------------------------------------------------------------------
# Link model
# ---------------------------------------------------------------------------


class TestChipLink:
    def test_transfer_decomposes(self):
        link = ChipLink(bandwidth_bits=128.0, latency_cycles=50.0)
        assert link.serialization_cycles(1280) == 10.0
        assert link.transfer_cycles(1280, hops=1) == 60.0
        assert link.transfer_cycles(1280, hops=3) == 160.0
        assert link.transfer_cycles(0, hops=2) == 0.0

    def test_serialization_overhead(self):
        link = ChipLink(bandwidth_bits=100.0, latency_cycles=0.0,
                        serialization_overhead=1.25)
        assert link.serialization_cycles(1000) == 12.5

    def test_validation(self):
        with pytest.raises(ArchitectureError):
            ChipLink(bandwidth_bits=0)
        with pytest.raises(ArchitectureError):
            ChipLink(serialization_overhead=0.5)

    @pytest.mark.parametrize("field", ["bandwidth_bits", "latency_cycles",
                                       "serialization_overhead",
                                       "energy_per_bit"])
    def test_parameters_must_be_finite(self, field):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ArchitectureError, match="must be finite"):
                ChipLink(**{field: value})

    def test_topology_hops(self):
        chip = functional_testbed()
        ring = MultiChipSystem(chip, 4, topology="ring")
        assert ring.hops(0, 3) == 1 and ring.hops(0, 2) == 2
        full = MultiChipSystem(chip, 4, topology="fully-connected")
        assert full.hops(0, 3) == 1
        mesh = MultiChipSystem(chip, 4, topology="mesh")
        assert mesh.hops(0, 3) == 2   # 2x2 grid corner to corner
        chain = MultiChipSystem(chip, 4, topology="chain")
        assert chain.hops(0, 3) == 3  # no wraparound
        block = MultiChipSystem(chip, 8, topology="ring").block(4)
        assert block.topology == "chain" and block.num_chips == 4
        with pytest.raises(ArchitectureError):
            MultiChipSystem(chip, 2, topology="torus")
        with pytest.raises(ArchitectureError):
            ring.hops(0, 4)

    def test_capacities_scale_with_chips(self):
        chip = functional_testbed()
        sys4 = MultiChipSystem(chip, 4)
        assert sys4.total_cores == 4 * chip.chip.core_number
        assert sys4.total_capacity_bits == 4 * chip.chip_capacity_bits
        assert sys4.with_chips(2).num_chips == 2


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


class TestPartition:
    def test_stages_cover_graph_in_topo_order(self):
        graph = resnet18()
        stages = partition_layers(graph, 3, SMALL_CHIP)
        flat = [n for s in stages for n in s]
        assert flat == [n.name for n in graph.topological()]
        assert len(stages) == 3

    def test_stage_capacity_respected(self):
        graph = resnet18()
        arch = SMALL_CHIP
        from repro.sched.costs import CostModel

        profiles = CostModel(arch).profiles(graph)
        for stage in partition_layers(graph, 4, arch):
            cores = sum(profiles[n].cores_per_replica
                        for n in stage if profiles[n].is_cim)
            bits = sum(profiles[n].weight_bits
                       for n in stage if profiles[n].is_cim)
            assert cores <= arch.chip.core_number
            assert bits <= arch.chip_capacity_bits

    def test_min_chips_matches_feasibility(self):
        small = functional_testbed().with_cores(12)
        graph = get_model("lenet")
        needed = min_chips(graph, small)
        assert needed > 1
        with pytest.raises(CapacityError):
            partition_layers(graph, needed - 1, small)
        stages = partition_layers(graph, needed, small)
        assert len(stages) == needed

    def test_boundary_cut_counts_crossing_tensors(self):
        graph = get_model("mlp")
        order = [n.name for n in graph.topological()]
        bits = boundary_cut_bits(graph, order, 1)
        assert bits > 0

    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_one_pass_cuts_match_boundary_cut_bits(self, model):
        graph = get_model(model)
        order = [n.name for n in graph.topological()]
        assert partition_mod._boundary_cuts(graph, order) == [
            boundary_cut_bits(graph, order, p)
            for p in range(len(order) + 1)]

    def test_profiles_built_once_per_partition(self, monkeypatch):
        from repro.sched.costs import CostModel

        calls = []
        real = CostModel.profiles

        def counting(self, graph):
            calls.append(graph.name)
            return real(self, graph)

        monkeypatch.setattr(CostModel, "profiles", counting)
        partition_layers(resnet18(), 2, SMALL_CHIP)
        assert len(calls) == 1

    def test_stage_transfers_adjacent_chain(self):
        graph = get_model("mlp")
        stages = partition_layers(graph, 2, functional_testbed())
        transfers = stage_transfers(graph, stages)
        assert transfers
        for src, dst, bits in transfers:
            assert src < dst and bits > 0


# ---------------------------------------------------------------------------
# Stage subgraphs
# ---------------------------------------------------------------------------


class TestStageSubgraph:
    def test_boundaries_become_inputs_outputs(self):
        graph = resnet18()
        graph.infer_shapes()
        stages = partition_layers(graph, 2, SMALL_CHIP)
        sub0 = stage_subgraph(graph, stages[0], 0)
        sub1 = stage_subgraph(graph, stages[1], 1)
        sub0.validate()
        sub1.validate()
        # Every tensor stage 1 imports is exported by stage 0 or a model
        # input.
        exported = set(sub0.outputs) | set(graph.inputs)
        assert set(sub1.inputs) <= exported
        assert set(sub1.outputs) >= set(graph.outputs)


class TestStageFacts:
    """A stage shares its model's node objects and tensor specs, so it
    takes its share of the model's profile facts, which the partitioner
    derived, instead of deriving them again."""

    #: The models and chip counts of hostbench ``shard_pipeline``.
    HOSTBENCH = (("resnet18", "mobilenet", "resnet50", "vit-tiny"), (2, 4))

    @pytest.fixture(scope="class")
    def sharded(self):
        """``(label, plan, fact derivations its shard made)`` for every
        zoo model that shards onto 2-4 isaac-baseline chips, and for one
        degraded run (its stages rebalanced over ``chip_archs``)."""
        runs = [((m, c), lambda m=m, c=c: shard(
                    get_model(m), MultiChipSystem(isaac_baseline(), c)))
                for m in sorted(MODEL_ZOO) for c in (2, 3, 4)]
        dead = FaultModel(dead_cores=tuple(range(0, 768, 7)))
        runs.append((("resnet50", "degraded"), lambda: shard(
            get_model("resnet50"), MultiChipSystem(isaac_baseline(), 3),
            faults={1: dead})))
        builds = []
        derive = costs._derive_facts
        out = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(costs, "_derive_facts",
                          lambda graph: builds.append(graph) or derive(graph))
            for label, run in runs:
                del builds[:]
                try:
                    plan = run()
                except CapacityError:
                    continue
                out.append((label, plan, list(builds)))
        return out

    def test_stage_facts_equal_a_fresh_derivation(self, sharded):
        assert len(sharded) == 13 * 3 + 1
        for label, plan, builds in sharded:
            # Only the model derived its facts.
            assert builds == [plan.graph], label
            for schedule in plan.schedules:
                stage = schedule.graph
                assert stage.name.startswith(plan.graph.name + "@stage")
                assert costs.node_facts(stage) == \
                    costs._derive_facts(stage), label

    def test_hostbench_shards_derive_once_per_model(self, sharded):
        models, chips = self.HOSTBENCH
        made = {label: len(builds) for label, _, builds in sharded}
        assert sum(made[m, c] for m in models for c in chips) == 8

    def test_a_mutated_stage_derives_afresh(self, monkeypatch):
        plan = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        stage = plan.schedules[1].graph
        held = costs.node_facts(stage)
        builds = []
        derive = costs._derive_facts
        monkeypatch.setattr(costs, "_derive_facts",
                            lambda graph: builds.append(graph)
                            or derive(graph))
        # One weight tensor drops to 4 bits.
        name = next(t.name for t in stage.tensors.values() if t.is_weight)
        w = stage.tensors.pop(name)
        stage.add_tensor(TensorSpec(w.name, w.shape, 4, is_weight=True))
        fresh = costs.node_facts(stage)
        assert builds == [stage]
        assert fresh != held
        assert fresh == derive(stage)

    def test_a_pickled_stage_keeps_its_profiles(self):
        plan = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        cost_model = CostModel(isaac_baseline())
        for schedule in plan.schedules:
            stage = schedule.graph
            copy = pickle.loads(pickle.dumps(stage))
            assert costs.node_facts(copy) == costs.node_facts(stage)
            named = [[(key, p.name, p) for key, p in
                      cost_model.profiles(graph).items()]
                     for graph in (stage, copy)]
            assert named[0] == named[1]


# ---------------------------------------------------------------------------
# Acceptance pin (a): residency requires sharding
# ---------------------------------------------------------------------------


class TestResidency:
    def test_model_exceeding_one_chip_needs_sharding(self):
        """lenet's weights exceed a 12-core functional testbed chip; it
        shards (and runs) only across >= min_chips chips."""
        small = functional_testbed().with_cores(12)
        graph = get_model("lenet")
        assert graph.total_weight_bits() > small.chip_capacity_bits
        with pytest.raises(CapacityError):
            shard(get_model("lenet"), MultiChipSystem(small, 1))
        needed = min_chips(graph, small)
        plan = shard(get_model("lenet"), MultiChipSystem(small, needed))
        assert plan.num_stages == needed
        assert plan.report.throughput > 0
        for i in range(plan.num_stages):
            assert plan.stage_weight_bits(i) <= small.chip_capacity_bits
            assert plan.stage_cores_used(i) <= small.chip.core_number
            # Resident stages never pay reconfiguration stalls.
            assert plan.report.stages[i].reconfiguration_cycles == 0.0


# ---------------------------------------------------------------------------
# Acceptance pin (b): 2-chip resnet18 beats 1 chip by the predicted margin
# ---------------------------------------------------------------------------


class TestPipelineSpeedup:
    def test_two_chip_resnet18_beats_one_chip(self):
        single = CIMMLC(SMALL_CHIP).compile(resnet18())
        plan = shard(resnet18(), MultiChipSystem(SMALL_CHIP, 2, link=LINK))
        report = plan.report
        # The model's own prediction: the slowest stage or physical link
        # channel paces.
        predicted = max(list(report.stage_intervals)
                        + list(report.channel_occupancies.values()))
        assert report.steady_state_interval == predicted
        speedup = report.speedup_over(single.report)
        assert speedup == pytest.approx(
            single.report.steady_state_interval
            / report.steady_state_interval)
        # Splitting the core budget across two chips should cut the
        # bottleneck interval by a real margin, not epsilon.
        assert speedup >= 1.8

    def test_latency_includes_fill_and_links(self):
        plan = shard(resnet18(), MultiChipSystem(SMALL_CHIP, 2, link=LINK))
        report = plan.report
        chain = sum(t.cycles for t in report.transfers
                    if t.dst_stage == t.src_stage + 1)
        assert report.total_cycles == pytest.approx(
            sum(r.total_cycles for r in report.stages) + chain)
        assert report.batch_cycles(5) == pytest.approx(
            report.total_cycles + 4 * report.steady_state_interval)

    def test_thin_link_becomes_the_bottleneck(self):
        thin = ChipLink(bandwidth_bits=16.0, latency_cycles=100.0)
        plan = shard(resnet18(), MultiChipSystem(SMALL_CHIP, 2, link=thin))
        report = plan.report
        assert report.steady_state_interval == \
            max(report.channel_occupancies.values())
        assert report.steady_state_interval > max(report.stage_intervals)

    def test_shared_channel_occupancy_sums_transfers(self):
        """Transfers relayed over the same physical wire pace together."""
        plan = shard(resnet18(),
                     MultiChipSystem(SMALL_CHIP, 4, link=LINK,
                                     topology="chain"))
        report = plan.report
        busy = report.channel_occupancies
        # Per-channel busy time is at least any single transfer crossing
        # it, and the total occupancy is conserved across channels.
        assert sum(busy.values()) == pytest.approx(
            sum(t.occupancy * max(1, t.hops) for t in report.transfers))

    def test_wraparound_transfers_load_the_wrap_wires(self):
        """A ring-wraparound transfer occupies the wires it was priced
        on, not the unused forward chain."""
        from repro.sim.performance import (
            LinkTransfer,
            MultiChipReport,
        )

        base = shard(resnet18(),
                     MultiChipSystem(SMALL_CHIP, 2, link=LINK)).report
        # 5-chip ring, one skip transfer stage 0 -> 3 routed the short
        # way (2 hops via chip 4).
        skip = LinkTransfer(src_stage=0, dst_stage=3, src_chip=0,
                            dst_chip=3, bits=512, hops=2, cycles=201.0,
                            occupancy=1.0)
        report = MultiChipReport(
            stages=tuple([base.stages[0]] * 5),
            chips=(0, 1, 2, 3, 4),
            transfers=(skip,),
        )
        busy = report.channel_occupancies
        assert busy == {(0, 4): 1.0, (4, 3): 1.0}


# ---------------------------------------------------------------------------
# Acceptance pin (b'): chip-count sweep saturates deterministically
# ---------------------------------------------------------------------------


class TestChipSweep:
    def test_sweep_saturation_deterministic_and_cached(self, tmp_path):
        from repro.sched import CompilerOptions

        space = SweepSpace.grid(
            SMALL_CHIP, resnet18(), {"chips": [1, 2, 3, 4]},
            series=[("CIM-MLC", CompilerOptions())])
        runner = SweepRunner(cache_dir=str(tmp_path))
        first = runner.run(space)
        intervals = [r.summary["steady_state_interval"] for r in first]
        # Monotone non-increasing, then flat: find the saturation point.
        assert all(a >= b - 1e-9 for a, b in zip(intervals, intervals[1:]))
        saturation = next(
            i + 1 for i, (a, b) in enumerate(zip(intervals, intervals[1:]))
            if b >= a * 0.99)
        assert saturation >= 2
        # Re-run: every point is a cache hit with identical numbers.
        space2 = SweepSpace.grid(
            SMALL_CHIP, resnet18(), {"chips": [1, 2, 3, 4]},
            series=[("CIM-MLC", CompilerOptions())])
        second = SweepRunner(cache_dir=str(tmp_path)).run(space2)
        assert second.all_cached
        assert [r.summary["steady_state_interval"] for r in second] \
            == intervals
        sat2 = next(
            i + 1 for i, (a, b) in enumerate(zip(intervals, intervals[1:]))
            if b >= a * 0.99)
        assert sat2 == saturation

    def test_multichip_fingerprint_depends_on_scale_fields(self):
        from repro.explore import SweepPoint
        from repro.sched import CompilerOptions

        graph = get_model("mlp")
        base = SweepPoint("p", "s", functional_testbed(), graph,
                          CompilerOptions(), chips=2)
        other = SweepPoint("p", "s", functional_testbed(), graph,
                           CompilerOptions(), chips=3)
        slower = SweepPoint("p", "s", functional_testbed(), graph,
                            CompilerOptions(), chips=2, link_bandwidth=8.0)
        single = SweepPoint("p", "s", functional_testbed(), graph,
                            CompilerOptions())
        prints = {p.fingerprint()
                  for p in (base, other, slower, single)}
        assert len(prints) == 4

    def test_link_axis_without_chips_axis_rejected(self):
        """Reproduced-bug guard: a link_bw sweep without a chips axis
        would silently evaluate identical single-chip points."""
        from repro.errors import ArchitectureError

        with pytest.raises(ArchitectureError, match="add a chips axis"):
            SweepSpace.grid(functional_testbed(), get_model("mlp"),
                            {"link_bw": [8, 512]}, series=[("CG", None)])

    def test_bad_scale_axis_values_rejected_eagerly(self):
        """chips=0 / negative bandwidth / unknown topology fail at grid
        construction with clean errors, not tracebacks mid-sweep."""
        from repro.errors import ArchitectureError

        graph = get_model("mlp")
        chip = functional_testbed()
        with pytest.raises(ArchitectureError, match="chips must be >= 1"):
            SweepSpace.grid(chip, graph, {"chips": [0, 1]})
        with pytest.raises(ArchitectureError, match="link_bw must be"):
            SweepSpace.grid(chip, graph,
                            {"chips": [2], "link_bw": [-8]})
        with pytest.raises(ArchitectureError, match="unknown chip topology"):
            SweepSpace.grid(chip, graph,
                            {"chips": [2], "topology": ["torus"]})

    @pytest.mark.parametrize("axis", ["link_bw", "link_latency"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan",
                                       "-inf"])
    def test_non_finite_link_axis_rejected_eagerly(self, axis, value):
        """A NaN or infinite link axis fails at grid construction, not
        in ``SweepPoint.system()`` once the earlier points have run."""
        with pytest.raises(ArchitectureError,
                           match=f"{axis} must be finite"):
            SweepSpace.grid(functional_testbed(), get_model("mlp"),
                            {"chips": [1, 2], axis: [8, value]})

    def test_link_bw_axis(self):
        space = SweepSpace.grid(
            functional_testbed(), get_model("mlp"),
            {"chips": [2], "link_bw": [8, 512]},
            series=[("CG", None)])
        labels = [p.label for p in space]
        assert labels == ["chips=2 link_bw=8", "chips=2 link_bw=512"]
        results = SweepRunner().run(space)
        slow, fast = [r.summary for r in results]
        assert max(slow["scale"]["link_intervals"]) > \
            max(fast["scale"]["link_intervals"])


# ---------------------------------------------------------------------------
# Serving integration: tenants spanning chips
# ---------------------------------------------------------------------------


class TestServeSharded:
    def test_plan_sharded_disjoint_chip_blocks(self):
        specs = [TenantSpec("lenet", "lenet", weight=2.0),
                 TenantSpec("mlp", "mlp", weight=1.0)]
        system = MultiChipSystem(functional_testbed(), 4)
        plan = plan_sharded(system, specs)
        assert plan.mode == "sharded" and not plan.shared_executor
        chips = [c for t in plan.tenants for c in t.cores]
        assert len(chips) == len(set(chips))
        assert len(chips) == system.num_chips
        for t in plan.tenants:
            assert t.service.switch_cycles == 0.0
            assert t.service.interval_cycles <= t.service.latency_cycles

    def test_sharded_plan_serves_a_trace(self):
        specs = [TenantSpec("lenet", "lenet"), TenantSpec("mlp", "mlp")]
        system = MultiChipSystem(functional_testbed(), 4)
        plan = plan_sharded(system, specs)
        trace = poisson_trace(specs, rate=2e-4, num_requests=60, seed=1)
        report = simulate(plan, trace)
        assert report.completed == 60
        assert report.switch_cycles == 0.0

    def test_floors_exceed_chip_budget(self):
        small = functional_testbed().with_cores(12)
        specs = [TenantSpec("lenet", "lenet"), TenantSpec("mlp", "mlp")]
        with pytest.raises(CapacityError):
            plan_sharded(MultiChipSystem(small, 2), specs)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class TestReports:
    def test_tables_and_dict(self):
        plan = shard(resnet18(), MultiChipSystem(SMALL_CHIP, 2, link=LINK))
        table = placement_table(plan)
        assert "chip 0" in table and "chip 1" in table
        links = link_table(plan)
        assert "->" in links
        summary = pipeline_summary(plan)
        assert "steady-state interval" in summary
        doc = plan.to_dict()
        assert len(doc["stages"]) == 2
        assert doc["pipeline"]["throughput"] == plan.report.throughput
        assert doc["system"]["num_chips"] == 2
        assert all(l["bits"] > 0 for l in doc["links"])

    def test_placement_annotated_with_io_anchor(self):
        plan = shard(resnet18(), MultiChipSystem(SMALL_CHIP, 2, link=LINK))
        for sched in plan.schedules:
            placed = [sched.graph.node(n).annotations.get("cores_placed")
                      for seg in sched.segments for n in seg
                      if sched.decision(n).profile.is_cim]
            assert all(p for p in placed)
