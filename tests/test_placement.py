"""NoC-aware placement: correctness and quality vs the oblivious baseline."""

from dataclasses import replace

import pytest

from repro.arch import get_preset, isaac_baseline, mesh
from repro.errors import ScheduleError
from repro.models import MODEL_ZOO, get_model, resnet18, tiny_conv
from repro.perf import reference
from repro.sched import CIMMLC, CompilerOptions, placement
from repro.sched.placement import (
    annotate_placement,
    place_greedy,
    place_linear,
    placement_cost,
    traffic_bits,
)


def mesh_arch(cores=64, cycles_per_hop=1.0):
    """Baseline with a real mesh NoC so hops actually cost something."""
    arch = isaac_baseline().with_cores(cores)
    return replace(arch, chip=replace(arch.chip,
                                       core_noc=mesh(cycles_per_hop)))


@pytest.fixture(scope="module")
def schedule():
    return CIMMLC(mesh_arch()).schedule(resnet18())


class TestMechanics:
    def test_placements_are_disjoint_and_complete(self, schedule):
        for strategy in (place_linear, place_greedy):
            placement = strategy(schedule)
            used = [c for cores in placement.values() for c in cores]
            assert len(used) == len(set(used))
            for name, cores in placement.items():
                assert len(cores) == schedule.decision(name).cores

    def test_cores_within_chip(self, schedule):
        placement = place_greedy(schedule)
        n = schedule.arch.chip.core_number
        assert all(0 <= c < n for cores in placement.values() for c in cores)

    def test_traffic_bits(self, schedule):
        graph = schedule.graph
        bits = traffic_bits(schedule, "conv1", "bn1")
        assert bits == graph.tensors["conv1_out"].size_bits

    def test_annotate_writes_to_nodes(self, schedule):
        placement = annotate_placement(schedule, strategy="greedy")
        for name, cores in placement.items():
            assert schedule.graph.node(name).annotations["cores_placed"] \
                == cores

    def test_unknown_strategy_rejected(self, schedule):
        with pytest.raises(ScheduleError):
            annotate_placement(schedule, strategy="quantum")

    def test_overfull_segment_rejected(self):
        arch = mesh_arch(cores=64)
        sched = CIMMLC(arch).schedule(resnet18())
        # Corrupt a decision to exceed the chip.
        sched.decision("conv1").dup_cg = 10 ** 4
        with pytest.raises(ScheduleError):
            place_linear(sched)


class TestRegions:
    """Region-constrained placement (multi-tenant spatial partitioning)."""

    @pytest.fixture(scope="class")
    def sub_schedule(self):
        # A schedule compiled for a 16-core sub-chip of a 64-core die.
        return CIMMLC(mesh_arch(cores=16)).schedule(tiny_conv())

    def test_region_confines_placement(self, sub_schedule):
        region = list(range(40, 56))
        for strategy in (place_linear, place_greedy):
            placement = strategy(sub_schedule, region=region)
            used = [c for cores in placement.values() for c in cores]
            assert used and set(used) <= set(region)
            assert len(used) == len(set(used))

    def test_region_cost_uses_physical_hop_matrix(self, sub_schedule):
        # The same sub-chip placed on spread-out cores of a 64-core die
        # must cost more than on one compact block, with both costs
        # computed on the physical 8x8 mesh geometry.
        compact = place_greedy(sub_schedule, region=list(range(16)),
                               die_cores=64)
        spread = place_greedy(sub_schedule,
                              region=[4 * i for i in range(16)],
                              die_cores=64)
        assert placement_cost(sub_schedule, spread, die_cores=64) > \
            placement_cost(sub_schedule, compact, die_cores=64)

    def test_die_geometry_changes_hops(self, sub_schedule):
        # Cores 0..15 on an 8x8 die are two mesh rows, not a 4x4 block:
        # the die-aware cost must differ from the naive 4x4 reading.
        placement = place_linear(sub_schedule, region=list(range(16)))
        naive = placement_cost(sub_schedule, placement)
        physical = placement_cost(sub_schedule, placement, die_cores=64)
        assert naive != physical

    def test_region_validation(self, sub_schedule):
        with pytest.raises(ScheduleError):
            place_linear(sub_schedule, region=[1, 1, 2])      # duplicate
        with pytest.raises(ScheduleError):
            place_linear(sub_schedule, region=[-1, 0, 1])     # negative
        with pytest.raises(ScheduleError):
            place_linear(sub_schedule, region=list(range(4)))  # too small

    def test_default_region_matches_legacy(self, sub_schedule):
        assert place_greedy(sub_schedule) == \
            place_greedy(sub_schedule, region=list(range(16)))

    def test_annotate_with_region(self, sub_schedule):
        region = list(range(8, 24))
        placement = annotate_placement(sub_schedule, strategy="linear",
                                       region=region)
        for name, cores in placement.items():
            assert sub_schedule.graph.node(name).annotations[
                "cores_placed"] == cores
            assert set(cores) <= set(region)


class TestQuality:
    def test_greedy_beats_or_ties_linear(self, schedule):
        linear = placement_cost(schedule, place_linear(schedule))
        greedy = placement_cost(schedule, place_greedy(schedule))
        assert greedy <= linear * (1 + 1e-9)

    def test_greedy_strictly_wins_on_mesh_resnet(self, schedule):
        """On a duplicated ResNet over a mesh, locality has real value."""
        linear = placement_cost(schedule, place_linear(schedule))
        greedy = placement_cost(schedule, place_greedy(schedule))
        assert greedy < linear

    def test_ideal_noc_cost_is_zero(self):
        sched = CIMMLC(isaac_baseline()).schedule(tiny_conv())
        assert placement_cost(sched, place_linear(sched)) == 0.0

    def test_cost_counts_through_digital_ops(self, schedule):
        """conv -> bn -> relu -> conv chains still contribute edges."""
        from repro.sched.placement import _edges

        edges = _edges(schedule, 0)
        pairs = {(a, b) for a, b, _ in edges}
        assert ("conv1", "layer1_0_conv1") in pairs


#: The presets whose chip NoC is free (the paper's unconstrained ``\``).
FREE_PRESETS = ("isaac-baseline", "isaac-flash", "jain2021")


def _segments_match_the_oracle(schedule, **kwargs):
    """Production placement equals the scalar oracle, which scores every
    core even on a free NoC, on every segment."""
    for seg in range(len(schedule.segments)):
        assert place_greedy(schedule, seg, **kwargs) == \
            reference.place_greedy(schedule, seg, **kwargs), (seg, kwargs)


class TestFreeNoc:
    """On a free NoC every core scores 0, so each operator takes the
    lowest free cores and nothing is scored or wired."""

    @pytest.mark.parametrize("preset", FREE_PRESETS)
    @pytest.mark.parametrize("model", ["lenet", "mobilenet", "resnet18",
                                       "resnet50", "vit-tiny"])
    def test_free_presets_place_like_the_oracle(self, preset, model):
        arch = get_preset(preset)
        assert arch.chip.core_noc.is_free
        schedule = CIMMLC(arch).schedule(get_model(model))
        for io_anchor in (None, 0):
            _segments_match_the_oracle(schedule, io_anchor=io_anchor)

    def test_surviving_cores_of_a_larger_die(self):
        # The degraded shard path: a schedule compiled for the surviving
        # cores of a 768-core die, placed on them, link port anchored.
        die = isaac_baseline().chip.core_number
        region = [c for c in range(die) if c % 7]
        schedule = CIMMLC(isaac_baseline().with_cores(len(region))) \
            .schedule(resnet18())
        _segments_match_the_oracle(schedule, region=region, die_cores=die,
                                   io_anchor=0)

    def test_zero_cost_mesh_is_free_and_places_like_the_oracle(self):
        arch = mesh_arch(cycles_per_hop=0.0)
        assert arch.chip.core_noc.is_free
        schedule = CIMMLC(arch).schedule(resnet18())
        for io_anchor in (None, 0):
            _segments_match_the_oracle(schedule, io_anchor=io_anchor)
        # Free placement is core order.
        assert place_greedy(schedule) == place_linear(schedule)

    @pytest.mark.parametrize("preset,walked", [("isaac-baseline", False),
                                               ("puma", True)])
    def test_edges_built_only_where_transfers_cost(self, monkeypatch,
                                                   preset, walked):
        calls = []
        edges = placement._edges
        monkeypatch.setattr(placement, "_edges",
                            lambda *args: calls.append(args) or edges(*args))
        schedule = CIMMLC(get_preset(preset)).schedule(resnet18())
        for seg in range(len(schedule.segments)):
            place_greedy(schedule, seg, io_anchor=0)
        assert bool(calls) is walked

    def test_a_costly_noc_places_off_core_order(self):
        # So a free predicate that is always true cannot pass: on puma's
        # mesh some zoo segment's greedy placement is not core order.
        arch = get_preset("puma")
        assert not arch.chip.core_noc.is_free
        for model in sorted(MODEL_ZOO):
            schedule = CIMMLC(arch).schedule(MODEL_ZOO[model]())
            if any(place_greedy(schedule, seg) != place_linear(schedule, seg)
                   for seg in range(len(schedule.segments))):
                return
        pytest.fail("every puma placement is in core order")
