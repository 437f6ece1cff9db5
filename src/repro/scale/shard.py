"""Compile one model across a :class:`~repro.arch.MultiChipSystem`.

:func:`shard` is the multi-chip analogue of
:meth:`repro.sched.compiler.CIMMLC.compile`: partition the graph into
resident stages (:mod:`repro.scale.partition`), compile every stage with
the full multi-level scheduler onto its own chip, place each stage's
cores with the link port as I/O anchor, price the inter-chip activation
traffic with the system's :class:`~repro.arch.ChipLink`, and assemble a
:class:`~repro.sim.performance.MultiChipReport` for the pipelined whole.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..arch import MultiChipSystem
from ..errors import CapacityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import FaultModel
    from ..perf import CompileCache
from ..graph import Graph
from ..sched import CIMMLC, CompilerOptions, no_optimization
from ..sched.costs import inherit_node_facts
from ..sched.placement import annotate_placement
from ..sched.schedule import Schedule
from ..sim.performance import (
    LinkTransfer,
    MultiChipReport,
    PerformanceReport,
    pipeline_multichip,
)
from .partition import partition_layers, stage_transfers

#: Physical core where the inter-chip link attaches on every die.
LINK_PORT_CORE = 0


def stage_subgraph(graph: Graph, names: Sequence[str], index: int) -> Graph:
    """Extract one stage as a standalone :class:`~repro.graph.Graph`.

    Inputs are the tensors the stage consumes but does not produce
    (weights stay weights); outputs are the tensors it produces that the
    rest of the model — or the model output — consumes.  Node objects are
    shared with the parent graph, so schedule annotations (placement,
    duplication) written while compiling the stage remain visible on the
    original model.  So are tensor specs, so when the parent already
    holds its profile facts (:func:`~repro.sched.costs.node_facts`;
    :func:`shard`'s partitioner derived them) the stage takes its
    nodes' share instead of deriving them again.
    """
    chosen = [graph.node(n) for n in names]
    inside = set(names)
    produced = {out for node in chosen for out in node.outputs}
    tensors = {}
    inputs: List[str] = []
    outputs: List[str] = []
    graph_outputs = set(graph.outputs)
    for node in chosen:
        for name in list(node.inputs) + list(node.outputs):
            spec = graph.tensors.get(name)
            if spec is not None:
                tensors[name] = spec
        for inp in node.inputs:
            spec = graph.tensors.get(inp)
            if inp in produced or (spec is not None and spec.is_weight):
                continue
            if inp not in inputs:
                inputs.append(inp)
    for node in chosen:
        for out in node.outputs:
            consumed_outside = any(
                c.name not in inside for c in graph.consumers(out))
            if (consumed_outside or out in graph_outputs) \
                    and out not in outputs:
                outputs.append(out)
    stage = Graph(
        name=f"{graph.name}@stage{index}",
        inputs=inputs,
        outputs=outputs,
        tensors=tensors,
        nodes=chosen,
    )
    inherit_node_facts(stage, graph)
    return stage


@dataclass(frozen=True)
class ShardPlan:
    """The complete result of sharding one model across chips.

    ``stages[i]`` (node names) runs on chip ``i`` under ``schedules[i]``;
    ``report`` is the pipelined multi-chip estimate.  The plan is what
    the ``repro shard`` CLI renders and what multi-chip serving tenants
    consume.

    Example
    -------
    >>> from repro.arch import MultiChipSystem, isaac_baseline
    >>> from repro.models import lenet
    >>> plan = shard(lenet(), MultiChipSystem(isaac_baseline(), 2))
    >>> len(plan.stages) == 2 and plan.report.throughput > 0
    True
    """

    system: MultiChipSystem
    graph: Graph
    stages: Tuple[Tuple[str, ...], ...]
    schedules: Tuple[Schedule, ...]
    report: MultiChipReport

    @property
    def num_stages(self) -> int:
        """Stage (= active chip) count."""
        return len(self.stages)

    def stage_weight_bits(self, index: int) -> int:
        """Resident weight footprint of one stage."""
        sched = self.schedules[index]
        return sum(d.profile.weight_bits
                   for d in sched.decisions.values() if d.profile.is_cim)

    def stage_cores_used(self, index: int) -> int:
        """Cores the stage occupies on its chip (all replicas)."""
        return self.schedules[index].cores_used(0)

    def to_dict(self) -> Dict:
        """JSON-able export: placement, link schedule, and timings."""
        chip = self.system.chip
        return {
            "model": self.graph.name,
            "system": self.system.describe(),
            "stages": [
                {
                    "stage": i,
                    "chip": i,
                    "ops": list(names),
                    "cores_used": self.stage_cores_used(i),
                    "cores_available": chip.chip.core_number,
                    "weight_bits": self.stage_weight_bits(i),
                    "capacity_bits": chip.chip_capacity_bits,
                    "latency_cycles": self.report.stages[i].total_cycles,
                    "interval_cycles":
                        self.report.stages[i].steady_state_interval,
                    "peak_power": self.report.stages[i].power.peak_power,
                    "energy_per_inference":
                        self.report.stages[i].power.total_energy,
                }
                for i, names in enumerate(self.stages)
            ],
            "links": [
                {
                    "src_chip": t.src_chip, "dst_chip": t.dst_chip,
                    "src_stage": t.src_stage, "dst_stage": t.dst_stage,
                    "bits": t.bits, "hops": t.hops,
                    "cycles": t.cycles, "occupancy": t.occupancy,
                    "energy": t.energy,
                }
                for t in self.report.transfers
            ],
            "pipeline": {
                "total_cycles": self.report.total_cycles,
                "steady_state_interval": self.report.steady_state_interval,
                "throughput": self.report.throughput,
                "peak_power": self.report.peak_power,
                "energy_per_inference": self.report.total_energy,
                "link_energy": self.report.link_energy,
                "weight_write_energy": self.report.weight_write_energy,
            },
        }


def _compile_stage(graph: Graph, arch,
                   options: Optional[CompilerOptions],
                   optimize: bool,
                   cache: Optional["CompileCache"] = None):
    if not optimize:
        return no_optimization(graph, arch, cache=cache)
    return CIMMLC(arch, options, cache=cache).compile(graph)


def _effective_faults(faults, num_chips: int):
    """Normalise ``faults`` to ``(core-masking map, link derate)``.

    ``faults`` may be ``None``, one :class:`~repro.faults.FaultModel`
    (applied to every chip), or a ``{chip: FaultModel}`` mapping.  The
    returned map keeps only chips whose model actually masks cores; the
    derate is the worst ``link_derate`` across all entries.
    """
    if faults is None:
        return {}, 1.0
    from ..faults.model import FaultModel

    if isinstance(faults, FaultModel):
        mapping = {k: faults for k in range(num_chips)}
    else:
        mapping = dict(faults)
    derate = 1.0
    for k in sorted(mapping):
        if not 0 <= k < num_chips:
            raise CapacityError(
                f"fault injected on chip {k}; system has chips "
                f"0..{num_chips - 1}")
        derate = min(derate, mapping[k].link_derate)
    masked = {k: f for k, f in mapping.items() if f.masks_cores()}
    return masked, derate


def shard(graph: Graph, system: MultiChipSystem,
          options: Optional[CompilerOptions] = None,
          optimize: bool = True,
          place: bool = True,
          cache: Optional["CompileCache"] = None,
          faults: Optional[Union["FaultModel",
                                 Mapping[int, "FaultModel"]]] = None
          ) -> ShardPlan:
    """Partition, compile, place, and price ``graph`` on ``system``.

    ``options`` feed every stage's :class:`~repro.sched.CIMMLC`
    compilation (``optimize=False`` uses the un-optimized baseline
    scheduler instead, for ablations); ``place`` runs the greedy NoC
    placement per stage with the link port (core 0) as I/O anchor.
    ``cache`` is shared across every stage compilation (all stages run
    the same die architecture, so NoC averages, duplication curves, and
    any stage-identical profiles are computed once).
    Raises :class:`~repro.errors.CapacityError` when the model cannot
    stay resident on ``system.num_chips`` chips.

    ``faults`` injects degraded hardware: one
    :class:`~repro.faults.FaultModel` (every chip equally) or a
    ``{chip: FaultModel}`` mapping.  Stages are rebalanced against each
    chip's surviving capacity, compiled for the degraded die, placed
    onto the surviving physical cores (link port still the anchor), and
    the link is derated by the worst ``link_derate``.  A zero fault
    model takes the fault-free path verbatim.

    Example
    -------
    >>> from repro.arch import MultiChipSystem, isaac_baseline
    >>> from repro.models import resnet18
    >>> one = shard(resnet18(), MultiChipSystem(isaac_baseline(), 1))
    >>> two = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
    >>> two.report.throughput >= one.report.throughput
    True
    """
    graph.infer_shapes()
    masked, derate = _effective_faults(faults, system.num_chips)
    if derate != 1.0:
        system = replace(system, link=replace(
            system.link,
            bandwidth_bits=system.link.bandwidth_bits * derate))
    if masked:
        die = system.chip
        chip_archs = [masked[k].degrade_arch(die) if k in masked else die
                      for k in range(system.num_chips)]
        pools = {k: masked[k].surviving_cores(die) for k in masked}
        stages = partition_layers(graph, system.num_chips, die,
                                  chip_archs=chip_archs)
    else:
        chip_archs = [system.chip] * max(1, system.num_chips)
        pools = {}
        stages = partition_layers(graph, system.num_chips, system.chip)
    schedules: List[Schedule] = []
    reports: List[PerformanceReport] = []
    for idx, names in enumerate(stages):
        sub = stage_subgraph(graph, names, idx)
        result = _compile_stage(sub, chip_archs[idx], options, optimize,
                                cache)
        if place:
            pool = pools.get(idx)
            for seg in range(len(result.schedule.segments)):
                if pool is None:
                    annotate_placement(result.schedule, segment=seg,
                                       io_anchor=LINK_PORT_CORE)
                else:
                    annotate_placement(
                        result.schedule, segment=seg, region=pool,
                        die_cores=system.chip.chip.core_number,
                        io_anchor=LINK_PORT_CORE)
        schedules.append(result.schedule)
        reports.append(result.report)
    transfers = [
        LinkTransfer(
            src_stage=src, dst_stage=dst, src_chip=src, dst_chip=dst,
            bits=bits, hops=system.hops(src, dst),
            cycles=system.transfer_cycles(src, dst, bits),
            occupancy=system.link.serialization_cycles(bits),
            energy=system.transfer_energy(src, dst, bits),
        )
        for src, dst, bits in stage_transfers(graph, stages)
    ]
    report = pipeline_multichip(reports, list(range(len(stages))), transfers)
    return ShardPlan(
        system=system,
        graph=graph,
        stages=tuple(tuple(s) for s in stages),
        schedules=tuple(schedules),
        report=report,
    )
