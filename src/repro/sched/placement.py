"""NoC-aware core placement.

The Abs-arch chip tier exposes ``core_noc`` / ``core_noc_cost`` (Fig. 5)
precisely so the compiler can reason about *where* on the die each
operator's cores sit.  This module assigns physical core IDs to every
operator replica, minimizing traffic-weighted hop distance between
producers and consumers:

* :func:`place_greedy` — operators are placed in topological order; each
  takes the free cores closest (by NoC cost) to the centroid of its
  producers' cores.  This is the classic communication-aware list
  placement used by tiled accelerators.
* :func:`place_linear` — cores assigned in index order (what a
  placement-oblivious compiler gets); the baseline for the ablation.
* :func:`placement_cost` — total traffic x hops objective, so placements
  are comparable.

The performance model uses *average* hop cost (a placement-independent
expectation); this module quantifies how much better than average a real
placement can do, and exposes the result on the schedule annotations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.noc import hop_cost_array
from ..errors import CapacityError, ScheduleError
from .schedule import Schedule

#: core assignment: node name -> list of physical core ids (all replicas).
Placement = Dict[str, List[int]]

#: Process-wide content-addressed memo of greedy placements, keyed on
#: every input the algorithm reads (graph signature, architecture value,
#: the segment's per-op core counts, region, die geometry, I/O anchor).
#: ``repro bench`` clears it between runs.
_GREEDY_MEMO: Dict[Tuple, Placement] = {}


def _greedy_memo_key(schedule: Schedule, segment: int,
                     region: Optional[Sequence[int]],
                     die_cores: Optional[int],
                     io_anchor: Optional[int]) -> Tuple:
    """Content key of a greedy placement.

    The placer reads graph topology/tensors (edges and traffic — covered
    by ``Graph.signature()``), the NoC geometry (the frozen architecture
    value), each segment operator's core count and CIM-ness, and the
    region/die/anchor arguments.  Equal keys therefore guarantee equal
    placements.
    """
    decisions = tuple(
        (name, schedule.decision(name).cores,
         schedule.decision(name).profile.is_cim)
        for name in schedule.segments[segment])
    return (schedule.graph.signature(), schedule.arch, decisions,
            None if region is None else tuple(region), die_cores, io_anchor)


def _resolve_region(schedule: Schedule,
                    region: Optional[Sequence[int]]) -> List[int]:
    """Validate a physical-core region (default: the whole chip).

    A *region* lets a schedule compiled for a ``k``-core sub-chip land on
    ``k`` specific cores of a larger die (multi-tenant spatial
    partitioning): core ids may exceed the sub-chip's ``core_number`` as
    long as they are distinct and non-negative.
    """
    n = schedule.arch.chip.core_number
    if region is None:
        return list(range(n))
    cores = list(region)
    if len(set(cores)) != len(cores):
        raise ScheduleError(f"region has duplicate core ids: {cores}")
    if any(c < 0 for c in cores):
        raise ScheduleError(f"region has negative core ids: {cores}")
    if len(cores) < n:
        raise CapacityError(
            f"region supplies {len(cores)} cores; schedule was compiled "
            f"for a {n}-core chip (region mask: {cores})")
    return cores


def _hop_matrix(schedule: Schedule, cores: Sequence[int],
                die_cores: Optional[int] = None) -> List[List[float]]:
    """NoC hop costs covering every core id in ``cores``.

    ``die_cores`` is the *physical* die's core count: topology generators
    derive their geometry from it (e.g. a mesh's grid shape), so a region
    of a larger die must size the matrix by the die, not by the region's
    highest id — otherwise cores 0..15 of an 8x8 mesh would be laid out
    as a fictitious 4x4 grid.
    """
    n = max(schedule.arch.chip.core_number, max(cores, default=0) + 1,
            die_cores or 0)
    return schedule.arch.chip.core_noc.hop_matrix(n)


def _segment_cim_nodes(schedule: Schedule, segment: int) -> List[str]:
    return [name for name in schedule.segments[segment]
            if schedule.decision(name).profile.is_cim]


def _cores_needed(schedule: Schedule, name: str) -> int:
    return schedule.decision(name).cores


def traffic_bits(schedule: Schedule, producer: str, consumer: str) -> int:
    """Bits flowing from ``producer`` to ``consumer`` per inference."""
    graph = schedule.graph
    prod = graph.node(producer)
    cons = graph.node(consumer)
    total = 0
    for out in prod.outputs:
        if out in cons.inputs:
            spec = graph.tensors.get(out)
            if spec is not None:
                total += spec.size_bits
    return total


def _edges(schedule: Schedule, segment: int) -> List[Tuple[str, str, int]]:
    """CIM-to-CIM communication edges within a segment, skipping through
    digital ops (a ReLU between two convs does not break locality)."""
    graph = schedule.graph
    names = set(schedule.segments[segment])
    edges: List[Tuple[str, str, int]] = []

    def cim_consumers(node, bits):
        for succ in graph.successors(node):
            if succ.name not in names:
                continue
            if schedule.decision(succ.name).profile.is_cim:
                yield succ.name, bits
            else:
                out_bits = sum(
                    graph.tensors[o].size_bits for o in succ.outputs
                    if o in graph.tensors)
                yield from cim_consumers(succ, out_bits or bits)

    for name in _segment_cim_nodes(schedule, segment):
        node = graph.node(name)
        out_bits = sum(graph.tensors[o].size_bits for o in node.outputs
                       if o in graph.tensors)
        for consumer, bits in cim_consumers(node, out_bits):
            edges.append((name, consumer, bits))
    return edges


def placement_cost(schedule: Schedule, placement: Placement,
                   segment: int = 0,
                   die_cores: Optional[int] = None) -> float:
    """Traffic-weighted NoC cost of a placement (lower is better).

    For each producer->consumer edge the cost is ``bits`` times the mean
    pairwise hop cost between the two operators' core sets.  Pass
    ``die_cores`` when the placement sits on a region of a larger die so
    hop geometry follows the physical chip.
    """
    placed = [c for cores in placement.values() for c in cores]
    hop = _hop_matrix(schedule, placed, die_cores)
    total = 0.0
    for producer, consumer, bits in _edges(schedule, segment):
        src = placement.get(producer)
        dst = placement.get(consumer)
        if not src or not dst:
            continue
        pair_costs = [hop[a][b] for a in src for b in dst]
        total += bits * (sum(pair_costs) / len(pair_costs))
    return total


def place_linear(schedule: Schedule, segment: int = 0,
                 region: Optional[Sequence[int]] = None,
                 die_cores: Optional[int] = None) -> Placement:
    """Assign cores in plain region order (placement-oblivious baseline).

    ``region`` restricts the placement to specific physical cores of a
    (possibly larger) die; default is the whole chip in index order.
    """
    cores = _resolve_region(schedule, region)
    placement: Placement = {}
    cursor = 0
    for name in _segment_cim_nodes(schedule, segment):
        need = _cores_needed(schedule, name)
        if cursor + need > len(cores):
            raise ScheduleError(
                f"segment {segment} needs {cursor + need} cores; region "
                f"has {len(cores)}"
            )
        placement[name] = cores[cursor:cursor + need]
        cursor += need
    return placement


def _io_traffic_bits(schedule: Schedule, name: str) -> int:
    """Bits this operator exchanges with the outside of the graph: inputs
    read from graph-level inputs plus outputs that are graph outputs.

    Under multi-chip sharding (:mod:`repro.scale`) a stage subgraph's
    inputs/outputs arrive/depart over the inter-chip link, which attaches
    at one physical core — operators with off-chip traffic should sit near
    it.
    """
    graph = schedule.graph
    node = graph.node(name)
    bits = 0
    boundary_in = set(graph.inputs)
    boundary_out = set(graph.outputs)
    for inp in node.inputs:
        if inp in boundary_in:
            spec = graph.tensors.get(inp)
            if spec is not None and not spec.is_weight:
                bits += spec.size_bits
    for out in node.outputs:
        if out in boundary_out:
            spec = graph.tensors.get(out)
            if spec is not None:
                bits += spec.size_bits
    return bits


def place_greedy(schedule: Schedule, segment: int = 0,
                 region: Optional[Sequence[int]] = None,
                 die_cores: Optional[int] = None,
                 io_anchor: Optional[int] = None) -> Placement:
    """Communication-aware greedy placement.

    Operators are visited in topological order.  The first operator takes
    the lowest-numbered free cores; every subsequent operator takes the
    free cores with the smallest total NoC cost to the cores of its
    already-placed producers (weighted by traffic).  ``region`` restricts
    candidates to specific physical cores of a (possibly larger) die;
    ``die_cores`` sizes the NoC geometry to that die.

    ``io_anchor`` names the physical core where off-chip I/O attaches
    (the inter-chip link port under :mod:`repro.scale` sharding):
    operators whose tensors cross the graph boundary are additionally
    attracted to it, weighted by their boundary traffic.

    The hop geometry comes from the process-wide
    :func:`~repro.arch.noc.hop_cost_array` memo, candidates are scored as
    array expressions, and whole placements are memoized
    content-addressed (:data:`_GREEDY_MEMO`).
    """
    cores = _resolve_region(schedule, region)
    key = _greedy_memo_key(schedule, segment, region, die_cores, io_anchor)
    hit = _GREEDY_MEMO.get(key)
    if hit is None:
        hit = _place_greedy(schedule, segment, cores, die_cores, io_anchor)
        _GREEDY_MEMO[key] = hit
    return {name: list(chosen) for name, chosen in hit.items()}


def _place_greedy(schedule: Schedule, segment: int, cores: Sequence[int],
                  die_cores: Optional[int],
                  io_anchor: Optional[int]) -> Placement:
    """Uncached body of :func:`place_greedy`.

    The hop geometry is sized like :func:`_hop_matrix` (so mesh grids
    never change shape), candidate scoring applies the anchor-order
    additions via ``np.add.accumulate``, and ``np.lexsort`` breaks ties
    like a ``(cost, core)`` tuple sort.
    """
    n = max(schedule.arch.chip.core_number, max(cores, default=0) + 1,
            die_cores or 0)
    if io_anchor is not None:
        n = max(n, io_anchor + 1)
    hop = hop_cost_array(schedule.arch.chip.core_noc, n)
    base = np.sort(np.asarray(list(cores), dtype=np.int64))
    free_mask = np.ones(base.size, dtype=bool)
    placement: Placement = {}
    inbound: Dict[str, List[Tuple[str, int]]] = {}
    for producer, consumer, bits in _edges(schedule, segment):
        inbound.setdefault(consumer, []).append((producer, bits))

    for name in _segment_cim_nodes(schedule, segment):
        need = _cores_needed(schedule, name)
        candidates = base[free_mask]   # ascending == sorted(free)
        if need > candidates.size:
            raise ScheduleError(
                f"segment {segment}: not enough free cores for {name!r}"
            )
        anchors: List[Tuple[int, int]] = []   # (core, weight)
        for producer, bits in inbound.get(name, []):
            for core in placement.get(producer, []):
                anchors.append((core, bits))
        if io_anchor is not None:
            io_bits = _io_traffic_bits(schedule, name)
            if io_bits > 0:
                anchors.append((io_anchor, io_bits))
        if anchors:
            a_idx = np.asarray([a for a, _ in anchors], dtype=np.int64)
            weights = np.asarray([float(w) for _, w in anchors])
            weighted = weights[:, None] * hop[a_idx][:, candidates]
            costs = np.add.accumulate(weighted, axis=0)[-1]
            pick = np.lexsort((candidates, costs))[:need]
        else:
            pick = np.arange(need)
        placement[name] = sorted(int(c) for c in candidates[pick])
        free_mask[np.flatnonzero(free_mask)[pick]] = False
    return placement


def annotate_placement(schedule: Schedule, segment: int = 0,
                       strategy: str = "greedy",
                       region: Optional[Sequence[int]] = None,
                       die_cores: Optional[int] = None,
                       io_anchor: Optional[int] = None) -> Placement:
    """Compute a placement and write it into node annotations.

    ``strategy`` is ``"greedy"`` or ``"linear"``; ``region`` optionally
    pins the placement to specific physical cores of a die with
    ``die_cores`` cores; ``io_anchor`` (greedy only) attracts
    boundary-crossing operators toward the off-chip link port.
    """
    if strategy == "greedy":
        placement = place_greedy(schedule, segment, region=region,
                                 die_cores=die_cores, io_anchor=io_anchor)
    elif strategy == "linear":
        placement = place_linear(schedule, segment, region=region,
                                 die_cores=die_cores)
    else:
        raise ScheduleError(f"unknown placement strategy {strategy!r}")
    for name, cores in placement.items():
        schedule.graph.node(name).annotations["cores_placed"] = list(cores)
    return placement
