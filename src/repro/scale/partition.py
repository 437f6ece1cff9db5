"""Min-cut style layer partitioning of a model graph across N chips.

The partitioner splits the topological operator order into contiguous
*stages*, one per chip, under two hard constraints and one objective:

* **Weight capacity** — every stage's weights must be simultaneously
  resident on its chip (cores at duplication 1, plus raw crossbar
  capacity).  Residency is the whole point of sharding: a stage never
  pays the Section 2.1 reconfiguration cost, unlike a single chip forced
  to swap segments.
* **Compute balance** — the maximum per-stage work is minimized, because
  the slowest stage paces the inter-chip pipeline.
* **Min cut** — among balanced partitions, the one moving the fewest
  activation bits across chip boundaries wins (every crossing tensor pays
  link serialization per inference).

Contiguous splits keep stage ``i`` -> ``i+1`` traffic on adjacent chips of
a ring, which is why the dynamic program optimizes boundary positions
(exactly) rather than arbitrary node sets.  The table it reads holds
the predicted interval of every fitting stage, one 48-step bisection
each in scalar form; :func:`repro.perf.kernels.interval_table` fills
it as array math, only for the pairs the DP reads, and searches once
per distinct (CIM rows, search floor), since stages that differ only in
digital operators at their ends mostly search the same rows.  The DP
(:func:`_best_bounds`) makes one array pass per chip over the table
instead of a Python loop over every (boundary, boundary) pair.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import CIMArchitecture
from ..errors import CapacityError
from ..graph import Graph
from ..perf.kernels import interval_table
from ..sched.costs import CostModel, OpProfile


def _floor(p: OpProfile) -> float:
    """Duplication-independent interval floor of one operator.

    No amount of replication beats data movement (replicas re-read input
    halos), one MVM wave, or the digital tail — the quantities a stage's
    steady-state interval can never undercut on one chip.
    """
    if not p.is_cim:
        return max(p.alu_cycles, p.mov_cycles)
    return max(p.mov_cycles, float(p.mvm_cycles_base)) + p.alu_cycles


def _load(p: OpProfile) -> float:
    """Core-cycles of compute one inference demands of this operator.

    Duplication spreads ``num_mvms`` windows over replicas, so an
    operator targeted at interval ``T`` needs about ``load / T`` cores
    (never fewer than one replica's worth) — the balance term of the
    partition objective.
    """
    if not p.is_cim:
        return 0.0
    return float(p.num_mvms * p.mvm_cycles_base * p.cores_per_replica)


def _interval_matrix(ops: Sequence[OpProfile], arch: CIMArchitecture,
                     need: Optional[np.ndarray] = None) -> np.ndarray:
    """interval[j, i]: predicted optimized interval of stage ``ops[j:i]``
    on ``arch`` (inf where it does not fit, or where ``need[j, i]`` is
    False).

    The prediction is a continuous relaxation of the duplication search
    (:func:`repro.sched.cg.duplicate_min_bottleneck`): interval ``T`` is
    feasible when ``sum(max(cores_i, load_i / T)) <= budget`` — every
    operator keeps at least one replica and elastic operators take
    ``load / T`` cores.  Feasibility is monotone in ``T``, so a binary
    search between the stage floor and the duplication-1 latency finds
    it (:func:`repro.perf.kernels.interval_table`).
    """
    return interval_table(
        cores=[p.cores_per_replica if p.is_cim else 0 for p in ops],
        loads=[_load(p) for p in ops],
        floors=[_floor(p) for p in ops],
        bits=[p.weight_bits if p.is_cim else 0 for p in ops],
        budget=max(1, arch.chip.core_number),
        max_cores=arch.chip.core_number,
        max_bits=arch.chip_capacity_bits,
        need=need)


def boundary_cut_bits(graph: Graph, order: Sequence[str],
                      position: int) -> int:
    """Activation bits crossing a split after ``order[:position]``.

    Counts every tensor produced by a node before the boundary and
    consumed by a node at/after it (weights excluded — they are resident,
    never streamed).  A tensor spanning several boundaries is counted at
    each, matching the physical cost of relaying it through intermediate
    chips on a ring.
    """
    before = set(order[:position])
    after = set(order[position:])
    bits = 0
    for name in before:
        node = graph.node(name)
        for out in node.outputs:
            if any(c.name in after for c in graph.consumers(out)):
                spec = graph.tensors.get(out)
                if spec is not None and not spec.is_weight:
                    bits += spec.size_bits
    return bits


def _boundary_cuts(graph: Graph, order: Sequence[str]) -> List[int]:
    """:func:`boundary_cut_bits` at every position ``0..len(order)``.

    One sweep: a tensor produced at position ``p`` whose last consumer
    sits at ``q`` crosses exactly the boundaries ``p < b <= q``, so it
    adds its bits to a difference array at ``p + 1`` and takes them
    back at ``q + 1``.
    """
    pos = {name: k for k, name in enumerate(order)}
    delta = [0] * (len(order) + 1)
    for p, name in enumerate(order):
        for out in graph.node(name).outputs:
            spec = graph.tensors.get(out)
            if spec is None or spec.is_weight:
                continue
            last = max((pos[c.name] for c in graph.consumers(out)
                        if c.name in pos), default=p)
            if last > p:
                delta[p + 1] += spec.size_bits
                delta[last + 1] -= spec.size_bits
    return list(itertools.accumulate(delta))


def _stage_fits(cores_used: int, weight_bits: int,
                arch: CIMArchitecture) -> bool:
    return (cores_used <= arch.chip.core_number
            and weight_bits <= arch.chip_capacity_bits)


def min_chips(graph: Graph, arch: CIMArchitecture,
              cost_model: Optional[CostModel] = None) -> int:
    """Fewest chips keeping the whole model resident (contiguous stages).

    Greedy longest-prefix packing is optimal for minimizing the number of
    contiguous stages under monotone per-stage constraints.

    Example
    -------
    >>> from repro.arch import functional_testbed
    >>> from repro.models import lenet
    >>> min_chips(lenet(), functional_testbed())
    1
    """
    profiles = (cost_model or CostModel(arch)).profiles(graph)
    return _min_chips([profiles[n.name] for n in graph.topological()], arch)


def _min_chips(ops: Sequence[OpProfile], arch: CIMArchitecture) -> int:
    """:func:`min_chips` over profiles in topological order."""
    chips = 1
    cores = 0
    weights = 0
    for p in ops:
        need_cores = p.cores_per_replica if p.is_cim else 0
        need_bits = p.weight_bits if p.is_cim else 0
        if not _stage_fits(need_cores, need_bits, arch):
            raise CapacityError(
                f"operator {p.name!r} alone exceeds one {arch.name} chip "
                f"({need_cores} cores / {need_bits} weight bits)")
        if not _stage_fits(cores + need_cores, weights + need_bits, arch):
            chips += 1
            cores, weights = need_cores, need_bits
        else:
            cores += need_cores
            weights += need_bits
    return chips


def partition_layers(graph: Graph, num_chips: int, arch: CIMArchitecture,
                     cost_model: Optional[CostModel] = None,
                     chip_archs: Optional[Sequence[CIMArchitecture]] = None
                     ) -> List[List[str]]:
    """Split ``graph`` into ``num_chips`` contiguous resident stages.

    Dynamic program over boundary positions: minimize the lexicographic
    objective ``(max predicted stage interval, total boundary cut bits)``
    subject to every stage fitting its chip (cores at duplication 1 and
    weight capacity).  The predicted interval of a stage is
    ``max(per-op floors, core-cycle load / core_number)`` — what the
    duplication search can achieve at best, so balancing it balances the
    *pipelined* stages rather than raw work.  Returns per-stage node-name
    lists in topological order; raises
    :class:`~repro.errors.CapacityError` when even ``num_chips`` stages
    cannot hold the model resident.

    ``chip_archs`` (degraded hardware) gives each chip its *own*
    architecture: stage ``k`` must fit ``chip_archs[k-1]`` and is
    interval-balanced against that chip's surviving core budget, so the
    DP shifts work off weakened chips.  Stage→chip identity mapping is
    kept (stage ``k`` runs on chip ``k-1``).  ``None`` (the default) is
    the uniform, fault-free path, bit-identical to before.

    Example
    -------
    >>> from repro.arch import isaac_baseline
    >>> from repro.models import lenet
    >>> stages = partition_layers(lenet(), 2, isaac_baseline())
    >>> len(stages)
    2
    """
    if num_chips < 1:
        raise CapacityError(f"num_chips must be >= 1, got {num_chips}")
    if chip_archs is not None:
        chip_archs = list(chip_archs)
        if len(chip_archs) != num_chips:
            raise CapacityError(
                f"chip_archs supplies {len(chip_archs)} architectures "
                f"for {num_chips} chips")
    order = [n.name for n in graph.topological()]
    n = len(order)
    if not order:
        raise CapacityError("cannot partition an empty graph")
    stages_wanted = min(num_chips, n)
    if chip_archs is None:
        profiles = (cost_model or CostModel(arch)).profiles(graph)
        ops = [profiles[name] for name in order]
        needed = _min_chips(ops, arch)
        if needed > num_chips:
            raise CapacityError(
                f"{graph.name} needs at least {needed} {arch.name} chips "
                f"to stay resident ({graph.total_weight_bits():,} weight "
                f"bits, chip capacity {arch.chip_capacity_bits:,}); got "
                f"{num_chips}")

    cuts = _boundary_cuts(graph, order)

    def reads(layers: Sequence[int]) -> np.ndarray:
        """The (j, i) entries DP ``layers`` read: layer 1 only row 0
        (no other boundary precedes a first stage), the last only
        column n."""
        need = np.zeros((n, n + 1), dtype=bool)
        for k in layers:
            rows = slice(0, 1) if k == 1 else slice(None)
            cols = slice(n, None) if k == stages_wanted else slice(None)
            need[rows, cols] = True
        return need

    if chip_archs is None:
        shared = _interval_matrix(ops, arch,
                                  reads(range(1, stages_wanted + 1)))
        mats = [shared] * stages_wanted
    else:
        # One matrix per *distinct* degraded shape — chips sharing a
        # shape share the tables.
        sigs = [(a.chip.core_number, a.core.xb_number, a.chip_capacity_bits)
                for a in chip_archs[:stages_wanted]]
        by_sig: Dict[Tuple, np.ndarray] = {}
        for a, sig in zip(chip_archs, sigs):
            if sig not in by_sig:
                profiles = CostModel(a).profiles(graph)
                layers = [m for m, s in enumerate(sigs, 1) if s == sig]
                by_sig[sig] = _interval_matrix(
                    [profiles[name] for name in order], a, reads(layers))
        mats = [by_sig[sig] for sig in sigs]

    bounds = _best_bounds(mats, cuts)
    if bounds is None:
        if chip_archs is not None:
            raise CapacityError(
                f"no feasible {stages_wanted}-stage partition of "
                f"{graph.name} on the degraded system (surviving cores "
                f"per chip: {[a.chip.core_number for a in chip_archs]}, "
                f"capacity bits per chip: "
                f"{[a.chip_capacity_bits for a in chip_archs]})")
        # Feasible with `needed` stages but not with exactly stages_wanted
        # non-empty ones (can happen only when stages_wanted < needed —
        # already raised — so this is defensive).
        raise CapacityError(  # pragma: no cover
            f"no feasible {stages_wanted}-stage partition of {graph.name}")
    return [order[bounds[s]:bounds[s + 1]] for s in range(stages_wanted)]


def _best_bounds(tables: Sequence[np.ndarray], cuts: Sequence[int]
                 ) -> Optional[List[int]]:
    """Boundaries ``0 = b_0 < b_1 < ... < b_K = n`` of the best split
    into ``K = len(tables)`` stages, or ``None`` when none is feasible.

    Stage ``k`` covers ``[b_{k-1}, b_k)`` and reads its interval from
    ``tables[k-1]`` (an ``(n, n + 1)`` table, ``inf`` where the stage
    does not fit); the split minimizes ``(max stage interval, sum of
    cuts[b_k] over the inner boundaries)`` lexicographically.  One array
    pass per DP layer: every reachable previous boundary ``j`` against
    every end ``i``, with the first ``j`` winning exact ties, so the
    result equals the scalar loop's
    (:func:`repro.perf.reference.best_bounds`).  The first layer reads
    only ``j = 0`` and the last only ``i = n``.
    """
    stages = len(tables)
    n = len(cuts) - 1
    cut = np.array(cuts, dtype=np.float64)
    cut[0] = 0.0
    # worst[j], total[j]: the best (max interval, cut bits) splitting
    # order[:j] into the stages placed so far, inf where no split
    # reaches j; choice[k, i]: the previous boundary of the best
    # k-stage split of order[:i].
    worst = np.full(n + 1, math.inf)
    total = np.full(n + 1, math.inf)
    worst[0] = total[0] = 0.0
    choice = np.full((stages + 1, n + 1), -1)
    for k in range(1, stages + 1):
        rows = np.flatnonzero(np.isfinite(worst[:n]))
        if rows.size == 0:
            return None
        ends = np.arange(n if k == stages else k, n + 1)
        table = np.asarray(tables[k - 1], dtype=np.float64)
        interval = table[rows[:, None], ends[None, :]]
        valid = (interval != math.inf) & (rows[:, None] < ends[None, :])
        peak = np.where(valid, np.maximum(worst[rows, None], interval),
                        math.inf)
        low = peak.min(axis=0)
        tied = valid & (peak == low)
        cost = np.where(tied, (total[rows] + cut[rows])[:, None], math.inf)
        least = cost.min(axis=0)
        pick = tied & (cost == least)
        found = pick.any(axis=0)
        worst = np.full(n + 1, math.inf)
        total = np.full(n + 1, math.inf)
        worst[ends[found]] = low[found]
        total[ends[found]] = least[found]
        choice[k, ends[found]] = rows[pick.argmax(axis=0)[found]]
    if not np.isfinite(worst[n]):
        return None
    bounds = [n]
    for k in range(stages, 0, -1):
        bounds.append(int(choice[k, bounds[-1]]))
    bounds.reverse()
    return bounds


def stage_transfers(graph: Graph, stages: Sequence[Sequence[str]]
                    ) -> List[Tuple[int, int, int]]:
    """Cross-stage activation traffic: ``(src_stage, dst_stage, bits)``.

    One entry per directed stage pair with any crossing tensors; a tensor
    consumed by several later stages contributes to each destination
    (it is re-sent — stages share no memory).
    """
    stage_of: Dict[str, int] = {}
    for idx, names in enumerate(stages):
        for name in names:
            stage_of[name] = idx
    traffic: Dict[Tuple[int, int], int] = {}
    for node in graph.nodes:
        src = stage_of[node.name]
        for out in node.outputs:
            spec = graph.tensors.get(out)
            if spec is None or spec.is_weight:
                continue
            dsts = {stage_of[c.name] for c in graph.consumers(out)}
            for dst in sorted(dsts):
                if dst != src:
                    key = (src, dst)
                    traffic[key] = traffic.get(key, 0) + spec.size_bits
    return [(s, d, bits) for (s, d), bits in sorted(traffic.items())]
