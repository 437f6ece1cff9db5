"""Scalar reference oracle for the compile→simulate kernels.

Production runs one implementation of every compile and simulate step:
the numpy kernels of :mod:`repro.perf.kernels` plus the process-wide
memos.  This module keeps the scalar forms those kernels replaced, as
independent code, for two users only:

* the equality tests, which call an oracle form and its production
  counterpart on the same inputs and require ``==`` results;
* ``repro bench`` (:mod:`repro.perf.bench`), whose reference leg runs
  each workload inside :func:`installed` and which refuses to report a
  speedup when the two legs' digests differ.

:func:`installed` swaps the oracle forms into the production modules
and turns the implicit process memos off for the duration of a
``with`` block; explicit caches passed by callers are still honoured.
The swap is in-process only: sweep pool workers run production code.
:func:`pushed_arrivals` swaps the serve/fleet event loop the same way,
for the equality tests and ``scripts/check_event_loop_oracle.py``.
The scalar trace generators (``_*_trace_scalar``, one RNG call per
draw) are the twins of :mod:`repro.serve.workload`'s buffered
generators; only the equality tests call them.
No module under ``repro`` but :mod:`repro.perf.bench` imports this one
(a structure test enforces it).
"""

from __future__ import annotations

import heapq
import math
import random
from contextlib import contextmanager
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..arch import CIMArchitecture, ComputingMode, bind
from ..arch.noc import NocSpec
from ..errors import CapacityError, ScheduleError
from ..fleet import engine as fleet_engine
from ..graph import Graph, Node
from ..scale import partition as scale_partition
from ..sched import cg, costs, placement
from ..sched.compiler import CIMMLC
from ..sched.costs import CostModel, OpProfile
from ..sched.schedule import OpDecision, Schedule
from ..serve import engine as serve_engine
from ..serve.workload import Request, TenantSpec
from ..sim import performance
from . import cache as perf_cache
from .cache import CompileCache
from .incremental import IncrementalCompiler


def _fold(values: Iterable[float]) -> float:
    """Left-to-right float sum as an explicit loop.

    The kernels' ordered reductions (:func:`repro.perf.kernels.seq_sum`,
    ``np.add.accumulate``) add in exactly this order.  Python's ``sum()``
    matches them only through 3.11: from 3.12 it compensates float
    rounding, so the oracle never uses it on non-integer terms.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# NoC cost aggregates
# ---------------------------------------------------------------------------


def average_cost(spec: NocSpec, n: int) -> float:
    """Scalar :meth:`~repro.arch.noc.NocSpec.average_cost`: a double
    loop over the distinct unit pairs of the list-form hop matrix."""
    if n <= 1:
        return 0.0
    matrix = spec.hop_matrix(n)
    total = _fold(matrix[i][j] for i in range(n) for j in range(n)
                  if i != j)
    return total / (n * (n - 1))


def max_cost(spec: NocSpec, n: int) -> float:
    """Scalar :meth:`~repro.arch.noc.NocSpec.max_cost`."""
    matrix = spec.hop_matrix(n)
    return max((matrix[i][j] for i in range(n) for j in range(n)),
               default=0.0)


# ---------------------------------------------------------------------------
# Operator profiles
# ---------------------------------------------------------------------------


def profile(self: CostModel, graph: Graph, node: Node) -> OpProfile:
    """The pre-split ``CostModel.profile``: one node's profile with
    every graph quantity (bits, ALU ops, weight matrix, MVM count, fill
    fraction) read from the graph again for each architecture."""
    arch = self.arch
    in_specs = graph.input_specs(node)
    activation_bits = in_specs[0].bits if in_specs else 8
    in_bits = sum(s.size_bits for s in in_specs if not s.is_weight)
    out_bits = sum(
        graph.output_spec(node, i).size_bits
        for i in range(len(node.outputs))
    )
    alu_cycles = self._alu_cycles(graph.alu_ops(node))
    # Elementwise digital ops (ReLU, BatchNorm, residual Add...) fuse
    # into the producer's output stream and cause no extra buffer
    # traffic; CIM ops and window/reduction ops pay for gathering
    # inputs to cores and scattering results back.  The buffer port is
    # per core (ISAAC-style tiled eDRAM), so an operator spanning k
    # cores streams through k ports; duplication does NOT divide the
    # traffic (replicas re-read overlapping input halos — the paper's
    # balance step likewise treats duplication as increasing transfer).
    if graph.is_cim_supported(node):
        mov_cycles = self._mov_cycles(in_bits + out_bits)  # scaled below
    elif node.op_type in costs._WINDOWED_OPS:
        ports = (1 if self.arch.mode is ComputingMode.CM
                 else self.arch.chip.core_number)
        mov_cycles = self._mov_cycles(in_bits + out_bits) / ports
    else:
        mov_cycles = 0.0

    if not graph.is_cim_supported(node):
        return OpProfile(
            name=node.name, op_type=node.op_type, is_cim=False,
            num_mvms=0, vxb=None, n_xb=0, cores_per_replica=0,
            mvm_cycles_base=0, row_waves=0, input_passes=0,
            alu_cycles=alu_cycles, mov_cycles=mov_cycles,
            weight_bits=0, in_bits=in_bits, out_bits=out_bits,
            fill_fraction=costs._fill_fraction(graph, node),
            max_useful_dup=1,
        )

    matrix = graph.weight_matrix(node)
    assert matrix is not None
    vxb = bind(matrix, arch.xb, self.bit_binding)
    n_xb = vxb.num_crossbars
    cores_per_replica = max(1, math.ceil(n_xb / arch.core.xb_number))
    # Intra-operator time multiplexing: when one replica exceeds the
    # whole chip (typical for resource-constrained SRAM CIMs), the VXB
    # executes in sequential passes with a weight reload between passes.
    seq_passes = 1
    reload_cycles = 0.0
    weight_bits = matrix[0] * matrix[1] * matrix[2]
    if cores_per_replica > arch.chip.core_number:
        seq_passes = math.ceil(cores_per_replica / arch.chip.core_number)
        cores_per_replica = arch.chip.core_number
        weight_rows = math.ceil(
            weight_bits / (arch.xb.cols * arch.xb.cell_bits))
        rows_per_core_pass = math.ceil(
            weight_rows / (seq_passes * cores_per_replica))
        reload_cycles = rows_per_core_pass * \
            arch.xb.cell_type.write_cost_ratio
        # Only one pass worth of crossbars is ever resident.
        n_xb = min(n_xb, cores_per_replica * arch.core.xb_number)
    # Worst (fullest) vertical tile dominates the wave count: tiles run
    # in parallel on distinct crossbars, so the full-height tiles set
    # the pace.
    rows_per_tile = arch.xb.rows if vxb.v_rows > 1 else vxb.rows_used
    row_waves = arch.xb.row_waves(rows_per_tile)
    input_passes = arch.xb.input_passes(activation_bits)
    num_mvms = graph.num_mvms(node)
    return OpProfile(
        name=node.name, op_type=node.op_type, is_cim=True,
        num_mvms=num_mvms, vxb=vxb, n_xb=n_xb,
        cores_per_replica=cores_per_replica,
        mvm_cycles_base=input_passes * row_waves,
        row_waves=row_waves, input_passes=input_passes,
        alu_cycles=alu_cycles,
        mov_cycles=mov_cycles / cores_per_replica,
        weight_bits=weight_bits,
        in_bits=in_bits, out_bits=out_bits,
        fill_fraction=costs._fill_fraction(graph, node),
        max_useful_dup=1 if seq_passes > 1 else max(1, num_mvms),
        seq_passes=seq_passes,
        reload_cycles=reload_cycles,
    )


def derive_profiles(self: CostModel, graph: Graph) -> Dict[str, OpProfile]:
    """Scalar ``CostModel._derive``: one :func:`profile` per node in
    topological order, with no per-graph facts."""
    return {n.name: profile(self, graph, n) for n in graph.topological()}


# ---------------------------------------------------------------------------
# Duplication search
# ---------------------------------------------------------------------------


def useful_dups(p: OpProfile, budget: int,
                cache: Optional[CompileCache] = None) -> List[int]:
    """Scalar ``sched.cg._useful_dups``: the Python window scan at every
    size (production vectorizes it from ``_VECTORIZE_MIN_MVMS`` up)."""
    cap = min(p.max_useful_dup, budget // p.cores_per_replica)
    key = ("useful", p.num_mvms, cap)
    if cache is not None:
        hit = cache.get_useful_dups(key)
        if hit is not None:
            return hit
    result = cg._useful_dups_scan(p.num_mvms, cap)
    if cache is not None:
        cache.put_useful_dups(key, result)
    return result


def duplicate_min_total(profiles: Sequence[OpProfile], budget: int,
                        cache: Optional[CompileCache] = None
                        ) -> Dict[str, int]:
    """Scalar ``sched.cg._duplicate_min_total``.

    The min-total jump greedy calls :meth:`OpProfile.latency` for every
    latency it compares and walks every jump with ``next_jump`` (no
    tabulated jump chain), then hands over to :func:`refine_exchange`.
    """
    dups = {p.name: 1 for p in profiles}
    cim = [p for p in profiles if p.is_cim]
    need = sum(p.cores_per_replica for p in cim)
    if need > budget:
        raise CapacityError(
            f"operators need {need} cores, chip has {budget}"
        )
    if not cim:
        return dups
    if budget <= cg._EXACT_DP_BUDGET:
        dups.update(cg._min_total_exact(cim, budget, cache))
        return dups

    remaining = budget - need
    by_name = {p.name: p for p in cim}

    def next_jump(p: OpProfile, d: int) -> Optional[int]:
        """Smallest d' > d with strictly lower latency, or None."""
        if d >= p.max_useful_dup:
            return None
        windows = math.ceil(p.num_mvms / d)
        if windows <= 1:
            return None
        d2 = min(max(math.ceil(p.num_mvms / (windows - 1)), d + 1),
                 p.max_useful_dup)
        if p.latency(d2) >= p.latency(d) - 1e-12:
            return None  # movement/ALU bound: no jump will ever gain
        return d2

    heap: List[Tuple[float, str, int, int, int]] = []

    def push(p: OpProfile) -> None:
        d = dups[p.name]
        d2 = next_jump(p, d)
        if d2 is None:
            return
        cost = (d2 - d) * p.cores_per_replica
        gain = (p.latency(d) - p.latency(d2)) / cost
        heapq.heappush(heap, (-gain, p.name, d, d2, cost))

    for p in cim:
        push(p)
    while heap:
        _, name, d_from, d_to, cost = heapq.heappop(heap)
        p = by_name[name]
        if dups[name] != d_from:
            continue  # stale entry
        if cost > remaining:
            # Take the largest affordable partial jump, if it helps, and
            # keep the operator in play (smaller later jumps may still fit).
            d_mid = d_from + remaining // p.cores_per_replica
            if d_mid > d_from and p.latency(d_mid) < p.latency(d_from):
                remaining -= (d_mid - d_from) * p.cores_per_replica
                dups[name] = d_mid
                push(p)
            continue
        dups[name] = d_to
        remaining -= cost
        push(p)
    return refine_exchange(cim, budget, dups, cache)


def refine_exchange(cim: List[OpProfile], budget: int,
                    dups: Dict[str, int],
                    cache: Optional[CompileCache] = None) -> Dict[str, int]:
    """Scalar ``sched.cg._refine_exchange``: per iteration, scan every
    operator's next useful level and every donor's down-levels in
    Python, then apply the smallest ``(-net, up, d_up, donor, d_down)``
    candidate."""
    levels = {p.name: useful_dups(p, budget, cache) for p in cim}
    free = budget - sum(p.cores_per_replica * dups[p.name] for p in cim)
    # Each accepted move strictly lowers total latency; the cap only
    # guards against float-epsilon cycling.
    for _ in range(8 * max(1, sum(len(v) for v in levels.values()))):
        best: Optional[Tuple[float, str, int, Optional[str],
                             Optional[int]]] = None
        for p in cim:
            ups = [lv for lv in levels[p.name] if lv > dups[p.name]]
            if not ups:
                continue
            d_up = min(ups)
            need = (d_up - dups[p.name]) * p.cores_per_replica
            gain = p.latency(dups[p.name]) - p.latency(d_up)
            if gain <= 1e-12:
                continue
            if need <= free:
                cand = (-gain, p.name, d_up, None, None)
                best = cand if best is None or cand < best else best
                continue
            for q in cim:
                if q.name == p.name:
                    continue
                downs = [lv for lv in levels[q.name] if lv < dups[q.name]]
                # Walk down one useful level at a time: losses grow
                # monotonically, so the first level that frees enough
                # cores is the cheapest sufficient donation.
                for d_down in sorted(downs, reverse=True):
                    if free + (dups[q.name] - d_down) * q.cores_per_replica \
                            < need:
                        continue
                    loss = q.latency(d_down) - q.latency(dups[q.name])
                    if gain - loss > 1e-9:
                        cand = (-(gain - loss), p.name, d_up, q.name, d_down)
                        best = cand if best is None or cand < best else best
                    break
        if best is None:
            return dups
        _, up_name, d_up, down_name, d_down = best
        up = next(p for p in cim if p.name == up_name)
        free -= (d_up - dups[up_name]) * up.cores_per_replica
        dups[up_name] = d_up
        if down_name is not None:
            down = next(p for p in cim if p.name == down_name)
            free += (dups[down_name] - d_down) * down.cores_per_replica
            dups[down_name] = d_down
    return dups


def duplicate_min_bottleneck(profiles: Sequence[OpProfile],
                             budget: int) -> Dict[str, int]:
    """Scalar ``sched.cg._duplicate_min_bottleneck``: the bisection's
    feasibility test, the final rounding, and the leftover-core greedy
    as per-operator Python loops."""
    dups = {p.name: 1 for p in profiles}
    cim = [p for p in profiles if p.is_cim and p.num_mvms > 0]
    if not cim:
        return dups
    base_cores = sum(p.cores_per_replica for p in cim)
    if base_cores > budget:
        raise CapacityError(
            f"operators need {base_cores} cores, chip has {budget}"
        )

    def dup_for_target(p: OpProfile, target: float) -> int:
        # Smallest d with latency(d) <= target.  Movement and digital
        # post-processing set a duplication-independent floor.
        mvm = p.mvm_cycles_base
        floor = max(p.mov_cycles, mvm) + p.alu_cycles
        if target < floor:  # unreachable even at maximum duplication
            return p.max_useful_dup + budget + 1  # infeasible marker
        compute_budget = target - p.alu_cycles
        windows_per_replica = int(compute_budget // mvm)
        return min(p.max_useful_dup,
                   math.ceil(p.num_mvms / max(1, windows_per_replica)))

    def cost(target: float) -> int:
        return sum(p.cores_per_replica * dup_for_target(p, target)
                   for p in cim)

    lo = max(p.mvm_cycles_base for p in cim)              # best possible
    hi = max(p.latency(1) for p in cim)                   # no duplication
    if cost(hi) > budget:
        raise CapacityError("even duplication 1 exceeds the core budget")
    # Binary search on achievable bottleneck (continuous, then round).
    for _ in range(60):
        mid = (lo + hi) / 2
        if cost(mid) <= budget:
            hi = mid
        else:
            lo = mid
    for p in cim:
        dups[p.name] = max(1, dup_for_target(p, hi))
    # Spend leftover cores on the current bottleneck greedily.
    used = sum(p.cores_per_replica * dups[p.name] for p in cim)
    remaining = budget - used
    while remaining > 0:
        bottleneck = max(cim, key=lambda p: p.latency(dups[p.name]))
        if (dups[bottleneck.name] >= bottleneck.max_useful_dup
                or bottleneck.cores_per_replica > remaining
                or bottleneck.latency(dups[bottleneck.name] + 1)
                >= bottleneck.latency(dups[bottleneck.name])):
            break
        dups[bottleneck.name] += 1
        remaining -= bottleneck.cores_per_replica
    return dups


# ---------------------------------------------------------------------------
# Segment latency
# ---------------------------------------------------------------------------


def pipelined_latency(decisions: Sequence[OpDecision]) -> float:
    """Scalar :func:`~repro.sched.cg.pipelined_latency`: bottleneck
    latency plus every other operator's fill, summed left to right."""
    if not decisions:
        return 0.0
    lats = [d.latency() for d in decisions]
    bottleneck = max(lats)
    fills = _fold(d.fill() for d in decisions) - \
        decisions[lats.index(bottleneck)].fill()
    return bottleneck + max(0.0, fills)


def sequential_latency(decisions: Sequence[OpDecision]) -> float:
    """Scalar :func:`~repro.sched.cg.sequential_latency`."""
    return _fold(d.latency() for d in decisions)


def segment_latencies(decisions: Sequence[OpDecision], pipelined: bool
                      ) -> Tuple[List[float], int, float]:
    """One segment of :func:`schedule_latencies`: per-decision
    latencies, the first-wins bottleneck index, and segment cycles."""
    lats = [d.latency() for d in decisions]
    cycles = (pipelined_latency(decisions) if pipelined
              else sequential_latency(decisions))
    b_idx = max(range(len(decisions)),
                key=lambda i: decisions[i].latency())
    return lats, b_idx, cycles


def schedule_latencies(segments: Sequence[Sequence[OpDecision]],
                       pipelined: bool
                       ) -> List[Tuple[List[float], int, float]]:
    """Scalar ``sim.performance._schedule_latencies``:
    :func:`segment_latencies` applied to one segment at a time."""
    return [segment_latencies(decisions, pipelined)
            for decisions in segments]


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def edges(schedule: Schedule, segment: int) -> List[Tuple[str, str, int]]:
    """Scalar ``sched.placement._edges``: a depth-first walk per segment
    from each of its CIM operators, through the segment's digital
    operators, to the CIM operators they feed (a ReLU between two convs
    does not break locality)."""
    graph = schedule.graph
    names = set(schedule.segments[segment])
    found: List[Tuple[str, str, int]] = []

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

    for name in placement._segment_cim_nodes(schedule, segment):
        node = graph.node(name)
        out_bits = sum(graph.tensors[o].size_bits for o in node.outputs
                       if o in graph.tensors)
        for consumer, bits in cim_consumers(node, out_bits):
            found.append((name, consumer, bits))
    return found


def place_greedy(schedule: Schedule, segment: int = 0,
                 region: Optional[Sequence[int]] = None,
                 die_cores: Optional[int] = None,
                 io_anchor: Optional[int] = None) -> placement.Placement:
    """Scalar :func:`~repro.sched.placement.place_greedy`, without its
    memo: every operator sorts all free cores by ``(attraction, core)``
    over the list-form hop matrix."""
    cores = placement._resolve_region(schedule, region)
    hop = placement._hop_matrix(schedule, cores if io_anchor is None
                                else [*cores, io_anchor], die_cores)
    free = set(cores)
    result: placement.Placement = {}
    inbound: Dict[str, List[Tuple[str, int]]] = {}
    for producer, consumer, bits in placement._edges(schedule, segment):
        inbound.setdefault(consumer, []).append((producer, bits))

    for name in placement._segment_cim_nodes(schedule, segment):
        need = placement._cores_needed(schedule, name)
        if need > len(free):
            raise ScheduleError(
                f"segment {segment}: not enough free cores for {name!r}"
            )
        anchors: List[Tuple[int, int]] = []   # (core, weight)
        for producer, bits in inbound.get(name, []):
            for core in result.get(producer, []):
                anchors.append((core, bits))
        if io_anchor is not None:
            io_bits = placement._io_traffic_bits(schedule, name)
            if io_bits > 0:
                anchors.append((io_anchor, io_bits))
        if anchors:
            def attraction(core: int) -> Tuple[float, int]:
                return (_fold(w * hop[a][core] for a, w in anchors), core)

            chosen = sorted(free, key=attraction)[:need]
        else:
            chosen = sorted(free)[:need]
        result[name] = sorted(chosen)
        free.difference_update(chosen)
    return result


# ---------------------------------------------------------------------------
# Multi-chip partition
# ---------------------------------------------------------------------------


def predict_interval(ops: Sequence[OpProfile], floor: float,
                     budget: int) -> float:
    """Best steady-state interval a stage can reach on one chip: the
    scalar bisection on ``sum(max(cores_i, load_i / T)) <= budget``
    (see ``scale.partition._interval_matrix``)."""
    cim = [(float(p.cores_per_replica), scale_partition._load(p))
           for p in ops if p.is_cim]
    if not cim:
        return floor

    def cores_at(target: float) -> float:
        total = 0.0
        for c, load in cim:
            share = load / target
            # max(c, share), inlined: this loop is the oracle's hot spot.
            total += share if share > c else c
        return total

    lo = max(floor, 1.0)
    if cores_at(lo) <= budget:
        return lo
    hi = max(lo, max(load / c for c, load in cim if c > 0))
    for _ in range(48):
        mid = (lo + hi) / 2
        if cores_at(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def interval_matrix(ops: Sequence[OpProfile], arch: CIMArchitecture,
                    need=None) -> List[List[float]]:
    """Scalar ``scale.partition._interval_matrix``: one
    :func:`predict_interval` per fitting, needed stage, found by
    scanning each end's starts downward until a stage stops fitting."""
    n = len(ops)
    cores = [0]
    weights = [0]
    for p in ops:
        cores.append(cores[-1] + (p.cores_per_replica if p.is_cim else 0))
        weights.append(weights[-1] + (p.weight_bits if p.is_cim else 0))
    floors = [scale_partition._floor(p) for p in ops]
    budget = max(1, arch.chip.core_number)
    mat = [[math.inf] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        floor = 0.0
        for j in range(i - 1, -1, -1):
            floor = max(floor, floors[j])
            if not scale_partition._stage_fits(
                    cores[i] - cores[j], weights[i] - weights[j], arch):
                break  # larger stages only get heavier
            if need is None or need[j, i]:
                mat[j][i] = predict_interval(ops[j:i], floor, budget)
    return mat


def best_bounds(tables: Sequence, cuts: Sequence[int]
                ) -> Optional[List[int]]:
    """Scalar ``scale.partition._best_bounds``: the DP over boundary
    positions as a Python loop over every ``(k, i, j)`` triple, keeping
    the first ``j`` of the lexicographically smallest ``(max interval,
    cut bits)`` candidate."""
    stages_wanted = len(tables)
    n = len(cuts) - 1
    inf = (math.inf, math.inf)
    # best[k][i]: minimal (max predicted interval, cut_bits) splitting
    # order[:i] into k feasible stages; choice[k][i] the previous boundary.
    best = [[inf] * (n + 1) for _ in range(stages_wanted + 1)]
    choice = [[-1] * (n + 1) for _ in range(stages_wanted + 1)]
    best[0][0] = (0.0, 0.0)
    for k in range(1, stages_wanted + 1):
        interval = tables[k - 1]
        for i in [n] if k == stages_wanted else range(k, n + 1):
            for j in range(k - 1, i):
                prev = best[k - 1][j]
                if prev == inf or interval[j][i] == math.inf:
                    continue
                cand = (max(prev[0], interval[j][i]),
                        prev[1] + (cuts[j] if j > 0 else 0))
                if cand < best[k][i]:
                    best[k][i] = cand
                    choice[k][i] = j
    if best[stages_wanted][n] == inf:
        return None
    bounds: List[int] = []
    i = n
    for k in range(stages_wanted, 0, -1):
        bounds.append(i)
        i = choice[k][i]
    bounds.append(0)
    bounds.reverse()
    return bounds


# ---------------------------------------------------------------------------
# Trace generators
# ---------------------------------------------------------------------------


def _pick(rng: random.Random, tenants: Sequence[TenantSpec]) -> str:
    """Weighted tenant choice (inverse-CDF; stable across platforms)."""
    total = sum(t.weight for t in tenants)
    x = rng.random() * total
    for t in tenants:
        x -= t.weight
        if x < 0:
            return t.name
    return tenants[-1].name


def _poisson_trace_scalar(tenants, rate, num_requests, seed=0):
    """Scalar reference for :func:`poisson_trace` (one RNG call per
    event); the vectorized path is pinned bit-identical to this."""
    rng = random.Random(seed)
    clock = 0.0
    out: List[Request] = []
    for i in range(num_requests):
        clock += rng.expovariate(rate)
        out.append(Request(i, _pick(rng, tenants), clock))
    return out


def _bursty_trace_scalar(tenants, rate, num_requests, seed=0,
                         burst_factor=1.75, calm_factor=0.25,
                         mean_dwell_requests=16.0):
    """Scalar reference for :func:`bursty_trace`; the vectorized path is
    pinned bit-identical to this."""
    rng = random.Random(seed)
    clock = 0.0
    bursting = False
    mean_dwell = mean_dwell_requests / rate
    state_ends = rng.expovariate(1.0 / mean_dwell)
    out: List[Request] = []
    for i in range(num_requests):
        while True:
            state_rate = rate * (burst_factor if bursting else calm_factor)
            gap = rng.expovariate(state_rate)
            if clock + gap <= state_ends:
                clock += gap
                break
            # The state flips before this arrival would land; restart the
            # (memoryless) draw from the flip instant.
            clock = state_ends
            bursting = not bursting
            state_ends = clock + rng.expovariate(1.0 / mean_dwell)
        out.append(Request(i, _pick(rng, tenants), clock))
    return out


def _diurnal_trace_scalar(tenants, rate, num_requests, seed=0,
                          period=2_000_000.0, depth=0.8):
    """Scalar reference for :func:`diurnal_trace`; the batched path is
    pinned bit-identical to this."""
    rng = random.Random(seed)
    peak = rate * (1.0 + depth)
    clock = 0.0
    out: List[Request] = []
    while len(out) < num_requests:
        clock += rng.expovariate(peak)
        current = rate * (1.0 + depth * math.sin(2 * math.pi * clock / period))
        if rng.random() * peak <= current:
            out.append(Request(len(out), _pick(rng, tenants), clock))
    return out


# ---------------------------------------------------------------------------
# Serve/fleet event loop
# ---------------------------------------------------------------------------


class PushEverythingLoop:
    """The serve/fleet event loop before arrivals were merged.

    One ``(time, seq)`` heap into which the constructor pushes every
    arrival, in trace order, before any other event, so arrivals hold
    the lowest sequence numbers.  Production's
    :class:`~repro.serve.engine.EventLoop` merges the arrival-sorted
    trace with a heap of in-flight events instead and must yield exactly
    this sequence.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, arrivals: Sequence = (),
                 kind: int = serve_engine._ARRIVAL) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        for req in arrivals:
            self.push(req.arrival, kind, req)

    def push(self, time: float, kind: int, payload: object) -> None:
        """Schedule ``payload`` of event ``kind`` at ``time``."""
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def __iter__(self) -> Iterator[Tuple[float, int, object]]:
        """Pop the earliest ``(time, kind, payload)`` event until the
        heap is empty, events pushed meanwhile included."""
        while self._heap:
            time, _, kind, payload = heapq.heappop(self._heap)
            yield time, kind, payload


@contextmanager
def pushed_arrivals() -> Iterator[None]:
    """Run the block's serve and fleet engines on
    :class:`PushEverythingLoop`.

    Kept apart from :data:`SWAPS`: ``repro bench`` times compile and
    simulate kernels, and the event loop is checked by digest equality
    in the tests and ``scripts/check_event_loop_oracle.py`` instead.
    """
    engines = (serve_engine, fleet_engine)
    saved = [engine.EventLoop for engine in engines]
    try:
        for engine in engines:
            engine.EventLoop = PushEverythingLoop
        yield
    finally:
        for engine, original in zip(engines, saved):
            engine.EventLoop = original


# ---------------------------------------------------------------------------
# The seam
# ---------------------------------------------------------------------------


def _compile_uncached(self: IncrementalCompiler, graph, arch,
                      options=None):
    """``IncrementalCompiler.compile`` inside the seam: a plain compile
    that bypasses the compiler's shared cache."""
    return CIMMLC(arch, options).compile(graph)


#: ``(owner, attribute, oracle value)`` for every production attribute
#: :func:`installed` replaces.  The oracle forms come first, then the
#: uncached ``IncrementalCompiler.compile``; the last entry switches
#: every implicit memo off at once (``None`` process compile cache:
#: the duplication searches, segment densities, greedy placements and
#: the planners' and runner's default cache all live there).  The NoC
#: ``lru_cache`` s sit behind production forms replaced above, so they
#: see no traffic inside the seam; so do the per-graph memos
#: (:meth:`~repro.graph.Graph.derived`), read only by the production
#: ``CostModel._derive`` and ``placement._edges``.
SWAPS = (
    (NocSpec, "average_cost", average_cost),
    (NocSpec, "max_cost", max_cost),
    (CostModel, "_derive", derive_profiles),
    (cg, "_useful_dups", useful_dups),
    (cg, "_duplicate_min_total", duplicate_min_total),
    (cg, "_refine_exchange", refine_exchange),
    (cg, "_duplicate_min_bottleneck", duplicate_min_bottleneck),
    (cg, "pipelined_latency", pipelined_latency),
    (cg, "sequential_latency", sequential_latency),
    (performance, "pipelined_latency", pipelined_latency),
    (performance, "_schedule_latencies", schedule_latencies),
    (placement, "_edges", edges),
    (placement, "place_greedy", place_greedy),
    (scale_partition, "_interval_matrix", interval_matrix),
    (scale_partition, "_best_bounds", best_bounds),
    (IncrementalCompiler, "compile", _compile_uncached),
    (perf_cache, "PROCESS_CACHE", None),
)


@contextmanager
def installed() -> Iterator[None]:
    """Run the block on the scalar oracle with implicit memos off.

    Every :data:`SWAPS` attribute takes its oracle value on entry and
    gets its original object back on exit, even when the block raises.
    """
    saved = []
    try:
        for owner, attr, oracle in SWAPS:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, oracle)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
