"""CG-grained optimization (Section 3.3.2, Fig. 9).

Three cooperating pieces:

* **Operator duplication** under the ``core_number`` budget.  Two objective
  variants are provided: :func:`duplicate_min_total` minimizes the *sum* of
  operator latencies (the right objective without a pipeline) via an
  exchange-optimal greedy on the convex latency curve, and
  :func:`duplicate_min_bottleneck` minimizes the *maximum* stage latency
  (the pipelined objective) via binary search over the bottleneck — both
  reproduce the paper's dynamic-programming search results exactly on small
  instances (verified against brute force in the test suite).
* **Pipeline balancing**: duplication numbers are trimmed so NoC/L0
  bandwidth and ALU throughput of adjacent digital ops are not oversubscribed
  (the paper's "dynamic balancing pipelined duplication").
* **Resource-adaptive compute-graph segmentation** when the model exceeds
  chip capacity: maximal subgraphs are grown in topological order and then
  refined by popping trailing nodes while the pipelined latency of the
  remaining subgraph keeps improving (Fig. 9(b)).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import CIMArchitecture
from ..errors import CapacityError
from ..graph import Graph
from ..perf import CompileCache
from ..perf import cache as perf_cache
from ..perf.kernels import (
    BottleneckSearch,
    DupLatencyColumns,
    RefineExchange,
    level_latency_table,
    segment_cycles,
    useful_dup_options,
)
from .costs import CostModel, OpProfile
from .schedule import OpDecision, Schedule


# ---------------------------------------------------------------------------
# Duplication search
# ---------------------------------------------------------------------------


def _memoized_dups(cache: "CompileCache", key: Tuple,
                   profiles: Sequence[OpProfile],
                   searched: Sequence[OpProfile], search
                   ) -> Dict[str, int]:
    """``search()``'s duplication map, memoized by operator position.

    The cache holds one count per entry of ``searched`` (the operators
    the search can duplicate; every other one stays at 1), so a hit
    maps back to the caller's own operator names.
    """
    hit = cache.get_dups(key)
    if hit is None:
        dups = search()
        cache.put_dups(key, [dups[p.name] for p in searched])
        return dups
    dups = {p.name: 1 for p in profiles}
    dups.update((p.name, d) for p, d in zip(searched, hit))
    return dups


#: Budgets up to this size use the exact dynamic program (the paper's
#: "dynamic programming" search); larger budgets use the jump greedy, which
#: is optimal on the convex hull of useful duplication points.
_EXACT_DP_BUDGET = 64


def _useful_dups(p: OpProfile, budget: int,
                 cache: Optional["CompileCache"] = None) -> List[int]:
    """Duplication values where the latency actually changes.

    ``ceil(num_mvms / d)`` takes O(sqrt(num_mvms)) distinct values; only the
    smallest ``d`` achieving each value matters.  Large window counts are
    scanned with one vectorized pass, small ones in Python (both give the
    identical set), and the curve is memoized per ``(num_mvms, cap)`` —
    the only two quantities it depends on.
    """
    cap = min(p.max_useful_dup, budget // p.cores_per_replica)
    key = ("useful", p.num_mvms, cap)
    if cache is not None:
        hit = cache.get_useful_dups(key)
        if hit is not None:
            return hit
    if p.num_mvms >= _VECTORIZE_MIN_MVMS:
        result = useful_dup_options(p.num_mvms, cap).tolist()
    else:
        result = _useful_dups_scan(p.num_mvms, cap)
    if cache is not None:
        cache.put_useful_dups(key, result)
    return result


#: Below this window count the Python scan beats the numpy kernel (array
#: setup dominates); both produce the identical set, so the cutoff is a
#: pure tuning knob.
_VECTORIZE_MIN_MVMS = 512


def _useful_dups_scan(num_mvms: int, cap: int) -> List[int]:
    """Python scan over window counts (see :func:`_useful_dups`)."""
    options = {1}
    windows = num_mvms
    k = math.ceil(windows / 1)
    while k > 1:
        k -= 1
        d = math.ceil(windows / k)
        if d > cap:
            continue
        options.add(d)
    options.add(max(1, cap))
    return sorted(options)


def _min_total_exact(cim: List[OpProfile], budget: int,
                     cache: Optional["CompileCache"] = None) -> Dict[str, int]:
    """Exact knapsack-style DP over (operator, cores-spent)."""
    inf = float("inf")
    dp = [0.0] + [inf] * budget
    choice: List[Dict[str, int]] = [dict() for _ in range(budget + 1)]
    for p in cim:
        ndp = [inf] * (budget + 1)
        nchoice: List[Dict[str, int]] = [dict() for _ in range(budget + 1)]
        for d in _useful_dups(p, budget, cache):
            cost = d * p.cores_per_replica
            lat = p.latency(d)
            for b in range(cost, budget + 1):
                if dp[b - cost] + lat < ndp[b]:
                    ndp[b] = dp[b - cost] + lat
                    nchoice[b] = dict(choice[b - cost], **{p.name: d})
        dp, choice = ndp, nchoice
    best_b = min(range(budget + 1), key=lambda b: dp[b])
    if dp[best_b] == inf:
        raise CapacityError(f"operators do not fit in {budget} cores")
    return {p.name: choice[best_b].get(p.name, 1) for p in cim}


def duplicate_min_total(profiles: Sequence[OpProfile], budget: int,
                        cache: Optional["CompileCache"] = None
                        ) -> Dict[str, int]:
    """Duplication counts minimizing total (un-pipelined) latency.

    Small instances solve exactly by dynamic programming; large instances
    use a marginal-gain greedy over *useful* duplication jumps (the latency
    curve restricted to those points is convex in spent cores, where greedy
    is optimal up to the final partial jump).

    With a :class:`~repro.perf.CompileCache` the whole search result is
    memoized on ``(profile tuple, operator names, budget)`` and stored
    by position — profiles are frozen dataclasses carrying every
    quantity the search reads, so equal keys guarantee equal answers
    across segments, series, and sweep points.  Profile equality
    ignores names, so the key adds them: the greedy's heap and the
    exchange pass break exact float ties on ``p.name``, and two
    segments of equal operators in another name order can get
    different answers.  Without an explicit cache the search falls back
    to the process-wide compile cache.
    """
    cache = perf_cache.resolve(cache)
    if cache is None:
        return _duplicate_min_total(profiles, budget, cache)
    key = ("min_total", budget, tuple(profiles),
           tuple(p.name for p in profiles))
    return _memoized_dups(
        cache, key, profiles, profiles,
        lambda: _duplicate_min_total(profiles, budget, cache))


def _duplicate_min_total(profiles: Sequence[OpProfile], budget: int,
                         cache: Optional["CompileCache"] = None
                         ) -> Dict[str, int]:
    """Uncached body of :func:`duplicate_min_total`."""
    dups = {p.name: 1 for p in profiles}
    cim = [p for p in profiles if p.is_cim]
    need = sum(p.cores_per_replica for p in cim)
    if need > budget:
        raise CapacityError(
            f"operators need {need} cores, chip has {budget}"
        )
    if not cim:
        return dups
    if budget <= _EXACT_DP_BUDGET:
        dups.update(_min_total_exact(cim, budget, cache))
        return dups

    remaining = budget - need
    by_name = {p.name: p for p in cim}

    # Precompute the four constants OpProfile.latency reads at default
    # arguments; the inlined formula applies the same IEEE operations
    # (ceil of the same float division, integer-valued products exact in
    # float64, max/add), so every latency the greedy compares is
    # bit-identical to the method call.
    consts = {p.name: (p.num_mvms, p.max_useful_dup,
                       p.mvm_cycles(1) * p.seq_passes,
                       p.seq_passes * p.reload_cycles,
                       p.mov_cycles, p.alu_cycles)
              for p in cim}

    def _lat(p: OpProfile, d: int) -> float:
        num, max_dup, per_window, base, mov, alu = consts[p.name]
        eff = d if d < max_dup else max_dup
        compute = math.ceil(num / eff) * per_window + base
        return (compute if compute > mov else mov) + alu

    # next_jump from a useful level always lands on the *next* useful
    # level (the smallest duplication shrinking the window count by one,
    # clamped to max_useful_dup), so the whole jump chain and its
    # latencies can be tabulated vectorized up front — capped at
    # max_useful_dup, not the budget, exactly like next_jump.  Only
    # partial jumps leave the chain and fall back to the formula.
    chain_lists = [_useful_dups(p, p.max_useful_dup * p.cores_per_replica,
                                cache)
                   for p in cim]
    _, chain_lat = level_latency_table(DupLatencyColumns(cim), chain_lists)
    chain_info = {
        p.name: (chain, chain_lat[i, :len(chain)].tolist(),
                 {d: j for j, d in enumerate(chain)})
        for i, (p, chain) in enumerate(zip(cim, chain_lists))}

    def next_jump(p: OpProfile, d: int) -> Optional[int]:
        """Smallest d' > d with strictly lower latency, or None."""
        if d >= p.max_useful_dup:
            return None
        windows = math.ceil(p.num_mvms / d)
        if windows <= 1:
            return None
        d2 = min(max(math.ceil(p.num_mvms / (windows - 1)), d + 1),
                 p.max_useful_dup)
        if _lat(p, d2) >= _lat(p, d) - 1e-12:
            return None  # movement/ALU bound: no jump will ever gain
        return d2

    heap: List[Tuple[float, str, int, int, int]] = []

    def push(p: OpProfile) -> None:
        d = dups[p.name]
        chain, lats, index = chain_info[p.name]
        j = index.get(d)
        if j is not None:
            # On-chain state: the tabulated next level / latencies are
            # the exact floats next_jump would compute (the window<=1
            # and max-dup terminations both surface as a non-improving
            # tabulated latency).
            if j + 1 >= len(chain):
                return
            d2, lat_d, lat_d2 = chain[j + 1], lats[j], lats[j + 1]
            if lat_d2 >= lat_d - 1e-12:
                return
            cost = (d2 - d) * p.cores_per_replica
            heapq.heappush(
                heap, (-((lat_d - lat_d2) / cost), p.name, d, d2, cost))
            return
        d2 = next_jump(p, d)
        if d2 is None:
            return
        cost = (d2 - d) * p.cores_per_replica
        gain = (_lat(p, d) - _lat(p, d2)) / cost
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
            if d_mid > d_from and _lat(p, d_mid) < _lat(p, d_from):
                remaining -= (d_mid - d_from) * p.cores_per_replica
                dups[name] = d_mid
                push(p)
            continue
        dups[name] = d_to
        remaining -= cost
        push(p)
    return _refine_exchange(cim, budget, dups, cache)


def _refine_exchange(cim: List[OpProfile], budget: int,
                     dups: Dict[str, int],
                     cache: Optional["CompileCache"] = None
                     ) -> Dict[str, int]:
    """Pairwise-exchange hill climbing after the jump greedy.

    The greedy is exchange-optimal on each operator's convex
    (cores, latency) hull, but with *non-uniform* core costs it can strand
    budget between operators (a knapsack integrality gap): the leftover
    cores are too few for the best next jump, while a cheaper operator
    holds cores it barely uses.  This pass repeatedly raises one operator
    to its next useful duplication, funding the cores from slack budget
    plus (when needed) lowering a single donor operator, accepting the
    best strictly-improving move until none remains.

    Each iteration evaluates the whole candidate frontier as array
    expressions (:class:`~repro.perf.kernels.RefineExchange`), with
    first-wins tie-breaking on the ``(-net, up, d_up, donor, d_down)``
    sort tuples.
    """
    levels = [_useful_dups(p, budget, cache) for p in cim]
    rex = RefineExchange(cim, levels)
    cores = rex.table.cores
    dvec = np.asarray([dups[p.name] for p in cim], dtype=np.int64)
    free = budget - int(np.add.reduce(cores * dvec))
    # Each accepted move strictly lowers total latency; the cap only
    # guards against float-epsilon cycling.
    for _ in range(8 * max(1, sum(len(v) for v in levels))):
        move = rex.best_move(dvec, free)
        if move is None:
            break
        p, d_up, q, d_down = move
        free -= (d_up - int(dvec[p])) * int(cores[p])
        dvec[p] = d_up
        if q is not None:
            free += (int(dvec[q]) - d_down) * int(cores[q])
            dvec[q] = d_down
    for i, p in enumerate(cim):
        dups[p.name] = int(dvec[i])
    return dups


def duplicate_min_bottleneck(profiles: Sequence[OpProfile],
                             budget: int,
                             cache: Optional["CompileCache"] = None
                             ) -> Dict[str, int]:
    """Duplication counts minimizing the pipelined bottleneck stage latency.

    Binary search over the target bottleneck ``T``: the cheapest feasible
    duplication for a target is ``d_i = ceil(compute_i / T)``, so feasibility
    is monotone in ``T``.  The exact feasibility boundary ``t_star`` is
    found first, with a few array evaluations of the per-operator test on
    a grid of targets (:meth:`~repro.perf.kernels.BottleneckSearch.
    first_feasible`); the 60 bisection steps then decide each midpoint by
    comparing it to ``t_star``.  The whole result is memoized in the
    attached :class:`~repro.perf.CompileCache` (the process-wide one
    when the caller passes none) on the budget and the operators the
    search reads — the CIM ones with MVMs, in order; every other
    operator stays at 1 — and stored by position.  The search reads no
    operator name (ties go to the first operator), and profile equality
    ignores names, so repeated layers under other names, or between
    other digital operators, share one entry.
    """
    cache = perf_cache.resolve(cache)
    if cache is None:
        return _duplicate_min_bottleneck(profiles, budget)
    cim = tuple(_searched(profiles))
    return _memoized_dups(
        cache, ("min_bottleneck", budget, cim), profiles, cim,
        lambda: _duplicate_min_bottleneck(profiles, budget))


def _searched(profiles: Sequence[OpProfile]) -> List[OpProfile]:
    """The operators the min-bottleneck search duplicates."""
    return [p for p in profiles if p.is_cim and p.num_mvms > 0]


def _duplicate_min_bottleneck(profiles: Sequence[OpProfile],
                              budget: int) -> Dict[str, int]:
    """Uncached body of :func:`duplicate_min_bottleneck`."""
    dups = {p.name: 1 for p in profiles}
    cim = _searched(profiles)
    if not cim:
        return dups
    base_cores = sum(p.cores_per_replica for p in cim)
    if base_cores > budget:
        raise CapacityError(
            f"operators need {base_cores} cores, chip has {budget}"
        )

    search = BottleneckSearch(cim, budget)
    lo = max(p.mvm_cycles_base for p in cim)              # best possible
    hi = max(p.latency(1) for p in cim)                   # no duplication
    # Every midpoint lies between lo and hi, and hi can be the smaller.
    t_star = search.first_feasible(min(lo, hi), hi)
    if t_star is None:
        raise CapacityError("even duplication 1 exceeds the core budget")
    # Binary search on achievable bottleneck (continuous, then round).
    # cost never rises as T grows, so "cost(mid) <= budget" holds exactly
    # when mid >= t_star; the 60 steps replay on that test because they
    # usually stop before lo and hi are adjacent, so hi need not be t_star.
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid >= t_star:
            hi = mid
        else:
            lo = mid
    dvec = np.asarray([max(1, int(d)) for d in search.dup_for_target(hi)],
                      dtype=np.int64)
    # Spend leftover cores on the current bottleneck greedily: latencies
    # are maintained incrementally with the scalar formula, and np.argmax
    # keeps first-wins bottleneck tie-breaking.
    remaining = budget - sum(p.cores_per_replica * int(d)
                             for p, d in zip(cim, dvec))
    table = DupLatencyColumns(cim)
    lats = table.latency(dvec)
    while remaining > 0:
        b = int(lats.argmax())
        p = cim[b]
        if (int(dvec[b]) >= p.max_useful_dup
                or p.cores_per_replica > remaining
                or table.latency_at(b, int(dvec[b]) + 1) >= float(lats[b])):
            break
        dvec[b] += 1
        lats[b] = table.latency_at(b, int(dvec[b]))
        remaining -= p.cores_per_replica
    for i, p in enumerate(cim):
        dups[p.name] = int(dvec[i])
    return dups


def balance_for_bandwidth(graph: Graph, profiles: Dict[str, OpProfile],
                          dups: Dict[str, int],
                          arch: CIMArchitecture) -> Dict[str, int]:
    """Trim duplication so data transfer and digital throughput keep up.

    A duplicated operator produces outputs ``dup`` times faster; if the
    chip-tier buffer bandwidth or the ALU of an adjacent CIM-unsupported
    node (e.g. ReLU) cannot absorb that rate, extra replicas only stall the
    pipeline (Section 3.3.2: "update the duplication number to keep the data
    transfer amount within the NOC and buffer capability ... under the
    constraint of ALU").

    Walks only the operators of ``dups`` (one segment's); each cap reads
    the operator's own profile and its successors', never another
    operator's trimmed count, so the visiting order does not matter.
    """
    trimmed = dict(dups)
    chip = arch.chip
    # ALU limit from CIM-unsupported successors (aggregate rate: the
    # chip ALU in CM, one ALU per core otherwise — see CostModel).
    if arch.mode.visible_tiers == 1:
        rate = chip.alu_ops
    else:
        per_core = arch.core.alu_ops or chip.alu_ops
        rate = None if per_core is None else per_core * chip.core_number
    for name, dup in dups.items():
        p = profiles[name]
        if not p.is_cim or dup <= 1:
            continue
        limits: List[float] = []
        # Buffer/NoC limit: output bits per cycle at full duplication must
        # fit in L0 bandwidth.
        if chip.l0_bw_bits is not None and p.num_mvms > 0:
            compute = p.num_mvms * p.mvm_cycles_base
            # bits produced per cycle at dup d: out_bits / (compute / d)
            max_dup_bw = chip.l0_bw_bits * compute / max(1.0, p.out_bits)
            limits.append(max_dup_bw)
        if rate is not None:
            for succ in graph.successors(graph.node(name)):
                sp = profiles[succ.name]
                if sp.is_cim or sp.alu_cycles <= 0:
                    continue
                compute = p.num_mvms * p.mvm_cycles_base
                max_dup_alu = compute / max(1e-9, sp.alu_cycles)
                limits.append(max_dup_alu)
        if limits:
            cap = max(1, math.floor(min(limits)))
            trimmed[name] = min(dup, cap)
    return trimmed


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------


def pipelined_latency(decisions: Sequence[OpDecision]) -> float:
    """Latency of one pipelined segment: bottleneck plus fills.

    Every decision's latency/fill is evaluated in one vectorized pass;
    ``np.argmax`` keeps first-wins bottleneck tie-breaking and
    :func:`~repro.perf.kernels.seq_sum` left-to-right fill summation.
    """
    if not decisions:
        return 0.0
    return segment_cycles(decisions, pipelined=True)[2]


def sequential_latency(decisions: Sequence[OpDecision]) -> float:
    """Latency of one segment without the inter-operator pipeline."""
    if not decisions:
        return 0.0
    return segment_cycles(decisions, pipelined=False)[2]


def segment_graph(graph: Graph, profiles: Dict[str, OpProfile],
                  arch: CIMArchitecture,
                  pipelined: bool = True,
                  duplicate: bool = True,
                  cache: Optional["CompileCache"] = None) -> List[List[str]]:
    """Resource-adaptive compute-graph segmentation (Fig. 9(b)).

    Greedily grows maximal topological prefixes that fit chip capacity, then
    refines each candidate by popping trailing nodes while the (pipelined)
    latency of the remaining subgraph keeps decreasing.

    With a :class:`~repro.perf.CompileCache` the resulting segmentation
    is memoized on the profile contents (frozen dataclasses in
    topological order) plus the core budget and the two gates — the
    only inputs the algorithm reads.
    """
    order = [n.name for n in graph.topological()]
    key = None
    if cache is not None:
        key = ("segments", arch.chip.core_number, pipelined, duplicate,
               tuple((n, profiles[n]) for n in order))
        hit = cache.get_segments(key)
        if hit is not None:
            return hit
    segments = _segment_graph(order, profiles, arch, pipelined, duplicate,
                              cache)
    if key is not None:
        cache.put_segments(key, segments)
    return segments


def _segment_graph(order: List[str], profiles: Dict[str, OpProfile],
                   arch: CIMArchitecture, pipelined: bool, duplicate: bool,
                   cache: Optional["CompileCache"] = None
                   ) -> List[List[str]]:
    """Uncached body of :func:`segment_graph`."""
    budget = arch.chip.core_number
    segments: List[List[str]] = []
    start = 0
    while start < len(order):
        # Grow the maximal prefix that fits at duplication 1.
        used = 0
        end = start
        while end < len(order):
            p = profiles[order[end]]
            need = p.cores_per_replica if p.is_cim else 0
            if p.is_cim and need > budget:
                raise CapacityError(
                    f"operator {p.name!r} alone needs {need} cores; "
                    f"chip has {budget}"
                )
            if used + need > budget:
                break
            used += need
            end += 1
        if end == start:  # first node of the segment must always be taken
            end = start + 1
        segment = order[start:end]
        best_segment = list(segment)
        if end < len(order) and duplicate:
            # Capacity-truncated prefix: pop trailing nodes while the
            # latency *per unit of work* of the remaining subgraph keeps
            # improving (popping frees cores for duplicating the rest; the
            # popped work moves to the next segment).
            best_density = _segment_density(
                segment, profiles, arch, pipelined, cache)
            while len(segment) > 1:
                candidate = segment[:-1]
                if not any(profiles[n].is_cim for n in candidate):
                    break  # never shrink to a CIM-free segment
                density = _segment_density(
                    candidate, profiles, arch, pipelined, cache)
                if density < best_density:
                    best_density = density
                    best_segment = list(candidate)
                    segment = candidate
                else:
                    break
        segments.append(best_segment)
        start += len(best_segment)
    return segments


def _segment_density(names: Sequence[str], profiles: Dict[str, OpProfile],
                     arch: CIMArchitecture, pipelined: bool,
                     cache: Optional["CompileCache"] = None) -> float:
    """Optimized segment latency per unit of un-duplicated work.

    Memoized like the searches (the caller's cache, else the process
    one) on the core budget, the gate and the segment's profiles.  The
    pipelined density reads no operator name, so repeated layers share
    one entry; the sequential one runs :func:`duplicate_min_total`,
    which can break ties on names, so its key keeps them.
    """
    cache = perf_cache.resolve(cache)
    key = None
    if cache is not None:
        key = ("density", arch.chip.core_number, pipelined,
               tuple(profiles[n] for n in names),
               None if pipelined else tuple(names))
        hit = cache.get_density(key)
        if hit is not None:
            return hit
    latency = _segment_latency(names, profiles, arch, pipelined,
                               duplicate=True, cache=cache)
    work = sum(profiles[n].latency(1) for n in names)
    density = latency / max(1.0, work)
    if key is not None:
        cache.put_density(key, density)
    return density


def _segment_latency(names: Sequence[str], profiles: Dict[str, OpProfile],
                     arch: CIMArchitecture, pipelined: bool,
                     duplicate: bool,
                     cache: Optional["CompileCache"] = None) -> float:
    seg_profiles = [profiles[n] for n in names]
    if duplicate:
        search = duplicate_min_bottleneck if pipelined else duplicate_min_total
        dups = search(seg_profiles, arch.chip.core_number, cache)
    else:
        dups = {p.name: 1 for p in seg_profiles}
    decisions = [OpDecision(profiles[n], dup_cg=dups[n]) for n in names]
    if pipelined:
        return pipelined_latency(decisions)
    return sequential_latency(decisions)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def schedule_cg(graph: Graph, arch: CIMArchitecture,
                pipelined: bool = True, duplicate: bool = True,
                cost_model: Optional[CostModel] = None,
                cache: Optional["CompileCache"] = None) -> Schedule:
    """Run CG-grained optimization and return a CG-level :class:`Schedule`.

    ``cache`` (or the cost model's attached cache) memoizes profiles,
    segmentation, and duplication searches across compilations.
    """
    cm = cost_model or CostModel(arch, cache=cache)
    if cache is None:
        cache = cm.cache
    profiles = cm.profiles(graph)
    segments = segment_graph(graph, profiles, arch, pipelined, duplicate,
                             cache)
    decisions: Dict[str, OpDecision] = {}
    for seg_idx, seg in enumerate(segments):
        seg_profiles = [profiles[n] for n in seg]
        if duplicate:
            search = duplicate_min_bottleneck if pipelined \
                else duplicate_min_total
            dups = search(seg_profiles, arch.chip.core_number, cache)
            dups = balance_for_bandwidth(graph, profiles, dups, arch)
        else:
            dups = {n: 1 for n in seg}
        for name in seg:
            decisions[name] = OpDecision(
                profiles[name], segment=seg_idx, dup_cg=dups[name])
            node = graph.node(name)
            node.annotations["duplication"] = dups[name]
            node.annotations["segment"] = seg_idx
    schedule = Schedule(graph, arch, decisions, segments,
                        pipelined=pipelined, levels=("CG",))
    schedule.validate_resources()
    return schedule
