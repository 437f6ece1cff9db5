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
No module under ``repro`` but :mod:`repro.perf.bench` imports this one
(a structure test enforces it).
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..arch.noc import NocSpec
from ..errors import CapacityError, ScheduleError
from ..explore import runner
from ..sched import cg, placement
from ..sched.compiler import CIMMLC
from ..sched.costs import OpProfile
from ..sched.schedule import OpDecision, Schedule
from ..serve import partition
from ..sim import performance
from .cache import CompileCache
from .incremental import IncrementalCompiler

# ---------------------------------------------------------------------------
# NoC cost aggregates
# ---------------------------------------------------------------------------


def average_cost(spec: NocSpec, n: int) -> float:
    """Scalar :meth:`~repro.arch.noc.NocSpec.average_cost`: a double
    loop over the distinct unit pairs of the list-form hop matrix."""
    if n <= 1:
        return 0.0
    matrix = spec.hop_matrix(n)
    total = sum(matrix[i][j] for i in range(n) for j in range(n) if i != j)
    return total / (n * (n - 1))


def max_cost(spec: NocSpec, n: int) -> float:
    """Scalar :meth:`~repro.arch.noc.NocSpec.max_cost`."""
    matrix = spec.hop_matrix(n)
    return max((matrix[i][j] for i in range(n) for j in range(n)),
               default=0.0)


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
    fills = sum(d.fill() for d in decisions) - \
        decisions[lats.index(bottleneck)].fill()
    return bottleneck + max(0.0, fills)


def sequential_latency(decisions: Sequence[OpDecision]) -> float:
    """Scalar :func:`~repro.sched.cg.sequential_latency`."""
    return sum(d.latency() for d in decisions)


def segment_latencies(decisions: Sequence[OpDecision], pipelined: bool
                      ) -> Tuple[List[float], int, float]:
    """Scalar ``sim.performance._segment_latencies``: per-decision
    latencies, the first-wins bottleneck index, and segment cycles."""
    lats = [d.latency() for d in decisions]
    cycles = (pipelined_latency(decisions) if pipelined
              else sequential_latency(decisions))
    b_idx = max(range(len(decisions)),
                key=lambda i: decisions[i].latency())
    return lats, b_idx, cycles


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


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
                return (sum(w * hop[a][core] for a, w in anchors), core)

            chosen = sorted(free, key=attraction)[:need]
        else:
            chosen = sorted(free)[:need]
        result[name] = sorted(chosen)
        free.difference_update(chosen)
    return result


# ---------------------------------------------------------------------------
# The seam
# ---------------------------------------------------------------------------


def _compile_uncached(self: IncrementalCompiler, graph, arch,
                      options=None):
    """``IncrementalCompiler.compile`` inside the seam: a plain compile
    that bypasses the compiler's shared cache."""
    return CIMMLC(arch, options).compile(graph)


def _no_cache() -> None:
    """Serve's implicit planner cache inside the seam: none."""
    return None


#: ``(owner, attribute, oracle value)`` for every production attribute
#: :func:`installed` replaces.  The oracle forms come first; the last
#: three entries switch the implicit memos off (``None`` search memo
#: and explore process cache, no planner-owned cache).  The greedy
#: placement memo and the NoC ``lru_cache`` s sit behind production
#: forms replaced above, so they see no traffic inside the seam.
SWAPS = (
    (NocSpec, "average_cost", average_cost),
    (NocSpec, "max_cost", max_cost),
    (cg, "_useful_dups", useful_dups),
    (cg, "_duplicate_min_total", duplicate_min_total),
    (cg, "_refine_exchange", refine_exchange),
    (cg, "_duplicate_min_bottleneck", duplicate_min_bottleneck),
    (cg, "pipelined_latency", pipelined_latency),
    (cg, "sequential_latency", sequential_latency),
    (performance, "pipelined_latency", pipelined_latency),
    (performance, "_segment_latencies", segment_latencies),
    (placement, "place_greedy", place_greedy),
    (IncrementalCompiler, "compile", _compile_uncached),
    (cg, "_IMPLICIT_SEARCH_CACHE", None),
    (runner, "_PROCESS_CACHE", None),
    (partition, "_implicit_cache", _no_cache),
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
