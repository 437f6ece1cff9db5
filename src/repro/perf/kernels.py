"""Vectorized (numpy) kernels for the scheduler/simulator hot loops.

Every kernel here replaces a per-operator Python loop with array math
while producing **bit-identical** results, so the golden regressions and
the cached-vs-live sweeps stay value-exact:

* elementwise steps (``ceil``, ``floor-divide``, ``min``/``max``,
  multiply, add) are single IEEE-754 operations in both paths, so the
  vectorized form rounds exactly like the scalar form;
* reductions that the reference computes as an explicit left-to-right
  loop use :func:`seq_sum` (``np.add.accumulate``), which applies the
  same addition order — *not* ``np.sum``, whose pairwise summation
  would round differently;
* argmax-style selections keep the reference's first-wins tie-breaking
  (``np.argmax`` returns the first maximal index, exactly like
  ``list.index(max(...))``).

The scalar loops these kernels replaced are kept as the oracle in
:mod:`repro.perf.reference`; ``tests/test_perf_cache.py`` pins the
equivalence on every model/preset pair and on perturbed inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


def seq_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to an explicit loop
    ``total = 0.0; for v in values: total += v``.

    ``np.add.accumulate`` is a sequential prefix scan, so its last
    element applies the additions in exactly that order (``np.sum``
    would use pairwise summation and round differently).  Python's
    ``sum()`` agrees only through 3.11: from 3.12 it compensates float
    rounding (``sum([1e16, 1.0, -1e16])`` is ``1.0`` there, ``0.0``
    here).
    """
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def fold(values: Iterable[float]) -> float:
    """Left-to-right sum of ``values`` as an explicit loop.

    The scalar twin of :func:`seq_sum` for Python numbers, and the
    order ``sum()`` uses through Python 3.11.  From 3.12 ``sum()``
    compensates float rounding, so production sums whose terms can be
    floats go through here to give the same bits on every Python.
    Integer terms stay exact and an empty input gives ``0``, as with
    ``sum()``.
    """
    total = 0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# Operator latency / fill evaluation
# ---------------------------------------------------------------------------


class ProfileArrays:
    """Column view of a profile sequence for batched latency evaluation.

    Mirrors :meth:`repro.sched.costs.OpProfile.latency` /
    :meth:`~repro.sched.costs.OpProfile.fill_cycles` field-for-field; the
    integer fields stay exact in float64 far beyond any reachable
    magnitude (products stay orders of magnitude below 2**53).
    """

    def __init__(self, profiles: Sequence) -> None:
        as_f = np.asarray
        self.is_cim = as_f([p.is_cim for p in profiles], dtype=bool)
        self.num_mvms = as_f([p.num_mvms for p in profiles], dtype=np.float64)
        self.max_useful_dup = as_f([p.max_useful_dup for p in profiles],
                                   dtype=np.float64)
        self.input_passes = as_f([p.input_passes for p in profiles],
                                 dtype=np.float64)
        self.row_waves = as_f([p.row_waves for p in profiles],
                              dtype=np.float64)
        self.seq_passes = as_f([p.seq_passes for p in profiles],
                               dtype=np.float64)
        self.reload_cycles = as_f([p.reload_cycles for p in profiles],
                                  dtype=np.float64)
        self.alu_cycles = as_f([p.alu_cycles for p in profiles],
                               dtype=np.float64)
        self.mov_cycles = as_f([p.mov_cycles for p in profiles],
                               dtype=np.float64)
        self.fill_fraction = as_f([p.fill_fraction for p in profiles],
                                  dtype=np.float64)
        self.cores_per_replica = as_f([p.cores_per_replica for p in profiles],
                                      dtype=np.float64)

    def __len__(self) -> int:
        return len(self.is_cim)

    def latencies(self, dup: np.ndarray, wave_reduction: np.ndarray,
                  window_waves: np.ndarray,
                  has_window_waves: np.ndarray) -> np.ndarray:
        """``OpProfile.latency`` over all rows in one pass.

        ``window_waves`` holds the per-row override where
        ``has_window_waves`` is True (the value is ignored elsewhere).
        """
        dup = np.asarray(dup, dtype=np.float64)
        wave_reduction = np.asarray(wave_reduction, dtype=np.float64)
        # CIM rows: windows = ceil(num_mvms / min(dup, max_useful_dup)).
        eff_dup = np.minimum(dup, self.max_useful_dup)
        windows = np.ceil(self.num_mvms / np.maximum(eff_dup, 1.0))
        # mvm_cycles(wave_reduction) = input_passes * max(1, ceil(...)).
        waves = np.ceil(self.row_waves / np.maximum(1.0, wave_reduction))
        mvm = self.input_passes * np.maximum(1.0, waves)
        compute = np.where(
            has_window_waves,
            windows * self.input_passes * window_waves,
            windows * mvm * self.seq_passes,
        )
        compute = compute + self.seq_passes * self.reload_cycles
        cim_lat = np.maximum(compute, self.mov_cycles) + self.alu_cycles
        # Digital rows: max(alu, mov).
        digital_lat = np.maximum(self.alu_cycles, self.mov_cycles)
        return np.where(self.is_cim, cim_lat, digital_lat)

    def fills(self, latencies: np.ndarray) -> np.ndarray:
        """``OpProfile.fill_cycles`` (latency × fill fraction) per row."""
        return latencies * self.fill_fraction


def decision_columns(decisions: Sequence
                     ) -> Tuple[ProfileArrays, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
    """Split a decision sequence into (profiles, dup, wave, window, mask).

    The returned arrays feed :meth:`ProfileArrays.latencies` to evaluate
    every :meth:`~repro.sched.schedule.OpDecision.latency` at once.
    """
    cols = ProfileArrays([d.profile for d in decisions])
    dup = np.asarray([d.dup for d in decisions], dtype=np.float64)
    wave = np.asarray([d.wave_reduction for d in decisions],
                      dtype=np.float64)
    has_ww = np.asarray([d.window_waves is not None for d in decisions],
                        dtype=bool)
    ww = np.asarray([0 if d.window_waves is None else d.window_waves
                     for d in decisions], dtype=np.float64)
    return cols, dup, wave, ww, has_ww


def decision_latencies_fills(decisions: Sequence
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """(latency, fill) arrays matching per-decision scalar evaluation."""
    cols, dup, wave, ww, has_ww = decision_columns(decisions)
    lats = cols.latencies(dup, wave, ww, has_ww)
    return lats, cols.fills(lats)


def reduce_segment(lats: np.ndarray, fills: np.ndarray,
                   pipelined: bool) -> Tuple[int, float]:
    """(bottleneck index, segment cycles) of one segment's columns.

    The single body behind :func:`segment_cycles` and the schedule-wide
    pass of :meth:`repro.sim.performance.PerformanceSimulator.run`, so
    the bit-identity-critical bottleneck/fill-spill formula exists
    exactly once.  Pipelined: bottleneck latency plus the other
    operators' fills (``np.argmax`` keeps the reference's first-wins
    tie-breaking, :func:`seq_sum` its left-to-right fill summation).
    Sequential: the ordered latency sum.
    """
    b_idx = int(lats.argmax())
    if pipelined:
        spill = seq_sum(fills) - float(fills[b_idx])
        cycles = float(lats[b_idx]) + max(0.0, spill)
    else:
        cycles = seq_sum(lats)
    return b_idx, cycles


def segment_cycles(decisions: Sequence,
                   pipelined: bool) -> Tuple[np.ndarray, int, float]:
    """(latencies, bottleneck index, segment cycles) in one pass.

    The body of :func:`repro.sched.cg.pipelined_latency` /
    :func:`~repro.sched.cg.sequential_latency`: every decision's
    latency and fill evaluated at once, then :func:`reduce_segment`.
    """
    lats, fills = decision_latencies_fills(decisions)
    b_idx, cycles = reduce_segment(lats, fills, pipelined)
    return lats, b_idx, cycles


# ---------------------------------------------------------------------------
# Duplication search
# ---------------------------------------------------------------------------


def useful_dup_options(num_mvms: int, cap: int) -> np.ndarray:
    """Duplication values where ``ceil(num_mvms / d)`` changes.

    Vectorized form of the ``_useful_dups`` scan: for every window count
    ``k`` in ``[1, num_mvms)`` the smallest achieving duplication is
    ``ceil(num_mvms / k)`` — computed with the same float division +
    ceil as the reference, filtered to ``<= cap``, deduplicated, and
    joined with the mandatory ``{1, max(1, cap)}`` endpoints.
    """
    options = {1, max(1, int(cap))}
    if num_mvms > 1:
        k = np.arange(1, num_mvms, dtype=np.float64)
        d = np.ceil(num_mvms / k)
        d = d[d <= cap]
        # The set dedups; np.unique would also work but lazily imports
        # numpy.ma on first use, a ~10ms stall inside timed regions.
        options.update(d.astype(np.int64).tolist())
    return np.array(sorted(options), dtype=np.int64)


class BottleneckSearch:
    """Array state for the min-bottleneck duplication binary search.

    Precomputes per-operator columns once; ``dup_for_target`` / ``cost``
    then evaluate one target or a whole vector of targets as a handful
    of array expressions, matching ``duplicate_min_bottleneck``'s scalar
    helpers operation for operation (float divisions, floor-divide,
    ceil, clamps).  :meth:`first_feasible` locates the bisection's
    feasibility boundary with such grid evaluations (one for most
    searches, about 15 for a full bracket) instead of one ``cost`` call
    per bisection step.
    """

    #: Targets evaluated per :meth:`first_feasible` round.
    GRID = 16
    _steps = np.arange(1, GRID + 1, dtype=np.int64)

    def __init__(self, cim: Sequence, budget: int) -> None:
        self.budget = budget
        self.cores = np.asarray([p.cores_per_replica for p in cim],
                                dtype=np.float64)
        self.num_mvms = np.asarray([p.num_mvms for p in cim],
                                   dtype=np.float64)
        self.max_dup = np.asarray([p.max_useful_dup for p in cim],
                                  dtype=np.float64)
        self.mvm = np.asarray([p.mvm_cycles_base for p in cim],
                              dtype=np.float64)
        self.alu = np.asarray([p.alu_cycles for p in cim], dtype=np.float64)
        mov = np.asarray([p.mov_cycles for p in cim], dtype=np.float64)
        # Duplication-independent floor: max(mov, mvm) + alu.
        self.floor = np.maximum(mov, self.mvm) + self.alu
        self.infeasible = self.max_dup + budget + 1

    def dup_for_target(self, target: float | np.ndarray) -> np.ndarray:
        """Smallest per-op duplication meeting ``target`` (marker when
        unreachable), as float64 integers: shape ``(ops,)`` for a scalar
        target, ``(targets, ops)`` for a vector of targets."""
        target = np.asarray(target, dtype=np.float64)[..., None]
        compute_budget = target - self.alu
        windows_per_replica = np.floor_divide(compute_budget, self.mvm)
        dups = np.minimum(
            self.max_dup,
            np.ceil(self.num_mvms / np.maximum(1.0, windows_per_replica)))
        return np.where(target < self.floor, self.infeasible, dups)

    def cost(self, target: float | np.ndarray) -> float | np.ndarray:
        """Total cores of the cheapest feasible duplication for
        ``target``, reduced over operators: a float for a scalar target,
        an array for a vector (exact: integer-valued float64 products
        and sums)."""
        return np.add.reduce(self.cores * self.dup_for_target(target),
                             axis=-1)

    def first_feasible(self, lo: float, hi: float) -> Optional[float]:
        """The smallest float64 ``T`` in ``[lo, hi]`` with
        ``cost(T) <= budget`` (``0 <= lo <= hi``), or ``None`` if even
        ``hi`` is infeasible.

        Non-negative doubles sort like their int64 bit patterns, so the
        search runs over those integers.  The first round tests where
        the boundary usually sits: at the largest duplication-independent
        floor (no smaller target is reachable, and a budget that covers
        every operator's floor stops there) and at ``hi`` (no duplication
        helps).  Every later round evaluates ``GRID`` evenly spaced
        targets strictly inside the open bracket and keeps the gap around
        the first feasible one, until the bracket holds adjacent doubles.
        The result is exact: either ``T == lo`` or ``cost`` of the next
        double below ``T`` exceeds the budget.
        """
        # bad is infeasible and good feasible, or the never-evaluated
        # sentinels one double outside [lo, hi].
        top = _bits(hi)
        bad, good = _bits(lo) - 1, top + 1
        floor = _bits(max(lo, self.floor.max()))
        points = np.array(sorted(x for x in {floor - 1, floor, top - 1, top}
                                 if bad < x < good), dtype=np.int64)
        while True:
            feasible = self.cost(points.view(np.float64)) <= self.budget
            first = int(feasible.argmax())
            if feasible[first]:
                good = int(points[first])
            else:
                first = len(points)
            if first > 0:
                bad = int(points[first - 1])
            gap = good - bad
            if gap <= 1:
                break
            step = max(1, gap // (self.GRID + 1))
            points = bad + step * self._steps[:min(self.GRID, gap - 1)]
        return None if good > top else _double(good)


def _bits(x: float) -> int:
    """The int64 bit pattern of a double (order-preserving for x >= 0)."""
    return int(np.float64(x).view(np.int64))


def _double(bits: int) -> float:
    """Inverse of :func:`_bits`."""
    return float(np.int64(bits).view(np.float64))


class DupLatencyColumns:
    """Default-argument ``OpProfile.latency`` over a CIM profile sequence.

    The duplication searches evaluate ``p.latency(d)`` with no wave
    reduction and no window override, so the whole formula collapses to
    four per-operator constants: the per-window unit
    ``mvm_cycles(1) * seq_passes``, the reload base
    ``seq_passes * reload_cycles``, the movement floor, and the ALU
    tail.  Every step mirrors the scalar method — the same float
    division and ``ceil``, the same integer-valued products (exact in
    float64 far below 2**53), the same ``max(compute, mov) + alu`` —
    so the values are bit-identical to :meth:`repro.sched.costs.
    OpProfile.latency`.
    """

    def __init__(self, profiles: Sequence) -> None:
        as_f = np.asarray
        self.names = [p.name for p in profiles]
        self.cores = as_f([p.cores_per_replica for p in profiles],
                          dtype=np.int64)
        self.num_mvms = as_f([p.num_mvms for p in profiles],
                             dtype=np.float64)
        self.max_dup = as_f([p.max_useful_dup for p in profiles],
                            dtype=np.float64)
        self.per_window = as_f([p.mvm_cycles(1) * p.seq_passes
                                for p in profiles], dtype=np.float64)
        self.base = as_f([p.seq_passes * p.reload_cycles
                          for p in profiles], dtype=np.float64)
        self.mov = as_f([p.mov_cycles for p in profiles], dtype=np.float64)
        self.alu = as_f([p.alu_cycles for p in profiles], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.names)

    def latency(self, dup: np.ndarray) -> np.ndarray:
        """``p.latency(dup[i])`` for every operator in one pass."""
        dup = np.asarray(dup, dtype=np.float64)
        eff = np.minimum(dup, self.max_dup)
        windows = np.ceil(self.num_mvms / np.maximum(eff, 1.0))
        compute = windows * self.per_window + self.base
        return np.maximum(compute, self.mov) + self.alu

    def latency_at(self, i: int, dup: float) -> float:
        """Scalar ``p.latency(dup)`` for operator ``i`` (same IEEE ops
        as :meth:`latency`, for incremental greedy updates)."""
        eff = min(float(dup), float(self.max_dup[i]))
        windows = math.ceil(float(self.num_mvms[i]) / max(eff, 1.0))
        compute = windows * float(self.per_window[i]) + float(self.base[i])
        mov = float(self.mov[i])
        return (compute if compute > mov else mov) + float(self.alu[i])


#: Sentinel padding the ragged per-operator useful-level table; large
#: enough that a padded cell never satisfies a ``level <= threshold``
#: test yet still converts to float64 without overflow.
_LEVEL_PAD = 2 ** 62


def level_latency_table(table: DupLatencyColumns,
                        levels: Sequence[Sequence[int]]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Padded per-operator level matrix and the latency at every cell.

    ``levels[i]`` is operator ``i``'s ascending duplication-level list;
    rows are padded with :data:`_LEVEL_PAD` (padded cells clamp to the
    useful-duplication cap and must be masked by callers).  The latency
    evaluation applies exactly :meth:`DupLatencyColumns.latency`
    broadcast over columns.
    """
    n = len(table)
    width = max((len(row) for row in levels), default=1) or 1
    lv = np.full((n, width), _LEVEL_PAD, dtype=np.int64)
    for i, row in enumerate(levels):
        lv[i, :len(row)] = row
    eff = np.minimum(lv.astype(np.float64), table.max_dup[:, None])
    windows = np.ceil(table.num_mvms[:, None] / np.maximum(eff, 1.0))
    compute = windows * table.per_window[:, None] + table.base[:, None]
    lat = np.maximum(compute, table.mov[:, None]) + table.alu[:, None]
    return lv, lat


class RefineExchange:
    """Whole-frontier evaluation of the pairwise-exchange refinement.

    The reference loop (``repro.perf.reference.refine_exchange``) scans, per
    iteration, every operator ``p`` for its next useful duplication
    level and every donor ``q`` for the *largest* down-level that frees
    enough cores, then applies the best strictly-improving move from a
    sorted candidate list.  This class evaluates the entire frontier —
    all ``(p, q)`` pairs — as a handful of array expressions per
    iteration.

    Bit-identity is preserved move for move:

    * latencies come from :class:`DupLatencyColumns` (value-exact with
      ``OpProfile.latency``), so every ``gain``/``loss`` float equals
      the reference's;
    * the reference breaks at the *first* (largest) feasible donor
      down-level and evaluates only that one; the vectorized threshold
      count selects exactly that level;
    * a no-donor move short-circuits the donor scan for its operator
      (the reference ``continue``), mirrored by masking;
    * the winning move is the minimum of the reference's sort tuples
      ``(-net, p.name, d_up, q.name, d_down)``; ties on the exact
      float ``net`` are resolved by rebuilding those tuples for the
      tied candidates only and taking ``min`` — candidates of
      different operators are decided at ``p.name``, so the reference's
      ``None`` donor fields (only ever compared within one operator's
      branch) never meet a string.
    """

    def __init__(self, cim: Sequence,
                 levels: Sequence[Sequence[int]]) -> None:
        self.table = DupLatencyColumns(cim)
        self.names = self.table.names
        self.nlev = np.asarray([len(row) for row in levels], dtype=np.int64)
        self.lv, self.lv_lat = level_latency_table(self.table, levels)

    def best_move(self, dups: np.ndarray, free: int
                  ) -> Optional[Tuple[int, int, Optional[int],
                                      Optional[int]]]:
        """The reference iteration's winning move for the current
        duplication vector, or ``None`` when no candidate improves.

        Returns ``(p, d_up, q, d_down)`` with operator *indices* (``q``
        and ``d_down`` are ``None`` for a no-donor move).
        """
        t = self.table
        n = len(self.names)
        rows = np.arange(n)
        cur = t.latency(dups)
        # First useful level strictly above the current duplication.
        cnt_up = np.add.reduce(self.lv <= dups[:, None], axis=1)
        has_up = cnt_up < self.nlev
        up_idx = np.minimum(cnt_up, self.lv.shape[1] - 1)
        d_up = np.where(has_up, self.lv[rows, up_idx], dups)
        gain = cur - self.lv_lat[rows, up_idx]
        active = has_up & (gain > 1e-12)
        if not active.any():
            return None
        need = (d_up - dups) * t.cores
        nodonor = active & (need <= free)
        donors_from = active & ~nodonor
        best_net = -math.inf
        if nodonor.any():
            best_net = float(gain[nodonor].max())
        valid = None
        if donors_from.any():
            # Largest donor level lv <= dups[q] - ceil((need-free)/cores[q])
            # — exactly the first feasible level of the reference's
            # descending scan.  Non-donor rows carry clamped garbage and
            # are masked out.
            deficit = np.maximum(need - free, 1)
            per_donor = ((deficit[:, None] + t.cores[None, :] - 1)
                         // t.cores[None, :])
            thr = dups[None, :] - per_donor
            cnt_dn = np.add.reduce(
                self.lv[None, :, :] <= thr[:, :, None], axis=2)
            valid = donors_from[:, None] & (cnt_dn > 0)
            valid[rows, rows] = False
            dn_idx = np.maximum(cnt_dn - 1, 0)
            qmat = np.broadcast_to(rows[None, :], (n, n))
            d_down = self.lv[qmat, dn_idx]
            loss = self.lv_lat[qmat, dn_idx] - cur[None, :]
            net = gain[:, None] - loss
            valid &= net > 1e-9
            if valid.any():
                best_net = max(best_net, float(net[valid].max()))
        if best_net == -math.inf:
            return None
        # Exact-float ties: rebuild the reference sort tuples for the
        # tied candidates only and take their minimum.
        ties: List[Tuple[Tuple, Tuple]] = []
        if nodonor.any():
            for p in np.flatnonzero(nodonor & (gain == best_net)):
                p = int(p)
                ties.append(((self.names[p], int(d_up[p])),
                             (p, int(d_up[p]), None, None)))
        if valid is not None and valid.any():
            tied = valid & (net == best_net)
            for p, q in zip(*np.nonzero(tied)):
                p, q = int(p), int(q)
                ties.append(((self.names[p], int(d_up[p]), self.names[q],
                              int(d_down[p, q])),
                             (p, int(d_up[p]), q, int(d_down[p, q]))))
        return min(ties)[1]


# ---------------------------------------------------------------------------
# Stage interval table (multi-chip partitioner)
# ---------------------------------------------------------------------------


#: Largest ``(width x stages)`` float64 block the interval table bisects
#: at once; keeps the working set cache-resident and the memory bounded.
INTERVAL_BLOCK = 2 ** 14


def interval_table(cores: Sequence[int], loads: Sequence[float],
                   floors: Sequence[float], bits: Sequence[int],
                   budget: int, max_cores: int, max_bits: int,
                   need: Optional[np.ndarray] = None) -> np.ndarray:
    """Predicted interval of every fitting stage ``[j, i)`` of operators.

    Per-operator columns in (non-CIM rows are all zero; a CIM row has at
    least one core, which is how the kernel tells them apart), a float64
    ``(n, n + 1)`` table out: ``inf`` where the stage does not fit
    ``max_cores``/``max_bits`` or ``need[j, i]`` (default: every pair)
    is False.  Value-identical to
    the scalar bisection (``repro.perf.reference.predict_interval``)
    for every stage at once:

    * the fitting starts of end ``i`` are exactly ``[first[i], i)``:
      the prefix sums of cores and bits are monotone, so
      ``np.searchsorted`` finds where the scalar downward scan breaks;
    * ``floor`` is a running ``max`` of the (non-negative) floors and
      ``hi`` a ``max`` of ``load / cores`` — exact in any order;
    * a search reads only the stage's CIM rows ``[lead, tail)`` and its
      ``lo`` (``hi`` is the larger of ``lo`` and those rows' largest
      ``load / cores``), so there is one search per distinct (CIM rows,
      ``lo``): ``np.lexsort`` groups the stages that share both, and
      the result is scattered back to every member;
    * ``cores_at(T)`` folds only the CIM rows of the stage.  Searches
      are sorted by CIM count into end-aligned ``(width x stages)``
      blocks of at most :data:`INTERVAL_BLOCK` elements, zero-padded at
      the top, and ``np.add.accumulate`` down each column adds the same
      ``max(c, load / T)`` terms left to right (leading ``0.0`` terms
      leave the fold unchanged);
    * each search keeps the early ``lo`` return and the 48
      ``(lo + hi) / 2`` steps of the scalar search.
    """
    n = len(cores)
    table = np.full((n, n + 1), math.inf)
    if n == 0:
        return table
    c = np.asarray(cores, dtype=np.float64)
    is_cim = c > 0
    load = np.asarray(loads, dtype=np.float64)
    core_sum = np.concatenate(([0], np.cumsum(cores, dtype=np.int64)))
    bit_sum = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    first = np.maximum(np.searchsorted(core_sum, core_sum - max_cores),
                       np.searchsorted(bit_sum, bit_sum - max_bits))
    j_idx = np.arange(n)[:, None]
    pairs = (j_idx >= first[None, :]) & (j_idx < np.arange(n + 1)[None, :])
    if need is not None:
        pairs &= need
    starts, ends = np.nonzero(pairs)
    if starts.size == 0:
        return table

    # floor[j, i-1] = max(0.0, floors[j:i]); ratio likewise over the
    # CIM rows' load / cores (the search's upper end).
    upper = j_idx <= np.arange(n)[None, :]
    floor = np.maximum.accumulate(
        np.where(upper, np.asarray(floors, dtype=np.float64), 0.0),
        axis=1)[starts, ends - 1]
    ratio = np.divide(load, c, out=np.zeros(n), where=is_cim)
    hi = np.maximum.accumulate(np.where(upper, ratio, 0.0),
                               axis=1)[starts, ends - 1]
    lo = np.maximum(floor, 1.0)
    hi = np.maximum(lo, hi)

    # The fold runs over CIM rows only: stage [j, i) covers CIM rows
    # [cim_sum[j], cim_sum[i]) of the compressed columns.
    cim_sum = np.concatenate(([0], np.cumsum(is_cim, dtype=np.int64)))
    lead, tail = cim_sum[starts], cim_sum[ends]
    count = tail - lead
    value = np.where(count > 0, hi, floor)
    c_pad = np.concatenate(([0.0], c[is_cim]))
    load_pad = np.concatenate(([0.0], load[is_cim]))
    # One search per distinct (count, lead, lo), narrowest first;
    # opens[k] marks the first stage of its group in sorted order.
    searched = np.flatnonzero(count > 0)
    order = searched[np.lexsort((lo[searched], lead[searched],
                                 count[searched]))]
    opens = np.zeros(order.size, dtype=bool)
    opens[:1] = True
    for key in (count[order], lead[order], lo[order]):
        opens[1:] |= key[1:] != key[:-1]
    by_width = order[opens]
    done = 0
    while done < by_width.size:
        widths = count[by_width[done:done + INTERVAL_BLOCK]]
        fit = widths * np.arange(1, widths.size + 1) <= INTERVAL_BLOCK
        block = by_width[done:done + max(1, int(np.count_nonzero(fit)))]
        done += block.size
        width = int(count[block[-1]])
        rows = tail[block][None, :] - width + np.arange(width)[:, None]
        rows = np.where(rows >= lead[block][None, :], rows + 1, 0)
        value[block] = _bisect_block(c_pad[rows], load_pad[rows],
                                     lo[block], hi[block], budget)
    value[order] = value[by_width][np.cumsum(opens) - 1]
    table[starts, ends] = value
    return table


def _bisect_block(c: np.ndarray, load: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, budget: int) -> np.ndarray:
    """The scalar search on every column of one interval-table block:
    ``lo`` where ``cores_at(lo)`` fits the budget, else ``hi`` after 48
    bisection steps."""
    def fits(target: np.ndarray, c: np.ndarray,
             load: np.ndarray) -> np.ndarray:
        terms = np.maximum(c, load / target)
        return np.add.accumulate(terms, axis=0)[-1] <= budget

    result = lo.copy()
    todo = np.flatnonzero(~fits(lo, c, load))
    if todo.size:
        c, load = c[:, todo], load[:, todo]
        lo, hi = lo[todo], hi[todo]
        for _ in range(48):
            mid = (lo + hi) / 2
            ok = fits(mid, c, load)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        result[todo] = hi
    return result


# ---------------------------------------------------------------------------
# NoC hop matrices
# ---------------------------------------------------------------------------


def mesh_hop_array(n: int, rows: int, cols: int) -> np.ndarray:
    """Manhattan hop counts on a ``rows x cols`` mesh (int64, n x n)."""
    idx = np.arange(n, dtype=np.int64)
    r, c = idx // cols, idx % cols
    return (np.abs(r[:, None] - r[None, :])
            + np.abs(c[:, None] - c[None, :]))


def htree_hop_array(n: int) -> np.ndarray:
    """H-tree hop counts: ``2 * depth_of_lca`` for each pair (int64).

    ``depth_of_lca(a, b)`` — the number of simultaneous halvings until
    the indices merge — equals the bit length of ``a XOR b``; the bit
    length is read off the float64 exponent (exact for any index far
    below 2**53).
    """
    idx = np.arange(n, dtype=np.int64)
    xor = idx[:, None] ^ idx[None, :]
    depth = np.frexp(xor.astype(np.float64))[1]
    return 2 * depth.astype(np.int64)


def shared_bus_hop_array(n: int) -> np.ndarray:
    """Uniform one-hop cost matrix with a zero diagonal (int64)."""
    hops = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(hops, 0)
    return hops
