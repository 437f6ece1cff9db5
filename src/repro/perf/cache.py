"""In-process memoization for the compile→simulate hot path.

A :class:`CompileCache` stores the expensive intermediates of a
compilation, keyed by *content* so that any two evaluations with equal
inputs share work no matter where they originate — sweep points of a
:class:`~repro.explore.runner.SweepRunner`, tenants of a serving plan,
stages of a multi-chip shard, or repeated blocks of one model:

* **per-op profiles** (``CostModel.profiles``) keyed by
  ``(architecture, bit binding, graph signature)`` — the architecture is
  a frozen dataclass, so value equality *is* content equality, and the
  graph signature is the cached content hash of
  :meth:`repro.graph.Graph.signature`;
* **duplication searches** (``duplicate_min_total`` /
  ``duplicate_min_bottleneck``) keyed by the profile tuple and core
  budget, with the answer stored as one count per operator position —
  profiles are frozen dataclasses carrying every quantity the search
  reads, and their equality ignores the operator name, so equal keys
  guarantee equal answers and a hit maps back to the caller's names.
  The min-total key adds the names, because its greedy breaks exact
  ties on them;
* **segment densities** (``cg._segment_density``, the segmentation's
  pop test) keyed the same way plus the pipeline gate (names again only
  for the non-pipelined form);
* **useful-duplication curves** (``_useful_dups``) keyed per profile;
* **graph segmentations** (``segment_graph``) keyed by the named
  profiles in topological order, the core budget, and the
  pipeline/duplicate gates;
* **greedy placements** (``placement.place_greedy``) keyed on what the
  placer reads, with one core tuple per CIM operator position.

Graph-only quantities are not kept here: each node's profile facts
(:func:`repro.sched.costs.node_facts`) and the placer's CIM-to-CIM
paths live on the graph object (:meth:`repro.graph.Graph.derived`),
derived once per graph and dropped by its mutation points.  Keyed on
``graph.signature()`` they would cost every fresh graph a hash that
takes about three quarters as long as deriving its facts, and would
pay only when equal content arrives in another graph object.

The cache is deliberately in-process and unbounded: one sweep/serve/shard
run holds a bounded universe of distinct keys, and entries are plain
shared immutables (profiles, positional count and core tuples, floats)
or copied-on-return containers (segment lists), so sharing one cache
across thousands of points is safe.  Hit/miss counters make the reuse
observable in tests and ``repro bench``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


class CompileCache:
    """Content-addressed memo shared across compilations.

    Example
    -------
    >>> from repro.arch import functional_testbed
    >>> from repro.models import lenet
    >>> from repro.sched import CIMMLC
    >>> cache = CompileCache()
    >>> a = CIMMLC(functional_testbed(), cache=cache).compile(lenet())
    >>> b = CIMMLC(functional_testbed(), cache=cache).compile(lenet())
    >>> cache.profile_hits >= 1 and a.total_cycles == b.total_cycles
    True
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple, Dict[str, Any]] = {}
        self._dups: Dict[Tuple, Tuple[int, ...]] = {}
        self._density: Dict[Tuple, float] = {}
        self._useful: Dict[Tuple, List[int]] = {}
        self._segments: Dict[Tuple, List[List[str]]] = {}
        self._placements: Dict[Tuple, Tuple[Tuple[int, ...], ...]] = {}
        self.profile_hits = 0
        self.profile_misses = 0
        self.dup_hits = 0
        self.dup_misses = 0
        self.density_hits = 0
        self.density_misses = 0
        self.segment_hits = 0
        self.segment_misses = 0
        self.placement_hits = 0
        self.placement_misses = 0

    # -- per-op profiles ----------------------------------------------

    def get_profiles(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """Cached ``{node name: OpProfile}`` for ``key``, or ``None``.

        Profiles are frozen dataclasses, so the cached dict is returned
        as a shallow copy — entries are shared, the container is not.
        """
        hit = self._profiles.get(key)
        if hit is None:
            self.profile_misses += 1
            return None
        self.profile_hits += 1
        return dict(hit)

    def put_profiles(self, key: Tuple, profiles: Dict[str, Any]) -> None:
        """Store a profile dict under ``key``."""
        self._profiles[key] = dict(profiles)

    # -- duplication searches -----------------------------------------

    def get_dups(self, key: Tuple) -> Optional[Tuple[int, ...]]:
        """Cached duplication counts for one search key, one per
        operator position, or ``None``."""
        hit = self._dups.get(key)
        if hit is None:
            self.dup_misses += 1
            return None
        self.dup_hits += 1
        return hit

    def put_dups(self, key: Tuple, dups: Sequence[int]) -> None:
        """Store duplication counts (by operator position) under ``key``."""
        self._dups[key] = tuple(dups)

    # -- segment densities --------------------------------------------

    def get_density(self, key: Tuple) -> Optional[float]:
        """Cached segment density for one key, or ``None``."""
        hit = self._density.get(key)
        if hit is None:
            self.density_misses += 1
            return None
        self.density_hits += 1
        return hit

    def put_density(self, key: Tuple, density: float) -> None:
        """Store a segment density under ``key``."""
        self._density[key] = density

    # -- useful-duplication curves ------------------------------------

    def get_useful_dups(self, key: Tuple) -> Optional[List[int]]:
        """Cached useful-duplication levels for one (profile, budget)."""
        hit = self._useful.get(key)
        return None if hit is None else list(hit)

    def put_useful_dups(self, key: Tuple, dups: List[int]) -> None:
        """Store a useful-duplication curve under ``key``."""
        self._useful[key] = list(dups)

    # -- graph segmentations ------------------------------------------

    def get_segments(self, key: Tuple) -> Optional[List[List[str]]]:
        """Cached segmentation (lists of node names), or ``None``."""
        hit = self._segments.get(key)
        if hit is None:
            self.segment_misses += 1
            return None
        self.segment_hits += 1
        return [list(seg) for seg in hit]

    def put_segments(self, key: Tuple, segments: List[List[str]]) -> None:
        """Store a segmentation under ``key``."""
        self._segments[key] = [list(seg) for seg in segments]

    # -- greedy placements --------------------------------------------

    def get_placement(self, key: Tuple
                      ) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Cached core tuples by operator position, or ``None``."""
        hit = self._placements.get(key)
        if hit is None:
            self.placement_misses += 1
            return None
        self.placement_hits += 1
        return hit

    def put_placement(self, key: Tuple,
                      cores: Tuple[Tuple[int, ...], ...]) -> None:
        """Store a placement (core tuples by operator position)."""
        self._placements[key] = cores

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (for tests, logs, and ``repro bench``)."""
        return {
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "dup_hits": self.dup_hits,
            "dup_misses": self.dup_misses,
            "density_hits": self.density_hits,
            "density_misses": self.density_misses,
            "segment_hits": self.segment_hits,
            "segment_misses": self.segment_misses,
            "placement_hits": self.placement_hits,
            "placement_misses": self.placement_misses,
            "profiles_stored": len(self._profiles),
            "dups_stored": len(self._dups),
            "densities_stored": len(self._density),
            "segments_stored": len(self._segments),
            "placements_stored": len(self._placements),
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._profiles.clear()
        self._dups.clear()
        self._density.clear()
        self._useful.clear()
        self._segments.clear()
        self._placements.clear()
        self.profile_hits = self.profile_misses = 0
        self.dup_hits = self.dup_misses = 0
        self.density_hits = self.density_misses = 0
        self.segment_hits = self.segment_misses = 0
        self.placement_hits = self.placement_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"CompileCache(profiles={s['profiles_stored']}, "
                f"dups={s['dups_stored']}, "
                f"hits={s['profile_hits'] + s['dup_hits']})")


#: The process-wide compile cache, home of every implicit memo: the
#: searches, densities and placements of uncached compiles, and the
#: default cache of the explore runner and the serve planners.  The
#: reference seam (:func:`repro.perf.reference.installed`) binds
#: ``None`` here; :func:`repro.perf.bench.clear_process_caches` empties
#: it.
PROCESS_CACHE: Optional[CompileCache] = CompileCache()


def resolve(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """The caller's cache, else :data:`PROCESS_CACHE` (``None`` inside
    the reference seam), read at call time."""
    return PROCESS_CACHE if cache is None else cache
