"""Pareto analysis and bottleneck attribution over sweep results.

Two analyses an architect runs after a design-space sweep:

* :func:`pareto_frontier` — which design points are non-dominated under a
  chosen set of objectives (default: latency vs. peak power, both
  minimized)?  Objectives are summary keys or their friendly aliases
  (:data:`OBJECTIVE_ALIASES`: ``latency`` / ``energy`` / ``power`` /
  ``area`` …); :data:`ENERGY_OBJECTIVES` is the three-way
  latency x energy x area frontier of an energy-aware study.
* :func:`attribute_bottleneck` — *why* is a point slow: weight
  reconfiguration between segments, crossbar compute waves, or NoC/buffer
  traffic?  Shares are derived from the performance summary's
  ``compute_cycles`` / ``reconfiguration_cycles`` / ``noc_cycles`` split and
  the per-:class:`~repro.sim.performance.SegmentTiming` bottleneck records.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import ArchitectureError
from .runner import PointResult, SweepResult

#: Default objectives: minimize single-inference latency and peak power.
DEFAULT_OBJECTIVES = ("total_cycles", "peak_power")

#: The energy study's default: minimize latency, per-inference energy,
#: and resident crossbar area together (``repro sweep --objectives
#: latency,energy_per_inference,area``).
ENERGY_OBJECTIVES = ("total_cycles", "energy_per_inference",
                     "area_crossbars")

#: Friendly objective spellings -> summary keys (all minimized).
OBJECTIVE_ALIASES = {
    "latency": "total_cycles",
    "cycles": "total_cycles",
    "interval": "steady_state_interval",
    "energy": "energy_total",
    "power": "peak_power",
    "area": "area_crossbars",
    "cores": "cores_used",
}


def resolve_objectives(objectives: Sequence[str]) -> Tuple[str, ...]:
    """Canonical summary keys for ``objectives`` (alias-resolved).

    Unknown names pass through — any scalar summary key is a legal
    objective — but an empty list is rejected eagerly.
    """
    if not objectives:
        raise ArchitectureError("at least one Pareto objective is required")
    return tuple(OBJECTIVE_ALIASES.get(o, o) for o in objectives)


def _objective_vector(result: PointResult,
                      objectives: Sequence[str]) -> Tuple[float, ...]:
    try:
        return tuple(float(result.summary[obj]) for obj in objectives)
    except (KeyError, TypeError):
        scalars = sorted(key for key, value in result.summary.items()
                         if isinstance(value, (int, float)))
        bad = next(obj for obj in objectives if obj not in scalars)
        raise ArchitectureError(
            f"unknown Pareto objective {bad!r}; choose a scalar summary "
            f"key {scalars} or an alias {sorted(OBJECTIVE_ALIASES)}"
        ) from None


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly
    better somewhere (all objectives minimized)."""
    return all(x <= y for x, y in zip(a, b)) and \
        any(x < y for x, y in zip(a, b))


def pareto_frontier(results: Sequence[PointResult],
                    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                    ) -> List[PointResult]:
    """The non-dominated subset of ``results``, in input order.

    ``objectives`` are summary keys or :data:`OBJECTIVE_ALIASES`
    spellings, all minimized; negate upstream (or add a derived key) for
    maximization.  Duplicated objective vectors are all kept — they
    dominate each other in neither direction.
    """
    objectives = resolve_objectives(objectives)
    vectors = [_objective_vector(r, objectives) for r in results]
    frontier = []
    for i, r in enumerate(results):
        if not any(dominates(vectors[j], vectors[i])
                   for j in range(len(results)) if j != i):
            frontier.append(r)
    return frontier


def frontier_labels(sweep: SweepResult,
                    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                    ) -> List[str]:
    """Labels of Pareto-optimal points of a whole sweep result."""
    return [f"{r.label}/{r.series}"
            for r in pareto_frontier(list(sweep), objectives)]


def attribute_bottleneck(summary: Dict) -> Dict:
    """Attribute one point's latency to its architectural causes.

    Returns shares over ``total_cycles`` for ``reconfiguration`` (segment
    weight rewrites — the serial stall), ``compute`` (crossbar activation
    waves), and ``noc`` (data movement; overlapped with compute in the
    latency model, so its share reports how much of the compute window the
    interconnect is busy, not an additive term), plus the dominant cause
    and the most frequent per-segment bottleneck operator.

    The share/dominance arithmetic lives in
    :func:`repro.trace.share_attribution` (the trace layer generalizes
    it to the full category set — link, queue — over recorded spans);
    this function keeps the summary-dict interface and the per-segment
    bottleneck-operator census.
    """
    from ..trace.analysis import share_attribution

    compute = summary["compute_cycles"]
    magnitudes = {"compute": compute,
                  "reconfiguration": summary["reconfiguration_cycles"],
                  "noc": summary.get("noc_cycles", 0.0)}
    attributed = share_attribution(magnitudes, summary["total_cycles"],
                                   caps={"noc": compute})
    shares = attributed["shares"]
    counts: Dict[str, int] = {}
    for seg in summary.get("segments", ()):
        counts[seg["bottleneck"]] = counts.get(seg["bottleneck"], 0) + 1
    return {
        "shares": {"reconfiguration": shares["reconfiguration"],
                   "compute": shares["compute"],
                   "noc": shares["noc"]},
        "dominant": attributed["dominant"],
        "bottleneck_ops": sorted(counts, key=counts.get, reverse=True),
        "segments": len(summary.get("segments", ())),
    }


def attribute_sweep(sweep: SweepResult) -> Dict[str, Dict]:
    """:func:`attribute_bottleneck` for every point, keyed
    ``"label/series"``."""
    return {f"{r.label}/{r.series}": attribute_bottleneck(r.summary)
            for r in sweep}
