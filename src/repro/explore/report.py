"""Sweep-result export: CSV, JSON, and the experiment-table format.

Keeps the new engine interoperable with the existing paper-reproduction
tables: :func:`speedup_result` renders a sweep into the exact
:class:`~repro.experiments.common.ExperimentResult` rows the Fig. 22
drivers produced before the refactor (``"<label> <series>"`` rows of
baseline-relative speedups), while :func:`to_csv` / :func:`to_json` serve
machine consumption (plots, dashboards, regression baselines).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence

from .pareto import DEFAULT_OBJECTIVES, pareto_frontier
from .runner import PointResult, SweepResult

#: Summary keys exported as CSV columns / JSON metric fields.
METRIC_KEYS = (
    "total_cycles", "compute_cycles", "reconfiguration_cycles",
    "noc_cycles", "steady_state_interval", "weight_load_cycles",
    "peak_power", "avg_power", "peak_active_crossbars",
    "energy_total", "energy_per_inference", "area_crossbars",
    "cores_used",
)


def rows(sweep: SweepResult) -> List[Dict]:
    """Flat per-point records (one dict per point, JSON-able)."""
    out = []
    for r in sweep:
        record: Dict = {
            "label": r.label,
            "series": r.series,
            "arch": r.point.arch.name,
            "model": r.point.graph.name,
            "levels": "+".join(r.summary["schedule_levels"]),
            "cached": r.cached,
        }
        for key in METRIC_KEYS:
            record[key] = r.summary.get(key)
        out.append(record)
    return out


def _annotate(records: List[Dict], sweep: SweepResult, pareto: bool,
              objectives: Sequence[str],
              power_budget: Optional[float]) -> None:
    """Add the ``within_power_budget`` / ``pareto`` columns in place.

    With a power budget the frontier is extracted over the feasible
    points only (an infeasible point can never be marked ``pareto``).
    A zero, negative or non-finite budget raises
    :class:`~repro.errors.ScheduleError`: no point could be feasible.
    """
    points = list(sweep)
    if power_budget is not None:
        from ..serve.workload import _require_positive

        _require_positive("power budget", power_budget)
        for record, r in zip(records, points):
            record["within_power_budget"] = r.peak_power <= power_budget
        points = [r for r in points if r.peak_power <= power_budget]
    if pareto:
        frontier = {id(r) for r in pareto_frontier(points, objectives)}
        for record, r in zip(records, sweep):
            record["pareto"] = id(r) in frontier


def to_csv(sweep: SweepResult, pareto: bool = False,
           objectives: Sequence[str] = DEFAULT_OBJECTIVES,
           power_budget: Optional[float] = None) -> str:
    """Render the sweep as CSV text (header + one row per point).

    With ``pareto=True`` a boolean ``pareto`` column marks membership in
    the non-dominated frontier under ``objectives``; with a
    ``power_budget`` each row gains ``within_power_budget`` and the
    frontier is restricted to feasible points.
    """
    records = rows(sweep)
    _annotate(records, sweep, pareto, objectives, power_budget)
    fieldnames = list(records[0]) if records else \
        ["label", "series", "arch", "model", "levels", "cached",
         *METRIC_KEYS]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def to_json(sweep: SweepResult, pareto: bool = False,
            objectives: Sequence[str] = DEFAULT_OBJECTIVES,
            indent: Optional[int] = 1,
            power_budget: Optional[float] = None) -> str:
    """Render the sweep as a JSON document with cache statistics.

    With ``pareto=True`` each point gains a ``"pareto"`` flag marking
    membership in the non-dominated frontier under ``objectives``; with
    a ``power_budget`` each point gains ``within_power_budget`` and the
    frontier is restricted to feasible points.
    """
    records = rows(sweep)
    _annotate(records, sweep, pareto, objectives, power_budget)
    doc = {
        "points": records,
        "cache": {"hits": sweep.cache_hits, "misses": sweep.cache_misses,
                  "all_cached": sweep.all_cached},
    }
    return json.dumps(doc, indent=indent)


def speedup_result(sweep: SweepResult, experiment_id: str,
                   description: str,
                   baseline_series: str = "baseline") -> "ExperimentResult":
    """The pre-refactor Fig. 22 table: per-label speedups over the
    baseline series, one row per ``"<label> <series>"`` in sweep order."""
    # Imported lazily: repro.experiments drivers import this package.
    from ..experiments.common import ExperimentResult

    result = ExperimentResult(experiment_id, description)
    for label, series_speedups in sweep.speedups(baseline_series).items():
        for series, speedup in series_speedups.items():
            result.add(f"{label} {series}", speedup)
    return result


def metric_result(sweep: SweepResult, experiment_id: str, description: str,
                  metric: str = "total_cycles",
                  unit: str = "") -> "ExperimentResult":
    """A raw-metric table (no baseline normalization)."""
    from ..experiments.common import ExperimentResult

    result = ExperimentResult(experiment_id, description)
    for r in sweep:
        result.add(f"{r.label} {r.series}", r.summary[metric], unit=unit)
    return result
