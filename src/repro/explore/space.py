"""Declarative sweep spaces over (architecture, model, compiler options).

A :class:`SweepSpace` is an ordered list of :class:`SweepPoint` — one
compilation each.  Spaces are built either from a parameter *grid* (the
Fig. 22 sensitivity pattern: a base preset varied along named axes, crossed
with models and optimization levels) or from *explicit* points (the Table 1
generality pattern: a hand-picked set of architectures).

Points carry fully-resolved, picklable inputs so a
:class:`~repro.explore.runner.SweepRunner` can fan them out over worker
processes, and every point exposes a deterministic content fingerprint
(:meth:`SweepPoint.fingerprint`) that keys the on-disk result cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..arch import CIMArchitecture
from ..errors import ArchitectureError
from ..graph import Graph
from ..sched import CompilerOptions

# ----------------------------------------------------------------------
# Architecture variation axes
# ----------------------------------------------------------------------


def _vary_cores(arch: CIMArchitecture, value) -> CIMArchitecture:
    return arch.with_cores(int(value))


def _vary_xb_number(arch: CIMArchitecture, value) -> CIMArchitecture:
    return arch.with_xb_number(int(value))


def _vary_xb_size(arch: CIMArchitecture, value) -> CIMArchitecture:
    if isinstance(value, str):
        rows, _, cols = value.partition("x")
        value = (int(rows), int(cols))
    return arch.with_xb_size(tuple(int(v) for v in value))


def _vary_parallel_row(arch: CIMArchitecture, value) -> CIMArchitecture:
    return arch.with_parallel_row(None if value in (None, "none") else int(value))


#: Named variation axes a grid sweep can use (CLI ``--vary name=v1,v2``).
VARIATIONS: Dict[str, Callable[[CIMArchitecture, object], CIMArchitecture]] = {
    "cores": _vary_cores,
    "xbs": _vary_xb_number,
    "xb_size": _vary_xb_size,
    "parallel_row": _vary_parallel_row,
}

#: Accepted spellings for each axis.
VARIATION_ALIASES = {
    "core_number": "cores",
    "xb_number": "xbs",
    "crossbars": "xbs",
    "pr": "parallel_row",
}

#: Multi-chip sweep axes (``repro.scale``): these do not transform the
#: single-chip architecture but the :class:`SweepPoint` scale fields, so
#: :class:`SweepSpace.grid` routes them separately from :data:`VARIATIONS`.
SCALE_AXES = ("chips", "link_bw", "link_latency", "topology")

#: Accepted spellings for the scale axes.
SCALE_ALIASES = {
    "num_chips": "chips",
    "link_bandwidth": "link_bw",
}


def _scale_field(axis: str, value):
    """``(SweepPoint field, coerced value)`` for one scale-axis setting.

    Validates eagerly so a bad CLI value fails at grid construction
    with a clean error rather than a traceback mid-sweep.
    """
    if axis == "chips":
        chips = int(value)
        if chips < 1:
            raise ArchitectureError(f"chips must be >= 1, got {value}")
        return "chips", chips
    if axis == "link_bw":
        bw = float(value)
        if not (math.isfinite(bw) and bw > 0):
            raise ArchitectureError(
                f"link_bw must be finite and positive, got {value}")
        return "link_bandwidth", bw
    if axis == "link_latency":
        latency = float(value)
        if not (math.isfinite(latency) and latency >= 0):
            raise ArchitectureError(
                f"link_latency must be finite and >= 0, got {value}")
        return "link_latency", latency
    from ..arch import CHIP_TOPOLOGIES

    if value not in CHIP_TOPOLOGIES:
        raise ArchitectureError(
            f"unknown chip topology {value!r}; choose one of "
            f"{CHIP_TOPOLOGIES}")
    return "topology", str(value)


def resolve_variation(name: str) -> str:
    """Canonical axis name for ``name`` (raises on unknown axes).

    Resolves both single-chip architecture axes (:data:`VARIATIONS`) and
    multi-chip scale axes (:data:`SCALE_AXES`).
    """
    key = VARIATION_ALIASES.get(name, name)
    key = SCALE_ALIASES.get(key, key)
    if key not in VARIATIONS and key not in SCALE_AXES:
        raise ArchitectureError(
            f"unknown sweep axis {name!r}; choose one of "
            f"{sorted(VARIATIONS) + sorted(SCALE_AXES)} "
            f"(aliases {sorted(VARIATION_ALIASES) + sorted(SCALE_ALIASES)})")
    return key


def apply_variation(arch: CIMArchitecture, name: str, value) -> CIMArchitecture:
    """Return ``arch`` varied along axis ``name`` to ``value``."""
    return VARIATIONS[resolve_variation(name)](arch, value)


# ----------------------------------------------------------------------
# Optimization-level series
# ----------------------------------------------------------------------

#: ``series label -> CompilerOptions`` (None = the un-optimized baseline).
LEVEL_SERIES: Dict[str, Optional[CompilerOptions]] = {
    "baseline": None,
    "CG": CompilerOptions(max_level="CG"),
    "CG+MVM": CompilerOptions(max_level="MVM"),
    "CG+MVM+VVM": CompilerOptions(),
}

#: Alternate series spellings (CLI ``--levels``).
SERIES_ALIASES = {
    "MVM": "CG+MVM",
    "VVM": "CG+MVM+VVM",
    "CIM-MLC": "CG+MVM+VVM",
    "full": "CG+MVM+VVM",
}


def level_series(names: Sequence[str]) -> List[Tuple[str, Optional[CompilerOptions]]]:
    """Resolve series names to ``(label, options)`` pairs, keeping order."""
    out = []
    for name in names:
        key = SERIES_ALIASES.get(name, name)
        if key not in LEVEL_SERIES:
            raise ArchitectureError(
                f"unknown level series {name!r}; choose from "
                f"{sorted(LEVEL_SERIES)} (aliases {sorted(SERIES_ALIASES)})")
        out.append((key, LEVEL_SERIES[key]))
    return out


# ----------------------------------------------------------------------
# Points and spaces
# ----------------------------------------------------------------------


def graph_signature(graph: Graph) -> str:
    """Deterministic content hash of a graph (topology + shapes + bits).

    Delegates to :meth:`repro.graph.Graph.signature`, which caches the
    hash on the graph (invalidated on mutation) — the payload and
    therefore every historical fingerprint value are unchanged.
    """
    return graph.signature()


def _field_dict(value):
    """``json.dumps`` hook of :meth:`SweepPoint.fingerprint`.

    A dataclass instance encodes as its field dict — the blob
    ``dataclasses.asdict`` gives, without deep-copying every field —
    and anything else json cannot encode (an enum) as ``str()``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name)
                for f in dataclasses.fields(value)}
    return str(value)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One compilation: an architecture, a graph, and compiler options.

    ``label`` names the design point (e.g. ``"cores=512"``); ``series``
    names the measurement within the point (e.g. ``"CG+MVM"``).  ``options``
    of ``None`` requests the un-optimized :func:`~repro.sched.no_optimization`
    baseline.

    ``chips > 1`` turns the point into a multi-chip sharding evaluation
    (:func:`repro.scale.shard`): ``arch`` describes each die and the
    ``link_*`` / ``topology`` fields the
    :class:`~repro.arch.MultiChipSystem` (``None`` = the
    :class:`~repro.arch.ChipLink` defaults).
    """

    label: str
    series: str
    arch: CIMArchitecture
    graph: Graph
    options: Optional[CompilerOptions] = None
    chips: int = 1
    link_bandwidth: Optional[float] = None
    link_latency: Optional[float] = None
    topology: str = "ring"

    def system(self) -> "MultiChipSystem":  # noqa: F821 - lazy import
        """The :class:`~repro.arch.MultiChipSystem` this point describes
        (valid for any ``chips >= 1``)."""
        from ..arch import ChipLink, MultiChipSystem

        link = ChipLink()
        if self.link_bandwidth is not None:
            link = dataclasses.replace(link,
                                       bandwidth_bits=self.link_bandwidth)
        if self.link_latency is not None:
            link = dataclasses.replace(link,
                                       latency_cycles=self.link_latency)
        return MultiChipSystem(self.arch, self.chips, link=link,
                               topology=self.topology)

    def fingerprint(self) -> str:
        """Content hash keying the disk cache: architecture parameters +
        graph signature + compiler options + package version (so cached
        summaries never outlive a compiler/simulator release).  Multi-chip
        points additionally hash their scale fields; single-chip points
        keep the historical payload, so pre-scale caches stay valid."""
        from .. import __version__

        payload = {
            "repro_version": __version__,
            "arch": self.arch,
            "mode": self.arch.mode.value,
            "graph": graph_signature(self.graph),
            "options": self.options,
        }
        if self.chips > 1:
            payload["scale"] = {
                "chips": self.chips,
                "link_bandwidth": self.link_bandwidth,
                "link_latency": self.link_latency,
                "topology": self.topology,
            }
        blob = json.dumps(payload, sort_keys=True, default=_field_dict,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SweepPoint({self.label!r}, {self.series!r}, "
                f"{self.arch.name!r}, {self.graph.name!r})")


class SweepSpace:
    """An ordered collection of :class:`SweepPoint` to evaluate."""

    def __init__(self, points: Optional[Iterable[SweepPoint]] = None) -> None:
        self.points: List[SweepPoint] = list(points or [])

    # -- construction --------------------------------------------------

    def add(self, point: SweepPoint) -> "SweepPoint":
        """Append ``point`` and return it."""
        self.points.append(point)
        return point

    def add_point(self, label: str, arch: CIMArchitecture, graph: Graph,
                  series: str = "CIM-MLC",
                  options: Optional[CompilerOptions] = CompilerOptions(),
                  ) -> SweepPoint:
        """Append one explicit point."""
        return self.add(SweepPoint(label, series, arch, graph, options))

    @classmethod
    def explicit(cls, points: Iterable[SweepPoint]) -> "SweepSpace":
        """A space from pre-built points (Table 1 style)."""
        return cls(points)

    @classmethod
    def from_arch_points(
        cls,
        arch_points: Iterable[Tuple[str, CIMArchitecture]],
        graph: Graph,
        series: Sequence[Tuple[str, Optional[CompilerOptions]]] = (),
    ) -> "SweepSpace":
        """A space crossing labelled architectures with option series
        (the Fig. 22 pattern).  Default series: baseline + all levels."""
        series = list(series) or list(LEVEL_SERIES.items())
        space = cls()
        for label, arch in arch_points:
            for series_label, options in series:
                space.add(SweepPoint(label, series_label, arch, graph, options))
        return space

    @classmethod
    def grid(
        cls,
        base_arch: CIMArchitecture,
        graphs: Union[Graph, Sequence[Graph]],
        vary: Dict[str, Sequence],
        series: Sequence[Tuple[str, Optional[CompilerOptions]]] = (),
    ) -> "SweepSpace":
        """Cartesian product of variation axes x graphs x option series.

        ``vary`` maps axis names (:data:`VARIATIONS` plus the multi-chip
        :data:`SCALE_AXES`) to value lists; the point label joins
        ``axis=value`` terms in axis order.
        """
        if isinstance(graphs, Graph):
            graphs = [graphs]
        axes = [(resolve_variation(name), list(values))
                for name, values in vary.items()]
        scale_used = [name for name, _ in axes if name in SCALE_AXES]
        if any(a != "chips" for a in scale_used) \
                and "chips" not in scale_used:
            raise ArchitectureError(
                "link_bw/link_latency/topology axes only affect "
                "multi-chip points; add a chips axis too "
                "(e.g. --vary chips=2,4)")
        series = list(series) or list(LEVEL_SERIES.items())
        space = cls()
        for combo in itertools.product(*(values for _, values in axes)):
            arch = base_arch
            scale_fields: Dict[str, object] = {}
            terms = []
            for (name, _), value in zip(axes, combo):
                if name in SCALE_AXES:
                    field, coerced = _scale_field(name, value)
                    scale_fields[field] = coerced
                else:
                    arch = apply_variation(arch, name, value)
                terms.append(f"{name}={value}")
            label = " ".join(terms) or base_arch.name
            for graph in graphs:
                point_label = (f"{label} {graph.name}"
                               if len(graphs) > 1 else label)
                for series_label, options in series:
                    space.add(SweepPoint(point_label, series_label, arch,
                                         graph, options, **scale_fields))
        return space

    # -- queries -------------------------------------------------------

    def labels(self) -> List[str]:
        """Distinct point labels in first-seen order."""
        seen: List[str] = []
        for p in self.points:
            if p.label not in seen:
                seen.append(p.label)
        return seen

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepSpace({len(self.points)} points)"
