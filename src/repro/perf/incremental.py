"""Recompilation across one-axis architecture mutations.

Sweeps, the serve water-filling partitioner, the fleet autoscaler, and
fault-degradation studies all recompile the *same graph* against a
family of closely related architectures — one axis (core count,
crossbar geometry, link bandwidth, power budget) moves while everything
else stays fixed.  The compile pipeline is pure: per-op profiles,
segmentations, and duplication searches are functions of
content-addressed keys (frozen profile dataclasses + budgets), so a
shared :class:`~repro.perf.cache.CompileCache` already reuses every
intermediate the mutation left unchanged.

:class:`IncrementalCompiler` is therefore
:class:`~repro.sched.compiler.CIMMLC` over one shared cache, behind a
``compile(graph, arch, options)`` call shape for callers that hold one
compiler across many architectures.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..arch import CIMArchitecture
from ..graph import Graph
from ..sched.compiler import CIMMLC, CompilationResult, CompilerOptions
from .cache import CompileCache


class IncrementalCompiler:
    """Compile graphs against mutating architectures over one cache.

    ``compile(graph, arch, options)`` is
    ``CIMMLC(arch, options, cache=self.cache).compile(graph)``; every
    reuse across the family shows in the cache's hit counters.

    :meth:`stats` keys:

    * ``full_compiles`` — :meth:`compile` calls (each runs the full
      pipeline over the shared cache);
    * ``exact_hits`` — results returned without compiling; always 0,
      since no result store is kept;
    * ``delta_compiles`` — compiles patched from a previous result;
      always 0, since reuse happens inside the cache;
    * ``spliced_segments`` — segments copied from a previous compile;
      always 0, for the same reason;
    * ``cache_<counter>`` — the attached cache's
      :meth:`~repro.perf.cache.CompileCache.stats`.
    """

    def __init__(self, cache: Optional[CompileCache] = None) -> None:
        self.cache = cache if cache is not None else CompileCache()
        self.full_compiles = 0

    def compile(self, graph: Graph, arch: CIMArchitecture,
                options: Optional[CompilerOptions] = None
                ) -> CompilationResult:
        """Compile ``graph`` for ``arch`` through the shared cache."""
        self.full_compiles += 1
        return CIMMLC(arch, options, cache=self.cache).compile(graph)

    def stats(self) -> Dict[str, int]:
        """Compile counters plus the attached cache's statistics."""
        stats = {
            "exact_hits": 0,
            "full_compiles": self.full_compiles,
            "delta_compiles": 0,
            "spliced_segments": 0,
        }
        for key, value in self.cache.stats().items():
            stats[f"cache_{key}"] = value
        return stats
