"""Performance layer: compile cache, numpy kernels, bench harness.

The hot compile→simulate path is accelerated by three pieces (see
``docs/PERFORMANCE.md``):

* :mod:`repro.perf.cache` — :class:`CompileCache`, the in-process
  content-addressed memo for per-op profiles, duplication searches,
  graph segmentations and greedy placements, shared across sweep
  points / serve tenants / shard stages, and ``PROCESS_CACHE``, the one
  process-wide instance used when a caller passes no cache;
* :mod:`repro.perf.kernels` — vectorized (numpy) forms of the
  per-operator scheduler and simulator loops;
* :mod:`repro.perf.incremental` — :class:`IncrementalCompiler`, one
  compiler over a shared cache for one-axis architecture families.

:mod:`repro.perf.bench` adds the ``repro bench`` harness, which times
each workload against the scalar oracle in :mod:`repro.perf.reference`
and refuses to report when the two disagree.
"""

from .cache import CompileCache

__all__ = [
    "CompileCache",
    "IncrementalCompiler",
]


def __getattr__(name: str):
    """Lazy :class:`IncrementalCompiler` export.

    :mod:`repro.perf.incremental` imports the scheduler, which imports
    this package — importing it eagerly here would make the cycle
    unresolvable for whichever side loads first.
    """
    if name == "IncrementalCompiler":
        from .incremental import IncrementalCompiler

        return IncrementalCompiler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
