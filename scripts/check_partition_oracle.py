#!/usr/bin/env python
"""Nightly check: the multi-chip partitioner matches its scalar oracle.

Two comparisons, both against :mod:`repro.perf.reference`:

* **tables** — for every zoo model x every preset, the whole
  stage-interval table that :func:`repro.perf.kernels.interval_table`
  fills (``scale.partition._interval_matrix``, no ``need`` mask) must
  equal ``reference.interval_matrix``, the scalar bisection, entry by
  entry, ``inf`` included.  Equal partitions alone could hide a wrong
  entry the DP never picked;
* **partitions** — :func:`repro.scale.partition_layers` runs twice per
  case, in production (the interval kernel and the array DP) and
  inside :func:`repro.perf.reference.installed` (the scalar bisection
  and the scalar DP loop), over every zoo model x every preset x 1-5
  chips, plus degraded ``chip_archs`` runs (per-chip fault masks on
  ``isaac-baseline``) for resnet18, mobilenet, resnet50 and vit-tiny,
  the models hostbench's ``shard_pipeline`` shards.  Both runs must
  return equal stages, or raise ``CapacityError`` with equal messages.

On the uniform path both sides read their profiles from one warm
``CompileCache`` per model x preset (inside the seam the scalar NoC
oracle would rebuild them on every call); degraded runs build their
own.  Exits non-zero naming the first mismatch: the table entry
``interval[j, i]`` with both values, or the partition case with both
outcomes.  Takes about 3 minutes on a 2-vCPU host, nearly all of it
in the scalar oracle.

Usage: ``PYTHONPATH=src python scripts/check_partition_oracle.py``
"""

import sys
import time

from repro.arch import PRESETS, isaac_baseline
from repro.errors import CapacityError
from repro.faults import FaultModel
from repro.models import MODEL_ZOO
from repro.perf import CompileCache, reference
from repro.scale import partition as scale_partition
from repro.scale import partition_layers
from repro.sched.costs import CostModel

CHIPS = (1, 2, 3, 4, 5)

SHARD_MODELS = ("resnet18", "mobilenet", "resnet50", "vit-tiny")

#: ``(chips, {chip: fault})`` layouts of the degraded runs: one chip at
#: half its cores; one chip short of cores and crossbars; two chips
#: sharing one degraded shape (and so one interval table).
DEGRADED = (
    (2, {0: FaultModel(dead_cores=tuple(range(0, 768, 2)))}),
    (3, {1: FaultModel(dead_cores=tuple(range(192)),
                       dead_crossbars=((300, 0), (300, 1)))}),
    (4, {0: FaultModel(dead_cores=tuple(range(384))),
         3: FaultModel(dead_cores=tuple(range(384, 768)))}),
)


def table_mismatch(graph, arch, cost_model):
    """The first entry where production's full interval table differs
    from the scalar oracle's, described, or ``None``."""
    profiles = cost_model.profiles(graph)
    ops = [profiles[node.name] for node in graph.topological()]
    fast = scale_partition._interval_matrix(ops, arch).tolist()
    oracle = reference.interval_matrix(ops, arch)
    for j, (row, want) in enumerate(zip(fast, oracle)):
        for i, (got, expected) in enumerate(zip(row, want)):
            if got != expected:
                stage = (f"ops {ops[j].name!r}..{ops[i - 1].name!r}"
                         if i > j else "empty stage")
                return (f"interval[{j}, {i}] ({stage}): production "
                        f"{got!r}, oracle {expected!r}")
    return None


def outcome(graph, chips, arch, cost_model, chip_archs):
    """Stages of one partition, or the message of its CapacityError."""
    try:
        return partition_layers(graph, chips, arch, cost_model=cost_model,
                                chip_archs=chip_archs)
    except CapacityError as exc:
        return f"CapacityError: {exc}"


def partition_mismatch(*case):
    """Both outcomes of one partition case when they differ, else
    ``None``."""
    fast = outcome(*case)
    with reference.installed():
        oracle = outcome(*case)
    if fast == oracle:
        return None
    return f"production: {fast}\n  oracle:     {oracle}"


def cases():
    """``(label, graph, chips, arch, cost_model, chip_archs)`` per
    partition case; ``chips`` is ``None`` for a model x preset's table
    check, which precedes its partitions."""
    for model, factory in MODEL_ZOO.items():
        graph = factory()
        for preset, arch_fn in PRESETS.items():
            arch = arch_fn()
            cost_model = CostModel(arch, cache=CompileCache())
            yield (f"{model} on {preset}, interval table", graph, None,
                   arch, cost_model, None)
            for chips in CHIPS:
                yield (f"{model} on {chips} x {preset}", graph, chips,
                       arch, cost_model, None)
    die = isaac_baseline()
    for model in SHARD_MODELS:
        for chips, faults in DEGRADED:
            archs = [faults[k].degrade_arch(die) if k in faults else die
                     for k in range(chips)]
            yield (f"{model} on {chips} degraded chips {sorted(faults)}",
                   MODEL_ZOO[model](), chips, die, None, archs)


def main() -> int:
    start = time.perf_counter()
    counts = {"tables": 0, "partitions": 0}
    for label, graph, chips, arch, cost_model, chip_archs in cases():
        if chips is None:
            counts["tables"] += 1
            diff = table_mismatch(graph, arch, cost_model)
        else:
            counts["partitions"] += 1
            diff = partition_mismatch(graph, chips, arch, cost_model,
                                      chip_archs)
        if diff is not None:
            print(f"MISMATCH {label}:\n  {diff}")
            return 1
    print(f"partition oracle check passed: {counts['tables']} interval "
          f"tables and {counts['partitions']} partitions identical "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
