#!/usr/bin/env python
"""Nightly check: the multi-chip partitioner matches its scalar oracle.

Runs :func:`repro.scale.partition_layers` twice per case — in
production, where :func:`repro.perf.kernels.interval_table` fills the
stage-interval table, and inside :func:`repro.perf.reference.installed`,
where the scalar bisection fills it for every fitting stage — over:

* every zoo model x every preset x 1-5 chips;
* degraded ``chip_archs`` runs (per-chip fault masks on
  ``isaac-baseline``) for resnet18, mobilenet, resnet50 and vit-tiny,
  the models hostbench's ``shard_pipeline`` shards.

Both runs must return equal stages, or raise ``CapacityError`` with
equal messages.  On the uniform path both read their profiles from one
warm ``CompileCache`` (inside the seam the scalar NoC oracle would
rebuild them on every call); degraded runs build their own.  Exits
non-zero naming the first mismatch.  Takes about 2 minutes on a 2-vCPU
host, nearly all of it in the scalar oracle.

Usage: ``PYTHONPATH=src python scripts/check_partition_oracle.py``
"""

import sys
import time

from repro.arch import PRESETS, isaac_baseline
from repro.errors import CapacityError
from repro.faults import FaultModel
from repro.models import MODEL_ZOO
from repro.perf import CompileCache, reference
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


def outcome(graph, chips, arch, cost_model, chip_archs):
    """Stages of one partition, or the message of its CapacityError."""
    try:
        return partition_layers(graph, chips, arch, cost_model=cost_model,
                                chip_archs=chip_archs)
    except CapacityError as exc:
        return f"CapacityError: {exc}"


def cases():
    """``(label, graph, chips, arch, cost_model, chip_archs)`` per case."""
    for model, factory in MODEL_ZOO.items():
        graph = factory()
        for preset, arch_fn in PRESETS.items():
            arch = arch_fn()
            cost_model = CostModel(arch, cache=CompileCache())
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
    count = 0
    for label, *case in cases():
        fast = outcome(*case)
        with reference.installed():
            oracle = outcome(*case)
        count += 1
        if fast != oracle:
            print(f"MISMATCH {label}:\n  production: {fast}\n"
                  f"  oracle:     {oracle}")
            return 1
    print(f"partition oracle check passed: {count} cases identical "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
