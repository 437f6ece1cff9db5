#!/usr/bin/env python
"""Nightly check: the min-bottleneck duplication search matches its
scalar oracle.

Compiles every zoo model on every preset, and on ``isaac-baseline``
resized to each of ``CORES``, with every uncached
``sched.cg._duplicate_min_bottleneck`` call checked against
:func:`repro.perf.reference.duplicate_min_bottleneck`: production
finds the bisection's feasibility boundary with
``BottleneckSearch.first_feasible`` and replays the 60 steps on it; the
oracle runs the 60 steps with a scalar cost loop.  Both must return
equal duplication dicts, or raise ``CapacityError`` with equal
messages.  Exits non-zero naming the first mismatch.  Takes about 20
seconds on a 2-vCPU host.

Usage: ``PYTHONPATH=src python scripts/check_search_oracle.py``
"""

import sys
import time

from repro.arch import PRESETS, isaac_baseline
from repro.errors import CapacityError
from repro.models import MODEL_ZOO
from repro.perf import reference
from repro.sched import CIMMLC, cg

CORES = (8, 16, 64, 256, 512, 768, 1024, 2048)


class Mismatch(Exception):
    """A search whose production and oracle outcomes differ."""


def outcome(search, profiles, budget):
    """The search's duplication dict, or the CapacityError it raised."""
    try:
        return search(profiles, budget)
    except CapacityError as exc:
        return exc


def describe(result):
    """A search outcome as comparable, printable text."""
    if isinstance(result, CapacityError):
        return f"CapacityError: {result}"
    return repr(result)


def archs():
    """``(label, architecture)`` per compile target."""
    for preset, arch_fn in PRESETS.items():
        yield preset, arch_fn()
    for cores in CORES:
        yield f"isaac-baseline x {cores} cores", \
            isaac_baseline().with_cores(cores)


def main() -> int:
    start = time.perf_counter()
    production = cg._duplicate_min_bottleneck
    count = 0

    def checked(profiles, budget):
        nonlocal count
        count += 1
        fast = outcome(production, profiles, budget)
        oracle = outcome(reference.duplicate_min_bottleneck, profiles,
                         budget)
        if describe(fast) != describe(oracle):
            raise Mismatch(f"{len(profiles)} operators, budget {budget}:\n"
                           f"  production: {describe(fast)}\n"
                           f"  oracle:     {describe(oracle)}")
        if isinstance(fast, CapacityError):
            raise fast
        return fast

    cg._duplicate_min_bottleneck = checked
    try:
        for label, arch in archs():
            for model, factory in MODEL_ZOO.items():
                try:
                    CIMMLC(arch).compile(factory())
                except CapacityError:
                    pass
                except Mismatch as exc:
                    print(f"MISMATCH {model} on {label}, {exc}")
                    return 1
    finally:
        cg._duplicate_min_bottleneck = production
    print(f"search oracle check passed: {count} searches identical "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
