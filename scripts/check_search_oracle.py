#!/usr/bin/env python
"""Nightly check: the memoized compile kernels match their scalar
oracles.

Compiles every zoo model on every preset, on ``isaac-baseline``
resized to each of ``CORES``, and on ``isaac-baseline`` with a
zero-cost mesh NoC (free like the preset's ``ideal`` one, without being
``ideal``), and checks four things:

* every call of the cached ``sched.cg.duplicate_min_bottleneck`` — memo
  hits as well as misses — against
  :func:`repro.perf.reference.duplicate_min_bottleneck`: production
  answers from a name-free memo or finds the bisection's feasibility
  boundary with ``BottleneckSearch.first_feasible``; the oracle runs the
  60 steps with a scalar cost loop.  Both must return equal duplication
  dicts, or raise ``CapacityError`` with equal messages;
* each (architecture, graph) pair's ``CostModel.profiles`` — graph
  facts derived once per graph, then priced — against the same call
  inside :func:`repro.perf.reference.installed`, which derives every
  node's profile from the graph again; names and every field must be
  equal;
* each compile's segmentation, per-operator decisions and performance
  report against the same compile inside the seam (scalar kernels,
  pre-split profiles, no process memos, and the simulator's scalar
  per-segment loop in place of its one pass per schedule), which also
  covers the segment densities whose memo hits skip the search.  Inside the seam this
  script serves the scalar ``NocSpec.average_cost`` oracle from an
  ``lru_cache`` on ``(spec, n)``: unmemoized, its double loop over core
  pairs runs once per operator and takes minutes per model at 2048
  cores.  The seam puts the production method back on exit, and
  ``repro bench`` keeps timing the unmemoized oracle;
* each segment's ``place_greedy``, unanchored and with the I/O anchor
  at core 0 (the shard path's link port), against
  :func:`repro.perf.reference.place_greedy` inside the seam, where the
  CIM-to-CIM edges come from the per-segment walk
  :func:`repro.perf.reference.edges` instead of the per-graph paths and
  every core is scored even on a free NoC, where production skips the
  scoring.

Exits non-zero naming the first mismatch.  Takes about 80 s on a
2-vCPU host, half of it in the oracle's anchored placements.

Usage: ``PYTHONPATH=src python scripts/check_search_oracle.py``
"""

import dataclasses
import functools
import sys
import time

from repro.arch import PRESETS, isaac_baseline, mesh
from repro.arch.noc import NocSpec
from repro.errors import CapacityError
from repro.models import MODEL_ZOO
from repro.perf import reference
from repro.scale.shard import LINK_PORT_CORE
from repro.sched import CIMMLC, cg
from repro.sched.costs import CostModel, OpProfile
from repro.sched.placement import place_greedy

CORES = (8, 16, 64, 256, 512, 768, 1024, 2048)

#: ``place_greedy`` keyword sets each segment is placed with.
PLACEMENTS = ({}, {"io_anchor": LINK_PORT_CORE})

#: The scalar NoC oracle, memoized for this script's reference compiles.
memoized_average_cost = functools.lru_cache(maxsize=None)(
    reference.average_cost)


class Mismatch(Exception):
    """A production outcome that differs from its oracle's."""


def outcome(fn, *args):
    """``fn(*args)``, or the CapacityError it raised."""
    try:
        return fn(*args)
    except CapacityError as exc:
        return exc


def describe(result):
    """A search outcome as comparable, printable text."""
    if isinstance(result, CapacityError):
        return f"CapacityError: {result}"
    return repr(result)


def compiled(result):
    """A compile outcome as comparable parts: segmentation, decisions
    and report (or the CapacityError text)."""
    if isinstance(result, CapacityError):
        return {"error": describe(result)}
    schedule = result.schedule
    decisions = {
        name: (d.segment, d.dup_cg, d.dup_mvm, d.wave_reduction,
               d.mvm_pipelined, d.window_waves)
        for name, d in schedule.decisions.items()}
    return {"segments": schedule.segments, "decisions": decisions,
            "report": result.report}


def named(profiles):
    """A profile dict as comparable parts: node name, profile name and
    every field (``OpProfile`` equality ignores the name)."""
    return [(key, p.name, [getattr(p, f.name)
                           for f in dataclasses.fields(OpProfile)])
            for key, p in profiles.items()]


def archs():
    """``(label, architecture)`` per compile target."""
    for preset, arch_fn in PRESETS.items():
        yield preset, arch_fn()
    for cores in CORES:
        yield f"isaac-baseline x {cores} cores", \
            isaac_baseline().with_cores(cores)
    base = isaac_baseline()
    yield "isaac-baseline, mesh(0.0) NoC", dataclasses.replace(
        base, chip=dataclasses.replace(base.chip, core_noc=mesh(0.0)))


def main() -> int:
    start = time.perf_counter()
    production = cg.duplicate_min_bottleneck
    searches = profiled = compiles = placements = 0

    def checked(profiles, budget, cache=None):
        nonlocal searches
        searches += 1
        fast = outcome(production, profiles, budget, cache)
        oracle = outcome(reference.duplicate_min_bottleneck, profiles,
                         budget)
        if describe(fast) != describe(oracle):
            raise Mismatch(f"{len(profiles)} operators, budget {budget}:\n"
                           f"  production: {describe(fast)}\n"
                           f"  oracle:     {describe(oracle)}")
        if isinstance(fast, CapacityError):
            raise fast
        return fast

    for label, arch in archs():
        for model, factory in MODEL_ZOO.items():
            graph = factory()
            cg.duplicate_min_bottleneck = checked
            try:
                fast = outcome(CIMMLC(arch).compile, graph)
            except Mismatch as exc:
                print(f"MISMATCH {model} on {label}, {exc}")
                return 1
            finally:
                cg.duplicate_min_bottleneck = production
            profiles = named(CostModel(arch).profiles(graph))
            schedule = None if isinstance(fast, CapacityError) \
                else fast.schedule
            cases = [(seg, kwargs) for seg in range(len(schedule.segments))
                     for kwargs in PLACEMENTS] if schedule else []
            placed = [place_greedy(schedule, seg, **kwargs)
                      for seg, kwargs in cases]
            with reference.installed():
                NocSpec.average_cost = memoized_average_cost
                oracle = outcome(CIMMLC(arch).compile, factory())
                oracle_profiles = named(CostModel(arch).profiles(graph))
                oracle_placed = [reference.place_greedy(schedule, seg,
                                                        **kwargs)
                                 for seg, kwargs in cases]
            profiled += 1
            if profiles != oracle_profiles:
                print(f"MISMATCH {model} on {label}: profiles differ "
                      f"from the pre-split derivation")
                return 1
            compiles += 1
            parts, oracle_parts = compiled(fast), compiled(oracle)
            for part, value in parts.items():
                if value != oracle_parts.get(part):
                    print(f"MISMATCH {model} on {label}: {part} "
                          f"differs from the reference compile")
                    return 1
            for (seg, kwargs), fast_seg, oracle_seg in zip(
                    cases, placed, oracle_placed):
                placements += 1
                if fast_seg != oracle_seg:
                    print(f"MISMATCH {model} on {label}: placement of "
                          f"segment {seg} {kwargs}")
                    return 1
    print(f"search oracle check passed: {searches} searches, {profiled} "
          f"profile dicts, {compiles} compiles and {placements} "
          f"placements identical ({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
