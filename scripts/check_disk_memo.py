#!/usr/bin/env python
"""CI check: the disk compile memo makes a second process fully warm.

Runs the same small sweep twice in *separate* subprocesses sharing one
``REPRO_COMPILE_CACHE_DIR`` (explore's own result cache disabled, so
every point actually compiles and exercises the compile memo):

* the cold run must populate the store (``disk_writes > 0``);
* the warm run must perform **zero fresh compiles** — every profile,
  duplication search, and segmentation served from disk
  (``profile_misses == dup_misses == segment_misses == 0``);
* both runs must produce byte-identical result digests.

Usage: ``python scripts/check_disk_memo.py`` (set ``PYTHONPATH=src`` or
install the package).  Exits non-zero with a diagnostic on any failure.
"""

import json
import os
import subprocess
import sys
import tempfile

#: The workload: a 3-point core-count sweep of one small model — big
#: enough to hit every memo family, small enough for a CI smoke step.
CHILD = r"""
import hashlib, json, sys
from repro.explore import SweepRunner, SweepSpace, level_series
from repro.explore.runner import _PROCESS_CACHE
from repro.arch.presets import functional_testbed
from repro.models import get_model

space = SweepSpace.grid(functional_testbed(), get_model("lenet"),
                        {"cores": ["24", "28", "32"]},
                        series=level_series(["CG", "MVM"]))
sweep = SweepRunner(cache_dir=None).run(space)
digest = hashlib.sha256(json.dumps(
    [(r.label, r.series, r.summary) for r in sweep],
    sort_keys=True).encode()).hexdigest()
json.dump({"digest": digest, "stats": _PROCESS_CACHE.stats()},
          sys.stdout)
"""


def run_child(cache_dir: str) -> dict:
    env = dict(os.environ,
               REPRO_DISK_CACHE="1",
               REPRO_COMPILE_CACHE_DIR=cache_dir)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    failures = []
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = run_child(cache_dir)
        warm = run_child(cache_dir)

    if cold["digest"] != warm["digest"]:
        failures.append(f"digest mismatch: cold {cold['digest'][:16]} "
                        f"vs warm {warm['digest'][:16]}")
    if cold["stats"]["disk_writes"] == 0:
        failures.append("cold run wrote nothing to the disk memo")
    for counter in ("profile_misses", "dup_misses", "segment_misses"):
        if warm["stats"][counter] != 0:
            failures.append(
                f"warm run recomputed: {counter} = "
                f"{warm['stats'][counter]} (expected 0)")
    if warm["stats"]["disk_hits"] == 0:
        failures.append("warm run never hit the disk memo")

    print(f"cold: {cold['stats']}")
    print(f"warm: {warm['stats']}")
    if failures:
        sys.exit("disk memo check FAILED:\n  " + "\n  ".join(failures))
    print("disk memo check passed: warm process performed zero fresh "
          "compiles, digests identical")


if __name__ == "__main__":
    main()
