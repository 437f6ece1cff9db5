#!/usr/bin/env python
"""Nightly check: a million-request fleet run stays under a memory
ceiling and reproduces its pinned report digest.

Runs ``python -m repro fleet --requests 1000000 --replicas 8`` (the
CLI-default diurnal-bursty trace on isaac-flash) in a child process and
prints its wall time, its peak resident set size (the child's
``ru_maxrss``) and its report digest.  Exits non-zero when the run
fails, its peak exceeds :data:`CEILING_MIB`, or its digest differs from
:data:`DIGEST`.  The digest covers the trace generator and the event
loop at a scale no tier-1 test reaches: a thinning step or an event
order that changes one arrival or one latency changes it.

The trace generators walk their random stream in fixed buffers and the
engines keep one latency float per completed request, so the peak is
the trace list itself (~150 MiB) plus the per-request latencies and
the compiled plans: ~300 MiB on Python 3.11 (Linux).  A generator that
materializes a multiple of the trace length at once, or a per-request
record kept until the report, lifts it to 550 MiB or more.  The run
takes about 12 s on a 2-vCPU host.

Usage: ``PYTHONPATH=src python scripts/check_fleet_memory.py``
"""

import os
import re
import resource
import subprocess
import sys
import time

#: Peak resident set size the run may reach, in MiB.
CEILING_MIB = 350.0

#: The run's report digest as the CLI prints it (first 16 hex digits).
DIGEST = "7a1ace871a8d90fb"

ARGV = ["-m", "repro", "fleet", "--requests", "1000000", "--replicas", "8"]


def main() -> int:
    """Run the fleet child, report its cost, and gate its peak."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *ARGV], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    # The only child this process waits for, so the children's maximum
    # is its peak (in KiB on Linux).
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    found = re.search(r"report digest: (\w+)", proc.stdout)
    digest = found.group(1) if found else "(none)"
    print(f"repro fleet {' '.join(ARGV[3:])}: wall {wall:.1f} s, "
          f"peak RSS {peak_mib:.0f} MiB (ceiling {CEILING_MIB:.0f}), "
          f"report digest {digest}")
    if proc.returncode != 0:
        print(f"FAIL: exit status {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    if peak_mib > CEILING_MIB:
        print(f"FAIL: peak RSS {peak_mib:.0f} MiB exceeds the "
              f"{CEILING_MIB:.0f} MiB ceiling", file=sys.stderr)
        return 1
    if digest != DIGEST:
        print(f"FAIL: report digest {digest}, expected {DIGEST}",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
