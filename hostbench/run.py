"""Host-time benchmark of compile, sweep, fleet and shard runs.

Usage::

    python3 hostbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs each workload in fresh single processes, one at a time: a round is
one process that imports the program, sets up, runs the timed body and
checks its outputs.  Rounds repeat until ``--seconds`` have passed
(at least one); metrics are medians over rounds.  ``--trace 1`` runs
each round a second time with span recorders on the program's entry
points and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from hostbench import layers  # noqa: E402

WORKLOADS = {
    "zoo_compile": "cold batch compile and placement of the whole model "
                   "zoo on every preset",
    "arch_sweep": "Fig.-22-style sweep, cold into a fresh result cache and "
                  "again from disk",
    "fleet_diurnal": "DES-bound fleet near saturation: routing, admission, "
                     "autoscaling",
    "shard_pipeline": "multi-chip sharding (partition_layers) plus trace "
                      "record/replay/what-if",
}

#: Declared end-to-end metrics: (name, unit).  See README.md for what
#: each means on each workload.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("throughput", "1/s"),
    ("sim_cycles_geomean", "cycles"),
    ("sim_energy_geomean", "a.u."),
]

#: Environment variables that would let a user's caches or settings
#: into the numbers.
_SCRUB = ("REPRO_FASTPATH", "REPRO_DISK_CACHE", "REPRO_CACHE_DIR",
          "REPRO_COMPILE_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROUND_TIMEOUT_S = 170


def clean_env(work_dir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUB}
    env.update({k: "1" for k in _ONE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = work_dir
    return env


def run_one_round(workload: str, seed: int, index: int, size: str,
                  trace: bool, work_dir: str,
                  chrome: Optional[str]) -> Tuple[Optional[Dict], str]:
    """Run one round in a fresh process; ``(result, error text)``."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload,
           str(seed), str(index), "--size", size, "--work-dir", work_dir]
    if trace:
        cmd.append("--trace")
    if chrome:
        cmd += ["--chrome", chrome]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(work_dir),
                              capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"round {index} timed out after {ROUND_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"round {index} exited {proc.returncode}:\n"
                      + proc.stderr[-2000:])
    return json.loads(lines[-1]), ""


def quantile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    """Declared metrics: medians over rounds, quantiles over pooled ops."""
    op_ms = [ms for r in rounds for ms in r["op_ms"]]
    cycles = [c for r in rounds for c in r["cycles"]]
    energy = [e for r in rounds for e in r["energy"]]
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 0.9),
        "throughput": med("throughput"),
        "sim_cycles_geomean": geomean(cycles) if cycles else 0.0,
        "sim_energy_geomean": geomean(energy) if energy else 0.0,
    }


def design_metrics(workload: str, rounds: List[Dict],
                  e2e: Dict[str, float], attempted: int,
                  failed: int) -> List[Tuple[str, float, str, str]]:
    """The workload's metrics under the names the design uses."""
    n = sum(len(r["op_ms"]) for r in rounds)
    extra = lambda key: statistics.median(  # noqa: E731
        r["extra"][key] for r in rounds)
    rows = [("setup_s", e2e["setup_s"], "s", ""),
            ("wall_s", e2e["wall_s"], "s", ""),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", ""),
            ("error_rate", failed / attempted if attempted else 0.0,
             "failed/attempted", f"{failed}/{attempted}")]
    if workload == "zoo_compile":
        rows += [("compile_ms_p50", e2e["op_ms_p50"], "ms", f"n={n}"),
                 ("compile_ms_p90", e2e["op_ms_p90"], "ms", f"n={n}")]
    if workload == "arch_sweep":
        rows += [("points_per_s", extra("points_per_s"), "points/s", "cold"),
                 ("warm_points_per_s", extra("warm_points_per_s"),
                  "points/s", "disk-served")]
    if workload == "fleet_diurnal":
        rows += [("requests_per_s", e2e["throughput"], "requests/s",
                  "simulated requests per host second"),
                 ("p99_cycles", extra("p99_cycles"), "cycles", ""),
                 ("slo_attainment", extra("slo_attainment"), "fraction",
                  "refusals count as misses"),
                 ("refusals_per_100k", extra("refusals_per_100k"), "count",
                  ""),
                 ("utilization", extra("utilization"), "fraction", "")]
    if workload in ("zoo_compile", "arch_sweep", "shard_pipeline"):
        rows.append(("sim_cycles_geomean", e2e["sim_cycles_geomean"],
                     "cycles", ""))
    if workload in ("zoo_compile", "arch_sweep"):
        rows.append(("energy_geomean", e2e["sim_energy_geomean"], "a.u.",
                     "per inference"))
    return rows


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced rounds.  The tracing
    overhead pairs each traced round with the untraced round of the same
    index (same work, run just before it) in raw seconds."""
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _ in layers.per_layer_metrics()}
    plain = {r["round"]: r["raw_wall_s"] for r in untraced}
    out["bench.trace_overhead_s"] = statistics.median(
        r["raw_wall_s"] - plain[r["round"]] for r in traced
        if r["round"] in plain)
    return out


def top_layers(values: Dict[str, float], k: int = 3) -> List[Tuple[str, float]]:
    """The ``k`` entry points with the most self time."""
    own = [(name[:-len(".self_s")], v) for name, v in values.items()
           if name.endswith(".self_s") and not name.startswith("bench.")]
    return sorted(own, key=lambda kv: -kv[1])[:k]


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (``unknown`` outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, args, out_dir: str) -> Dict:
    """All rounds of one workload; returns the printable outcome."""
    work_dir = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    untraced: List[Dict] = []
    traced: List[Dict] = []
    errors: List[str] = []
    start = time.monotonic()
    index = 0
    try:
        while True:
            result, err = run_one_round(workload, args.seed, index,
                                        args.size, False, work_dir, None)
            if result is None:
                errors.append(err)
            else:
                untraced.append(result)
            if args.trace:
                chrome = os.path.join(
                    out_dir, f"{workload}.trace.json") if index == 0 else None
                result, err = run_one_round(workload, args.seed, index,
                                            args.size, True, work_dir,
                                            chrome)
                if result is None:
                    errors.append(err)
                else:
                    traced.append(result)
            index += 1
            if errors or time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rounds = untraced + traced
    attempted = sum(len(r["op_ms"]) for r in rounds) + len(errors)
    failed = sum(len(r["errors"]) for r in rounds) + len(errors)
    outcome = {"workload": workload, "seed": args.seed,
               "rounds": len(untraced),
               "raw": {key: [r[key] for r in untraced] for key in
                       ("raw_setup_s", "raw_wall_s", "speed", "wall_s")},
               "attempted": attempted,
               "failed": failed, "errors": errors,
               "op_errors": [e for r in rounds for e in r["errors"].items()]}
    if untraced:
        e2e = end_to_end(untraced)
        outcome["end_to_end"] = e2e
        outcome["design"] = design_metrics(workload, untraced, e2e, attempted,
                                         failed)
        outcome["versions"] = untraced[0]["versions"]
    if traced and untraced:
        outcome["per_layer"] = per_layer(traced, untraced)
    return outcome


def print_outcome(o: Dict) -> None:
    print(f"== {o['workload']}: {WORKLOADS[o['workload']]}")
    print(f"   seed {o['seed']}, {o['rounds']} round(s), "
          f"{o['attempted']} ops attempted, {o['failed']} failed")
    for err in o["errors"]:
        print(f"   ROUND FAILED: {err}")
    for label, err in o["op_errors"][:10]:
        print(f"   OP FAILED {label}: {err}")
    for name, value, unit, note in o.get("design", []):
        print(f"   {name:<22} {value:>16.6g} {unit:<18} {note}")
    if o["rounds"]:
        raw = {k: statistics.median(v) for k, v in o["raw"].items()}
        print(f"   host times above are reference-speed seconds; raw "
              f"medians: wall {raw['raw_wall_s']:.4g} s, set-up "
              f"{raw['raw_setup_s']:.4g} s, machine speed "
              f"{raw['speed']:.3f}")
    if "per_layer" in o:
        pl = o["per_layer"]
        print("   top layers by self time:")
        for name, value in top_layers(pl):
            print(f"     {name:<50} {value:10.4f} s")
        print(f"   unattributed (bench.body self time): "
              f"{pl['bench.body.self_s']:.4f} s")
        print(f"   tracing overhead (traced - untraced raw wall, paired "
              f"rounds): {pl['bench.trace_overhead_s']:.4f} s")


def result_line(outcomes: List[Dict], trace: bool) -> Dict:
    """The contract's last line.  With several workloads, metric names
    are prefixed ``<workload>.``."""
    metrics: Dict[str, Dict] = {}
    for o in outcomes:
        prefix = f"{o['workload']}." if len(outcomes) > 1 else ""
        if trace:
            values = o.get("per_layer", {})
            units = dict(layers.per_layer_metrics())
        else:
            values = o.get("end_to_end", {})
            units = dict(END_TO_END)
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting rounds until this much time "
                             "has passed (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the tests")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for results and Chrome traces")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("hostbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile once, so the first round's set-up is not slower.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    os.makedirs(args.out, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        outcome = run_workload(name, args, args.out)
        print_outcome(outcome)
        outcomes.append(outcome)
    if not all("end_to_end" in o for o in outcomes) \
            or (args.trace and not all("per_layer" in o for o in outcomes)):
        print("hostbench: a workload produced no successful round",
              file=sys.stderr)
        return 1
    env = {"commit": git_commit(), "python": sys.version.split()[0],
           "nproc": os.cpu_count(), **outcomes[0]["versions"]}
    print("   env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    with open(os.path.join(args.out, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args), "outcomes": outcomes},
                  fh, indent=1)
    print(json.dumps(result_line(outcomes, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
