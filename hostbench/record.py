"""Record a trajectory point: ``baseline.json`` and ``TOP_LAYERS.md``.

Usage: ``python3 hostbench/record.py [--seed N] [--seconds S]``.  Runs
every workload once untraced and once traced through ``run.py`` and
writes, next to this file, the end-to-end metrics, the design metrics
and the per-layer metrics (``baseline.json``) and the three layers with
the most self time per workload (``TOP_LAYERS.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from hostbench import layers, run  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: int,
            out_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    point = {"workloads": {}}
    table = ["# Top layers by self time", "",
             f"Measured by `hostbench/record.py --seed {args.seed} "
             f"--seconds {args.seconds:g}` (traced rounds; medians over "
             "rounds).  Self time is a span's time minus its measured "
             "children, in raw host seconds; set-up and body spans both "
             "count.  The remainder is the body's time outside every "
             "measured entry point.", "",
             "| workload | rank | layer | self s | share of traced time |",
             "|---|---|---|---|---|"]
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE)) as out:
        for workload in run.WORKLOADS:
            plain = measure(workload, args.seed, args.seconds, 0, out)
            traced = measure(workload, args.seed, args.seconds, 1, out)
            point.setdefault("env", plain["env"])
            o, t = plain["outcomes"][0], traced["outcomes"][0]
            per_layer = t["per_layer"]
            point["workloads"][workload] = {
                "end_to_end": o["end_to_end"],
                "design_metrics": {name: [value, unit]
                                   for name, value, unit, _ in o["design"]},
                "per_layer": per_layer,
            }
            # Self times partition the traced set-up and body exactly.
            wall = sum(v for k, v in per_layer.items()
                       if k.endswith(".self_s"))
            for rank, (name, value) in enumerate(run.top_layers(per_layer),
                                                 1):
                table.append(f"| {workload} | {rank} | `{name}` | "
                             f"{value:.3f} | {value / wall:.0%} |")
            table.append(f"| {workload} | - | remainder (body) | "
                         f"{per_layer['bench.body.self_s']:.3f} | "
                         f"{per_layer['bench.body.self_s'] / wall:.0%} |")
            table.append(f"| {workload} | - | tracing overhead | "
                         f"{per_layer['bench.trace_overhead_s']:.3f} | - |")
    point["should_move"] = {
        name: dict(zip(("metric", "most_work_in", "little_or_none_in"),
                       layers.SHOULD_MOVE[layers.layer_of(name)]))
        for name, _ in layers.per_layer_metrics()}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    env = point["env"]
    table += ["", f"Commit {env['commit'][:12]}, repro {env['repro']}, "
              f"Python {env['python']}, numpy {env['numpy']}, "
              f"nproc {env['nproc']}."]
    with open(os.path.join(HERE, "TOP_LAYERS.md"), "w") as fh:
        fh.write("\n".join(table) + "\n")


if __name__ == "__main__":
    main()
