"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``   Compile a model onto an architecture preset and print the
              performance report (optionally per-level ablation).
``sweep``     Design-space sweep: vary preset parameters over a grid, run
              (optionally parallel + cached), print table/CSV/JSON.
``bench``     Time the compile→simulate hot path against the scalar
              reference oracle; verify identical results; report speedups.
``shard``     Shard a model across a multi-chip system; print per-chip
              placement, the link schedule, and the pipeline estimate.
``serve``     Multi-tenant serving simulation (spatial / temporal /
              sharded multi-chip plans) under a request trace,
              optionally under a chip-level peak-power budget.
``fleet``     Datacenter-scale serving: a replicated fleet behind a
              router with admission control and autoscaling, under a
              diurnal + bursty trace.
``trace``     Record an execution trace (sim/shard/serve/fleet), extract
              its critical path and bottleneck attribution, or what-if
              replay it under mutated parameters without re-simulating.
``faults``    Inject hardware faults (dead cores/crossbars, drift, link
              derating, mid-trace chip death) into a fleet run, or sweep
              serving quality against dead-core count.
``reproduce`` One-command artifact reproduction: run every registered
              EXPERIMENTS.md figure/table and the BENCH suite, validate
              fresh digests against the committed goldens, emit
              ``reproduce_report.json`` (see docs/REPRODUCE.md).
``power``     Per-model energy/power breakdown table (Section 4.2
              components plus weight-write costs).
``describe``  Print the Abs-arch abstraction of a preset (Figs. 17-19 style).
``codegen``   Emit the meta-operator program for a small model.
``presets``   List architecture presets.
``models``    List model-zoo entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .arch import PRESETS, get_preset
from .errors import CIMError
from .models import MODEL_ZOO, get_model
from .sched import CIMMLC, CompilerOptions, no_optimization

#: Kept as the public CLI alias of the zoo table.
MODELS: Dict[str, Callable] = MODEL_ZOO


def _model(name: str):
    try:
        return get_model(name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))


def _preset(name: str):
    """Resolve a preset name: exact, underscore-normalized, or unique
    prefix (``functional`` -> ``functional-testbed``)."""
    normalized = name.replace("_", "-")
    if normalized in PRESETS:
        return PRESETS[normalized]()
    matches = sorted(p for p in PRESETS if p.startswith(normalized))
    if len(matches) == 1:
        return PRESETS[matches[0]]()
    hint = f"ambiguous ({matches})" if matches else "no match"
    raise SystemExit(f"unknown preset {name!r}: {hint}; "
                     f"choose one of {sorted(PRESETS)}")


def _ints(text: str, flag: str) -> List[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise SystemExit(
            f"{flag} expects comma-separated integers, got {text!r}")


def _runner(args):
    """The :class:`~repro.explore.SweepRunner` of the runner flags."""
    from .explore import SweepRunner, default_cache_dir

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    cache_dir = None if args.no_cache else \
        (args.cache_dir or default_cache_dir())
    return SweepRunner(workers=args.workers, cache_dir=cache_dir)


def _link(args):
    from .arch import ChipLink

    return ChipLink(bandwidth_bits=args.link_bw,
                    latency_cycles=args.link_latency)


def _trace(args, specs):
    """``--rate`` is per mega-cycle; the generators take per-cycle rates."""
    from .serve import make_trace

    return make_trace(args.trace, specs, args.rate * 1e-6, args.requests,
                      seed=args.seed)


def cmd_presets(args) -> None:
    for name in sorted(PRESETS):
        print(f"{name:<20} {PRESETS[name]()}")


def cmd_models(args) -> None:
    for name in sorted(MODELS):
        graph = MODELS[name]()
        print(f"{name:<12} nodes={len(graph.nodes):<4} "
              f"weights={graph.total_weight_bits() / 8e6:8.1f} MB")


def cmd_describe(args) -> None:
    arch = get_preset(args.arch)
    print(json.dumps(arch.describe(), indent=1, default=str))


def cmd_compile(args) -> None:
    arch = get_preset(args.arch)
    graph = _model(args.model)
    print(f"compiling {graph.name} onto {arch}")
    baseline = no_optimization(graph, arch)
    print(f"w/o optimization: {baseline.total_cycles:,.0f} cycles")
    result = CIMMLC(arch).compile(graph)
    print(f"CIM-MLC [{'+'.join(result.schedule.levels)}]: "
          f"{result.total_cycles:,.0f} cycles "
          f"({baseline.total_cycles / result.total_cycles:.2f}x)")
    print(f"peak power: {result.peak_power:,.1f} "
          f"(baseline {baseline.peak_power:,.1f})")
    if args.ablation:
        for level in ("CG", "MVM", "VVM"):
            if not arch.supports(level):
                continue
            run = CIMMLC(arch,
                         CompilerOptions(max_level=level)).compile(graph)
            print(f"  up to {level:<4}: "
                  f"{baseline.total_cycles / run.total_cycles:8.2f}x")
    if args.schedule:
        print(result.schedule.summary())


def cmd_bench(args) -> None:
    from .perf import bench

    names = args.only.split(",") if args.only else None
    try:
        results = bench.run_bench(names, quick=args.quick)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if args.format == "json":
        print(bench.to_json(results))
    else:
        print(bench.table(results))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(bench.to_json(results) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


def cmd_reproduce(args) -> None:
    from .reproduce import check_registry, run_profile

    if args.check:
        failures = check_registry(goldens_dir=args.goldens_dir)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            raise SystemExit(1)
        print("registry, EXPERIMENTS.md, and goldens are consistent")
        return
    only = args.only.split(",") if args.only else None
    try:
        report = run_profile(
            profile=args.profile, only=only, bless=args.bless,
            workers=args.workers, cache_dir=args.cache_dir,
            goldens_dir=args.goldens_dir,
            progress=lambda message: print(message, file=sys.stderr))
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.table())
    if not report.ok:
        raise SystemExit(
            f"reproduce FAILED: {', '.join(report.failures)}")


def cmd_power(args) -> None:
    arch = _preset(args.arch)
    rows = []
    for name in args.models.split(","):
        name = name.strip()
        if not name:
            continue
        graph = _model(name)
        report = CIMMLC(arch).compile(graph).report
        p = report.power
        rows.append({
            "model": graph.name,
            "energy_per_inference": report.energy_per_inference,
            "peak_power": p.peak_power,
            "avg_power": p.avg_power,
            "peak_active_crossbars": p.peak_active_crossbars,
            "weight_write_energy": report.weight_write_energy,
            "breakdown": p.breakdown(),
        })
    if not rows:
        raise SystemExit("--models needs at least one model name")
    if args.format == "json":
        print(json.dumps({"arch": arch.name, "models": rows}, indent=1))
        return
    print(f"power/energy on {arch.name} "
          f"(cell {arch.xb.cell_type.value}, arbitrary units; "
          f"see docs/ENERGY.md)")
    print(f"{'model':<12} {'energy/inf':>14} {'peak':>10} {'avg':>9} "
          f"{'xb%':>5} {'conv%':>6} {'move%':>6} {'reconf%':>8} "
          f"{'write energy':>14}")
    for r in rows:
        b = r["breakdown"]
        print(f"{r['model']:<12} {r['energy_per_inference']:>14,.0f} "
              f"{r['peak_power']:>10,.1f} {r['avg_power']:>9,.2f} "
              f"{b['crossbar']:>5.0%} {b['converter']:>6.0%} "
              f"{b['movement']:>6.1%} {b['reconfiguration']:>8.1%} "
              f"{r['weight_write_energy']:>14,.0f}")


def cmd_codegen(args) -> None:
    from .mops import emit
    from .quant import random_weights
    from .sched.lowering import lower_to_flow

    arch = get_preset(args.arch)
    graph = _model(args.model)
    schedule = CIMMLC(arch).schedule(graph)
    program = lower_to_flow(
        schedule, random_weights(graph, seed=0, low=-4, high=4))
    text = emit(program.flow)
    lines = text.splitlines()
    if args.max_lines and len(lines) > args.max_lines:
        lines = lines[:args.max_lines] + \
            [f"... ({len(text.splitlines()) - args.max_lines} more lines)"]
    print("\n".join(lines))


def cmd_sweep(args) -> None:
    from .explore import (
        SweepSpace,
        level_series,
        metric_result,
        pareto_frontier,
        resolve_objectives,
        speedup_result,
        to_csv,
        to_json,
    )

    base = _preset(args.arch)
    graph = _model(args.model)
    vary: Dict[str, List[str]] = {}
    for spec in args.vary or []:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise SystemExit(
                f"--vary expects PARAM=V1,V2,... got {spec!r}")
        vary[name] = values.split(",")
    try:
        series = level_series(args.levels.split(","))
        space = SweepSpace.grid(base, graph, vary, series=series)
        objectives = resolve_objectives(
            [o.strip() for o in args.objectives.split(",") if o.strip()])
        if args.power_budget is not None:
            from .serve.workload import _require_positive

            _require_positive("power budget", args.power_budget)
    except Exception as exc:
        raise SystemExit(str(exc))

    runner = _runner(args)

    if args.prefilter == "replay":
        from dataclasses import asdict

        from .explore import replay_prefilter

        pre = replay_prefilter(space, runner, objectives)
        print(pre.stats.describe(), file=sys.stderr)
        frontier = pre.frontier
        if args.power_budget is not None:
            frontier = [r for r in frontier
                        if r.peak_power <= args.power_budget]
        if args.format == "json":
            print(json.dumps({
                "stats": {**asdict(pre.stats),
                          "savings": pre.stats.savings},
                "objectives": list(objectives),
                "frontier": [
                    {"label": r.label, "series": r.series,
                     **{obj: r.summary[obj] for obj in objectives}}
                    for r in frontier],
            }, indent=1))
            return
        print(f"pareto frontier (min {', '.join(objectives)}):")
        for r in frontier:
            vals = ", ".join(f"{obj}={r.summary[obj]:,.6g}"
                             for obj in objectives)
            print(f"  {r.label}/{r.series}: {vals}")
        return

    sweep = runner.run(space)
    print(f"sweep: {len(sweep)} points "
          f"({sweep.cache_hits} cache hits, {sweep.cache_misses} misses"
          f"{'' if runner.cache else ', cache disabled'})", file=sys.stderr)

    if args.format == "json":
        print(to_json(sweep, pareto=args.pareto, objectives=objectives,
                      power_budget=args.power_budget))
        return
    if args.format == "csv":
        print(to_csv(sweep, pareto=args.pareto, objectives=objectives,
                     power_budget=args.power_budget), end="")
        return
    has_baseline = any(p.series == "baseline" for p in space)
    if has_baseline:
        table = speedup_result(
            sweep, "sweep", f"{graph.name} on {base.name} "
            f"(speedup over un-optimized)")
    else:
        table = metric_result(
            sweep, "sweep", f"{graph.name} on {base.name} (total cycles)",
            unit=" cyc")
    print(table.table())
    results = list(sweep)
    if args.power_budget is not None:
        results = [r for r in results
                   if r.peak_power <= args.power_budget]
        print(f"power budget {args.power_budget:g}: {len(results)}/"
              f"{len(sweep)} points feasible")
    if args.pareto:
        frontier = pareto_frontier(results, objectives)
        print(f"pareto frontier (min {', '.join(objectives)}): "
              + ", ".join(f"{r.label}/{r.series}" for r in frontier))


def _system(args):
    """Build a :class:`~repro.arch.MultiChipSystem` from CLI link flags."""
    from .arch import MultiChipSystem

    arch = _preset(args.arch)
    return MultiChipSystem(arch, args.chips, link=_link(args),
                           topology=args.topology)


def cmd_shard(args) -> None:
    from .scale import link_table, pipeline_summary, placement_table, shard

    system = _system(args)
    graph = _model(args.model)
    plan = shard(graph, system)
    single = None
    if args.baseline:
        try:
            single = CIMMLC(system.chip).compile(graph).report
        except CIMError:
            print("(model does not compile on one chip; no baseline)",
                  file=sys.stderr)
    if args.format == "json":
        doc = plan.to_dict()
        if single is not None:
            doc["single_chip"] = {
                "total_cycles": single.total_cycles,
                "steady_state_interval": single.steady_state_interval,
            }
        print(json.dumps(doc, indent=1))
        return
    print(placement_table(plan))
    print()
    print(link_table(plan))
    print()
    print(pipeline_summary(plan, single))


def _tenant_specs(text: str):
    from .serve import TenantSpec

    specs = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        model, sep, weight = term.partition(":")
        try:
            w = float(weight) if sep else 1.0
        except ValueError:
            raise SystemExit(
                f"bad tenant spec {term!r}; expected MODEL or MODEL:WEIGHT")
        if model not in MODELS and model.replace("_", "-") not in MODELS:
            raise SystemExit(
                f"unknown model {model!r}; choose one of {sorted(MODELS)}")
        name = model
        suffix = 2
        while any(s.name == name for s in specs):
            name = f"{model}#{suffix}"
            suffix += 1
        specs.append(TenantSpec(name=name, model=model, weight=w))
    if not specs:
        raise SystemExit("--tenants needs at least one MODEL[:WEIGHT] term")
    return specs


def cmd_serve(args) -> None:
    from .serve import (
        MODES,
        capacity_table,
        make_plan,
        parse_policy,
        serve_sweep,
        simulate,
    )

    arch = _preset(args.arch)
    specs = _tenant_specs(args.tenants)
    policy = parse_policy(args.batch)
    modes = list(MODES) if args.mode == "both" else [args.mode]

    if args.mode == "sharded" and args.rates:
        raise SystemExit(
            "--rates capacity sweeps support spatial/temporal modes; "
            "run sharded mode with a single --rate")
    if args.mode == "sharded" and args.power_budget is not None:
        raise SystemExit(
            "--power-budget applies to spatial/temporal modes; the "
            "sharded planner has no per-chip down-duplication yet")

    if args.rates:
        try:
            rates = [float(r) * 1e-6 for r in args.rates.split(",")]
        except ValueError:
            raise SystemExit(
                f"--rates expects comma-separated numbers, got "
                f"{args.rates!r}")
        points = serve_sweep(
            arch, specs, rates, modes=modes, policies=[policy],
            trace_kind=args.trace, num_requests=args.requests,
            seed=args.seed, slo_factor=args.slo_factor,
            max_queue=args.max_queue, runner=_runner(args),
            power_budget=args.power_budget)
        if args.format == "json":
            print(json.dumps([
                {"rate_per_mcycle": p.rate_per_mcycle, "mode": p.mode,
                 "policy": p.policy, **p.report.to_dict()}
                for p in points
            ], indent=1))
        else:
            print(capacity_table(points))
        return

    trace = _trace(args, specs)
    reports = {}
    for mode in modes:
        if mode == "sharded":
            plan = make_plan(mode, arch, specs, system=_system(args))
        else:
            plan = make_plan(mode, arch, specs,
                             power_budget=args.power_budget)
        reports[mode] = simulate(plan, trace, policy=policy,
                                 max_queue=args.max_queue,
                                 slo_factor=args.slo_factor)
    if args.format == "json":
        print(json.dumps({m: r.to_dict() for m, r in reports.items()},
                         indent=1))
        return
    for mode, report in reports.items():
        print(report.table())
    if len(reports) == 2:
        spatial, temporal = reports["spatial"], reports["temporal"]
        print(f"p99: spatial {spatial.p99:,.0f} vs temporal "
              f"{temporal.p99:,.0f} "
              f"({temporal.p99 / max(spatial.p99, 1e-9):.2f}x)")


def cmd_fleet(args) -> None:
    from .fleet import (
        AdmissionControl,
        Autoscaler,
        build_fleet_cached,
        fleet_sweep,
        fleet_table,
        parse_router,
        simulate_fleet,
    )
    from .serve import parse_policy, trace_digest

    arch = _preset(args.arch)
    specs = _tenant_specs(args.tenants)
    policy = parse_policy(args.batch)
    link = _link(args)
    plan = build_fleet_cached(
        arch, specs, replicas=args.replicas, mode=args.mode,
        runner=_runner(args), power_budget=args.power_budget, link=link)
    admission = AdmissionControl(max_outstanding=args.admit_max,
                                 slo_budget=args.slo_budget,
                                 fairness=args.fair)
    autoscaler = None
    if args.autoscale:
        autoscaler = Autoscaler(tick_cycles=args.tick,
                                min_replicas=args.min_replicas,
                                up_threshold=args.up_threshold,
                                down_threshold=args.down_threshold,
                                hold_ticks=args.hold_ticks)
    trace = _trace(args, specs)

    if args.counts:
        points = fleet_sweep(
            plan, trace, _ints(args.counts, "--counts"),
            routers=args.routers.split(","), policy=policy,
            admission=admission, autoscaler=autoscaler,
            max_queue=args.max_queue, slo_factor=args.slo_factor)
        if args.format == "json":
            print(json.dumps([
                {"replicas": p.replicas, "router": p.router,
                 **p.report.to_dict()} for p in points
            ], indent=1))
        else:
            print(f"fleet sweep: {len(trace)} requests "
                  f"({args.trace}, seed {args.seed}), trace digest "
                  f"{trace_digest(trace)[:16]}")
            print(fleet_table(points))
        return

    report = simulate_fleet(
        plan, trace, policy=policy, router=parse_router(args.router),
        admission=admission, autoscaler=autoscaler,
        max_queue=args.max_queue, slo_factor=args.slo_factor)
    if args.format == "json":
        print(report.to_json())
        return
    print(report.table())
    print(f"report digest: {report.digest()[:16]} "
          f"(same seed => same digest)")


def _parse_fault(args, die: int):
    """Build the :class:`~repro.faults.FaultModel` the flags describe."""
    from .faults import FaultModel, spread_mask

    dead = []
    if args.kill:
        dead.extend(spread_mask(die, args.kill))
    if args.dead_cores:
        dead.extend(_ints(args.dead_cores, "--dead-cores"))
    xbs = []
    if args.dead_xbs:
        try:
            xbs = [tuple(int(v) for v in pair.split(":"))
                   for pair in args.dead_xbs.split(",")]
            if any(len(p) != 2 for p in xbs):
                raise ValueError
        except ValueError:
            raise SystemExit(f"--dead-xbs expects CORE:XB,CORE:XB,..., "
                             f"got {args.dead_xbs!r}")
    return FaultModel(dead_cores=tuple(dead), dead_crossbars=tuple(xbs),
                      drift_interval=args.drift_interval,
                      link_derate=args.link_derate,
                      chip_death_time=args.chip_death,
                      chip_death_rid=args.death_rid)


def cmd_faults(args) -> None:
    from .faults import degradation_sweep, sweep_digest, sweep_rows, \
        sweep_table
    from .fleet import build_fleet, parse_router, simulate_fleet
    from .serve import parse_policy

    arch = _preset(args.arch)
    specs = _tenant_specs(args.tenants)
    policy = parse_policy(args.batch)
    fault = _parse_fault(args, arch.chip.core_number)

    if args.sweep_dead:
        counts = _ints(args.sweep_dead, "--sweep-dead")
        points = degradation_sweep(
            arch, specs, counts, args.rate * 1e-6, mode=args.mode,
            num_requests=args.requests, seed=args.seed,
            trace_kind=args.trace, policy=policy,
            slo_factor=args.slo_factor, max_queue=args.max_queue,
            runner=_runner(args))
        if args.format == "json":
            print(json.dumps(sweep_rows(points), indent=1))
        else:
            print(f"degradation sweep on {arch.name} "
                  f"({arch.chip.core_number} cores, {args.trace} "
                  f"trace, seed {args.seed}):")
            print(sweep_table(points))
            print(f"sweep digest: {sweep_digest(points)[:16]} "
                  f"(same seed => same digest)")
        return

    link = _link(args)
    if fault.masks_cores():
        plan = build_fleet(
            fault.degrade_arch(arch), specs, replicas=args.replicas,
            mode=args.mode, link=link,
            core_pool=fault.surviving_cores(arch),
            die_cores=arch.chip.core_number)
    else:
        plan = build_fleet(arch, specs, replicas=args.replicas,
                           mode=args.mode, link=link)
    trace = _trace(args, specs)
    report = simulate_fleet(
        plan, trace, policy=policy, router=parse_router(args.router),
        max_queue=args.max_queue, slo_factor=args.slo_factor,
        fault=fault)
    if args.format == "json":
        print(report.to_json())
        return
    print(f"injected: {fault.describe()}")
    print(report.table())
    print(f"report digest: {report.digest()[:16]} "
          f"(same seed => same digest)")


def _load_trace(path: str):
    from .trace import Trace

    try:
        return Trace.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load trace {path!r}: {exc}")


def _record_scenario(args):
    """Run the ``--kind`` scenario with recording on → (report, trace)."""
    from .trace import record_fleet, record_performance, record_serve, \
        record_shard

    arch = _preset(args.arch)
    if args.kind == "sim":
        result = CIMMLC(arch).compile(_model(args.model))
        return record_performance(arch, result.schedule)
    if args.kind == "shard":
        from .scale import shard

        plan = shard(_model(args.model), _system(args))
        return plan.report, record_shard(plan)
    from .serve import make_plan, parse_policy

    specs = _tenant_specs(args.tenants)
    policy = parse_policy(args.batch)
    requests = _trace(args, specs)
    if args.kind == "serve":
        plan = make_plan(args.mode, arch, specs)
        return record_serve(plan, requests, policy=policy,
                            max_queue=args.max_queue,
                            slo_factor=args.slo_factor)
    from .fleet import build_fleet, parse_router

    plan = build_fleet(arch, specs, replicas=args.replicas,
                       mode=args.mode, link=_link(args))
    return record_fleet(plan, requests, policy=policy,
                        router=parse_router(args.router),
                        max_queue=args.max_queue,
                        slo_factor=args.slo_factor)


def cmd_trace_record(args) -> None:
    report, trace = _record_scenario(args)
    if args.out:
        trace.save(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.chrome:
        trace.save_chrome(args.chrome)
        print(f"wrote {args.chrome} (load in chrome://tracing or "
              f"ui.perfetto.dev)", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({
            "kind": trace.kind, "spans": len(trace),
            "tracks": list(trace.tracks()), "digest": trace.digest(),
            "by_category": trace.by_category(), "meta": trace.meta,
        }, indent=1))
        return
    print(f"recorded {trace.kind} trace: {len(trace)} spans on "
          f"{len(trace.tracks())} tracks, digest {trace.digest()[:16]}")
    for cat, cycles in sorted(trace.by_category().items()):
        print(f"  {cat:>15}: {cycles:>14,.1f} busy cycles")
    if trace.kind in ("sim", "shard"):
        print(f"total: {trace.meta['total_cycles']:,.1f} cycles "
              f"(steady-state interval "
              f"{trace.meta['steady_state_interval']:,.1f})")
    else:
        print(f"completed {trace.meta['completed']}, "
              f"p99 {report.p99:,.1f} cycles")


def cmd_trace_analyze(args) -> None:
    from .trace import attribute, critical_path, replica_rollup, \
        tenant_rollup

    trace = _load_trace(args.trace)
    att = attribute(trace)
    try:
        cp = critical_path(trace, request=args.request)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    serving = trace.kind in ("serve", "fleet")
    if args.format == "json":
        doc = {
            "kind": trace.kind, "spans": len(trace),
            "digest": trace.digest(), "attribution": att,
            "critical_path": {
                "total": cp.total, "by_category": cp.by_category,
                "spans": [
                    {"name": s.name, "cat": s.cat, "track": s.track,
                     "begin": s.begin, "dur": s.dur}
                    for s in cp.spans],
            },
        }
        if serving:
            doc["tenants"] = tenant_rollup(trace)
            doc["replicas"] = replica_rollup(trace)
        print(json.dumps(doc, indent=1))
        return
    print(f"{trace.kind} trace: {len(trace)} spans on "
          f"{len(trace.tracks())} tracks, digest {trace.digest()[:16]}")
    shares = ", ".join(f"{k} {v:.1%}"
                       for k, v in att["shares"].items())
    print(f"attribution: dominant {att['dominant']} ({shares})")
    print(cp.describe())
    if serving:
        print(f"{'tenant':<14} {'reqs':>6} {'batches':>8} "
              f"{'queue cyc':>13} {'service cyc':>13} {'switch cyc':>12} "
              f"{'mean lat':>12} {'max lat':>12}")
        for tenant, r in sorted(tenant_rollup(trace).items()):
            print(f"{tenant:<14} {r['requests']:>6.0f} "
                  f"{r['batches']:>8.0f} {r['queue_cycles']:>13,.0f} "
                  f"{r['service_cycles']:>13,.0f} "
                  f"{r['switch_cycles']:>12,.0f} "
                  f"{r['mean_latency']:>12,.0f} "
                  f"{r['max_latency']:>12,.0f}")
        print(f"{'replica':<8} {'done':>6} {'batches':>8} "
              f"{'busy cyc':>13} {'switch cyc':>12} {'queue cyc':>13} "
              f"{'link cyc':>12}")
        for rid, r in sorted(replica_rollup(trace).items()):
            print(f"{rid:<8} {r['completed']:>6.0f} "
                  f"{r['batches']:>8.0f} {r['busy_cycles']:>13,.0f} "
                  f"{r['switch_cycles']:>12,.0f} "
                  f"{r['queue_cycles']:>13,.0f} "
                  f"{r['link_cycles']:>12,.0f}")


def cmd_trace_whatif(args) -> None:
    from .trace import parse_mutation, replay

    trace = _load_trace(args.trace)
    mutation = parse_mutation(args.mutate or "")
    result = replay(trace, mutation)
    baseline = replay(trace).metrics
    if args.out:
        result.trace.save(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({
            "kind": trace.kind, "mutation": mutation.describe(),
            "recorded": baseline, "replayed": result.metrics,
            "digest": result.trace.digest(),
        }, indent=1))
        return
    print(f"what-if [{mutation.describe()}] on {trace.kind} trace "
          f"({len(trace)} spans)")
    for key, base in baseline.items():
        new = result.metrics.get(key)
        if not isinstance(base, (int, float)) or \
                not isinstance(new, (int, float)):
            continue
        ratio = new / base if base else float("inf")
        print(f"  {key:<24} {base:>16,.2f} -> {new:>16,.2f} "
              f"({ratio:.3f}x)")
    if mutation.is_identity():
        same = result.trace.digest() == trace.digest()
        print(f"identity replay digest match: {same}")


def _add_arch_arg(parser, default: str,
                  flags=("--arch", "--preset")) -> None:
    """Attach the preset flag; :func:`_preset` resolves its value."""
    parser.add_argument(*flags, dest="arch", default=default,
                        help="architecture preset (unique prefixes "
                             "accepted, e.g. 'functional')")


def _add_format_arg(parser, choices=("table", "json")) -> None:
    parser.add_argument("--format", choices=choices, default="table")


def _add_workload_args(parser, rate: float, requests: int, arrivals: str,
                       modes=("spatial", "temporal"), mode="spatial",
                       flag="--trace") -> None:
    """Attach the request-workload flags; the arrival-process ``flag``
    lands in ``args.trace`` for :func:`_trace`."""
    from .serve.workload import TRACES

    parser.add_argument("--tenants", default="resnet18:4,mobilenet:1",
                        metavar="MODEL[:WEIGHT],...",
                        help="co-resident models with traffic weights")
    parser.add_argument("--mode", choices=modes, default=mode,
                        help="hardware sharing plan")
    parser.add_argument(flag, dest="trace", choices=tuple(TRACES),
                        default=arrivals, help="arrival process")
    parser.add_argument("--rate", type=float, default=rate,
                        help="arrival rate in requests per mega-cycle")
    parser.add_argument("--requests", type=int, default=requests,
                        help="trace length in requests")
    parser.add_argument("--seed", type=int, default=0, help="trace seed")
    parser.add_argument("--batch", default="timeout:8:50000",
                        help="batching policy: fixed:N or "
                             "timeout:N:CYCLES")
    parser.add_argument("--slo-factor", type=float, default=10.0,
                        help="per-tenant SLO = factor x isolated latency")
    parser.add_argument("--max-queue", type=int, default=None,
                        help="per-tenant queue bound (arrivals beyond it "
                             "are rejected)")


def _add_fleet_args(parser, replicas: int) -> None:
    """Attach the fleet-shape flags (fleet, faults, trace record)."""
    parser.add_argument("--replicas", type=int, default=replicas,
                        help="fleet size (the autoscaler's ceiling)")
    parser.add_argument("--router", default="least-loaded",
                        help="routing policy: rr, least-loaded, "
                             "affinity[:SESSIONS], power[:HEADROOM]")


def _add_link_args(parser) -> None:
    """Attach the inter-chip link flags :func:`_link` reads, defaulting
    to :class:`~repro.arch.ChipLink`'s own."""
    from .arch import ChipLink

    default_link = ChipLink()
    parser.add_argument("--link-bw", type=float,
                        default=default_link.bandwidth_bits,
                        help="inter-chip link bandwidth (bits/cycle)")
    parser.add_argument("--link-latency", type=float,
                        default=default_link.latency_cycles,
                        help="per-hop link latency (cycles)")


def _add_system_args(parser) -> None:
    """Attach the multi-chip flags :func:`_system` reads."""
    from .arch import CHIP_TOPOLOGIES

    parser.add_argument("--chips", type=int, default=2,
                        help="number of chips in the system")
    parser.add_argument("--topology", choices=CHIP_TOPOLOGIES,
                        default="ring", help="inter-chip wiring")
    _add_link_args(parser)


def _add_runner_args(parser) -> None:
    """Attach the explore-runner flags :func:`_runner` reads."""
    parser.add_argument("--workers", type=int, default=1,
                        help="compile worker processes (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="explore result-cache root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-explore)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the explore result cache")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list architecture presets") \
        .set_defaults(fn=cmd_presets)
    sub.add_parser("models", help="list model-zoo entries") \
        .set_defaults(fn=cmd_models)

    p = sub.add_parser("describe", help="print a preset's Abs-arch")
    p.add_argument("arch", choices=sorted(PRESETS))
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("compile", help="compile a model onto a preset")
    p.add_argument("--arch", default="isaac-baseline",
                   choices=sorted(PRESETS))
    p.add_argument("--model", default="resnet18")
    p.add_argument("--ablation", action="store_true",
                   help="also report per-level speedups")
    p.add_argument("--schedule", action="store_true",
                   help="print the per-operator schedule")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser(
        "sweep",
        help="design-space sweep over a preset (parallel + cached)",
        description="Vary architecture parameters of a preset over a grid, "
                    "compile the model at every point, and report each "
                    "optimization level's speedup over the un-optimized "
                    "schedule.  Results are memoized in a content-addressed "
                    "disk cache, so repeated and overlapping sweeps are "
                    "near-free.")
    p.add_argument("--model", default="vit-tiny",
                   help="model-zoo entry (underscores accepted)")
    _add_arch_arg(p, "isaac-baseline", flags=("--preset", "--arch"))
    p.add_argument("--vary", action="append", metavar="PARAM=V1,V2,...",
                   help="sweep axis, e.g. cores=256,512,1024, "
                        "xb_size=64x512,128x256, chips=1,2,4, or "
                        "link_bw=256,1024; repeat for a grid")
    p.add_argument("--levels", default="baseline,CG,MVM,VVM",
                   help="comma list of series to run per point "
                        "(baseline,CG,MVM,VVM)")
    _add_runner_args(p)
    _add_format_arg(p, choices=("table", "csv", "json"))
    p.add_argument("--pareto", action="store_true",
                   help="report the Pareto frontier under --objectives")
    p.add_argument("--objectives", default="total_cycles,peak_power",
                   metavar="OBJ1,OBJ2,...",
                   help="Pareto objectives, all minimized: summary keys "
                        "or aliases (latency, energy, "
                        "energy_per_inference, power, area, cores); "
                        "e.g. latency,energy,area")
    p.add_argument("--power-budget", type=float, default=None,
                   metavar="POWER",
                   help="feasibility cap on peak power: annotates/filters "
                        "points and restricts the Pareto frontier")
    p.add_argument("--prefilter", choices=("none", "replay"),
                   default="none",
                   help="replay screening: fully evaluate one anchor per "
                        "link-axis group, re-price the rest from its "
                        "recorded trace (exact for link axes), and fully "
                        "evaluate only the Pareto frontier")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "shard",
        help="shard a model across a multi-chip system",
        description="Partition a model graph into resident stages across "
                    "N chips (min-cut layer partitioning under weight-"
                    "capacity and compute-balance constraints), compile "
                    "every stage with the multi-level scheduler, and "
                    "report the per-chip placement, the inter-chip link "
                    "schedule, and the pipelined latency/throughput "
                    "estimate.")
    _add_arch_arg(p, "isaac-baseline")
    p.add_argument("--model", default="resnet18",
                   help="model-zoo entry (underscores accepted)")
    _add_system_args(p)
    p.add_argument("--baseline", action="store_true",
                   help="also compile on one chip and report the "
                        "throughput/latency ratio")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "serve",
        help="simulate multi-tenant serving under a request stream",
        description="Serve a seeded request trace over co-resident models "
                    "on one chip, either spatially partitioned (each tenant "
                    "owns a core region; weights stay resident) or "
                    "time-multiplexed (full chip per tenant, crossbars "
                    "reprogrammed on every tenant switch), and report "
                    "p50/p95/p99 latency, throughput, utilization, and SLO "
                    "attainment.  --mode sharded instead spans each tenant "
                    "across chips of a multi-chip system (see --chips/"
                    "--topology/--link-bw).  With --rates, run a capacity "
                    "sweep whose compilations ride the explore result "
                    "cache.")
    _add_arch_arg(p, "isaac-flash")
    _add_workload_args(p, rate=22.0, requests=400, arrivals="poisson",
                       modes=("spatial", "temporal", "both", "sharded"),
                       mode="both")
    _add_system_args(p)
    p.add_argument("--rates", default=None, metavar="R1,R2,...",
                   help="capacity sweep over these rates (req/Mcycle) "
                        "instead of a single --rate run")
    p.add_argument("--power-budget", type=float, default=None,
                   metavar="POWER",
                   help="chip-level peak-power budget: the spatial "
                        "planner down-duplicates tenants to fit it, the "
                        "temporal planner rejects over-budget tenants "
                        "(spatial/temporal modes only)")
    _add_runner_args(p)
    _add_format_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="simulate a replicated serving fleet with routing, "
             "admission, and autoscaling",
        description="Serve a fleet-scale request trace (default: a "
                    "bursty MMPP riding a diurnal envelope) over N "
                    "replicas of a serving plan behind a front-end "
                    "router, with admission control and an optional "
                    "autoscaler whose spin-ups pay the power model's "
                    "weight-program deployment cost.  The front-end↔"
                    "replica hop is priced by the inter-chip link.  "
                    "Replica plans compile once through the explore "
                    "result cache; the whole simulation is "
                    "deterministic (same seed ⇒ bit-identical report).  "
                    "With --counts, sweep replica count × router.")
    _add_arch_arg(p, "isaac-flash")
    _add_workload_args(p, rate=120.0, requests=100_000,
                       arrivals="diurnal-bursty")
    _add_fleet_args(p, replicas=8)
    p.add_argument("--counts", default=None, metavar="N1,N2,...",
                   help="sweep these replica counts x --routers instead "
                        "of a single run")
    p.add_argument("--routers", default="rr,least-loaded",
                   metavar="R1,R2,...",
                   help="router specs for --counts sweeps")
    p.add_argument("--admit-max", type=int, default=None,
                   metavar="N",
                   help="admission: max outstanding requests per replica")
    p.add_argument("--slo-budget", type=float, default=None,
                   metavar="FACTOR",
                   help="admission: reject when estimated completion "
                        "exceeds FACTOR x the tenant SLO")
    p.add_argument("--fair", action="store_true",
                   help="admission: clip tenants exceeding their "
                        "traffic-weighted share (needs --admit-max)")
    p.add_argument("--autoscale", action="store_true",
                   help="enable the autoscaler (otherwise the whole "
                        "fleet is active)")
    p.add_argument("--min-replicas", type=int, default=1,
                   help="autoscaler floor (and initial active set)")
    p.add_argument("--tick", type=float, default=1_000_000.0,
                   help="autoscaler sampling period (cycles)")
    p.add_argument("--up-threshold", type=float, default=12.0,
                   help="scale up when outstanding/replica exceeds this")
    p.add_argument("--down-threshold", type=float, default=3.0,
                   help="scale down when outstanding/replica stays "
                        "below this")
    p.add_argument("--hold-ticks", type=int, default=3,
                   help="consecutive quiet ticks before scaling down "
                        "(hysteresis)")
    p.add_argument("--power-budget", type=float, default=None,
                   metavar="POWER",
                   help="per-replica chip-level peak-power budget")
    _add_link_args(p)
    _add_runner_args(p)
    _add_format_arg(p)
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "faults",
        help="inject hardware faults into a fleet run, or sweep serving "
             "quality against dead-core count",
        description="Inject a fault model — dead cores (--kill / "
                    "--dead-cores), dead crossbar regions, conductance "
                    "drift forcing periodic weight rewrites, link "
                    "derating, and a mid-trace chip death — then run a "
                    "replicated fleet on the surviving hardware and "
                    "report availability, recovery time, and the fault "
                    "energy ledger.  Plans route around masked "
                    "resources at compile time; drift and death are "
                    "injected at run time.  With --sweep-dead, sweep a "
                    "single-chip serving plan over dead-core counts "
                    "(compiles ride the explore cache) instead.  Zero "
                    "injected faults reproduce the fault-free run bit "
                    "for bit.")
    _add_arch_arg(p, "isaac-flash")
    _add_workload_args(p, rate=80.0, requests=20_000,
                       arrivals="diurnal-bursty")
    _add_fleet_args(p, replicas=4)
    p.add_argument("--kill", type=int, default=0, metavar="N",
                   help="kill N cores, spread evenly across the die")
    p.add_argument("--dead-cores", default=None, metavar="ID,ID,...",
                   help="explicit dead core ids (combines with --kill)")
    p.add_argument("--dead-xbs", default=None, metavar="CORE:XB,...",
                   help="dead crossbar regions as core:crossbar pairs")
    p.add_argument("--drift-interval", type=float, default=None,
                   metavar="CYCLES",
                   help="force a full weight rewrite every CYCLES "
                        "(priced by the write-energy model)")
    p.add_argument("--link-derate", type=float, default=1.0,
                   metavar="FACTOR",
                   help="multiply link bandwidth by FACTOR in (0, 1]")
    p.add_argument("--chip-death", type=float, default=None,
                   metavar="CYCLE",
                   help="kill one replica at this cycle mid-trace")
    p.add_argument("--death-rid", type=int, default=0,
                   help="which replica --chip-death kills")
    p.add_argument("--sweep-dead", default=None, metavar="N1,N2,...",
                   help="degradation sweep over these dead-core counts "
                        "(single-chip serve, not the fleet)")
    _add_link_args(p)
    _add_runner_args(p)
    _add_format_arg(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "trace",
        help="record, analyze, and what-if-replay execution traces",
        description="Trace tooling over the whole stack: `record` runs "
                    "one scenario (single-chip sim, multi-chip shard, "
                    "serve DES, or fleet engine) with span capture on "
                    "and saves the digest-pinned compact trace and/or "
                    "Chrome-trace JSON; `analyze` extracts the critical "
                    "path, bottleneck attribution, and per-tenant / "
                    "per-replica rollups; `whatif` re-prices the "
                    "recording under mutated parameters (link bw/"
                    "latency, compute/reconf speed, batching timeout, "
                    "±chips) without re-running the simulator.")
    tsub = p.add_subparsers(dest="action", required=True)

    r = tsub.add_parser(
        "record", help="run a scenario with trace capture on")
    r.add_argument("--kind", choices=("sim", "shard", "serve", "fleet"),
                   default="sim", help="which engine to record")
    _add_arch_arg(r, "isaac-baseline")
    r.add_argument("--model", default="lenet",
                   help="model-zoo entry (sim/shard kinds)")
    _add_system_args(r)
    _add_workload_args(r, rate=22.0, requests=400, arrivals="poisson",
                       flag="--arrivals")
    _add_fleet_args(r, replicas=4)
    r.add_argument("--out", default=None, metavar="PATH",
                   help="write the compact trace JSON "
                        "(repro.trace.Trace.load-able)")
    r.add_argument("--chrome", default=None, metavar="PATH",
                   help="write Chrome-trace JSON (chrome://tracing / "
                        "Perfetto)")
    _add_format_arg(r)
    r.set_defaults(fn=cmd_trace_record)

    a = tsub.add_parser(
        "analyze",
        help="critical path, attribution, and rollups of a recording")
    a.add_argument("trace",
                   help="trace saved by `repro trace record --out`")
    a.add_argument("--request", type=int, default=None,
                   help="request index to path-analyze (serving traces; "
                        "default: the slowest request)")
    _add_format_arg(a)
    a.set_defaults(fn=cmd_trace_analyze)

    w = tsub.add_parser(
        "whatif",
        help="re-price a recording under mutated parameters")
    w.add_argument("trace",
                   help="trace saved by `repro trace record --out`")
    w.add_argument("--mutate", default="", metavar="KEY=VALUE,...",
                   help="mutation spec: compute/reconf/link_bw/"
                        "link_latency multipliers, timeout=CYCLES, "
                        "chips=±N (empty: identity replay)")
    w.add_argument("--out", default=None, metavar="PATH",
                   help="write the replayed trace JSON")
    _add_format_arg(w)
    w.set_defaults(fn=cmd_trace_whatif)

    p = sub.add_parser(
        "reproduce",
        help="one-command artifact reproduction against golden results",
        description="Run every registered EXPERIMENTS.md figure/table "
                    "and the BENCH suite, compare fresh result digests "
                    "against the committed goldens under "
                    "benchmarks/goldens/ (exact for experiments, "
                    "regression bands for BENCH speedups), check the "
                    "committed document against freshly rendered "
                    "sections, and emit a machine-readable report plus "
                    "a pass/fail table.  Profiles: quick (warm-cache "
                    "friendly, ~5 min) and full (cold caches asserted "
                    "empty, full BENCH workloads).  See "
                    "docs/REPRODUCE.md.")
    p.add_argument("--profile", choices=("quick", "full"),
                   default="quick",
                   help="quick = warm-cache subset sizing; full = "
                        "cold-cache regeneration of everything")
    p.add_argument("--only", default=None, metavar="NAME,...",
                   help="run a subset of registry entries")
    p.add_argument("--bless", action="store_true",
                   help="rewrite the goldens from this run (and "
                        "regenerate EXPERIMENTS.md when every entry ran) "
                        "instead of validating")
    p.add_argument("--check", action="store_true",
                   help="cheap consistency check only: registry titles "
                        "vs EXPERIMENTS.md headings and golden "
                        "self-consistency; runs no generators")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sweep-shaped entries")
    p.add_argument("--cache-dir", default=None,
                   help="explore result cache for the quick profile "
                        "(default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro-explore); the full profile "
                        "always uses a fresh temporary directory")
    p.add_argument("--goldens-dir", default="benchmarks/goldens",
                   help="committed goldens directory")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write reproduce_report.json to PATH")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser(
        "bench",
        help="time the compile→simulate hot path, reference vs fast",
        description="Run the performance benchmarks: each workload "
                    "(compile, duplication search, placement, performance "
                    "sim, the fig22 sensitivity sweep, a 2-tenant serve "
                    "capacity sweep, ...) is timed on the scalar reference "
                    "oracle (repro.perf.reference) and on the production "
                    "kernels, the two result digests are verified "
                    "identical, and the speedups are reported "
                    "({name, wall_s, points, speedup_vs_reference}).")
    p.add_argument("--quick", action="store_true",
                   help="smaller workloads (CI smoke)")
    p.add_argument("--only", default=None, metavar="NAME,...",
                   help="run a subset of benchmarks")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON to PATH (e.g. BENCH_PR4.json)")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "power",
        help="per-model energy/power breakdown on a preset",
        description="Compile each model with the full multi-level "
                    "scheduler and print its energy-per-inference, peak "
                    "and average power, and the Section 4.2 energy "
                    "breakdown (crossbar activation / ADC-DAC conversion "
                    "/ data movement / weight reconfiguration), plus the "
                    "full weight-write energy a serving system pays to "
                    "(re)deploy the model.  See docs/ENERGY.md for the "
                    "model behind the numbers.")
    _add_arch_arg(p, "isaac-baseline")
    p.add_argument("--models", "--model", dest="models",
                   default="resnet18", metavar="MODEL,...",
                   help="comma list of model-zoo entries")
    _add_format_arg(p)
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("codegen",
                       help="emit a meta-operator program (small models)")
    p.add_argument("--arch", default="table2-example",
                   choices=sorted(PRESETS))
    p.add_argument("--model", default="conv-relu")
    p.add_argument("--max-lines", type=int, default=40)
    p.set_defaults(fn=cmd_codegen)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Run one command; a library error (:class:`~repro.errors.CIMError`)
    exits with its one-line message instead of a traceback."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except CIMError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
