"""Serving simulator: traces, partitioning, engine, reports, sweep bridge."""

import json
import math

import pytest

from repro.arch import functional_testbed, isaac_flash
from repro.errors import CapacityError, ScheduleError
from repro.explore import SweepRunner
from repro.models import get_model
from repro.serve import (
    FixedBatch,
    ServiceProfile,
    ServingEngine,
    ServingPlan,
    TenantPlan,
    TenantSpec,
    TimeoutBatch,
    build_plans,
    bursty_trace,
    capacity_table,
    diurnal_trace,
    make_plan,
    make_trace,
    min_cores,
    parse_policy,
    partition_cores,
    percentile,
    plan_spatial,
    plan_temporal,
    poisson_trace,
    serve_sweep,
    simulate,
    tenant_counts,
)
from repro.serve import engine as engine_mod
from repro.serve.workload import TRACES, Request

SMALL_TENANTS = [TenantSpec("lenet", "lenet", weight=2.0),
                 TenantSpec("mlp", "mlp", weight=1.0)]


def synthetic_plan(mode="spatial", latency=100.0, interval=10.0,
                   switch=5.0, tenants=("a",)):
    """A hand-built plan with round service numbers for exact-value tests."""
    plans = tuple(
        TenantPlan(spec=TenantSpec(name, "mlp"),
                   cores=tuple(range(i * 4, i * 4 + 4)),
                   service=ServiceProfile(latency_cycles=latency,
                                          interval_cycles=interval,
                                          switch_cycles=switch))
        for i, name in enumerate(tenants)
    )
    return ServingPlan(mode=mode, arch_name="synthetic", tenants=plans)


def requests(tenant, *arrivals, start_index=0):
    return [Request(start_index + i, tenant, t)
            for i, t in enumerate(arrivals)]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


class TestTraces:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_deterministic_and_ordered(self, kind):
        a = make_trace(kind, SMALL_TENANTS, rate=1e-4, num_requests=200,
                       seed=7)
        b = make_trace(kind, SMALL_TENANTS, rate=1e-4, num_requests=200,
                       seed=7)
        assert a == b
        assert [r.arrival for r in a] == sorted(r.arrival for r in a)
        assert [r.index for r in a] == list(range(200))

    def test_seed_changes_trace(self):
        a = poisson_trace(SMALL_TENANTS, 1e-4, 50, seed=0)
        b = poisson_trace(SMALL_TENANTS, 1e-4, 50, seed=1)
        assert a != b

    def test_weights_shape_mix(self):
        trace = poisson_trace(SMALL_TENANTS, 1e-4, 3000, seed=0)
        counts = tenant_counts(trace)
        assert counts["lenet"] + counts["mlp"] == 3000
        # 2:1 weights: lenet should take roughly two thirds.
        assert 0.6 < counts["lenet"] / 3000 < 0.73

    def test_mean_rate_roughly_preserved(self):
        rate = 1e-4
        for gen in (poisson_trace, bursty_trace, diurnal_trace):
            trace = gen(SMALL_TENANTS, rate, 2000, seed=3)
            span = trace[-1].arrival
            assert 0.5 < (2000 / span) / rate < 2.0, gen.__name__

    def test_validation(self):
        with pytest.raises(ScheduleError):
            poisson_trace([], 1e-4, 10)
        with pytest.raises(ScheduleError):
            poisson_trace(SMALL_TENANTS, 0.0, 10)
        with pytest.raises(ScheduleError):
            poisson_trace([TenantSpec("x", "mlp"), TenantSpec("x", "mlp")],
                          1e-4, 10)
        with pytest.raises(ScheduleError):
            make_trace("fractal", SMALL_TENANTS, 1e-4, 10)
        with pytest.raises(ScheduleError):
            TenantSpec("x", "mlp", weight=0.0)

    @pytest.mark.parametrize("slo", [0.0, -5.0, float("nan"), float("inf")])
    def test_tenant_slo_cycles_must_be_finite_and_positive(self, slo):
        with pytest.raises(ScheduleError,
                           match="'x': slo_cycles must be finite and > 0"):
            TenantSpec("x", "mlp", slo_cycles=slo)
        assert TenantSpec("x", "mlp", slo_cycles=1.0).slo_cycles == 1.0

    def test_tenant_weight_must_be_finite_and_positive(self):
        for weight in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ScheduleError,
                               match="'x': weight must be finite and > 0"):
                TenantSpec("x", "mlp", weight=weight)

    @pytest.mark.parametrize("kind", sorted(TRACES))
    def test_arrival_rate_must_be_finite_and_positive(self, kind):
        for rate in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ScheduleError,
                               match="arrival rate must be finite and > 0"):
                make_trace(kind, SMALL_TENANTS, rate, 10)


# ---------------------------------------------------------------------------
# Batching policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_parse(self):
        assert parse_policy("fixed:4") == FixedBatch(4)
        assert parse_policy("timeout:8:50000") == TimeoutBatch(8, 50000.0)
        for bad in ("fixed", "fixed:x", "timeout:8", "drop:1", "fixed:0"):
            with pytest.raises(ScheduleError):
                parse_policy(bad)

    def test_fixed_batch_exact_timings(self):
        # Requests at 0,1,2,3; batches of 2; latency 100, interval 10,
        # switch 5 (paid once, first load).  Batch 1 dispatches when the
        # second request lands (t=1): done 1+5+110=116.  Batch 2 starts
        # at completion: done 116+110=226.
        plan = synthetic_plan(tenants=("a",))
        trace = requests("a", 0.0, 1.0, 2.0, 3.0)
        report = ServingEngine(plan, FixedBatch(2)).run(trace)
        lats = report.tenants[0].latencies
        assert lats == (116.0, 115.0, 224.0, 223.0)
        assert report.horizon_cycles == 226.0
        assert report.tenants[0].batches == 2
        assert report.tenants[0].mean_batch == 2.0

    def test_fixed_batch_flushes_tail(self):
        # 3 requests, batch size 4: the trace ends, so the engine must
        # flush the partial batch instead of deadlocking.
        plan = synthetic_plan(tenants=("a",))
        report = ServingEngine(plan, FixedBatch(4)).run(
            requests("a", 0.0, 1.0, 2.0))
        assert report.completed == 3
        assert report.tenants[0].batches == 1

    def test_timeout_batch_fires_timer(self):
        # Arrivals at 0 and 500; timeout 50 dispatches the first request
        # alone at t=50 (done 50+5+100=155); the second flushes on
        # arrival (no more pending): done max(500, 155)+100=600.
        plan = synthetic_plan(tenants=("a",))
        report = ServingEngine(plan, TimeoutBatch(4, 50.0)).run(
            requests("a", 0.0, 500.0))
        assert report.tenants[0].latencies == (155.0, 100.0)

    def test_timeout_batch_caps_size(self):
        plan = synthetic_plan(tenants=("a",))
        report = ServingEngine(plan, TimeoutBatch(2, 1e9)).run(
            requests("a", 0.0, 1.0, 2.0, 3.0))
        assert report.tenants[0].batches == 2
        assert report.tenants[0].mean_batch == 2.0


# ---------------------------------------------------------------------------
# Engine semantics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_empty_trace(self):
        plan = synthetic_plan()
        report = ServingEngine(plan, FixedBatch(1)).run([])
        assert report.completed == 0
        assert report.horizon_cycles == 0.0
        assert report.p99 == 0.0
        assert report.slo_attainment == 1.0
        assert report.utilization == 0.0

    def test_single_tenant_temporal_pays_switch_once(self):
        plan = synthetic_plan(mode="temporal", tenants=("a",))
        report = ServingEngine(plan, FixedBatch(1)).run(
            requests("a", 0.0, 1000.0))
        # Only the initial weight load; the tenant stays resident.
        assert report.switch_cycles == 5.0
        assert report.executors[0].switches == 1

    def test_temporal_alternation_pays_switch_every_time(self):
        plan = synthetic_plan(mode="temporal", tenants=("a", "b"))
        trace = (requests("a", 0.0) + requests("b", 1.0, start_index=1)
                 + requests("a", 2.0, start_index=2))
        report = ServingEngine(plan, FixedBatch(1)).run(trace)
        assert report.executors[0].switches == 3
        assert report.switch_cycles == 15.0

    def test_spatial_regions_run_concurrently(self):
        plan = synthetic_plan(mode="spatial", tenants=("a", "b"), switch=0.0)
        trace = requests("a", 0.0) + requests("b", 0.0, start_index=1)
        report = ServingEngine(plan, FixedBatch(1)).run(trace)
        # Both served in parallel: horizon is one latency, not two.
        assert report.horizon_cycles == 100.0
        assert len(report.executors) == 2

    def test_temporal_serializes_tenants(self):
        plan = synthetic_plan(mode="temporal", tenants=("a", "b"), switch=0.0)
        trace = requests("a", 0.0) + requests("b", 0.0, start_index=1)
        report = ServingEngine(plan, FixedBatch(1)).run(trace)
        assert report.horizon_cycles == 200.0
        assert len(report.executors) == 1

    def test_queue_saturation_rejects(self):
        plan = synthetic_plan(latency=1000.0, interval=1000.0, switch=0.0)
        trace = requests("a", *[float(i) for i in range(40)])
        report = ServingEngine(plan, FixedBatch(1), max_queue=4).run(trace)
        t = report.tenants[0]
        assert t.rejected > 0
        assert t.completed + t.rejected == 40
        assert t.slo_attainment < 1.0   # rejected requests violate the SLO
        assert report.rejected == t.rejected

    def test_unknown_tenant_rejected(self):
        plan = synthetic_plan(tenants=("a",))
        with pytest.raises(ScheduleError):
            ServingEngine(plan, FixedBatch(1)).run(requests("ghost", 0.0))

    @pytest.mark.parametrize("factor",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_slo_factor_must_be_finite_and_positive(self, factor):
        engine = ServingEngine(synthetic_plan(), FixedBatch(1))
        with pytest.raises(ScheduleError,
                           match="slo_factor must be finite and > 0"):
            engine.run(requests("a", 0.0), slo_factor=factor)

    def test_flush_timers_do_not_multiply_on_a_shared_executor(
            self, monkeypatch):
        # Two timeout-batched tenants on one temporal executor, four
        # requests per 10,000-cycle grid time.  Each dispatch attempt
        # arms a timer for every waiting queue; without one timer per
        # (tenant, deadline) the timers re-arm each other and multiply
        # without bound.  A counting loop fails fast past two pushes
        # per request.
        class CappedLoop(engine_mod.EventLoop):
            __slots__ = ()
            pushes = 0
            cap = 0

            def push(self, time, kind, payload):
                CappedLoop.pushes += 1
                if CappedLoop.pushes > CappedLoop.cap:
                    raise AssertionError(
                        f"more than {CappedLoop.cap} event pushes")
                super().push(time, kind, payload)

        monkeypatch.setattr(engine_mod, "EventLoop", CappedLoop)
        plan = make_plan("temporal", functional_testbed(), SMALL_TENANTS)
        policy = parse_policy("timeout:8:50000")
        digests = {}
        for n in (60, 300):
            slots = n // 4   # 15 and 75 grid times, scrambled order
            trace = [Request(i, ("lenet", "mlp")[i % 2],
                             float((i * 7) % slots) * 10_000.0)
                     for i in range(n)]
            CappedLoop.pushes, CappedLoop.cap = 0, 2 * n
            report = simulate(plan, trace, policy=policy, max_queue=64)
            assert report.completed + report.rejected == n
            digests[n] = report.digest()
        # The digest with a timer per dispatch attempt: a timer at a
        # deadline where one is pending only repeats a dispatch attempt
        # at the same time, so deduplicating changes no result.
        assert digests[60] == ("c22303f878215d5fe1b50cbd726abb16"
                               "83b5db8ba97269a190149c678a2cf319")

    def test_percentile_nearest_rank(self):
        lats = [float(x) for x in range(1, 101)]
        assert percentile(lats, 50) == 50.0
        assert percentile(lats, 99) == 99.0
        assert percentile(lats, 100) == 100.0
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            percentile(lats, 0)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


class TestPartition:
    def test_water_filling_respects_floors_and_budget(self):
        arch = functional_testbed()
        floors = {"lenet": 20, "mlp": 3}
        alloc = partition_cores(
            arch, SMALL_TENANTS, floors,
            lambda spec, cores: 1000.0 / cores)
        assert alloc["lenet"] >= 20 and alloc["mlp"] >= 3
        assert sum(alloc.values()) == arch.chip.core_number

    def test_water_filling_grants_to_neediest(self):
        arch = functional_testbed()
        specs = [TenantSpec("hungry", "mlp"), TenantSpec("modest", "mlp")]
        floors = {"hungry": 3, "modest": 3}
        # "hungry" never improves below a huge latency; it should absorb
        # every surplus block.
        alloc = partition_cores(
            arch, specs, floors,
            lambda spec, cores: 1e9 if spec.name == "hungry" else 1.0)
        assert alloc["hungry"] == arch.chip.core_number - 3
        assert alloc["modest"] == 3

    def test_floors_exceed_budget(self):
        arch = functional_testbed().with_cores(10)
        with pytest.raises(CapacityError):
            partition_cores(arch, SMALL_TENANTS, {"lenet": 20, "mlp": 3},
                            lambda spec, cores: 1.0)

    def test_plan_spatial_disjoint_regions(self):
        plan = plan_spatial(functional_testbed(), SMALL_TENANTS)
        all_cores = [c for t in plan.tenants for c in t.cores]
        assert len(all_cores) == len(set(all_cores))
        assert len(all_cores) == functional_testbed().chip.core_number
        for t in plan.tenants:
            assert t.service.switch_cycles == 0.0
            assert t.schedule is not None
            # Region-constrained placement annotated physical cores.
            placed = [
                core
                for node in t.schedule.graph.nodes
                if "cores_placed" in node.annotations
                for core in node.annotations["cores_placed"]
            ]
            assert placed and set(placed) <= set(t.cores)

    def test_plan_spatial_explicit_alloc(self):
        plan = plan_spatial(functional_testbed(), SMALL_TENANTS,
                            alloc={"lenet": 24, "mlp": 8})
        assert len(plan.tenant("lenet").cores) == 24
        with pytest.raises(CapacityError):
            plan_spatial(functional_testbed(), SMALL_TENANTS,
                         alloc={"lenet": 40, "mlp": 8})
        with pytest.raises(CapacityError):
            plan_spatial(functional_testbed(), SMALL_TENANTS,
                         alloc={"lenet": 10, "mlp": 8})

    def test_plan_temporal_charges_weight_load(self):
        plan = plan_temporal(functional_testbed(), SMALL_TENANTS)
        for t in plan.tenants:
            assert t.service.switch_cycles > 0.0
            assert len(t.cores) == functional_testbed().chip.core_number
        assert plan.shared_executor

    def test_make_plan_dispatch(self):
        with pytest.raises(ScheduleError):
            make_plan("quantum", functional_testbed(), SMALL_TENANTS)

    def test_service_profile_batches(self):
        s = ServiceProfile(latency_cycles=100.0, interval_cycles=10.0)
        assert s.batch_cycles(1) == 100.0
        assert s.batch_cycles(4) == 130.0
        assert s.batch_cycles(0) == 0.0

    def test_service_profile_from_summary(self):
        summary = {"total_cycles": 50.0, "steady_state_interval": 5.0,
                   "weight_load_cycles": 7.0}
        assert ServiceProfile.from_summary(summary).switch_cycles == 7.0
        assert ServiceProfile.from_summary(
            summary, switch_cycles=0.0).switch_cycles == 0.0

    def test_min_cores_positive(self):
        assert min_cores(get_model("lenet"), functional_testbed()) == 20


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestMemory:
    def test_memory_per_request_is_bounded(self, traced_peak):
        # A completed request leaves one latency float behind; nothing
        # else the run allocates may grow faster than the trace.
        specs = [TenantSpec("mlp", "mlp", 3.0),
                 TenantSpec("lenet", "lenet", 1.0)]
        plan = make_plan("spatial", functional_testbed(), specs)
        n = 20_000
        trace = make_trace("diurnal-bursty", specs, 1e-4, n, seed=0)
        engine = ServingEngine(plan, TimeoutBatch(8, 50_000.0))
        report, peak, _ = traced_peak(lambda: engine.run(trace))
        assert report.completed + report.rejected == n
        assert peak / n <= 128


class TestDeterminism:
    def test_bit_identical_reports(self):
        arch = functional_testbed()
        trace = make_trace("bursty", SMALL_TENANTS, rate=5e-4,
                           num_requests=300, seed=11)
        dicts = []
        for _ in range(2):
            plan = make_plan("spatial", arch, SMALL_TENANTS)
            report = simulate(plan, trace, policy=TimeoutBatch(4, 2000.0))
            dicts.append(report.to_dict())
        assert dicts[0] == dicts[1]
        assert json.dumps(dicts[0], sort_keys=True) == \
            json.dumps(dicts[1], sort_keys=True)

    def test_temporal_deterministic_too(self):
        arch = functional_testbed()
        trace = poisson_trace(SMALL_TENANTS, rate=5e-4, num_requests=200,
                              seed=4)
        runs = [
            simulate(plan_temporal(arch, SMALL_TENANTS), trace,
                     policy=FixedBatch(3)).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The headline scenario (acceptance criterion)
# ---------------------------------------------------------------------------


class TestHeadline:
    def test_spatial_beats_temporal_p99(self):
        """Partitioned multi-tenant serving beats time-multiplexed
        reconfiguration on p99 for mixed resnet18+mobilenet traffic."""
        arch = isaac_flash()
        tenants = [TenantSpec("resnet18", "resnet18", weight=4.0),
                   TenantSpec("mobilenet", "mobilenet", weight=1.0)]
        trace = poisson_trace(tenants, rate=22e-6, num_requests=400, seed=0)
        policy = TimeoutBatch(max_size=8, timeout=50_000.0)
        spatial = simulate(make_plan("spatial", arch, tenants), trace,
                           policy=policy)
        temporal = simulate(make_plan("temporal", arch, tenants), trace,
                            policy=policy)
        assert spatial.completed == temporal.completed == 400
        assert spatial.p99 < temporal.p99
        assert spatial.slo_attainment > temporal.slo_attainment
        # The baseline pays real reconfiguration; partitioning pays none.
        assert temporal.switch_cycles > 0
        assert spatial.switch_cycles == 0
        # Full metric surface is reported.
        d = spatial.to_dict()
        for key in ("throughput_per_mcycle", "p50", "p95", "p99",
                    "utilization", "slo_attainment"):
            assert d[key] >= 0


# ---------------------------------------------------------------------------
# Explore bridge
# ---------------------------------------------------------------------------


class TestSweepBridge:
    def test_plans_match_live_compiles(self, tmp_path):
        arch = functional_testbed()
        plans = build_plans(arch, SMALL_TENANTS,
                            runner=SweepRunner(cache_dir=str(tmp_path)))
        live_spatial = plan_spatial(arch, SMALL_TENANTS, place=False)
        live_temporal = plan_temporal(arch, SMALL_TENANTS)
        for live, bridged in ((live_spatial, plans["spatial"]),
                              (live_temporal, plans["temporal"])):
            for lt, bt in zip(live.tenants, bridged.tenants):
                assert lt.service == bt.service
                assert lt.cores == bt.cores

    def test_sweep_cached_rerun_identical(self, tmp_path):
        arch = functional_testbed()
        kwargs = dict(rates=[2e-4, 5e-4], num_requests=120, seed=2,
                      policies=[TimeoutBatch(4, 2000.0)])
        cold = serve_sweep(arch, SMALL_TENANTS,
                           runner=SweepRunner(cache_dir=str(tmp_path)),
                           **kwargs)
        warm = serve_sweep(arch, SMALL_TENANTS,
                           runner=SweepRunner(cache_dir=str(tmp_path)),
                           **kwargs)
        assert [p.report.to_dict() for p in cold] == \
            [p.report.to_dict() for p in warm]
        assert len(cold) == 2 * 2  # rates x modes
        table = capacity_table(cold)
        assert "spatial p99" in table and "temporal p99" in table

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScheduleError):
            build_plans(functional_testbed(), SMALL_TENANTS,
                        modes=("spatial", "warp"))


# ---------------------------------------------------------------------------
# Power budgets and energy accounting (acceptance criterion)
# ---------------------------------------------------------------------------


class TestPowerBudget:
    def test_budget_reshapes_a_mix_the_uncapped_planner_accepts(self):
        """The capped planner down-duplicates a tenant mix that the
        uncapped planner happily over-provisions."""
        arch = functional_testbed()
        uncapped = plan_spatial(arch, SMALL_TENANTS)
        budget = 0.7 * uncapped.peak_power
        capped = plan_spatial(arch, SMALL_TENANTS, power_budget=budget)
        assert uncapped.peak_power > budget       # the mix needed reshaping
        assert capped.peak_power <= budget
        assert capped.power_budget == budget and uncapped.power_budget is None
        # Reshaping = some tenant lost cores; nobody gained any.
        before = {t.spec.name: len(t.cores) for t in uncapped.tenants}
        after = {t.spec.name: len(t.cores) for t in capped.tenants}
        assert any(after[n] < before[n] for n in before)
        assert all(after[n] <= before[n] for n in before)

    def test_budget_below_floors_rejects_the_mix(self):
        with pytest.raises(CapacityError, match="residency floors"):
            plan_spatial(functional_testbed(), SMALL_TENANTS,
                         power_budget=1e-6)

    def test_temporal_rejects_over_budget_tenant(self):
        arch = functional_testbed()
        peak = plan_temporal(arch, SMALL_TENANTS).peak_power
        with pytest.raises(CapacityError, match="full chip"):
            plan_temporal(arch, SMALL_TENANTS, power_budget=0.9 * peak)
        # A generous budget passes through untouched.
        ok = plan_temporal(arch, SMALL_TENANTS, power_budget=2 * peak)
        assert ok.peak_power <= 2 * peak

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
    def test_meaningless_budget_is_refused(self, budget, tmp_path):
        # The live planners (and so the fleet) and the cached bridge.
        arch = functional_testbed()
        message = "power budget must be finite and > 0"
        for plan in (plan_spatial, plan_temporal):
            with pytest.raises(ScheduleError, match=message):
                plan(arch, SMALL_TENANTS, power_budget=budget)
        with pytest.raises(ScheduleError, match=message):
            build_plans(arch, SMALL_TENANTS,
                        runner=SweepRunner(cache_dir=str(tmp_path)),
                        power_budget=budget)

    def test_temporal_peak_is_max_not_sum(self):
        arch = functional_testbed()
        spatial = plan_spatial(arch, SMALL_TENANTS)
        temporal = plan_temporal(arch, SMALL_TENANTS)
        assert temporal.peak_power == pytest.approx(
            max(t.service.peak_power for t in temporal.tenants))
        assert spatial.peak_power == pytest.approx(
            sum(t.service.peak_power for t in spatial.tenants))

    def test_bridge_budget_matches_live_planner(self, tmp_path):
        arch = functional_testbed()
        budget = 0.7 * plan_spatial(arch, SMALL_TENANTS).peak_power
        live = plan_spatial(arch, SMALL_TENANTS, place=False,
                            power_budget=budget)
        bridged = build_plans(arch, SMALL_TENANTS, modes=("spatial",),
                              runner=SweepRunner(cache_dir=str(tmp_path)),
                              power_budget=budget)["spatial"]
        for lt, bt in zip(live.tenants, bridged.tenants):
            assert lt.service == bt.service
            assert lt.cores == bt.cores

    def test_bridge_temporal_rejects_over_budget(self, tmp_path):
        arch = functional_testbed()
        peak = plan_temporal(arch, SMALL_TENANTS).peak_power
        with pytest.raises(CapacityError):
            build_plans(arch, SMALL_TENANTS, modes=("temporal",),
                        runner=SweepRunner(cache_dir=str(tmp_path)),
                        power_budget=0.9 * peak)

    def test_capped_report_stays_within_budget(self):
        arch = functional_testbed()
        budget = 0.7 * plan_spatial(arch, SMALL_TENANTS).peak_power
        plan = plan_spatial(arch, SMALL_TENANTS, power_budget=budget)
        trace = make_trace("poisson", SMALL_TENANTS, 2e-4, 100, seed=1)
        report = simulate(plan, trace)
        assert report.power_budget == budget
        assert report.peak_power <= budget
        assert report.completed == 100
        d = report.to_dict()
        assert d["power_budget"] == budget and d["peak_power"] <= budget

    def test_sharded_plan_rejects_budget(self):
        with pytest.raises(ScheduleError, match="spatial/temporal"):
            make_plan("sharded", functional_testbed(), SMALL_TENANTS,
                      power_budget=10.0)


class TestEnergyAccounting:
    def test_exact_energy_bookkeeping_per_batch_and_switch(self):
        """Hand-built plan: energy = batches x per-inference + switches."""
        plan = ServingPlan(
            mode="temporal", arch_name="synthetic",
            tenants=(
                TenantPlan(spec=TenantSpec("a", "mlp"), cores=(0, 1),
                           service=ServiceProfile(
                               latency_cycles=100.0, interval_cycles=10.0,
                               switch_cycles=5.0, energy_per_inference=7.0,
                               switch_energy=3.0, peak_power=2.0)),
                TenantPlan(spec=TenantSpec("b", "mlp"), cores=(0, 1),
                           service=ServiceProfile(
                               latency_cycles=100.0, interval_cycles=10.0,
                               switch_cycles=5.0, energy_per_inference=11.0,
                               switch_energy=13.0, peak_power=4.0)),
            ))
        # a, then b, then a again: three batches of one, three switches.
        trace = requests("a", 0.0) + requests("b", 200.0, start_index=1) \
            + requests("a", 500.0, start_index=2)
        report = ServingEngine(plan, FixedBatch(1)).run(trace)
        a = report.tenants[0]
        b = report.tenants[1]
        assert a.energy == pytest.approx(2 * (7.0 + 3.0))
        assert b.energy == pytest.approx(11.0 + 13.0)
        assert a.energy_per_request == pytest.approx(10.0)
        assert report.total_energy == pytest.approx(a.energy + b.energy)
        assert report.avg_power == pytest.approx(
            report.total_energy / report.horizon_cycles)
        assert report.peak_power == pytest.approx(4.0)  # temporal: max

    def test_spatial_tenants_pay_no_switch_energy(self):
        arch = functional_testbed()
        plan = make_plan("spatial", arch, SMALL_TENANTS)
        trace = make_trace("poisson", SMALL_TENANTS, 2e-4, 80, seed=3)
        report = simulate(plan, trace)
        per_inf = {t.spec.name: t.service.energy_per_inference
                   for t in plan.tenants}
        for t in report.tenants:
            assert t.energy == pytest.approx(t.completed * per_inf[t.tenant])
        assert report.total_energy == pytest.approx(
            sum(t.energy for t in report.tenants))

    def test_temporal_switches_add_energy(self):
        arch = functional_testbed()
        trace = make_trace("poisson", SMALL_TENANTS, 2e-4, 80, seed=3)
        spatial = simulate(make_plan("spatial", arch, SMALL_TENANTS), trace)
        temporal = simulate(make_plan("temporal", arch, SMALL_TENANTS),
                            trace)
        switch_energy = {
            t.spec.name: t.service.switch_energy
            for t in make_plan("temporal", arch, SMALL_TENANTS).tenants}
        assert all(e > 0 for e in switch_energy.values())
        # Executor energy decomposes into batches + switch reprograms.
        ex = temporal.executors[0]
        batch_energy = sum(t.energy for t in temporal.tenants)
        assert ex.energy == pytest.approx(batch_energy)
        assert ex.switches > 0
        assert temporal.total_energy > spatial.total_energy \
            or temporal.switch_cycles > 0

    def test_energy_deterministic(self):
        arch = functional_testbed()
        trace = make_trace("bursty", SMALL_TENANTS, 5e-4, 150, seed=7)
        runs = [simulate(make_plan("temporal", arch, SMALL_TENANTS),
                         trace).to_dict() for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0]["total_energy"] > 0
