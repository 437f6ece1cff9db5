"""Fleet subsystem: plans, routers, admission, autoscaling, determinism."""

import json

import pytest

from repro.arch import ChipLink, functional_testbed
from repro.errors import ScheduleError
from repro.fleet import (
    AdmissionControl,
    Autoscaler,
    FleetPlan,
    LeastLoaded,
    PowerAware,
    RoundRobin,
    SessionAffinity,
    build_fleet,
    build_fleet_cached,
    fleet_sweep,
    fleet_table,
    parse_router,
    simulate_fleet,
)
from repro.perf import CompileCache, reference
from repro.serve import (
    FixedBatch,
    ServiceProfile,
    ServingPlan,
    TenantPlan,
    TenantSpec,
    make_trace,
    simulate,
)
from repro.serve.engine import ReplicaCore
from repro.serve.workload import Request

SMALL_TENANTS = [TenantSpec("lenet", "lenet", weight=2.0),
                 TenantSpec("mlp", "mlp", weight=1.0)]


def replica(latency=100.0, interval=10.0, tenants=("a",), mode="spatial",
            deploy_cycles=1_000.0, deploy_energy=500.0, energy=2.0):
    """One synthetic replica plan with round service numbers."""
    plans = tuple(
        TenantPlan(spec=TenantSpec(name, "mlp"),
                   cores=(i,),
                   service=ServiceProfile(latency_cycles=latency,
                                          interval_cycles=interval,
                                          energy_per_inference=energy,
                                          deploy_cycles=deploy_cycles,
                                          deploy_energy=deploy_energy))
        for i, name in enumerate(tenants)
    )
    return ServingPlan(mode=mode, arch_name="synthetic", tenants=plans)


def zero_link():
    """A free front-end hop, so fleet latencies equal replica latencies."""
    return ChipLink(latency_cycles=0.0, energy_per_bit=0.0)


def fleet(n=2, link=None, request_bits=0.0, response_bits=0.0, **kw):
    return FleetPlan(replicas=tuple(replica(**kw) for _ in range(n)),
                     link=link or zero_link(),
                     request_bits=request_bits,
                     response_bits=response_bits)


def requests(tenant, *arrivals, start_index=0):
    return [Request(start_index + i, tenant, t)
            for i, t in enumerate(arrivals)]


def cores_with_backlog(*backlogs):
    """Replica cores whose estimated backlogs are set by hand."""
    cores = []
    for rid, backlog in enumerate(backlogs):
        core = ReplicaCore(replica(), FixedBatch(1), rid=rid)
        core.backlog_cycles = backlog
        cores.append(core)
    return cores


class TestFleetPlan:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ScheduleError):
            FleetPlan(replicas=())

    def test_mismatched_tenant_sets_rejected(self):
        with pytest.raises(ScheduleError):
            FleetPlan(replicas=(replica(tenants=("a",)),
                                replica(tenants=("a", "b"))))

    def test_with_replicas_truncates_and_grows(self):
        plan = fleet(3)
        assert plan.with_replicas(2).size == 2
        grown = plan.with_replicas(5)
        assert grown.size == 5
        assert grown.replicas[4] == plan.replicas[0]
        with pytest.raises(ScheduleError):
            plan.with_replicas(0)

    def test_deploy_cost_spatial_max_temporal_sum(self):
        def two_tenant(mode):
            plans = tuple(
                TenantPlan(spec=TenantSpec(name, "mlp"), cores=(i,),
                           service=ServiceProfile(
                               latency_cycles=100.0, interval_cycles=10.0,
                               deploy_cycles=cyc, deploy_energy=eng))
                for i, (name, cyc, eng) in enumerate(
                    [("a", 100.0, 40.0), ("b", 300.0, 60.0)]))
            return ServingPlan(mode=mode, arch_name="synthetic",
                               tenants=plans)

        spatial = FleetPlan(replicas=(two_tenant("spatial"),))
        temporal = FleetPlan(replicas=(two_tenant("temporal"),))
        # Spatial regions program concurrently; a shared executor can't.
        assert spatial.deploy_cost(0) == (300.0, 100.0)
        assert temporal.deploy_cost(0) == (400.0, 100.0)

    def test_arch_name_mixed_when_heterogeneous(self):
        hom = fleet(2)
        assert hom.arch_name == "synthetic"
        other = replica()
        object.__setattr__(other, "arch_name", "other")
        het = FleetPlan(replicas=(replica(), other), link=zero_link())
        assert het.arch_name == "mixed"


class TestRouters:
    def test_round_robin_rotates(self):
        cores = cores_with_backlog(0.0, 0.0, 0.0)
        rr = RoundRobin()
        req = Request(0, "a", 0.0)
        picks = [rr.route(req, 0.0, cores, [0, 1, 2]) for _ in range(5)]
        assert picks == [0, 1, 2, 0, 1]

    def test_least_loaded_min_backlog_ties_by_id(self):
        cores = cores_with_backlog(50.0, 10.0, 10.0)
        assert LeastLoaded().route(Request(0, "a", 0.0), 0.0,
                                   cores, [0, 1, 2]) == 1

    def test_affinity_home_and_spill(self):
        cores = cores_with_backlog(99.0, 0.0, 0.0)
        router = SessionAffinity(sessions=4)
        # index 4 -> session 0 -> home replica 0, even under load.
        assert router.route(Request(4, "a", 0.0), 0.0, cores,
                            [0, 1, 2]) == 0
        # Home replica 0 unavailable: spill to least-loaded (id tie -> 1).
        assert router.route(Request(4, "a", 0.0), 0.0, cores, [1, 2]) == 1

    def test_power_aware_first_fit_then_overflow(self):
        cores = cores_with_backlog(30.0, 5.0, 0.0)
        router = PowerAware(headroom_cycles=20.0)
        # Replica 0 is over headroom; 1 is the first with room.
        assert router.route(Request(0, "a", 0.0), 0.0, cores,
                            [0, 1, 2]) == 1
        # Everyone full -> least-loaded takes the overflow.
        full = cores_with_backlog(30.0, 25.0, 40.0)
        assert router.route(Request(0, "a", 0.0), 0.0, full,
                            [0, 1, 2]) == 1

    def test_parse_router_round_trips(self):
        for spec in ("rr", "least-loaded", "affinity:64", "power:1234"):
            assert parse_router(spec).describe() == spec
        assert parse_router("affinity").sessions == 1024
        for bad in ("", "rr:1", "affinity:x", "power:a:b", "random"):
            with pytest.raises(ScheduleError):
                parse_router(bad)

    def test_session_count_validated(self):
        with pytest.raises(ScheduleError):
            SessionAffinity(sessions=0)


class TestAdmission:
    def screen(self, ac, capable, cores, tenant_out=0, share=1.0,
               slo=1_000.0, hop=0.0):
        return ac.screen(Request(0, "a", 0.0), capable, cores,
                         {"a": slo}, hop, {"a": tenant_out}, {"a": share})

    def test_no_capacity(self):
        got = self.screen(AdmissionControl(), [], cores_with_backlog())
        assert got == ([], "no_capacity")

    def test_queue_saturation(self):
        cores = cores_with_backlog(0.0, 0.0)
        for core in cores:
            core.outstanding = 2
        ac = AdmissionControl(max_outstanding=2)
        assert self.screen(ac, [0, 1], cores) == ([], "queue")
        cores[1].outstanding = 1
        assert self.screen(ac, [0, 1], cores) == ([1], None)

    def test_slo_budget_filters_on_estimated_completion(self):
        # Isolated latency is 100; backlog 950 + 100 > 1000 but 0 + 100
        # fits.
        cores = cores_with_backlog(950.0, 0.0)
        ac = AdmissionControl(slo_budget=1.0)
        assert self.screen(ac, [0, 1], cores) == ([1], None)
        assert self.screen(ac, [0], cores) == ([], "slo")
        # The link round-trip counts against the deadline too.
        assert self.screen(ac, [1], cores, hop=950.0) == ([], "slo")

    def test_fairness_clips_over_share_tenant(self):
        cores = cores_with_backlog(0.0, 0.0)
        ac = AdmissionControl(max_outstanding=10, fairness=True)
        # Budget = 10 slots x 2 replicas x 0.25 share = 5.
        assert self.screen(ac, [0, 1], cores, tenant_out=5,
                           share=0.25) == ([], "fairness")
        got = self.screen(ac, [0, 1], cores, tenant_out=4, share=0.25)
        assert got == ([0, 1], None)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            AdmissionControl(max_outstanding=0)
        with pytest.raises(ScheduleError):
            AdmissionControl(slo_budget=0.0)
        with pytest.raises(ScheduleError):
            AdmissionControl(fairness=True)

    def test_describe(self):
        assert AdmissionControl().describe() == "open"
        ac = AdmissionControl(max_outstanding=8, slo_budget=2.0,
                              fairness=True)
        assert ac.describe() == "queue<=8+slo<=2x+fair"


class TestAutoscaler:
    def test_scale_up_is_immediate(self):
        a = Autoscaler(up_threshold=10.0)
        assert a.decide(44, 4, 8) == "up"

    def test_no_up_past_cap(self):
        a = Autoscaler(up_threshold=10.0, max_replicas=4)
        assert a.decide(99, 4, 8) is None

    def test_scale_down_needs_consecutive_quiet_ticks(self):
        a = Autoscaler(down_threshold=3.0, hold_ticks=3)
        assert a.decide(0, 4, 8) is None
        assert a.decide(0, 4, 8) is None
        assert a.decide(0, 4, 8) == "down"
        # Counter reset after the event: quiet ticks start over.
        assert a.decide(0, 4, 8) is None

    def test_busy_tick_resets_the_hold(self):
        a = Autoscaler(up_threshold=12.0, down_threshold=3.0, hold_ticks=2)
        assert a.decide(0, 4, 8) is None
        assert a.decide(20, 4, 8) is None    # mid-band: damps the flap
        assert a.decide(0, 4, 8) is None
        assert a.decide(0, 4, 8) == "down"

    def test_never_below_floor(self):
        a = Autoscaler(min_replicas=2, hold_ticks=1)
        assert a.decide(0, 2, 8) is None

    def test_validation(self):
        with pytest.raises(ScheduleError):
            Autoscaler(tick_cycles=0.0)
        with pytest.raises(ScheduleError):
            Autoscaler(min_replicas=0)
        with pytest.raises(ScheduleError):
            Autoscaler(min_replicas=4, max_replicas=2)
        with pytest.raises(ScheduleError):
            Autoscaler(up_threshold=2.0, down_threshold=3.0)
        with pytest.raises(ScheduleError):
            Autoscaler(hold_ticks=0)


class TestFleetEngine:
    def test_single_replica_zero_link_matches_serve(self):
        # Batch size 1 makes the two engines' batching signals
        # equivalent: the serve engine registers the whole (finite)
        # trace as pending upfront, while a fleet front end only
        # announces a request one hop before it lands — so multi-request
        # batch policies legitimately flush partial batches earlier in a
        # fleet.  With singleton batches the queueing, occupancy, and
        # accounting must agree exactly over a free link.
        plan = replica()
        trace = requests("a", *[float(i * 37) for i in range(30)])
        solo = simulate(plan, trace, policy=FixedBatch(1))
        merged = simulate_fleet(fleet(1), trace, policy=FixedBatch(1))
        assert merged.completed == solo.completed == 30
        assert sorted(merged.tenants[0].latencies) == \
            sorted(solo.tenants[0].latencies)
        assert merged.p50 == solo.p50
        assert merged.p99 == solo.p99
        assert merged.replica_energy == solo.total_energy

    def test_deterministic_digest(self):
        trace = requests("a", *[float(i * 7) for i in range(50)])
        kw = dict(policy=FixedBatch(2),
                  admission=AdmissionControl(max_outstanding=4),
                  autoscaler=Autoscaler(tick_cycles=50.0, hold_ticks=2))
        r1 = simulate_fleet(fleet(3), trace, **kw)
        r2 = simulate_fleet(fleet(3), trace, **kw)
        assert r1.digest() == r2.digest()
        assert r1.to_dict() == r2.to_dict()

    def test_all_replicas_saturated_rejects_with_reason(self):
        # 2 replicas x 1 outstanding slot; 10 simultaneous arrivals.
        trace = requests("a", *[0.0] * 10)
        report = simulate_fleet(
            fleet(2), trace, policy=FixedBatch(1),
            admission=AdmissionControl(max_outstanding=1))
        assert report.completed + report.rejected == 10
        assert report.rejections["queue"] == report.rejected > 0
        assert report.slo_attainment < 1.0

    def test_heterogeneous_capacities_bias_least_loaded(self):
        fast = replica(latency=50.0, interval=5.0)
        slow = replica(latency=500.0, interval=200.0)
        plan = FleetPlan(replicas=(fast, slow), link=zero_link(),
                         request_bits=0.0, response_bits=0.0)
        trace = requests("a", *[float(i * 10) for i in range(200)])
        report = simulate_fleet(plan, trace, policy=FixedBatch(1))
        done = {r.rid: r.completed for r in report.replicas}
        assert done[0] > done[1]
        assert report.completed == 200

    def test_autoscaler_tracks_the_peak_with_hysteresis(self):
        # A front-loaded storm then a long quiet tail: the fleet must
        # scale up during the storm and back down after the hold.
        storm = requests("a", *[float(i) for i in range(120)])
        tail = requests("a", *[3_000.0 + i * 2_000.0 for i in range(12)],
                        start_index=120)
        scaler = Autoscaler(tick_cycles=100.0, min_replicas=1,
                            up_threshold=6.0, down_threshold=2.0,
                            hold_ticks=3)
        report = simulate_fleet(fleet(4), storm + tail,
                                policy=FixedBatch(4), autoscaler=scaler)
        actions = [a for _, a, _ in report.scale_events]
        assert "up" in actions and "down" in actions
        # Single peak => single ramp: every up precedes every down (no
        # flapping), and the hold keeps scale-downs >= hold_ticks apart.
        assert actions == (["up"] * actions.count("up") +
                           ["down"] * actions.count("down"))
        downs = [t for t, a, _ in report.scale_events if a == "down"]
        assert all(b - a >= 3 * 100.0 for a, b in zip(downs, downs[1:]))
        assert report.active_peak > 1
        assert report.initial_active == 1

    def test_spin_up_pays_deploy_energy(self):
        storm = requests("a", *[float(i) for i in range(120)])
        scaler = Autoscaler(tick_cycles=100.0, min_replicas=1,
                            up_threshold=4.0, down_threshold=1.0)
        report = simulate_fleet(fleet(3), storm, policy=FixedBatch(4),
                                autoscaler=scaler)
        # One charge per deployment (incl. the initially active replica),
        # at the synthetic per-replica cost of 500.
        assert report.deployments >= 2
        assert report.deploy_energy == 500.0 * report.deployments
        assert report.total_energy == pytest.approx(
            report.replica_energy + report.deploy_energy
            + report.link_energy)

    def test_static_fleet_charges_initial_deployments(self):
        trace = requests("a", 0.0, 10.0)
        report = simulate_fleet(fleet(3), trace)
        assert report.deployments == 3
        assert report.deploy_energy == 1_500.0
        assert report.scale_events == ()
        assert report.active_peak == 3

    def test_link_charges_both_legs_and_delays_requests(self):
        link = ChipLink(bandwidth_bits=100.0, latency_cycles=10.0,
                        energy_per_bit=2.0)
        plan = FleetPlan(replicas=(replica(),), link=link,
                         request_bits=200.0, response_bits=50.0)
        trace = requests("a", 0.0)
        report = simulate_fleet(plan, trace, policy=FixedBatch(1))
        # Request leg 10 + 200/100 = 12, response leg 10 + 50/100 = 10.5,
        # service 100.
        assert report.p50 == pytest.approx(122.5)
        assert report.link_energy == pytest.approx(200.0 * 2 + 50.0 * 2)

    def test_rerun_reuses_engine_safely(self):
        # Stateful collaborators (rr pointer, autoscaler hold counter)
        # must not leak between runs of the same engine object.
        from repro.fleet import FleetEngine
        trace = requests("a", *[float(i * 5) for i in range(40)])
        engine = FleetEngine(fleet(3), policy=FixedBatch(2),
                             router=RoundRobin(),
                             autoscaler=Autoscaler(tick_cycles=50.0))
        assert engine.run(trace).digest() == engine.run(trace).digest()

    def test_autoscaler_floor_must_fit_fleet(self):
        with pytest.raises(ScheduleError):
            simulate_fleet(fleet(2), [],
                           autoscaler=Autoscaler(min_replicas=3))

    def test_report_json_round_trip(self):
        trace = requests("a", 0.0, 50.0, 100.0)
        report = simulate_fleet(fleet(2), trace)
        payload = json.loads(report.to_json())
        assert payload["fleet_size"] == 2
        assert payload["completed"] == 3
        assert "fleet" in report.table()


class TestSharedCompileCache:
    def test_fleet_compiles_each_model_exactly_once(self):
        arch = functional_testbed()
        solo_cache = CompileCache()
        build_fleet(arch, SMALL_TENANTS, replicas=1, cache=solo_cache)
        solo = solo_cache.stats()

        cache = CompileCache()
        plan = build_fleet(arch, SMALL_TENANTS, replicas=4, cache=cache)
        stats = cache.stats()
        # Replicas 2..4 are pure cache hits: not one extra compile.
        for key in ("profile_misses", "dup_misses", "segment_misses"):
            assert stats[key] == solo[key]
        for key in ("profile_hits", "dup_hits", "segment_hits"):
            assert stats[key] > solo[key]
        assert plan.size == 4
        # Deploy costs flow from the compiled power model.
        cycles, energy = plan.deploy_cost(0)
        assert cycles > 0 and energy > 0

    def test_build_fleet_rejects_zero_replicas(self):
        with pytest.raises(ScheduleError):
            build_fleet(functional_testbed(), SMALL_TENANTS, replicas=0)


class TestFleetPipeline:
    """End-to-end on a real compiled testbed plan."""

    def test_serial_and_fastpath_reports_identical(self):
        arch = functional_testbed()
        trace = make_trace("diurnal-bursty", SMALL_TENANTS, rate=1e-4,
                           num_requests=300, seed=1)
        def digest():
            plan = build_fleet(arch, SMALL_TENANTS, replicas=3)
            return simulate_fleet(
                plan, trace,
                admission=AdmissionControl(max_outstanding=32),
                autoscaler=Autoscaler(tick_cycles=500_000.0,
                                      min_replicas=1)).digest()

        with reference.installed():
            ref = digest()
        assert ref == digest()

    def test_least_loaded_beats_round_robin_p99_under_bursty_load(self):
        # The EXPERIMENTS.md fleet headline's shape claim.  Round-robin
        # is blind to request cost, so a burst of heavy-tenant requests
        # piles onto whichever replica is "next"; least-loaded spreads
        # by estimated backlog.  Heterogeneous per-tenant service costs
        # are what make the difference visible.
        def hetero_replica():
            plans = []
            for i, (name, lat, interval) in enumerate(
                    [("heavy", 1000.0, 500.0), ("light", 50.0, 10.0)]):
                plans.append(TenantPlan(
                    spec=TenantSpec(name, "mlp"), cores=(i,),
                    service=ServiceProfile(latency_cycles=lat,
                                           interval_cycles=interval,
                                           energy_per_inference=2.0,
                                           deploy_cycles=1_000.0,
                                           deploy_energy=500.0)))
            return ServingPlan(mode="spatial", arch_name="synthetic",
                               tenants=tuple(plans))

        specs = [TenantSpec("heavy", "mlp", weight=1.0),
                 TenantSpec("light", "mlp", weight=4.0)]
        plan = FleetPlan(replicas=tuple(hetero_replica() for _ in range(4)),
                        link=zero_link(),
                        request_bits=0.0, response_bits=0.0)
        for seed in (0, 3):
            trace = make_trace("bursty", specs, 4e-3, 4_000, seed=seed)
            p99 = {}
            for spec in ("rr", "least-loaded"):
                report = simulate_fleet(plan, trace,
                                        router=parse_router(spec))
                assert report.completed == 4_000
                p99[spec] = report.p99
            assert p99["least-loaded"] < p99["rr"]

    def test_sweep_grid_and_table(self):
        arch = functional_testbed()
        plan = build_fleet_cached(arch, SMALL_TENANTS, replicas=2)
        trace = make_trace("poisson", SMALL_TENANTS, rate=1e-4,
                           num_requests=120, seed=0)
        points = fleet_sweep(plan, trace, replica_counts=(1, 2),
                             routers=("rr", "least-loaded"))
        assert len(points) == 4
        assert {(p.replicas, p.router) for p in points} == {
            (1, "rr"), (1, "least-loaded"),
            (2, "rr"), (2, "least-loaded")}
        for p in points:
            assert p.report.completed + p.report.rejected == 120
        table = fleet_table(points)
        assert "least-loaded p99" in table and "replicas" in table
