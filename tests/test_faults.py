"""Fault injection: fuzzed masks, bit-identity gates, degraded goldens.

Three property families guard :mod:`repro.faults`:

* **Safety** — under any fuzzed fault mask, no placement ever touches
  dead silicon and no shard stage exceeds its chip's surviving
  capacity (hypothesis generates the masks).
* **Bit-identity** — a zero fault model reproduces the fault-free path
  bit for bit across serve, fleet, shard, and trace, with the fast
  path on or off.
* **Determinism** — fixed-seed degraded runs pin exact digests
  (engine, fleet, trace), and degraded recordings replay and analyze
  exactly like healthy ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MultiChipSystem, functional_testbed
from repro.errors import CapacityError, CIMError, ScheduleError
from repro.faults import (
    FaultModel,
    degradation_sweep,
    plan_degraded,
    spread_mask,
    sweep_digest,
    sweep_rows,
)
from repro.fleet import Autoscaler, build_fleet, simulate_fleet
from repro.models import lenet
from repro.perf import reference
from repro.scale import shard
from repro.serve import TenantSpec, make_plan, make_trace, simulate
from repro.trace import (
    CATEGORIES,
    Trace,
    attribute,
    record_fleet,
    replay,
    request_latencies,
    request_path,
)

ARCH = functional_testbed()
SPECS = [TenantSpec("mlp", "mlp", 2.0),
         TenantSpec("tiny", "tiny_conv", 1.0)]


def _trace(n=400, rate=4e-6, seed=0, kind="poisson"):
    return make_trace(kind, SPECS, rate, n, seed=seed)


@pytest.fixture(scope="module")
def fleet_plan():
    return build_fleet(ARCH, SPECS, replicas=3)


# ---------------------------------------------------------------------------
# The model itself
# ---------------------------------------------------------------------------


class TestFaultModel:
    def test_normalises_sorted_unique(self):
        f = FaultModel(dead_cores=(7, 3, 7, 1),
                       dead_crossbars=((2, 1), (2, 1), (0, 3)))
        assert f.dead_cores == (1, 3, 7)
        assert f.dead_crossbars == ((0, 3), (2, 1))

    def test_validation(self):
        with pytest.raises(CIMError):
            FaultModel(dead_cores=(-1,))
        with pytest.raises(CIMError):
            FaultModel(drift_interval=0.0)
        with pytest.raises(CIMError):
            FaultModel(link_derate=0.0)
        with pytest.raises(CIMError):
            FaultModel(link_derate=1.5)
        with pytest.raises(CIMError):
            FaultModel(chip_death_time=-1.0)
        with pytest.raises(CIMError):
            FaultModel(chip_death_rid=-2)

    def test_is_zero(self):
        assert FaultModel().is_zero()
        for f in (FaultModel(dead_cores=(0,)),
                  FaultModel(drift_interval=1.0),
                  FaultModel(link_derate=0.5),
                  FaultModel(chip_death_time=5.0)):
            assert not f.is_zero()

    def test_dict_roundtrip(self):
        f = FaultModel(dead_cores=(1, 5), dead_crossbars=((2, 0),),
                       drift_interval=100.0, link_derate=0.25,
                       chip_death_time=9.0, chip_death_rid=2)
        assert FaultModel.from_dict(f.to_dict()) == f
        assert FaultModel.from_dict(FaultModel().to_dict()).is_zero()

    def test_surviving_cores_excludes_dead_and_xb_dead(self):
        xb = ARCH.core.xb_number
        # core 2 loses every crossbar -> counts as dead
        f = FaultModel(dead_cores=(0,),
                       dead_crossbars=tuple((2, i) for i in range(xb)))
        survivors = f.surviving_cores(ARCH)
        assert 0 not in survivors and 2 not in survivors
        assert len(survivors) == ARCH.chip.core_number - 2

    def test_ids_beyond_die_ignored(self):
        f = FaultModel(dead_cores=(10_000,))
        assert len(f.surviving_cores(ARCH)) == ARCH.chip.core_number

    def test_degrade_arch_shrinks(self):
        f = FaultModel(dead_cores=(3, 7), dead_crossbars=((5, 0),))
        degraded = f.degrade_arch(ARCH)
        assert degraded.chip.core_number == ARCH.chip.core_number - 2
        assert degraded.core.xb_number == ARCH.core.xb_number - 1

    def test_degrade_arch_nothing_left(self):
        f = FaultModel(dead_cores=tuple(range(ARCH.chip.core_number)))
        with pytest.raises(CapacityError, match="dead_cores"):
            f.degrade_arch(ARCH)

    def test_spread_mask(self):
        assert spread_mask(16, 4) == (0, 4, 8, 12)
        assert spread_mask(16, 0) == ()
        mask = spread_mask(768, 96)
        assert len(mask) == 96 and len(set(mask)) == 96
        assert all(0 <= c < 768 for c in mask)
        with pytest.raises(CIMError):
            spread_mask(8, 9)


# ---------------------------------------------------------------------------
# Zero-fault bit-identity
# ---------------------------------------------------------------------------


class TestZeroFaultBitIdentity:
    def test_plan_degraded_zero_is_make_plan(self):
        trace = _trace()
        base = simulate(make_plan("spatial", ARCH, SPECS), trace)
        for fault in (None, FaultModel()):
            plan = plan_degraded(ARCH, SPECS, fault)
            assert simulate(plan, trace).digest() == base.digest()

    def test_fleet_zero_fault_bit_identical(self, fleet_plan):
        trace = _trace()
        base = simulate_fleet(fleet_plan, trace)
        zero = simulate_fleet(fleet_plan, trace, fault=FaultModel())
        assert zero.digest() == base.digest()
        assert zero.fault is None and "fault" not in zero.to_dict()

    def test_recorded_zero_fault_bit_identical(self, fleet_plan):
        trace = _trace()
        r0, t0 = record_fleet(fleet_plan, trace)
        r1, t1 = record_fleet(fleet_plan, trace, fault=FaultModel())
        assert t1.digest() == t0.digest()
        assert r1.digest() == r0.digest()

    def test_shard_zero_fault_bit_identical(self):
        system = MultiChipSystem(ARCH, 2)
        base = shard(lenet(), system)
        zero = shard(lenet(), system, faults=FaultModel())
        assert zero.to_dict() == base.to_dict()


# ---------------------------------------------------------------------------
# Fuzzed fault masks (hypothesis)
# ---------------------------------------------------------------------------

mask_strategy = st.builds(
    lambda cores, xbs: FaultModel(
        dead_cores=tuple(cores),
        dead_crossbars=tuple((c, x) for c, x in xbs)),
    cores=st.sets(st.integers(0, ARCH.chip.core_number - 1), max_size=12),
    xbs=st.sets(st.tuples(st.integers(0, ARCH.chip.core_number - 1),
                          st.integers(0, ARCH.core.xb_number - 1)),
                max_size=6),
)


def _placed_cores(plan):
    """Every physical core id any tenant schedule placed onto."""
    used = set()
    for t in plan.tenants:
        if t.schedule is None:
            continue
        for node in t.schedule.graph.nodes:
            used.update(node.annotations.get("cores_placed", ()))
    return used


class TestFuzzedMasks:
    @settings(max_examples=25, deadline=None)
    @given(fault=mask_strategy)
    def test_placement_never_touches_dead_silicon(self, fault):
        survivors = set(fault.surviving_cores(ARCH))
        try:
            plan = plan_degraded(ARCH, SPECS, fault)
        except CapacityError as exc:
            # Infeasible masks must name the resource mask.
            assert "dead" in str(exc) or "survivors" in str(exc)
            return
        for t in plan.tenants:
            assert set(t.cores) <= survivors
        assert _placed_cores(plan) <= survivors

    @settings(max_examples=10, deadline=None)
    @given(dead0=st.sets(st.integers(0, 31), max_size=8),
           dead1=st.sets(st.integers(0, 31), max_size=8))
    def test_shard_stages_fit_surviving_capacity(self, dead0, dead1):
        system = MultiChipSystem(ARCH, 2)
        faults = {0: FaultModel(dead_cores=tuple(dead0)),
                  1: FaultModel(dead_cores=tuple(dead1))}
        pools = [set(f.surviving_cores(ARCH)) for f in faults.values()]
        try:
            plan = shard(lenet(), system, faults=faults)
        except CapacityError:
            return
        for idx in range(plan.num_stages):
            assert plan.stage_cores_used(idx) <= len(pools[idx])
            placed = set()
            for node in plan.schedules[idx].graph.nodes:
                placed.update(node.annotations.get("cores_placed", ()))
            assert placed <= pools[idx]

    @settings(max_examples=6, deadline=None)
    @given(fault=mask_strategy)
    def test_fastpath_digest_equality_under_mask(self, fault):
        trace = _trace(n=80)
        def digest():
            try:
                plan = plan_degraded(ARCH, SPECS, fault)
            except CapacityError:
                return "infeasible"
            return simulate(plan, trace).digest()

        with reference.installed():
            ref = digest()
        assert ref == digest()


# ---------------------------------------------------------------------------
# Run-time injection: drift and chip death
# ---------------------------------------------------------------------------


class TestDriftInjection:
    def test_drift_rewrites_and_energy(self, fleet_plan):
        trace = _trace()
        horizon = trace[-1].arrival
        fault = FaultModel(drift_interval=horizon / 5)
        report = simulate_fleet(fleet_plan, trace, fault=fault)
        assert report.drift_rewrites > 0
        assert report.fault_energy > 0
        assert report.fault["drift_stall_cycles"] > 0
        base = simulate_fleet(fleet_plan, trace)
        assert report.total_energy == pytest.approx(
            base.replica_energy + report.deploy_energy
            + report.link_energy + report.fault_energy, rel=0.5)

    def test_drift_prices_resident_deploy(self, fleet_plan):
        trace = _trace()
        horizon = trace[-1].arrival
        fault = FaultModel(drift_interval=horizon / 3)
        report = simulate_fleet(fleet_plan, trace, fault=fault)
        # Each rewrite pays some tenant's deploy energy: the total is a
        # sum of per-executor deploy energies, so it divides evenly.
        deploys = {t.spec.name: t.service.deploy_energy
                   for p in fleet_plan.replicas for t in p.tenants}
        assert report.fault_energy > 0
        assert min(deploys.values()) <= report.fault_energy

    def test_drift_report_fields_in_export(self, fleet_plan):
        trace = _trace(n=150)
        fault = FaultModel(drift_interval=trace[-1].arrival / 2)
        report = simulate_fleet(fleet_plan, trace, fault=fault)
        exported = report.to_dict()["fault"]
        assert exported["model"] == fault.to_dict()
        assert exported["drift_rewrites"] == report.drift_rewrites
        assert "availability" in exported


class TestChipDeath:
    def test_death_without_spare(self, fleet_plan):
        trace = _trace()
        t_death = trace[len(trace) // 2].arrival
        fault = FaultModel(chip_death_time=t_death, chip_death_rid=1)
        report = simulate_fleet(fleet_plan, trace, fault=fault)
        death = report.fault["chip_death"]
        assert death["rid"] == 1 and death["time"] == t_death
        assert death["replacement"] is None
        assert report.recovery_cycles is None
        assert 0.0 < report.availability < 1.0
        assert any(e[1] == "fail" for e in report.scale_events)

    def test_death_with_spare_recovers(self):
        plan = build_fleet(ARCH, SPECS, replicas=3)
        trace = _trace()
        t_death = trace[len(trace) // 2].arrival
        fault = FaultModel(chip_death_time=t_death, chip_death_rid=0)
        scaler = Autoscaler(min_replicas=2)
        report = simulate_fleet(plan, trace, autoscaler=scaler,
                                fault=fault)
        death = report.fault["chip_death"]
        if death["was_active"]:
            assert death["replacement"] is not None
            assert report.recovery_cycles > 0
            assert report.availability > 0.9

    def test_lost_and_rerouted_accounting(self, fleet_plan):
        trace = _trace()
        t_death = trace[len(trace) // 2].arrival
        fault = FaultModel(chip_death_time=t_death, chip_death_rid=1)
        report = simulate_fleet(fleet_plan, trace, fault=fault)
        lost = report.fault["lost_requests"]
        assert report.rejections.get("chip_death", 0) == lost
        assert report.completed + report.rejected == len(trace)

    def test_death_rid_validated(self, fleet_plan):
        fault = FaultModel(chip_death_time=10.0, chip_death_rid=99)
        with pytest.raises(ScheduleError):
            simulate_fleet(fleet_plan, _trace(n=50), fault=fault)

    def test_availability_is_one_without_death(self, fleet_plan):
        fault = FaultModel(drift_interval=1e9)
        report = simulate_fleet(fleet_plan, _trace(n=100), fault=fault)
        assert report.fault["availability"] == 1.0
        assert report.fault["chip_death"] is None


# ---------------------------------------------------------------------------
# Trace: the fault span category end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def degraded_recording(fleet_plan):
    trace = _trace()
    horizon = trace[-1].arrival
    fault = FaultModel(drift_interval=horizon / 4,
                       chip_death_time=horizon / 2, chip_death_rid=1)
    report, rec = record_fleet(fleet_plan, trace, fault=fault)
    return report, rec


class TestFaultTraceCategory:
    def test_fault_is_a_category(self):
        assert "fault" in CATEGORIES
        # Appended last: compact-format category indices stay stable.
        assert CATEGORIES[-1] == "fault"

    def test_recording_contains_fault_spans(self, degraded_recording):
        report, trace = degraded_recording
        cats = {s.cat for s in trace.spans}
        assert "fault" in cats
        names = {s.name for s in trace.spans if s.cat == "fault"}
        assert any(n.startswith("drift:") for n in names)
        assert any(n.startswith("chip_death:") for n in names)

    def test_report_embeds_trace_digest(self, degraded_recording):
        report, trace = degraded_recording
        assert report.trace_digest == trace.digest()

    def test_chrome_export_includes_fault_spans(self, degraded_recording):
        _, trace = degraded_recording
        chrome = trace.to_chrome()
        events = [e for e in chrome["traceEvents"]
                  if e.get("cat") == "fault"]
        assert events

    def test_compact_roundtrip_preserves_digest(self, tmp_path,
                                                degraded_recording):
        _, trace = degraded_recording
        path = str(tmp_path / "degraded.json")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.digest() == trace.digest()
        assert {s.cat for s in loaded.spans} == {s.cat for s in trace.spans}

    def test_identity_replay_bit_identical_drift(self, fleet_plan):
        trace = _trace()
        fault = FaultModel(drift_interval=trace[-1].arrival / 4)
        _, rec = record_fleet(fleet_plan, trace, fault=fault)
        assert replay(rec).trace.digest() == rec.digest()

    def test_identity_replay_bit_identical_death(self, degraded_recording):
        _, trace = degraded_recording
        assert replay(trace).trace.digest() == trace.digest()

    def test_request_path_sums_exactly_on_degraded(self,
                                                   degraded_recording):
        _, trace = degraded_recording
        lats = request_latencies(trace)
        worst = max(lats, key=lambda i: (lats[i], i))
        path = request_path(trace, worst)
        assert path.total == pytest.approx(lats[worst], rel=1e-12)

    def test_attribution_gains_fault_axis(self, fleet_plan,
                                          degraded_recording):
        _, degraded = degraded_recording
        out = attribute(degraded)
        assert out["magnitudes"].get("fault", 0.0) > 0.0
        _, healthy = record_fleet(fleet_plan, _trace(n=100))
        assert "fault" not in attribute(healthy)["magnitudes"]


# ---------------------------------------------------------------------------
# Capacity errors carry the resource mask
# ---------------------------------------------------------------------------


class TestCapacityErrorMasks:
    def test_plan_degraded_names_mask(self):
        n = ARCH.chip.core_number
        fault = FaultModel(dead_cores=tuple(range(1, n)))  # one survivor
        with pytest.raises(CapacityError) as err:
            plan_degraded(ARCH, SPECS, fault)
        msg = str(err.value)
        assert "dead_cores" in msg and "survivors" in msg

    def test_region_shortfall_names_pool(self):
        with pytest.raises(CapacityError, match="pool"):
            make_plan("spatial", ARCH.with_cores(8), SPECS,
                      core_pool=(0, 1, 2, 3),
                      die_cores=ARCH.chip.core_number)

    def test_shard_infeasible_names_surviving_capacity(self):
        system = MultiChipSystem(ARCH, 2)
        faults = FaultModel(dead_cores=tuple(range(26)))  # 6 left/chip
        with pytest.raises(CapacityError,
                           match="surviving cores per chip"):
            shard(lenet(), system, faults=faults)


# ---------------------------------------------------------------------------
# Degradation sweep
# ---------------------------------------------------------------------------


class TestDegradationSweep:
    @pytest.fixture(scope="class")
    def points(self, tmp_path_factory):
        from repro.explore import SweepRunner

        cache = str(tmp_path_factory.mktemp("faults-sweep"))
        return degradation_sweep(
            ARCH, SPECS, [0, 4, 8, ARCH.chip.core_number], 4e-6,
            num_requests=150, seed=0,
            runner=SweepRunner(cache_dir=cache))

    def test_point_shapes(self, points):
        assert [p.dead for p in points] == [0, 4, 8,
                                            ARCH.chip.core_number]
        for p in points[:3]:
            assert p.feasible and p.report.completed > 0
            assert set(p.fault.dead_cores) == \
                set(spread_mask(ARCH.chip.core_number, p.dead))

    def test_all_cores_dead_is_infeasible(self, points):
        last = points[-1]
        assert not last.feasible and last.report is None
        assert "dead_cores" in last.error or "cores" in last.error
        assert last.row()["feasible"] is False

    def test_deterministic_digest(self, points):
        repeat = degradation_sweep(ARCH, SPECS,
                                   [0, 4, 8, ARCH.chip.core_number],
                                   4e-6, num_requests=150, seed=0)
        assert sweep_digest(repeat) == sweep_digest(points)
        assert sweep_rows(repeat) == sweep_rows(points)


# ---------------------------------------------------------------------------
# Golden degraded digests (fixed seed => these exact hashes)
# ---------------------------------------------------------------------------

#: Captured at PR 8 on functional_testbed with SPECS, _trace(seed=0).
GOLDEN = {
    "serve_degraded": "f3d46907eb132c40ec1026f2ac7767bc"
                      "d740a9fdb25407a6d33f50a3f5bb84dd",
    "fleet_injected": "f5f08bf7f295de6a816d9c78b0baebe1"
                      "7d077b2cd8a13397efffff8a9c92a6b6",
    "trace_injected": "d8a13c49225bba860a96167708eb8e00"
                      "7a566430a9bb590809e0f1869d88fdab",
}


class TestGoldenDegradedDigests:
    def test_serve_degraded_digest(self):
        fault = FaultModel(dead_cores=spread_mask(
            ARCH.chip.core_number, 6))
        plan = plan_degraded(ARCH, SPECS, fault)
        assert simulate(plan, _trace()).digest() == \
            GOLDEN["serve_degraded"]

    def test_fleet_and_trace_injected_digests(self, degraded_recording):
        report, trace = degraded_recording
        assert report.digest() == GOLDEN["fleet_injected"]
        assert trace.digest() == GOLDEN["trace_injected"]


# ---------------------------------------------------------------------------
# EXPERIMENTS.md headline pins (isaac-baseline)
# ---------------------------------------------------------------------------

#: The exact configurations and digests EXPERIMENTS.md reports.
HEADLINE_SWEEP_DIGEST = ("2627aeabdd851b377fbe6608d400b32d"
                         "7f746919a22aba27c427193c6608842b")
HEADLINE_STATIC_DEATH = ("d9c827face2ba249420184bf49d010ac"
                         "fe98eaecf10582ccbb25eddf3552c610")
HEADLINE_SCALED_DEATH = ("a3556025edd9d03425f66fe746823e6d"
                         "2a2dde7dac5952a5e016711b36894f07")


class TestExperimentHeadlines:
    """Digest gates for the two EXPERIMENTS.md fault headlines."""

    @pytest.fixture(scope="class")
    def isaac(self):
        from repro.arch import isaac_baseline

        return isaac_baseline()

    @pytest.fixture(scope="class")
    def isaac_specs(self):
        return [TenantSpec("resnet18", "resnet18", 4.0),
                TenantSpec("mobilenet", "mobilenet", 1.0)]

    def test_degradation_headline_digest(self, tmp_path, isaac,
                                         isaac_specs):
        from repro.explore import SweepRunner

        points = degradation_sweep(
            isaac, isaac_specs, [0, 38, 76, 153, 307], 50e-6,
            num_requests=400, seed=0,
            runner=SweepRunner(cache_dir=str(tmp_path)))
        assert sweep_digest(points) == HEADLINE_SWEEP_DIGEST
        assert all(p.feasible for p in points)
        # Zero dead cores reproduces the fault-free plan bit for bit.
        healthy = simulate(make_plan("spatial", isaac, isaac_specs),
                           make_trace("poisson", isaac_specs, 50e-6,
                                      400, seed=0))
        assert points[0].report.digest() == healthy.digest()

    def test_chip_death_headline_digests(self, isaac, isaac_specs):
        trace = make_trace("diurnal-bursty", isaac_specs, 80e-6, 3000,
                           seed=0)
        fault = FaultModel(chip_death_time=trace[-1].arrival / 2,
                           chip_death_rid=0)
        static = simulate_fleet(
            build_fleet(isaac, isaac_specs, replicas=4), trace,
            fault=fault)
        assert static.digest() == HEADLINE_STATIC_DEATH
        assert static.recovery_cycles is None
        assert static.availability == pytest.approx(0.873419, abs=1e-4)
        scaled = simulate_fleet(
            build_fleet(isaac, isaac_specs, replicas=6), trace,
            autoscaler=Autoscaler(min_replicas=2), fault=fault)
        assert scaled.digest() == HEADLINE_SCALED_DEATH
        assert scaled.recovery_cycles == pytest.approx(28_966, abs=1.0)
        assert scaled.availability > 0.999
