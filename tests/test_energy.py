"""Energy as a first-class objective: model, explore, scale, CLI.

Pins the PR's acceptance criteria: energy metrics in every layer's
report, latency×energy Pareto frontiers bit-identical between serial
and parallel runs and between production and the scalar oracle
(:func:`repro.perf.reference.installed`), link-transfer energy in
sharded plans, and the ``repro power`` / ``--power-budget`` /
``--objectives`` CLI surface.  (Power-capped *serving* is pinned next
to the other serving tests, in ``tests/test_serve.py``.)
"""

import json

import pytest

from repro.arch import (
    ChipLink,
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
    isaac_flash,
)
from repro.cli import main
from repro.errors import ArchitectureError
from repro.explore import (
    ENERGY_OBJECTIVES,
    OBJECTIVE_ALIASES,
    SweepRunner,
    SweepSpace,
    evaluate_point,
    frontier_labels,
    pareto_frontier,
    resolve_objectives,
    to_csv,
    to_json,
)
from repro.models import lenet, mlp, resnet18
from repro.perf import reference
from repro.sched import CIMMLC, CompilerOptions, no_optimization
from repro.scale import shard
from repro.sim.power import E_WRITE_PER_BIT, PowerModel


# ---------------------------------------------------------------------------
# Power model: reconfiguration + weight-write energy
# ---------------------------------------------------------------------------


class TestWeightWriteEnergy:
    def test_single_segment_pays_no_per_inference_reconfiguration(self):
        report = CIMMLC(isaac_baseline()).compile(resnet18()).report
        assert len(report.segments) == 1
        assert report.power.energy_reconfiguration == 0.0
        assert report.weight_write_energy > 0
        assert report.energy_per_inference == report.power.total_energy

    def test_multi_segment_pays_reconfiguration_energy(self):
        small = isaac_baseline().with_cores(8)
        report = CIMMLC(small).compile(resnet18()).report
        assert len(report.segments) > 1
        assert report.power.energy_reconfiguration == \
            pytest.approx(report.weight_write_energy)
        assert report.power.energy_reconfiguration > 0

    def test_write_energy_scales_with_cell_write_ratio(self):
        graph = resnet18()
        reram = CIMMLC(isaac_baseline()).compile(graph).report
        flash = CIMMLC(isaac_flash()).compile(graph).report
        # Same geometry, FLASH writes cost 5x ReRAM writes (100 vs 20).
        assert flash.weight_write_energy == \
            pytest.approx(5.0 * reram.weight_write_energy)

    def test_write_energy_matches_weight_bits(self):
        arch = functional_testbed()
        result = CIMMLC(arch).compile(mlp())
        bits = sum(d.profile.weight_bits
                   for d in result.schedule.decisions.values()
                   if d.profile.is_cim)
        expected = bits * E_WRITE_PER_BIT * arch.xb.cell_type.write_cost_ratio
        assert result.report.weight_write_energy == pytest.approx(expected)

    def test_breakdown_includes_reconfiguration_and_sums_to_one(self):
        report = CIMMLC(isaac_baseline().with_cores(8)) \
            .compile(resnet18()).report
        breakdown = report.power.breakdown()
        assert set(breakdown) == \
            {"crossbar", "converter", "movement", "reconfiguration"}
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["reconfiguration"] > 0

    @pytest.mark.parametrize("graph_fn", [mlp, lenet, resnet18])
    def test_fastpath_power_reports_bit_identical(self, graph_fn):
        graph = graph_fn()
        arch = isaac_baseline()
        with reference.installed():
            ref = CIMMLC(arch).compile(graph).report
        fast = CIMMLC(arch).compile(graph).report
        assert ref.power == fast.power
        assert ref.weight_write_energy == fast.weight_write_energy


# ---------------------------------------------------------------------------
# Explore: summary metrics, aliases, frontiers
# ---------------------------------------------------------------------------


def _space(core_numbers=(8, 16), graph_fn=mlp):
    return SweepSpace.grid(
        functional_testbed(), graph_fn(),
        {"cores": list(core_numbers)},
        series=[("baseline", None), ("CIM-MLC", CompilerOptions())])


class TestExploreEnergyMetrics:
    def test_summary_carries_energy_and_area(self):
        sweep = SweepRunner().run(_space())
        for r in sweep:
            s = r.summary
            assert s["energy_total"] == pytest.approx(
                sum(s["energy"].values()))
            assert s["energy_per_inference"] == s["energy_total"]
            assert s["area_crossbars"] > 0
            assert s["cores_used"] > 0
            assert "reconfiguration" in s["energy"]
            assert r.energy_per_inference == s["energy_per_inference"]

    def test_objective_aliases_resolve(self):
        assert resolve_objectives(["latency", "energy", "area"]) == \
            ("total_cycles", "energy_total", "area_crossbars")
        assert resolve_objectives(["steady_state_interval"]) == \
            ("steady_state_interval",)
        with pytest.raises(ArchitectureError):
            resolve_objectives([])
        # Every alias points at a key the summary actually carries.
        summary = next(iter(SweepRunner().run(_space((8,))))).summary
        for key in OBJECTIVE_ALIASES.values():
            assert key in summary, key

    def test_energy_frontier_is_nondominated_subset(self):
        sweep = SweepRunner().run(_space((4, 8, 16)))
        frontier = pareto_frontier(list(sweep), ENERGY_OBJECTIVES)
        assert frontier
        assert set(id(r) for r in frontier) <= set(id(r) for r in sweep)
        # Alias spelling extracts the identical frontier.
        aliased = pareto_frontier(
            list(sweep), ("latency", "energy_per_inference", "area"))
        assert [r.label for r in aliased] == [r.label for r in frontier]

    def test_energy_frontier_serial_parallel_fastpath_bit_identical(self):
        space = _space((4, 8, 16), lenet)

        def run(workers):
            with SweepRunner(workers=workers) as runner:
                sweep = runner.run(_space((4, 8, 16), lenet))
            return ([r.summary for r in sweep],
                    frontier_labels(sweep, ENERGY_OBJECTIVES))

        serial_fast = run(1)
        parallel_fast = run(2)
        with reference.installed():              # the oracle is serial
            serial_ref = run(1)
        assert serial_fast == parallel_fast      # bit-identical summaries
        assert serial_fast == serial_ref
        assert len(space) == len(serial_fast[0])

    def test_cache_roundtrip_preserves_energy_exactly(self, tmp_path):
        live = SweepRunner(cache_dir=str(tmp_path)).run(_space())
        replay = SweepRunner(cache_dir=str(tmp_path)).run(_space())
        assert replay.all_cached
        assert [r.summary for r in replay] == [r.summary for r in live]

    def test_csv_json_power_budget_annotation(self):
        sweep = SweepRunner().run(_space((8, 16)))
        budget = sorted(r.peak_power for r in sweep)[0]  # only min feasible
        csv_text = to_csv(sweep, pareto=True, power_budget=budget)
        header = csv_text.splitlines()[0].split(",")
        assert "within_power_budget" in header and "pareto" in header
        doc = json.loads(to_json(sweep, pareto=True, power_budget=budget))
        feasible = [p for p in doc["points"] if p["within_power_budget"]]
        assert 0 < len(feasible) < len(doc["points"]) or \
            all(p["within_power_budget"] for p in doc["points"])
        # No infeasible point may be marked pareto.
        assert not any(p["pareto"] and not p["within_power_budget"]
                       for p in doc["points"])

    def test_multichip_summary_carries_link_energy(self):
        from repro.explore import SweepPoint

        point = SweepPoint("2chips", "CIM-MLC",
                           isaac_baseline().with_cores(200), resnet18(),
                           CompilerOptions(), chips=2)
        summary = evaluate_point(point)
        assert summary["energy"]["link"] > 0
        assert summary["scale"]["link_energy"] == \
            pytest.approx(summary["energy"]["link"])
        assert len(summary["scale"]["chip_peak_powers"]) == 2
        assert summary["energy_total"] == pytest.approx(
            sum(summary["energy"].values()))


# ---------------------------------------------------------------------------
# Scale: link-transfer energy, per-chip power
# ---------------------------------------------------------------------------


class TestScaleEnergy:
    @pytest.fixture(scope="class")
    def plan(self):
        return shard(resnet18(),
                     MultiChipSystem(isaac_baseline().with_cores(200), 2))

    def test_pipeline_energy_is_stages_plus_links(self, plan):
        rep = plan.report
        stage_energy = sum(r.power.total_energy for r in rep.stages)
        assert rep.link_energy > 0
        assert rep.total_energy == \
            pytest.approx(stage_energy + rep.link_energy)
        assert rep.energy_per_inference == rep.total_energy
        assert len(rep.chip_peak_powers) == 2
        assert rep.peak_power == pytest.approx(sum(rep.chip_peak_powers))

    def test_transfer_energy_prices_bits_and_hops(self):
        link = ChipLink(energy_per_bit=0.5)
        assert link.transfer_energy(100) == pytest.approx(50.0)
        assert link.transfer_energy(100, hops=3) == pytest.approx(150.0)
        assert link.transfer_energy(0) == 0.0
        with pytest.raises(ArchitectureError):
            ChipLink(energy_per_bit=-1.0)

    def test_link_energy_scales_with_energy_per_bit(self, plan):
        pricey = shard(resnet18(), MultiChipSystem(
            isaac_baseline().with_cores(200), 2,
            link=ChipLink(energy_per_bit=0.15)))
        assert pricey.report.link_energy == \
            pytest.approx(10.0 * plan.report.link_energy)

    def test_to_dict_and_tables_carry_energy(self, plan):
        doc = plan.to_dict()
        assert doc["pipeline"]["energy_per_inference"] > 0
        assert doc["pipeline"]["link_energy"] == \
            pytest.approx(plan.report.link_energy)
        assert all(s["peak_power"] > 0 for s in doc["stages"])
        assert all(t["energy"] > 0 for t in doc["links"])
        from repro.scale import link_table, pipeline_summary

        assert "energy" in link_table(plan)
        assert "energy/inference" in pipeline_summary(plan)


# ---------------------------------------------------------------------------
# CLI: repro power, sweep --objectives/--power-budget
# ---------------------------------------------------------------------------


class TestPowerCommand:
    def test_table(self, capsys):
        main(["power", "--arch", "functional-testbed",
              "--models", "mlp,lenet"])
        out = capsys.readouterr().out
        assert "energy/inf" in out and "write energy" in out
        assert "mlp" in out and "lenet" in out

    def test_json(self, capsys):
        main(["power", "--arch", "functional-testbed", "--models", "mlp",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["arch"] == "functional-testbed"
        row = doc["models"][0]
        assert row["energy_per_inference"] > 0
        assert row["weight_write_energy"] > 0
        assert sum(row["breakdown"].values()) == pytest.approx(1.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["power", "--models", "skynet"])


class TestSweepEnergyCLI:
    ARGS = ["sweep", "--model", "mlp", "--preset", "functional",
            "--vary", "cores=8,16", "--levels", "CIM-MLC", "--no-cache"]

    def test_energy_objectives_frontier(self, capsys):
        main(self.ARGS + ["--pareto", "--objectives", "latency,energy,area"])
        out = capsys.readouterr().out
        assert "pareto frontier (min total_cycles, energy_total, " \
            "area_crossbars)" in out

    def test_power_budget_filters_and_reports(self, capsys):
        main(self.ARGS + ["--power-budget", "0.001", "--pareto"])
        out = capsys.readouterr().out
        assert "0/2 points feasible" in out

    def test_bad_objectives_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--objectives", ""])

    def test_serve_sharded_power_budget_rejected(self):
        with pytest.raises(SystemExit, match="spatial/temporal"):
            main(["serve", "--arch", "functional-testbed",
                  "--tenants", "mlp", "--mode", "sharded",
                  "--power-budget", "10"])
