"""Design-space exploration engine: spaces, runner, cache, Pareto."""

import dataclasses
import io
import json
import os

import pytest

import repro
from repro.arch import functional_testbed, isaac_baseline, table2_example
from repro.arch.noc import matrix_noc
from repro.errors import ArchitectureError, CapacityError
from repro.explore import (
    PointResult,
    SweepPoint,
    SweepRunner,
    SweepSpace,
    apply_variation,
    attribute_bottleneck,
    graph_signature,
    level_series,
    pareto_frontier,
    resolve_variation,
    to_csv,
    to_json,
)
from repro.explore import runner as runner_mod
from repro.models import lenet, mlp, resnet18, tiny_conv
from repro.sched import CompilerOptions


def small_space(core_numbers=(8, 16), series_names=("baseline", "CG")):
    base = functional_testbed()
    return SweepSpace.from_arch_points(
        [(f"cores={n}", base.with_cores(n)) for n in core_numbers],
        mlp(), series=level_series(series_names))


class TestSpace:
    def test_variation_axes_and_aliases(self):
        assert resolve_variation("pr") == "parallel_row"
        assert resolve_variation("xb_number") == "xbs"
        with pytest.raises(ArchitectureError):
            resolve_variation("voltage")
        arch = apply_variation(isaac_baseline(), "cores", "512")
        assert arch.chip.core_number == 512
        arch = apply_variation(isaac_baseline(), "xb_size", "64x512")
        assert arch.xb.xb_size == (64, 512)

    def test_grid_cross_product_and_labels(self):
        space = SweepSpace.grid(
            functional_testbed(), mlp(),
            {"cores": [8, 16], "parallel_row": [4, 8]},
            series=level_series(["CG"]))
        assert len(space) == 4
        assert space.labels() == [
            "cores=8 parallel_row=4", "cores=8 parallel_row=8",
            "cores=16 parallel_row=4", "cores=16 parallel_row=8"]

    def test_level_series_aliases(self):
        series = level_series(["baseline", "VVM", "full"])
        assert [s for s, _ in series] == \
            ["baseline", "CG+MVM+VVM", "CG+MVM+VVM"]
        assert series[0][1] is None
        with pytest.raises(ArchitectureError):
            level_series(["warp-drive"])

    def test_graph_signature_stable_and_sensitive(self):
        assert graph_signature(mlp()) == graph_signature(mlp())
        assert graph_signature(mlp()) != graph_signature(tiny_conv())

    def test_fingerprint_distinguishes_inputs(self):
        arch = functional_testbed()
        a = SweepPoint("p", "CG", arch, mlp(), CompilerOptions(max_level="CG"))
        b = SweepPoint("p", "CG", arch, mlp(), CompilerOptions(max_level="CG"))
        assert a.fingerprint() == b.fingerprint()
        c = SweepPoint("p", "full", arch, mlp(), CompilerOptions())
        d = SweepPoint("p", "CG", arch.with_cores(8), mlp(),
                       CompilerOptions(max_level="CG"))
        e = SweepPoint("p", "base", arch, mlp(), None)
        fingerprints = {p.fingerprint() for p in (a, c, d, e)}
        assert len(fingerprints) == 4

    def test_fingerprints_are_pinned(self):
        # Cache keys of existing result caches: the blob must not change
        # with how it is built.  A version bump changes all four.
        tb = functional_testbed()
        n = tb.chip.core_number
        matrix = dataclasses.replace(tb, chip=dataclasses.replace(
            tb.chip, core_noc=matrix_noc(
                [[abs(i - j) * 1.5 for j in range(n)] for i in range(n)])))
        points = {
            "preset": SweepPoint("p", "CG", isaac_baseline(), mlp(),
                                 CompilerOptions(max_level="CG")),
            "matrix_noc": SweepPoint("p", "CG+MVM", matrix, mlp(),
                                     CompilerOptions(max_level="MVM")),
            "baseline": SweepPoint("p", "baseline", table2_example(),
                                   lenet(), None),
            "link": SweepPoint("p", "CG", isaac_baseline(), lenet(),
                               CompilerOptions(max_level="CG"), chips=2,
                               link_bandwidth=256.0, link_latency=4.0,
                               topology="ring"),
        }
        assert repro.__version__ == "1.9.0"
        assert {k: p.fingerprint() for k, p in points.items()} == {
            "preset": "be5edf852f1f2f466a45208242d25f05"
                      "2999b785ea341812ba152b16e2b9de86",
            "matrix_noc": "1503418225a4a9046edea9b4f2ccdf7e"
                          "2e98b3b7f301d77b3df90123f0bcb0be",
            "baseline": "365928ab23211df20dc2c0d68a12526d"
                        "55d5299c3fe1eeb65615671e3871f5cd",
            "link": "77dbac9dc763a9319d543a8b799f074d"
                    "41a0de2557b00fea122e7b0b0df35a24",
        }


class TestRunnerCache:
    def test_cache_miss_then_hit_with_zero_compiles(self, tmp_path,
                                                    monkeypatch):
        space = small_space()
        runner = SweepRunner(cache_dir=str(tmp_path))
        first = runner.run(space)
        assert first.cache_misses == len(space) and first.cache_hits == 0
        assert not first.all_cached

        calls = []
        real = runner_mod.evaluate_point
        monkeypatch.setattr(runner_mod, "evaluate_point",
                            lambda p: calls.append(p) or real(p))
        second = SweepRunner(cache_dir=str(tmp_path)).run(small_space())
        assert calls == []                      # zero compiles on re-run
        assert second.all_cached
        assert second.cache_hits == len(space) and second.cache_misses == 0
        assert [r.summary for r in second] == [r.summary for r in first]
        assert all(r.cached for r in second)

    def test_overlapping_sweep_partially_cached(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        runner.run(small_space(core_numbers=(8,)))
        overlap = runner.run(small_space(core_numbers=(8, 16)))
        assert overlap.cache_hits == 2 and overlap.cache_misses == 2

    def test_no_cache_dir_always_computes(self):
        runner = SweepRunner()
        assert runner.cache is None
        result = runner.run(small_space(core_numbers=(8,)))
        assert result.cache_hits == 0 and result.cache_misses == 2

    def test_put_writes_the_json_dump_bytes(self, tmp_path):
        summary = {"total_cycles": 1.0 / 3, "peak_power": float("nan"),
                   "segments": [{"bottleneck": "fc\u00e9", "cycles": 1e300}],
                   "levels": ["CG", None, True], "count": 7}
        cache = runner_mod.ResultCache(str(tmp_path))
        cache.put("key", summary)
        buf = io.StringIO()
        json.dump(summary, buf)
        with open(cache._path("key"), "rb") as fh:
            assert fh.read() == buf.getvalue().encode()
        assert os.listdir(cache.root) == ["key.json"]

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        runner.run(small_space(core_numbers=(8,)))
        for f in (tmp_path / f"v{runner_mod.CACHE_VERSION}").glob("*.json"):
            f.write_text("{not json")
        again = SweepRunner(cache_dir=str(tmp_path)).run(
            small_space(core_numbers=(8,)))
        assert again.cache_misses == 2

    def test_parallel_equals_serial(self, tmp_path):
        space = small_space(core_numbers=(8, 16, 32),
                            series_names=("baseline", "CG", "VVM"))
        serial = SweepRunner(workers=1).run(space)
        parallel = SweepRunner(workers=2).run(
            small_space(core_numbers=(8, 16, 32),
                        series_names=("baseline", "CG", "VVM")))
        assert [r.label for r in serial] == [r.label for r in parallel]
        assert [r.summary for r in serial] == [r.summary for r in parallel]
        assert serial.speedups() == parallel.speedups()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_finished_before_a_failure_stay_cached(self, tmp_path,
                                                          workers):
        def space(chips):
            return SweepSpace.grid(isaac_baseline(), resnet18(),
                                   {"cores": ["64"], "chips": chips},
                                   series=level_series(["CG"]))

        # resnet18 fits one 64-core chip but needs 4 to shard, so the
        # chips=2 point fails after the chips=1 point has finished.
        with SweepRunner(workers=workers,
                         cache_dir=str(tmp_path)) as runner:
            with pytest.raises(CapacityError, match="needs at least 4"):
                runner.run(space(["1", "2"]))
        rerun = SweepRunner(cache_dir=str(tmp_path)).run(space(["1"]))
        assert (rerun.cache_hits, rerun.cache_misses) == (1, 0)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_speedups_shape(self):
        result = SweepRunner().run(small_space(core_numbers=(8,)))
        speedups = result.speedups()
        assert list(speedups) == ["cores=8"]
        assert list(speedups["cores=8"]) == ["CG"]
        assert speedups["cores=8"]["CG"] >= 1.0

    def test_speedups_require_baseline(self):
        result = SweepRunner().run(
            small_space(core_numbers=(8,), series_names=("CG",)))
        with pytest.raises(KeyError, match="no 'baseline' series"):
            result.speedups()

    def test_version_in_fingerprint(self, monkeypatch):
        point = SweepPoint("p", "CG", functional_testbed(), mlp(),
                           CompilerOptions(max_level="CG"))
        before = point.fingerprint()
        import repro
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert point.fingerprint() != before   # version bump busts the cache


def _fake_result(label, cycles, power):
    point = SweepPoint(label, "CG", table2_example(), mlp(),
                       CompilerOptions(max_level="CG"))
    return PointResult(point, {
        "total_cycles": cycles, "peak_power": power,
        "compute_cycles": cycles, "reconfiguration_cycles": 0.0,
        "noc_cycles": 0.0, "schedule_levels": ["CG"], "segments": []})


class TestPareto:
    def test_frontier_on_hand_built_points(self):
        # (cycles, power): b dominates a; c and d trade off; e is dominated.
        a = _fake_result("a", 100.0, 10.0)
        b = _fake_result("b", 90.0, 9.0)
        c = _fake_result("c", 50.0, 20.0)
        d = _fake_result("d", 200.0, 1.0)
        e = _fake_result("e", 210.0, 1.5)
        frontier = pareto_frontier([a, b, c, d, e])
        assert [r.label for r in frontier] == ["b", "c", "d"]

    def test_duplicate_points_all_kept(self):
        a = _fake_result("a", 10.0, 1.0)
        b = _fake_result("b", 10.0, 1.0)
        assert len(pareto_frontier([a, b])) == 2

    def test_single_objective(self):
        a = _fake_result("a", 10.0, 99.0)
        b = _fake_result("b", 20.0, 1.0)
        frontier = pareto_frontier([a, b], objectives=("total_cycles",))
        assert [r.label for r in frontier] == ["a"]

    @pytest.mark.parametrize("objective", ["bogus", "segments"])
    def test_unknown_or_non_scalar_objective_rejected(self, objective):
        a = _fake_result("a", 10.0, 1.0)
        with pytest.raises(ArchitectureError,
                           match=f"unknown Pareto objective '{objective}'"
                                 r".*'total_cycles'.*'latency'"):
            pareto_frontier([a], objectives=("total_cycles", objective))

    def test_attribution_shares_and_dominant(self):
        summary = {
            "total_cycles": 100.0, "compute_cycles": 40.0,
            "reconfiguration_cycles": 60.0, "noc_cycles": 10.0,
            "segments": [
                {"bottleneck": "conv1", "cycles": 50.0,
                 "reconfiguration": 30.0, "bottleneck_cycles": 20.0,
                 "index": 0},
                {"bottleneck": "conv1", "cycles": 50.0,
                 "reconfiguration": 30.0, "bottleneck_cycles": 20.0,
                 "index": 1},
            ],
        }
        attr = attribute_bottleneck(summary)
        assert attr["dominant"] == "reconfiguration"
        assert attr["shares"]["reconfiguration"] == pytest.approx(0.6)
        assert attr["bottleneck_ops"] == ["conv1"]
        assert attr["segments"] == 2

    def test_attribution_noc_dominant(self):
        summary = {"total_cycles": 160.0, "compute_cycles": 50.0,
                   "reconfiguration_cycles": 60.0, "noc_cycles": 100.0,
                   "segments": []}
        assert attribute_bottleneck(summary)["dominant"] == "noc"

    def test_attribution_on_real_sweep(self):
        result = SweepRunner().run(small_space(core_numbers=(8,)))
        for r in result:
            attr = attribute_bottleneck(r.summary)
            assert attr["dominant"] in ("compute", "reconfiguration", "noc")
            assert 0.0 <= attr["shares"]["compute"]


class TestReport:
    def test_csv_round_trip(self):
        result = SweepRunner().run(small_space(core_numbers=(8,)))
        text = to_csv(result)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(result)
        assert lines[0].startswith("label,series,arch,model,levels,cached")

    def test_csv_with_pareto_column(self):
        result = SweepRunner().run(small_space(core_numbers=(8,)))
        lines = to_csv(result, pareto=True).strip().splitlines()
        assert lines[0].endswith(",pareto")
        assert any(line.endswith(",True") for line in lines[1:])

    def test_json_with_pareto_flags(self):
        result = SweepRunner().run(small_space(core_numbers=(8,)))
        doc = json.loads(to_json(result, pareto=True))
        assert doc["cache"] == {"hits": 0, "misses": 2, "all_cached": False}
        assert len(doc["points"]) == 2
        assert any(p["pareto"] for p in doc["points"])
        for p in doc["points"]:
            assert p["total_cycles"] > 0
