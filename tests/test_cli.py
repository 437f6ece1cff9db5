"""CLI: every subcommand runs and prints sensible output."""

import argparse
import json
import os
import re

import pytest

import repro
from repro.cli import MODELS, build_parser, main

#: Every parser's arguments as the CLI shipped them (see
#: :func:`parser_contract`); a deliberate option change updates it.
CONTRACT = os.path.join(os.path.dirname(__file__), "data",
                        "cli_parser_contract.json")


def parser_contract(parser, prog="repro"):
    """``{command path: {option strings: facts}}`` for ``parser`` and
    every subparser below it.

    Facts are the default, type, choices, action class and ``required``
    flag; a positional is keyed by its dest.  Dest and help text are
    left out, so help may be reworded and a dest only the CLI reads may
    be renamed.
    """
    contract = {prog: {}}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                contract.update(parser_contract(sub, f"{prog} {name}"))
            choices = sorted(choices)
        key = " ".join(action.option_strings) or action.dest
        contract[prog][key] = {
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": None if choices is None else list(choices),
            "action": type(action).__name__,
            "required": action.required,
        }
    return contract


def load_contract():
    with open(CONTRACT) as fh:
        return json.load(fh)


class TestParser:
    def test_parser_contract(self):
        """Every option keeps its strings, default, type, choices,
        action and ``required`` flag."""
        live = json.loads(json.dumps(parser_contract(build_parser())))
        assert live == load_contract()

    @pytest.mark.parametrize("argv", [command.split()[1:]
                                      for command in load_contract()
                                      if command != "repro"])
    def test_every_command_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "imaginary-chip"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_sweep_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--model", "--preset", "--vary", "--workers",
                     "--cache-dir", "--format"):
            assert flag in out

    def test_help_names_every_documented_subcommand(self, capsys):
        """Docs-drift guard: the `## repro X` sections of docs/CLI.md and
        the subcommand list `repro --help` advertises must coincide."""
        doc_path = os.path.join(os.path.dirname(__file__), os.pardir,
                                "docs", "CLI.md")
        with open(doc_path) as fh:
            documented = set(re.findall(r"^## `repro (\w+)`", fh.read(),
                                        re.MULTILINE))
        assert documented, "docs/CLI.md lists no subcommands"
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        match = re.search(r"\{([\w,]+)\}", help_text)
        assert match, "repro --help shows no subcommand list"
        actual = set(match.group(1).split(","))
        assert actual == documented, \
            f"docs/CLI.md drift: undocumented {sorted(actual - documented)}, " \
            f"stale {sorted(documented - actual)}"


class TestCommands:
    def test_presets(self, capsys):
        main(["presets"])
        out = capsys.readouterr().out
        assert "isaac-baseline" in out and "puma" in out

    def test_models(self, capsys):
        main(["models"])
        out = capsys.readouterr().out
        assert "resnet18" in out and "vit-base" in out

    def test_describe(self, capsys):
        main(["describe", "puma"])
        out = capsys.readouterr().out
        assert '"core_number": 138' in out
        assert '"Computing_Mode": "XBM"' in out

    def test_compile_small_model(self, capsys):
        main(["compile", "--arch", "functional-testbed",
              "--model", "tiny-conv", "--ablation"])
        out = capsys.readouterr().out
        assert "CIM-MLC" in out
        assert "up to CG" in out

    def test_compile_unknown_model(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["compile", "--model", "skynet"])

    def test_codegen_conv_relu(self, capsys):
        main(["codegen", "--arch", "table2-example",
              "--model", "conv-relu", "--max-lines", "10"])
        out = capsys.readouterr().out
        assert "more lines" in out

    def test_codegen_multi_segment_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["codegen", "--arch", "functional-testbed",
                  "--model", "vgg7"])
        assert str(exc.value.code).startswith(
            "lowering supports single-segment schedules")
        assert "\n" not in str(exc.value.code)

    def test_schedule_flag(self, capsys):
        main(["compile", "--arch", "functional-testbed",
              "--model", "mlp", "--schedule"])
        out = capsys.readouterr().out
        assert "segment 0" in out

    def test_model_zoo_entries_buildable(self):
        for name, factory in MODELS.items():
            if name in ("mlp", "tiny-conv", "conv-relu", "lenet", "vgg7"):
                graph = factory()
                assert len(graph.nodes) > 0


class TestSweep:
    ARGS = ["sweep", "--model", "mlp", "--preset", "functional",
            "--vary", "cores=8,16", "--levels", "baseline,CG"]

    def test_table_format(self, capsys):
        main(self.ARGS + ["--no-cache"])
        out = capsys.readouterr().out
        assert "cores=8 CG" in out and "cores=16 CG" in out

    def test_json_then_cache_hits(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path), "--format", "json"]
        main(self.ARGS + cache)
        first = json.loads(capsys.readouterr().out)
        assert first["cache"] == {"hits": 0, "misses": 4,
                                  "all_cached": False}
        main(self.ARGS + cache)
        second = json.loads(capsys.readouterr().out)
        assert second["cache"]["all_cached"]
        assert all(p["cached"] for p in second["points"])
        assert [p["total_cycles"] for p in second["points"]] == \
            [p["total_cycles"] for p in first["points"]]

    def test_csv_format(self, capsys):
        main(self.ARGS + ["--no-cache", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("label,series")
        assert len(lines) == 5   # header + 2 points x 2 series

    def test_underscore_model_and_preset_prefix(self, capsys):
        main(["sweep", "--model", "tiny_conv", "--preset", "functional",
              "--vary", "cores=8", "--levels", "CG", "--no-cache"])
        assert "cores=8" in capsys.readouterr().out

    def test_pareto_flag(self, capsys):
        main(self.ARGS + ["--no-cache", "--pareto"])
        assert "pareto frontier" in capsys.readouterr().out

    def test_workers_zero_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be"):
            main(self.ARGS + ["--workers", "0", "--no-cache"])

    def test_infeasible_point_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "resnet18", "--preset",
                  "isaac-baseline", "--vary", "cores=64", "--vary",
                  "chips=2", "--levels", "CG", "--no-cache"])
        assert "needs at least 4 isaac-baseline chips" in \
            str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    def test_unknown_pareto_objective_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "lenet", "--levels", "CG",
                  "--no-cache", "--pareto", "--objectives", "bogus"])
        assert str(exc.value.code).startswith(
            "unknown Pareto objective 'bogus'")
        assert "\n" not in str(exc.value.code)

    def test_bad_vary_spec(self):
        with pytest.raises(SystemExit, match="--vary expects"):
            main(["sweep", "--model", "mlp", "--preset", "functional",
                  "--vary", "cores", "--no-cache"])

    def test_unknown_axis(self):
        with pytest.raises(SystemExit, match="unknown sweep axis"):
            main(["sweep", "--model", "mlp", "--preset", "functional",
                  "--vary", "voltage=1,2", "--no-cache"])

    def test_ambiguous_preset(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["sweep", "--model", "mlp", "--preset", "j",
                  "--no-cache"])


class TestShard:
    ARGS = ["shard", "--arch", "isaac-baseline", "--model", "lenet",
            "--chips", "2"]

    def test_shard_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shard", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--chips", "--topology", "--link-bw", "--link-latency",
                     "--baseline", "--format"):
            assert flag in out

    def test_table_output(self, capsys):
        main(self.ARGS)
        out = capsys.readouterr().out
        assert "chip 0" in out and "chip 1" in out
        assert "steady-state interval" in out

    def test_baseline_comparison(self, capsys):
        main(self.ARGS + ["--baseline"])
        assert "vs 1 chip" in capsys.readouterr().out

    def test_json_output(self, capsys):
        main(self.ARGS + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["system"]["num_chips"] == 2
        assert len(doc["stages"]) == 2
        assert doc["pipeline"]["throughput"] > 0

    def test_infeasible_sharding_exits(self):
        # vgg7's conv2 alone exceeds a jain2021 macro — a clean CLI error,
        # not a traceback.
        with pytest.raises(SystemExit, match="exceeds one jain2021 chip"):
            main(["shard", "--arch", "jain2021", "--model", "vgg7",
                  "--chips", "1"])

    @pytest.mark.parametrize("flag", ["--link-bw", "--link-latency"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_link_exits_with_one_line(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["shard", "--arch", "functional-testbed", "--model",
                  "lenet", "--chips", "2", flag, value])
        assert "must be finite" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    def test_sweep_chips_axis(self, capsys):
        main(["sweep", "--model", "lenet", "--preset", "isaac-baseline",
              "--vary", "chips=1,2", "--levels", "CG", "--no-cache"])
        out = capsys.readouterr().out
        assert "chips=1 CG" in out and "chips=2 CG" in out

    @pytest.mark.parametrize("axis", ["link_bw", "link_latency"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_non_finite_link_axis_exits_with_one_line(
            self, axis, value, capsys):
        # Rejected when the grid is built, before the chips=1 points run.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "lenet", "--preset", "isaac-baseline",
                  "--vary", "chips=1,2", "--vary", f"{axis}={value}",
                  "--levels", "CG", "--no-cache"])
        assert f"{axis} must be finite" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)
        assert capsys.readouterr().out == ""


class TestServe:
    ARGS = ["serve", "--arch", "functional-testbed",
            "--tenants", "lenet:2,mlp", "--rate", "500",
            "--requests", "80", "--batch", "timeout:4:2000"]

    def test_serve_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--tenants", "--mode", "--trace", "--rate", "--rates",
                     "--batch", "--slo-factor", "--max-queue"):
            assert flag in out

    def test_both_modes_table(self, capsys):
        main(self.ARGS)
        out = capsys.readouterr().out
        assert "mode=spatial" in out and "mode=temporal" in out
        assert "p99: spatial" in out
        assert "lenet" in out and "mlp" in out

    def test_single_mode_json(self, capsys):
        main(self.ARGS + ["--mode", "temporal", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"temporal"}
        report = doc["temporal"]
        assert report["completed"] == 80
        assert report["switch_cycles"] > 0
        assert {t["tenant"] for t in report["tenants"]} == {"lenet", "mlp"}

    def test_duplicate_models_get_unique_names(self, capsys):
        main(["serve", "--arch", "functional-testbed",
              "--tenants", "mlp,mlp", "--mode", "temporal", "--rate", "500",
              "--requests", "40", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        names = {t["tenant"] for t in doc["temporal"]["tenants"]}
        assert names == {"mlp", "mlp#2"}

    def test_rates_capacity_sweep(self, tmp_path, capsys):
        main(self.ARGS + ["--rates", "200,500",
                          "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "spatial p99" in out and "temporal p99" in out
        assert "200.00" in out and "500.00" in out

    @pytest.mark.parametrize("argv", [
        ["serve", "--arch", "functional-testbed", "--tenants", "mlp",
         "--requests", "10", "--slo-factor", "-1"],
        ["fleet", "--arch", "functional-testbed", "--tenants", "mlp",
         "--requests", "50", "--replicas", "2", "--slo-factor", "0"],
    ])
    def test_meaningless_slo_factor_exits_with_one_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(
            "slo_factor must be finite and > 0")
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("argv, message", [
        (["--tenants", "mlp:nan,lenet", "--requests", "20"],
         "tenant 'mlp': weight must be finite and > 0"),
        (["--tenants", "mlp:inf,lenet", "--requests", "20"],
         "tenant 'mlp': weight must be finite and > 0"),
        (["--tenants", "mlp", "--requests", "10", "--rate", "nan"],
         "arrival rate must be finite and > 0"),
        (["--tenants", "mlp", "--requests", "10", "--rate", "inf"],
         "arrival rate must be finite and > 0"),
    ])
    def test_non_finite_weight_or_rate_exits_with_one_line(self, argv,
                                                           message):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--arch", "functional-testbed", *argv])
        assert str(exc.value.code).startswith(message)
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("argv", [
        ["serve", "--tenants", "mlp", "--requests", "10"],
        ["serve", "--tenants", "mlp", "--requests", "10",
         "--rates", "200,500", "--no-cache"],
        ["fleet", "--tenants", "mlp", "--requests", "50", "--replicas", "2",
         "--no-cache"],
    ])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_power_budget_exits_with_one_line(self, argv, budget):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--arch", "functional-testbed",
                  "--power-budget", budget])
        assert str(exc.value.code).startswith(
            "power budget must be finite and > 0")
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("death", ["nan", "inf"])
    def test_non_finite_chip_death_exits_with_one_line(self, death):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--arch", "functional-testbed", "--tenants",
                  "mlp", "--requests", "200", "--replicas", "2",
                  "--chip-death", death])
        assert str(exc.value.code).startswith(
            "chip_death_time must be finite and >= 0")
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_non_finite_drift_interval_exits_with_one_line(self, interval):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--arch", "functional-testbed", "--tenants",
                  "mlp", "--requests", "200", "--replicas", "2",
                  "--drift-interval", interval])
        assert str(exc.value.code).startswith(
            "drift_interval must be finite and > 0")
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("argv, message", [
        (["--autoscale", "--tick", "nan"],
         "tick_cycles must be finite and > 0"),
        (["--autoscale", "--tick", "inf"],
         "tick_cycles must be finite and > 0"),
        (["--autoscale", "--up-threshold", "nan"],
         "up_threshold must be finite"),
        (["--autoscale", "--up-threshold", "inf"],
         "up_threshold must be finite"),
        (["--autoscale", "--down-threshold", "nan"],
         "down_threshold must be finite"),
        (["--slo-budget", "nan"], "slo_budget must be finite and > 0"),
        (["--slo-budget", "inf"], "slo_budget must be finite and > 0"),
    ])
    def test_non_finite_fleet_knob_exits_with_one_line(self, argv,
                                                       message):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--arch", "functional-testbed", "--tenants",
                  "mlp:1,lenet:1", "--requests", "300", "--rate", "20000",
                  "--replicas", "3", "--no-cache", *argv])
        assert str(exc.value.code).startswith(message)
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("argv", [
        ["serve", "--rates", "200"],
        ["fleet"],
        ["faults", "--sweep-dead", "0,1"],
    ])
    def test_workers_zero_exits_with_one_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--arch", "functional-testbed", "--tenants", "mlp",
                  "--requests", "10", "--workers", "0"])
        assert exc.value.code == "--workers must be >= 1, got 0"

    def test_bad_batch_policy(self):
        with pytest.raises(SystemExit, match="bad batch policy"):
            main(self.ARGS[:-2] + ["--batch", "warp:9"])

    def test_bad_tenant_spec(self):
        with pytest.raises(SystemExit, match="bad tenant spec"):
            main(["serve", "--tenants", "mlp:heavy"])

    def test_unknown_model_in_tenants(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["serve", "--arch", "functional-testbed",
                  "--tenants", "skynet", "--requests", "10"])

    def test_sharded_mode(self, capsys):
        main(["serve", "--arch", "functional-testbed",
              "--tenants", "lenet:2,mlp", "--mode", "sharded",
              "--chips", "4", "--rate", "500", "--requests", "40",
              "--batch", "timeout:4:2000", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        report = doc["sharded"]
        assert report["completed"] == 40
        assert report["switch_cycles"] == 0

    def test_sharded_rejects_rates_sweep(self):
        with pytest.raises(SystemExit, match="spatial/temporal"):
            main(["serve", "--arch", "functional-testbed",
                  "--tenants", "lenet", "--mode", "sharded",
                  "--rates", "100,200"])


class TestTrace:
    def test_record_analyze_whatif_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        chrome = str(tmp_path / "chrome.json")
        main(["trace", "record", "--kind", "shard", "--model", "vgg7",
              "--chips", "3", "--out", path, "--chrome", chrome])
        out = capsys.readouterr().out
        assert "recorded shard trace" in out

        main(["trace", "analyze", path])
        out = capsys.readouterr().out
        assert "critical path" in out and "dominant" in out

        main(["trace", "whatif", path, "--mutate", "link_bw=0.25",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["mutation"] == "link_bw=0.25"
        assert doc["replayed"]["total_cycles"] > \
            doc["recorded"]["total_cycles"]

        with open(chrome) as fh:
            assert json.load(fh)["traceEvents"]

    def test_identity_whatif_reports_digest_match(self, tmp_path, capsys):
        path = str(tmp_path / "sim.json")
        main(["trace", "record", "--kind", "sim", "--model", "lenet",
              "--arch", "functional-testbed", "--out", path])
        capsys.readouterr()
        main(["trace", "whatif", path])
        assert "identity replay digest match: True" in \
            capsys.readouterr().out

    def test_serve_record_json(self, capsys):
        main(["trace", "record", "--kind", "serve", "--arch",
              "functional-testbed", "--tenants", "lenet:2,mlp",
              "--requests", "30", "--rate", "500",
              "--batch", "timeout:4:2000", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "serve"
        assert doc["meta"]["completed"] == 30
        assert doc["spans"] > 0

    def test_bad_mutation_exits(self, tmp_path, capsys):
        path = str(tmp_path / "sim.json")
        main(["trace", "record", "--kind", "sim", "--model", "lenet",
              "--arch", "functional-testbed", "--out", path])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="unknown mutation key"):
            main(["trace", "whatif", path, "--mutate", "warp=9"])

    def test_missing_trace_file_exits(self):
        with pytest.raises(SystemExit, match="cannot load trace"):
            main(["trace", "analyze", "/nonexistent/trace.json"])

    def test_sweep_prefilter_replay(self, capsys):
        main(["sweep", "--model", "lenet", "--preset", "isaac-baseline",
              "--vary", "chips=2,3", "--vary", "link_bw=16,256",
              "--levels", "CG", "--no-cache", "--prefilter", "replay",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["total_points"] == 4
        assert doc["stats"]["full_evaluations"] < 4
        assert doc["frontier"]
