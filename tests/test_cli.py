"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _make_recshard, build_parser, main
from repro.core import RecShardFastSharder


def _rejected(argv, capsys):
    """Run ``main(argv)``, expect argparse's exit status 2, return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "rm2"
        assert args.gpus == 16
        assert args.milp_time == 15.0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--model", "rm9"])

    def test_shard_subcommand_is_gone(self, capsys):
        # The MILP runs as `plan --milp-time N`; there is no `shard`.
        assert "invalid choice: 'shard'" in _rejected(["shard"], capsys)

    def test_plan_defaults_to_fast_sharder(self):
        args = build_parser().parse_args(["plan"])
        assert args.milp_time == 0.0
        assert args.formulation is None
        assert isinstance(_make_recshard(args), RecShardFastSharder)
        args = build_parser().parse_args(["plan", "--milp-time", "5"])
        assert _make_recshard(args).formulation == "convex"

    def test_every_numeric_flag_is_range_checked(self):
        # A bare int/float type lets NaN, ±inf and out-of-range values
        # through; every numeric flag must use a checked type instead.
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                assert action.type not in (int, float), (
                    f"{name} {action.option_strings} has a bare "
                    f"{action.type.__name__} type"
                )


class TestFlagValidation:
    """Out-of-range numeric flags fail at parse time, and flags that only
    act with another flag fail without it; either way exit 2, naming the
    flag."""

    COMMON = ["--features", "40", "--gpus", "2"]

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("plan", "--steps", "0"),
            ("replay", "--steps", "0"),
            ("plan", "--batch", "0"),
            ("compare", "--batch", "-4"),
            ("serve", "--drift-months", "-1"),
            ("compare", "--iters", "0"),
            ("plan", "--gpus", "0"),
            ("plan", "--features", "0"),
            ("plan", "--seed", "-1"),
            ("plan", "--replicate-gib", "nan"),
            ("plan", "--milp-time", "inf"),
            # Flags inert without their enabling flag.
            ("plan", "--formulation", "step"),
            ("serve", "--queue-depth", "3"),
            ("serve", "--burst-qps", "99"),
            ("serve", "--idle-qps", "0"),
            ("serve", "--burst-ms", "10"),
            ("serve", "--idle-ms", "10"),
        ],
    )
    def test_rejects_out_of_range(self, command, flag, value, capsys):
        assert flag in _rejected([command, flag, value] + self.COMMON, capsys)

    @pytest.mark.parametrize(
        "sweep,flag,value",
        [
            ("hbm=1", "--replicate-gib", "1"),
            ("replicate=0,1", "--replicate-gib", "1"),
            ("tiers=2,3", "--precisions", "uvm=fp16"),
            ("gpus=2", "--precisions", "uvm=fp16"),
            ("precisions=fp16", "--precisions", "uvm=fp16"),
        ],
    )
    def test_sweep_rejects_flags_its_grid_ignores(
        self, sweep, flag, value, capsys
    ):
        argv = ["plan", "--sweep", sweep, flag, value, "--batch", "256"]
        assert flag in _rejected(argv + self.COMMON, capsys)

    def test_fast_sharder_takes_steps(self):
        # --milp-time 0 picks the fast sharder; it must still plan at
        # the requested ICDF resolution.
        for command in ("plan", "compare", "replay", "serve"):
            args = build_parser().parse_args(
                [command, "--milp-time", "0", "--steps", "20"]
            )
            assert _make_recshard(args).steps == 20


class TestCommands:
    COMMON = ["--features", "40", "--gpus", "2", "--batch", "256"]

    def test_characterize(self, capsys):
        assert main(["characterize", "--model", "rm1"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "avg_pooling" in out
        assert "coverage" in out

    def test_shard_fast(self, capsys):
        argv = ["plan", "--model", "rm2", "--milp-time", "0"] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rows on UVM" in out
        assert "tables per GPU" in out

    def test_shard_milp(self, capsys):
        argv = [
            "plan", "--model", "rm1", "--milp-time", "10", "--steps", "10",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan for RM1" in out
        assert "(solver: " in out
        assert "rows on UVM" in out and "tables per GPU" in out

    @pytest.mark.parametrize(
        "extra", [["--sweep", "hbm=1,2"], ["--strategies", "auto"]]
    )
    def test_plan_milp_rejects_workspace_paths(self, extra, capsys):
        err = _rejected(
            ["plan", "--milp-time", "5"] + extra + self.COMMON, capsys
        )
        assert "--milp-time" in err and extra[0] in err

    def test_plan_vectorized_default(self, capsys):
        argv = ["plan", "--model", "rm2"] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "vectorized planner" in out
        assert "plan build wall-clock" in out

    def test_plan_rejects_removed_engine_flags(self, capsys):
        # The scalar planner is a test oracle, not a CLI mode.
        for flag in ("--scalar", "--vectorized"):
            with pytest.raises(SystemExit) as exc:
                main(["plan", flag, "--model", "rm2"] + self.COMMON)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_plan_sweep_hbm(self, capsys):
        argv = ["plan", "--model", "rm2", "--sweep", "hbm=0.5,1,2"] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hbm sweep" in out
        assert "hbm_scale=0.5" in out
        assert "one shared workspace" in out

    def test_plan_sweep_gpus(self, capsys):
        argv = ["plan", "--model", "rm1", "--sweep", "gpus=2,4"] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "gpus=2" in out and "gpus=4" in out

    def test_plan_sweep_infeasible_point_reports_cleanly(self, capsys):
        # The workload is row-scaled to --gpus; a much smaller sweep
        # point cannot hold it and must error, not traceback.
        argv = [
            "plan", "--model", "rm2", "--features", "40", "--gpus", "8",
            "--batch", "256", "--sweep", "gpus=2",
        ]
        err = _rejected(argv, capsys)
        assert "sweep point gpus=2" in err
        assert "sized for --gpus 8" in err

    def test_plan_sweep_rejects_bad_grid(self, capsys):
        argv = ["plan", "--sweep", "volts=1,2"] + self.COMMON
        assert "--sweep expects" in _rejected(argv, capsys)

    def test_plan_sweep_rejects_zero_grid_point(self, capsys):
        # Regression: hbm=0 used to crash deep in the planner instead
        # of failing validation with sweep-point context.
        argv = ["plan", "--model", "rm2", "--sweep", "hbm=0,1"] + self.COMMON
        err = _rejected(argv, capsys)
        assert "hbm_scale=0" in err
        assert "must be finite" in err

    def test_plan_sweep_rejects_zero_gpus_point(self, capsys):
        argv = ["plan", "--model", "rm2", "--sweep", "gpus=0,2"] + self.COMMON
        assert "gpus=0" in _rejected(argv, capsys)

    def test_plan_strategies_auto(self, capsys):
        argv = ["plan", "--model", "rm2", "--strategies", "auto"] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "strategy plan for" in out
        assert "per-table strategies" in out
        assert "row-only est. max GPU cost" in out

    def test_plan_strategies_with_replicas(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--strategies", "auto",
            "--replicate-gib", "1",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "strategy plan for" in out
        assert "replicated rows:" in out and "replica bytes/GPU" in out

    def test_plan_strategies_rejects_unknown_kind(self, capsys):
        argv = ["plan", "--strategies", "diagonal"] + self.COMMON
        assert "diagonal" in _rejected(argv, capsys)

    def test_plan_sweep_strategies(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--sweep", "strategies=row,auto",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "strategies=row" in out and "strategies=auto" in out

    def test_plan_precisions_flag(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--precisions", "uvm=fp16",
        ] + self.COMMON
        assert main(argv) == 0
        assert "plan for RM2" in capsys.readouterr().out

    def test_plan_precisions_rejects_unknown_name(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--precisions", "uvm=fp12",
        ] + self.COMMON
        err = _rejected(argv, capsys)
        assert "--precisions" in err and "unknown precision" in err

    def test_plan_precisions_rejects_unknown_tier(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--precisions", "dram=fp16",
        ] + self.COMMON
        assert "no tier named" in _rejected(argv, capsys)

    def test_plan_sweep_precisions(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--sweep", "precisions=fp32,fp16,int8",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "precisions sweep" in out
        assert "precisions=fp32" in out
        assert "precisions=int8" in out

    def test_plan_sweep_precisions_rejects_unknown_name(self, capsys):
        argv = [
            "plan", "--model", "rm2", "--sweep", "precisions=fp32,fp12",
        ] + self.COMMON
        assert "precisions=fp12" in _rejected(argv, capsys)

    def test_plan_sweep_unknown_axis_lists_valid_axes(self, capsys):
        # The axis-name error must name every valid axis so a typo'd
        # grid is self-correcting from the message alone.
        argv = ["plan", "--sweep", "precision=fp16"] + self.COMMON
        err = _rejected(argv, capsys)
        assert "--sweep expects" in err
        for axis in ("hbm=", "gpus=", "tiers=", "replicate=",
                     "strategies=", "precisions="):
            assert axis in err

    def test_serve_precisions_flag(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "20000", "--requests", "400", "--batch-requests", "64",
            "--precisions", "uvm=int8",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tier precisions" in out
        assert "uvm int8" in out

    def test_compare(self, capsys):
        argv = [
            "compare", "--model", "rm2", "--milp-time", "0", "--iters", "2",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "RecShard speedup vs next best" in out
        assert "Size-Based" in out

    def test_shard_reclaim_dead(self, capsys):
        argv = [
            "plan", "--model", "rm3", "--milp-time", "0", "--reclaim-dead",
        ] + self.COMMON
        assert main(argv) == 0
        assert "rows on UVM" in capsys.readouterr().out

    def test_replay_vectorized_default(self, capsys):
        argv = [
            "replay", "--model", "rm2", "--milp-time", "0", "--iters", "2",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "vectorized engine" in out
        assert "replay wall-clock" in out

    def test_replay_rejects_removed_engine_flags(self, capsys):
        # The scalar engine is a test oracle, not a CLI mode.
        for flag in ("--scalar", "--vectorized"):
            with pytest.raises(SystemExit) as exc:
                main(["replay", flag, "--model", "rm2"] + self.COMMON)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_serve(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "20000", "--requests", "400", "--batch-requests", "64",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "QPS" in out
        assert "p50" in out and "p99" in out

    def test_serve_with_drift(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "20000", "--requests", "600", "--batch-requests", "64",
            "--drift-months", "20", "--drift-threshold", "2",
            "--drift-min-samples", "128",
        ] + self.COMMON
        assert main(argv) == 0
        assert "QPS" in capsys.readouterr().out

    def test_serve_with_chaos_drill(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "600", "--batch-requests", "64",
            "--replicate-gib", "1", "--chaos", "fail@4:1",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "device 1 fails" in out
        assert "dropped" in out

    def test_serve_worker_kill_drill(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "600", "--batch-requests", "64",
            "--workers", "2", "--chaos", "kill@2:1",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[supervisor]" in out
        assert "respawned worker 1" in out

    def test_serve_with_slo_and_priorities(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "600", "--batch-requests", "64",
            "--slo-ms", "5", "--deadline-ms", "8",
            "--priorities", "gold=0.1,silver=0.3,bronze=0.6",
        ] + self.COMMON
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "class gold" in out and "class bronze" in out

    def test_serve_with_brownout(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "600", "--batch-requests", "64",
            "--slo-ms", "5", "--brownout",
        ] + self.COMMON
        assert main(argv) == 0
        assert "QPS" in capsys.readouterr().out

    def test_serve_report_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "600", "--batch-requests", "64",
            "--deadline-ms", "8", "--report-json", str(path),
        ] + self.COMMON
        assert main(argv) == 0
        assert f"wrote metrics summary to {path}" in capsys.readouterr().out
        summary = json.loads(path.read_text())
        assert summary["requests"] == 600
        assert "p99_ms" in summary and "goodput" in summary

    def test_serve_workers_with_qos(self, capsys):
        argv = [
            "serve", "--model", "rm2", "--milp-time", "0",
            "--qps", "50000", "--requests", "400", "--batch-requests", "64",
            "--workers", "2", "--slo-ms", "5", "--deadline-ms", "8",
        ] + self.COMMON
        assert main(argv) == 0
        assert "goodput" in capsys.readouterr().out


class TestServeValidation:
    COMMON = ["--features", "40", "--gpus", "2", "--batch", "256"]

    def run(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--model", "rm2"] + self.COMMON + extra)
        return exc.value.code, capsys.readouterr().err

    def test_rejects_nonpositive_qps(self, capsys):
        code, err = self.run(["--qps", "-5"], capsys)
        assert code == 2 and "--qps" in err

    def test_rejects_nonpositive_queue_depth(self, capsys):
        code, err = self.run(
            ["--workers", "2", "--queue-depth", "0"], capsys
        )
        assert code == 2 and "--queue-depth" in err

    def test_rejects_negative_workers(self, capsys):
        code, err = self.run(["--workers", "-1"], capsys)
        assert code == 2 and "--workers" in err

    def test_rejects_malformed_chaos_spec(self, capsys):
        code, err = self.run(["--chaos", "melt@10:0"], capsys)
        assert code == 2 and "melt@10:0" in err

    def test_rejects_worker_kill_without_workers(self, capsys):
        code, err = self.run(["--chaos", "kill@10:0"], capsys)
        assert code == 2 and "--workers" in err

    def test_rejects_chaos_device_out_of_range(self, capsys):
        code, err = self.run(["--chaos", "fail@10:7"], capsys)
        assert code == 2 and "only 2 devices" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-delay-ms", "0"),
            ("--burst-qps", "0"),
            ("--burst-qps", "-10"),
            ("--idle-qps", "-1"),
            ("--burst-ms", "0"),
            ("--idle-ms", "-2"),
            ("--slo-ms", "0"),
            ("--deadline-ms", "-1"),
            ("--queue-limit-ms", "0"),
            ("--qps", "nan"),
            ("--max-delay-ms", "nan"),
            ("--burst-ms", "nan"),
            ("--staging-gib", "inf"),
            ("--drift-threshold", "-1"),
            ("--drift-min-samples", "-5"),
        ],
    )
    def test_rejects_nonpositive_serve_knobs(self, flag, value, capsys):
        code, err = self.run([flag, value], capsys)
        assert code == 2 and flag in err

    @pytest.mark.parametrize(
        "extra,flag",
        [
            (["--milp-time", "5"], "--milp-time"),
            (["--milp-time", "0"], "--milp-time"),
            (["--formulation", "step"], "--formulation"),
            (["--reclaim-dead"], "--reclaim-dead"),
            (
                ["--formulation", "step", "--milp-time", "5",
                 "--reclaim-dead"],
                "--milp-time",
            ),
        ],
    )
    def test_rejects_two_tier_planner_flags_beyond_two_tiers(
        self, extra, flag, capsys
    ):
        # Beyond two tiers serve plans with the multi-tier greedy, which
        # would silently ignore these flags.
        code, err = self.run(
            ["--requests", "200", "--tiers", "hbm,dram,ssd"] + extra, capsys
        )
        assert code == 2 and flag in err

    def test_rejects_brownout_without_slo(self, capsys):
        code, err = self.run(["--brownout"], capsys)
        assert code == 2 and "--slo-ms" in err

    def test_rejects_malformed_priorities(self, capsys):
        code, err = self.run(["--priorities", "gold=0.5,silver=0.7"], capsys)
        assert code == 2 and "--priorities" in err

    def test_accepts_qos_with_drift(self, capsys):
        # Regression: QoS flags used to be rejected whenever drift
        # replanning was on.  The synthetic stream now carries deadline
        # and priority columns, so the combination must serve cleanly.
        code = main(
            ["serve", "--model", "rm2"] + self.COMMON + [
                "--milp-time", "0", "--qps", "20000", "--requests", "400",
                "--batch-requests", "64", "--slo-ms", "5",
                "--deadline-ms", "8",
                "--priorities", "gold=0.2,bronze=0.8",
                "--drift-months", "20", "--drift-threshold", "2",
                "--drift-min-samples", "128",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "goodput" in captured.out
        assert "class gold" in captured.out

    def test_accepts_burst_with_drift(self, capsys):
        # Bursty arrivals used to be rejected with drift: both now come
        # from the one request generator.
        code = main(
            ["serve", "--model", "rm2"] + self.COMMON + [
                "--milp-time", "0", "--requests", "400",
                "--batch-requests", "64", "--burst", "--drift-months", "6",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "bursty" in captured.out
