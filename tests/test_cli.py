"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.thresholds import ThresholdConfig
from repro.service.checkpoint import CHECKPOINT_VERSION


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workload == "cpuio"
        assert args.trace == 2
        assert args.goal_factor == 1.25

    def test_compare_options(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "tpcc", "--trace", "4", "--goal-factor", "5"]
        )
        assert args.workload == "tpcc"
        assert args.trace == 4
        assert args.goal_factor == 5.0

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "oltpbench"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_calibrate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate"])

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_capture_defaults(self):
        args = build_parser().parse_args(
            ["trace", "capture", "--out", "t.jsonl"]
        )
        assert args.scenario == "steady"
        assert args.level == "debug"
        assert args.metrics is None

    def test_trace_capture_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "capture", "--scenario", "nope", "--out", "t.jsonl"]
            )


class TestCommands:
    def test_compare_runs_small(self, capsys):
        exit_code = main(
            ["compare", "--workload", "cpuio", "--trace", "1", "--intervals", "8"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Auto" in out
        assert "cost / interval" in out

    def test_calibrate_writes_config(self, tmp_path, capsys):
        out_path = tmp_path / "thresholds.json"
        exit_code = main(
            [
                "calibrate",
                "--tenants", "14",
                "--intervals", "6",
                "--out", str(out_path),
            ]
        )
        assert exit_code == 0
        config = ThresholdConfig.load(out_path)
        assert config.util_high_pct == 70.0

    def test_fleet_analysis_prints_stats(self, capsys):
        exit_code = main(["fleet-analysis", "--tenants", "30", "--days", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "IEI" in out
        assert "1-step resizes" in out

    def test_compare_with_calibrated_thresholds(self, tmp_path, capsys):
        from repro.core.thresholds import default_thresholds

        path = tmp_path / "t.json"
        default_thresholds().save(path)
        exit_code = main(
            [
                "compare",
                "--trace", "1",
                "--intervals", "6",
                "--thresholds", str(path),
            ]
        )
        assert exit_code == 0


@pytest.fixture(scope="module")
def steady_trace_files(tmp_path_factory):
    """Capture the steady scenario once and share the files module-wide."""
    root = tmp_path_factory.mktemp("traces")
    trace_path = root / "steady.jsonl"
    metrics_path = root / "metrics.json"
    exit_code = main(
        [
            "trace", "capture",
            "--scenario", "steady",
            "--out", str(trace_path),
            "--metrics", str(metrics_path),
        ]
    )
    assert exit_code == 0
    return trace_path, metrics_path


class TestTraceCommands:
    def test_capture_writes_trace_and_metrics(self, steady_trace_files):
        trace_path, metrics_path = steady_trace_files
        assert trace_path.exists()
        assert metrics_path.exists()
        from repro.obs.tracer import load_events

        events = load_events(trace_path)
        assert events
        assert events[0].seq == 0

    def test_metrics_export_round_trip(self, steady_trace_files):
        import json

        trace_path, metrics_path = steady_trace_files
        from repro.obs.tracer import load_events

        events = load_events(trace_path)
        snapshot = json.loads(metrics_path.read_text())
        name = f"events.{events[0].component}.{events[0].kind.value}"
        counted = sum(
            1
            for e in events
            if e.component == events[0].component and e.kind == events[0].kind
        )
        assert snapshot["counters"][name] == counted

    def test_show_filters_by_component(self, steady_trace_files, capsys):
        trace_path, _ = steady_trace_files
        exit_code = main(
            ["trace", "show", str(trace_path), "--component", "scaler"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        body, _, footer = out.rstrip().rpartition("\n")
        assert "events shown)" in footer
        assert body
        for line in body.splitlines():
            assert " scaler/" in line

    def test_show_limit(self, steady_trace_files, capsys):
        trace_path, _ = steady_trace_files
        exit_code = main(["trace", "show", str(trace_path), "--limit", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.startswith("#00000 ")
        assert "(3 of " in out

    def test_summary_json_round_trip(self, steady_trace_files, capsys):
        import json

        trace_path, _ = steady_trace_files
        exit_code = main(["trace", "summary", str(trace_path), "--json"])
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)
        from repro.obs.tracer import load_events

        events = load_events(trace_path)
        assert summary["events"] == len(events)
        assert sum(summary["by_kind"].values()) == len(events)
        assert sum(summary["by_component"].values()) == len(events)

    def test_summary_human_readable(self, steady_trace_files, capsys):
        trace_path, _ = steady_trace_files
        exit_code = main(["trace", "summary", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "by component:" in out
        assert "by kind:" in out

    def test_show_missing_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["trace", "show", str(tmp_path / "absent.jsonl")])
        assert exit_code == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_summary_missing_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["trace", "summary", str(tmp_path / "absent.jsonl")])
        assert exit_code == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_show_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0}\nnot json\n')
        exit_code = main(["trace", "show", str(bad)])
        assert exit_code == 2
        assert "bad.jsonl" in capsys.readouterr().err

    def test_show_empty_trace_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        exit_code = main(["trace", "show", str(empty)])
        assert exit_code == 1
        assert "no events" in capsys.readouterr().err

    def test_summary_empty_trace_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        exit_code = main(["trace", "summary", str(empty)])
        assert exit_code == 1
        assert "no events" in capsys.readouterr().err


class TestTraceRobustInputs:
    """trace show/summary must fail readably on garbage, never traceback."""

    def test_show_directory_exits_2(self, tmp_path, capsys):
        exit_code = main(["trace", "show", str(tmp_path)])
        assert exit_code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_summary_directory_exits_2(self, tmp_path, capsys):
        exit_code = main(["trace", "summary", str(tmp_path)])
        assert exit_code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_show_binary_file_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "trace.jsonl"
        binary.write_bytes(b"\x93NUMPY\x01\x00\xff\xfe\x00junk")
        exit_code = main(["trace", "show", str(binary)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "not a text file" in err or "trace.jsonl" in err

    def test_show_truncated_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cut.jsonl"
        bad.write_text('{"seq": 0, "component": "scaler", "kind"\n')
        exit_code = main(["trace", "show", str(bad)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "cut.jsonl" in err and "Traceback" not in err

    def test_summary_valid_json_wrong_shape_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "shape.jsonl"
        bad.write_text("[1, 2, 3]\n")  # valid JSON, not a trace event
        exit_code = main(["trace", "summary", str(bad)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "shape.jsonl" in err and "Traceback" not in err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.tenants == 4
        assert args.intervals == 20
        assert args.checkpoint_every == 1
        assert args.checkpoint_dir is None
        assert args.kill_at is None

    def test_checkpoint_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoint"])

    def test_checkpoint_inspect_takes_file(self):
        args = build_parser().parse_args(["checkpoint", "inspect", "x.json"])
        assert args.checkpoint_command == "inspect"
        assert args.file == "x.json"


class TestServeCommand:
    def test_serve_with_kills_and_inspect(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        exit_code = main(
            [
                "serve",
                "--tenants", "2",
                "--intervals", "8",
                "--checkpoint-dir", str(ckpt_dir),
                "--kill-at", "3,6",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "served 2 tenants for 8 intervals" in out
        assert "2 restores" in out
        assert (ckpt_dir / "latest.json").exists()

        exit_code = main(["checkpoint", "inspect", str(ckpt_dir / "latest.json")])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"version {CHECKPOINT_VERSION} controller checkpoint" in out
        assert "tenant-000" in out

    def test_serve_bad_kill_at_exits_2(self, capsys):
        exit_code = main(["serve", "--kill-at", "3,oops"])
        assert exit_code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_inspect_json_round_trips(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(
            ["serve", "--tenants", "1", "--intervals", "5",
             "--checkpoint-dir", str(ckpt_dir)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["checkpoint", "inspect", str(ckpt_dir / "latest.json"), "--json"]
        )
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_tenants"] == 1
        assert summary["interval"] == 4

    def test_inspect_attributes_bytes_per_tenant_section(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(
            ["serve", "--tenants", "2", "--intervals", "5",
             "--checkpoint-dir", str(ckpt_dir)]
        ) == 0
        capsys.readouterr()
        latest = str(ckpt_dir / "latest.json")
        payload = json.loads((ckpt_dir / "latest.json").read_text())["payload"]

        assert main(["checkpoint", "inspect", latest, "--json"]) == 0
        tenants = json.loads(capsys.readouterr().out)["tenants"]
        assert sorted(tenants) == sorted(payload["tenants"])
        for tenant_id, info in tenants.items():
            state = payload["tenants"][tenant_id]
            assert info["trace_events"] == state["tracer"]["events"].count("\n") > 0
            for section in ("scaler", "tracer"):
                text = json.dumps(
                    state[section], sort_keys=True, separators=(",", ":")
                )
                assert info[f"{section}_bytes"] == len(text)

        assert main(["checkpoint", "inspect", latest]) == 0
        out = capsys.readouterr().out
        for tenant_id, info in tenants.items():
            line = next(row for row in out.splitlines() if f"{tenant_id}:" in row)
            assert f"trace_events={info['trace_events']}" in line
            assert f"scaler_bytes={info['scaler_bytes']}" in line
            assert f"tracer_bytes={info['tracer_bytes']}" in line

    def test_inspect_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        exit_code = main(["checkpoint", "inspect", str(bad)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_inspect_missing_checkpoint_exits_2(self, tmp_path, capsys):
        exit_code = main(["checkpoint", "inspect", str(tmp_path / "no.json")])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestFleetSweepCommand:
    def _sweep(self, tmp_path, *flags):
        out = tmp_path / "sweep.json"
        argv = ["fleet", "sweep", "--intervals", "6", "--out", str(out)]
        code = main(argv + list(flags))
        return code, (json.loads(out.read_text()) if out.exists() else None)

    def test_sharded_closed_loop_matches_unsharded_run(self, tmp_path):
        from repro.fleet.vectorized import run_synthetic_sweep

        code, digest = self._sweep(tmp_path, "--tenants", "300", "--shards", "3")
        assert code == 0
        whole = run_synthetic_sweep(300, 6, seed=7)
        assert digest["n_shards"] == 3
        assert digest["resizes"] == whole["resizes"] > 0
        assert digest["budget_spent"] == pytest.approx(
            whole["budget_spent"], rel=1e-12
        )
        assert digest["balloon_transitions"] == whole["balloon_transitions"]
        assert digest["final_level_histogram"] == whole["final_level_histogram"]
        assert digest["actuation"] == whole["actuation"]

    @pytest.mark.parametrize(
        "flags",
        [(), ("--shards", "2")],
        ids=["unsharded", "sharded"],
    )
    def test_rss_ceiling_exceeded_exits_1(self, tmp_path, capsys, flags):
        code, digest = self._sweep(
            tmp_path, "--tenants", "20", "--max-rss-gb", "1e-6", *flags
        )
        assert code == 1
        assert digest is not None
        assert "peak RSS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [(), ("--shards", "2")], ids=["unsharded", "sharded"]
    )
    @pytest.mark.parametrize(
        "ceiling, want", [("1e-9", 1), ("1e9", 0)], ids=["exceeded", "held"]
    )
    def test_interval_ceiling(self, tmp_path, capsys, flags, ceiling, want):
        code, digest = self._sweep(
            tmp_path, "--tenants", "20", "--max-interval-s", ceiling, *flags
        )
        assert code == want
        assert digest is not None
        exceeded = "s/interval exceeds" in capsys.readouterr().err
        assert exceeded == (want == 1)
