"""Unit tests for the CLI driver."""

import json

import pytest

from repro.flow.cli import build_parser, main


class TestParser:
    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "mimonet"])
        assert args.workload == "mimonet"
        assert args.device == "u250"
        assert args.precision == "MP"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "gpt4"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.devices == "u250"
        assert args.precisions == "MP"
        assert not args.no_cache
        assert str(args.cache_dir) == ".nsflow-cache"

    def test_lease_and_poll_defaults_are_the_library_defaults(self):
        """The parser spells these defaults out so building it imports
        neither the sweep layer nor the client; they must stay equal."""
        from repro.flow.client import DEFAULT_POLL_S
        from repro.flow.sweep import DEFAULT_LEASE_TIMEOUT_S

        parser = build_parser()
        for argv in (["sweep"], ["serve"]):
            assert parser.parse_args(argv).lease_timeout == DEFAULT_LEASE_TIMEOUT_S
        submit = parser.parse_args(["submit", "--server", "http://127.0.0.1:1"])
        assert submit.poll == DEFAULT_POLL_S

    def test_sweep_filter_flags_accumulate(self):
        args = build_parser().parse_args([
            "sweep", "--include", "nvsa@*", "--include", "mimonet@*",
            "--exclude", "*@zcu104/*",
        ])
        assert args.include == ["nvsa@*", "mimonet@*"]
        assert args.exclude == ["*@zcu104/*"]

    def test_serve_accepts_the_benchmark_argv(self, tmp_path):
        """``perfbench/serve.py`` starts the server with exactly this argv."""
        args = build_parser().parse_args([
            "serve", "--port", "0", "--cache-dir", str(tmp_path), "--jobs", "1",
        ])
        assert args.port == 0 and args.cache_dir == tmp_path

    def test_serve_rejects_jobs_other_than_one(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--jobs", "2"])
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compile", "mimonet", "--jobs", "2"],
        ["sweep", "--jobs", "2"],
        # Remote grids go through `repro submit`.
        ["sweep", "--server", "http://127.0.0.1:1"],
    ])
    def test_compile_and_sweep_have_no_jobs_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {' '.join(argv[-2:])}"
                in capsys.readouterr().err)


class TestCommands:
    def test_workloads_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("nvsa", "mimonet", "lvrf", "prae"):
            assert name in out

    def test_compile_prints_summary(self, capsys):
        assert main(["compile", "mimonet"]) == 0
        out = capsys.readouterr().out
        assert "AdArray (H, W, N)" in out
        assert "Simulated latency" in out

    def test_compile_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "build"
        assert main(["compile", "mimonet", "--out", str(out_dir)]) == 0
        for artifact in (
            "trace.json", "design_config.json", "nsflow_params.vh", "host.cpp"
        ):
            assert (out_dir / artifact).exists(), artifact
        doc = json.loads((out_dir / "design_config.json").read_text())
        assert doc["workload"] == "mimonet"
        assert "`define NSFLOW_SUBARRAY_H" in (out_dir / "nsflow_params.vh").read_text()

    def test_compile_precision_flag(self, tmp_path):
        out_dir = tmp_path / "fp32"
        assert main([
            "compile", "mimonet", "--precision", "FP32", "--out", str(out_dir)
        ]) == 0
        doc = json.loads((out_dir / "design_config.json").read_text())
        assert doc["precision"]["neural"] == "fp32"

    def test_characterize(self, capsys):
        assert main(["characterize", "mimonet"]) == 0
        out = capsys.readouterr().out
        assert "RTX 2080" in out
        assert "Symbolic runtime" in out

    def test_compile_prints_latency_breakdown(self, capsys):
        assert main(["compile", "mimonet"]) == 0
        out = capsys.readouterr().out
        assert "Cost backend" in out
        assert "analytic v1" in out
        assert "Latency breakdown" in out
        assert "fill/drain" in out

    def test_compile_schedule_backend_breakdown_has_dram(self, capsys):
        """Acceptance: --backend schedule yields non-zero DRAM/overlap."""
        assert main(["compile", "mimonet", "--backend", "schedule"]) == 0
        out = capsys.readouterr().out
        assert "schedule v1" in out
        dram_row = next(
            line for line in out.splitlines()
            if line.startswith("DRAM traffic")
        )
        overlap_row = next(
            line for line in out.splitlines()
            if line.startswith("overlap")
        )
        assert "| 0 " not in dram_row
        assert "| -0 " not in overlap_row

    def test_compile_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "mimonet", "--backend", "rtl"])
        assert "--backend" in capsys.readouterr().err

    def test_sweep_rejects_a_deadline_it_cannot_arm(self, tmp_path, capsys):
        """A zero budget can never fire, so the sweep refuses to start."""
        ledger = tmp_path / "run.jsonl"
        assert main([
            "sweep", "--workloads", "prae", "--no-cache",
            "--ledger", str(ledger), "--scenario-timeout", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scenario timeout")
        assert "prae@" not in captured.out
        assert not ledger.exists()
