"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import os
import re
import runpy
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import rbfcors.cli
import rbfcors.engine
from rbfcors.cli import (
    EXIT_CONFIG,
    EXIT_DRIVER,
    EXIT_INTERRUPTED,
    EXIT_OBJECTIVE,
    EXIT_OK,
    format_float,
    load_run_config,
    main,
    parse_history,
)
from rbfcors.rbf import SingularFitError, fit


def write_config(path, **overrides):
    config = {
        "objective": "valley",
        "n_init": 10,
        "n_iter": 5,
        "seed": 7,
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=1))
    return path


class TestRunCommand:
    def test_successful_run_writes_history_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "hist.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback"
        assert len(lines) == 16  # header + 10 initial + 5 subsequent
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("best_x=") and "best_f=" in last

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", seed=1)
        cfg_b = write_config(tmp_path / "b.json", seed=2)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_a), "--seed", "9", "--out", str(out_a)])
        main(["run", "--config", str(cfg_b), "--seed", "9", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_progress_line_per_batch_on_stderr(self, tmp_path, capsys):
        line = re.compile(r"iter=\d+ rho=\d\.\d{6} r=\d\.\d{6} best=\S+")
        out = str(tmp_path / "hist.csv")
        for n_iter, batch_size, batches, maximize in (
            (5, 1, 5, False),
            (4, 2, 2, False),
            (4, 2, 2, True),
        ):
            cfg = write_config(
                tmp_path / "cfg.json", n_iter=n_iter, batch_size=batch_size, maximize=maximize
            )
            assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_OK
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            # A handler left over from the first run would double these lines.
            assert len(lines) == batches
            assert all(line.fullmatch(text) for text in lines)
            assert lines[-1].startswith(f"iter={n_iter} ")
            # best= is the best returned value, also under maximize.
            best_f = float(captured.out.split("best_f=")[1])
            assert lines[-1].endswith(f" best={best_f:.6g}")

    def test_driver_failure_exits_four_with_partial_history(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = 0

        def failing_fit(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise SingularFitError("injected fit failure")
            return fit(*args, **kwargs)

        monkeypatch.setattr(rbfcors.engine, "fit", failing_fit)
        cfg = write_config(tmp_path / "cfg.json", n_init=10, n_iter=5, batch_size=1)
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DRIVER
        # header + 10 initial + the 2 batches fitted before the failing third
        assert len(out.read_text().splitlines()) == 13
        assert "injected fit failure" in capsys.readouterr().err

    def test_interrupt_exits_130_and_writes_the_history_so_far(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(
            tmp_path / "cfg.json", objective="multimodal", n_init=6, n_iter=8,
            batch_size=2, workers=2, seed=3,
        )
        clean = tmp_path / "clean.csv"
        assert main(["run", "--config", str(cfg), "--out", str(clean)]) == EXIT_OK
        look_ahead = rbfcors.engine._look_ahead

        def interrupted_at_five(*args):
            # Iteration 5's look-ahead runs while the batch of 3 and 4 evaluates.
            if args[4] == 5:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(1.0)
            return look_ahead(*args)

        monkeypatch.setattr(rbfcors.engine, "_look_ahead", interrupted_at_five)
        capsys.readouterr()
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERRUPTED
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: interrupted after 8 evaluations"
        assert not any("Traceback" in line for line in err)
        partial = out.read_bytes()
        # header + 6 initial + the batch of 1 and 2
        assert len(partial.splitlines()) == 9
        assert clean.read_bytes().startswith(partial)

    def test_valley_converges_near_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n_init=20, n_iter=10, seed=3)
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        best_f = float(summary.split("best_f=")[1])
        assert best_f <= 0.05

    def test_unknown_key_rejected_with_line_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["n_itr"] = 3  # typo
        cfg.write_text(json.dumps(doc, indent=1))
        line = next(
            i
            for i, text in enumerate(cfg.read_text().splitlines(), start=1)
            if "n_itr" in text
        )
        code = main(["run", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        message = capsys.readouterr().err
        assert "n_itr" in message and f"line {line}" in message

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"n_init": 3}, "n_init"),
            ({"n_iter": -1}, "n_iter"),
            ({"initial_density": 1.5}, "initial_density"),
            ({"decay_exponent": 0}, "decay_exponent"),
            ({"keep_fraction": 0.0}, "keep_fraction"),
            ({"lh_attempts": -1}, "lh_attempts"),
            ({"cloud_size": 99}, "cloud_size"),
            ({"best_fraction": 0.6}, "best_fraction"),
            ({"workers": 0}, "workers"),
            ({"batch_size": 0}, "batch_size"),
            ({"seed": 1.5}, "seed"),
            ({"use_space_rescaling": 1}, "use_space_rescaling"),
            ({"maximize": "yes"}, "maximize"),
            ({"proposal": [200]}, "proposal"),
            ({"proposal": {"uniform_per_dim": 0}}, "uniform_per_dim"),
            ({"proposal": {"local_candidates": -1}}, "local_candidates"),
            ({"proposal": {"pattern_steps": -1}}, "pattern_steps"),
            ({"proposal": {"initial_step": 0}}, "initial_step"),
            ({"proposal": {"min_step": 0.5}}, "min_step"),
            ({"seed": -1}, "seed"),
            ({"cloud_size": 100, "best_fraction": 0.005}, "best_fraction"),
        ],
    )
    def test_invalid_setting_rejected_with_line_number(
        self, tmp_path, capsys, overrides, key
    ):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        line = next(
            i
            for i, text in enumerate(cfg.read_text().splitlines(), start=1)
            if f'"{key}"' in text
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        message = capsys.readouterr().err
        assert key in message and f"line {line}" in message

    def test_workers_override_checked_like_file_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "hist.csv"
        code = main(["run", "--config", str(cfg), "--workers", "0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, dropped, message, key",
        [
            ({"lower": [0.0, 0.0]}, None, "lower and upper must be given together", "lower"),
            (
                {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
                None,
                "objective 'valley' is 2-dimensional, got dim=3",
                "lower",
            ),
            (
                {"lower": [0.0, 0.5], "upper": [1.0, 0.5]},
                None,
                "upper bound must exceed lower bound for every variable; "
                "variable 1 has range [0.5, 0.5]",
                "lower",
            ),
            (
                {"objective": [sys.executable, 3], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                None,
                "external objective must be a non-empty array of strings",
                "objective",
            ),
            ({}, "objective", "missing required key 'objective'", None),
            ({}, "n_init", "missing required key 'n_init'", None),
            ({"upper": [1.0, 1.0]}, None, "lower and upper must be given together", "upper"),
            (
                {"keep_fraction": 10**400},
                None,
                "key 'keep_fraction' is too large for a float",
                "keep_fraction",
            ),
            (
                {"lower": [0.0, 0.0], "upper": [1.0, 10**400]},
                None,
                "upper has an entry too large for a float",
                "upper",
            ),
            ({"n_iter": 10**400}, None, f"key 'n_iter' must be at most {sys.maxsize}", "n_iter"),
            (
                {"cloud_size": 10**400},
                None,
                f"key 'cloud_size' must be at most {sys.maxsize}",
                "cloud_size",
            ),
            (
                {"proposal": {"uniform_per_dim": 10**400}},
                None,
                f"key 'uniform_per_dim' must be at most {sys.maxsize}",
                "uniform_per_dim",
            ),
            (
                {"seed": sys.maxsize + 1},
                None,
                f"key 'seed' must be at most {sys.maxsize}",
                "seed",
            ),
        ],
    )
    def test_config_error_exits_two_with_message(
        self, tmp_path, capsys, overrides, dropped, message, key
    ):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        if dropped is not None:
            doc = json.loads(cfg.read_text())
            del doc[dropped]
            cfg.write_text(json.dumps(doc, indent=1))
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        if key is not None:
            line = next(
                i
                for i, text in enumerate(cfg.read_text().splitlines(), start=1)
                if f'"{key}"' in text
            )
            message = f"line {line}: {message}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unmappable_workspace_exits_two_with_one_error_line(self, tmp_path, capsys):
        # The workspace takes about 8e15 bytes, past any 64-bit user address
        # space, so the map fails at once under every overcommit setting.
        cfg = write_config(
            tmp_path / "cfg.json", objective="sphere", n_init=6, n_iter=4, cloud_size=10**14
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err)
        assert err.startswith("error: cannot map a kernel workspace of 100000000000000 rows")
        assert not out.exists()

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_module_run_as_script_exits_with_main_code(self, tmp_path, capsys, monkeypatch):
        argv = ["rbfcors", "run", "--config", str(tmp_path / "missing.json")]
        monkeypatch.setattr(sys, "argv", argv)
        # Run from a fresh copy, as python -m does; the imported one stays.
        monkeypatch.delitem(sys.modules, "rbfcors.cli")
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("rbfcors.cli", run_name="__main__")
        assert exit_info.value.code == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_error_at_a_key_not_found_in_the_text_has_no_line(self, tmp_path, capsys):
        # The escaped key decodes to n_init, but its text never reads "n_init".
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"objective": "valley", "n\\u005finit": 3, "n_iter": 5}')
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: n_init must be at least dim + 2 = 4 to fit the surface, got 3\n"
        )

    def test_top_level_array_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["valley"]')
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_seed_override_checked_like_file_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "hist.csv"
        code = main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_too_small_design_rejected_naming_invariant(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n_init=3)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        message = capsys.readouterr().err
        assert "n_init" in message and "d + 2" in message.replace("dim", "d")

    def test_no_output_written_on_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_init=3)
        out = tmp_path / "hist.csv"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_bounds_must_lie_within_builtin_box(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", lower=[0.0, 0.0], upper=[2.0, 1.0])
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "within" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lower", "upper"])
    def test_malformed_bound_located_at_its_own_key(self, tmp_path, capsys, key):
        bounds = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        bounds[key] = [0.5, "a"]
        cfg = write_config(tmp_path / "cfg.json", **bounds)
        line = next(
            i
            for i, text in enumerate(cfg.read_text().splitlines(), start=1)
            if f'"{key}"' in text
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"line {line}: {key} must be an array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("via_flag", [False, True])
    def test_unwritable_output_rejected_before_any_evaluation(
        self, tmp_path, capsys, monkeypatch, via_flag
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(rbfcors.cli, "run", no_run)
        out = str(tmp_path / "nodir" / "hist.csv")
        if via_flag:
            argv = ["--config", str(write_config(tmp_path / "cfg.json")), "--out", out]
        else:
            argv = ["--config", str(write_config(tmp_path / "cfg.json", history_out=out))]
        assert main(["run", *argv]) == EXIT_CONFIG
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_directory_output_rejected_before_any_evaluation(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(rbfcors.cli, "run", no_run)
        out = tmp_path / "existing"
        out.mkdir()
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot write {out}: it is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["newdir/", ""])
    def test_output_without_file_name_rejected_before_any_evaluation(
        self, tmp_path, capsys, monkeypatch, name
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(rbfcors.cli, "run", no_run)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg), "--out", name]) == EXIT_CONFIG
        assert f"cannot write {name!r}: the path has no file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "work"]
        assert list(work.iterdir()) == []

    def test_narrowed_bounds_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", lower=[0.25, 0.25], upper=[0.75, 0.75]
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        points, _ = parse_history(str(out))
        assert points.shape == (15, 2)

    def test_invalid_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"objective": "valley",}')
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "JSON" in capsys.readouterr().err

    def test_unknown_objective_name_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", objective="rastrigin")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "rastrigin" in capsys.readouterr().err

    def test_proposal_settings_accepted_and_checked(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", proposal={"uniform_per_dim": 200}
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cfg = write_config(tmp_path / "bad.json", proposal={"uniform": 200})
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "uniform" in capsys.readouterr().err

    def test_loaded_config_carries_defaults(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        spec = load_run_config(str(cfg))
        assert spec.config.initial_density == 0.75
        assert spec.config.keep_fraction == 0.75
        assert spec.config.workers == 1
        assert spec.config.batch_size is None
        assert spec.history_out == "history.csv"

    def test_null_optional_settings_load_as_none(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seed=None, batch_size=None)
        spec = load_run_config(str(cfg))
        assert spec.config.seed is None
        assert spec.config.batch_size is None


def timing_out(proc):
    """proc.wait, except that a wait with a timeout times out at once."""
    wait = proc.wait

    def timed_wait(timeout=None):
        if timeout is not None:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        return wait()

    return timed_wait


class TestExternalObjective:
    def make_script(self, tmp_path, body):
        script = tmp_path / "objective.py"
        script.write_text(body)
        return script

    def test_subprocess_objective_runs(self, tmp_path, capsys):
        script = self.make_script(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    x, y = map(float, line.split())\n"
            "    print((x - 0.25) ** 2 + (y - 0.75) ** 2)\n"
            "    sys.stdout.flush()\n",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            objective=[sys.executable, str(script)],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
            n_init=8,
            n_iter=6,
            workers=2,
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        best_x = [float(v) for v in summary.split("best_x=")[1].split()[0].split(",")]
        assert abs(best_x[0] - 0.25) < 0.2 and abs(best_x[1] - 0.75) < 0.2

    def test_external_objective_requires_bounds(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", objective=[sys.executable, "x.py"])
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "bounds" in capsys.readouterr().err

    def test_interrupt_while_closing_the_objective_keeps_the_whole_history(
        self, tmp_path, capsys, monkeypatch
    ):
        script = self.make_script(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(sum(float(v) ** 2 for v in line.split()))\n"
            "    sys.stdout.flush()\n",
        )
        close = rbfcors.cli.CommandObjective.close

        def interrupted_close(self):
            close(self)
            raise KeyboardInterrupt

        monkeypatch.setattr(rbfcors.cli.CommandObjective, "close", interrupted_close)
        cfg = write_config(
            tmp_path / "cfg.json",
            objective=[sys.executable, str(script)],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
            n_init=6,
            n_iter=2,
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERRUPTED
        assert capsys.readouterr().err.splitlines()[-1] == "error: interrupted"
        assert len(out.read_text().splitlines()) == 9  # header + 6 initial + 2 subsequent

    def test_dying_objective_exits_three_with_partial_history(self, tmp_path, capsys):
        script = self.make_script(
            tmp_path,
            "import sys\n"
            "for i, line in enumerate(sys.stdin):\n"
            "    if i == 3:\n"
            "        sys.exit(1)\n"
            "    print(1.0)\n"
            "    sys.stdout.flush()\n",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            objective=[sys.executable, str(script)],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
            n_init=6,
            n_iter=2,
            workers=1,
        )
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OBJECTIVE
        assert out.exists()
        lines = out.read_text().splitlines()
        assert 1 < len(lines) < 9  # header plus the evaluations that finished

    def test_silent_exit_reported_when_its_status_wait_times_out(self, monkeypatch):
        # The command closes its stdout but reads on, so the call meets end
        # of file while the command is still running.
        objective = rbfcors.cli.CommandObjective(
            [sys.executable, "-c", "import os, sys; os.close(1); sys.stdin.read()"], slots=1
        )
        (proc,) = objective._procs
        try:
            with monkeypatch.context() as patch:
                patch.setattr(proc, "wait", timing_out(proc))
                with pytest.raises(RuntimeError, match="exited with status None"):
                    objective([0.5, 0.5])
        finally:
            objective.close()
        assert proc.returncode == 0  # it exits once close() ends its input

    def test_close_kills_a_command_that_outlives_its_input(self, monkeypatch):
        objective = rbfcors.cli.CommandObjective(
            [sys.executable, "-c", "import time; time.sleep(60)"], slots=1
        )
        (proc,) = objective._procs
        monkeypatch.setattr(proc, "wait", timing_out(proc))
        objective.close()
        assert proc.returncode == -signal.SIGKILL
        assert proc.stdin.closed and proc.stdout.closed

    def test_close_goes_on_when_closing_stdin_fails(self):
        objective = rbfcors.cli.CommandObjective([sys.executable, "-c", "pass"], slots=1)
        (proc,) = objective._procs
        proc.wait(timeout=30.0)
        # Buffered until close() flushes it into the dead command's pipe,
        # which raises BrokenPipeError.
        proc.stdin.write("0.5 0.5\n")
        objective.close()
        assert proc.returncode == 0
        assert proc.stdin.closed and proc.stdout.closed

    def test_missing_command_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            objective=["/nonexistent/objective-binary"],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OBJECTIVE
        assert "cannot start" in capsys.readouterr().err


class TestLhsCommand:
    def test_interrupt_exits_130_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(rbfcors.cli, "improve_lh", interrupted)
        out = tmp_path / "design.csv"
        assert main(["lhs", "--n", "5", "--d", "2", "--out", str(out)]) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not out.exists()

    def test_design_file_shape_and_trailer(self, tmp_path):
        # The digests were taken at commit 3fd6c29, before the exchanges
        # were scored in blocks: the designs must stay byte for byte.
        cases = [
            (20, 2, 1000, 1, "8e62666be5c73fb99d061ba53656a6db3473f732e062f39c660305b446a531c7"),
            (12, 5, 3000, 7, "f4c9416e1cd98c65445e4f92d57274efb6fc36b5df16fb79f54401c77f1f1fb3"),
        ]
        for n, d, attempts, seed, digest in cases:
            out = tmp_path / f"design_{n}x{d}.csv"
            code = main(
                ["lhs", "--n", str(n), "--d", str(d), "--attempts", str(attempts),
                 "--seed", str(seed), "--out", str(out)]
            )
            assert code == EXIT_OK
            lines = out.read_text().splitlines()
            assert lines[0] == ",".join(f"x_{axis + 1}" for axis in range(d))
            assert len(lines) == n + 2  # header + n rows + trailer
            trailer = lines[-1]
            assert trailer.startswith("# spread=")
            initial, final = trailer.removeprefix("# spread=").split(" -> ")
            assert float(final) < float(initial)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_zero_attempts_gives_diagonal(self, tmp_path):
        out = tmp_path / "design.csv"
        main(["lhs", "--n", "5", "--d", "3", "--attempts", "0", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        for row in rows:
            assert len(set(row)) == 1  # all coordinates equal on the diagonal

    def test_two_point_line(self, tmp_path):
        out = tmp_path / "design.csv"
        main(["lhs", "--n", "2", "--d", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[1] == "0.0" and lines[2] == "1.0"

    def test_rejects_single_point(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        assert main(["lhs", "--n", "1", "--d", "2", "--out", str(out)]) == EXIT_CONFIG
        assert "n must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_two_naming_path(self, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "design.csv")
        assert main(["lhs", "--n", "5", "--d", "2", "--out", out]) == EXIT_CONFIG
        message = capsys.readouterr().err
        assert f"cannot write {out}" in message and ".part" not in message


    def test_directory_output_exits_two_naming_path(self, tmp_path, capsys):
        assert main(["lhs", "--n", "5", "--d", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind


    @pytest.mark.parametrize("name", ["newdir2/", ""])
    def test_output_without_file_name_exits_two(self, tmp_path, capsys, monkeypatch, name):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["lhs", "--n", "5", "--d", "2", "--out", name]) == EXIT_CONFIG
        assert f"cannot write {name!r}: the path has no file name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []

    def test_negative_seed_exits_two_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        code = main(["lhs", "--n", "5", "--d", "2", "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


class TestSurfaceCommand:
    def run_history(self, tmp_path, **overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return out

    def load_grid(self, path):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    def test_consumes_run_output(self, tmp_path):
        history = self.run_history(tmp_path)
        out = tmp_path / "surface.csv"
        code = main(
            ["surface", "--history", str(history), "--resolution", "41", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert self.load_grid(out).shape == (41, 41)

    def test_grid_interpolates_sample_locations(self, tmp_path):
        history = self.run_history(tmp_path, n_init=20, n_iter=0, seed=5)
        out = tmp_path / "surface.csv"
        resolution = 101
        main(
            ["surface", "--history", str(history), "--resolution",
             str(resolution), "--out", str(out)]
        )
        grid = self.load_grid(out)
        points, fitted = parse_history(str(history))
        model = fit(points, fitted)
        axis = np.linspace(0.0, 1.0, resolution)
        for center, value in zip(points, fitted):
            i, j = (int(np.argmin(np.abs(axis - c))) for c in center)
            node = np.array([axis[i], axis[j]])
            # Local linearity slack: the surface moves at most its local
            # slope times the node offset (finite-difference estimate).
            step = 1e-4
            grad = np.array(
                [
                    (model.evaluate(center + e * step) - model.evaluate(center - e * step))
                    / (2 * step)
                    for e in np.eye(2)
                ]
            )
            slack = 1e-4 + 2.0 * float(np.linalg.norm(grad)) * float(
                np.linalg.norm(node - center)
            )
            assert abs(grid[i, j] - value) <= slack

    def test_grid_is_the_plain_fit_to_f_scaled(self, tmp_path):
        # The README's run example: 4 of its 20 values are clipped, so a fit
        # to f_raw would draw a different surface.
        history = self.run_history(
            tmp_path, objective="multimodal", n_init=12, n_iter=8, seed=11, batch_size=4
        )
        with open(history, newline="") as handle:
            rows = list(csv.DictReader(handle))
        points = np.array([[float(r["x_1"]), float(r["x_2"])] for r in rows])
        f_scaled = np.array([float(r["f_scaled"]) for r in rows])
        assert np.count_nonzero(f_scaled == 1.0) > 1  # more than the maximum is clipped

        out = tmp_path / "s.csv"
        code = main(["surface", "--history", str(history), "--resolution", "31",
                     "--out", str(out)])
        assert code == EXIT_OK

        model = fit(points, f_scaled)
        axis = np.linspace(0.0, 1.0, 31)
        first, second = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([first.ravel(), second.ravel()], axis=1)
        rows = model.evaluate_many(grid).reshape(31, 31)
        header = (
            "# response surface in the run's f_scaled units on the unit square; "
            "rows: x_1 from 0 to 1, columns: x_2 from 0 to 1, resolution=31\n"
        )
        expected = "".join(",".join(format_float(v) for v in row) + "\n" for row in rows)
        assert out.read_text() == header + expected

    def test_constant_history_gives_constant_grid(self, tmp_path):
        history = tmp_path / "hist.csv"
        rng = np.random.default_rng(0)
        rows = ["stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback"]
        for i in range(6):
            x, y = (float(v) for v in rng.random(2))
            rows.append(f"initial,{i},{x!r},{y!r},2.5,1.0,,0")
        history.write_text("\n".join(rows) + "\n")
        out = tmp_path / "surface.csv"
        assert main(
            ["surface", "--history", str(history), "--resolution", "11", "--out", str(out)]
        ) == EXIT_OK
        grid = self.load_grid(out)
        np.testing.assert_allclose(grid, 1.0, atol=1e-7)

    def test_large_grid_is_evaluated_in_blocks(self, tmp_path):
        # 301 x 301 nodes against 64 centers: one kernel matrix for the whole
        # grid would take 46 MB, and no block may come close to that.
        history = tmp_path / "hist.csv"
        rng = np.random.default_rng(1)
        rows = ["stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback"]
        for i, (x, y) in enumerate(rng.random((64, 2)).tolist()):
            rows.append(f"initial,{i},{x!r},{y!r},{float(np.sin(5 * x) + y)!r},0.5,,0")
        history.write_text("\n".join(rows) + "\n")
        out = tmp_path / "surface.csv"
        tracemalloc.start()
        try:
            code = main(["surface", "--history", str(history), "--resolution", "301",
                         "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert self.load_grid(out).shape == (301, 301)
        assert peak < 20e6

    def test_rejects_short_history(self, tmp_path, capsys):
        history = tmp_path / "hist.csv"
        history.write_text(
            "stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback\n"
            "initial,0,0.1,0.2,1.0,1.0,,0\n"
            "initial,1,0.9,0.8,2.0,1.0,,0\n"
        )
        assert main(["surface", "--history", str(history), "--out",
                     str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert "at least" in capsys.readouterr().err

    def test_rejects_non_planar_history(self, tmp_path, capsys):
        history = tmp_path / "hist.csv"
        header = "stage,index,x_1,x_2,x_3,f_raw,f_scaled,radius,fallback"
        rows = [header] + [
            f"initial,{i},{0.1 * i},{0.2 * i},{0.15 * i},1.0,1.0,,0" for i in range(6)
        ]
        history.write_text("\n".join(rows) + "\n")
        assert main(["surface", "--history", str(history), "--out",
                     str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert "2-dimensional" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "history file is empty"),
            (
                "stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback\n"
                "initial,0,0.1,0.2,1.0,1.0,,0\n"
                "initial,1,0.9,0.8,2.0\n",
                "history line 3: expected 8 fields",
            ),
            (
                "stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback\n"
                "initial,0,0.1,zero,1.0,1.0,,0\n",
                "history line 2: malformed number",
            ),
            (
                "stage,index,x_1,x_2,f_raw,f_scaled,radius,fallback\n"
                "initial,0,0.1,0.2,1.0,0.5,,0\n"
                "initial,1,0.9,0.8,2.0,,,0\n",
                "history line 3: f_scaled is empty",
            ),
        ],
    )
    def test_rejects_unreadable_history(self, tmp_path, capsys, text, message):
        history = tmp_path / "hist.csv"
        history.write_text(text)
        out = tmp_path / "s.csv"
        assert main(["surface", "--history", str(history), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_rejects_missing_history_file(self, tmp_path, capsys):
        history = tmp_path / "missing.csv"
        out = tmp_path / "s.csv"
        assert main(["surface", "--history", str(history), "--out", str(out)]) == EXIT_CONFIG
        message = capsys.readouterr().err
        assert message.startswith("error: cannot read history file:") and str(history) in message
        assert not out.exists()

    def test_rejects_single_node_resolution(self, tmp_path, capsys):
        history = self.run_history(tmp_path)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        code = main(
            ["surface", "--history", str(history), "--resolution", "1", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: resolution must be at least 2, got 1\n"
        assert not out.exists()

    def test_unallocatable_grid_exits_two_with_one_error_line(self, tmp_path, capsys):
        # 10**7 nodes per axis take about 728 TiB a coordinate, past any
        # 64-bit user address space, so the allocation fails at once.
        history = self.run_history(tmp_path, objective="multimodal", n_init=6, n_iter=2)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        code = main(
            ["surface", "--history", str(history), "--resolution", "10000000", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert re.fullmatch(r"error: [^\n]*\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--scaled"], ["--unscaled"], ["--seed", "0"]], ids=lambda flag: flag[0]
    )
    def test_rescaling_flags_are_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["surface", "--history", str(tmp_path / "h.csv"), *flag, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_malformed_header(self, tmp_path, capsys):
        history = tmp_path / "hist.csv"
        history.write_text("a,b,c\n1,2,3\n")
        assert main(["surface", "--history", str(history), "--out",
                     str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert "header" in capsys.readouterr().err


class TestFormatting:
    def test_failed_write_keeps_old_file(self, tmp_path):
        out = tmp_path / "hist.csv"
        out.write_bytes(b"old\n")
        with pytest.raises(UnicodeEncodeError):
            rbfcors.cli._atomic_write(str(out), "\ud800")
        assert out.read_bytes() == b"old\n"
        assert list(tmp_path.glob(".tmp-*.part")) == []

    def test_temporary_file_failure_names_the_path(self, tmp_path, monkeypatch):
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(rbfcors.cli.tempfile, "mkstemp", full)
        out = tmp_path / "hist.csv"
        message = f"cannot write {re.escape(str(out))}: {os.strerror(errno.ENOSPC)}"
        with pytest.raises(rbfcors.cli.ConfigError, match=message):
            rbfcors.cli._atomic_write(str(out), "text")
        assert not out.exists()

    def test_failed_cleanup_keeps_the_original_error(self, tmp_path, monkeypatch):
        def refused(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        out = tmp_path / "hist.csv"
        out.write_bytes(b"old\n")
        monkeypatch.setattr(rbfcors.cli.os, "unlink", refused)
        with pytest.raises(UnicodeEncodeError):
            rbfcors.cli._atomic_write(str(out), "\ud800")
        assert out.read_bytes() == b"old\n"
        assert len(list(tmp_path.glob(".tmp-*.part"))) == 1  # the unlink failed

    def test_floats_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-17, 123456.789, 0.0]
        for value in values:
            assert float(format_float(value)) == value
