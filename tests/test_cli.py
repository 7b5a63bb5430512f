import io
import os

import numpy as np
import pytest

from chauffeur.cli import (
    EXIT_CONFIG,
    EXIT_NO_CAPTURE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    execute,
    main,
    parse_config,
)
from chauffeur import solution
from chauffeur.solution import (
    BarrierMarchError,
    DiveStepLimitError,
    EqualCostBracketError,
    NearestSampleError,
    NumericalError,
    PrimaryRootError,
    TurnAlignmentError,
)

REFERENCE_INI = """
[game]
mu1 = 0.3
mu2 = 0.2
l = 0.5
evader = deceptive
pursuer = estimating

[initial]
x0 = 2.152
y0 = -0.214

[integrator]
dt = 0.001
t_max = 40
"""


class TestParseConfig:
    def test_reference_scenario_file(self):
        cfg = parse_config(REFERENCE_INI, "simulate")
        assert cfg.mu1 == 0.3 and cfg.mu2 == 0.2 and cfg.l == 0.5
        assert cfg.x0 == 2.152 and cfg.y0 == -0.214
        assert cfg.evader == "deceptive" and cfg.pursuer == "estimating"

    def test_speed_ordering_rejected(self):
        bad = REFERENCE_INI.replace("mu1 = 0.3", "mu1 = 0.1")
        with pytest.raises(ConfigError, match="mu1"):
            parse_config(bad, "simulate")

    def test_missing_l_rejected_by_name(self):
        bad = REFERENCE_INI.replace("l = 0.5\n", "")
        with pytest.raises(ConfigError, match="'l'"):
            parse_config(bad, "simulate")

    def test_unknown_key_rejected(self):
        bad = REFERENCE_INI.replace("[initial]", "[initial]\nwarp = 9")
        with pytest.raises(ConfigError, match="unknown key 'warp'"):
            parse_config(bad, "simulate")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(REFERENCE_INI + "\n[plotting]\ncolor = red\n", "simulate")

    def test_illegal_params_rejected(self):
        bad = REFERENCE_INI.replace("mu1 = 0.3", "mu1 = 0.9").replace("mu2 = 0.2", "mu2 = 0.8")
        with pytest.raises((ConfigError, ValueError)):
            parse_config(bad, "simulate")


class TestExecute:
    def test_classify_universal_positive(self, tmp_path):
        text = "[game]\nmu1 = 0.3\nl = 0.5\n\n[initial]\nx0 = 0.0\ny0 = 1.5\n"
        cfg = parse_config(text, "classify")
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_OK
        assert out.getvalue().strip() == "UniversalPositive"

    def test_classify_both_parameter_sets(self):
        cfg = parse_config(REFERENCE_INI, "classify")
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_OK
        assert out.getvalue().split() == ["Secondary", "Tributary"]

    def test_simulate_reference_deceptive_run(self, tmp_path):
        cfg = parse_config(REFERENCE_INI, "simulate")
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_OK
        line = out.getvalue()
        assert "capture_time=" in line and "switch=1" in line
        assert (tmp_path / "chauffeur_trajectory.csv").exists()

    def test_simulate_non_capture_exit_code(self, tmp_path):
        text = REFERENCE_INI.replace("t_max = 40", "t_max = 1")
        cfg = parse_config(text, "simulate")
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_NO_CAPTURE

    def test_geometry_writes_both_files(self, tmp_path):
        cfg = parse_config(REFERENCE_INI, "geometry")
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_OK
        assert (tmp_path / "chauffeur_geometry_mu1.csv").exists()
        assert (tmp_path / "chauffeur_geometry_mu2.csv").exists()

    def test_sweep_three_by_three(self, tmp_path):
        text = REFERENCE_INI + "\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\nspacing = 0.3\n"
        text = text.replace("dt = 0.001", "dt = 0.002")
        cfg = parse_config(text, "sweep")
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_OK
        with open(tmp_path / "chauffeur_advantage_map.csv") as fh:
            rows = fh.read().strip().split("\n")
        assert len(rows) == 10  # header + 9 cells
        assert "cells=9" in out.getvalue()

    def test_sweep_plays_to_the_configured_t_max(self, tmp_path):
        # Every cell of the 3x3 sweep is captured after more than 0.5 time
        # units, so a 0.5 horizon leaves them all uncaptured: exit 4.  A
        # sweep that derived its horizon from the window would exit 0.
        text = REFERENCE_INI.replace("t_max = 40", "t_max = 0.5")
        text += "\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\nspacing = 0.3\n"
        text = text.replace("dt = 0.001", "dt = 0.002")
        cfg = parse_config(text, "sweep")
        assert cfg.t_max == 0.5
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        assert execute(cfg, out=out) == EXIT_NO_CAPTURE
        assert "cells=9" in out.getvalue() and "failures=0" in out.getvalue()

    def test_t_max_is_unset_without_the_key(self):
        # Unset, sweep derives its horizon from the window and simulate
        # takes Scenario's default.
        cfg = parse_config(REFERENCE_INI.replace("t_max = 40\n", ""), "simulate")
        assert cfg.t_max is None

    @pytest.mark.parametrize(
        "error",
        [
            BarrierMarchError,
            EqualCostBracketError,
            PrimaryRootError,
            NearestSampleError,
            TurnAlignmentError,
            DiveStepLimitError,
        ],
    )
    def test_named_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        assert issubclass(error, NumericalError) and issubclass(error, RuntimeError)

        def fail(sc):
            raise error("no root at (1.0, -0.5)")

        monkeypatch.setattr("chauffeur.cli.run_closed_loop", fail)
        cfg = parse_config(REFERENCE_INI, "simulate")
        cfg.directory = str(tmp_path)
        assert execute(cfg, out=io.StringIO()) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: no root at (1.0, -0.5)\n"
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_float_format_nine_significant_digits(self, tmp_path):
        cfg = parse_config(REFERENCE_INI, "simulate")
        cfg.directory = str(tmp_path)
        out = io.StringIO()
        execute(cfg, out=out)
        token = out.getvalue().split("capture_time=")[1].split()[0]
        mantissa = token.replace(".", "").lstrip("0")
        assert len(mantissa) <= 9


class TestMain:
    def test_exit_codes_via_main(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(REFERENCE_INI + f"\n[output]\ndirectory = {tmp_path}\n")
        assert main(["classify", str(cfg_path)]) == EXIT_OK

    def test_barrier_march_failure_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # A barrier whose tangent never turns back (every sample at (2, 2))
        # fails the build of a geometry that is not yet cached.
        monkeypatch.setattr(solution, "_GEOMETRY_CACHE", {})
        monkeypatch.setattr(
            solution, "_fan_xy", lambda x0, y0, u, c, mu, t: (np.full(np.shape(t), 2.0),) * 2
        )
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(REFERENCE_INI + f"\n[output]\ndirectory = {tmp_path}\n")
        assert main(["geometry", str(cfg_path)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: barrier march failed")
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_missing_turn_alignment_is_a_numerical_failure(self, tmp_path, capsys):
        # (0.2, 0.7) tags this state Tributary inside the unit turn disc,
        # where no turn to alignment exists (ROADMAP item 11).
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(
            "[game]\nmu1 = 0.2\nl = 0.7\n"
            "[initial]\nx0 = 0.7399103330961585\ny0 = 0.20784007719238895\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        assert main(["simulate", str(cfg_path)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: turn alignment")
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_config_error_exit(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[game]\nmu1 = 0.3\n")  # missing l
        assert main(["classify", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, section, key, raw",
        [
            ("sweep", "sweep", "workers", "inf"),
            ("sweep", "sweep", "spacing", "nan"),
            ("simulate", "integrator", "t_max", "inf"),
            ("simulate", "integrator", "t_max", "nan"),
            ("simulate", "integrator", "t_max", "1e999"),
            ("simulate", "integrator", "dt", "-inf"),
            ("simulate", "initial", "x0", "nan"),
            ("classify", "game", "mu1", "inf"),
        ],
    )
    def test_non_finite_number_exits_as_config_error(
        self, tmp_path, capsys, command, section, key, raw
    ):
        text = REFERENCE_INI + "\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\n"
        line = f"{key} = {raw}"
        old = [ln for ln in text.splitlines() if ln.startswith(f"{key} = ")]
        if old:
            text = text.replace(old[0], line)
        else:
            text = text.replace(f"[{section}]", f"[{section}]\n{line}")
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {tmp_path}\n")
        assert main([command, str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"key '{key}' in [{section}] is not finite" in err
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_reversed_sweep_window_exits_as_config_error(self, tmp_path, capsys):
        text = REFERENCE_INI + "\n[sweep]\nx_min = 2.0\nx_max = 1.0\ny_min = 0.8\ny_max = 1.4\n"
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {tmp_path}\n")
        assert main(["sweep", str(cfg_path)]) == EXIT_CONFIG
        assert "x_min <= x_max" in capsys.readouterr().err
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_missing_file_exit(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    @pytest.mark.parametrize("raw", ["2.7", "-5", "0", "two"])
    def test_worker_count_must_be_a_positive_integer(self, tmp_path, capsys, raw):
        text = REFERENCE_INI + f"\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\nworkers = {raw}\n"
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {tmp_path}\n")
        assert main(["sweep", str(cfg_path)]) == EXIT_CONFIG
        assert "key 'workers' in [sweep]" in capsys.readouterr().err
        assert not list(tmp_path.glob("chauffeur_*"))

    @pytest.mark.parametrize("raw", ["2.7", "-5", "0", "many", "inf"])
    def test_workers_env_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch, raw):
        text = REFERENCE_INI + "\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\n"
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {tmp_path}\n")
        monkeypatch.setenv("CHAUFFEUR_WORKERS", raw)
        assert main(["sweep", str(cfg_path)]) == EXIT_CONFIG
        assert "CHAUFFEUR_WORKERS" in capsys.readouterr().err
        assert not list(tmp_path.glob("chauffeur_*"))

    def test_workers_env_override(self, tmp_path, monkeypatch):
        text = REFERENCE_INI + "\n[sweep]\nx_min = 1.4\nx_max = 2.0\ny_min = 0.8\ny_max = 1.4\nspacing = 0.3\nworkers = 1\n"
        text = text.replace("dt = 0.001", "dt = 0.002")
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {tmp_path}\n")
        monkeypatch.setenv("CHAUFFEUR_WORKERS", "2")
        assert main(["sweep", str(cfg_path)]) == EXIT_OK
