import hashlib
from pathlib import Path

import pytest

from trackplan import cli
from trackplan.cli import (
    ConfigError,
    ExperimentSpec,
    main,
    parse_config,
    run_experiment,
    write_effective_config,
)
from trackplan.worldgen import ScenarioConfig


def tiny_spec(out_dir, planners=("sma-nbo",), **kw):
    base = ScenarioConfig(duration=3.0, n_targets=2, lam=10.0, seed=5)
    defaults = dict(
        base=base,
        planners=planners,
        horizons=(1,),
        lambdas=(10.0,),
        radii=(5.0,),
        n_maps=1,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestParseConfig:
    def test_minimal_config_applies_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 7\n")
        spec = parse_config(str(path))
        assert spec.base.seed == 7
        assert spec.base.aoi.width == 150.0
        assert spec.base.v_max == 5.0
        assert spec.planners == ("sma-nbo",)
        assert spec.n_maps == 1

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 7\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r"line 3.*bogus_key"):
            parse_config(str(path))

    def test_invalid_ospa_order_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 1\nospa_p = 0\n")
        with pytest.raises(ConfigError, match="ospa_p"):
            parse_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "none.ini"))

    def test_unknown_planner_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 1\n[experiment]\nplanners = magic\n")
        with pytest.raises(ConfigError, match="magic"):
            parse_config(str(path))

    def test_effective_config_round_trips(self, tmp_path):
        spec = tiny_spec(tmp_path / "out", planners=("sma-nbo", "mcr"), horizons=(1, 3))
        path = tmp_path / "eff.ini"
        write_effective_config(spec, str(path))
        assert parse_config(str(path)) == spec


class TestRunExperiment:
    def test_single_trial_artifacts(self, tmp_path):
        out = run_experiment(tiny_spec(tmp_path / "out"))
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "trial,planner,H,lambda,radius,mean_ospa,median_ospa,frac_below_1m"
        assert len(summary) == 2
        frac = float(summary[1].split(",")[-1])
        assert 0.0 <= frac <= 1.0
        assert (out / "maps" / "lam10_r5" / "map000.txt").exists()
        assert (out / "trials" / "lam10_r5" / "sma-nbo_H1_map000.csv").exists()
        assert (out / "trials" / "lam10_r5" / "sma-nbo_H1_map000_epochs.csv").exists()
        assert (out / "timings.csv").exists()

    def test_same_maps_consumed_by_all_planners(self, tmp_path):
        out_a = run_experiment(tiny_spec(tmp_path / "a", planners=("sma-nbo",)))
        out_b = run_experiment(tiny_spec(tmp_path / "b", planners=("sma-nbo-mwtp",)))
        map_a = out_a / "maps" / "lam10_r5" / "map000.txt"
        map_b = out_b / "maps" / "lam10_r5" / "map000.txt"
        assert sha(map_a) == sha(map_b)

    def test_summary_byte_identical_across_runs_and_workers(self, tmp_path):
        spec1 = tiny_spec(tmp_path / "r1", planners=("sma-nbo", "sma-nbo-mwtp"), n_maps=2)
        spec2 = tiny_spec(tmp_path / "r2", planners=("sma-nbo", "sma-nbo-mwtp"), n_maps=2)
        spec3 = tiny_spec(
            tmp_path / "r3", planners=("sma-nbo", "sma-nbo-mwtp"), n_maps=2, workers=2
        )
        out1, out2, out3 = map(run_experiment, (spec1, spec2, spec3))
        assert sha(out1 / "summary.csv") == sha(out2 / "summary.csv") == sha(out3 / "summary.csv")
        for rel in [p.relative_to(out1) for p in out1.rglob("*.csv")]:
            if rel.name.endswith("_epochs.csv") or rel.name == "timings.csv":
                continue  # wall-clock content
            assert sha(out1 / rel) == sha(out3 / rel), rel

    def test_ecdf_files_monotone(self, tmp_path):
        out = run_experiment(tiny_spec(tmp_path / "out"))
        path = out / "ecdf" / "lam10_r5_sma-nbo_H1.csv"
        rows = path.read_text().strip().splitlines()[1:]
        freqs = [float(r.split(",")[1]) for r in rows]
        assert all(a <= b for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] == pytest.approx(1.0)

    def test_sweep_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, planners=())
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, n_maps=0)


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "--seed", "3", "--planner", "sma-nbo", "--horizon", "1",
                "--lambda", "5", "--radius", "5", "--maps", "1",
                "--duration", "2", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nseed = 1\nospa_p = 0\n")
        assert main(["--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_budget_error_exit_code(self, tmp_path, capsys):
        # joint optimization over 3 agents x horizon 3 x 9 actions blows the
        # budget: a config error, found before any map or trial
        code = main(
            [
                "--seed", "1", "--planner", "dec-pomdp", "--horizon", "3",
                "--lambda", "5", "--radius", "5", "--duration", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        self._assert_one_config_error(capsys, tmp_path)

    def test_mwtp_flag_switches_planner(self, tmp_path):
        code = main(
            [
                "--seed", "2", "--horizon", "1", "--lambda", "5", "--radius", "5",
                "--duration", "2", "--mwtp", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        trials = list((tmp_path / "out" / "trials").rglob("*.csv"))
        assert trials and all("sma-nbo-mwtp" in p.name for p in trials)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_keeps_finished_trials(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # the dec-pomdp H3 trial raises; the other three run. Pool workers
        # fork after the patch, so they see it too.
        real_run_trial = cli.run_trial

        def failing_run_trial(config, forest, planner, seed, **kwargs):
            if planner == "dec-pomdp" and config.horizon == 3:
                raise OSError("injected trial failure")
            return real_run_trial(config, forest, planner, seed, **kwargs)

        monkeypatch.setattr("trackplan.cli.run_trial", failing_run_trial)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[scenario]\nseed = 1\nduration = 2\nlambda = 5\n"
            "n_agents = 2\nfov_edges = 20,25\nalphas = 0.1,0.15\n"
            "[experiment]\nplanners = sma-nbo,dec-pomdp\nhorizons = 1,3\n"
            f"out_dir = {tmp_path / 'out'}\nworkers = {workers}\n"
        )
        assert main(["--config", str(cfg)]) == 2
        assert "runtime error" in capsys.readouterr().err
        cell = tmp_path / "out" / "trials" / "lam5_r5"
        for stem in ("sma-nbo_H1_map000", "sma-nbo_H3_map000", "dec-pomdp_H1_map000"):
            assert (cell / f"{stem}.csv").exists()
            assert (cell / f"{stem}_epochs.csv").exists()
        assert not (cell / "dec-pomdp_H3_map000.csv").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "dt_sense = 0",
            "lambda = inf",
            "n_agents = 0\nfov_edges =\nalphas =",
            "n_targets = 0",
            "v_max = nan",
            "sigma_a = -1",
            "tree_radius = nan",
            "aoi_width = 0",
            "aoi_height = inf",
            "[experiment]\nhorizons = 0",
            "speed_min = 0\nspeed_max = 0",
            "[experiment]\nplanners = sma-nbo,dec-pomdp\nhorizons = 1,3",
        ],
    )
    def test_bad_config_value_exits_before_any_trial(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[scenario]\nduration = 2\n{line}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        self._assert_one_config_error(capsys, tmp_path)

    def test_bad_flag_value_exits_before_any_trial(self, tmp_path, capsys):
        assert main(["--duration", "0", "--out", str(tmp_path / "out")]) == 1
        self._assert_one_config_error(capsys, tmp_path)

    @staticmethod
    def _assert_one_config_error(capsys, tmp_path):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
