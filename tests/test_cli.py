import configparser
import hashlib
import re
import string
import tempfile
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackplan import cli
from trackplan.cli import (
    ConfigError,
    ExperimentSpec,
    main,
    parse_config,
    run_experiment,
    write_effective_config,
)
from trackplan.sim import PLANNERS
from trackplan.worldgen import Aoi, ScenarioConfig


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

    def test_capitalised_key_reported_at_its_line(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 7\nFoo = 3\n")
        with pytest.raises(ConfigError, match=r"line 3: unknown scenario key 'foo'"):
            parse_config(str(path))

    def test_key_repeated_in_later_section_reported_there(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[scenario]\nseed = 7\n[experiment]\nseed = 3\n")
        with pytest.raises(ConfigError, match=r"line 4: unknown experiment key 'seed'"):
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

    def test_readme_config_block_lists_every_key_at_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S)[1]
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(block)
        assert parser.sections() == list(cli._SECTIONS)
        values = {}
        for name, (keys, _) in cli._SECTIONS.items():
            assert list(parser[name]) == list(keys)
            values[name] = {k: cli._convert(keys[k][1], v) for k, v in parser[name].items()}
        assert cli.build_spec(values["scenario"], values["experiment"]) == cli.build_spec({}, {})

    def test_every_config_field_has_exactly_one_key(self):
        paths = [
            owner + attr for keys, owner in cli._SECTIONS.values() for attr, _ in keys.values()
        ]
        expected = [
            *(f"base.{f.name}" for f in fields(ScenarioConfig) if f.name != "aoi"),
            *(f"base.aoi.{f.name}" for f in fields(Aoi)),
            *(f.name for f in fields(ExperimentSpec) if f.name != "base"),
        ]
        assert sorted(paths) == sorted(expected)
        assert len(paths) == 31

    def test_effective_config_round_trips(self, tmp_path):
        every_key = ExperimentSpec(
            base=ScenarioConfig(
                seed=11, aoi=Aoi(140.0, 90.0), lam=30.0, tree_radius=4.0, n_agents=2,
                fov_edges=(21.0, 24.0), alphas=(0.11, 0.14), v_max=4.5, dt_sense=0.25,
                dt_plan=0.5, horizon=2, sigma_a=0.9, r0=1.5, beta=0.8, ospa_c=40.0,
                ospa_p=1.0, duration=3.0, n_targets=3, speed_min=0.5, speed_max=2.5,
                n_headings=6, n_speeds=2,
            ),
            planners=("sma-nbo", "mcr"), horizons=(1, 2), lambdas=(10.0, 20.0),
            radii=(3.0, 4.0), n_maps=2, out_dir=str(tmp_path / "100%"), mcr_samples=7,
            workers=2,
        )
        defaults = cli.build_spec({}, {})
        for name, (keys, _) in cli._SECTIONS.items():
            for key in keys:
                assert cli._key_text(every_key, name, key) != cli._key_text(defaults, name, key)
        specs = (
            tiny_spec(tmp_path / "out", planners=("sma-nbo", "mcr"), horizons=(1, 3)),
            every_key,
        )
        for spec in specs:
            path = tmp_path / "eff.ini"
            write_effective_config(spec, str(path))
            assert parse_config(str(path)) == spec

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_any_config_text_is_rejected_or_round_trips(self, data):
        # Parses only: no map is drawn and no trial runs.
        def value_texts(default: str):
            number = st.one_of(
                st.integers(-3, 20),
                st.integers(-(10**400), 10**400),
                st.floats(),
                st.sampled_from([float("nan"), float("inf"), 1e308, 1e-320, -0.0]),
            ).map(repr)
            scalar = st.one_of(number, st.sampled_from(PLANNERS))
            # A value is one line of UTF-8 text: no line breaks, no lone surrogates.
            junk = st.text(
                st.sampled_from(string.digits + string.punctuation + " e")
                | st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
            )
            comma_list = st.lists(scalar, min_size=1, max_size=4).map(",".join)
            return st.one_of(st.just(default), scalar, comma_list, junk)

        defaults = cli.build_spec({}, {})
        lines = []
        for name, (keys, _) in cli._SECTIONS.items():
            lines.append(f"[{name}]")
            for key in data.draw(st.lists(st.sampled_from(list(keys)), unique=True, max_size=6)):
                value = data.draw(value_texts(cli._key_text(defaults, name, key)))
                lines.append(f"{key} = {value}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ini"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                spec = parse_config(str(path))
            except ConfigError:
                return
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

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Sizes of the pools run_experiment opens, on a stand-in pool that
        runs each job in place and on a machine of 64 usable CPUs."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
        return sizes

    def test_pool_gets_no_more_workers_than_jobs(self, tmp_path, pool_sizes):
        run_experiment(tiny_spec(tmp_path / "one", workers=64))
        run_experiment(tiny_spec(tmp_path / "two", n_maps=2, workers=64))
        assert pool_sizes == [2]
        assert (tmp_path / "one" / "summary.csv").exists()
        assert (tmp_path / "two" / "summary.csv").exists()

    def test_pool_gets_no_more_workers_than_cpus(self, tmp_path, pool_sizes, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        run_experiment(tiny_spec(tmp_path / "out", n_maps=4, workers=100_000))
        assert pool_sizes == [3]

    def test_usable_cpus(self, monkeypatch):
        if hasattr(cli.os, "sched_getaffinity"):
            assert cli._usable_cpus() == len(cli.os.sched_getaffinity(0))
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_keeps_finished_trials(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # the dec-pomdp H3 trial raises; the other three run. Pool workers
        # fork after the patch, so they see it too.
        real_run_trial = cli.run_trial
        raised = []

        def failing_run_trial(config, forest, planner, seed, **kwargs):
            if planner == "dec-pomdp" and config.horizon == 3:
                raise raised[-1]("injected trial failure")
            return real_run_trial(config, forest, planner, seed, **kwargs)

        monkeypatch.setattr("trackplan.cli.run_trial", failing_run_trial)
        for error in (OSError, ValueError, MemoryError):
            raised.append(error)
            out = tmp_path / error.__name__
            cfg = tmp_path / "c.ini"
            cfg.write_text(
                "[scenario]\nseed = 1\nduration = 2\nlambda = 5\n"
                "n_agents = 2\nfov_edges = 20,25\nalphas = 0.1,0.15\n"
                "[experiment]\nplanners = sma-nbo,dec-pomdp\nhorizons = 1,3\n"
                f"out_dir = {out}\nworkers = {workers}\n"
            )
            assert main(["--config", str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"runtime error: lam5_r5/dec-pomdp_H3_map000: {error.__name__}: "
                "injected trial failure"
            ]
            cell = out / "trials" / "lam5_r5"
            for stem in ("sma-nbo_H1_map000", "sma-nbo_H3_map000", "dec-pomdp_H1_map000"):
                assert (cell / f"{stem}.csv").exists()
                assert (cell / f"{stem}_epochs.csv").exists()
            assert not (cell / "dec-pomdp_H3_map000.csv").exists()
            assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            "--lambda 5,5",
            "--lambda 45,45.0000001",
            "--radius 5,5.0",
            "--planner sma-nbo,sma-nbo",
            "--planner sma-nbo,mcr,sma-nbo --horizon 1,2",
            "--horizon 1,2,1",
        ],
    )
    def test_repeated_sweep_entry_exits_before_any_trial(self, tmp_path, capsys, flags):
        # two trials of one name would write the same files
        argv = ["--duration", "2", "--out", str(tmp_path / "out"), *flags.split()]
        assert main(argv) == 1
        assert "twice" in self._assert_one_config_error(capsys, tmp_path)

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
            "ospa_p = 400",
            "ospa_p = 1e300",
            "ospa_c = 1e300",
            "sigma_a = 1e200",
            "dt_sense = 1e-300",
            "duration = 1e300",
            "seed = -1",
            "tree_radius = 1e300",
            "aoi_width = 1e300",
            "lambda = 1e20",
            "[experiment]\nlambdas = 5,1e20",
            "lambda = 1000",
            "[experiment]\nlambdas = 5,1000",
            # 1e7 disks of radius 1 mm: 0.2 % cover, but one placement loop each
            "lambda = 1e7\ntree_radius = 0.001",
            "[experiment]\nlambdas = 5,1e7\nradii = 0.001",
            # 0.576 expected cover of the 150 x 100 m AOI, past the jamming limit
            "lambda = 110",
            "[experiment]\nradii = 1\nlambdas = 5,2750",
            "sigma_a = 1e150",
            "r0 = 1e300",
            "alphas = 1e300,0.15,0.12",
            "n_headings = 1000000\n[experiment]\nplanners = dec-pomdp",
            "[experiment]\nn_maps = 9223372036854775808",
            # 5 x 10^8 logged target states
            "duration = 1\nn_targets = 100000000",
            # 10^8 + 1 actions, more than one exhaustive stage scores
            "duration = 1\nlambda = 5\nn_headings = 100000000",
        ],
    )
    def test_bad_config_value_exits_before_any_trial(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.ini"
        scenario = line if line.startswith("duration") else f"duration = 2\n{line}"
        cfg.write_text(f"[scenario]\n{scenario}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = self._assert_one_config_error(capsys, tmp_path)
        if "lambda" in line and re.search(r"\b1000\b", line):
            assert "lambda 1000" in err  # the cell whose forest cannot be placed

    @pytest.mark.parametrize(
        "flags",
        [
            "--duration 0",
            "--horizon abc",
            "--planner foo",
            "--lambda x",
            "--seed 1.5",
            "--bogus",
            "--seed",
            "--seed -1",
            "--radius 1e300",
            "--lambda 1e20",
            "--mwtp",
            pytest.param(f"--seed 1{'0' * 400}", id="--seed 10**400"),
            pytest.param(f"--horizon 1{'0' * 400}", id="--horizon 10**400"),
            "--planner dec-pomdp --horizon 1600",
            "--horizon 1000000000000 --duration 1 --lambda 5",
            # a beam stage would score 9 + 999,999 x 8 x 9 sequences
            "--horizon 1000000 --duration 1",
            # 59.6 GiB of sampled paths alone
            "--planner mcr --mcr-samples 1000000000 --duration 1 --lambda 5",
        ],
    )
    def test_bad_flag_value_exits_before_any_trial(self, tmp_path, capsys, flags):
        assert main(["--out", str(tmp_path / "out"), *flags.split()]) == 1
        self._assert_one_config_error(capsys, tmp_path)

    def test_action_count_is_bounded_by_the_exhaustive_limit(self):
        # 1 + n_headings actions, with hover, against planning.EXHAUSTIVE_LIMIT = 100,000
        assert cli.build_spec({"n_headings": 99_999}, {}).base.n_headings == 99_999
        with pytest.raises(ConfigError, match="100001 actions"):
            cli.build_spec({"n_headings": 100_000}, {})

    def test_horizon_is_bounded_by_the_beam_count(self):
        # a beam stage scores |A| + (h - 1) x BEAM_WIDTH x |A| sequences,
        # 9 + 1388 x 8 x 9 = 99,945 at H1389, against EXHAUSTIVE_LIMIT = 100,000
        for h in (1, 6, 1000, 1389):
            assert cli.build_spec({"duration": 1.0}, {"horizons": (h,)}).horizons == (h,)
        with pytest.raises(ConfigError, match="horizon 1390: .* scores 100017 sequences"):
            cli.build_spec({"duration": 1.0}, {"horizons": (1390,)})

    def test_flags_override_file_keys(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[scenario]\nseed = 4\nduration = 1\nlambda = 30\n"
            "[experiment]\nhorizons = 1,3\n"
        )
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--horizon", "2", "--lambda", "5", "--out", str(out)]
        assert main(argv) == 0
        spec = parse_config(str(out / "effective_config.ini"))
        assert spec.horizons == (2,)
        assert spec.lambdas == (5.0,)
        assert spec.base.lam == 30.0
        assert spec.base.seed == 4

    @staticmethod
    def _assert_one_config_error(capsys, tmp_path):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        return err
