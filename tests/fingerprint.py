"""Fingerprints of deterministic output, for checking that a change keeps behaviour.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py > fingerprint.txt

It prints one sha256 per TrialLog of a fixed 27-trial set, with the trial's
summed epoch_rollout_evals, and one sha256 per artifact of a fixed
four-planner experiment. Wall-clock is left out: TrialLog.epoch_plan_seconds,
the plan_ms column of the epoch CSVs, and timings.csv; the temporary output
directory's path reads OUT in effective_config.ini. Two checkouts behave
the same when ``diff`` of their outputs is empty. The script uses public API
only, so it runs on older checkouts too.
"""
import dataclasses
import hashlib
import itertools
import tempfile
from pathlib import Path

import numpy as np

from trackplan import ScenarioConfig, generate_forest, run_trial
from trackplan.cli import ExperimentSpec, run_experiment

# (planner, horizon, agents) of each trial per map; a trial lasts 6 s, 2 s at H6
TRIALS = (
    ("sma-nbo", 1, 3),
    ("sma-nbo", 3, 3),
    ("sma-nbo", 6, 3),  # beam search
    ("sma-nbo-mwtp", 1, 3),
    ("sma-nbo-mwtp", 3, 3),
    ("mcr", 1, 3),
    ("mcr", 3, 3),
    ("dec-pomdp", 1, 3),
    ("dec-pomdp", 2, 2),
)
N_MAPS = 3


def log_digest(log) -> str:
    """sha256 over every TrialLog field but epoch_plan_seconds, in field order."""
    digest = hashlib.sha256()
    for f in dataclasses.fields(log):
        if f.name == "epoch_plan_seconds":
            continue
        value = getattr(log, f.name)
        digest.update(f.name.encode())
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def trial_lines(trials=TRIALS, n_maps=N_MAPS):
    """One line per trial of ``trials`` on each of the first ``n_maps`` maps."""
    base = ScenarioConfig()
    for mi in range(n_maps):
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 0, mi]))
        forest = generate_forest(base.lam, base.tree_radius, base.aoi, rng, seed=mi)
        for planner, h, n in trials:
            config = dataclasses.replace(
                base,
                horizon=h,
                duration=2.0 if h == 6 else 6.0,
                n_agents=n,
                fov_edges=base.fov_edges[:n],
                alphas=base.alphas[:n],
            )
            log = run_trial(config, forest, planner, np.random.SeedSequence([0, 1, 0, mi]))
            evals = int(log.epoch_rollout_evals.sum())
            yield f"trial map{mi} {planner} H{h} n{n} evals {evals} {log_digest(log)}"


def file_digest(path: Path, out: Path) -> str:
    """sha256 of a file under ``out``, whose path reads OUT; a CSV's plan_ms
    column is dropped first."""
    lines = path.read_bytes().replace(str(out).encode(), b"OUT").split(b"\n")
    header = lines[0].split(b",")
    if b"plan_ms" in header:
        col = header.index(b"plan_ms")
        lines = [b",".join(c for i, c in enumerate(line.split(b",")) if i != col) for line in lines]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def artifact_lines():
    with tempfile.TemporaryDirectory() as tmp:
        spec = ExperimentSpec(
            base=ScenarioConfig(duration=4.0),
            planners=("sma-nbo", "sma-nbo-mwtp", "mcr", "dec-pomdp"),
            horizons=(1,),
            lambdas=(20.0,),
            n_maps=2,
            out_dir=tmp,
        )
        out = run_experiment(spec)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            if path.name != "timings.csv":
                yield f"file {path.relative_to(out).as_posix()} {file_digest(path, out)}"


if __name__ == "__main__":
    for line in itertools.chain(trial_lines(), artifact_lines()):
        print(line, flush=True)
