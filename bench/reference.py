"""Rerun of the ROADMAP baseline table: per-epoch planning time of six trials.

Each trial is 20 s on the map drawn from SeedSequence([0, 0, 0, 0]) with
lambda 45 and radius 5, trial seed 0, as ``trackplan --maps 1 --seed 0``
would draw it. Run from the root of a checkout:

    python3 bench/reference.py
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from trackplan import ScenarioConfig, generate_forest, run_trial  # noqa: E402

ROWS = (("sma-nbo", 1), ("sma-nbo", 3), ("sma-nbo-mwtp", 1), ("sma-nbo-mwtp", 3), ("mcr", 3), ("dec-pomdp", 1))


def main() -> int:
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")
    base = ScenarioConfig(duration=20.0)
    forest = generate_forest(
        base.lam, base.tree_radius, base.aoi, np.random.default_rng(np.random.SeedSequence([0, 0, 0, 0])), seed=0
    )
    print("| planner | H | median plan ms | mean plan ms | mean OSPA m |")
    print("|---|---|---|---|---|")
    for planner, h in ROWS:
        config = ScenarioConfig(duration=20.0, horizon=h)
        log = run_trial(config, forest, planner, 0, mcr_samples=50)
        ms = log.epoch_plan_seconds * 1000.0
        print(f"| `{planner}` | {h} | {np.median(ms):.1f} | {np.mean(ms):.1f} | {np.mean(log.ospa):.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
