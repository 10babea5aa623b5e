"""Closed-loop benchmark of trackplan: planning latency, real-time factor, tracking error.

Run from the root of a checkout:

    python3 bench/run.py --workload mwtp-h3 --seed 1 --seconds 20 --trace 0

It imports trackplan from the checkout's ``src/``, makes the workload's
inputs from ``--seed``, repeats rounds of the workload's trials until
``--seconds`` are used, checks every output, and prints one JSON object as
its last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("mwtp-h3", "mcr-h3", "dec-pomdp-h1", "batch-h1")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import trackplan and build the inputs, print 'ready', then the speed probe's seconds (times setup_s)",
    )
    return parser.parse_args(argv)


def _import_checkout() -> None:
    """Import trackplan from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trackplan" / "__init__.py").is_file():
        raise SystemExit(f"bench: no trackplan sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import trackplan

    if not Path(trackplan.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: imported trackplan from {trackplan.__file__}, not {src}")


def _measure_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Median time from process start to inputs built over fresh processes, scaled and raw.

    Each process's time is scaled by a speed probe run here just before it
    starts and one it runs itself once it is ready.
    """
    import speed

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            after = proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: setup probe failed (exit {code})")
        times.append(elapsed * speed.scale(before, float(after)))
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def _run_rounds(w, args, inputs, trace_rounds: bool):
    """Whole rounds until the next one would overrun --seconds (at least one).

    With trace_rounds, rounds alternate untraced and traced, at least one of
    each, and every round builds its inputs again so that world generation
    is traced as well.
    """
    from tracing import Tracer

    tracer = Tracer()
    rounds, traced_flags = [], []
    start = time.perf_counter()
    while True:
        traced = trace_rounds and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                rnd = w.run(w.make_inputs(args.seed, _batch_dir(args)))
        elif trace_rounds:
            rnd = w.run(w.make_inputs(args.seed, _batch_dir(args)))
        else:
            rnd = w.run(inputs)
        rnd.round_wall = time.perf_counter() - t0
        w.check(inputs, rnd, rounds[0] if rounds else None)
        for message in rnd.raised:
            print(f"bench: RAISED {message}", file=sys.stderr)
        for message in rnd.check_failures:
            print(f"bench: CHECK FAILED {message}", file=sys.stderr)
        rounds.append(rnd)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - start
        if (len(rounds) > 1 or not trace_rounds) and elapsed + rnd.round_wall > args.seconds:
            return rounds, traced_flags, tracer


def _batch_dir(args) -> Path:
    return OUT_DIR / f"batch-{args.workload}-seed{args.seed}-pid{os.getpid()}"


def _end_to_end(rounds, setup_s: float) -> dict:
    import numpy as np

    plan_ms = np.concatenate([r.plan_ms for r in rounds])
    ospa = np.concatenate([r.ospa for r in rounds])
    simulated = sum(r.simulated_s for r in rounds)
    wall = sum(r.wall for r in rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "plan_ms_p50": (_median(plan_ms), "ms"),
        "realtime_factor": (simulated / wall if wall > 0 else float("nan"), "x"),
        "ospa_mean_m": (float(np.mean(ospa)) if ospa.size else float("nan"), "m"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _unscaled(rounds, raw_setup_s: float) -> dict:
    """The timing metrics before scaling to the reference speed; printed, not reported."""
    import numpy as np

    wall = sum(r.raw_wall for r in rounds)
    return {
        "raw setup_s": (raw_setup_s, "s"),
        "raw plan_ms_p50": (_median(np.concatenate([r.raw_plan_ms for r in rounds])), "ms"),
        "raw realtime_factor": (sum(r.simulated_s for r in rounds) / wall if wall > 0 else float("nan"), "x"),
    }


def _per_layer(rounds, traced_flags, tracer) -> dict:
    from tracing import layer_totals

    layers = layer_totals(tracer.spans)
    n = sum(traced_flags)

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0) / n

    plan_ms = get("planning.plan", "seconds") * 1000.0
    evals = get("planning.plan", "count")
    traced_walls = [r.round_wall for r, t in zip(rounds, traced_flags) if t]
    plain_walls = [r.round_wall for r, t in zip(rounds, traced_flags) if not t]
    bytes_written = [r.bytes_written for r, t in zip(rounds, traced_flags) if t]
    return {
        "planning.plan_calls": (get("planning.plan", "calls"), "count"),
        "planning.plan_ms": (plan_ms, "ms"),
        "planning.rollout_evals": (evals, "count"),
        "planning.evals_per_ms": (evals / plan_ms if plan_ms > 0 else 0.0, "1/ms"),
        "planning.mwtp_calls": (get("planning.mwtp", "calls"), "count"),
        "planning.mwtp_ms": (get("planning.mwtp", "seconds") * 1000.0, "ms"),
        "planning.search_self_ms": (get("planning.plan", "self_seconds") * 1000.0, "ms"),
        "sensing.sense_calls": (get("sensing.sense", "calls"), "count"),
        "sensing.sense_ms": (get("sensing.sense", "seconds") * 1000.0, "ms"),
        "sensing.observations": (get("sensing.sense", "count"), "count"),
        "estimation.fuse_calls": (get("estimation.fuse", "calls"), "count"),
        "estimation.fuse_ms": (get("estimation.fuse", "seconds") * 1000.0, "ms"),
        "metrics.ospa_calls": (get("metrics.ospa", "calls"), "count"),
        "metrics.ospa_ms": (get("metrics.ospa", "seconds") * 1000.0, "ms"),
        "sim.trial_ms": (get("sim.trial", "seconds") * 1000.0, "ms"),
        "sim.loop_self_ms": (get("sim.trial", "self_seconds") * 1000.0, "ms"),
        "worldgen.forest_ms": (get("worldgen.forest", "seconds") * 1000.0, "ms"),
        "worldgen.levy_ms": (get("worldgen.levy", "seconds") * 1000.0, "ms"),
        "worldgen.disks": (get("worldgen.forest", "count"), "count"),
        "cli.write_ms": (get("cli.write", "seconds") * 1000.0, "ms"),
        "cli.map_io_ms": (get("cli.map_io", "seconds") * 1000.0, "ms"),
        "cli.bytes_written": (sum(bytes_written) / n, "bytes"),
        "trace.overhead_s": (_median(traced_walls) - _median(plain_walls), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _import_checkout()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        w.make_inputs(args.seed, _batch_dir(args))
        print("ready", flush=True)
        import speed

        print(speed.probe(), flush=True)
        return 0

    setup_s, raw_setup_s = (0.0, 0.0) if args.trace else _measure_setup(args)
    inputs = w.make_inputs(args.seed, _batch_dir(args))
    try:
        rounds, traced_flags, tracer = _run_rounds(w, args, inputs, trace_rounds=bool(args.trace))
    finally:
        shutil.rmtree(_batch_dir(args), ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        metrics = _per_layer(rounds, traced_flags, tracer)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(rounds, setup_s)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} trials, {failed} failed")
    shown = metrics if args.trace else {**metrics, **_unscaled(rounds, raw_setup_s)}
    for name, (value, unit) in shown.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    result = {
        "correct": not any(r.check_failures for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
