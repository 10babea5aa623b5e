"""Random occluded environments and target ground truth.

Generates Poisson forests of non-overlapping shadow disks inside a
rectangular area of interest, heavy-tailed (Levy-walk) target
trajectories, and the scenario configuration shared by the simulator,
planners and CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PLACEMENT_RETRY_BUDGET = 10_000

# Levy step-length law: Pareto(shape, scale) truncated to [step_min, step_max].
LEVY_STEP_SHAPE = 1.5
LEVY_STEP_SCALE = 1.0
LEVY_STEP_MIN = 1.0
LEVY_STEP_MAX = 40.0


class ForestPlacementError(RuntimeError):
    """Rejection sampling exhausted its retry budget (forest too dense)."""


class MapFormatError(ValueError):
    """A map file could not be parsed."""


def _q6(x: float) -> float:
    """Quantize to 6 fractional digits so text round-trips are bit-exact."""
    return float(f"{x:.6f}")


@dataclass(frozen=True)
class Aoi:
    """Axis-aligned rectangular area of interest anchored at the origin."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(
                f"AOI sides must be finite and positive, got {self.width}x{self.height}"
            )

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class OcclusionForest:
    """Non-overlapping shadow disks (cx, cy, radius) inside an AOI."""

    disks: tuple[tuple[float, float, float], ...]
    lam: float = 0.0
    radius: float = 0.0
    seed: int = 0

    def __len__(self) -> int:
        return len(self.disks)

    def occludes(self, x: float, y: float) -> bool:
        """True if (x, y) lies strictly inside any disk (boundary is visible)."""
        for cx, cy, r in self.disks:
            if (x - cx) ** 2 + (y - cy) ** 2 < r * r:
                return True
        return False

    def centers(self) -> np.ndarray:
        if not self.disks:
            return np.empty((0, 2))
        return np.array([(cx, cy) for cx, cy, _ in self.disks])

    def radii(self) -> np.ndarray:
        return np.array([r for _, _, r in self.disks])


@dataclass(frozen=True)
class TargetTrajectory:
    """Ground-truth states (px, py, vx, vy) sampled at a fixed period."""

    target_id: int
    dt: float
    samples: np.ndarray = field(repr=False)  # (n_samples, 4)

    def __len__(self) -> int:
        return len(self.samples)


# Lower bounds on ScenarioConfig fields as (names, bound, strict); every
# entry, and every entry of a tuple field, must also be finite.
_SCENARIO_BOUNDS = (
    (
        ("dt_sense", "dt_plan", "duration", "v_max", "r0", "ospa_c", "tree_radius",
         "fov_edges", "alphas", "speed_max"),
        0,
        True,
    ),
    (("lam", "sigma_a", "beta", "speed_min"), 0, False),
    (("ospa_p", "horizon", "n_agents", "n_targets", "n_headings", "n_speeds"), 1, False),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one simulation trial."""

    aoi: Aoi = Aoi(150.0, 100.0)
    lam: float = 45.0
    tree_radius: float = 5.0
    n_agents: int = 3
    fov_edges: tuple[float, ...] = (20.0, 25.0, 22.0)
    alphas: tuple[float, ...] = (0.1, 0.15, 0.12)
    v_max: float = 5.0
    dt_sense: float = 0.2
    dt_plan: float = 1.0
    horizon: int = 1
    sigma_a: float = 1.0
    r0: float = 1.0
    beta: float = 1.0
    ospa_c: float = 50.0
    ospa_p: float = 2.0
    duration: float = 60.0
    seed: int = 0
    n_targets: int = 4
    speed_min: float = 1.0
    speed_max: float = 3.0
    n_headings: int = 8
    n_speeds: int = 1

    def __post_init__(self) -> None:
        for names, bound, strict in _SCENARIO_BOUNDS:
            for name in names:
                value = getattr(self, name)
                for v in value if isinstance(value, tuple) else (value,):
                    if not (math.isfinite(v) and (v > bound if strict else v >= bound)):
                        op = ">" if strict else ">="
                        raise ValueError(f"{name} must be finite and {op} {bound}, got {v!r}")
        ratio = self.dt_plan / self.dt_sense
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"dt_plan={self.dt_plan} must be an integer multiple of dt_sense={self.dt_sense}"
            )
        epochs = self.duration / self.dt_plan
        if not math.isfinite(epochs) or abs(epochs - round(epochs)) > 1e-9 or epochs < 1:
            raise ValueError(
                f"duration={self.duration} must be a whole positive number of "
                f"dt_plan={self.dt_plan} epochs"
            )
        if len(self.fov_edges) != self.n_agents or len(self.alphas) != self.n_agents:
            raise ValueError("fov_edges and alphas must have one entry per agent")
        if self.speed_max < self.speed_min:
            raise ValueError("speed interval must satisfy 0 <= min <= max")

    @property
    def plan_ratio(self) -> int:
        return round(self.dt_plan / self.dt_sense)


def generate_forest(
    lam: float, radius: float, aoi: Aoi, rng: np.random.Generator, seed: int = 0
) -> OcclusionForest:
    """Draw a Poisson number of disks, placed uniformly without overlap.

    Placement uses rejection sampling with a fixed retry budget per disk;
    exceeding the budget raises ForestPlacementError rather than silently
    under-placing. Coordinates are quantized to 6 decimals so saved maps
    reload bit-exactly.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be positive")
    count = int(rng.poisson(lam))
    placed: list[tuple[float, float, float]] = []
    min_gap_sq = (2.0 * radius) ** 2
    for _ in range(count):
        for _attempt in range(PLACEMENT_RETRY_BUDGET):
            cx = _q6(rng.uniform(0.0, aoi.width))
            cy = _q6(rng.uniform(0.0, aoi.height))
            if all((cx - px) ** 2 + (cy - py) ** 2 > min_gap_sq for px, py, _ in placed):
                placed.append((cx, cy, _q6(radius)))
                break
        else:
            raise ForestPlacementError(
                f"could not place disk {len(placed) + 1}/{count} of radius {radius} "
                f"after {PLACEMENT_RETRY_BUDGET} attempts"
            )
    return OcclusionForest(disks=tuple(placed), lam=_q6(lam), radius=_q6(radius), seed=seed)


def _truncated_pareto(rng: np.random.Generator, shape: float, scale: float, lo: float, hi: float) -> float:
    # Inverse-CDF sampling of Pareto(shape, scale) restricted to [lo, hi].
    cdf_lo = 1.0 - (scale / lo) ** shape
    cdf_hi = 1.0 - (scale / hi) ** shape
    u = cdf_lo + rng.uniform(0.0, 1.0) * (cdf_hi - cdf_lo)
    return scale * (1.0 - u) ** (-1.0 / shape)


def generate_levy_trajectory(
    duration: float,
    dt: float,
    speed_range: tuple[float, float],
    aoi: Aoi,
    rng: np.random.Generator,
    target_id: int = 0,
) -> TargetTrajectory:
    """Levy walk: heavy-tailed straight segments at piecewise-constant speed.

    Each segment picks a truncated-Pareto length, a uniform speed from
    ``speed_range`` and a uniform heading, resampled until the whole
    segment stays inside the AOI. Segment durations are rounded to whole
    sensing ticks so finite differences of the samples reproduce the
    commanded velocity exactly.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    smin, smax = speed_range
    if smin < 0 or smax < smin or smax <= 0:
        raise ValueError("speed_range must satisfy 0 <= min <= max and max > 0")
    n_ticks = round(duration / dt)
    if n_ticks < 1:
        raise ValueError("duration must cover at least one sampling period")
    samples = np.empty((n_ticks + 1, 4))
    x = rng.uniform(0.0, aoi.width)
    y = rng.uniform(0.0, aoi.height)
    tick = 0
    vx = vy = 0.0
    while tick < n_ticks:
        length = _truncated_pareto(rng, LEVY_STEP_SHAPE, LEVY_STEP_SCALE, LEVY_STEP_MIN, LEVY_STEP_MAX)
        speed = rng.uniform(smin, smax)
        seg_ticks = max(1, round(length / (speed * dt)))
        seg_ticks = min(seg_ticks, n_ticks - tick)
        reach = speed * dt * seg_ticks
        for _ in range(1000):
            heading = rng.uniform(0.0, 2.0 * math.pi)
            ex, ey = x + reach * math.cos(heading), y + reach * math.sin(heading)
            if aoi.contains(ex, ey):
                break
        else:
            # A segment of <= step_max + half a tick always fits toward the
            # AOI center, so this fallback cannot leave the rectangle.
            cx, cy = aoi.width / 2.0, aoi.height / 2.0
            norm = math.hypot(cx - x, cy - y)
            heading = math.atan2(cy - y, cx - x) if norm > 0 else 0.0
        vx = speed * math.cos(heading)
        vy = speed * math.sin(heading)
        for _ in range(seg_ticks):
            samples[tick] = (x, y, vx, vy)
            x += vx * dt
            y += vy * dt
            tick += 1
    samples[n_ticks] = (x, y, vx, vy)
    return TargetTrajectory(target_id=target_id, dt=dt, samples=samples)


def save_map(forest: OcclusionForest, path: str) -> None:
    """Write a forest as plain text: header ``lambda radius seed`` then one
    ``cx cy r`` row per disk, 6 fractional digits."""
    lines = [f"{forest.lam:.6f} {forest.radius:.6f} {forest.seed}"]
    for cx, cy, r in forest.disks:
        lines.append(f"{cx:.6f} {cy:.6f} {r:.6f}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_map(path: str) -> OcclusionForest:
    """Inverse of save_map; raises MapFormatError naming the offending row."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise MapFormatError(f"{path}: empty map file")
    header = lines[0].split()
    if len(header) != 3:
        raise MapFormatError(f"{path}: line 1: header must be 'lambda radius seed'")
    try:
        lam, radius, seed = float(header[0]), float(header[1]), int(header[2])
    except ValueError as exc:
        raise MapFormatError(f"{path}: line 1: bad header value ({exc})") from exc
    disks = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise MapFormatError(f"{path}: line {lineno}: expected 'cx cy r', got {line!r}")
        try:
            disks.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise MapFormatError(f"{path}: line {lineno}: bad number ({exc})") from exc
    return OcclusionForest(disks=tuple(disks), lam=lam, radius=radius, seed=seed)
