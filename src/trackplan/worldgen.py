"""Random occluded environments and target ground truth.

Generates Poisson forests of non-overlapping shadow disks inside a
rectangular area of interest, heavy-tailed (Levy-walk) target
trajectories, and the scenario configuration shared by the simulator,
planners and CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PLACEMENT_RETRY_BUDGET = 10_000

# Levy step-length law: Pareto(shape, scale) truncated to [step_min, step_max].
LEVY_STEP_SHAPE = 1.5
LEVY_STEP_SCALE = 1.0
LEVY_STEP_MIN = 1.0
LEVY_STEP_MAX = 40.0

# Longest trial a ScenarioConfig may ask for, in sensing steps, and most plan
# steps (epochs x horizon) its policy log may hold. Truth and log arrays grow
# with them and with the target count, so a trial may also hold at most
# 4 x MAX_SENSE_STEPS target states: 10^6 steps of four targets, 32 MB each.
MAX_SENSE_STEPS = 1_000_000

# Largest integer field: an int64, numpy's type for array sizes and counts.
MAX_INT = int(np.iinfo(np.int64).max)

# Largest expected disk count (lambda) of a scenario's forest. Placement is
# one Python loop per disk, about 10 us each (1 s at the cap), and
# OcclusionForest.occludes holds a (D, 2) float difference for each point of
# a chunk (1.6 MB at the cap). It also keeps lambda far inside numpy's
# Poisson sampler, which refuses a mean above about 9.22e18.
MAX_DISKS = 100_000

# Most (point, disk) offset floats OcclusionForest.occludes holds at once:
# 64 KB, so its temporaries stay under glibc's default 128 KiB mmap
# threshold. A chunk takes at least one point, so a forest of more than
# _OCCLUDE_FLOATS / 2 disks holds (D, 2) floats.
_OCCLUDE_FLOATS = 1 << 13

# Random sequential adsorption of equal disks in the plane jams at a covered
# fraction of about 0.547 (Feder, J. Theor. Biol. 1980): no placement can
# reach an expected coverage lambda pi r^2 / (W H) above it.
JAMMING_LIMIT = 0.547

# Track initialization covariance: 5 m position / 2 m/s velocity std.
DEFAULT_P0 = (25.0, 25.0, 4.0, 4.0)


class ForestPlacementError(RuntimeError):
    """Rejection sampling exhausted its retry budget (forest too dense)."""


class MapFormatError(ValueError):
    """A map file could not be parsed."""


def _finite(value) -> bool:
    """Whether value() is a finite float; Python's ** raises on overflow."""
    try:
        return math.isfinite(value())
    except OverflowError:
        return False


def _q6(x: float) -> float:
    """Quantize to 6 fractional digits so text round-trips are bit-exact."""
    return float(f"{x:.6f}")


@dataclass(frozen=True)
class Aoi:
    """Axis-aligned rectangular area of interest anchored at the origin."""

    width: float
    height: float

    def __post_init__(self) -> None:
        # Forest placement squares distances between points of the AOI.
        positive = self.width > 0 and self.height > 0
        if not (positive and _finite(lambda: self.width**2 + self.height**2)):
            raise ValueError(
                f"AOI sides must be positive with a finite squared diagonal, "
                f"got {self.width}x{self.height}"
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

    @cached_property
    def _disk_array(self) -> np.ndarray:
        # (D, 3) rows (cx, cy, r^2), built on first use. Not a field, so
        # equality and saved maps see only ``disks``.
        disks = np.array(self.disks, dtype=float).reshape(-1, 3)
        disks[:, 2] *= disks[:, 2]
        return disks

    def occludes(self, points: np.ndarray) -> np.ndarray:
        """Mask over points (..., 2) strictly inside any disk (a circle is
        visible), tested _OCCLUDE_FLOATS offsets at a time."""
        disks = self._disk_array
        points = np.asarray(points)
        flat = points.reshape(-1, 2)
        out = np.empty(len(flat), dtype=bool)
        step = max(1, _OCCLUDE_FLOATS // max(1, 2 * len(disks)))
        for lo in range(0, len(flat), step):
            d = flat[lo : lo + step, None, :] - disks[:, :2]
            d *= d
            out[lo : lo + step] = (d[..., 0] + d[..., 1] < disks[:, 2]).any(axis=-1)
        return out.reshape(points.shape[:-1])


@dataclass(frozen=True)
class TargetTrajectory:
    """Ground-truth states (px, py, vx, vy) sampled at a fixed period."""

    target_id: int
    dt: float
    samples: np.ndarray = field(repr=False)  # (n_samples, 4)

    def __len__(self) -> int:
        return len(self.samples)


# Lower bounds on ScenarioConfig fields as (names, bound, strict); every
# entry, and every entry of a tuple field, must also be finite, and an
# integer at most MAX_INT. The seed is held to that range too.
_SCENARIO_BOUNDS = (
    (
        ("dt_sense", "dt_plan", "duration", "v_max", "r0", "ospa_c", "tree_radius",
         "fov_edges", "alphas", "speed_max"),
        0,
        True,
    ),
    (("lam", "sigma_a", "beta", "speed_min", "seed"), 0, False),
    (("ospa_p", "horizon", "n_agents", "n_targets", "n_headings", "n_speeds"), 1, False),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one simulation trial."""

    seed: int = 0
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
                    # An int is compared exactly: a huge one has no float.
                    in_range = v <= MAX_INT if isinstance(v, int) else math.isfinite(v)
                    if not (in_range and (v > bound if strict else v >= bound)):
                        limit = f"<= {MAX_INT}" if isinstance(v, int) else "finite"
                        op = ">" if strict else ">="
                        raise ValueError(f"{name} must be {limit} and {op} {bound}, got {v!r}")
        if len(self.fov_edges) != self.n_agents or len(self.alphas) != self.n_agents:
            raise ValueError("fov_edges and alphas must have one entry per agent")
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
        if self.duration / self.dt_sense > MAX_SENSE_STEPS:
            raise ValueError(
                f"duration={self.duration} at dt_sense={self.dt_sense} exceeds "
                f"{MAX_SENSE_STEPS} sensing steps"
            )
        steps = round(self.duration / self.dt_sense)
        if steps * self.n_targets > 4 * MAX_SENSE_STEPS:
            raise ValueError(
                f"n_targets={self.n_targets} over {steps} sensing steps exceeds "
                f"{4 * MAX_SENSE_STEPS} logged target states"
            )
        if round(epochs) * self.horizon > MAX_SENSE_STEPS:
            raise ValueError(
                f"horizon={self.horizon} over {round(epochs)} epochs exceeds "
                f"{MAX_SENSE_STEPS} logged plan steps"
            )
        # Every Kalman update must stay finite. An update only shrinks a
        # covariance, so a track unobserved for t, the trial plus one planning
        # horizon, bounds every variance. A step of dt <= dt_plan of the noise
        # sigma_a^2 (dt^4/4, dt^3/2, dt^2) adds at most sigma_a^2 dt^2 to a
        # velocity variance and sigma_a^2 dt^2 t^2 to a position variance, so
        # with the steps summing to t no variance exceeds
        # (max P0 + sigma_a^2 dt_plan t) (1 + t)^2; that also bounds the noise
        # itself. A measurement variance is at most 0.1 pi alpha r, with the
        # range r at most r0 or the AOI diagonal plus the agent travel v_max t.
        # The innovation determinant multiplies two sums of the two bounds.
        def innovation_bound_sq() -> float:
            t = self.duration + self.horizon * self.dt_plan
            p_max = (max(DEFAULT_P0) + self.sigma_a**2 * self.dt_plan * t) * (1.0 + t) ** 2
            reach = math.hypot(self.aoi.width, self.aoi.height) + self.v_max * t
            r_max = 0.1 * math.pi * max(self.alphas) * max(self.r0, reach)
            return (p_max + r_max) ** 2

        if not _finite(innovation_bound_sq):
            raise ValueError(
                f"Kalman update variances overflow over duration={self.duration} plus "
                f"horizon={self.horizon}: sigma_a={self.sigma_a}, r0={self.r0}, alphas={self.alphas}"
            )
        # The OSPA total, at most n_targets * c^p, must be finite.
        if not _finite(lambda: self.n_targets * self.ospa_c**self.ospa_p):
            raise ValueError(
                f"ospa_c**ospa_p overflows: ospa_c={self.ospa_c}, ospa_p={self.ospa_p}"
            )
        # Forest placement compares squared centre distances with (2 r)^2.
        if not _finite(lambda: (2.0 * self.tree_radius) ** 2):
            raise ValueError(f"tree_radius={self.tree_radius} overflows the placement test")
        if self.lam > MAX_DISKS:
            raise ValueError(f"lambda {self.lam!r} exceeds {MAX_DISKS} expected disks")
        coverage = self.lam * math.pi * self.tree_radius**2 / (self.aoi.width * self.aoi.height)
        if coverage > JAMMING_LIMIT:
            raise ValueError(
                f"lambda {self.lam!r} disks of radius {self.tree_radius!r} would cover "
                f"{coverage:.3g} of the {self.aoi.width!r} x {self.aoi.height!r} AOI, past "
                f"the jamming limit {JAMMING_LIMIT} of random placement"
            )
        if self.speed_max < self.speed_min:
            raise ValueError("speed interval must satisfy 0 <= min <= max")

    @property
    def plan_ratio(self) -> int:
        return round(self.dt_plan / self.dt_sense)


def generate_forest(
    lam: float, radius: float, aoi: Aoi, rng: np.random.Generator, seed: int = 0
) -> OcclusionForest:
    """Draw a Poisson number of disks, placed uniformly without overlap.

    Placement uses rejection sampling with a fixed retry budget per disk,
    testing each candidate against the placed disks near it; exceeding the
    budget raises ForestPlacementError rather than silently under-placing.
    Coordinates are quantized to 6 decimals so saved maps reload bit-exactly.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not radius > 0:  # NaN too: the cell index of a centre must be an integer
        raise ValueError("radius must be positive")
    count = int(rng.poisson(lam))
    placed: list[tuple[float, float, float]] = []
    min_gap_sq = (2.0 * radius) ** 2
    # Cell list: a candidate is tested only against the disks in its own and
    # the eight neighbouring square cells, which accepts exactly what testing
    # every placed disk accepts. Cells are at least 4r wide, and so coarse
    # that at most 2^20 span the longer side: then x / width is off by under
    # 2^-31 of a cell, and two centres two cells apart on an axis lie more
    # than (1 - 2^-31) 4r apart, so their squared distance passes the strict
    # (2r)^2 test. Being at least 1e-100 wide keeps those squares normal
    # floats, free of underflow.
    width = max(4.0 * radius, max(aoi.width, aoi.height) / 2**20, 1e-100)
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for _ in range(count):
        for _attempt in range(PLACEMENT_RETRY_BUDGET):
            cx = _q6(rng.uniform(0.0, aoi.width))
            cy = _q6(rng.uniform(0.0, aoi.height))
            kx, ky = math.floor(cx / width), math.floor(cy / width)
            near = (
                centre
                for i in (kx - 1, kx, kx + 1)
                for j in (ky - 1, ky, ky + 1)
                for centre in cells.get((i, j), ())
            )
            if all((cx - px) ** 2 + (cy - py) ** 2 > min_gap_sq for px, py in near):
                placed.append((cx, cy, _q6(radius)))
                cells.setdefault((kx, ky), []).append((cx, cy))
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
