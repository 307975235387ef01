"""Seeded Monte Carlo campaigns: single-craft view probability and swarm-size sweeps.

Per-cell random streams are derived from the master seed and the cell key
(radius index / trial index / swarm size), so adding cells never perturbs the
streams of existing ones and identical master seeds reproduce every per-trial
record exactly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .cost import DEGENERACY_RADIUS_KM, SwarmConfig
from .geometry import check_fields, fits, visible_mask
from .neldermead import NelderMeadOptions, optimize_swarm
from .sampling import UncertaintyEllipsoid, sample_pois

DEFAULT_PHI = np.pi / 3.0  # full camera aperture
DEFAULT_NU = DEFAULT_PHI / 2.0  # angular half-width of the FOV interval

# Reported -I values are commensurate with coverage percentages only when the
# angular-overlap term is scaled up from radians; the sweep defaults to a
# degrees-scale weight (configurable).
DEFAULT_KAPPA_WEIGHT = 180.0 / np.pi


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _cell_rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, *key]))


def _cell_seed(master_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([master_seed, *key]).generate_state(1)[0])


def _check_config(config) -> None:
    """check_fields, then the ranges both config classes share: counts of at
    least 1, a non-negative master seed, and phi and nu in (0, pi)."""
    check_fields(config, ConfigError)
    for name, low in (("n_pois", 1), ("trials", 1), ("trials_per_radius", 1),
                      ("master_seed", 0)):
        if getattr(config, name, low) < low:
            raise ConfigError(f"{name} must be at least {low}")
    for name in ("phi", "nu"):
        if not 0.0 < getattr(config, name) < np.pi:
            raise ConfigError(f"{name} must lie in (0, pi)")


def weight_overflows(kappa_weight, nu, n) -> bool:
    """Whether w * kappa_total can overflow for n spacecraft of half-width at
    most nu, kappa_total being at most n * n * nu."""
    return not math.isfinite(float(kappa_weight) * n * n * float(nu))


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    x, y, z = v.tolist()  # np.linalg.norm's last bit depends on the BLAS
    return v / math.sqrt(x * x + y * y + z * z)


def _start_swarm(rng, ellipsoid, distances, config) -> SwarmConfig:
    """A cell's start swarm: per item d of distances (which may draw from
    rng as it is iterated) a spacecraft d from the center in a random
    direction with a random theta, so the stream reads d, direction, theta."""
    rows = [[*(ellipsoid.center + _random_unit(rng) * d).tolist(),
             rng.uniform(0.0, 2.0 * np.pi)] for d in distances]
    n = len(rows)
    return SwarmConfig.from_arrays(rows, [config.nu] * n, [config.phi] * n,
                                   ellipsoid)


def _nm_fields(result) -> dict:
    """How a cell's Nelder-Mead run (an OptResult) ended, for its record."""
    return {"evaluations": result.evaluation_count,
            "iterations": result.iterations, "termination": result.termination,
            "shrinks": result.shrinks, "final_diameter": result.final_diameter,
            "best_at": result.best_at}


@dataclass(frozen=True)
class ViewProbabilityConfig:
    """Single-spacecraft view-probability campaign over several sphere radii."""

    # The report kind, and its summary: the trial field that keys a row,
    # whether a row has p_pct (the percentage of successful trials), and the
    # fields that get a mean and a standard deviation.
    kind = "view_probability"
    summary = ("radius", True, ("coverage_pct",))

    iso_terminal_position: tuple[float, float, float]
    sphere_radii: tuple[float, ...]
    trials_per_radius: int
    initial_distance_range: tuple[int, int] = (100, 600)
    n_pois: int = 5000
    master_seed: int = 0
    phi: float = DEFAULT_PHI
    nu: float = DEFAULT_NU
    success_criterion: str = "center"  # or "sampled_truth"
    nm_options: NelderMeadOptions = NelderMeadOptions()

    def __post_init__(self):
        _check_config(self)
        radii = sorted(map(float, self.sphere_radii)) or [0.0]
        if not (radii[0] > 0.0 and math.isfinite(radii[-1] * radii[-1])):
            raise ConfigError("sphere_radii must be one or more positive "
                              "radii whose squares (the POIs') are finite")
        lo, hi = self.initial_distance_range
        if not 1 <= lo < hi < 2 ** 63:
            # a start distance of 0 puts the spacecraft at the center; the
            # draw takes max + 1 as an int64
            raise ConfigError(
                "initial_distance_range must satisfy 1 <= min < max < 2^63")
        if self.success_criterion not in ("center", "sampled_truth"):
            raise ConfigError("success_criterion must be center or "
                              f"sampled_truth, got {self.success_criterion!r}")

    def cells(self) -> list[dict]:
        """One record per trial, radius by radius: fresh POIs, a random start
        an integer distance from the center, an optimized pose, and whether
        the center (or a sampled true ISO position) is visible from it."""
        records = []
        for r_idx, radius in enumerate(self.sphere_radii):
            sphere = UncertaintyEllipsoid.sphere(radius)
            records += [_run_view_probability_trial(self, r_idx, sphere, trial)
                        for trial in range(self.trials_per_radius)]
        return records


@dataclass(frozen=True)
class SwarmSizeConfig:
    """Swarm-size sweep on one uncertainty sphere with shared POIs per trial."""

    kind = "swarm_size"
    summary = ("n_spacecraft", False, ("coverage_pct", "minus_info_cost"))

    sphere_radius: float
    n_pois: int
    spacecraft_range: tuple[int, int] = (1, 7)
    trials: int = 3
    master_seed: int = 0
    phi: float = DEFAULT_PHI
    nu: float = DEFAULT_NU
    kappa_weight: float = DEFAULT_KAPPA_WEIGHT
    initial_distance_factors: tuple[float, float] = (3.0, 6.0)
    nm_options: NelderMeadOptions = NelderMeadOptions()

    def __post_init__(self):
        _check_config(self)
        lo, n = self.spacecraft_range
        if not 1 <= lo <= n <= 32:
            raise ConfigError("spacecraft_range must lie within [1, 32]")
        lo, hi = self.initial_distance_factors
        if not 0.0 < lo <= hi:
            raise ConfigError(
                "initial_distance_factors must satisfy 0 < min <= max")
        r = float(self.sphere_radius)  # an int's square may not convert
        if not r * lo >= 2.0 * DEGENERACY_RADIUS_KM:
            raise ConfigError(
                "sphere_radius times the smallest initial_distance_factors "
                f"must be at least {2.0 * DEGENERACY_RADIUS_KM:g} km, twice "
                "the degeneracy radius")
        far = r * hi
        if not math.isfinite(far * far):  # the cone axes need it
            raise ConfigError("sphere_radius times the largest "
                              "initial_distance_factors must square finite")
        if weight_overflows(self.kappa_weight, self.nu, n):
            raise ConfigError("kappa_weight times nu and the largest swarm "
                              "size squared must be finite")

    def cells(self) -> list[dict]:
        """One record per (trial, swarm size): the sizes of a trial share its
        POIs, and each spacecraft starts an independent random multiple
        (initial_distance_factors) of the radius away."""
        lo, hi = self.spacecraft_range
        records = []
        for trial in range(self.trials):
            poi_seed = _cell_seed(self.master_seed, 2, trial, 0, 0)
            pois = sample_pois(UncertaintyEllipsoid.sphere(self.sphere_radius),
                               self.n_pois, poi_seed)
            records += [_run_swarm_size_cell(self, trial, n_sc, pois, poi_seed)
                        for n_sc in range(lo, hi + 1)]
        return records


_CONFIG_TYPES = {cls.kind: cls for cls in (ViewProbabilityConfig,
                                           SwarmSizeConfig)}


@dataclass
class ExperimentReport:
    """Per-trial records plus aggregates recomputable from them."""

    kind: str
    config: dict
    trials: list[dict]
    aggregates: list[dict] = field(default_factory=list)

    def write_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)
            f.write("\n")

    def write_summary_csv(self, path) -> None:
        if not self.aggregates:
            raise ValueError("report has no aggregates")
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(self.aggregates[0]))
            writer.writeheader()
            writer.writerows(self.aggregates)


def _run_view_probability_trial(config: ViewProbabilityConfig, r_idx: int,
                                ellipsoid: UncertaintyEllipsoid,
                                trial: int) -> dict:
    # Optimize in sphere-centered coordinates (the cost is translation
    # invariant) so the simplex steps scale with the encounter geometry, not
    # with the heliocentric magnitude of the ISO terminal position.
    iso_position = np.asarray(config.iso_terminal_position, dtype=float)
    radius, center = ellipsoid.radii[0], ellipsoid.center
    poi_seed = _cell_seed(config.master_seed, 1, r_idx, trial, 0)
    pois = sample_pois(ellipsoid, config.n_pois, poi_seed)

    rng = _cell_rng(config.master_seed, 1, r_idx, trial, 1)
    lo, hi = config.initial_distance_range
    distance = float(rng.integers(lo, hi + 1))
    start = _start_swarm(rng, ellipsoid, [distance], config)
    best, breakdown, result = optimize_swarm(
        pois, start, config.nm_options, orientation_mode="theta_tilt")
    *initial, initial_theta = start.state[0].tolist()
    *final, final_theta = best.state[0].tolist()
    if config.success_criterion == "center":
        target = center
    else:
        target = center + _random_unit(rng) * radius * rng.random() ** (1.0 / 3.0)
    x, y, z = (target - center).tolist()  # poi_columns' R, not its columns
    success = visible_mask(target[None], [final], [final_theta],
                           best.phi.tolist(), center,
                           (None, math.sqrt((x * x + y * y) + z * z)),
                           count=True) == 1

    return {
        "radius": radius,
        "trial": trial,
        "poi_seed": poi_seed,
        "initial_distance": distance,
        "initial_position": (iso_position + initial).tolist(),
        "initial_theta": initial_theta,
        "final_position": (iso_position + final).tolist(),
        "final_position_relative": final,
        "final_theta": final_theta,
        "coverage_pct": breakdown.epsilon_term,
        "minus_info_cost": -breakdown.information_cost,
        "success": success,
        **_nm_fields(result),
    }


def _run_swarm_size_cell(config: SwarmSizeConfig, trial: int, n_sc: int,
                         pois, poi_seed: int) -> dict:
    rng = _cell_rng(config.master_seed, 2, trial, n_sc)
    r = config.sphere_radius
    lo, hi = (f * r for f in config.initial_distance_factors)
    initial = _start_swarm(rng, pois.ellipsoid, (
        rng.uniform(lo, hi) for _ in range(n_sc)), config)
    best, breakdown, result = optimize_swarm(
        pois, initial, config.nm_options, kappa_weight=config.kappa_weight)
    return {
        "trial": trial,
        "n_spacecraft": n_sc,
        "coverage_pct": breakdown.epsilon_term,
        "kappa_total": breakdown.kappa_total,
        "minus_info_cost": -breakdown.information_cost,
        "final_poses": [{"position": row[:3], "theta": row[3]}
                        for row in best.state.tolist()],
        **_nm_fields(result),
        "poi_seed": poi_seed,
    }


def aggregate(report: ExperimentReport) -> list[dict]:
    """Per-cell mean and standard deviation, recomputed from per-trial rows,
    as the summary of the report kind's config class lists them: np.mean's
    and np.std's own ufunc steps, bit for bit, without their wrappers."""
    if not report.trials:
        raise ValueError("report has no trials")
    if report.kind not in _CONFIG_TYPES:
        raise ValueError(f"unknown report kind {report.kind!r}")
    key, with_p, fields = _CONFIG_TYPES[report.kind].summary
    rows = []
    for value in sorted({t[key] for t in report.trials}):
        cell = [t for t in report.trials if t[key] == value]
        row = {key: value, "trials": len(cell)}
        if with_p:
            row["p_pct"] = 100.0 * sum(t["success"] for t in cell) / len(cell)
        for name in fields:
            xs = np.array([t[name] for t in cell], dtype=float)
            mean = np.add.reduce(xs) / len(xs)
            row[f"mean_{name}"] = float(mean)
            row[f"std_{name}"] = math.sqrt(
                np.add.reduce(np.square(xs - mean)) / len(xs))
        rows.append(row)
    return rows


def config_from_dict(cfg: dict):
    """Parse an experiment config dict with a versioned schema: "type" picks
    the config class, tuple fields take JSON lists, "nm_options" is a dict of
    NelderMeadOptions fields."""
    cfg = dict(cfg)
    version = cfg.pop("schema_version", None)
    if not (fits("int", version) and version == 1):
        raise ConfigError(f"unsupported schema_version: {version!r}")
    kind = cfg.pop("type", None)
    cls = _CONFIG_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown experiment type: {kind!r}")
    nm = cfg.get("nm_options", {})
    if not isinstance(nm, dict):
        raise ConfigError(f"nm_options must be an object, got {nm!r}")
    try:
        for name, f in cls.__dataclass_fields__.items():
            if isinstance(cfg.get(name), list) and f.type.startswith("tuple"):
                cfg[name] = tuple(cfg[name])
        cfg["nm_options"] = NelderMeadOptions(**nm)
        return cls(**cfg)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def load_experiment_config(path):
    with open(path) as f:
        return config_from_dict(json.load(f))


def run_experiment(config, threads: int = 1) -> ExperimentReport:
    """Run a campaign, its cells in order on the caller's thread: cells are
    mostly Python, so worker threads only traded the interpreter lock (1.7-3.7x
    slower on 2 cores). threads other than 1 warns and changes nothing."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if threads != 1:
        warnings.warn("threads is ignored: campaign cells run serially",
                      DeprecationWarning, stacklevel=2)
    if not isinstance(config, tuple(_CONFIG_TYPES.values())):
        raise ConfigError(f"unsupported config type {type(config).__name__}")
    echo = json.loads(json.dumps(asdict(config)))
    report = ExperimentReport(config.kind, echo, config.cells())
    report.aggregates = aggregate(report)
    return report
