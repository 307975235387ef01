"""Command-line entry point.

Subcommands: sample-pois, cost, optimize, bound, experiment. Stdout carries
short human summaries; files carry machine-readable data. Exit codes:
0 success, 2 usage or config error, 3 computation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bound as bound_mod
from . import experiments as exp_mod
from .cost import SpacecraftPose, SwarmConfig, information_cost
from .neldermead import NelderMeadOptions, optimize_swarm
from .sampling import UncertaintyEllipsoid, load_pois, sample_pois, save_pois

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_swarm(path) -> SwarmConfig:
    """Read a swarm pose file: JSON with "ellipsoid" and a "spacecraft" list."""
    with open(path) as f:
        cfg = json.load(f)
    ell = cfg["ellipsoid"]
    ellipsoid = UncertaintyEllipsoid(
        np.asarray(ell.get("center", [0.0, 0.0, 0.0]), dtype=float),
        tuple(ell["radii"]),
    )
    poses = tuple(
        SpacecraftPose(np.asarray(p["position"], dtype=float),
                       p["theta"], p["nu"], p["phi"])
        for p in cfg["spacecraft"]
    )
    swarm = SwarmConfig(poses, ellipsoid)
    if not np.isfinite(swarm.state[:, 3]).all():
        raise ValueError("spacecraft theta must be finite")
    return swarm


def _read(load, path, what):
    """Load an input file; a missing, unreadable or malformed one is exit 2."""
    try:
        return load(path)
    except (OSError, KeyError, TypeError, ValueError) as err:
        raise CliError(f"{path}: cannot read {what}: {err}")


def _positive_int(text) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float_type(ok, what):
    """argparse type for a float value with ok(value), described by what."""
    def parse(text) -> float:
        value = float(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = "float"  # argparse names the type in its errors
    return parse


_finite_float = _float_type(math.isfinite, "finite")
_positive_float = _float_type(lambda v: 0.0 < v < math.inf,
                              "finite and positive")
_nonnegative_float = _float_type(lambda v: 0.0 <= v < math.inf,
                                 "finite and non-negative")
_probability = _float_type(lambda v: 0.0 < v < 1.0, "in (0, 1)")


def cmd_sample_pois(args) -> int:
    radii = (args.radius,) * 3 if args.radii is None else tuple(args.radii)
    try:
        ellipsoid = UncertaintyEllipsoid(np.asarray(args.center, dtype=float),
                                         radii)
    except ValueError as err:
        raise CliError(f"bad ellipsoid: {err}")
    pois = sample_pois(ellipsoid, args.n, args.seed or 0)
    out = args.output or "pois.csv"
    save_pois(out, pois)
    lo = pois.points.min(axis=0)
    hi = pois.points.max(axis=0)
    print(f"wrote {len(pois)} POIs to {out}")
    print(f"bounds: x [{lo[0]:g}, {hi[0]:g}]  y [{lo[1]:g}, {hi[1]:g}]  "
          f"z [{lo[2]:g}, {hi[2]:g}]")
    return EXIT_OK


def cmd_cost(args) -> int:
    pois = _read(load_pois, args.pois, "POI file")
    swarm = _read(_load_swarm, args.swarm, "swarm pose file")
    breakdown = information_cost(swarm, pois, kappa_weight=args.kappa_weight)
    text = json.dumps(breakdown.to_json_dict(), indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return EXIT_OK


def cmd_optimize(args) -> int:
    pois = _read(load_pois, args.pois, "POI file")
    swarm = _read(_load_swarm, args.swarm, "swarm pose file")
    opts = NelderMeadOptions(max_iterations=args.max_iterations)
    cost_mode = "deterministic"
    if args.position_stddev > 0.0:
        cost_mode = (args.position_stddev, args.mc_samples, args.seed or 0)
    best, breakdown, result = optimize_swarm(
        pois, swarm, opts, cost_mode, kappa_weight=args.kappa_weight
    )
    payload = {
        "spacecraft": [
            {"position": p.position.tolist(), "theta": p.theta,
             "nu": p.nu, "phi": p.phi}
            for p in best.spacecraft
        ],
        "cost": breakdown.to_json_dict(),
        "iterations": result.iterations,
        "evaluations": result.evaluation_count,
        "converged": result.converged,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    params, noise = _read(bound_mod.load_bound_config, args.config,
                          "bound config")
    try:
        if args.invert is not None:
            D = bound_mod.radius_for_success_probability(
                args.invert, args.time, args.v0, params, noise)
            print(json.dumps({"target_probability": args.invert, "radius": D},
                             indent=2))
        else:
            result = bound_mod.evaluate_bound(
                args.distance, args.time, args.v0, params, noise,
                squared_distance=args.squared)
            print(json.dumps(result.to_json_dict(), indent=2))
    except bound_mod.InfeasibleParamsError as err:
        raise CliError(f"infeasible parameters: {err}", EXIT_COMPUTE)
    except bound_mod.ExtrapolationError as err:
        raise CliError(str(err), EXIT_COMPUTE)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _read(exp_mod.load_experiment_config, args.config,
                   "experiment config")
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    report = exp_mod.run_experiment(config)
    report.write_json(outdir / "report.json")
    report.write_summary_csv(outdir / "summary.csv")
    print(f"{report.kind}: {len(report.trials)} trials -> "
          f"{outdir / 'report.json'}, {outdir / 'summary.csv'}")
    for row in report.aggregates:
        print("  " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in row.items()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoswarm",
        description="Encounter-uncertainty ellipsoids and information-optimal "
                    "swarm positioning",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed where applicable")
    parser.add_argument("--output", "-o", default=None,
                        help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-pois", help="sample POIs inside an ellipsoid")
    p.add_argument("--radius", type=float, default=100.0,
                   help="sphere radius (km); ignored if --radii is given")
    p.add_argument("--radii", type=float, nargs=3, default=None,
                   help="per-axis ellipsoid radii (km)")
    p.add_argument("--center", type=float, nargs=3, default=(0.0, 0.0, 0.0))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="sampling seed (default: the global --seed, else 0)")
    p.set_defaults(func=cmd_sample_pois)

    p = sub.add_parser("cost", help="evaluate the information cost of a swarm")
    p.add_argument("--pois", required=True, help="POI file from sample-pois")
    p.add_argument("--swarm", required=True, help="swarm pose JSON file")
    p.add_argument("--kappa-weight", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("optimize", help="optimize swarm positions/orientations")
    p.add_argument("--pois", required=True)
    p.add_argument("--swarm", required=True, help="initial swarm pose JSON")
    p.add_argument("--kappa-weight", type=_finite_float, default=1.0)
    p.add_argument("--max-iterations", type=_positive_int, default=None)
    p.add_argument("--position-stddev", type=_nonnegative_float, default=0.0,
                   help="enable expected-cost mode with this stddev (km)")
    p.add_argument("--mc-samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="noise seed (default: the global --seed, else 0)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bound", help="evaluate the encounter probability bound")
    p.add_argument("--config", required=True,
                   help="JSON with contraction scalars and a noise history")
    p.add_argument("--distance", "-D", type=_positive_float, default=1.0)
    p.add_argument("--time", "-T", type=_finite_float, default=0.0)
    p.add_argument("--v0", type=_nonnegative_float, default=0.0,
                   help="expected initial Lyapunov value")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--invert", type=_probability, default=None, metavar="P",
                      help="print the radius certifying success probability P")
    only.add_argument("--squared", action="store_true",
                      help="use the squared-distance denominator")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run a simulation campaign")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
