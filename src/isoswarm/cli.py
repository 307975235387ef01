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
    return SwarmConfig((SpacecraftPose(**p) for p in cfg["spacecraft"]),
                       UncertaintyEllipsoid(ell.get("center", (0.0, 0.0, 0.0)),
                                            ell["radii"]))


def _read(load, path, what):
    """Load an input file; a missing, unreadable or malformed one is exit 2."""
    try:
        return load(path)
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as err:
        raise CliError(f"{path}: cannot read {what}: {err}")


def _checked(cast, ok, what):
    """argparse type for a value cast(text) with ok(value), described by
    what."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in its errors
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")  # counts
_seed = _checked(int, lambda v: v >= 0, "non-negative")
_finite_float = _checked(float, math.isfinite, "finite")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf,
                           "finite and positive")
_nonnegative_float = _checked(float, lambda v: 0.0 <= v < math.inf,
                              "finite and non-negative")
_probability = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_stddev = _checked(float, lambda v: 0.0 <= v and v * v < math.inf,
                   "non-negative with a finite square")


def _emit(payload, output) -> int:
    """Print the payload as JSON and, with -o, write it to that file."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    print(text)
    if output:
        Path(output).write_text(text + "\n")
    return EXIT_OK


def cmd_sample_pois(args) -> int:
    radii = (args.radius,) * 3 if args.radii is None else tuple(args.radii)
    try:
        ellipsoid = UncertaintyEllipsoid(args.center, radii)
    except ValueError as err:
        raise CliError(f"bad ellipsoid (--center, --radius/--radii): {err}")
    pois = sample_pois(ellipsoid, args.n, args.seed or 0)
    out = args.output or "pois.csv"
    save_pois(out, pois)
    lo = pois.points.min(axis=0)
    hi = pois.points.max(axis=0)
    print(f"wrote {len(pois)} POIs to {out}")
    print(f"bounds: x [{lo[0]:g}, {hi[0]:g}]  y [{lo[1]:g}, {hi[1]:g}]  "
          f"z [{lo[2]:g}, {hi[2]:g}]")
    return EXIT_OK


def _load_scene(args):
    """POIs and swarm, with a --kappa-weight whose overlap term is finite."""
    pois = _read(load_pois, args.pois, "POI file")
    swarm = _read(_load_swarm, args.swarm, "swarm pose file")
    if exp_mod.weight_overflows(args.kappa_weight, swarm.nu.max(), len(swarm)):
        raise CliError("--kappa-weight times the largest nu and the swarm "
                       "size squared must be finite")
    return pois, swarm


def cmd_cost(args) -> int:
    pois, swarm = _load_scene(args)
    breakdown = information_cost(swarm, pois, kappa_weight=args.kappa_weight)
    return _emit(breakdown.to_json_dict(), args.output)


def cmd_optimize(args) -> int:
    for flag, value in (("--mc-samples", args.mc_samples),
                        ("--seed", args.noise_seed)):
        if value is not None and not args.position_stddev > 0.0:
            raise CliError(f"{flag} needs a positive --position-stddev")
    pois, swarm = _load_scene(args)
    opts = NelderMeadOptions(max_iterations=args.max_iterations)
    seed = args.seed if args.noise_seed is None else args.noise_seed
    cost_mode = (args.position_stddev, args.mc_samples or 100, seed or 0)
    best, breakdown, result = optimize_swarm(
        pois, swarm, opts, cost_mode, kappa_weight=args.kappa_weight
    )
    payload = {
        "spacecraft": [{"position": p.position.tolist(), "theta": p.theta,
                        "nu": p.nu, "phi": p.phi} for p in best.spacecraft],
        "cost": breakdown.to_json_dict(),
        "iterations": result.iterations,
        "evaluations": result.evaluation_count,
        "converged": result.converged,
        "termination": result.termination,
        "best_at": result.best_at,
    }
    return _emit(payload, args.output)


def cmd_bound(args) -> int:
    params, noise = _read(bound_mod.load_bound_config, args.config,
                          "bound config")
    try:
        if args.invert is not None:
            D = bound_mod.radius_for_success_probability(
                args.invert, args.time, args.v0, params, noise)
            payload = {"target_probability": args.invert, "radius": D}
        else:
            payload = bound_mod.evaluate_bound(args.distance, args.time,
                                               args.v0, params,
                                               noise).to_json_dict()
    except bound_mod.InfeasibleParamsError as err:
        raise CliError(f"infeasible parameters: {err}", EXIT_COMPUTE)
    except bound_mod.ExtrapolationError as err:
        raise CliError(str(err), EXIT_COMPUTE)
    return _emit(payload, args.output)


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
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the master seed where applicable")
    parser.add_argument("--output", "-o", default=None,
                        help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-pois", help="sample POIs inside an ellipsoid")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--radius", type=_positive_float, default=100.0,
                       help="sphere radius (km)")
    shape.add_argument("--radii", type=_positive_float, nargs=3, default=None,
                       help="per-axis ellipsoid radii (km)")
    p.add_argument("--center", type=_finite_float, nargs=3,
                   default=(0.0, 0.0, 0.0))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                   help="sampling seed (default: the global --seed, else 0)")
    p.set_defaults(func=cmd_sample_pois)

    p = sub.add_parser("cost", help="evaluate the information cost of a swarm")
    p.add_argument("--pois", required=True, help="POI file from sample-pois")
    p.add_argument("--swarm", required=True, help="swarm pose JSON file")
    p.add_argument("--kappa-weight", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("optimize", help="search the swarm's directions, each "
                       "spacecraft at the larger of its start and hold "
                       "distance (with --position-stddev, its positions), "
                       "with its thetas placed in closed form")
    p.add_argument("--pois", required=True)
    p.add_argument("--swarm", required=True, help="initial swarm pose JSON")
    p.add_argument("--kappa-weight", type=_finite_float, default=1.0)
    p.add_argument("--max-iterations", type=_positive_int, default=None)
    p.add_argument("--position-stddev", type=_stddev, default=0.0,
                   help="enable expected-cost mode with this stddev (km)")
    p.add_argument("--mc-samples", type=_positive_int, default=None,
                   help="expected-cost samples (default 100)")
    p.add_argument("--seed", dest="noise_seed", type=_seed, default=None,
                   help="noise seed, with --position-stddev (default: the "
                        "global --seed, else 0)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bound", help="evaluate the encounter probability bound")
    p.add_argument("--config", required=True,
                   help="JSON with contraction scalars and a noise history")
    p.add_argument("--time", "-T", type=_finite_float, default=0.0)
    p.add_argument("--v0", type=_nonnegative_float, default=0.0,
                   help="expected initial Lyapunov value")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--distance", "-D", type=_positive_float, default=1.0,
                      help="evaluate at this distance (default 1.0)")
    only.add_argument("--invert", type=_probability, default=None, metavar="P",
                      help="print the radius certifying success probability P")
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
    except (OSError, ValueError, MemoryError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
