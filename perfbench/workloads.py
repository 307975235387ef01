"""The benchmark's three workloads.

A workload writes its inputs from the seed in ``setup``. Its input is a
fixed list of units; ``run_unit`` runs one through the public API
(``isoswarm.experiments.run_experiment`` or ``isoswarm.cli.main``) and is
the timed region, ``finish`` digests the outputs, and ``check`` compares
them with the independent oracle. A unit is made of operations: one
campaign cell or one CLI command each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

import oracle

NPROC = len(os.sched_getaffinity(0))
PHI = np.pi / 3.0
NU = PHI / 2.0
ORIGIN = [0.0, 0.0, 0.0]


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Unit:
    """Outputs of one unit: per-operation records and digests, and the
    objective calls the program reported (its evaluation count plus one
    final breakdown per Nelder-Mead run)."""

    def __init__(self, records, digests, objective_calls):
        self.records = records
        self.digests = digests
        self.objective_calls = objective_calls


class Checked:
    """What the oracle found in one unit: failed operations as
    (index, messages), and the values the quality metrics average."""

    def __init__(self):
        self.failed = []
        self.coverage = []
        self.minus_info_cost = []


class Campaign:
    """Small campaigns through run_experiment; their cells are the
    operations. Each campaign is one unit with its own master seed drawn
    from the workload seed, so a run's rate is a median over many short
    units and the quality metrics average over all of them."""

    threads = 1
    chunks = 1

    def config(self, master_seed: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> dict:
        from isoswarm import experiments
        configs = []
        seeds = np.random.SeedSequence(seed).generate_state(self.chunks)
        for k, master_seed in enumerate(seeds):
            path = workdir / f"config_{k}.json"
            path.write_text(json.dumps(self.config(int(master_seed))))
            configs.append(experiments.load_experiment_config(path))
        return {"configs": configs}

    def units(self, state) -> int:
        return len(state["configs"])

    def run_unit(self, state, k):
        from isoswarm import experiments
        return experiments.run_experiment(state["configs"][k],
                                          threads=self.threads)

    def finish(self, state, report) -> Unit:
        trials = report.trials
        state["report_config"] = report.config
        return Unit(trials, [_digest(t) for t in trials],
                    sum(t["evaluations"] + 1 for t in trials))

    def provenance(self, state) -> dict:
        cfg = state["configs"][0]
        return {"workers": self.threads, "n_pois": cfg.n_pois,
                "campaigns": len(state["configs"])}

    def check(self, state, unit) -> Checked:
        out = Checked()
        for i, rec in enumerate(unit.records):
            problems = self.check_record(state["report_config"], rec)
            if problems:
                out.failed.append((i, problems))
            out.coverage.append(rec["coverage_pct"])
            out.minus_info_cost.append(rec["minus_info_cost"])
        return out


class SwarmSweep(Campaign):
    """Swarm sizes 1..7 on a 100 km sphere with 5000 shared POIs per trial,
    aimed cones, cells on one thread per core."""

    threads = NPROC
    chunks = 20

    def config(self, master_seed):
        # The iteration budget caps the work of a cell: uncapped, one N = 6
        # cell of one seed took 58517 evaluations and its trial 154 s. With
        # 60 iterations the median campaign's work varies by about 5%
        # between seeds; with 100 or 150, by 16-24%.
        return {"schema_version": 1, "type": "swarm_size",
                "sphere_radius": 100.0, "n_pois": 5000,
                "spacecraft_range": [1, 7], "trials": 1,
                "master_seed": master_seed,
                "initial_distance_factors": [3.0, 6.0],
                "nm_options": {"theta_initial_step": 0.5,
                               "max_iterations": 60}}

    def check_record(self, cfg, rec):
        pts = oracle.sample_points(rec["poi_seed"], cfg["n_pois"],
                                   [cfg["sphere_radius"]] * 3, ORIGIN)
        poses = [(p["position"], p["theta"]) for p in rec["final_poses"]]
        problems = oracle.check_cost(
            pts, poses, ORIGIN, cfg["phi"], cfg["nu"], "aimed",
            cfg["kappa_weight"], round(rec["coverage_pct"] * len(pts) / 100),
            rec["kappa_total"], -rec["minus_info_cost"])
        if len(poses) != rec["n_spacecraft"]:
            problems.append("pose count != swarm size")
        return problems


class ViewProbability(Campaign):
    """One spacecraft, radii 50/500/1000 km, fresh 5000 POIs per trial,
    theta-tilted cones, serial."""

    chunks = 50

    def config(self, master_seed):
        return {"schema_version": 1, "type": "view_probability",
                "iso_terminal_position": [41784000.0, -98402000.0,
                                          -47133000.0],
                "sphere_radii": [50.0, 500.0, 1000.0],
                "trials_per_radius": 4, "initial_distance_range": [100, 600],
                "n_pois": 5000, "master_seed": master_seed,
                "success_criterion": "center",
                "nm_options": {"theta_initial_step": 0.5}}

    def check_record(self, cfg, rec):
        pts = oracle.sample_points(rec["poi_seed"], cfg["n_pois"],
                                   [rec["radius"]] * 3, ORIGIN)
        position, theta = rec["final_position_relative"], rec["final_theta"]
        problems = oracle.check_cost(
            pts, [(position, theta)], ORIGIN, cfg["phi"], cfg["nu"],
            "theta_tilt", 1.0, round(rec["coverage_pct"] * len(pts) / 100),
            0.0, -rec["minus_info_cost"])
        if oracle.sees_center(position, ORIGIN, cfg["phi"], "theta_tilt",
                              theta) != rec["success"]:
            problems.append("success flag disagrees with the oracle")
        return problems


# Contraction scalars and noise history of the bundled bound example.
BOUND_CONFIG = {
    "alpha_c": 1.0, "alpha_e": 1.0, "m_c_lower": 0.5, "m_c_upper": 1.0,
    "m_e_lower": 0.5, "m_e_upper": 1.0, "eps_c": 0.02, "eps_e": 0.1,
    "g_bar": 1.0, "u_bar": 0.0, "h_bar": 1.0, "ell_bar": 1.0,
    "gamma_c": 0.1, "lam": 1.0, "alpha_s": 0.1,
    "noise": [[0.0, 0.01], [5.0, 0.02], [10.0, 0.01]],
}
POI_FILES = {"big": 100_000, "opt": 5000}
SWARM_SIZES = (1, 4, 7)
OPT_SWARM = 4
OPT_ARGS = ["--position-stddev", "2.0", "--mc-samples", "4",
            "--max-iterations", "20"]


class CliFiles:
    """A chain of in-process ``isoswarm`` commands over generated files:
    invert and evaluate the bound, write a 10^5-point and a 5000-point POI
    file, score three swarms against the large file and run one short
    expected-cost optimization on the small one. The chain is the unit."""

    threads = 1

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        r = 100.0
        radii = [r, 0.7 * r, 0.4 * r]
        center = rng.uniform(-1000.0, 1000.0, 3).tolist()
        state = {"seed": seed, "dir": workdir, "radii": radii,
                 "center": center,
                 "probability": float(rng.uniform(0.9, 0.99)),
                 "time": float(rng.uniform(1.0, 9.0)),
                 "v0": float(rng.uniform(0.0, 1.0)),
                 "swarms": {}}
        (workdir / "bound.json").write_text(json.dumps(BOUND_CONFIG))
        for n in SWARM_SIZES:
            dirs = _spread_directions(rng, n)
            dist = rng.uniform(3.0 * r, 6.0 * r, n)
            poses = [{"position": (np.asarray(center) + d * s).tolist(),
                      "theta": float(t), "nu": NU, "phi": PHI}
                     for d, s, t in zip(dirs, dist,
                                        rng.uniform(0.0, 2 * np.pi, n))]
            state["swarms"][n] = poses
            (workdir / f"swarm_{n}.json").write_text(json.dumps(
                {"ellipsoid": {"center": center, "radii": radii},
                 "spacecraft": poses}))
        import isoswarm.cli  # noqa: F401  (part of the program's set-up cost)
        return state

    def units(self, state) -> int:
        return 1

    def commands(self, state):
        """The chain as (operation, argv); bound_eval's argv needs the
        radius that bound_invert prints, so it is built in run_unit."""
        d, s = state["dir"], str(state["seed"])
        ellipsoid = ["--center", *map(str, state["center"]),
                     "--radii", *map(str, state["radii"])]
        cmds = [("bound_invert", self.bound_argv(state) + [
            "--invert", str(state["probability"])]), ("bound_eval", None)]
        for key, n in POI_FILES.items():
            cmds.append((f"sample_{key}", [
                "--seed", s, "-o", str(d / f"{key}.csv"), "sample-pois",
                "--n", str(n), *ellipsoid, "--seed", s]))
        for n in SWARM_SIZES:
            cmds.append((f"cost_{n}", [
                "-o", str(d / f"cost_{n}.json"), "cost",
                "--pois", str(d / "big.csv"),
                "--swarm", str(d / f"swarm_{n}.json")]))
        cmds.append(("optimize", [
            "--seed", s, "-o", str(d / "optimize.json"), "optimize",
            "--pois", str(d / "opt.csv"),
            "--swarm", str(d / f"swarm_{OPT_SWARM}.json"), *OPT_ARGS,
            "--seed", s]))
        return cmds

    @staticmethod
    def bound_argv(state):
        return ["bound", "--config", str(state["dir"] / "bound.json"),
                "-T", str(state["time"]), "--v0", str(state["v0"])]

    def run_unit(self, state, k):
        from isoswarm import cli
        records = []
        for name, argv in self.commands(state):
            if name == "bound_eval":
                radius = json.loads(records[0]["stdout"])["radius"]
                argv = self.bound_argv(state) + ["-D", repr(radius)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            records.append({"op": name, "exit": code,
                            "stdout": out.getvalue(),
                            "output": argv[argv.index("-o") + 1]
                            if "-o" in argv else None})
        return records

    def finish(self, state, records) -> Unit:
        digests = []
        for rec in records:
            path = rec["output"]
            data = Path(path).read_bytes() if path and Path(path).exists() \
                else b""
            # stdout names the per-process work directory
            stdout = rec["stdout"].replace(str(state["dir"]), "")
            digests.append(_digest([rec["op"], rec["exit"], stdout,
                                    hashlib.sha256(data).hexdigest()]))
        opt = _read_json(state["dir"] / "optimize.json")
        evals = opt["evaluations"] if opt else 0
        return Unit(records, digests, evals + 1)

    def provenance(self, state):
        return {"workers": 1, "n_pois": list(POI_FILES.values())}

    def check(self, state, unit) -> Checked:
        out = Checked()
        pts = {}
        for i, rec in enumerate(unit.records):
            if rec["exit"] != 0:
                out.failed.append((i, [f"exit code {rec['exit']}"]))
                continue
            try:
                problems = self.check_op(state, rec, pts, out)
            except (KeyError, TypeError, ValueError, OSError) as err:
                problems = [f"unreadable output: {err!r}"]
            if problems:
                out.failed.append((i, problems))
        return out

    def check_op(self, state, rec, pts, out) -> list[str]:
        op, problems = rec["op"], []
        if op == "bound_invert":
            if not json.loads(rec["stdout"])["radius"] > 0.0:
                problems.append("inverted radius is not positive")
        elif op == "bound_eval":
            p = json.loads(rec["stdout"])["success_prob_raw"]
            if abs(p - state["probability"]) > 1e-9:
                problems.append(f"radius evaluates to p={p!r}, not "
                                f"{state['probability']!r}")
        elif op.startswith("sample_"):
            key = op[len("sample_"):]
            header, loaded = oracle.read_poi_file(rec["output"])
            pts[key] = oracle.sample_points(state["seed"], POI_FILES[key],
                                            state["radii"], state["center"])
            if header["seed"] != state["seed"]:
                problems.append(f"header seed {header['seed']} != "
                                f"{state['seed']}")
            if (header["radii"] != state["radii"]
                    or header["center"] != state["center"]):
                problems.append("header ellipsoid != requested")
            if not np.array_equal(loaded, pts[key]):
                problems.append("POI file != regenerated sample")
        elif op.startswith("cost_"):
            swarm = state["swarms"][int(op[len("cost_"):])]
            problems += self.check_breakdown(
                state, _read_json(rec["output"]), pts["big"], swarm, out)
        elif op == "optimize":
            result = _read_json(rec["output"])
            problems += self.check_breakdown(
                state, result["cost"], pts["opt"], result["spacecraft"], out)
        return problems

    @staticmethod
    def check_breakdown(state, breakdown, pts, swarm, out) -> list[str]:
        poses = [(p["position"], p["theta"]) for p in swarm]
        problems = oracle.check_cost(
            pts, poses, state["center"], PHI, NU, "aimed", 1.0,
            breakdown["visible_count"], breakdown["kappa_total"],
            breakdown["info_cost"])
        if breakdown["n_pois"] != len(pts):
            problems.append("n_pois != POI file size")
        out.coverage.append(breakdown["epsilon_pct"])
        out.minus_info_cost.append(-breakdown["info_cost"])
        return problems


def _spread_directions(rng, n: int) -> np.ndarray:
    """n evenly spread unit vectors (a Fibonacci lattice) under a random
    rotation, so a swarm's coverage depends little on the seed."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    azimuth = np.pi * (1.0 + 5.0 ** 0.5) * k
    ring = np.sqrt(1.0 - z * z)
    lattice = np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), z],
                       axis=1)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return lattice @ rotation.T


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


WORKLOADS = {
    "swarm_sweep": SwarmSweep,
    "view_probability": ViewProbability,
    "cli_files": CliFiles,
}
