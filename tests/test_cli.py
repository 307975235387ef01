import json

import numpy as np
import pytest

from isoswarm import bound
from isoswarm.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, _load_swarm, main
from isoswarm.cost import information_cost
from isoswarm.neldermead import NelderMeadOptions, optimize_swarm
from isoswarm.sampling import load_pois


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_swarm(path, spacecraft, radius=50.0, center=(0.0, 0.0, 0.0)):
    path.write_text(json.dumps({
        "ellipsoid": {"center": list(center), "radii": [radius] * 3},
        "spacecraft": spacecraft,
    }))


BOUND_CFG = dict(alpha_c=1.0, alpha_e=1.0, m_c_lower=1.0, m_c_upper=1.0,
                 m_e_lower=1.0, m_e_upper=1.0, eps_c=0.0, eps_e=0.1,
                 g_bar=1.0, u_bar=0.0, h_bar=1.0, ell_bar=1.0,
                 gamma_c=0.2, lam=1.0, alpha_s=0.5,
                 noise=[[0.0, 0.0], [10.0, 0.0]])


def test_sample_pois_writes_file(tmp_path, capsys):
    out = tmp_path / "pois.csv"
    code, stdout, _ = run(capsys, "-o", str(out), "sample-pois",
                          "--n", "100", "--seed", "4", "--radius", "80")
    assert code == EXIT_OK
    assert "wrote 100 POIs" in stdout
    pois = load_pois(out)
    assert len(pois) == 100
    assert pois.ellipsoid.radii == (80.0, 80.0, 80.0)


def test_sample_pois_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(capsys, "-o", str(out), "sample-pois",
                         "--n", "50", "--seed", "9")
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sample_pois_ellipsoid_radii(tmp_path, capsys):
    out = tmp_path / "pois.csv"
    code, _, _ = run(capsys, "-o", str(out), "sample-pois", "--n", "500",
                     "--radii", "100", "50", "25", "--center", "1", "2", "3",
                     "--seed", "1")
    assert code == EXIT_OK
    pois = load_pois(out)
    rel = pois.points - np.array([1.0, 2.0, 3.0])
    assert np.all(np.sum((rel / [100, 50, 25]) ** 2, axis=1) <= 1.0 + 1e-12)


def test_sample_pois_zero_n_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "-o", str(tmp_path / "x.csv"),
                          "sample-pois", "--n", "0")
    assert code == EXIT_USAGE
    assert "error" in stderr


def test_cost_full_coverage_scene(tmp_path, capsys):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "200",
        "--radius", "50", "--seed", "3")
    swarm_path = tmp_path / "swarm.json"
    write_swarm(swarm_path, [
        {"position": [400.0, 0.0, 0.0], "theta": 0.0, "nu": 0.5, "phi": 1.0},
        {"position": [-400.0, 0.0, 0.0], "theta": 2.0, "nu": 0.5, "phi": 1.0},
    ])
    code, stdout, _ = run(capsys, "cost", "--pois", str(pois_path),
                          "--swarm", str(swarm_path))
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["epsilon_pct"] == 100.0
    assert payload["kappa_total"] == 0.0
    assert payload["info_cost"] == -100.0
    assert payload["visible_count"] == 200


def test_cost_identical_poses_overlap(tmp_path, capsys):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "100",
        "--radius", "50", "--seed", "3")
    swarm_path = tmp_path / "swarm.json"
    pose = {"position": [400.0, 0.0, 0.0], "theta": 1.0, "nu": 0.3,
            "phi": 1e-4}
    write_swarm(swarm_path, [pose, pose])
    code, stdout, _ = run(capsys, "cost", "--pois", str(pois_path),
                          "--swarm", str(swarm_path))
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["epsilon_pct"] == 0.0
    assert payload["kappa_total"] == pytest.approx(0.6 - 1e-6, abs=1e-12)


def test_cost_malformed_swarm_file(tmp_path, capsys):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "10")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "cost", "--pois", str(pois_path),
                          "--swarm", str(bad))
    assert code == EXIT_USAGE
    assert "error" in stderr


def test_optimize_writes_result(tmp_path, capsys):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "150",
        "--radius", "50", "--seed", "5")
    swarm_path = tmp_path / "swarm.json"
    write_swarm(swarm_path, [
        {"position": [250.0, 100.0, 0.0], "theta": 1.0,
         "nu": np.pi / 6, "phi": np.pi / 3},
    ])
    out = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "-o", str(out), "optimize",
                          "--pois", str(pois_path), "--swarm", str(swarm_path),
                          "--max-iterations", "200")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["spacecraft"]) == 1
    assert payload["cost"]["info_cost"] <= 0.0
    assert payload["evaluations"] > 0
    assert json.loads(stdout) == payload


def test_bound_zero_noise_success_one(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    code, stdout, _ = run(capsys, "bound", "--config", str(cfg),
                          "-D", "1000", "-T", "5", "--v0", "0")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["failure_prob_upper"] == 0.0
    assert payload["success_prob_lower"] == 1.0


def test_bound_invert_hand_case(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    # B = 1, m_lower = 2, p = 0.5 -> D = 1
    code, stdout, _ = run(capsys, "bound", "--config", str(cfg),
                          "--invert", "0.5", "-T", "0", "--v0", "1")
    assert code == EXIT_OK
    assert json.loads(stdout)["radius"] == pytest.approx(1.0)


def test_bound_invert_rejects_squared(tmp_path, capsys):
    # the inversion has no squared-distance form: refuse, do not ignore
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    code, stdout, stderr = run(capsys, "bound", "--config", str(cfg),
                               "--invert", "0.5", "-T", "0", "--v0", "1",
                               "--squared")
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--squared" in stderr


def test_global_format_flag_removed(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    code, stdout, _ = run(capsys, "--format", "csv", "bound", "--config",
                          str(cfg), "-D", "1", "-T", "0")
    assert code == EXIT_USAGE
    assert stdout == ""


@pytest.mark.parametrize("value", ["2", "0", "-4"])
def test_global_threads_flag_removed(tmp_path, capsys, value):
    """Campaign cells run serially; --threads is an unknown argument (its
    value is then read as the subcommand), not a value accepted and
    ignored."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "type": "swarm_size", "sphere_radius": 100.0,
        "n_pois": 20, "spacecraft_range": [1, 1], "trials": 1,
        "master_seed": 1, "nm_options": {"max_iterations": 2}}))
    outdir = tmp_path / "out"
    code, stdout, stderr = run(capsys, "--threads", value, "-o", str(outdir),
                               "experiment", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "error" in stderr
    assert not outdir.exists()


def test_bound_time_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    code, _, stderr = run(capsys, "bound", "--config", str(cfg),
                          "-D", "1", "-T", "99")
    assert code == EXIT_COMPUTE
    assert "error" in stderr


def test_bound_infeasible_params(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({**BOUND_CFG, "gamma_c": 5.0}))
    code, _, stderr = run(capsys, "bound", "--config", str(cfg), "-D", "1")
    assert code == EXIT_COMPUTE
    assert "infeasible" in stderr


def test_bound_missing_noise(tmp_path, capsys):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({k: v for k, v in BOUND_CFG.items()
                               if k != "noise"}))
    code, _, _ = run(capsys, "bound", "--config", str(cfg), "-D", "1")
    assert code == EXIT_USAGE


def test_experiment_tiny_campaign(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "type": "swarm_size",
        "sphere_radius": 100.0,
        "n_pois": 100,
        "spacecraft_range": [1, 2],
        "trials": 1,
        "master_seed": 5,
        "nm_options": {"max_iterations": 40, "theta_initial_step": 0.5},
    }))
    outdir = tmp_path / "out"
    code, stdout, _ = run(capsys, "-o", str(outdir), "experiment",
                          "--config", str(cfg))
    assert code == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["kind"] == "swarm_size"
    assert len(report["trials"]) == 2
    assert (outdir / "summary.csv").exists()
    assert "swarm_size: 2 trials" in stdout


def test_experiment_seed_override(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "type": "swarm_size",
        "sphere_radius": 100.0,
        "n_pois": 50,
        "spacecraft_range": [1, 1],
        "trials": 1,
        "master_seed": 5,
        "nm_options": {"max_iterations": 20},
    }))
    outs = []
    for seed in ("11", "12"):
        outdir = tmp_path / f"out{seed}"
        code, _, _ = run(capsys, "--seed", seed, "-o", str(outdir),
                         "experiment", "--config", str(cfg))
        assert code == EXIT_OK
        outs.append(json.loads((outdir / "report.json").read_text()))
    assert outs[0]["config"]["master_seed"] == 11
    assert outs[0]["trials"] != outs[1]["trials"]


def test_experiment_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"schema_version": 1, "type": "nope"}))
    code, _, stderr = run(capsys, "experiment", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "error" in stderr


@pytest.mark.parametrize("entry", [{"n_pois": 2.5}, {"trials": 1.5},
                                   {"trials": True}, {"phi": -1.0},
                                   {"nu": 0.0},
                                   {"sphere_radius": float("nan")},
                                   {"kappa_weight": float("inf")},
                                   {"initial_distance_factors": [
                                       float("nan"), 3.0]},
                                   {"sphere_radius": 1e300},
                                   {"initial_distance_factors": [3.0, 1e307]}])
def test_experiment_bad_config_value(tmp_path, capsys, entry):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "type": "swarm_size", "sphere_radius": 100.0,
        "n_pois": 20, "spacecraft_range": [1, 1], "trials": 1,
        "nm_options": {"max_iterations": 2}, **entry}))
    code, stdout, stderr = run(capsys, "-o", str(tmp_path / "out"),
                               "experiment", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert next(iter(entry)) in stderr


@pytest.mark.parametrize("high", [2 ** 63, 10 ** 20])
def test_experiment_distance_range_beyond_int64(tmp_path, capsys, high):
    # the start distance is drawn from [min, max + 1) as an int64
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "type": "view_probability",
        "iso_terminal_position": [0.0, 0.0, 0.0], "sphere_radii": [50.0],
        "trials_per_radius": 1, "n_pois": 20,
        "initial_distance_range": [1, high]}))
    code, stdout, stderr = run(capsys, "-o", str(tmp_path / "out"),
                               "experiment", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "initial_distance_range" in stderr


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("pois_text", [None, "", "# seed=1\nx,y,z\n1,2\n",
                                       "no header\n"] + [
    "# seed=1 radii=1,1,1 center=0,0,0\nx,y,z\n" + rows
    for rows in ("", "  \n", "1,2,3\n4,5\n", "1,a,3\n", "1,2,3,4\n",
                 "1,2,3\n# note\n", "1,2,3 # note\n", "1,2,3\nnan,0,0\n",
                 "inf,1,1\n")])
def test_cost_bad_pois_file_usage_error(tmp_path, capsys, pois_text):
    pois_path = tmp_path / "pois.csv"
    if pois_text is not None:
        pois_path.write_text(pois_text)
    swarm_path = tmp_path / "swarm.json"
    write_swarm(swarm_path, [{"position": [400.0, 0.0, 0.0], "theta": 0.0,
                              "nu": 0.5, "phi": 1.0}])
    code, _, stderr = run(capsys, "cost", "--pois", str(pois_path),
                          "--swarm", str(swarm_path))
    assert code == EXIT_USAGE
    assert str(pois_path) in stderr


@pytest.mark.parametrize("swarm_text", [None, '{"spacecraft": []}',
                                        '{"ellipsoid": {"radii": [1, 1, 1]}}'
                                        ] + [
    '{"ellipsoid": {"radii": [1, 1, 1]}, "spacecraft": [{"position": '
    '[5, 0, 0], "theta": %s, "nu": 0.5, "phi": 1.0}]}' % theta
    for theta in ("NaN", "Infinity")])
def test_optimize_bad_swarm_file_usage_error(tmp_path, capsys, swarm_text):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "10")
    swarm_path = tmp_path / "swarm.json"
    if swarm_text is not None:
        swarm_path.write_text(swarm_text)
    code, _, stderr = run(capsys, "optimize", "--pois", str(pois_path),
                          "--swarm", str(swarm_path))
    assert code == EXIT_USAGE
    assert str(swarm_path) in stderr


def test_global_seed_reaches_sample_pois(tmp_path, capsys):
    paths = {}
    for name, argv in [("global", ["--seed", "5", "sample-pois"]),
                       ("sub", ["sample-pois", "--seed", "5"]),
                       ("default", ["sample-pois"])]:
        paths[name] = tmp_path / f"{name}.csv"
        code, _, _ = run(capsys, "-o", str(paths[name]), *argv, "--n", "3")
        assert code == EXIT_OK
    assert load_pois(paths["global"]).seed == 5
    assert paths["global"].read_bytes() == paths["sub"].read_bytes()
    assert load_pois(paths["default"]).seed == 0


def test_global_seed_reaches_optimize_noise(tmp_path, capsys):
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "100",
        "--radius", "50", "--seed", "2")
    swarm_path = tmp_path / "swarm.json"
    write_swarm(swarm_path, [{"position": [250.0, 100.0, 0.0], "theta": 1.0,
                              "nu": np.pi / 6, "phi": np.pi / 3}])
    outputs = []
    for argv in (["--seed", "5", "optimize"], ["optimize", "--seed", "5"],
                 ["optimize"]):
        code, stdout, _ = run(capsys, *argv, "--pois", str(pois_path),
                              "--swarm", str(swarm_path), "--max-iterations",
                              "5", "--position-stddev", "3",
                              "--mc-samples", "2")
        assert code == EXIT_OK
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]



@pytest.mark.parametrize("command, flags", [
    ("sample-pois", ["--radius", "-5"]),
    ("sample-pois", ["--radius", "nan"]),
    ("sample-pois", ["--radii", "1", "2", "-3"]),
    ("sample-pois", ["--radius", "1e308", "--center", "1.5e308", "0", "0"]),
    ("optimize", ["--position-stddev", "1", "--mc-samples", "0"]),
    ("optimize", ["--position-stddev", "-1"]),
    ("optimize", ["--max-iterations", "-3"]),
    ("cost", ["--kappa-weight", "nan"]),
    ("bound", ["-D", "nan"]),
    ("bound", ["-D", "inf"]),
    ("bound", ["-D", "-1"]),
    ("bound", ["-D", "0"]),
    ("bound", ["-T", "nan"]),
    ("bound", ["--v0", "nan"]),
    ("bound", ["--v0", "-1"]),
    ("bound", ["--invert", "1.5"]),
    ("bound", ["--invert", "0.9", "--v0", "nan"]),
], ids=["radius", "radius-nan", "radii", "extent-overflow", "mc-samples",
        "position-stddev", "max-iterations", "kappa-weight", "distance-nan",
        "distance-inf", "distance-negative", "distance-zero", "time-nan",
        "v0-nan", "v0-negative", "invert", "invert-v0-nan"])
def test_bad_numeric_flag_usage_error(tmp_path, capsys, command, flags):
    """Every input but the one flag is valid (the flag comes last, so it
    wins over a default given here), so the exit code is the flag's: 2,
    not a computation error or a silently ignored value."""
    pois_path = tmp_path / "pois.csv"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "20",
        "--radius", "50")
    swarm_path = tmp_path / "swarm.json"
    write_swarm(swarm_path, [{"position": [250.0, 100.0, 0.0], "theta": 1.0,
                              "nu": np.pi / 6, "phi": np.pi / 3}])
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps(BOUND_CFG))
    inputs = {"sample-pois": ["--n", "10"],
              "bound": ["--config", str(cfg), "-T", "5"],
              "cost": ["--pois", str(pois_path), "--swarm", str(swarm_path)],
              "optimize": ["--pois", str(pois_path), "--swarm",
                           str(swarm_path), "--max-iterations", "2"]}
    code, _, stderr = run(capsys, "-o", str(tmp_path / "out"), command,
                          *inputs[command], *flags)
    assert code == EXIT_USAGE
    assert "error" in stderr


@pytest.mark.parametrize("entry", [
    {"alpha_c": float("nan")}, {"eps_c": float("inf")},
    {"noise": [[0.0, 0.0], [10.0, float("nan")]]},
    {"noise": [[0.0, 0.0], [float("inf"), 0.0]]}],
    ids=["alpha_c-nan", "eps_c-inf", "zeta-nan", "time-inf"])
def test_bound_non_finite_config_usage_error(tmp_path, capsys, entry):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({**BOUND_CFG, **entry}))
    code, _, stderr = run(capsys, "bound", "--config", str(cfg), "-D", "1",
                          "-T", "5")
    assert code == EXIT_USAGE
    assert str(cfg) in stderr


def assert_same_floats(got, want):
    """got (parsed JSON) has want's structure, and each float the same bits."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_floats(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_floats(g, w)
    elif isinstance(want, float):
        assert float(got).hex() == float(want).hex()
    else:
        assert got == want


def test_printed_floats_round_trip_bit_for_bit(tmp_path, capsys):
    pois_path, swarm_path = tmp_path / "pois.csv", tmp_path / "swarm.json"
    run(capsys, "-o", str(pois_path), "sample-pois", "--n", "400",
        "--radius", "80", "--seed", "5")
    write_swarm(swarm_path, [
        {"position": [400.0, 10.0, -3.0], "theta": 0.3, "nu": 0.5, "phi": 1.0},
        {"position": [-300.0, 120.0, 50.0], "theta": 0.6, "nu": 0.4,
         "phi": 1.1},
    ], radius=80.0)
    pois, swarm = load_pois(pois_path), _load_swarm(swarm_path)
    weight = "57.29577951308232"

    code, stdout, _ = run(capsys, "cost", "--pois", str(pois_path),
                          "--swarm", str(swarm_path), "--kappa-weight", weight)
    assert code == EXIT_OK
    want = information_cost(swarm, pois, kappa_weight=float(weight))
    assert want.kappa_total > 0.0
    assert_same_floats(json.loads(stdout), want.to_json_dict())

    code, stdout, _ = run(capsys, "optimize", "--pois", str(pois_path),
                          "--swarm", str(swarm_path), "--max-iterations", "8",
                          "--kappa-weight", weight)
    assert code == EXIT_OK
    best, breakdown, _ = optimize_swarm(
        pois, swarm, NelderMeadOptions(max_iterations=8),
        kappa_weight=float(weight))
    payload = json.loads(stdout)
    assert_same_floats(payload["cost"], breakdown.to_json_dict())
    assert_same_floats(
        [[*p["position"], p["theta"]] for p in payload["spacecraft"]],
        best.state.tolist())

    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({
        **BOUND_CFG, "m_c_lower": 0.5, "m_e_lower": 0.5, "eps_c": 0.02,
        "gamma_c": 0.1, "alpha_s": 0.1,
        "noise": [[0.0, 0.01], [5.0, 0.02], [10.0, 0.01]]}))
    params, noise = bound.load_bound_config(cfg)
    code, stdout, _ = run(capsys, "bound", "--config", str(cfg),
                          "-D", "0.3", "-T", "7.5", "--v0", "0.2", "--squared")
    assert code == EXIT_OK
    want = bound.evaluate_bound(0.3, 7.5, 0.2, params, noise,
                                squared_distance=True)
    assert want.failure_prob_raw > 1.0
    assert_same_floats(json.loads(stdout), want.to_json_dict())
    code, stdout, _ = run(capsys, "bound", "--config", str(cfg),
                          "-T", "3.3", "--v0", "1.5", "--invert", "0.9")
    assert code == EXIT_OK
    assert_same_floats(json.loads(stdout), {
        "target_probability": 0.9,
        "radius": bound.radius_for_success_probability(0.9, 3.3, 1.5, params,
                                                       noise)})
