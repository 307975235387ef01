import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm import experiments
from isoswarm.cost import SpacecraftPose, SwarmConfig, information_cost
from isoswarm.experiments import (ConfigError, ExperimentReport,
                                  SwarmSizeConfig, ViewProbabilityConfig,
                                  _cell_rng, _random_unit, aggregate,
                                  config_from_dict, load_experiment_config,
                                  run_experiment)
from isoswarm.geometry import unit_axis
from isoswarm.neldermead import NelderMeadOptions
from isoswarm.sampling import UncertaintyEllipsoid
from tests.conftest import unculled_mask

NAN, INF = float("nan"), float("inf")
FAST_NM = NelderMeadOptions(theta_initial_step=0.5, max_iterations=60)


def small_view_config(**overrides):
    kw = dict(
        iso_terminal_position=(1.0e6, -2.0e6, 0.5e6),
        sphere_radii=(50.0, 500.0),
        trials_per_radius=3,
        n_pois=200,
        master_seed=7,
        nm_options=FAST_NM,
    )
    kw.update(overrides)
    return ViewProbabilityConfig(**kw)


def small_sweep_config(**overrides):
    kw = dict(
        sphere_radius=100.0,
        n_pois=200,
        spacecraft_range=(1, 3),
        trials=2,
        master_seed=3,
        nm_options=FAST_NM,
    )
    kw.update(overrides)
    return SwarmSizeConfig(**kw)


def test_view_probability_report_shape():
    report = run_experiment(small_view_config())
    assert report.kind == "view_probability"
    assert len(report.trials) == 6
    assert [row["radius"] for row in report.aggregates] == [50.0, 500.0]
    for row in report.aggregates:
        assert row["trials"] == 3
        assert 0.0 <= row["p_pct"] <= 100.0


def test_view_probability_reports_each_radius_as_its_spheres_float():
    # the record reads its radius from the trial's sphere, so a radius
    # written as an integer is reported as the float the sphere holds
    report = run_experiment(small_view_config(sphere_radii=(50, 500)))
    rows = report.trials + report.aggregates
    assert {type(row["radius"]) for row in rows} == {float}
    assert [row["radius"] for row in report.aggregates] == [50.0, 500.0]


def test_view_probability_reproducible():
    a = run_experiment(small_view_config())
    b = run_experiment(small_view_config())
    assert a.trials == b.trials
    assert a.aggregates == b.aggregates


def test_view_probability_seed_changes_trials():
    a = run_experiment(small_view_config())
    b = run_experiment(small_view_config(master_seed=8))
    assert a.trials != b.trials


def test_view_probability_positions_offset_by_iso():
    report = run_experiment(small_view_config())
    iso = np.array([1.0e6, -2.0e6, 0.5e6])
    for t in report.trials:
        np.testing.assert_allclose(
            np.array(t["final_position"]) - np.array(t["final_position_relative"]),
            iso)
        assert np.linalg.norm(t["initial_position"] - iso) == pytest.approx(
            t["initial_distance"])


def test_view_probability_success_flag_recomputable():
    # the un-culled test of the final tilted cone on the center, or on the
    # true position redrawn from the trial's stream after its start
    center = np.zeros(3)
    for criterion in ("center", "sampled_truth"):
        config = small_view_config(success_criterion=criterion)
        flags = []
        for t in run_experiment(config).trials:
            target = center
            if criterion == "sampled_truth":
                r_idx = config.sphere_radii.index(t["radius"])
                rng = _cell_rng(config.master_seed, 1, r_idx, t["trial"], 1)
                lo, hi = config.initial_distance_range
                assert rng.integers(lo, hi + 1) == t["initial_distance"]
                _random_unit(rng)
                assert rng.uniform(0.0, 2.0 * np.pi) == t["initial_theta"]
                target = center + _random_unit(rng) * t["radius"] * (
                    rng.random() ** (1.0 / 3.0))
            apex = np.array(t["final_position_relative"])
            axis = unit_axis(apex.tolist(), center.tolist(), t["final_theta"])
            flags.append(bool(unculled_mask(target[None], apex[None], [axis],
                                            [config.phi], center)[0]))
            assert t["success"] == flags[-1]
        assert True in flags and False in flags


def test_view_probability_coverage_recomputable():
    # per-trial coverage must match an independent recomputation from the
    # recorded poi seed and final pose
    from isoswarm.sampling import sample_pois

    report = run_experiment(small_view_config())
    for t in report.trials:
        e = UncertaintyEllipsoid.sphere(t["radius"])
        pois = sample_pois(e, 200, t["poi_seed"])
        pose = SpacecraftPose(np.array(t["final_position_relative"]),
                              t["final_theta"], np.pi / 6, np.pi / 3)
        b = information_cost(SwarmConfig((pose,), e), pois,
                             orientation_mode="theta_tilt")
        assert t["coverage_pct"] == pytest.approx(b.epsilon_term)


def test_sampled_truth_criterion_runs():
    report = run_experiment(
        small_view_config(success_criterion="sampled_truth"))
    assert all(isinstance(t["success"], bool) for t in report.trials)


def test_guaranteed_success_with_wide_aperture():
    # with an aimed-equivalent tilt impossible, use tiny tilt effect: a huge
    # aperture makes the center visible for any moderate final tilt
    report = run_experiment(small_view_config(
        sphere_radii=(50.0,), phi=3.0, nu=0.05, trials_per_radius=4))
    # theta near 0 or 2 pi gives tilt < phi/2; not guaranteed for all trials,
    # so just check consistency of the aggregate against the flags
    agg = report.aggregates[0]
    assert agg["p_pct"] == pytest.approx(
        100.0 * sum(t["success"] for t in report.trials) / 4)


def test_swarm_size_report_shape():
    report = run_experiment(small_sweep_config())
    assert report.kind == "swarm_size"
    assert len(report.trials) == 6
    assert [r["n_spacecraft"] for r in report.aggregates] == [1, 2, 3]
    for r in report.aggregates:
        assert r["trials"] == 2


def test_swarm_size_reproducible():
    a = run_experiment(small_sweep_config())
    b = run_experiment(small_sweep_config())
    assert a.trials == b.trials
    assert a.aggregates == b.aggregates


def test_swarm_size_shared_pois_within_trial():
    report = run_experiment(small_sweep_config())
    for trial in (0, 1):
        seeds = {t["poi_seed"] for t in report.trials if t["trial"] == trial}
        assert len(seeds) == 1


def test_swarm_size_pose_count_matches_n():
    report = run_experiment(small_sweep_config())
    for t in report.trials:
        assert len(t["final_poses"]) == t["n_spacecraft"]


def test_aggregate_view_probability_arithmetic():
    trials = [
        {"radius": 50.0, "success": True, "coverage_pct": 45.0},
        {"radius": 50.0, "success": True, "coverage_pct": 50.0},
        {"radius": 50.0, "success": False, "coverage_pct": 50.0},
        {"radius": 500.0, "success": False, "coverage_pct": 10.0},
    ]
    report = ExperimentReport("view_probability", {}, trials)
    rows = aggregate(report)
    assert rows[0]["p_pct"] == pytest.approx(200.0 / 3.0)
    assert rows[0]["mean_coverage_pct"] == pytest.approx(145.0 / 3.0)
    assert rows[1]["p_pct"] == 0.0


def test_aggregate_swarm_size_arithmetic():
    trials = [
        {"n_spacecraft": 1, "coverage_pct": 40.0, "minus_info_cost": 40.0},
        {"n_spacecraft": 1, "coverage_pct": 60.0, "minus_info_cost": 50.0},
        {"n_spacecraft": 2, "coverage_pct": 80.0, "minus_info_cost": 70.0},
    ]
    rows = aggregate(ExperimentReport("swarm_size", {}, trials))
    assert rows[0]["mean_coverage_pct"] == 50.0
    assert rows[0]["std_coverage_pct"] == 10.0
    assert rows[0]["mean_minus_info_cost"] == 45.0
    assert rows[1]["mean_coverage_pct"] == 80.0


# Small campaigns of each kind, as parsed from a config file.
SMALL_CONFIGS = {
    "view_probability": {
        "schema_version": 1, "type": "view_probability",
        "iso_terminal_position": [1.0e6, -2.0e6, 0.5e6],
        "sphere_radii": [50.0, 500.0], "trials_per_radius": 2,
        "n_pois": 200, "master_seed": 7, "success_criterion": "sampled_truth",
        "nm_options": {"max_iterations": 60}},
    "swarm_size": {
        "schema_version": 1, "type": "swarm_size", "sphere_radius": 100.0,
        "n_pois": 200, "spacecraft_range": [1, 4], "trials": 1,
        "master_seed": 3, "nm_options": {"max_iterations": 60}},
}


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_campaigns_build_no_pose(kind, monkeypatch):
    """Numbers are checked where they enter: a campaign builds its swarms
    from arrays and writes its records from them, and builds no
    SpacecraftPose (each of which would run the generic field check)."""
    config = config_from_dict(SMALL_CONFIGS[kind])
    calls = []
    check = SpacecraftPose.__post_init__
    monkeypatch.setattr(SpacecraftPose, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    report = run_experiment(config)
    assert calls == [] and report.trials
    SpacecraftPose([300.0, 0.0, 0.0], 0.0, 0.5, 1.0)  # the patch counts
    assert len(calls) == 1


def np_moments(xs):
    """np.mean and np.std of xs, as Python floats."""
    with np.errstate(all="ignore"):  # a square may overflow, as in aggregate
        return float(np.mean(xs)), float(np.std(xs))


def aggregated(xs):
    """aggregate's mean and std of one swarm-size cell holding the values xs
    (and -xs as its second field)."""
    trials = [{"n_spacecraft": 1, "coverage_pct": x, "minus_info_cost": -x}
              for x in xs]
    with np.errstate(all="ignore"):
        row, = aggregate(ExperimentReport("swarm_size", {}, trials))
    names = ("coverage_pct", "minus_info_cost")
    return [row[f"{stat}_{name}"] for name in names for stat in ("mean", "std")]


def assert_moments_bit_for_bit(xs):
    xs = np.array(xs, dtype=float)
    want = [*np_moments(xs), *np_moments(-xs)]
    got = aggregated(xs.tolist())
    assert all(type(v) is float for v in got)
    assert (np.array(got).view(np.uint64).tolist()
            == np.array(want).view(np.uint64).tolist())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1000), st.integers(-300, 300), st.integers(0, 600),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_aggregate_is_np_mean_and_std_bit_for_bit(n, low, spread, zeros,
                                                  seed):
    """Groups of 1-1000 values whose magnitudes span 1e-300 to 1e300, some
    of them -0.0: aggregate's steps give np.mean's and np.std's bits."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + spread, 300), n, endpoint=True)
    xs = rng.standard_normal(n) * 10.0 ** exponents
    xs[rng.random(n) < zeros] = -0.0
    assert_moments_bit_for_bit(xs)


@pytest.mark.parametrize("xs", [
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [1e-300, -1e-300],
    [1e300] * 1000, [-1e300, 1e300, 3e299], [1.0] * 999 + [1e-16],
    list(range(1000))])
def test_aggregate_edge_groups_bit_for_bit(xs):
    assert_moments_bit_for_bit(xs)


def test_aggregate_permutation_invariant():
    report = run_experiment(small_sweep_config())
    shuffled = ExperimentReport("swarm_size", {}, list(reversed(report.trials)))
    assert aggregate(shuffled) == report.aggregates


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate(ExperimentReport("swarm_size", {}, []))


def test_report_files(tmp_path):
    import json as _json
    headers = {
        "swarm_size": "n_spacecraft,trials,mean_coverage_pct,std_coverage_pct,"
                      "mean_minus_info_cost,std_minus_info_cost",
        "view_probability": "radius,trials,p_pct,mean_coverage_pct,"
                            "std_coverage_pct",
    }
    for report in (run_experiment(small_sweep_config()),
                   run_experiment(small_view_config(trials_per_radius=1))):
        jpath, cpath = tmp_path / "report.json", tmp_path / "summary.csv"
        report.write_json(jpath)
        report.write_summary_csv(cpath)
        loaded = _json.loads(jpath.read_text())
        assert list(loaded) == ["kind", "config", "trials", "aggregates"]
        assert loaded["kind"] == report.kind
        assert loaded["trials"] == report.trials
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == headers[report.kind]
        assert len(lines) == 1 + len(report.aggregates)


def test_config_from_dict_round_trip():
    cfg = config_from_dict({
        "schema_version": 1,
        "type": "swarm_size",
        "sphere_radius": 100.0,
        "n_pois": 500,
        "spacecraft_range": [1, 7],
        "trials": 3,
        "master_seed": 0,
        "nm_options": {"max_iterations": 500, "theta_initial_step": 0.5},
    })
    assert isinstance(cfg, SwarmSizeConfig)
    assert cfg.spacecraft_range == (1, 7)
    assert cfg.nm_options.max_iterations == 500


def test_config_from_dict_view_probability():
    cfg = config_from_dict({
        "schema_version": 1,
        "type": "view_probability",
        "iso_terminal_position": [4.1784e7, -9.8402e7, -4.7133e7],
        "sphere_radii": [50.0, 500.0, 1000.0],
        "trials_per_radius": 24,
    })
    assert isinstance(cfg, ViewProbabilityConfig)
    assert cfg.sphere_radii == (50.0, 500.0, 1000.0)


def test_config_rejects_unknown_keys_and_versions():
    base = {"schema_version": 1, "type": "swarm_size",
            "sphere_radius": 100.0, "n_pois": 10}
    with pytest.raises(ConfigError):
        config_from_dict({**base, "schema_version": 2})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "type": "unknown"})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "type": ["swarm_size"]})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "trials": 0})
    # invalid values of the known nm_options keys are cases of
    # test_input_contract.py's property
    for nm in ({"bogus": 1}, {"expansion": 0.9}, {"shrink": 0.5}):
        with pytest.raises(ConfigError, match=next(iter(nm))):
            config_from_dict({**base, "nm_options": nm})


SWARM_BASE = {"schema_version": 1, "type": "swarm_size",
              "sphere_radius": 100.0, "n_pois": 10}
VIEW_BASE = {"schema_version": 1, "type": "view_probability",
             "iso_terminal_position": [0.0, 0.0, 0.0],
             "sphere_radii": [50.0], "trials_per_radius": 2}


@pytest.mark.parametrize("base", [SWARM_BASE, VIEW_BASE],
                         ids=["swarm", "view"])
def test_config_nm_options_keep_the_default_angle_step(base):
    # options that name only a budget take the same angle step as a config
    # without options
    cfg = config_from_dict({**base, "nm_options": {"max_iterations": 60}})
    assert cfg.nm_options.theta_initial_step == 0.5
    assert cfg.nm_options == NelderMeadOptions(max_iterations=60)
    assert config_from_dict(base).nm_options == NelderMeadOptions()


@pytest.mark.parametrize("base, key", [
    (SWARM_BASE, "n_pois"), (SWARM_BASE, "trials"),
    (SWARM_BASE, "master_seed"), (VIEW_BASE, "n_pois"),
    (VIEW_BASE, "trials_per_radius"), (VIEW_BASE, "master_seed")],
    ids=["swarm-n_pois", "swarm-trials", "swarm-master_seed", "view-n_pois",
         "view-trials_per_radius", "view-master_seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_config_rejects_non_integer_counts(base, key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({**base, key: value})


@pytest.mark.parametrize("base", [SWARM_BASE, VIEW_BASE],
                         ids=["swarm", "view"])
@pytest.mark.parametrize("key, value", [
    ("phi", -1.0), ("phi", 0.0), ("phi", np.pi), ("phi", float("nan")),
    ("nu", 0.0), ("nu", -0.5), ("nu", np.pi), ("nu", float("nan"))])
def test_config_rejects_bad_camera_angles(base, key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({**base, key: value})


@pytest.mark.parametrize("base, key, value", [
    (SWARM_BASE, "sphere_radius", NAN), (SWARM_BASE, "sphere_radius", INF),
    (SWARM_BASE, "kappa_weight", NAN), (SWARM_BASE, "kappa_weight", INF),
    (SWARM_BASE, "initial_distance_factors", [NAN, 3.0]),
    (SWARM_BASE, "initial_distance_factors", [6.0, 3.0]),
    (SWARM_BASE, "initial_distance_factors", [0.0, 0.0]),
    # every start would lie within the degeneracy radius of the center
    (SWARM_BASE, "sphere_radius", 1e-9),
    (VIEW_BASE, "sphere_radii", []), (VIEW_BASE, "sphere_radii", [NAN]),
    (VIEW_BASE, "sphere_radii", [50.0, 0.0]),
    (VIEW_BASE, "sphere_radii", [-50.0]),
    (VIEW_BASE, "iso_terminal_position", [NAN, 0.0, 0.0]),
    (VIEW_BASE, "iso_terminal_position", [0.0, 0.0]),
    (VIEW_BASE, "initial_distance_range", [0, 600])],
    ids=["sphere_radius-nan", "sphere_radius-inf", "kappa_weight-nan",
         "kappa_weight-inf", "factors-nan", "factors-reversed", "factors-zero",
         "sphere_radius-degenerate",
         "sphere_radii-empty", "sphere_radii-nan", "sphere_radii-zero",
         "sphere_radii-negative", "iso_position-nan", "iso_position-2d",
         "distance_range-low-0"])
def test_config_rejects_bad_values(base, key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({**base, key: value})


def test_load_experiment_config(tmp_path):
    import json as _json

    path = tmp_path / "cfg.json"
    path.write_text(_json.dumps({
        "schema_version": 1, "type": "swarm_size",
        "sphere_radius": 100.0, "n_pois": 10,
    }))
    cfg = load_experiment_config(path)
    assert cfg.sphere_radius == 100.0


@pytest.mark.parametrize("config", [
    small_view_config(sphere_radii=(50.0,), trials_per_radius=1),
    small_sweep_config(trials=1, spacecraft_range=(1, 1))],
    ids=["view_probability", "swarm_size"])
def test_run_experiment_dispatch(config):
    # the config class names its kind; the report, the config parser and the
    # summary all key on it
    report = run_experiment(config)
    assert report.kind == config.kind
    assert report.aggregates == aggregate(report)
    base = SWARM_BASE if config.kind == "swarm_size" else VIEW_BASE
    assert base["type"] == config.kind
    assert type(config_from_dict(base)) is type(config)
    with pytest.raises(ConfigError):
        run_experiment(object())
    with pytest.raises(ValueError, match="unknown report kind"):
        aggregate(ExperimentReport("unknown", {}, report.trials))


@pytest.mark.parametrize("config", [
    small_view_config(sphere_radii=(50.0,), trials_per_radius=2),
    small_sweep_config(trials=1)], ids=["view_probability", "swarm_size"])
def test_records_say_how_each_search_ended(monkeypatch, config):
    results, optimize = [], experiments.optimize_swarm

    def spy(*args, **kwargs):
        out = optimize(*args, **kwargs)
        results.append(out[2])
        return out

    monkeypatch.setattr(experiments, "optimize_swarm", spy)
    trials = run_experiment(config).trials
    assert len(trials) == len(results)
    for trial, result in zip(trials, results):
        assert (trial["evaluations"], trial["iterations"],
                trial["termination"], trial["shrinks"],
                trial["final_diameter"]) == (
            result.evaluation_count, result.iterations, result.termination,
            result.shrinks, result.final_diameter)


@pytest.mark.parametrize("threads", [0, -2])
def test_run_experiment_rejects_threads_below_one(threads):
    with pytest.raises(ConfigError, match="threads"):
        run_experiment(small_sweep_config(trials=1, spacecraft_range=(1, 1)),
                       threads=threads)


def test_run_experiment_threads_warns_and_runs_serially():
    config = small_sweep_config(trials=1, spacecraft_range=(1, 2))
    serial = run_experiment(config)
    with pytest.warns(DeprecationWarning, match="serially"):
        report = run_experiment(config, threads=2)
    assert report.trials == serial.trials


def test_random_unit_is_the_plain_root_bit_for_bit():
    """Start directions divide by sqrt(x*x + y*y + z*z), whose bits do not
    depend on the BLAS kernel behind np.linalg.norm."""
    rng = np.random.default_rng(11)
    got = np.array([_random_unit(rng) for _ in range(10_000)])
    v = np.random.default_rng(11).standard_normal((10_000, 3))
    x, y, z = v.T
    want = v / np.sqrt(x * x + y * y + z * z)[:, None]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
