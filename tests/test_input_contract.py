"""The input contract as a property: every field of a campaign config, of its
nm_options, of a bound config and of a swarm file, replaced in turn by each
of VALUES, makes `isoswarm` exit 0 (the value is valid) or 2 with the key
named on stderr. It never exits 1 (an uncaught exception fails the test
here), and exits 3 only where the README's contract lists a computation
that cannot be done."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoswarm
from isoswarm.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, main
from isoswarm.experiments import config_from_dict
from tests.conftest import TWO_CRAFT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

NAN, INF = float("nan"), float("inf")
VALUES = [None, True, "1", [], {}, NAN, INF, -1, 0, 0.5, 1e308, 2 ** 63,
          5e-324, 1e-300]

# One trial on 20 POIs with a 5-iteration budget: a run takes milliseconds.
SWARM = {"schema_version": 1, "type": "swarm_size", "sphere_radius": 100.0,
         "n_pois": 20, "spacecraft_range": [1, 2], "trials": 1,
         "master_seed": 3, "phi": 1.0, "nu": 0.5, "kappa_weight": 1.0,
         "initial_distance_factors": [3.0, 6.0],
         "nm_options": {"f_tolerance": 1e-8, "x_tolerance": 1e-8,
                        "max_iterations": 5, "theta_initial_step": 0.5}}
VIEW = {"schema_version": 1, "type": "view_probability",
        "iso_terminal_position": [10.0, 0.0, 0.0], "sphere_radii": [50.0],
        "trials_per_radius": 1, "initial_distance_range": [100, 600],
        "n_pois": 20, "master_seed": 3, "phi": 1.0, "nu": 0.5,
        "success_criterion": "center", "nm_options": {"max_iterations": 5}}
BOUND = {"alpha_c": 1.0, "alpha_e": 1.0, "m_c_lower": 1.0, "m_c_upper": 1.0,
         "m_e_lower": 1.0, "m_e_upper": 1.0, "eps_c": 0.01, "eps_e": 0.1,
         "g_bar": 1.0, "u_bar": 0.0, "h_bar": 1.0, "ell_bar": 1.0,
         "gamma_c": 0.2, "lam": 1.0, "alpha_s": 0.5,
         "noise": [[0.0, 0.01], [10.0, 0.02]]}
CRAFT = {"position": [250.0, 100.0, 0.0], "theta": 1.0, "nu": 0.5, "phi": 1.0}
ELLIPSOID = {"center": [0.0, 0.0, 0.0], "radii": [50.0, 50.0, 50.0]}

# Values that must exit 2 besides bools, strings, NaN and the infinities,
# which no field takes: counts below 1 or not integers, negative tolerances
# and a theta_initial_step that is not positive, null included.
REJECT = {"max_iterations": (0, -1, 0.5, 1e308), "n_pois": (0, -1, 0.5, None),
          "trials": (0, -1, 0.5, None), "trials_per_radius": (0, -1, 0.5),
          "f_tolerance": (-1, None), "x_tolerance": (-1, None),
          "theta_initial_step": (0, -1, None), "master_seed": (-1, 0.5),
          "phi": (0, -1), "nu": (0, -1),
          "sphere_radius": (0, -1, 1e308, 5e-324, 1e-300),
          "sphere_radii": (1e308,)}

# At 2^63 these counts are valid, but that many cells would run for ever,
# so such a config is only parsed.
PARSE_ONLY = ("trials", "trials_per_radius")


def run(capsys, tmp_path, *argv):
    code = main(["-o", str(tmp_path / "out"), *argv])
    return code, capsys.readouterr().err


def check(code, stderr, key, value, compute=()):
    """The contract for one run of an input with key set to value; compute
    lists the texts an allowed exit 3 may carry."""
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_COMPUTE), (key, value, code)
    if code == EXIT_USAGE:
        assert key in stderr, (key, value, stderr)
    elif code == EXIT_COMPUTE:
        assert any(text in stderr for text in compute), (key, value, stderr)
    if code == EXIT_OK:
        invalid = (isinstance(value, (bool, str)) or value != value
                   or value in (INF, -INF))
        assert not invalid and value not in REJECT.get(key, ()), (key, value)


def replacements(base, key):
    """(value, the input with key's value replaced by it) for each of VALUES
    as the whole value and, for a list, as each of its entries."""
    for value in VALUES:
        yield value, {**base, key: value}
        if isinstance(base[key], list):
            for i in range(len(base[key])):
                entries = list(base[key])
                entries[i] = value
                yield value, {**base, key: entries}


def campaign_cases():
    for base in (SWARM, VIEW):
        for key in base:
            if key != "type":
                yield pytest.param(base, key, id=f"{base['type']}-{key}")
    for key in SWARM["nm_options"]:
        yield pytest.param(None, key, id=f"nm_options-{key}")


@pytest.mark.parametrize("base, key", campaign_cases())
def test_campaign_config_field_contract(tmp_path, capsys, base, key):
    nested = base is None
    options = SWARM["nm_options"]
    for value, replaced in replacements(options if nested else base, key):
        config = {**SWARM, "nm_options": replaced} if nested else replaced
        if value == 2 ** 63 and key in PARSE_ONLY:
            config_from_dict(config)
            continue
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code, stderr = run(capsys, tmp_path, "experiment", "--config",
                           str(path))
        # 2^63 POIs cannot be allocated, and the config is otherwise valid
        compute = ("allocate", "dimension") if key == "n_pois" else ()
        check(code, stderr, key, value, compute)


def test_schema_version_takes_no_float(tmp_path, capsys):
    # 1.0 equals 1, but the schema version is an int field
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**SWARM, "schema_version": 1.0}))
    code, stderr = run(capsys, tmp_path, "experiment", "--config", str(path))
    assert code == EXIT_USAGE
    assert "schema_version" in stderr


@pytest.mark.parametrize("config, key", [
    # the POIs' squared distances from the center would overflow, and their
    # coverage would be uncertified
    ({**VIEW, "sphere_radii": [50.0, 1e308]}, "sphere_radii"),
    # four wide arcs can overlap by more than 1.8 rad in all, and w times
    # that overflows: the objective would be inf (exit 3) mid-campaign
    ({**SWARM, "spacecraft_range": [4, 4], "nu": 1.0, "kappa_weight": 1e308},
     "kappa_weight")], ids=["sphere_radii", "kappa_weight"])
def test_config_whose_products_overflow(tmp_path, capsys, config, key):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, stderr = run(capsys, tmp_path, "experiment", "--config", str(path))
    assert code == EXIT_USAGE
    assert key in stderr


@pytest.mark.parametrize("key", [k for k in BOUND if k != "noise"])
def test_bound_config_field_contract(tmp_path, capsys, key):
    for value, replaced in replacements(BOUND, key):
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(replaced))
        code, stderr = run(capsys, tmp_path, "bound", "--config", str(path),
                           "-D", "10", "-T", "5")
        # the rate-matrix condition fails, or the bound's numerator (its
        # steady offset or its noise integral) overflows a float
        check(code, stderr, key, value, ("infeasible", "out of range"))


@pytest.mark.parametrize("key", [*CRAFT, *ELLIPSOID])
def test_swarm_file_field_contract(tmp_path, capsys, key):
    pois = tmp_path / "pois.csv"
    main(["-o", str(pois), "sample-pois", "--n", "20", "--radius", "50"])
    capsys.readouterr()
    craft = key in CRAFT
    for value, replaced in replacements(CRAFT if craft else ELLIPSOID, key):
        path = tmp_path / "swarm.json"
        path.write_text(json.dumps({
            "ellipsoid": ELLIPSOID if craft else replaced,
            "spacecraft": [replaced if craft else CRAFT]}))
        code, stderr = run(capsys, tmp_path, "cost", "--pois", str(pois),
                           "--swarm", str(path))
        # an apex whose distance from the center overflows has no axis
        check(code, stderr, key, value, ("cone apex",))


@pytest.mark.parametrize("command, text", [
    ("bound", '"abc"'), ("bound", "5"), ("experiment", '"abc"'),
    ("cost", '{"ellipsoid": [1, 2], "spacecraft": []}'),
    ("cost", '{"ellipsoid": {"radii": [1, 1, 1]}, "spacecraft": [5]}')],
    ids=["bound-string", "bound-number", "experiment-string",
         "swarm-ellipsoid-list", "swarm-spacecraft-number"])
def test_input_file_of_the_wrong_shape(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    pois = tmp_path / "pois.csv"
    main(["-o", str(pois), "sample-pois", "--n", "20"])
    flags = {"bound": ["--config", str(path)],
             "experiment": ["--config", str(path)],
             "cost": ["--pois", str(pois), "--swarm", str(path)]}[command]
    capsys.readouterr()
    code, stderr = run(capsys, tmp_path, command, *flags)
    assert code == EXIT_USAGE
    assert str(path) in stderr


# The flag contract: every subcommand flag that takes a value, set to each of
# FLAG_VALUES (as --flag=value, or in each slot of a three-value flag), on a
# 200-POI file and TWO_CRAFT.
FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "1e308", str(2 ** 63),
               "true", "", "5e-324", "1e-300"]
BOUND_CONFIG = str(CONFIGS / "bound_example.json")

# The README's computation errors: infeasible parameters, a time outside the
# noise history, a bound numerator that overflows, a cone apex at or too far
# from the center, and arrays too large to allocate.
COMPUTE = ("infeasible", "noise history", "out of range", "cone apex",
           "allocate", "too big", "dimension")

# Values that must exit 2 besides nan, the infinities, true and "", which no
# flag takes.
COUNT, SEED = ("0", "-1", "0.5", "1e308"), ("-1", "0.5", "1e308")
FLAG_REJECT = {"--n": COUNT, "--max-iterations": COUNT, "--mc-samples": COUNT,
               "--seed": SEED, "--radius": ("0", "-1"), "--radii": ("0", "-1"),
               "--position-stddev": ("-1", "1e308"), "-D": ("0", "-1"),
               "--v0": ("-1",), "--kappa-weight": ("1e308",),
               "--invert": ("0", "-1", "1e308", str(2 ** 63))}

# (id, argv with the flag's arguments in place of FLAG, the flag, its number
# of values); a store flag given twice takes its last value, so the argv may
# set the flag too.
FLAG = "{flag}"
FLAGS = [
    ("global", [FLAG, "sample-pois", "--n", "20"], "--seed", 1),
    *(("sample-pois", ["sample-pois", "--n", "20", FLAG], flag, nargs)
      for flag, nargs in (("--n", 1), ("--radius", 1), ("--radii", 3),
                          ("--center", 3), ("--seed", 1))),
    ("cost", ["cost", "--pois", "{pois}", "--swarm", "{swarm}", FLAG],
     "--kappa-weight", 1),
    *(("optimize", ["optimize", "--pois", "{pois}", "--swarm", "{swarm}",
                    "--max-iterations", "5", FLAG], flag, 1)
      for flag in ("--kappa-weight", "--max-iterations", "--position-stddev")),
    *(("optimize-noisy", ["optimize", "--pois", "{pois}", "--swarm", "{swarm}",
                          "--max-iterations", "5", "--position-stddev", "1",
                          "--mc-samples", "2", FLAG], flag, 1)
      for flag in ("--mc-samples", "--seed")),
    *(("bound", ["bound", "--config", BOUND_CONFIG, "-T", "5", FLAG], flag, 1)
      for flag in ("-D", "-T", "--v0", "--invert")),
]


def flag_argvs(flag, nargs):
    """(value, the flag's arguments) for each of FLAG_VALUES: --flag=value,
    or the value in each slot of a flag of nargs values (50 in the others)."""
    for value in FLAG_VALUES:
        if nargs == 1:
            yield value, [f"{flag}={value}"]
            continue
        for slot in range(nargs):
            values = ["50"] * nargs
            values[slot] = value
            yield value, [flag, *values]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_subprocess(argv):
    """(exit code, stdout, stderr) of `isoswarm` in a fresh interpreter; a
    run past 10 s fails the test."""
    src = str(Path(isoswarm.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "isoswarm.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    pois = root / "pois.csv"
    assert main(["-o", str(pois), "sample-pois", "--n", "200",
                 "--seed", "1"]) == EXIT_OK
    swarm = root / "swarm.json"
    swarm.write_text(json.dumps(TWO_CRAFT))
    return {"pois": str(pois), "swarm": str(swarm)}


@pytest.mark.parametrize("template, flag, nargs",
                         [pytest.param(template, flag, nargs,
                                       id=f"{name}{flag}")
                          for name, template, flag, nargs in FLAGS])
def test_command_line_flag_contract(tmp_path, capsys, flag_inputs, template,
                                    flag, nargs):
    """Exit 0, or 2 with the flag named on stderr, or 3 for a computation
    error of the README's list; never 1. What cost, optimize and bound print
    on exit 0 is JSON without NaN or Infinity."""
    for value, args in flag_argvs(flag, nargs):
        argv = ["-o", str(tmp_path / "out")]
        for arg in template:
            argv += args if arg == FLAG else [arg.format(**flag_inputs)]
        if flag == "--mc-samples" and value == str(2 ** 63):
            # 2^63 samples of noise cannot be allocated: exit 3 at once
            code, out, err = run_subprocess(argv)
        else:
            code = main(argv)
            out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_COMPUTE), (argv, code, err)
        if code == EXIT_USAGE:
            assert flag in err, (argv, err)
        elif code == EXIT_COMPUTE:
            assert any(text in err for text in COMPUTE), (argv, err)
        else:
            assert value not in ("nan", "inf", "-inf", "true", "") and \
                value not in FLAG_REJECT.get(flag, ()), argv
            if template[0] in ("cost", "optimize", "bound"):
                json.loads(out, parse_constant=reject_constant)
