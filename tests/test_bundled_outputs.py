"""The bundled campaigns' report.json and summary.csv, byte for byte. A change
to a digest here is a change of those reports, to be named and explained
wherever the change is described."""

import hashlib
import json
from pathlib import Path

import pytest

from isoswarm.cli import EXIT_OK, main
from isoswarm.experiments import load_experiment_config, run_experiment
from tests.conftest import CLOSE_CRAFT, TWO_CRAFT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of report.json and summary.csv per bundled config. experiment1's
# two configs differ only in the ISO position, which shifts reported
# positions but no summary column.
DIGESTS = {
    "experiment1": (
        "62793b678082e0bb73dd6d92664b5ac80b4e1348d4be10df6b530337ee79f0a1",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment1_position2": (
        "17c664191f79c0d074656409d05b386555421679b598e79869b5bf3f6a223291",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment2": (
        "eca28302c991f5df551adeae4524f6e9052d830cb1ca13f8d9ea38dc333d7b7a",
        "2f67833b172cff8a47e1e6f730063eb55ca890292c1a29b5e82f7949010e70b6"),
}


def test_experiment1_differs_from_its_former_pin_in_best_at_only(tmp_path):
    """experiment1's report with each trial's best_at dropped is the report
    pinned before trial records had that field: its theta_tilt search did
    not change."""
    report = run_experiment(load_experiment_config(
        CONFIGS / "experiment1.json"))
    for trial in report.trials:
        del trial["best_at"]
    report.write_json(tmp_path / "report.json")
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()
                          ).hexdigest() == \
        "7c6757a03a965aeb47824438bb04205bdba4de9bf9ff0a28657ef40ee8b47430"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_campaign_outputs_are_pinned(tmp_path, capsys, name):
    assert main(["-o", str(tmp_path), "experiment", "--config",
                 str(CONFIGS / f"{name}.json")]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("report.json", "summary.csv"))
    assert got == DIGESTS[name]


# How `isoswarm optimize` on a swarm of tests/conftest over `sample-pois --n
# 200 --seed 1` ended (its termination and best_at), and the sha256 of its
# -o output. TWO_CRAFT starts on a coverage plateau with its placed
# thetas: the 1 km noise run, a search over positions, stops after one
# iteration, where it started, while the 100 km noise lets it move. The
# deterministic runs search directions: CLOSE_CRAFT starts inside the hold
# distance and is placed at it, TWO_CRAFT keeps its 400 km, and both turn
# to the same directions.
OPTIMIZE_DIGESTS = {
    "deterministic": (
        TWO_CRAFT, ["--max-iterations", "50"], ("f_tol", 8),
        "5b090fd5c590fc57600c9712e81cd68f0b87b42d89e6f1899deede70735987f1"),
    "expected-cost": (
        TWO_CRAFT, ["--position-stddev", "1", "--mc-samples", "3",
                    "--seed", "4"], ("f_tol", 1),
        "4b2ab0216895956d012c6c36d626469527fb60bff851337f80edb65741ec9fed"),
    "expected-cost-wide": (
        TWO_CRAFT, ["--position-stddev", "100", "--mc-samples", "3",
                    "--seed", "4"], ("f_tol", 15),
        "ab37de879c96ff10e57b870fcb3ba528f3d5929009b811b93f17ff3b37fe1efa"),
    "deterministic-close": (
        CLOSE_CRAFT, ["--max-iterations", "50"], ("f_tol", 8),
        "0133c580bb111ca61ca9148dcc2b44451e43776ce2fbad5e18230c4e4e3d5216"),
}


@pytest.mark.parametrize("name", sorted(OPTIMIZE_DIGESTS))
def test_optimize_output_is_pinned(tmp_path, capsys, name):
    template, flags, ended, digest = OPTIMIZE_DIGESTS[name]
    pois, swarm, out = (tmp_path / f for f in ("p.csv", "swarm.json",
                                               "opt.json"))
    assert main(["-o", str(pois), "sample-pois", "--n", "200",
                 "--seed", "1"]) == EXIT_OK
    swarm.write_text(json.dumps(template))
    assert main(["-o", str(out), "optimize", "--pois", str(pois),
                 "--swarm", str(swarm), *flags]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert (payload["termination"], payload["best_at"]) == ended
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
