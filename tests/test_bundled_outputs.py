"""The bundled campaigns' report.json and summary.csv, byte for byte. A change
to a digest here is a change of those reports, to be named and explained
wherever the change is described."""

import hashlib
import json
from pathlib import Path

import pytest

from isoswarm.cli import EXIT_OK, main
from tests.conftest import CLOSE_CRAFT, TWO_CRAFT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of report.json and summary.csv per bundled config. experiment1's
# two configs differ only in the ISO position, which shifts reported
# positions but no summary column.
DIGESTS = {
    "experiment1": (
        "7c6757a03a965aeb47824438bb04205bdba4de9bf9ff0a28657ef40ee8b47430",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment1_position2": (
        "6dd58afa13d28afb849c4673121f607db7494ab5734e3a9cbf38d6107aa39668",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment2": (
        "dcaa1acfba8c2fb671c29bd48c4a652ae8fdf2c9fef26f36e7ff90df85497527",
        "0adf26fa27dec031ef8675a48906a9660e105a8c2be228204117652689f73e58"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_campaign_outputs_are_pinned(tmp_path, capsys, name):
    assert main(["-o", str(tmp_path), "experiment", "--config",
                 str(CONFIGS / f"{name}.json")]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("report.json", "summary.csv"))
    assert got == DIGESTS[name]


# sha256 of the -o output of `isoswarm optimize` on a swarm of tests/conftest
# over `sample-pois --n 200 --seed 1`. TWO_CRAFT starts on a coverage
# plateau with its placed thetas: the deterministic and 1 km noise runs stop
# after one iteration, where they started, while the 100 km noise lets the
# search move. CLOSE_CRAFT starts inside the hold distance and moves out.
OPTIMIZE_DIGESTS = {
    "deterministic": (
        TWO_CRAFT, ["--max-iterations", "50"],
        "a57349448c2697249ee2b607c771849ba16525722989ec6ba8f55799a9c49002"),
    "expected-cost": (
        TWO_CRAFT, ["--position-stddev", "1", "--mc-samples", "3",
                    "--seed", "4"],
        "a57349448c2697249ee2b607c771849ba16525722989ec6ba8f55799a9c49002"),
    "expected-cost-wide": (
        TWO_CRAFT, ["--position-stddev", "100", "--mc-samples", "3",
                    "--seed", "4"],
        "9ae0cd8cc647ed0f5d08ef8a85afadb5c4cf5bbf4c274cdf40f589828473416f"),
    "deterministic-close": (
        CLOSE_CRAFT, ["--max-iterations", "50"],
        "1bc115d45ea7f75ee09adf0e16c34b6cb524cdfdf1cc104666c1c12bb93f1dee"),
}


@pytest.mark.parametrize("name", sorted(OPTIMIZE_DIGESTS))
def test_optimize_output_is_pinned(tmp_path, capsys, name):
    template, flags, digest = OPTIMIZE_DIGESTS[name]
    pois, swarm, out = (tmp_path / f for f in ("p.csv", "swarm.json",
                                               "opt.json"))
    assert main(["-o", str(pois), "sample-pois", "--n", "200",
                 "--seed", "1"]) == EXIT_OK
    swarm.write_text(json.dumps(template))
    assert main(["-o", str(out), "optimize", "--pois", str(pois),
                 "--swarm", str(swarm), *flags]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
