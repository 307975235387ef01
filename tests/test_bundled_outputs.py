"""The bundled campaigns' report.json and summary.csv, byte for byte. A change
to a digest here is a change of those reports, to be named and explained
wherever the change is described."""

import hashlib
import json
from pathlib import Path

import pytest

from isoswarm.cli import EXIT_OK, main
from tests.conftest import TWO_CRAFT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of report.json and summary.csv per bundled config. experiment1's
# two configs differ only in the ISO position, which shifts reported
# positions but no summary column.
DIGESTS = {
    "experiment1": (
        "615c540ddc688e87a5705ed05b1cc5070065367551ef252e9f131ada3bfbcd38",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment1_position2": (
        "4bc73b0c54e41315e2bab7d9a871fcd4e7f1d18211263e1f4adff96fec50b8b1",
        "44fff76fabab7b53aee7ec4d718e8510b02c8e1a921f92a078a31fd28b190381"),
    "experiment2": (
        "bbb8100cd6ae711550a303545f629c849b9d5307d1330510c8890c593bfa1fb9",
        "58a18d8b3be90a475a998ddcb5a169f1e3647746d0224bd9ceaaa5b188e35390"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_campaign_outputs_are_pinned(tmp_path, capsys, name):
    assert main(["-o", str(tmp_path), "experiment", "--config",
                 str(CONFIGS / f"{name}.json")]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("report.json", "summary.csv"))
    assert got == DIGESTS[name]


# sha256 of the -o output of `isoswarm optimize` on TWO_CRAFT over
# `sample-pois --n 200 --seed 1`. At a 1 km noise the expected-cost run ends
# where the deterministic one does; at 100 km its search takes another path.
OPTIMIZE_DIGESTS = {
    "deterministic": (
        ["--max-iterations", "50"],
        "30513e538ff6322ceb703b136881903aefa803e91513f06467c59dc18cb15a53"),
    "expected-cost": (
        ["--position-stddev", "1", "--mc-samples", "3", "--seed", "4"],
        "30513e538ff6322ceb703b136881903aefa803e91513f06467c59dc18cb15a53"),
    "expected-cost-wide": (
        ["--position-stddev", "100", "--mc-samples", "3", "--seed", "4"],
        "36a0959949c41072973c91d228af37d11a8145726eda1baec8943a32153f29cf"),
}


@pytest.mark.parametrize("name", sorted(OPTIMIZE_DIGESTS))
def test_optimize_output_is_pinned(tmp_path, capsys, name):
    flags, digest = OPTIMIZE_DIGESTS[name]
    pois, swarm, out = (tmp_path / f for f in ("p.csv", "swarm.json",
                                               "opt.json"))
    assert main(["-o", str(pois), "sample-pois", "--n", "200",
                 "--seed", "1"]) == EXIT_OK
    swarm.write_text(json.dumps(TWO_CRAFT))
    assert main(["-o", str(out), "optimize", "--pois", str(pois),
                 "--swarm", str(swarm), *flags]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
