"""Golden outputs: fixed-seed results pinned by digest.

Only outputs that do not depend on the CPU are pinned: every pool here
has at most 256 slots, and such a pool lists each selected set in key
order on every CPU, or has more than 10 000 slots with at most half of
them treated, and such a pool draws each selected set as slot indices,
listed alike on every CPU, while an exact pool enumerates in
combinations order.  A change that moves one of these digests must
edit it here and say why.
"""

import hashlib
import json

import pytest

from wedgeperm import Sim1Config, gen_outcomes_sim1, write_trial_csv
from wedgeperm.cli import EXIT_OK, main
from wedgeperm.rng import generator

# Simulation I trials, drawn from generator(7) and analyzed at their
# lag: 60 units at lag 1 give Monte-Carlo pools of 24 and 36 slots, 24
# units at lag 1 pools of 8 and 12 slots, which are enumerated, and
# 24 000 units at lag 0 index-sampled pools of 24 000 and 16 000 slots
TRIALS = {
    "narrow": Sim1Config(n_units=60, n_times=5, lag=1, effect=0.3),
    "exact": Sim1Config(n_units=24, n_times=6, lag=1, effect=0.3),
    "index": Sim1Config(n_units=24_000, n_times=3, lag=0, effect=0.01),
}

# sha256 of analyze's stdout, --out and --ci-out at the trial's lag; the
# wide trial only with diff_in_means, as a rank-sum interval would
# gather each test's B x m selections, 61 MiB at m = 8000
ANALYZE = {
    ("narrow", "diff_in_means"): (
        "0fd5b96e63dd1ea847596b81185a1946c5b5c850cc7b6204c67e801add0c987a",
        "657151225c9f266ad3e24b5e6d0795e9bf61cee445d3788257d427584a3f2f1b",
        "b2bac5e5caa97eb2dbad694ab248db937d7fdd2c4a1e0ba23b4bc69a413aabf1",
    ),
    ("narrow", "rank_sum"): (
        "a08ff244c1cc76ad31cf6f20db7a6c3623e59127c58b03221592e9dd7ce770c2",
        "dc90234981ca855d04699aeb9f3ad58ae715b10a08f73cabc4b0fc286487c1f2",
        "e54f9490ffd85e4920d66830ab6adf1173bffa5730e71a9523797fda78e76ecb",
    ),
    ("exact", "diff_in_means"): (
        "47329e276e6314d5e1f5087e8d9eebca9b693d204383add1e93c1d118e79b273",
        "4628c6d463ab894bad8698e05082e55534f8d67d78ac6f15935764d8ccf56816",
        "d98972f8b27e2d3e9766e6fd9ea6a326277ae2255e7d5f7b3ed80165c067d8a9",
    ),
    ("exact", "rank_sum"): (
        "ab2b2233d44e5e7f505745f6064b797590892596b413fb6069c7deb914e2cf1b",
        "e7709c0938ec21afefe7b53d1da3f1d88a4cd4e93507b1bc386e618f3635e258",
        "8452495b86204487cd9febf0147b578c2a6940ef7c129a4dd0075e69e423510f",
    ),
    ("index", "diff_in_means"): (
        "d66571205e7fd8a19906ae2abd571f2696c83724e427e0e2d589329534711ebf",
        "4a9e4236076443079ddf43453d346f6c32024218c767bc169403c42329994371",
        "4d082cae48ad6a630dffb0d27a8e46897374738d33d89480659ad5f5c4dc9664",
    ),
}

# a coverage study with every combiner; pools of at most 40 slots
COVERAGE_CONFIG = {
    "study": "coverage", "n_units": 40, "n_times": 6, "replicates": 3, "lags": [0, 1],
    "methods": ["weighted_z", "fisher", "bonferroni"], "budget": 99,
}
COVERAGE = "a2c6a723055b952d0d629a53c5727ee474135afbca5ed316654a1b58839ca1fc"

# sim1 pools have at most 100 slots; a replicate stops drawing a family
# once its decisions are certain, and the table is still the whole draw's
SIM1_DESK_30 = "401fd089b0e4da924bd15422e594ee0dc70be2b21a9d8471d8dd8f813198dc57"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_trial(directory, name: str):
    """The trial TRIALS[name] as a CSV in ``directory``."""
    path = directory / f"{name}.csv"
    write_trial_csv(path, gen_outcomes_sim1(TRIALS[name], generator(7)))
    return path


def analyze_argv(trial, statistic: str, directory, lag: int = 1) -> list[str]:
    """analyze at ``lag``, writing its tables into ``directory``."""
    return ["analyze", str(trial), "--lag", str(lag), "--statistic", statistic,
            "--out", str(directory / "tests.csv"), "--ci-out", str(directory / "ci.csv")]


def analyze_digests(stdout: bytes, directory) -> tuple[str, str, str]:
    """The digests of a run of analyze_argv(..., directory) that printed ``stdout``."""
    return sha256(stdout), sha256((directory / "tests.csv").read_bytes()), sha256((directory / "ci.csv").read_bytes())


def coverage_argv(directory) -> list[str]:
    """simulate COVERAGE_CONFIG into ``directory``/coverage.csv."""
    config = directory / "coverage.json"
    config.write_text(json.dumps(COVERAGE_CONFIG))
    return ["simulate", "--config", str(config), "--out", str(directory / "coverage.csv")]


@pytest.mark.parametrize("trial, statistic", list(ANALYZE), ids=["-".join(case) for case in ANALYZE])
def test_analyze_outputs(tmp_path, capsys, trial, statistic):
    assert main(analyze_argv(write_trial(tmp_path, trial), statistic, tmp_path, TRIALS[trial].lag)) == EXIT_OK
    assert analyze_digests(capsys.readouterr().out.encode(), tmp_path) == ANALYZE[trial, statistic]


def test_coverage_table(tmp_path, capsys):
    assert main(coverage_argv(tmp_path)) == EXIT_OK
    assert sha256((tmp_path / "coverage.csv").read_bytes()) == COVERAGE


def test_sim1_desk_power_table(tmp_path):
    out = tmp_path / "desk30.csv"
    assert main(["simulate", "--preset", "sim1-desk", "--replicates", "30", "--out", str(out)]) == EXIT_OK
    assert sha256(out.read_bytes()) == SIM1_DESK_30
