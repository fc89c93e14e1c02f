"""Golden outputs: fixed-seed results pinned by digest.

Only outputs that do not depend on the CPU are pinned.  A change that
moves one of these digests must edit it here and say why.
"""

import hashlib

from wedgeperm.cli import EXIT_OK, main

# narrow pools (at most 256 slots) list each selected set in key order on
# every CPU, so the table is the same on every machine; a replicate stops
# drawing a family once its decisions are certain, and the table is still
# the whole draw's
SIM1_DESK_30 = "401fd089b0e4da924bd15422e594ee0dc70be2b21a9d8471d8dd8f813198dc57"


def test_sim1_desk_power_table(tmp_path):
    out = tmp_path / "desk30.csv"
    assert main(["simulate", "--preset", "sim1-desk", "--replicates", "30", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIM1_DESK_30
