"""Serial run directories stay byte-identical (see tests/run_dir_digests.py).

Serial and sharded exports share one writer, so the serial-vs-sharded
diffs cannot catch a change that moves both engines the same way; these
pinned digests can.
"""

import json

import pytest

from tests.run_dir_digests import DIGESTS_PATH, RUNS, run_digests


@pytest.mark.parametrize("run", RUNS)
def test_run_dir_matches_pinned_digests(run):
    pinned = json.loads(DIGESTS_PATH.read_text())[run]
    assert run_digests(run) == pinned
