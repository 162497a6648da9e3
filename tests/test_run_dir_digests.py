"""Serial run directories stay byte-identical (see tests/run_dir_digests.py).

Serial and sharded exports share one writer, so the serial-vs-sharded
diffs cannot catch a change that moves both engines the same way; these
pinned digests can.  The ``trace`` and ``inspect`` reports and the
Perfetto export of the serial runs and of a 2-shard golden run are
pinned the same way.
"""

import json

import pytest

from tests.run_dir_digests import (
    DIGESTS_PATH,
    REPORT_RUNS,
    RUNS,
    report_digests,
    run_digests,
)


@pytest.mark.parametrize("run", RUNS)
def test_run_dir_matches_pinned_digests(run):
    pinned = json.loads(DIGESTS_PATH.read_text())[run]
    assert run_digests(run) == pinned


@pytest.mark.parametrize("run", REPORT_RUNS)
def test_reports_match_pinned_digests(run):
    """``repro trace`` and ``repro inspect`` print the pinned text, and
    ``repro trace --perfetto`` writes the pinned bytes."""
    pinned = json.loads(DIGESTS_PATH.read_text())["reports"][run]
    assert report_digests(run) == pinned
