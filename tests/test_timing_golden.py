"""Differential timing check against golden data from the per-word bus engine.

``timing_worlds.py`` defines a seeded grid of small boards and records,
for each, every timing-visible result.  The golden file holds what the
per-word engine (one event per bus cycle and per user-clock edge, and per
configuration-port word) recorded for the same grid; the current engine must reproduce every entry
exactly, including same-picosecond order in the trace and interrupt log.
"""

import json

import pytest
from timing_worlds import GOLDEN_PATH, all_worlds

GOLDEN = json.loads(GOLDEN_PATH.read_text())
WORLDS = all_worlds()


def test_golden_covers_every_world():
    assert [name for name, _run in WORLDS] == list(GOLDEN)
    assert len(GOLDEN) >= 100


@pytest.mark.parametrize("name,run", WORLDS, ids=[name for name, _run in WORLDS])
def test_world_matches_golden(name, run):
    got = json.loads(json.dumps(run()))   # same tuple/list normalisation as the file
    want = GOLDEN[name]
    for key in want:
        assert got.get(key) == want[key], f"{name}: {key} differs"
    assert sorted(got) == sorted(want)
