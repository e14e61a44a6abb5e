"""Differential check of the fast paths against the tree's own per-word paths.

Each example draws a world family of ``timing_worlds`` and an index beyond
the golden grid and the ``--diff`` range, runs the world as it is and again
with every fast path switched off: no steady-state jumps, no stretches of
the configuration controller or the kernel host, no quiet runs of the bus
engines.  Both runs must give the same results, trace bytes included.
"""

import pytest
import timing_worlds as tw
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proteus_sim.board import DmaEngine, SteadyState
from proteus_sim.kernels import KernelHost
from proteus_sim.selectmap import SelectMapController

# A pair of runs takes about 0.01 s for register and poker worlds, at most
# 0.35 s for stretch, stream, quiet and tie worlds, at most 1.2 s for a phase
# world, and 0.1 to 4 s for a period world; so period worlds are drawn half as
# often as each other family.
CHEAP = [tw._spec, tw._poker_spec, tw._stretch_spec, tw._stream_spec, tw._quiet_spec,
         tw._tie_spec, tw._phase_spec]
FAMILIES = CHEAP * 2 + [tw._period_spec]


def run_per_word(spec: dict) -> dict:
    """``run_register_world`` with every fast path switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SteadyState, "at_burst_end", lambda self, txn, state: None)
        mp.setattr(SelectMapController, "_stretch", lambda self, t, job, configuring: 0)
        mp.setattr(KernelHost, "_stretch", lambda self, t, kernel: False)
        mp.setattr(DmaEngine, "run_sink", lambda self, data: 0)
        mp.setattr(DmaEngine, "run_source", lambda self, count: b"")
        return tw.run_register_world(spec)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), index=st.integers(min_value=10_000, max_value=10**9))
# Differs without the kernel host's last edge in the steady state's signature.
@example(family=tw._period_spec, index=444043079)
# Differ if a match whose kernel phase differs jumps over a burst end at which
# the kernel was awake, or if an awake kernel's phase leaves the signature.
@example(family=tw._stream_spec, index=912475478)
@example(family=tw._tie_spec, index=511224473)
def test_fast_paths_match_the_per_word_paths(family, index):
    spec = family(index)
    assert tw.run_register_world(spec) == run_per_word(spec)
