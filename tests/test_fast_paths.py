"""Differential check of the fast paths against the tree's own per-word paths.

Each example draws a world family of ``timing_worlds`` and an index beyond
the golden grid and the ``--diff`` range, runs the world as it is and again
with every fast path switched off: no steady-state jumps, no stretches of
the configuration controller or the kernel host, no quiet runs of the bus
engines.  Both runs must give the same results, trace bytes included, and
the same state at every burst end both see (``assert_same_states``).
"""

from contextlib import contextmanager

import pytest
import timing_worlds as tw
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proteus_sim.board import DmaEngine, SteadyState
from proteus_sim.kernels import KernelHost
from proteus_sim.selectmap import SelectMapController

# A pair of runs takes about 0.01 s for register, poker and nested worlds, at
# most 0.35 s for stretch, stream, quiet and tie worlds, at most 0.5 s for a
# stallper world, at most 1.2 s for a phase world, and 0.1 to 4 s for a period
# world; so period worlds are drawn half as often as each other family.
CHEAP = [tw._spec, tw._poker_spec, tw._stretch_spec, tw._stream_spec, tw._quiet_spec,
         tw._tie_spec, tw._phase_spec, tw._nested_spec, tw._stallper_spec]
FAMILIES = CHEAP * 2 + [tw._period_spec]


@contextmanager
def recording_states(jumps=True):
    """Record the state after every burst end of the worlds run inside, by
    time: the steady state's signature, the kernel's exact terms and
    ``stirred``; and the landings of drifting jumps (``SteadyState.drifts``).
    Without ``jumps`` the steady state never jumps.  Yields (states,
    landings)."""
    states, drifts = {}, set()
    at_burst_end, jump = SteadyState.at_burst_end, SteadyState._jump

    def recording(self):
        at_burst_end(self)
        states[self.sim.now] = (*self.signature(), self.stirred)

    def jumping(self, period, now, start, across, terms):
        if not jump(self, period, now, start, across, terms):
            return False
        if self.drifts(period, terms):
            drifts.add(self.sim.now)
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SteadyState, "at_burst_end", recording)
        mp.setattr(SteadyState, "_jump", jumping if jumps else lambda self, *args: False)
        yield states, drifts


def assert_same_states(jumped, drifts, walked):
    """Every burst end of the jumped run is one of the run without jumps,
    with the same signature, kernel terms and ``stirred``.  After a landing
    in ``drifts`` the kernel host keeps the phase of the run that proved the
    period (``SteadyState``): its part of the signature, its terms and
    ``stirred`` may differ until the first burst end at which either run's
    kernel host is not quiescent, and from there on they agree."""
    drifting = False
    for t in sorted(jumped):
        assert t in walked, f"burst end at {t} ps not in the run without jumps"
        (sig, terms, stirred), (want, want_terms, want_stirred) = jumped[t], walked[t]
        assert sig[:1] + sig[2:] == want[:1] + want[2:], f"at {t} ps"
        if t in drifts:
            drifting = True
        elif not (drifting and sig[1][2] is None and want[1][2] is None):
            drifting = False
            assert (sig[1], terms, stirred) == (want[1], want_terms, want_stirred), f"at {t} ps"


def run_per_word(spec: dict):
    """``run_register_world`` with every fast path switched off, recording
    its states (``recording_states``); returns its results and states."""
    with recording_states(jumps=False) as (states, _drifts), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(SelectMapController, "_stretch", lambda self, t, job, configuring: 0)
        mp.setattr(KernelHost, "_stretch", lambda self, t, kernel: False)
        mp.setattr(DmaEngine, "run_sink", lambda self, data: 0)
        mp.setattr(DmaEngine, "run_source", lambda self, count: b"")
        return tw.run_register_world(spec), states


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), index=st.integers(min_value=10_000, max_value=10**9))
# Differs without the kernel host's last edge in the steady state's signature.
@example(family=tw._period_spec, index=444043079)
# Differ if a match whose kernel phase differs jumps over a burst end at which
# the kernel was awake, or if an awake kernel's phase leaves the signature.
@example(family=tw._stream_spec, index=912475478)
@example(family=tw._tie_spec, index=511224473)
# Jumps across stall windows; differs without the check that the windows
# repeat, with that check a period shorter (which leaves out the lattice point
# of the burst end a jump lands on), or if a window added at a stop, opening
# before it, leaves the cross-window snapshots in place.
@example(family=tw._stallper_spec, index=10235)
# Differ if a learned period replays without the kernel rule (equal kernel
# terms, or a kernel asleep throughout the period and now).  The first also
# fails the state check if an awake kernel's last edge, which its next step
# sets before anything reads it and which a stretch leaves stale, is in its
# terms.
@example(family=tw._stream_spec, index=10662)
@example(family=tw._tie_spec, index=10084)
# Fails if a device-bound engine's cap is min(4 * capacity, max_burst) - 4:
# a jump then carries the controller past its payload's end.
@example(family=tw._spec, index=10015)
# Fail if learned periods outlive register writes while the controller's
# bytes done count only up to the header's end: a period learned in one job
# then replays over a later job's first payload byte, whose time is never
# taken, and the job's completion raises.
@example(family=tw._spec, index=10147)
@example(family=tw._tie_spec, index=10045)
@example(family=tw._quiet_spec, index=10082)
@example(family=tw._nested_spec, index=10024)
def test_fast_paths_match_the_per_word_paths(family, index):
    spec = family(index)
    with recording_states() as (states, drifts):
        results = tw.run_register_world(spec)
    want, want_states = run_per_word(spec)
    assert results == want
    assert_same_states(states, drifts, want_states)
