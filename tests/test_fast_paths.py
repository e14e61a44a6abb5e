"""Differential check of the fast paths against the tree's own per-word paths.

Each example draws a world family of ``timing_worlds`` and an index beyond
the golden grid and the ``--diff`` range, runs the world as it is and again
with every fast path switched off: no replays of burst-end segments (and
so no jumps over the periods they close), no stretches of the configuration
controller or the kernel host.  Both runs must give the same results, trace
bytes included, and the same state at every burst end both see
(``assert_same_states``).
"""

from contextlib import contextmanager

import pytest
import timing_worlds as tw
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proteus_sim.board import SteadyState
from proteus_sim.kernels import KernelHost
from proteus_sim.selectmap import SelectMapController

# Where the kernel host's three fields (form, next edge, phase) start in the
# flat signature; its last field, the order of the processes' slots, shows
# the kernel's next edge too.
HOST = 6

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
    time: the steady state's signature and the kernel's exact terms; and
    the landings of replays that drift (``SteadyState.drift_allowed``).
    Without ``jumps`` the steady state finds no segment to replay
    (``SteadyState.lookup``), so it neither replays one nor jumps a
    period.  Yields (states, landings)."""
    states, drifts, drifted = {}, set(), []
    at_burst_end, drift_allowed = SteadyState.at_burst_end, SteadyState.drift_allowed

    def recording(self, txn):
        txn = at_burst_end(self, txn)
        states[self.sim.now] = state = self.signature()
        # The open segment starts from the state the board is in, also where
        # a chain of replays and jumps left it.
        assert self.snap is None or self.snap[1:4:2] == state, f"at {self.sim.now} ps"
        if drifted:
            drifts.add(self.sim.now)
            drifted.clear()
        return txn

    def noting(self, terms):
        # Asked only for a replay that drifts, and last, so it is taken if
        # this holds.
        allowed = drift_allowed(self, terms)
        if allowed:
            drifted.append(True)
        return allowed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SteadyState, "at_burst_end", recording)
        mp.setattr(SteadyState, "drift_allowed", noting)
        if not jumps:
            mp.setattr(SteadyState, "lookup", lambda self, sig, h, t, budget: None)
        yield states, drifts


def assert_same_states(jumped, drifts, walked):
    """Every burst end of the jumped run is one of the run without jumps,
    with the same signature and kernel terms.  After a landing in
    ``drifts`` the kernel host keeps the phase of the run that recorded the
    segment or period (``SteadyState``): its fields of the signature (and
    so the order of the processes' slots) and its terms may differ until the
    first burst end at which either run's kernel host is not quiescent, and
    from there on they agree."""
    drifting = False
    for t in sorted(jumped):
        assert t in walked, f"burst end at {t} ps not in the run without jumps"
        (sig, terms), (want, want_terms) = jumped[t], walked[t]
        assert sig[:HOST] + sig[HOST + 3:-1] == want[:HOST] + want[HOST + 3:-1], f"at {t} ps"
        if t in drifts:
            drifting = True
        elif not (drifting and sig[HOST + 2] is None and want[HOST + 2] is None):
            drifting = False
            assert (sig[HOST:HOST + 3], sig[-1], terms) == (
                want[HOST:HOST + 3], want[-1], want_terms), f"at {t} ps"


@contextmanager
def per_word():
    """Switch every fast path off in the worlds run inside, recording their
    states (``recording_states``); yields the states."""
    with recording_states(jumps=False) as (states, _drifts), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(SelectMapController, "_stretch", lambda self, t, job, configuring: 0)
        mp.setattr(KernelHost, "_stretch", lambda self, t, kernel: False)
        yield states


def run_per_word(spec: dict):
    """``run_register_world`` with every fast path switched off
    (``per_word``); returns its results and states."""
    with per_word() as states:
        return tw.run_register_world(spec), states


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), index=st.integers(min_value=10_000, max_value=10**9))
# Differs without the kernel host's last edge in the steady state's signature.
@example(family=tw._period_spec, index=444043079)
# Differ if a match whose kernel phase differs jumps over a burst end at which
# the kernel was awake, or if an awake kernel's phase leaves the signature.
@example(family=tw._stream_spec, index=912475478)
@example(family=tw._tie_spec, index=511224473)
# Jumps across stall windows; differed without the check that the windows
# repeat, with that check a period shorter (which leaves out the lattice point
# of the burst end a jump lands on), or if a window added at a stop, opening
# before it, left the snapshots taken before it in place.
@example(family=tw._stallper_spec, index=10235)
# Differed if a period replayed without the kernel rule (equal kernel terms,
# or a kernel asleep throughout the period and now).  The first also fails
# the state check if an awake kernel's last edge, which its next step sets
# before anything reads it and which a stretch leaves stale, is in its terms.
@example(family=tw._stream_spec, index=10662)
@example(family=tw._tie_spec, index=10084)
# Failed if a device-bound engine's cap was min(4 * capacity, max_burst) - 4:
# a jump then carried the controller past its payload's end.
@example(family=tw._spec, index=10015)
# Failed if periods outlived register writes while the controller's bytes
# done counted only up to the header's end: a period seen in one job then
# replayed over a later job's first payload byte, whose time is never taken,
# and the job's completion raised.
@example(family=tw._spec, index=10147)
@example(family=tw._tie_spec, index=10045)
@example(family=tw._quiet_spec, index=10082)
@example(family=tw._nested_spec, index=10024)
# Segments (``SteadyState``): each of these fails if the check named is
# taken out.  The windows over a replay are those its segment met, translated:
@example(family=tw._stallper_spec, index=10000)
# ... and none, for a segment kept without a stall term:
@example(family=tw._spec, index=10025)
# The cap bound (fails with a budget one burst larger):
@example(family=tw._spec, index=10004)
# The kernel rule:
@example(family=tw._stream_spec, index=10000)
# No segment holds a job's end, a window added at a stop, the payload's first
# byte or its end, a job's short last word or a stepped kernel, nor starts or
# lands with another event queued:
@example(family=tw._spec, index=10000)
@example(family=tw._stallper_spec, index=10010)
@example(family=tw._spec, index=10078)
@example(family=tw._spec, index=10103)
@example(family=tw._spec, index=10093)
@example(family=tw._stream_spec, index=10032)
@example(family=tw._period_spec, index=10015)
# A landing sets the kernel's last edge and numbers the slots in their order:
@example(family=tw._spec, index=10048)
@example(family=tw._tie_spec, index=10121)
# A chain that jumps takes the kernel terms from the host after the jump: the
# period of 3,757,572 ps that lands at 91,889,000 ps is no whole number of the
# 20,000 ps user clock's, and the next segment starts from the terms there
# (``recording_states`` checks the open segment's start), not from those before.
@example(family=tw._stream_spec, index=20000)
# Lands a drifting replay at 18,405,000 ps with the kernel asleep where the run
# without replays has it awake for an edge that moves nothing: the slot-order
# field reads None against False until the kernel shows again.
@example(family=tw._tie_spec, index=20053)
def test_fast_paths_match_the_per_word_paths(family, index):
    spec = family(index)
    with recording_states() as (states, drifts):
        results = tw.run_register_world(spec)
    want, want_states = run_per_word(spec)
    assert results == want
    assert_same_states(states, drifts, want_states)
