"""Mutated wire bytes at every marker construction: dropped or faulted.

Real payloads come from one :class:`MarkerSystem` round per construction.
Each example flips and cuts the bytes of one of them and delivers the
result to a fresh process at every step of a round.  A process may drop
the message, act on it, or raise a :class:`ProtocolFault`; any other
exception is a bug in the input handling.  The same holds for the
nonce-tagged payloads of one cycle bank round delivered to a
:class:`MuxHost`, which must also step only instances it hosts.
"""

import copy
import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from lockstep.adversary import StrawmanProcess
from lockstep.cyclecoin import CCProcess, PoRProcess
from lockstep.marker import BBMProcess, MarkerSystem, QMProcess
from lockstep.payments import Bank
from lockstep.simnet import Delivery, ProtocolFault, Send

# construction -> (N, f, corrupted, target of the handoff from process 0).
# The silent process on the response enforcement payment path puts the
# complaint and response broadcasts on the wire as well.
CASES = {
    QMProcess: (7, 2, frozenset(), 5),
    BBMProcess: (5, 1, frozenset(), 3),
    CCProcess: (6, 0, frozenset(), 4),
    PoRProcess: (6, 1, frozenset({2}), 4),
    StrawmanProcess: (4, 0, frozenset(), 2),
}


@functools.lru_cache(maxsize=None)
def _recorded_round(family):
    N, f, corrupted, target = CASES[family]
    system = MarkerSystem(family, N, f, corrupted)
    system.run_round({0: target})
    return system


def _mutate(payload: bytes, flips, cut) -> bytes:
    data = bytearray(payload)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    if cut is not None:
        start, end = sorted(c % (len(data) + 1) for c in cut)
        del data[start:end]
    return bytes(data)


@pytest.mark.parametrize("family", list(CASES), ids=lambda c: c.__name__)
@settings(max_examples=80, deadline=None)
@given(pick=st.integers(min_value=0),
       flips=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=1, max_value=255)),
                      max_size=3),
       cut=st.none() | st.tuples(st.integers(min_value=0),
                                 st.integers(min_value=0)),
       recipient=st.none() | st.integers(min_value=0, max_value=15))
def test_mutated_payloads_are_dropped_or_faulted(family, pick, flips, cut,
                                                 recipient):
    system = _recorded_round(family)
    events = system.net.transcript.events
    event = events[pick % len(events)]
    payload = _mutate(event.payload, flips, cut)
    assume(payload != event.payload)
    n = event.recipient if recipient is None else recipient % system.N
    oracle = copy.deepcopy(system.net.oracle)
    for t in range(system.round_steps):
        proc = family(n, system.N, system.f, oracle, 0)
        try:
            sends = proc.step(t, [Delivery(event.sender, payload)])
        except ProtocolFault:
            continue
        assert all(isinstance(s, Send) for s in sends)


@functools.lru_cache(maxsize=None)
def _recorded_bank_round():
    bank = Bank(6, 0, [2, 1, 0, 1, 0, 0], family="cycle")
    bank.run_round({0: 4, 3: 5})
    return bank


@settings(max_examples=80, deadline=None)
@given(pick=st.integers(min_value=0),
       flips=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=1, max_value=255)),
                      max_size=3),
       cut=st.none() | st.tuples(st.integers(min_value=0),
                                 st.integers(min_value=0)),
       recipient=st.none() | st.integers(min_value=0, max_value=15))
def test_mutated_bank_payloads_are_dropped_or_faulted(pick, flips, cut,
                                                      recipient):
    recorded = _recorded_bank_round()
    events = recorded.net.transcript.events
    event = events[pick % len(events)]
    payload = _mutate(event.payload, flips, cut)
    assume(payload != event.payload)
    n = event.recipient if recipient is None else recipient % recorded.N
    bank = Bank(recorded.N, recorded.f, recorded.initial, family="cycle",
                oracle=copy.deepcopy(recorded.oracle))
    host = bank.hosts[n]
    for t in range(bank.steps_per_round):
        try:
            sends = host.step(t, [Delivery(event.sender, payload)])
        except ProtocolFault:
            continue
        assert all(isinstance(s, Send) for s in sends)
    assert host.stepped <= set(bank.nonces)
