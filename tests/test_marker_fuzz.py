"""Mutated wire bytes at every marker construction: dropped or faulted.

Real payloads come from one :class:`MarkerSystem` round per construction.
Each example flips and cuts the bytes of one of them and delivers the
result to a fresh process at every step of a round.  A process may drop
the message, act on it, or raise a :class:`ProtocolFault`; any other
exception is a bug in the input handling.  The same holds for the
nonce-tagged payloads of cycle and quorum bank rounds delivered to a
:class:`MuxHost`, which must also step only instances it hosts, and for the
chains of one relay broadcast delivered to a :class:`DSProcess`.  Those
cases deliver each mutated payload twice, to fresh receivers, so the second
pass runs on the shared decode tables.
"""

import copy
import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from lockstep.adversary import StrawmanProcess
from lockstep.consensus import DSProcess, default_relays, run_dolev_strong
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


# family -> (Bank arguments, {payer: target} of each recorded round).  The
# quorum bank's second round carries intents whose proofs hold receipts.
BANKS = {
    "cycle": ((6, 0, (2, 1, 0, 1, 0, 0)), ({0: 4, 3: 5},)),
    "quorum": ((7, 2, (1, 1, 0, 1, 0, 0, 0)), ({0: 4, 3: 5}, {4: 1})),
}


@functools.lru_cache(maxsize=None)
def _recorded_bank(family):
    args, rounds = BANKS[family]
    bank = Bank(*args, family=family)
    for inputs in rounds:
        bank.run_round(inputs)
    return bank


mutations = dict(
    pick=st.integers(min_value=0),
    flips=st.lists(st.tuples(st.integers(min_value=0),
                             st.integers(min_value=1, max_value=255)),
                   max_size=3),
    cut=st.none() | st.tuples(st.integers(min_value=0),
                              st.integers(min_value=0)),
    recipient=st.none() | st.integers(min_value=0, max_value=15))


def _mutated_event(net, pick, flips, cut, recipient):
    """A recorded send with mutated bytes, and the id to deliver it to."""
    events = net.transcript.events
    event = events[pick % len(events)]
    payload = _mutate(event.payload, flips, cut)
    assume(payload != event.payload)
    n = event.recipient if recipient is None else recipient % net.N
    return event.sender, payload, n


def _step_or_fault(proc, t, sender, payload) -> None:
    try:
        sends = proc.step(t, [Delivery(sender, payload)])
    except ProtocolFault:
        return
    assert all(isinstance(s, Send) for s in sends)


def _fuzz_bank(family, pick, flips, cut, recipient) -> None:
    """Deliver one mutated payload at every recorded step to a fresh bank's
    host, twice."""
    recorded = _recorded_bank(family)
    sender, payload, n = _mutated_event(recorded.net, pick, flips, cut,
                                        recipient)
    for _ in range(2):
        bank = Bank(recorded.N, recorded.f, recorded.initial, family=family,
                    oracle=copy.deepcopy(recorded.oracle))
        host = bank.hosts[n]
        for t in range(recorded.net.now):
            _step_or_fault(host, t, sender, payload)
        assert host.stepped <= set(bank.nonces)


@pytest.mark.parametrize("family", list(CASES), ids=lambda c: c.__name__)
@settings(max_examples=80, deadline=None)
@given(**mutations)
def test_mutated_payloads_are_dropped_or_faulted(family, pick, flips, cut,
                                                 recipient):
    system = _recorded_round(family)
    sender, payload, n = _mutated_event(system.net, pick, flips, cut, recipient)
    oracle = copy.deepcopy(system.net.oracle)
    for t in range(system.round_steps):
        _step_or_fault(family(n, system.N, system.f, oracle, 0), t, sender,
                       payload)


@settings(max_examples=80, deadline=None)
@given(**mutations)
def test_mutated_bank_payloads_are_dropped_or_faulted(pick, flips, cut,
                                                      recipient):
    _fuzz_bank("cycle", pick, flips, cut, recipient)


@settings(max_examples=80, deadline=None)
@given(**mutations)
def test_mutated_quorum_bank_payloads_are_dropped_or_faulted(pick, flips, cut,
                                                             recipient):
    _fuzz_bank("quorum", pick, flips, cut, recipient)


DS_CASE = (5, 1, 7)  # N, f, leader value; process 0 leads


@functools.lru_cache(maxsize=None)
def _recorded_broadcast():
    N, f, value = DS_CASE
    return run_dolev_strong(N, f, value).net


@settings(max_examples=80, deadline=None)
@given(**mutations)
def test_mutated_broadcast_chains_are_dropped_or_faulted(pick, flips, cut,
                                                         recipient):
    net = _recorded_broadcast()
    sender, payload, n = _mutated_event(net, pick, flips, cut, recipient)
    N, f, _ = DS_CASE
    for _ in range(2):
        proc = DSProcess(n, N, f, 0, None, copy.deepcopy(net.oracle),
                         default_relays(N, f))
        for t in range(f + 3):
            _step_or_fault(proc, t, sender, payload)
