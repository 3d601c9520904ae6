"""Marker ownership: audit rules, quorum solution counts, broadcast solution."""

import pytest
from hypothesis import given, strategies as st

from lockstep.adversary import StrawmanProcess
from lockstep.consensus import ds_all_honest_messages
from lockstep.cyclecoin import CCProcess, PoRProcess
from lockstep.marker import (
    BBMProcess,
    MarkerSystem,
    Marking,
    QMProcess,
    check_marker_round,
    decode_proof,
    default_broadcasters,
    encode_proof,
    measure_z,
)
from lockstep.payments import Bank
from lockstep.simnet import ConfigFault

HONEST = frozenset(range(6))


def test_audit_accepts_a_clean_handoff():
    markings = [Marking(0, 3, 1)]
    assert check_marker_round(0, HONEST, markings, 1, True, 3) == []


def test_audit_rejects_two_honest_markings():
    markings = [Marking(0, 3, 1), Marking(0, 4, 1)]
    out = check_marker_round(0, HONEST, markings, 1, True, 3)
    assert any("2 honest processes marked" in v for v in out)


def test_audit_rejects_a_dropped_handoff():
    out = check_marker_round(2, HONEST, [], 1, True, 3)
    assert out == ["round 2: handoff 1->3 did not land"]


def test_audit_ignores_a_handoff_from_an_unmarked_payer():
    # a payer that never held the marker has nothing to hand off
    assert check_marker_round(0, HONEST, [], 1, False, 3) == []


def test_audit_rejects_impersonation_of_an_honest_process():
    markings = [Marking(1, 4, 2)]
    out = check_marker_round(1, HONEST, markings, None, False, None)
    assert any("in the name of honest 2" in v for v in out)


def test_audit_allows_corrupted_predecessors():
    corrupted_source = Marking(0, 3, 9)
    assert check_marker_round(0, HONEST, [corrupted_source],
                              None, False, None) == []


@given(st.lists(st.binary(min_size=1, max_size=24), max_size=5))
def test_receipt_proof_codec_round_trip(receipts):
    assert decode_proof(encode_proof(tuple(receipts))) == tuple(receipts)


def test_broadcaster_committee_size():
    assert default_broadcasters(10, 3) == frozenset(range(10))
    assert len(default_broadcasters(10, 2)) == 7


def test_quorum_handoff_costs_are_flat():
    # every target, self included, costs one intent round trip through the
    # 3f+1 broadcasters: 2(3f+1) messages
    for N, f in ((4, 1), (7, 2), (10, 3)):
        costs = measure_z(QMProcess, N, f)
        assert costs == [2 * (3 * f + 1)] * N
        assert sum(costs) == N * (6 * f + 2)


def test_quorum_round_is_three_steps():
    system = MarkerSystem(QMProcess, 7, 2)
    system.run_round({0: 4})
    assert system.net.now == 3
    system.run_round({4: 2})
    assert system.net.now == 6


def test_quorum_marker_moves_and_stays_single():
    system = MarkerSystem(QMProcess, 7, 2)
    first = system.run_round({0: 4})
    assert [(m.target, m.predecessor) for m in first] == [(4, 0)]
    second = system.run_round({4: 4})
    assert [(m.target, m.predecessor) for m in second] == [(4, 4)]
    marked = [n for n in range(7) if system.procs[n].marked]
    assert marked == [4]


def test_broadcast_solution_marks_and_costs_more():
    # the broadcast based solution pays full broadcast prices per handoff
    costs = measure_z(BBMProcess, 5, 1)
    assert costs == [17] * 5 == [ds_all_honest_messages(5, 1)] * 5
    assert sum(costs) > sum(measure_z(QMProcess, 5, 1))


def test_broadcast_solution_moves_the_marker():
    system = MarkerSystem(BBMProcess, 5, 1)
    markings = system.run_round({0: 3})
    assert [(m.target, m.predecessor) for m in markings] == [(3, 0)]


@pytest.mark.parametrize("family, N, f", [
    (QMProcess, 6, 2), (BBMProcess, 4, 3), (CCProcess, 4, 3),
    (CCProcess, 1, 0), (PoRProcess, 5, -1),
])
def test_constructions_refuse_configurations_outside_their_rules(family, N, f):
    with pytest.raises(ConfigFault):
        MarkerSystem(family, N, f)


def test_bank_families_keep_their_rules():
    with pytest.raises(ConfigFault):
        Bank(6, 2, [1] * 6, family="quorum")  # 3f+1 > N
    with pytest.raises(ConfigFault):
        Bank(4, 3, [1] * 4, family="cycle")  # f > N-2


@pytest.mark.parametrize("family", [QMProcess, BBMProcess, CCProcess,
                                    PoRProcess, StrawmanProcess],
                         ids=lambda c: c.__name__)
def test_only_the_holder_can_pay(family):
    system = MarkerSystem(family, 5, 1)
    with pytest.raises(ConfigFault):
        system.run_round({2: 3})
