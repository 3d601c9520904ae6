"""Marker ownership: audit rules, quorum solution counts, broadcast solution."""

import pytest
from hypothesis import given, strategies as st

from lockstep.adversary import StrawmanProcess
from lockstep.consensus import ds_all_honest_messages
from lockstep.cyclecoin import CCProcess, PoRProcess
from lockstep.marker import (
    INTENT,
    PROOFS_MAX,
    RECEIPT,
    TYPED_RECORDS_MAX,
    BBMProcess,
    MarkerSystem,
    Marking,
    QMProcess,
    check_marker_round,
    decode_proof,
    default_broadcasters,
    encode_proof,
    intent_content,
    measure_z,
    parse_typed,
    receipt_content,
)
from lockstep.payments import Bank
from lockstep.simnet import (
    CodecError,
    ConfigFault,
    Delivery,
    SignatureOracle,
    SignedMessage,
    enc_int,
)

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


@given(st.lists(st.binary(max_size=24), max_size=5),
       st.integers(min_value=0, max_value=63), st.integers(-9, 99))
def test_cached_decodes_equal_fresh_parses(receipts, payer, target):
    proof = encode_proof(tuple(receipts))
    assert decode_proof(proof) == decode_proof.__wrapped__(proof)
    for payload, tag, fields in (
            (intent_content(3, payer, target, proof), INTENT, 3),
            (receipt_content(3, payer, target), RECEIPT, 3),
            (receipt_content(3, payer, target), INTENT, 3),
            (proof, RECEIPT, 3)):
        assert parse_typed(payload, tag, fields) == \
            parse_typed.__wrapped__(payload, tag, fields)


def test_a_malformed_proof_raises_on_every_call():
    decode_proof.cache_clear()
    for bad in (enc_int(-1), enc_int(2) + enc_int(0), encode_proof(()) + b"x"):
        for _ in range(2):
            with pytest.raises(CodecError):
                decode_proof(bad)
    assert decode_proof.cache_info().currsize == 0
    assert decode_proof.cache_info().misses == 6


@pytest.mark.parametrize("decode, cap, make", [
    (decode_proof, PROOFS_MAX, lambda k: (encode_proof((enc_int(k),)),)),
    (parse_typed, TYPED_RECORDS_MAX,
     lambda k: (receipt_content(k, 0, 1), RECEIPT, 3)),
], ids=["decode_proof", "parse_typed"])
def test_the_decode_tables_stay_within_their_caps(decode, cap, make):
    decode.cache_clear()
    for k in range(cap + 40):
        decode(*make(k))
        assert decode.cache_info().currsize <= cap
    assert decode.cache_info().currsize == cap


def test_a_quorum_round_with_receipt_proofs_parses_each_message_once():
    # Round 1 is the first whose proofs carry 2f+1 receipts, which each of
    # the 3f+1 broadcasters checks; the shared table parses every distinct
    # wire once.
    bank = Bank(16, 5, [1] * 16, family="quorum")
    bank.run_round({0: 1})
    SignedMessage.from_bytes.cache_clear()
    bank.run_round({1: 2})
    info = SignedMessage.from_bytes.cache_info()
    assert info.hits + info.misses >= 5 * info.misses
    assert bank.audit() == []


def _signed(payload, signers, oracle):
    message = SignedMessage(payload)
    for signer in signers:
        message = message.signed_by(oracle, signer)
    return message.to_bytes()


@pytest.mark.parametrize("signers, granted", [
    ((0,), True), ((), False), ((0, 3), False), ((3,), False), ((3, 0), False),
], ids=["payer", "unsigned", "payer-then-other", "foreign",
        "other-then-payer"])
def test_only_an_intent_signed_by_its_payer_alone_is_countersigned(
        signers, granted):
    oracle = SignatureOracle()
    broadcaster = QMProcess(1, 7, 2, oracle)
    intent = intent_content(0, 0, 4, encode_proof(()))
    sends = broadcaster._countersigns(
        0, [Delivery(0, _signed(intent, signers, oracle))])
    assert len(sends) == (1 if granted else 0)
    assert broadcaster.history == ([(0, 0, 4)] if granted else [])


@pytest.mark.parametrize("signers, read", [
    ((2,), True), ((), False), ((2, 3), False), ((9,), False),
], ids=["broadcaster", "unsigned", "two-signers", "not-a-broadcaster"])
def test_only_a_receipt_signed_by_one_broadcaster_is_read(signers, read):
    oracle = SignatureOracle()
    proc = QMProcess(0, 10, 2, oracle)  # broadcasters 0..6
    wire = _signed(receipt_content(0, 0, 4), signers, oracle)
    assert proc._receipt(wire) == ((0, 0, 4, 2) if read else None)


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
