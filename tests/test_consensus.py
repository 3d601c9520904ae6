"""Broadcast and the agreement reductions built on top of it."""

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.adversary import ScriptAdversary
from lockstep.consensus import (
    DSProcess,
    audit_extractions,
    bb_from_ba_steps,
    ds_all_honest_messages,
    ds_message_bound,
    ds_signature_floor,
    majority_ba_steps,
    run_bb_from_ba,
    run_dolev_strong,
    run_majority_ba,
    run_turpin_coan,
    turpin_coan_steps,
)
from lockstep.simnet import (
    CoalitionOracle,
    ConfigFault,
    Delivery,
    Send,
    SignatureOracle,
    SignedMessage,
    enc_bytes,
    enc_int,
)


def test_all_honest_broadcast_decides_leader_value():
    for N in (4, 7, 10):
        for f in (1, 2):
            for value in (0, 1):
                run = run_dolev_strong(N, f, value)
                assert set(run.decisions.values()) == {value}
                assert not any(run.sender_fault.values())
                assert audit_extractions(run)


def test_all_honest_message_count_is_exact():
    for N in range(4, 13):
        for f in range(1, 4):
            if f + 2 > N:
                continue
            run = run_dolev_strong(N, f, 1)
            msgs = run.net.metrics.messages()
            assert msgs == ds_all_honest_messages(N, f)
            assert msgs <= ds_message_bound(N, f)
            assert run.net.metrics.signatures() >= ds_signature_floor(N, f)


def test_broadcast_finishes_by_the_deadline():
    run = run_dolev_strong(6, 2, 0)
    # loop phase ends at step f + 2; nothing may be sent at it or later
    assert run.net.now <= 2 + 3
    assert all(e.step < 2 + 2 for e in run.net.transcript.events)


def test_silent_corrupted_leader_yields_sender_fault():
    run = run_dolev_strong(5, 1, None, corrupted=frozenset({0}))
    assert set(run.decisions.values()) == {0}
    assert all(run.sender_fault[n] for n in run.decisions)


def test_leader_value_required_for_honest_leader():
    with pytest.raises(ConfigFault):
        run_dolev_strong(4, 1, None)
    with pytest.raises(ConfigFault):
        run_bb_from_ba(4, 1, None)


# Process 2 of N=4, f=1 with leader 0 receives one chain, signed in order
# by ``signers``, at the step that matches its length.  Each case but the
# first breaks one rule of inspect_proper; a forged signature is one that
# another oracle issued, so this one never did.
@pytest.mark.parametrize("signers, forged, taken", [
    ((0,), False, True),
    ((0,), True, False),
    ((3,), False, False),
    ((0, 0), False, False),
], ids=["proper", "forged", "foreign-anchor", "repeated-signer"])
def test_only_a_proper_chain_is_extracted(signers, forged, taken):
    oracle = SignatureOracle()
    signing = SignatureOracle() if forged else oracle
    chain = SignedMessage(enc_int(1))
    for signer in signers:
        chain = chain.signed_by(signing, signer)
    proc = DSProcess(2, 4, 1, 0, None, oracle)
    proc.step(len(signers), [Delivery(signers[-1], chain.to_bytes())])
    assert proc.extracted == ([enc_int(1)] if taken else [])


def test_a_chain_that_copies_what_the_mark_stands_for_splits_no_broadcast():
    """Corrupted leader 0 signs the wire X = enc_bytes(P) of P = 1 and
    sends process 2 alone the entry written as a copy, X ‖ enc_int(0) ‖
    enc_bytes(X), where a countersignature writes X ‖ enc_int(0) ‖ PRIOR.
    Read as the message it decodes to, the copy would let 2 extract P and
    relay bytes whose first entry its peers re-encode otherwise, so they
    refuse the relay and 2 alone decides 1.  The copy is refused where it
    is read, and every honest process decides 0 with a sender fault."""
    value = enc_int(1)

    def move(net):
        CoalitionOracle(net.oracle).sign(0, enc_bytes(value))
        copy = enc_bytes(value) + enc_int(0) + enc_bytes(enc_bytes(value))
        return [(0, Send(2, copy, 1))]

    run = run_dolev_strong(6, 2, None, corrupted=frozenset({0, 1}),
                           adversary=ScriptAdversary({0: move}, []))
    assert run.decisions == dict.fromkeys((2, 3, 4, 5), 0)
    assert all(run.sender_fault.values())
    assert audit_extractions(run)


# runner on (N, f), and the smallest N its rule admits for a given f
RUNNER_RULES = {
    "dolev-strong": (lambda N, f: run_dolev_strong(N, f, 1),
                     lambda f: f + 2),
    "majority-ba": (lambda N, f: run_majority_ba(N, f, dict.fromkeys(range(N), 1)),
                    lambda f: 2 * f + 1),
    "turpin-coan": (lambda N, f: run_turpin_coan(N, f, dict.fromkeys(range(N), 1)),
                    lambda f: 3 * f + 1),
    "bb-from-ba": (lambda N, f: run_bb_from_ba(N, f, 1),
                   lambda f: 3 * f + 1),
}


@pytest.mark.parametrize("name", sorted(RUNNER_RULES))
def test_runners_reject_the_first_size_outside_their_rule(name):
    runner, smallest = RUNNER_RULES[name]
    for f in (1, 2):
        N = smallest(f)
        assert set(runner(N, f).decisions.values()) == {1}
        with pytest.raises(ConfigFault):
            runner(N - 1, f)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=1))
def test_broadcast_validity_property(N, value):
    run = run_dolev_strong(N, 1, value)
    assert set(run.decisions.values()) == {value}


def test_majority_agreement_is_consistent():
    for bits in ({n: 1 for n in range(5)},
                 {n: 0 for n in range(5)},
                 {0: 1, 1: 1, 2: 1, 3: 0, 4: 0}):
        run = run_majority_ba(5, 1, bits)
        decided = set(run.decisions.values())
        assert len(decided) == 1
        if len(set(bits.values())) == 1:
            assert decided == set(bits.values())


def test_value_agreement_preserves_unanimity():
    for value in (0, 3, 7):
        run = run_turpin_coan(7, 2, {n: value for n in range(7)})
        assert set(run.decisions.values()) == {value}


def test_value_agreement_survives_total_perplexity():
    # a three way split can leave every process claiming confusion; the
    # alert path must still decide without a fallback poll
    run = run_turpin_coan(4, 1, {0: 0, 1: 1, 2: 2, 3: 0})
    assert len(set(run.decisions.values())) == 1


def test_value_agreement_overhead_over_binary_agreement():
    for N, f in ((4, 1), (7, 2), (10, 3)):
        ba = run_majority_ba(N, f, {n: 1 for n in range(N)})
        base = ba.net.metrics.messages()
        assert turpin_coan_steps(f) == majority_ba_steps(f) + 2
        for values in ({n: 0 for n in range(N)}, {n: n % 3 for n in range(N)}):
            tc = run_turpin_coan(N, f, values)
            assert tc.net.metrics.messages() - base <= 2 * N * N


def test_broadcast_from_agreement_overhead():
    for N, f in ((4, 1), (7, 2), (10, 3)):
        tc = run_turpin_coan(N, f, {n: 1 for n in range(N)})
        bb = run_bb_from_ba(N, f, 1)
        assert set(bb.decisions.values()) == {1}
        assert bb_from_ba_steps(f) == turpin_coan_steps(f) + 1
        assert bb.net.metrics.messages() - tc.net.metrics.messages() <= N
