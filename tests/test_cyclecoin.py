"""Chain marker: locality of payment cost, chain codec, payment claims."""

import random

import pytest
from hypothesis import given, strategies as st

from lockstep import cyclecoin
from lockstep.cyclecoin import (
    KIND_CHAIN,
    KIND_QUERY,
    KIND_REFUSE,
    KIND_RESPONSE,
    MAIN_NONCE,
    CCProcess,
    PoRProcess,
    Record,
    TAG_BASE,
    TAG_PATH,
    TAG_X,
    TAG_Y,
    append_record,
    chain_signatures_ok,
    cycle_distance,
    cycle_path,
    cycle_payment_messages,
    decode_records,
    encode_records,
    parse_wire,
    record_content,
    verify_payment_claim,
    wire,
)
from lockstep.marker import MarkerSystem, measure_z
from lockstep.payments import Bank
from lockstep.simnet import (
    Adversary,
    CoalitionOracle,
    CodecError,
    Delivery,
    ScopedOracle,
    SignatureOracle,
    SignedMessage,
    enc_bytes,
    enc_int,
    split_payload,
    tag_payload,
)

record_lists = st.lists(
    st.builds(Record,
              st.sampled_from((TAG_BASE, TAG_PATH, TAG_X, TAG_Y)),
              st.integers(min_value=0, max_value=31)),
    max_size=6).map(tuple)


@given(record_lists)
def test_chain_codec_round_trip(records):
    assert decode_records(encode_records(records)) == records


def test_chain_codec_rejects_junk():
    with pytest.raises(CodecError):
        decode_records(b"\xff" * 7)


def test_signed_chains_verify_prefix_by_prefix():
    oracle = SignatureOracle()
    chain = ()
    for signer, tag in ((0, TAG_BASE), (0, TAG_X), (1, TAG_PATH), (2, TAG_Y)):
        chain = append_record(oracle, signer, chain, tag)
    assert chain_signatures_ok(chain, oracle)
    # moving a record out of its prefix context breaks it
    assert not chain_signatures_ok(chain[:2] + chain[3:], oracle)


def test_cycle_path_skips_deleted_positions():
    assert cycle_path(1, 4, 6) == [1, 2, 3]
    assert cycle_path(1, 4, 6, frozenset({2})) == [1, 3]
    assert cycle_path(4, 1, 6) == [4, 5, 0]


def test_payment_cost_depends_only_on_distance():
    for N in (4, 7, 10):
        costs = measure_z(CCProcess, N)
        expected = [cycle_payment_messages(cycle_distance(0, t, N))
                    for t in range(N)]
        assert costs == expected
        assert costs[0] == 0  # self payment
        assert costs[1 % N] <= 1  # a neighbour hears one message


def test_payment_message_formula():
    assert cycle_payment_messages(0) == 0
    assert cycle_payment_messages(1) == 1
    for d in range(2, 9):
        assert cycle_payment_messages(d) == 2 * (d - 1) + 1


def test_sequential_payments_never_touch_the_last_process():
    N = 8
    system = MarkerSystem(CCProcess, N)
    for payer in range(N - 2):
        markings = system.run_round({payer: payer + 1})
        assert [(m.target, m.predecessor) for m in markings] == \
            [(payer + 1, payer)]
    quiet = N - 1
    heard = [e for e in system.net.transcript.events if e.recipient == quiet]
    assert heard == []


def test_self_payment_is_free_and_keeps_the_marker():
    system = MarkerSystem(CCProcess, 6)
    system.run_round({0: 0})
    assert system.net.metrics.messages() == 0
    assert system.procs[0].marked


def test_marker_lands_across_the_wrap():
    system = MarkerSystem(CCProcess, 6)
    system.run_round({0: 4})
    markings = system.run_round({4: 2})
    assert [(m.target, m.predecessor) for m in markings] == [(2, 4)]


def test_payment_claim_verdicts():
    system = MarkerSystem(CCProcess, 6)
    system.run_round({0: 3})
    target = system.procs[3]
    verdict, conflict = verify_payment_claim(target, target.chain, 0)
    assert verdict == "paid"
    assert conflict is None
    verdict, _ = verify_payment_claim(target, (), 0)
    assert verdict == "invalid"


def test_auditing_a_withheld_chain_changes_nothing():
    system = MarkerSystem(CCProcess, 6)
    payer, target = system.procs[0], system.procs[3]
    step = payer.step

    def withholding(t, inbox):
        return [s for s in step(t, inbox)
                if s.recipient != 3 or parse_wire(s.payload)[0] != KIND_CHAIN]

    payer.step = withholding
    system.run_round({0: 3})
    records = payer.proofs[0]
    state = (target.marked, list(target.markings), target.chain,
             dict(target.received_log))
    for _ in range(2):
        verdict, shape = verify_payment_claim(target, records, 0)
        assert verdict == "late"
        assert (target.marked, list(target.markings), target.chain,
                dict(target.received_log)) == state
    target.accept_late(shape, 0)
    assert target.marked and target.chain == records
    assert verify_payment_claim(target, records, 0) == ("paid", None)


def test_response_enforcement_is_free_when_honest():
    plain = MarkerSystem(CCProcess, 7)
    plain.run_round({0: 4})
    backed = MarkerSystem(PoRProcess, 7, 2)
    backed.run_round({0: 4})
    assert backed.net.metrics.messages() == plain.net.metrics.messages()
    assert [p.deleted for p in backed.procs] == [{}] * 7


def test_a_complaint_from_a_holder_other_than_zero_is_read():
    # the complaint instances are keyed by the complainer, here process 1
    system = MarkerSystem(PoRProcess, 6, 1, SignatureOracle(frozenset({2})),
                          genesis_holder=1)
    markings = system.run_round({1: 4})
    assert [(m.target, m.predecessor) for m in markings] == [(4, 1)]
    assert [sorted(p.deleted) for p in system.procs] == \
        [[2], [2], [], [2], [2], [2]]


class WithheldQuery(Adversary):
    """Runs the honest payer code of corrupted genesis holder 0 but never
    sends its first query, so the payer complains about a responder that
    heard nothing."""

    def __init__(self, N: int, f: int, oracle):
        CoalitionOracle(oracle).sign(0, record_content((), TAG_BASE))
        self.N, self.f, self.oracle = N, f, oracle
        self.restart()

    def restart(self) -> None:
        """Hold the genesis again, whatever was spent since."""
        self.payer = PoRProcess(0, self.N, self.f, self.oracle)
        self.withheld = False

    def act(self, t, net):
        inbox = [Delivery(o.sender, o.payload) for o in net.observed
                 if o.step == t]
        out = []
        for send in self.payer.step(t, inbox):
            body, nonce = split_payload(send.payload)
            if (not self.withheld and nonce == MAIN_NONCE
                    and parse_wire(body)[0] == KIND_QUERY):
                self.withheld = True
                continue
            out.append((0, send))
        return out


def _withheld_query_system(N: int = 5, f: int = 1):
    oracle = SignatureOracle(frozenset({0}))
    adversary = WithheldQuery(N, f, oracle)
    system = MarkerSystem(PoRProcess, N, f, oracle, adversary)
    return system, adversary


def test_accused_process_countersigns_through_the_complaint():
    system, adversary = _withheld_query_system()
    adversary.payer.pay(0, 3)
    markings = system.run_round({})
    assert adversary.withheld
    assert [(m.target, m.predecessor) for m in markings] == [(3, 0)]
    assert sorted(system.procs[1].signed_log) == [1]
    assert all(not p.refusals and not p.deleted for p in system.procs[1:])


def test_accused_holder_refuses_through_the_complaint():
    system, adversary = _withheld_query_system()
    adversary.payer.pay(0, 1)
    system.run_round({})
    # the payer spends the genesis a second time; the holder of the
    # first payment is the first process it queries
    adversary.restart()
    adversary.payer.pay(1, 3)
    assert system.run_round({}) == []
    assert adversary.withheld
    assert system.procs[1].refusals == [(1, 1, "marked")]
    assert adversary.payer.evidence == [system.procs[1].chain]
    assert all(not p.deleted for p in system.procs[1:])


def test_accused_signer_refuses_with_the_partial_it_signed():
    system, adversary = _withheld_query_system()
    adversary.payer.pay(0, 3)
    system.run_round({})
    signed = system.procs[1].signed_log[1]
    # the payer spends the genesis again and queries 1 first, which
    # already vouched for a partial of the same weight
    adversary.restart()
    adversary.payer.pay(1, 2)
    assert system.run_round({}) == []
    assert system.procs[1].refusals == [(1, 1, "signed")]
    assert adversary.payer.evidence == [signed]
    assert all(not p.deleted for p in system.procs[1:])


class BogusRefusal(Adversary):
    """Runs the honest code of corrupted process 1, except that it drops
    every direct answer and refuses every complaint with the bare genesis,
    which proves nothing."""

    def __init__(self, N: int, f: int, oracle):
        self.proc = PoRProcess(1, N, f, oracle)
        genesis = (Record(TAG_BASE, 0),)

        def vouch(r, w, records):
            self.proc.refusals.append((r, w, "bogus"))
            return "bogus", genesis

        self.proc._vouch = vouch

    def act(self, t, net):
        inbox = [Delivery(o.sender, o.payload) for o in net.observed
                 if o.step == t]
        out = []
        for send in self.proc.step(t, inbox):
            _, nonce = split_payload(send.payload)
            if nonce != MAIN_NONCE:
                out.append((1, send))
        return out


def test_unjustified_refusal_deletes_the_accused():
    N, f = 5, 1
    oracle = SignatureOracle(frozenset({1}))
    adversary = BogusRefusal(N, f, oracle)
    system = MarkerSystem(PoRProcess, N, f, oracle, adversary)
    markings = system.run_round({0: 3})
    # once to the dropped query, once to the complaint
    assert adversary.proc.refusals == [(0, 1, "bogus")] * 2
    assert [(m.target, m.predecessor) for m in markings] == [(3, 0)]
    for n in (0, 2, 3, 4):
        assert system.procs[n].deletions == [(0, 0, 1)]


@pytest.mark.parametrize("case", ["complete", "partial", "unjustified"])
def test_a_refusal_is_assembled_once(monkeypatch, case):
    """Each check of refusal evidence parses it once and checks its
    signatures at most once."""
    system, adversary = _withheld_query_system()
    adversary.payer.pay(0, 1 if case == "complete" else 3)
    system.run_round({})
    judge = system.procs[2]
    if case == "complete":
        evidence, justified = system.procs[1].chain, True
    elif case == "partial":
        evidence, justified = system.procs[1].signed_log[1], True
    else:
        evidence, justified = system.procs[3].chain, False
    counts = {"assemble": 0, "chain_signatures_ok": 0}
    for name in counts:
        original = getattr(cyclecoin, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cyclecoin, name, counted)
    assert judge._refusal_justified(1, evidence, 1) is justified
    assert counts["assemble"] == 1
    assert counts["chain_signatures_ok"] <= 1


@given(st.permutations(range(32)))
def test_an_inbox_is_handled_by_kind_then_sender_then_encoding(order):
    """Each kind's messages are handled in the order of (sender, record
    encoding), whatever order they arrived in."""
    chains = [(Record(TAG_BASE, 0), Record(TAG_PATH, 1), Record(TAG_Y, 0)),
              (Record(TAG_BASE, 0), Record(TAG_X, 0)),
              (Record(TAG_BASE, 0),),
              (Record(TAG_BASE, 0), Record(TAG_PATH, 256))]
    # by encoding, (p, 256) comes before (x, 0), and two records before three
    sent = [(kind, sender, chain)
            for kind in (KIND_QUERY, KIND_CHAIN, KIND_REFUSE, KIND_RESPONSE)
            for sender in (3, 1) for chain in chains]
    proc = CCProcess(2, 6, 0, SignatureOracle())
    handled = []
    for kind, name in ((KIND_CHAIN, "_on_chain"), (KIND_QUERY, "_on_query"),
                       (KIND_RESPONSE, "_on_response"),
                       (KIND_REFUSE, "_on_refuse")):
        setattr(proc, name, lambda sender, records, *_, kind=kind:
                handled.append((kind, sender, records)) or [])
    inbox = [Delivery(sent[k][1], wire(sent[k][0], sent[k][2])) for k in order]
    proc.step(1, inbox + [Delivery(0, b"junk")])
    expected = [entry for kind in cyclecoin._KINDS
                for entry in sorted(
                    (e for e in sent if e[0] == kind),
                    key=lambda e: (e[1], encode_records(e[2])))]
    assert handled == expected


# Base oracle calls of the twenty cycle bank rounds below.  The codec
# tables save parsing and joining, never a question to the oracle or a
# signature, so no table may move these counts.
CYCLE_BANK_VERIFIES = 1283
CYCLE_BANK_SIGNS = 255


def _twenty_cycle_bank_rounds():
    bank = Bank(6, 2, [1] * 6, family="cycle")
    rng = random.Random(11)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(6)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []


def test_twenty_cycle_bank_rounds_ask_the_oracle_as_often_as_before(
        monkeypatch):
    calls = {"verify": 0, "sign": 0}
    for name in calls:
        original = getattr(SignatureOracle, name)

        def counted(oracle, signer, content, _name=name, _original=original):
            calls[_name] += 1
            return _original(oracle, signer, content)

        monkeypatch.setattr(SignatureOracle, name, counted)
    _twenty_cycle_bank_rounds()
    assert calls == {"verify": CYCLE_BANK_VERIFIES, "sign": CYCLE_BANK_SIGNS}


def test_twenty_cycle_bank_rounds_decode_every_chain_by_lookup(monkeypatch):
    # no wire table, so that no wire is answered before its decode
    monkeypatch.setattr(cyclecoin, "parse_wire", cyclecoin.parse_wire.__wrapped__)
    hits = []
    decode = cyclecoin.decode_records

    def recording(data):
        hits.append(data in cyclecoin._encodings)
        return decode(data)

    monkeypatch.setattr(cyclecoin, "decode_records", recording)
    _twenty_cycle_bank_rounds()
    assert hits and all(hits)


# ---------------------------------------------------------------------------
# reject exits: each drops crafted input and leaves the process as it was


def _kept(proc):
    """What a process keeps, its network and oracle aside, as text: a
    list or map changed in place, or an object replaced, reads
    differently."""
    return {k: repr(v) for k, v in vars(proc).items() if k not in ("net", "oracle")}


@pytest.mark.parametrize("family,f", [(CCProcess, 0), (PoRProcess, 1)],
                         ids=["chain", "por"])
def test_a_response_the_registry_lacks_is_dropped(family, f):
    """Responder 1 answers payer 0's query with the very records asked
    about, but never countersigned them."""
    system = MarkerSystem(family, 5, f)
    payer = system.procs[0]
    payer.pay(0, 3)
    assert [s.recipient for s in payer._begin_payment(0)] == [1]
    responder, records = payer.outstanding
    assert responder == 1
    assert not system.net.oracle.verify(1, record_content(records, TAG_PATH))
    before = _kept(payer)
    assert payer._on_response(1, records, 0) == []
    assert _kept(payer) == before


def test_a_malformed_refusal_value_is_no_refusal():
    evidence = (Record(TAG_BASE, 0), Record(TAG_PATH, 0), Record(TAG_X, 0))
    good = cyclecoin.refusal_wire(evidence)
    assert cyclecoin.parse_refusal(good) == evidence
    for bad in (cyclecoin.COMPLY,  # a tag other than 2
                enc_int(3) + good[12:],
                good + b"x",  # trailing bytes
                good[:-1],  # a cut chunk
                enc_int(2) + enc_bytes(b"junk")):
        assert cyclecoin.parse_refusal(bad) is None


def test_a_response_broadcast_for_a_period_without_accusation_is_dropped():
    """Process 3 of a fresh system hears, in the response window of
    round 0's first period, a response broadcast led by 1: no complaint
    accused anyone there, so no sub-broadcast is built.  Once the period
    has an accusation of 1, the same message builds one."""
    system = MarkerSystem(PoRProcess, 5, 1)
    proc = system.procs[3]
    nonce = cyclecoin.RESPONSE_PREFIX + cyclecoin.nonce_for(0, 0)
    leader = SignedMessage(cyclecoin.COMPLY).signed_by(
        ScopedOracle(system.net.oracle, nonce), 1)
    inbox = [Delivery(1, tag_payload(leader.to_bytes(), nonce))]
    t = proc.f + 6  # local step 1 of the response broadcast
    proc.round_steps  # read at the first step
    before = _kept(proc)
    assert proc.step(t, inbox) == []
    assert _kept(proc) == before and proc.subs == {}
    proc.accused[(0, 0)] = (1, (), 1)
    proc.step(t, inbox)
    assert list(proc.subs) == [nonce]


@pytest.mark.parametrize("case", ["light", "unsigned", "no-path"])
def test_refusal_evidence_short_of_a_heavy_enough_signed_request_is_refused(
        case):
    """Evidence that assembles and ends at the accused but is no complete
    chain must be a request of no lesser weight that the accused
    countersigned: the partial 1 countersigned at weight 1, against a
    complaint of weight 2; a request of weight 4 ending at 4, which 4
    never countersigned; and a lone self hop of 0, which has no path."""
    system, adversary = _withheld_query_system()
    adversary.payer.pay(0, 3)
    system.run_round({})
    judge = system.procs[2]
    partial = system.procs[1].signed_log[1]
    accused, evidence, w = {
        "light": (1, partial, 2),
        "unsigned": (4, (Record(TAG_BASE, 0),
                         *(r for b in range(4) for r in (Record(TAG_PATH, b),
                                                         Record(TAG_X, 0)))),
                     4),
        "no-path": (0, (Record(TAG_BASE, 0), Record(TAG_X, 0)), 0),
    }[case]
    shape = cyclecoin.assemble(evidence, 5)
    assert shape.end == accused and not shape.complete
    before = _kept(judge)
    assert judge._refusal_justified(accused, evidence, w) is False
    assert _kept(judge) == before
    if case == "light":
        assert judge._refusal_justified(1, partial, 1)


def test_a_partial_that_no_longer_assembles_is_dropped_on_reroute():
    """Payer 0 of N=6 pays 5 and, once 1, 2 and 3 have countersigned,
    waits for 4.  With the target 5 deleted earlier in the round and now
    4, the partial's end walks past both back to 0, a hop of length 0:
    the partial no longer assembles, so it is dropped, and the payer
    keeps its marker and everything else."""
    proc = PoRProcess(0, 6, 2, SignatureOracle())
    proc.pay(0, 5)
    proc._begin_payment(0)
    for responder in (1, 2, 3):
        proc._absorb_countersign(responder, 0)
    assert proc.outstanding[0] == 4 and proc.route == [4]
    proc.deleted.update({5: 0, 4: 0})
    before = _kept(proc)
    proc._reroute(0)
    assert proc.outstanding is None and proc.route == [] and proc.marked
    after = _kept(proc)
    before.update(outstanding=after["outstanding"], route=after["route"])
    assert after == before
