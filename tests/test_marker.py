"""Marker ownership: audit rules, quorum solution counts, broadcast solution."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lockstep import adversary as gallery, marker, simnet
from lockstep.adversary import JunkAdversary, StrawmanProcess
from lockstep.consensus import ds_all_honest_messages
from lockstep.cyclecoin import CCProcess, PoRProcess
from lockstep.marker import (
    GENESIS_ROUND,
    INTENT,
    RECEIPT,
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
    summarize_proof,
)
from lockstep.muxer import nonce_for
from lockstep.payments import Bank
from lockstep.simnet import (
    CodecError,
    ConfigFault,
    Delivery,
    ScopedOracle,
    SignatureOracle,
    SignedMessage,
    enc_bytes,
    enc_int,
    seeded_rng,
)

HONEST = frozenset(range(6))


@pytest.mark.parametrize("family,f", [(CCProcess, 0), (PoRProcess, 1),
                                      (QMProcess, 1), (BBMProcess, 1)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("target", [6, 9, -1])
def test_a_payment_to_no_process_is_refused_and_the_marker_stays(
        family, f, target):
    """Without the check the chain marker's route walks the cycle for
    ever, and the quorum marker's holder loses the marker to nobody."""
    system = MarkerSystem(family, 6, f)
    with pytest.raises(ConfigFault):
        system.run_round({0: target})
    assert system.procs[0].marked and not system.procs[0].pending


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
    for payload, tag, fields in (
            (intent_content(3, payer, target, proof), INTENT, 3),
            (receipt_content(3, payer, target), RECEIPT, 3),
            (receipt_content(3, payer, target), INTENT, 3),
            (proof, RECEIPT, 3)):
        assert parse_typed(payload, tag, fields) == \
            parse_typed.__wrapped__(payload, tag, fields)


def test_a_malformed_proof_raises_on_every_call():
    for bad in (enc_int(-1), enc_int(2) + enc_int(0), encode_proof(()) + b"x"):
        for _ in range(2):
            with pytest.raises(CodecError):
                decode_proof(bad)


# Base oracle checks of the twenty rounds below, one per pair asked alone
# or in a batch.  The shared tables save encoding, parsing and hashing,
# never a question to the oracle, so no table may move this count.  A
# proof holds 2f+1 = 11 receipts, so each broadcaster asks 11 pairs a
# proof.
QUORUM_BANK_VERIFIES = 38992


def test_twenty_quorum_bank_rounds_ask_the_oracle_as_often_as_before(
        monkeypatch):
    asked = []
    verify, verify_all = SignatureOracle.verify, SignatureOracle.verify_all

    def counted(oracle, signer, content):
        asked.append(signer)
        return verify(oracle, signer, content)

    def counted_all(oracle, pairs):
        asked.extend(signer for signer, _ in pairs)
        return verify_all(oracle, pairs)

    monkeypatch.setattr(SignatureOracle, "verify", counted)
    monkeypatch.setattr(SignatureOracle, "verify_all", counted_all)
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(11)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []
    assert len(asked) == QUORUM_BANK_VERIFIES


# Wire bytes each signing table may hold over the twenty rounds below:
# 64 intents of 863 bytes, each with a proof of 2f+1 = 11 receipts; both
# tables peak at 55,232 bytes here (181,248 while every countersignature
# carried a copy of the bytes it signed).  With 512 entries a table held
# up to 0.75 MB, which raised the benchmark's bank-quorum peak RSS from
# 42.8 to 48.9 MB, past its 10 % bound.
SIGNING_TABLE_BYTES = 60_000


def test_twenty_quorum_bank_rounds_keep_few_wire_bytes_in_the_signing_tables(
        monkeypatch):
    """The from_bytes table is modelled as the LRU it is, from the calls
    made to it; _signed_seeds is read directly."""
    parse = SignedMessage.from_bytes
    cap = parse.cache_parameters()["maxsize"]
    held: dict[bytes, None] = {}

    def recording(cls, data):
        held.pop(data, None)
        held[data] = None
        if len(held) > cap:
            del held[next(iter(held))]
        return parse(data)

    monkeypatch.setattr(SignedMessage, "from_bytes", classmethod(recording))
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(11)
    peaks = [0, 0]
    for _ in range(20):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
        assert len(held) == parse.cache_info().currsize
        for k, table in enumerate((held, simnet._signed_seeds)):
            peaks[k] = max(peaks[k], sum(map(len, table)))
    assert bank.audit() == []
    assert 0 < min(peaks) and max(peaks) <= SIGNING_TABLE_BYTES


def test_a_quorum_round_with_receipt_proofs_parses_each_message_once(
        monkeypatch):
    # Round 1 is the first whose proofs carry 2f+1 receipts, which each of
    # the 3f+1 broadcasters checks.  No wire is parsed twice, and each proof
    # is summarised once and read from the shared table by the other 3f.
    bank = Bank(16, 5, [1] * 16, family="quorum")
    bank.run_round({0: 1})
    parse = SignedMessage.from_bytes
    wires = []

    def recording(cls, data):
        wires.append(data)
        return parse(data)

    monkeypatch.setattr(SignedMessage, "from_bytes", classmethod(recording))
    parse.cache_clear()
    summarize_proof.cache_clear()
    bank.run_round({1: 2})
    assert len(set(wires)) == parse.cache_info().misses > 0
    proofs = summarize_proof.cache_info()
    assert proofs.hits >= 3 * bank.f * proofs.misses > 0
    assert bank.audit() == []


def test_a_quorum_round_decodes_the_messages_it_signed_by_lookup(
        monkeypatch):
    # Every intent of a round was built by signed_by a step before it is
    # read, and a receipt is read by slicing its fixed layout, never as a
    # SignedMessage, so round 1 parses no signed-message wire: intents come
    # from the seed table.
    bank = Bank(16, 5, [1] * 16, family="quorum")
    bank.run_round({n: (n + 1) % 16 for n in range(16)})
    parsed = []

    class Counting(simnet.ByteReader):
        def __init__(self, data):
            parsed.append(data)
            super().__init__(data)

    monkeypatch.setattr(simnet, "ByteReader", Counting)
    bank.run_round({n: (n + 5) % 16 for n in range(16)})
    assert bank.audit() == []
    assert parsed == []


def test_a_marker_round_reads_its_markings_off_each_tail():
    system = MarkerSystem(QMProcess, 7, 2)
    rng = random.Random(5)
    holder = 0
    for r in range(200):
        target = rng.randrange(7)
        got = system.run_round({holder: target})
        assert got == [m for p in system.procs for m in p.markings
                       if m.round == r]
        assert [(m.predecessor, m.target) for m in got] == [(holder, target)]
        holder = target


def _reference_receipt(proc, wire):
    """The per-receipt check as it was before proofs were summarised."""
    try:
        sm = SignedMessage.from_bytes(wire)
    except CodecError:
        return None
    fields = parse_typed(sm.payload, RECEIPT, 3)
    if fields is None or len(sm.stack) != 1:
        return None
    signer = sm.stack[0][0]
    if signer not in proc.broadcasters or not sm.verify_stack(proc.oracle):
        return None
    return (*fields, signer)


def _reference_proof_round(proc, payer, proof):
    """The proof check as it was before proofs were summarised: every
    receipt decoded and checked in turn by every process."""
    try:
        receipts = decode_proof(proof)
    except CodecError:
        return None
    if not receipts:
        return GENESIS_ROUND if payer == proc.genesis_holder else None
    seen = {}
    rounds = set()
    for wire in receipts:
        receipt = _reference_receipt(proc, wire)
        if receipt is None or receipt[2] != payer:
            return None
        j, _, _, signer = receipt
        rounds.add(j)
        seen[signer] = j
    if len(rounds) != 1 or len(seen) < 2 * proc.f + 1:
        return None
    return rounds.pop()


# Edits of a proof of round 1 that hands the marker from 2 to 4 (the
# checking processes run at N=10, f=2, broadcasters 0..6).  A borrowed
# signature is one the oracle issued for another receipt.
PROOF_EDITS = ("wrong-payer", "mixed-rounds", "duplicate-signer",
               "outsider", "unsigned", "other-nonce", "borrowed-signature",
               "malformed-receipt", "malformed-proof")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), unique=True, max_size=7),
       st.lists(st.tuples(st.sampled_from(PROOF_EDITS), st.integers(0, 99)),
                max_size=3),
       st.sampled_from((4, 0)))
def test_the_proof_check_equals_the_per_receipt_reference(signers, edits,
                                                          payer):
    base = SignatureOracle()
    nonce, other = nonce_for(0), nonce_for(1)
    specs = [[1, 2, 4, signer, nonce] for signer in signers]
    cut = False
    for edit, k in edits:
        spec = specs[k % len(specs)] if specs else None
        if edit == "malformed-proof":
            cut = True
        elif spec is None:
            continue
        elif edit == "wrong-payer":
            spec[2] = 3
        elif edit == "mixed-rounds":
            spec[0] = 0
        elif edit == "duplicate-signer":
            specs.append(list(spec))
        elif edit == "outsider":
            spec[3] = 7 + k % 3
        elif edit == "unsigned":
            spec[4] = None
        elif edit == "other-nonce":
            spec[4] = other
        else:
            spec[4] = edit
    wires = []
    for j, from_, to, signer, scope in specs:
        payload = receipt_content(j, from_, to)
        signed = payload
        if scope == "borrowed-signature":
            signed = receipt_content(j, from_, 5)
            scope = nonce
        if scope in (nonce, other):
            ScopedOracle(base, scope).sign(signer, enc_bytes(signed))
        wire = SignedMessage(payload, ((signer, enc_bytes(signed)),)
                             ).to_bytes()
        if scope == "malformed-receipt":
            wire = wire[:-3]
        wires.append(wire)
    proof = encode_proof(tuple(wires))
    if cut:
        proof = proof[:-1]
    for n in (0, 5):
        proc = QMProcess(n, 10, 2, ScopedOracle(base, nonce))
        for _ in range(2):
            got = proc._proof_round(payer, proof)
            assert got == _reference_proof_round(proc, payer, proof)
    if not edits and payer == 4 and len(signers) >= 5:
        assert got == 1


def test_a_summarised_proof_still_needs_the_checkers_own_oracle():
    """A proof one bank's processes accepted, and so the shared table
    holds, is refused in a sibling instance and in another bank, whose
    oracles never issued its receipts."""
    bank, other = (Bank(7, 2, [1] * 7, family="quorum") for _ in range(2))
    bank.run_round({0: 4})
    other.run_round({0: 5})
    nonce = bank.nonces[0]
    proof = encode_proof(bank.hosts[4].instances[nonce].proof)
    summarize_proof.cache_clear()
    assert bank.hosts[1].instances[nonce]._proof_round(4, proof) == 0
    sibling = bank.hosts[1].instances[bank.nonces[1]]
    assert sibling._proof_round(4, proof) is None
    assert other.hosts[1].instances[nonce]._proof_round(4, proof) is None
    assert summarize_proof.cache_info().hits == 2
    assert summarize_proof.cache_info().misses == 1


def test_every_seeded_proof_summary_equals_one_read_from_its_bytes(
        monkeypatch):
    seeded = []
    put = simnet.Seeds.put

    def recording(table, key, value):
        if table is marker._proof_seeds:
            seeded.append((key, value))
        put(table, key, value)

    monkeypatch.setattr(simnet.Seeds, "put", recording)
    decoded = []
    monkeypatch.setattr(marker, "decode_proof",
                        lambda data: decoded.append(data) or decode_proof(data))
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(11)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []
    assert len(seeded) > 20
    # of the proofs shown, only the genesis holders' empty one is decoded
    assert set(decoded) == {encode_proof(())}
    marker._proof_seeds.clear()
    for proof, summary in seeded:
        assert len(summary[3]) >= 2 * bank.f + 1
        assert summary == summarize_proof.__wrapped__(proof)
    # a proof never seeded is summarised from its bytes
    summarize_proof.cache_clear()
    proof, summary = seeded[-1]
    decoded.clear()
    fresh = summarize_proof(proof)
    assert fresh == summary and fresh is not summary
    assert decoded == [proof]


def _kept_proofs_hold_2f_plus_1_receipts(procs, f, all_honest):
    """Every process of ``procs`` that accepted a handoff keeps exactly
    2f+1 receipts, and its kept summary is the one read from the proof's
    bytes; in an all honest run its signers are the 2f+1 lowest
    broadcasters.  Returns how many processes were checked."""
    holders = [p for p in procs if p.summary is not None]
    for proc in holders:
        assert len(proc.proof) == 2 * f + 1
        marker._proof_seeds.clear()
        assert summarize_proof.__wrapped__(encode_proof(proc.proof)) == \
            proc.summary
        if all_honest:
            assert proc.summary[2] == \
                frozenset(sorted(proc.broadcasters)[:2 * f + 1])
    assert all(p.summary is not None for p in procs
               if p.marked and p.marked_round != GENESIS_ROUND)
    return len(holders)


def _honest_instances(bank):
    return [bank.hosts[n].instances[nonce]
            for n in sorted(bank.honest) for nonce in bank.nonces]


@pytest.mark.parametrize("N", range(4, 11))
def test_an_honest_bank_keeps_proofs_of_the_2f_plus_1_lowest_receipts(N):
    f = (N - 1) // 3
    bank = Bank(N, f, [1] * N, family="quorum")
    rng = random.Random(N)
    checked = 0
    for _ in range(6):
        bank.run_round({payer: rng.randrange(N)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
        checked += _kept_proofs_hold_2f_plus_1_receipts(
            _honest_instances(bank), f, all_honest=True)
    assert bank.audit() == [] and checked > 0


def test_a_flooded_bank_keeps_proofs_of_2f_plus_1_receipts():
    """The adversarial bank of ``tests/test_simnet.py``: process 6, a
    broadcaster, floods every honest process with junk."""
    bank = Bank(7, 2, [1] * 7, SignatureOracle(frozenset({6})),
                JunkAdversary(seeded_rng(5, 17), 10), family="quorum")
    checked = 0
    for r in range(40):
        payer, target = r % 6, (r + 1) % 6
        bank.run_round({payer: target} if bank.balances()[payer] else {})
        checked += _kept_proofs_hold_2f_plus_1_receipts(
            _honest_instances(bank), 2, all_honest=False)
    assert bank.audit() == [] and checked > 0


def test_the_quorum_gallery_keeps_proofs_of_2f_plus_1_receipts(monkeypatch):
    systems = []

    class Recording(MarkerSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(gallery, "MarkerSystem", Recording)
    assert all(result.ok for result in gallery.quorum_gallery())
    checked = sum(_kept_proofs_hold_2f_plus_1_receipts(
        [p for p in system.procs if p.n not in system.corrupted],
        system.f, all_honest=False) for system in systems)
    assert len(systems) == 5 and checked > 0


def _claim(oracle, r: int, claimed: int, payer: int, target: int) -> Delivery:
    """At N=7, f=2: the intent of round ``r`` in which ``payer`` pays
    ``target``, showing receipts of broadcasters 0..4 that handed it the
    marker in round ``claimed``, or the empty proof of the genesis holder,
    process 0, at GENESIS_ROUND."""
    receipts = () if claimed == GENESIS_ROUND else tuple(
        _signed(receipt_content(claimed, 6, payer), (b,), oracle)
        for b in range(5))
    return Delivery(payer, _signed(
        intent_content(r, payer, target, encode_proof(receipts)), (payer,),
        oracle))


def _countersigned(proc, history) -> list[tuple[int, int, int]]:
    """Deliver to broadcaster ``proc`` each (round, payer, target) of
    ``history`` in round order, claiming the round before, and return the
    ones it countersigned."""
    granted = []
    for r, payer, target in sorted(history, key=lambda entry: entry[0]):
        if proc._countersigns(r, [_claim(proc.oracle, r, r - 1, payer, target)]):
            granted.append((r, payer, target))
    return granted


countersign_histories = st.lists(st.tuples(
    st.integers(0, 6), st.integers(0, 3), st.integers(0, 3)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(countersign_histories, st.integers(-1, 7), st.integers(0, 3),
       st.integers(0, 6))
def test_freshness_read_from_the_tail_equals_the_whole_history(
        history, claimed, payer, target):
    """A broadcaster countersigns a claim of round ``claimed`` exactly when
    nothing it countersigned is after that round: the last round it
    countersigned answers for its whole history, and a countersign at the
    claimed round to another target refuses nothing."""
    proc = QMProcess(1, 7, 2, SignatureOracle())
    granted = _countersigned(proc, history)
    if claimed == GENESIS_ROUND:
        payer = 0
    r = max([claimed, *(j for j, _, _ in history)]) + 1
    sends = proc._countersigns(r, [_claim(proc.oracle, r, claimed, payer,
                                          target)])
    assert len(sends) == all(j <= claimed for j, _, _ in granted)


@settings(max_examples=200, deadline=None)
@given(countersign_histories, st.integers(-1, 7), st.integers(0, 3))
def test_the_latest_round_of_countersigns_answers_as_all_of_them(
        countersigned, claimed, payer):
    """A broadcaster countersigns the first fresh intent of a round only,
    keeps the last round it countersigned, and answers every later claim
    as a twin that countersigned that round alone."""
    proc, twin = (QMProcess(1, 7, 2, SignatureOracle()) for _ in range(2))
    granted = _countersigned(proc, countersigned)
    first = {}
    for entry in sorted(countersigned, key=lambda entry: entry[0]):
        if entry[0] > 0 or entry[1] == 0:  # round 0 needs the genesis holder
            first.setdefault(entry[0], entry)
    assert granted == list(first.values())
    assert proc.countersigned == (granted[-1][0] if granted else GENESIS_ROUND)
    assert _countersigned(twin, granted[-1:]) == granted[-1:]
    if claimed == GENESIS_ROUND:
        payer = 0
    r = max([claimed, *(j for j, _, _ in countersigned)]) + 1
    claim = [_claim(proc.oracle, r, claimed, payer, 4)]
    twin.oracle = proc.oracle
    assert len(proc._countersigns(r, claim)) == len(twin._countersigns(r, claim))


def test_a_broadcaster_keeps_only_its_latest_round_of_countersigns():
    """Over twenty rounds of a quorum bank, each broadcaster of each unit
    keeps one integer, the last round in which it sent a receipt."""
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(3)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []
    latest = {}
    for e in bank.net.transcript.events:
        content, nonce = simnet.split_payload(e.payload)
        receipt = marker.read_receipt(content)
        if receipt is not None:
            latest[e.sender, nonce] = max(latest.get((e.sender, nonce),
                                                     GENESIS_ROUND), receipt[0])
    kept = {(host.n, nonce): host.instances[nonce].countersigned
            for host in bank.hosts for nonce in bank.nonces}
    assert len(latest) > 0 and set(map(type, kept.values())) == {int}
    assert kept == {key: latest.get(key, GENESIS_ROUND) for key in kept}


def _signed(payload, signers, oracle):
    message = SignedMessage(payload)
    for signer in signers:
        message = message.signed_by(oracle, signer)
    return message.to_bytes()


# A forged signature is one another oracle issued, so this one never did.
@pytest.mark.parametrize("signers, forged, granted", [
    ((0,), False, True), ((), False, False), ((0, 3), False, False),
    ((3,), False, False), ((3, 0), False, False), ((0,), True, False),
], ids=["payer", "unsigned", "payer-then-other", "foreign",
        "other-then-payer", "forged"])
def test_only_an_intent_signed_by_its_payer_alone_is_countersigned(
        signers, forged, granted):
    oracle = SignatureOracle()
    broadcaster = QMProcess(1, 7, 2, oracle)
    intent = intent_content(0, 0, 4, encode_proof(()))
    signing = SignatureOracle() if forged else oracle
    sends = broadcaster._countersigns(
        0, [Delivery(0, _signed(intent, signers, signing))])
    assert len(sends) == (1 if granted else 0)
    assert broadcaster.countersigned == (0 if granted else GENESIS_ROUND)


@pytest.mark.parametrize("signers, forged, read", [
    ((2,), False, True), ((), False, False), ((2, 3), False, False),
    ((9,), False, False), ((2,), True, False),
], ids=["broadcaster", "unsigned", "two-signers", "not-a-broadcaster",
        "forged"])
def test_only_a_receipt_signed_by_one_broadcaster_is_read(signers, forged,
                                                          read):
    oracle = SignatureOracle()
    proc = QMProcess(0, 10, 2, oracle)  # broadcasters 0..6
    signing = SignatureOracle() if forged else oracle
    wire = _signed(receipt_content(0, 0, 4), signers, signing)
    assert proc._receipt(wire) == ((0, 0, 4, 2) if read else None)


def test_a_receipt_whose_entry_signed_another_rounds_receipt_is_refused():
    """Broadcaster 2 did countersign the receipt of round 0 for 0 -> 4, and
    its entry is put under the payload of round 1, carrying the bytes it
    signed: the oracle issued that signature, so only the layout check,
    which takes the signed bytes to be those before the entry, refuses
    it, alone and in a proof."""
    oracle = SignatureOracle()
    proc = QMProcess(0, 10, 2, oracle)  # broadcasters 0..6
    signed = [_signed(receipt_content(0, 0, 4), (b,), oracle)
              for b in range(5)]
    old, new = (enc_bytes(receipt_content(j, 0, 4)) for j in (0, 1))
    moved = tuple(new + enc_int(b) + enc_bytes(old) for b in range(5))
    assert all(oracle.verify(b, old) for b in range(5))
    assert proc._receipt(signed[2]) == (0, 0, 4, 2)
    assert proc._receipt(moved[2]) is None
    assert proc._proof_round(4, encode_proof(tuple(signed))) == 0
    assert proc._proof_round(4, encode_proof(moved)) is None


# An intent at N=16, f=5 and its proof of 2f+1 = 11 receipts, each the
# receipt message enc_bytes(receipt_content) and a 16-byte entry: a
# receipt of 67 bytes and an intent of 863, where copies of the signed
# bytes made them 118 and 2,832.
RECEIPT_BYTES = 67
INTENT_BYTES = 863


def test_an_intent_and_its_receipts_have_the_stated_sizes():
    system = MarkerSystem(QMProcess, 16, 5)
    system.run_round({0: 3})
    first = len(system.net.transcript.events)
    system.run_round({3: 5})
    events = system.net.transcript.events[first:]
    # the intents go out at step 3, the receipts at step 4
    intents = [e.payload for e in events if e.step == 3]
    receipts = [e.payload for e in events if e.step == 4]
    proof = encode_proof(system.procs[3].proof)
    content = intent_content(1, 3, 5, proof)
    assert len(system.procs[3].proof) == 11 and len(receipts) == 16
    assert {len(r) for r in system.procs[3].proof} == {RECEIPT_BYTES}
    assert {len(r) for r in receipts} == {
        len(enc_bytes(receipt_content(1, 3, 5))) + 16} == {RECEIPT_BYTES}
    assert len(proof) == 12 + 11 * (4 + RECEIPT_BYTES)
    assert {len(i) for i in intents} == {len(enc_bytes(content)) + 16} == {
        INTENT_BYTES}


@pytest.mark.parametrize("signers, forged, granted", [
    (range(5), False, True), (range(5), True, False), (range(4), False, False),
], ids=["quorum", "forged-quorum", "2f-signers"])
def test_only_an_intent_showing_a_quorum_of_receipts_is_countersigned(
        signers, forged, granted):
    # at N=7, f=2 (broadcasters 0..6) process 3 was marked by 0 in round
    # 0 and pays 5 in round 1 with the receipts of ``signers``
    oracle = SignatureOracle()
    broadcaster = QMProcess(1, 7, 2, oracle)
    signing = SignatureOracle() if forged else oracle
    proof = encode_proof(tuple(_signed(receipt_content(0, 0, 3), (b,), signing)
                               for b in signers))
    intent = _signed(intent_content(1, 3, 5, proof), (3,), oracle)
    sends = broadcaster._countersigns(1, [Delivery(3, intent)])
    assert len(sends) == (1 if granted else 0)
    assert broadcaster.countersigned == (1 if granted else GENESIS_ROUND)


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
