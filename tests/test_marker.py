"""Marker ownership: audit rules, quorum solution counts, broadcast solution."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

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
    mask_signers,
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


receipt_messages = st.builds(
    lambda j, payer, target: enc_bytes(receipt_content(j, payer, target,
                                                       j - 1)),
    st.integers(-1, 9), st.integers(0, 15), st.integers(0, 15))
certificates = st.tuples(
    st.lists(st.integers(0, 40), unique=True, max_size=7).map(
        lambda signers: tuple(sorted(signers))),
    receipt_messages | st.binary(max_size=24).map(enc_bytes))


@given(certificates)
def test_receipt_proof_codec_round_trip(certificate):
    signers, message = certificate
    mask, decoded = decode_proof(encode_proof(signers, message))
    assert mask == sum(1 << signer for signer in signers)
    assert (mask_signers(mask), decoded) == (
        certificate if signers else ((), b""))


@settings(max_examples=300, deadline=None)
@given(certificates, st.lists(st.tuples(st.integers(min_value=0),
                                        st.integers(1, 255)), max_size=3),
       st.none() | st.tuples(st.integers(min_value=0), st.integers(min_value=0)))
def test_every_accepted_proof_encodes_back_to_itself(certificate, flips, cut):
    """Flipped and cut certificates are accepted only when they re-encode
    to their own bytes, and a certificate whose mask has a leading zero
    byte or is missing, or whose message is cut, is refused."""
    signers, message = certificate
    proof = encode_proof(signers, message)
    data = bytearray(proof)
    for position, flip in flips:
        if data:
            data[position % len(data)] ^= flip
    if cut is not None:
        start, end = sorted(c % (len(data) + 1) for c in cut)
        del data[start:end]
    data = bytes(data)
    try:
        decoded = decode_proof(data)
    except CodecError:
        decoded = None
    if decoded is not None:
        mask, decoded_message = decoded
        assert encode_proof(mask_signers(mask), decoded_message) == data
    if signers:
        mask = proof[len(message):]
        for bad in (message, message + b"\x00" + mask, message[:-1],
                    message[:3]):
            with pytest.raises(CodecError):
                decode_proof(bad)


@given(certificates, st.integers(min_value=0, max_value=63), st.integers(-9, 99))
def test_cached_decodes_equal_fresh_parses(certificate, payer, target):
    proof = encode_proof(*certificate)
    for payload, tag, fields in (
            (intent_content(3, payer, target, proof), INTENT, 3),
            (receipt_content(3, payer, target, 2), RECEIPT, 4),
            (receipt_content(3, payer, target, 2), RECEIPT, 3),
            (receipt_content(3, payer, target, 2), INTENT, 3),
            (proof, RECEIPT, 4)):
        assert parse_typed(payload, tag, fields) == \
            parse_typed.__wrapped__(payload, tag, fields)


def test_a_malformed_proof_raises_on_every_call():
    message = enc_bytes(receipt_content(0, 0, 4, GENESIS_ROUND))
    proof = encode_proof(range(5), message)
    assert proof == message + b"\x1f"
    for bad in (b"\x00", b"\x00\x00\x00\x00", message, message + b"\x00",
                message + b"\x00\x1f", message[:-1] + b"\x1f", proof[1:],
                proof[4:]):
        for _ in range(2):
            with pytest.raises(CodecError):
                decode_proof(bad)


def test_a_negative_signer_id_cannot_be_written():
    """A mask has no bit for a negative id, so the codec refuses to write
    one instead of writing another certificate."""
    message = enc_bytes(receipt_content(0, 0, 4, GENESIS_ROUND))
    for signers in ((-1,), (0, 1, -2, 3)):
        with pytest.raises(ConfigFault):
            encode_proof(signers, message)


# Base oracle checks of the twenty rounds below, one per signer asked
# about alone or in a batch.  The shared tables save encoding, parsing and
# hashing, never a question to the oracle, so no table may move this count;
# only a rule may.  A proof holds 2f+1 = 11 signers, so each broadcaster
# asks about 11 signers a proof, and a target asks about its receipts'
# signers in ascending order and stops at the 11th valid one of the 16.
QUORUM_BANK_VERIFIES = 37987


def test_twenty_quorum_bank_rounds_ask_the_oracle_as_often_as_before(
        monkeypatch):
    asked = []
    verify, verify_all = SignatureOracle.verify, SignatureOracle.verify_all

    def counted(oracle, signer, content):
        asked.append(signer)
        return verify(oracle, signer, content)

    def counted_all(oracle, signers, content):
        asked.extend(signers)
        return verify_all(oracle, signers, content)

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
# 64 intents of 281 bytes, each with a certificate of 2f+1 = 11 signers;
# both tables peak at 17,984 bytes here, and the cap leaves 11 % above
# that (55,232 while a proof carried its receipts whole, 181,248 while
# every countersignature carried a copy of the bytes it signed).  With
# 512 entries a table held up to 0.75 MB, which raised the benchmark's
# bank-quorum peak RSS from 42.8 to 48.9 MB, past its 10 % bound.
SIGNING_TABLE_BYTES = 20_000


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


def _reference_proof_round(proc, payer, proof):
    """The proof check read from the certificate's layout alone: the
    empty proof, or the receipt message and then the mask, whose bits are
    read one by one, each signer checked on its own, and no shared
    table."""
    if not proof:
        return GENESIS_ROUND if payer == proc.genesis_holder else None
    try:
        content = simnet.ByteReader(proof).read_bytes()
    except CodecError:
        return None
    message, mask = proof[:4 + len(content)], proof[4 + len(content):]
    if not mask or mask[0] == 0:
        return None
    bits = int.from_bytes(mask, "big")
    signers = [i for i in range(8 * len(mask)) if bits >> i & 1]
    fields = parse_typed.__wrapped__(content, RECEIPT, 4)
    if fields is None or fields[2] != payer or len(signers) < 2 * proc.f + 1:
        return None
    for signer in signers:
        if signer not in proc.broadcasters or not proc.oracle.verify(signer,
                                                                     message):
            return None
    return fields[0]


# Edits of a certificate of round 1 that hands the marker from 2 to 4
# (the checking processes run at N=10, f=2, broadcasters 0..6).  A
# borrowed signature is one the oracle issued for another receipt
# message, an outsider is process 7, 8 or 9 and a far outsider an id past
# every process, each of whom signed the message, a leading zero is a
# zero byte put before the mask, and a message without its claimed round
# is one chunk that is no receipt message.
PROOF_EDITS = ("wrong-holder", "other-round", "leading-zero", "outsider",
               "far-outsider", "unsigned", "other-nonce",
               "borrowed-signature", "malformed-message", "malformed-proof",
               "no-claim")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), unique=True, max_size=7),
       st.lists(st.tuples(st.sampled_from(PROOF_EDITS), st.integers(0, 99)),
                max_size=3),
       st.sampled_from((4, 0)))
@example(list(range(5)), [("no-claim", 0)], 4)
@example(list(range(5)), [("unsigned", 1)], 4)
@example(list(range(5)), [("far-outsider", 1)], 4)
@example(list(range(5)), [("leading-zero", 0)], 4)
def test_the_proof_check_equals_the_per_receipt_reference(signers, edits,
                                                          payer):
    base = SignatureOracle()
    nonce, other = nonce_for(0), nonce_for(1)
    signers = sorted(signers)
    scopes = {signer: nonce for signer in signers}
    round_index, holder, cut = 1, 4, None
    for edit, k in edits:
        signer = signers[k % len(signers)] if signers else None
        if edit == "wrong-holder":
            holder = 3
        elif edit == "other-round":
            round_index = 0
        elif edit in ("malformed-message", "leading-zero"):
            cut = edit
        elif edit == "malformed-proof":
            cut = "proof"
        elif edit == "no-claim":
            cut = "claim"
        elif edit == "far-outsider":
            scopes[10 + k] = nonce
            signers.append(10 + k)
        elif signer is None:
            continue
        elif edit == "outsider":
            scopes[7 + k % 3] = nonce
            signers[signers.index(signer)] = 7 + k % 3
        else:
            scopes[signer] = {"unsigned": None, "other-nonce": other}.get(
                edit, edit)
    message = enc_bytes(receipt_content(round_index, 2, holder, 0))
    for signer, scope in scopes.items():
        if scope == "borrowed-signature":
            ScopedOracle(base, nonce).sign(
                signer, enc_bytes(receipt_content(round_index, 2, 5, 0)))
        elif scope is not None:
            ScopedOracle(base, scope).sign(signer, message)
    if cut == "claim":
        message = enc_bytes(receipt_content(round_index, 2, holder, 0)[:-12])
        for signer in signers:
            ScopedOracle(base, nonce).sign(signer, message)
    proof = encode_proof(signers, message[:-1] if cut == "malformed-message"
                         else message)
    if cut == "proof":
        proof = proof[:-1]
    elif cut == "leading-zero" and proof:
        proof = message + b"\x00" + proof[len(message):]
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
    proof = encode_proof(*bank.hosts[4].instances[nonce].proof)
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
    assert set(decoded) == {encode_proof((), b"")}
    marker._proof_seeds.clear()
    for (proof, f), summary in seeded:
        assert len(summary[2]) >= 2 * bank.f + 1 and f == bank.f
        assert summary == summarize_proof.__wrapped__(proof, f)
    # a proof never seeded is summarised from its bytes
    summarize_proof.cache_clear()
    (proof, f), summary = seeded[-1]
    decoded.clear()
    fresh = summarize_proof(proof, f)
    assert fresh == summary and fresh is not summary
    assert decoded == [proof]


def _kept_proofs_hold_2f_plus_1_receipts(procs, f, all_honest):
    """Every process of ``procs`` that accepted a handoff keeps exactly
    2f+1 receipts, and the facts its intent seeds, its marked round, its
    id and its certificate, are the ones read from the proof's bytes; in
    an all honest run its signers are the 2f+1 lowest broadcasters.
    Returns how many processes were checked."""
    holders = [p for p in procs if p.proof[0]]
    for proc in holders:
        assert len(proc.proof[0]) == 2 * f + 1
        marker._proof_seeds.clear()
        assert summarize_proof.__wrapped__(encode_proof(*proc.proof), f) == \
            (proc.marked_round, proc.n, *proc.proof)
        if all_honest:
            assert proc.proof[0] == tuple(sorted(proc.broadcasters)[:2 * f + 1])
    assert all(p.proof[0] for p in procs
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
    assert len(systems) == 8 and checked > 0


def _claim(oracle, r: int, claimed: int, payer: int, target: int) -> Delivery:
    """At N=7, f=2: the intent of round ``r`` in which ``payer`` pays
    ``target``, showing the certificate of broadcasters 0..4 that handed
    it the marker in round ``claimed``, or the empty proof of the genesis
    holder, process 0, at GENESIS_ROUND."""
    proof = encode_proof((), b"")
    if claimed != GENESIS_ROUND:
        message = enc_bytes(receipt_content(claimed, 6, payer, claimed - 1))
        for b in range(5):
            oracle.sign(b, message)
        proof = encode_proof(tuple(range(5)), message)
    return Delivery(payer, _signed(intent_content(r, payer, target, proof),
                                   (payer,), oracle))


def _countersigned(proc, history) -> list[tuple[int, int, int, int]]:
    """Deliver to broadcaster ``proc`` each (round, claimed round, payer,
    target) of ``history`` in round order, its claim at most the round
    before, and return the ones it countersigned."""
    granted = []
    for r, back, payer, target in sorted(history, key=lambda entry: entry[0]):
        claimed = max(r - 1 - back, GENESIS_ROUND)
        claim = _claim(proc.oracle, r, claimed, payer, target)
        if proc._countersigns(r, [claim]):
            granted.append((r, claimed, payer, target))
    return granted


countersign_histories = st.lists(st.tuples(
    st.integers(0, 6), st.integers(0, 3), st.integers(0, 3),
    st.integers(0, 3)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(countersign_histories, st.integers(-1, 7), st.integers(0, 3),
       st.integers(0, 6))
def test_freshness_read_from_the_tail_equals_the_whole_history(
        history, claimed, payer, target):
    """A broadcaster countersigns a claim of round ``claimed`` exactly when
    every claim it countersigned before is of an earlier round: the last
    claimed round it countersigned answers for its whole history, and a
    claim shown before, or a stale one, is refused whatever its round."""
    proc = QMProcess(1, 7, 2, SignatureOracle())
    granted = _countersigned(proc, history)
    if claimed == GENESIS_ROUND:
        payer = 0
    r = max([claimed, *(j for j, _, _, _ in history)]) + 1
    sends = proc._countersigns(r, [_claim(proc.oracle, r, claimed, payer,
                                          target)])
    assert len(sends) == all(c < claimed for _, c, _, _ in granted)


@settings(max_examples=200, deadline=None)
@given(countersign_histories, st.integers(-1, 7), st.integers(0, 3))
def test_the_latest_round_of_countersigns_answers_as_all_of_them(
        countersigned, claimed, payer):
    """A broadcaster countersigns each claimed round at most once and only
    after every claim it countersigned, keeps the last claimed round it
    countersigned, and answers every later claim as a twin that
    countersigned that claim alone."""
    proc, twin = (QMProcess(1, 7, 2, SignatureOracle()) for _ in range(2))
    granted = _countersigned(proc, countersigned)
    expected, last = [], GENESIS_ROUND - 1
    for r, back, payer_, target in sorted(countersigned,
                                          key=lambda entry: entry[0]):
        j = max(r - 1 - back, GENESIS_ROUND)
        # a genesis claim needs the genesis holder
        if j > last and (j > GENESIS_ROUND or payer_ == 0):
            expected.append((r, j, payer_, target))
            last = j
    assert granted == expected
    assert proc.countersigned == last
    assert _countersigned(twin, [(r, r - 1 - j, p, t)
                                 for r, j, p, t in granted[-1:]]) == granted[-1:]
    if claimed == GENESIS_ROUND:
        payer = 0
    r = max([claimed, *(j for j, _, _, _ in countersigned)]) + 1
    claim = [_claim(proc.oracle, r, claimed, payer, 4)]
    twin.oracle = proc.oracle
    assert len(proc._countersigns(r, claim)) == len(twin._countersigns(r, claim))


def test_a_broadcaster_keeps_only_its_latest_round_of_countersigns():
    """Over twenty rounds of a quorum bank, each broadcaster of each unit
    keeps one integer, the claimed round of the last intent it
    countersigned, read from the transcript: the round its payer was
    marked in, shown by the intent's proof and named by the receipt."""
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(3)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []
    claims, latest = {}, {}
    for e in bank.net.transcript.events:
        content, nonce = simnet.split_payload(e.payload)
        receipt = marker.read_receipt(content)
        if receipt is None:
            r, payer, target, proof = parse_typed(
                SignedMessage.from_bytes(content).payload, INTENT, 3)
            claims[nonce, r, payer, target] = summarize_proof(proof, bank.f)[0]
        else:
            # the receipt names the round its intent's proof claimed
            claimed = receipt[3]
            assert claimed == claims[(nonce, *receipt[:3])]
            latest[e.sender, nonce] = max(
                latest.get((e.sender, nonce), GENESIS_ROUND - 1), claimed)
    kept = {(host.n, nonce): host.instances[nonce].countersigned
            for host in bank.hosts for nonce in bank.nonces}
    assert len(latest) > 0 and set(map(type, kept.values())) == {int}
    assert kept == {key: latest.get(key, GENESIS_ROUND - 1) for key in kept}


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
    intent = intent_content(0, 0, 4, encode_proof((), b""))
    signing = SignatureOracle() if forged else oracle
    sends = broadcaster._countersigns(
        0, [Delivery(0, _signed(intent, signers, signing))])
    assert len(sends) == (1 if granted else 0)
    assert broadcaster.countersigned == (
        GENESIS_ROUND if granted else GENESIS_ROUND - 1)


def _receipts(oracle, signers, r=0, payer=0, target=4):
    """Receipts of ``signers`` for the handoff of round ``r`` from
    ``payer``, which claimed the round before."""
    return [Delivery(b, _signed(receipt_content(r, payer, target, r - 1), (b,),
                                oracle)) for b in signers]


@pytest.mark.parametrize("signers, forged, read", [
    ((2,), False, True), ((), False, False), ((2, 3), False, False),
    ((9,), False, False), ((2,), True, False),
], ids=["broadcaster", "unsigned", "two-signers", "not-a-broadcaster",
        "forged"])
def test_only_a_receipt_signed_by_one_broadcaster_is_read(signers, forged,
                                                          read):
    """Target 4 holds 2f = 4 good receipts, so the one under test marks
    it exactly when it is read."""
    oracle = SignatureOracle()
    proc = QMProcess(4, 10, 2, oracle)  # broadcasters 0..6
    signing = SignatureOracle() if forged else oracle
    wire = _signed(receipt_content(0, 0, 4, GENESIS_ROUND), signers, signing)
    proc._accept(0, _receipts(oracle, (0, 1, 5, 6)) + [Delivery(2, wire)])
    assert proc.marked == read
    message = enc_bytes(receipt_content(0, 0, 4, GENESIS_ROUND))
    assert proc.proof == (((0, 1, 2, 5, 6), message) if read else ((), b""))


def test_a_receipt_whose_entry_signed_another_rounds_receipt_is_refused():
    """Broadcasters 0..4 did countersign the receipt message of round 0
    for 0 -> 4, and their entries are put under the payload of round 1,
    carrying the bytes they signed: the oracle issued those signatures, so
    only the layout check, which takes the signed bytes to be those
    before the entry, refuses them, and a certificate naming them as
    signers of round 1's message is refused too."""
    oracle = SignatureOracle()
    proc = QMProcess(4, 10, 2, oracle)  # broadcasters 0..6
    signed = _receipts(oracle, range(5))
    old, new = (enc_bytes(receipt_content(j, 0, 4, j - 1)) for j in (0, 1))
    moved = [Delivery(b, new + enc_int(b) + enc_bytes(old)) for b in range(5)]
    assert all(oracle.verify(b, old) for b in range(5))
    assert marker.read_receipt(signed[2].payload) == (0, 0, 4, -1, 2, old)
    assert marker.read_receipt(moved[2].payload) is None
    proc._accept(1, moved)
    assert not proc.marked
    proc._accept(0, signed)
    assert proc.marked and proc.proof == (tuple(range(5)), old)
    assert proc._proof_round(4, encode_proof(tuple(range(5)), old)) == 0
    assert proc._proof_round(4, encode_proof(tuple(range(5)), new)) is None


class _Asked(SignatureOracle):
    """An oracle over ``base``'s registry that records whom it is asked
    about, alone or in a batch."""

    def __init__(self, base):
        super().__init__()
        self._issued = base._issued
        self.asked = []

    def verify(self, signer, content):
        self.asked.append(signer)
        return super().verify(signer, content)

    def verify_all(self, signers, content):
        self.asked.extend(signers)
        return super().verify_all(signers, content)


def test_a_receipt_of_another_round_or_target_marks_nobody():
    """Quorums of good receipts for round 0 shown in round 1, and for
    target 5 shown to 4, are dropped before the oracle is asked."""
    oracle = SignatureOracle()
    stale = _receipts(oracle, range(7))
    elsewhere = _receipts(oracle, range(7), r=1, target=5)
    proc = QMProcess(4, 10, 2, _Asked(oracle))  # broadcasters 0..6
    proc._accept(1, stale + elsewhere)
    assert not proc.marked and proc.markings == [] and proc.oracle.asked == []


# receipt kinds -> (payer, round, claimed round) of the receipt
INBOX_KINDS = {"good": (2, 1, 0), "forged": (2, 1, 0), "other-payer": (3, 1, 0),
               "other-claim": (2, 1, GENESIS_ROUND), "other-round": (2, 0, 0)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from(
    sorted(INBOX_KINDS))), max_size=14))
@example([(0, "forged"), *((b, "good") for b in range(1, 7))])
def test_an_inbox_keeps_the_lowest_2f_plus_1_valid_signers(receipts):
    """Receipts of round 1 to target 4 at N=10, f=2 (broadcasters 0..6),
    forged, from payer 3 instead of 2, naming the genesis claim instead of
    round 0, or of round 0: the target takes their messages in (payer,
    claimed round) order, keeps the lowest 2f+1 valid signers of the first
    that has them, passes over a message of fewer than 2f+1 broadcaster
    signers without a question, and asks the oracle about each other
    message's broadcaster signers in ascending order, up to the (2f+1)-th
    valid one.  The reference checks every receipt of each message it
    asks about."""
    oracle, forger = SignatureOracle(), SignatureOracle()
    inbox, candidates = [], {}
    for signer, kind in receipts:
        payer, r, claimed = INBOX_KINDS[kind]
        signing = forger if kind == "forged" else oracle
        content = receipt_content(r, payer, 4, claimed)
        inbox.append(Delivery(signer, _signed(content, (signer,), signing)))
        if r == 1 and signer < 7:
            candidates.setdefault((payer, claimed), set()).add(signer)
    proc = QMProcess(4, 10, 2, _Asked(oracle))
    proc._accept(1, inbox)
    asked, kept = [], ((), b"")
    for (payer, claimed), signers in sorted(candidates.items()):
        if len(signers) < 5:
            continue
        message = enc_bytes(receipt_content(1, payer, 4, claimed))
        valid = [b for b in sorted(signers) if oracle.verify(b, message)]
        if len(valid) >= 5:
            asked += [b for b in sorted(signers) if b <= valid[4]]
            kept = (tuple(valid[:5]), message)
            break
        asked += sorted(signers)
    assert proc.oracle.asked == asked
    assert proc.marked == bool(kept[0]) and proc.proof == kept


def test_a_short_receipt_group_costs_the_target_no_question():
    """Corrupted payer 1, whose intent 2f = 4 broadcasters countersigned,
    can give target 4 no quorum, so its receipts cost no oracle question,
    alone or before the 2f+1 receipts of payer 2's handoff, which are
    asked about and mark the target."""
    oracle = SignatureOracle()
    short = _receipts(oracle, range(4), r=1, payer=1)
    proc = QMProcess(4, 10, 2, _Asked(oracle))  # broadcasters 0..6
    proc._accept(1, short)
    assert not proc.marked and proc.oracle.asked == []
    proc._accept(1, short + _receipts(oracle, range(2, 7), r=1, payer=2))
    assert proc.oracle.asked == [2, 3, 4, 5, 6]
    assert proc.markings == [Marking(1, 4, 2)]


def test_a_mebibyte_mask_is_refused_before_it_names_an_id():
    """Payer 3 signs an intent whose proof is a receipt message and a
    1 MiB all-ones mask, which names 8,388,608 ids, and broadcaster 1 at
    N=7, f=2 reads it from the wire, past every table: it is refused, the
    oracle is asked about the intent's signature and nothing else, the
    summary kept is None, and the call's tracemalloc peak stays within a
    small multiple of the wire, where 8 Mi ids would take some 300."""
    oracle = SignatureOracle()
    message = enc_bytes(receipt_content(0, 0, 3, GENESIS_ROUND))
    proof = message + b"\xff" * 2**20
    wire = SignedMessage(intent_content(1, 3, 5, proof)).signed_by(
        oracle, 3).to_bytes()
    simnet._signed_seeds.clear()
    proc = QMProcess(1, 7, 2, _Asked(oracle))
    tracemalloc.start()
    try:
        sends = proc._countersigns(1, [Delivery(3, wire)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sends == [] and proc.oracle.asked == [3]
    assert proc.countersigned == GENESIS_ROUND - 1
    assert summarize_proof(proof, 2) is None
    assert summarize_proof.cache_info().currsize == 1
    assert peak < 8 * len(wire)


# An intent at N=16, f=5 and its proof of 2f+1 = 11 receipts: a receipt
# is the receipt message enc_bytes(receipt_content), 63 bytes, and a
# 16-byte entry; the certificate holds that message once and a 2-byte
# mask of its signers among the 16 broadcasters.  A receipt of 79 bytes
# and an intent of 70 bytes and its proof, 70 + 63 + 2 = 135.  While the
# certificate named each signer by a 12-byte id behind a 12-byte count,
# 149 + 12k bytes for k signers, 281 at k = 11; while a receipt left out
# the claimed round, 11 whole receipts of 67 bytes made it
# 82 + 71k = 863, and copies of the signed bytes 2,832.
RECEIPT_BYTES = 79
INTENT_BYTES = 135


def test_an_intent_and_its_receipts_have_the_stated_sizes():
    system = MarkerSystem(QMProcess, 16, 5)
    system.run_round({0: 3})
    first = len(system.net.transcript.events)
    system.run_round({3: 5})
    events = system.net.transcript.events[first:]
    # the intents go out at step 3, the receipts at step 4
    intents = [e.payload for e in events if e.step == 3]
    receipts = [e.payload for e in events if e.step == 4]
    signers, message = system.procs[3].proof
    proof = encode_proof(signers, message)
    content = intent_content(1, 3, 5, proof)
    assert len(signers) == 11 and len(receipts) == 16
    assert message == enc_bytes(receipt_content(0, 0, 3, GENESIS_ROUND))
    assert {len(r) for r in receipts} == {
        len(enc_bytes(receipt_content(1, 3, 5, 0))) + 16} == {RECEIPT_BYTES}
    assert proof == message + b"\x07\xff"
    assert {len(i) for i in intents} == {len(enc_bytes(content)) + 16} == {
        70 + 63 + 2} == {INTENT_BYTES}


@pytest.mark.parametrize("signers, forged, granted", [
    (range(5), False, True), (range(5), True, False), (range(4), False, False),
], ids=["quorum", "forged-quorum", "2f-signers"])
def test_only_an_intent_showing_a_quorum_of_receipts_is_countersigned(
        signers, forged, granted):
    # at N=7, f=2 (broadcasters 0..6) process 3 was marked by 0 in round
    # 0 and pays 5 in round 1 with the certificate of ``signers``
    oracle = SignatureOracle()
    broadcaster = QMProcess(1, 7, 2, oracle)
    signing = SignatureOracle() if forged else oracle
    message = enc_bytes(receipt_content(0, 0, 3, GENESIS_ROUND))
    for b in signers:
        signing.sign(b, message)
    proof = encode_proof(tuple(signers), message)
    intent = _signed(intent_content(1, 3, 5, proof), (3,), oracle)
    sends = broadcaster._countersigns(1, [Delivery(3, intent)])
    assert len(sends) == (1 if granted else 0)
    assert broadcaster.countersigned == (0 if granted else GENESIS_ROUND - 1)


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
