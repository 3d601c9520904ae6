"""Network fabric: codecs, signatures, delivery timing, bookkeeping."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import shared_tables
from hypothesis import example, given, strategies as st

from lockstep import marker, simnet
from lockstep.adversary import JunkAdversary
from lockstep.cancel import BRUTEFORCE_LIMIT
from lockstep.cyclecoin import (
    KIND_CHAIN,
    KIND_QUERY,
    Record,
    TAG_BASE,
    TAG_PATH,
    decode_records,
    encode_records,
    wire,
)
from lockstep.marker import (
    RECEIPT,
    QMProcess,
    encode_proof,
    receipt_content,
    summarize_proof,
)
from lockstep.payments import Bank
from lockstep.simnet import (
    PRIOR,
    Adversary,
    ByteReader,
    CoalitionOracle,
    CodecError,
    ConfigFault,
    MetricsLedger,
    Network,
    Process,
    ScopedOracle,
    Send,
    SignatureOracle,
    SignedMessage,
    TranscriptEvent,
    enc_bytes,
    enc_int,
    enc_str,
    seeded_rng,
    split_payload,
    tag_payload,
)


@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_int_codec_round_trip(value):
    assert ByteReader(enc_int(value)).read_int() == value


@given(st.binary(max_size=64), st.text(max_size=32))
def test_chunk_codec_round_trip(data, text):
    reader = ByteReader(enc_bytes(data) + enc_str(text))
    assert reader.read_bytes() == data
    assert reader.read_str() == text
    assert reader.at_end()


def test_reader_rejects_truncation():
    data = enc_bytes(b"abcdef")
    with pytest.raises(CodecError):
        ByteReader(data[:-2]).read_bytes()
    with pytest.raises(CodecError):
        ByteReader(b"\x00\x00").read_bytes()


@given(st.binary(max_size=48), st.binary(max_size=16))
def test_nonce_tagging_round_trip(content, nonce):
    assert split_payload(tag_payload(content, nonce)) == (content, nonce)


@given(st.binary(max_size=48), st.binary(max_size=16))
def test_tags_and_splits_from_the_tables_equal_fresh_ones(content, nonce):
    tagged = tag_payload(content, nonce)
    assert tagged == tag_payload.__wrapped__(content, nonce)
    # equal arguments, other objects: the same result object
    assert tag_payload(bytes(bytearray(content)), bytes(bytearray(nonce))) is tagged
    split = split_payload(tagged)
    assert split == split_payload.__wrapped__(tagged) == (content, nonce)
    assert split_payload(bytes(bytearray(tagged))) is split


def _signed(k):
    msg = SignedMessage(enc_int(k)).signed_by(SignatureOracle(), 0)
    return msg.to_bytes(), msg


def _encoded(k):
    chain = (Record(TAG_BASE, k),)
    return encode_records(chain), chain


def _shown(k):
    """A holder marked in round k by a one-signer proof shows it in an
    intent, which seeds the facts it knows."""
    proc = QMProcess(0, 4, 1, SignatureOracle())
    proc.proof = ((0,), enc_bytes(receipt_content(k, 0, 0, k - 1)))
    proc.marked_round = k
    proc.pending[k] = 1
    proc._intent_sends(k)
    key = (encode_proof(*proc.proof), proc.f)
    seeded = marker._proof_seeds[key]
    assert seeded == (k, 0, *proc.proof)
    return key, seeded


# Each table's flood: the arguments of its k-th distinct call, and the
# arguments of a call that raises and so must keep nothing, or None.  A
# Seeds flood names its producer, which returns the (key, value) it
# seeded, the malformed bytes its decoder raises on, or None when the
# decoder answers them without raising, and the decoder that reads it.
LRU_FLOODS = {
    "simnet.tag_payload": (lambda k: (enc_int(k), b"unit"), None),
    "simnet.split_payload": (
        lambda k: (tag_payload.__wrapped__(enc_int(k), b"unit"),),
        (enc_bytes(b"abc"),)),
    "simnet.SignedMessage.from_bytes": (
        lambda k: (SignedMessage, SignedMessage(enc_int(k)).to_bytes()),
        (SignedMessage, b"\x00\x00")),
    "marker.receipt_message": (lambda k: (k, 0, 1, k - 1), None),
    "marker.parse_typed": (
        lambda k: (receipt_content(k, 0, 1, k - 1), RECEIPT, 4), None),
    "marker.summarize_proof": (
        lambda k: (encode_proof(
            (0,), enc_bytes(receipt_content(k, 0, 1, k - 1))), 0), None),
    "cyclecoin.parse_wire": (
        lambda k: (wire(KIND_QUERY, (Record(TAG_BASE, k),)),),
        (wire(KIND_CHAIN, ())[:-1],)),
    "cyclecoin._parse_record": (lambda k: (Record(TAG_PATH, 10**6 + k).enc,),
                                (Record("z", 1).enc,)),
}
SEEDS_FLOODS = {
    "simnet._signed_seeds": (
        _signed, lambda: b"\x00\x00", SignedMessage.from_bytes),
    "cyclecoin._encodings": (
        _encoded,
        lambda: encode_records((Record(TAG_BASE, 0), Record("z", 1))),
        decode_records),
    "marker._proof_seeds": (_shown, None, lambda key: summarize_proof(*key)),
}
# built once for every q that pair_bruteforce accepts, never flooded
PERM_TABLES = "cancel._perm_tables"
TABLES = shared_tables()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_shared_table_stays_within_its_cap(name):
    """A flood of distinct inputs fills a table exactly to its cap, a
    Seeds table drops its oldest entry first, and malformed input is
    never kept or seeded.  A table without a flood fails."""
    assert set(TABLES) == {*LRU_FLOODS, *SEEDS_FLOODS, PERM_TABLES}
    table = TABLES[name]
    if isinstance(table, simnet.Seeds):
        produce, bad, read = SEEDS_FLOODS[name]
        made = []
        for k in range(table.cap + 40):
            made.append(produce(k))
            assert len(table) <= table.cap
        assert list(table) == [key for key, _ in made[-table.cap:]]
        for key, value in made[-table.cap:]:
            assert table[key] is value and read(key) is value
        if bad is not None:
            data = bad()
            with pytest.raises(CodecError):
                read(data)
            assert data not in table and len(table) == table.cap
        return
    cap = table.cache_parameters()["maxsize"]
    assert cap is not None
    if name == PERM_TABLES:
        # one entry for each q = 0 .. BRUTEFORCE_LIMIT
        assert cap == BRUTEFORCE_LIMIT + 1
        return
    make, bad = LRU_FLOODS[name]
    for k in range(cap + 40):
        args = make(k)
        assert table(*args) == table.__wrapped__(*args)
        assert table.cache_info().currsize <= cap
    assert table.cache_info().currsize == cap
    if bad is not None:
        for _ in range(2):
            with pytest.raises(CodecError):
                table(*bad)
        assert table.cache_info().currsize == cap


@pytest.mark.parametrize("bad", [
    b"", b"\x00\x00", enc_bytes(b"abc")[:-1], enc_bytes(b"abc"),
    enc_bytes(b"abc") + b"\x01unit"])
def test_a_malformed_split_raises_on_every_call_and_is_never_kept(bad):
    for _ in range(3):
        with pytest.raises(CodecError):
            split_payload(bad)
    assert split_payload.cache_info().currsize == 0


def test_oracle_refuses_honest_forgery():
    oracle = SignatureOracle(frozenset({2}))
    oracle.sign(0, b"fine")
    assert oracle.verify(0, b"fine")
    assert not oracle.verify(1, b"fine")
    assert not oracle.verify(0, b"forged")


def test_signed_message_stack_round_trip():
    oracle = SignatureOracle()
    msg = SignedMessage(b"payload").signed_by(oracle, 0).signed_by(oracle, 1)
    back = SignedMessage.from_bytes(msg.to_bytes())
    assert back == msg
    assert back.signers == (0, 1)
    assert back.verify_stack(oracle)


def test_signed_message_rejects_spliced_stack():
    oracle = SignatureOracle()
    a = SignedMessage(b"one").signed_by(oracle, 0)
    b = SignedMessage(b"two").signed_by(oracle, 1)
    spliced = SignedMessage(b"one", a.stack + b.stack)
    assert not spliced.verify_stack(oracle)


stacks = st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                            st.binary(max_size=12)), max_size=4)


@given(st.binary(max_size=24), stacks)
def test_a_cached_decode_equals_a_fresh_parse(payload, stack):
    wire = SignedMessage(payload, tuple(stack)).to_bytes()
    fresh = SignedMessage.from_bytes.__wrapped__(SignedMessage, wire)
    assert SignedMessage.from_bytes(wire) == fresh
    assert SignedMessage.from_bytes(wire[:1] + wire[1:]) == fresh


def _encoding(payload, stack):
    """A signed message's wire bytes, built from its fields: an entry that
    signed the bytes before it is its signer and the PRIOR mark, any other
    its signer and a copy of its content."""
    wire = enc_bytes(payload)
    for signer, content in stack:
        wire += enc_int(signer) + (PRIOR if content == wire
                                   else enc_bytes(content))
    return wire


int64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


@given(st.binary(max_size=24), st.lists(int64, max_size=5),
       st.lists(st.tuples(int64, st.binary(max_size=12)), max_size=4))
def test_kept_wire_bytes_equal_an_encoding_from_scratch(payload, signers,
                                                        stack):
    oracle = SignatureOracle()
    msg = SignedMessage(payload)
    for signer in signers:
        msg = msg.signed_by(oracle, signer)
        assert msg.to_bytes() == _encoding(msg.payload, msg.stack)
        assert msg.signers == tuple(s for s, _ in msg.stack)
    # a well formed chain and an arbitrary, mostly malformed, stack
    for made in (msg, SignedMessage(payload, tuple(stack))):
        wire = _encoding(made.payload, made.stack)
        assert made.to_bytes() == wire
        parsed = SignedMessage.from_bytes(wire)
        assert parsed == made and parsed.signers == made.signers
        assert parsed.to_bytes() == _encoding(parsed.payload, parsed.stack)


def test_a_relay_chain_grows_by_sixteen_bytes_a_signer():
    """A Dolev-Strong relay of one integer P at k = 1..7 signatures takes
    |P| + 4 + 16k bytes, where a copy of each signed prefix took
    2^k(|P| + 4) + 16(2^k - 1)."""
    oracle, value = SignatureOracle(), enc_int(1)
    chain = SignedMessage(value)
    sizes = []
    for k in range(1, 8):
        chain = chain.signed_by(oracle, k)
        assert len(chain.to_bytes()) == len(value) + 4 + 16 * k
        sizes.append(len(chain.to_bytes()))
        assert SignedMessage.from_bytes.__wrapped__(
            SignedMessage, chain.to_bytes()).verify_stack(oracle)
    assert sizes == [32, 48, 64, 80, 96, 112, 128]


# Stack entries over few signers, each written as the mark, as a copy of
# the bytes before it where the mark belongs, or as other content: empty,
# a near copy, a prefix of the wire, or any bytes.
entry_forms = st.lists(st.tuples(
    st.integers(0, 3),
    st.sampled_from(("prior", "copy", "empty", "longer", "shorter", "any")),
    st.binary(max_size=6)), max_size=5)


@given(st.binary(max_size=12), entry_forms,
       st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)),
                max_size=3),
       st.none() | st.integers(0, 200))
def test_every_accepted_wire_encodes_back_to_itself(payload, entries, flips,
                                                    cut):
    """Any stack, the malformed ones included, decodes from its wire to an
    equal message.  Whatever bytes from_bytes accepts, the message it
    returns encodes to those bytes again, from scratch as well as kept; a
    copy of the wire before an entry where the mark belongs is refused, so
    an honest relay never countersigns bytes its peers re-encode
    otherwise."""
    wire, stack = enc_bytes(payload), []
    for signer, form, data in entries:
        content = {"prior": wire, "copy": wire, "empty": b"",
                   "longer": wire + data, "shorter": wire[:-1],
                   "any": data}[form]
        stack.append((signer, content))
        wire += enc_int(signer) + (PRIOR if form == "prior"
                                   else enc_bytes(content))
    made = SignedMessage(payload, tuple(stack))
    back = SignedMessage.from_bytes.__wrapped__(SignedMessage, made.to_bytes())
    assert back == made and back.signers == made.signers
    # the wire as written, copies and all, then flipped and cut
    data = bytearray(wire)
    for at, value in flips:
        if at < len(data):
            data[at] = value
    data = bytes(data if cut is None else data[:cut])
    read = _read_any(data)
    try:
        parsed = SignedMessage.from_bytes.__wrapped__(SignedMessage, data)
    except CodecError:
        # refused only where the bytes do not read, or hold a copy
        assert read is None or read[2]
        return
    assert read == (parsed.payload, parsed.stack, 0)
    assert parsed.to_bytes() == data
    assert SignedMessage(parsed.payload, parsed.stack).to_bytes() == data
    assert _encoding(parsed.payload, parsed.stack) == data


def _read_any(data):
    """(payload, stack, copies) of ``data`` read entry by entry, where
    ``copies`` counts the entries that copy the bytes before them in
    full, taken as they stand; None when the bytes do not read."""
    reader = ByteReader(data)
    try:
        payload, stack, copies = reader.read_bytes(), [], 0
        while not reader.at_end():
            start = reader.tell()
            signer = reader.read_int()
            if reader.read_prior():
                content = data[:start]
            else:
                content = reader.read_bytes()
                copies += content == data[:start]
            stack.append((signer, content))
    except CodecError:
        return None
    return payload, tuple(stack), copies


def test_malformed_bytes_raise_on_every_call():
    for calls in (1, 2):
        with pytest.raises(CodecError):
            SignedMessage.from_bytes(b"\x00\x00")
        assert SignedMessage.from_bytes.cache_info().misses == calls
    assert SignedMessage.from_bytes.cache_info().currsize == 0


def test_no_oracle_verdict_is_shared():
    oracle = SignatureOracle()
    content = enc_bytes(b"payload")
    wire = SignedMessage(b"payload", ((3, content),)).to_bytes()
    shared = SignedMessage.from_bytes(wire)
    assert not shared.verify_stack(oracle)
    oracle.sign(3, content)
    assert SignedMessage.from_bytes(wire) is shared
    assert shared.verify_stack(oracle)
    assert not shared.verify_stack(SignatureOracle())


def test_a_spliced_stack_stays_rejected_after_its_content_is_signed():
    oracle = SignatureOracle()
    a = SignedMessage(b"one").signed_by(oracle, 0)
    foreign = (1, enc_bytes(b"two"))
    wire = SignedMessage(b"one", a.stack + (foreign,)).to_bytes()
    assert not SignedMessage.from_bytes(wire).verify_stack(oracle)
    oracle.sign(*foreign)
    assert not SignedMessage.from_bytes(wire).verify_stack(oracle)


# Few signers and contents, so that batches repeat and overlap.
few_contents = st.sampled_from((b"", b"a", b"b", b"ab"))
few_signers = st.lists(st.integers(0, 3), max_size=6)


@given(st.lists(st.tuples(st.integers(0, 3), few_contents), max_size=6),
       few_signers, few_contents)
@example([(0, b"a")], [0, 1], b"a")
def test_a_batch_verdict_equals_the_verdicts_of_its_pairs(issued, asked,
                                                          content):
    """Over the plain, scoped and coalition oracles, for no, repeated and
    unsigned signers, a batch passes exactly when each (signer, content)
    pair does; no verdict is kept, so a refused batch passes once its
    missing signers sign."""
    for view in (lambda base: base, lambda base: ScopedOracle(base, b"n"),
                 CoalitionOracle):
        oracle = view(SignatureOracle(frozenset(range(4))))
        for signer, signed in issued:
            oracle.sign(signer, signed)
        for signers in (tuple(asked), tuple(sorted(set(asked)))):
            assert oracle.verify_all(signers, content) == all(
                oracle.verify(signer, content) for signer in signers)
        missing = [s for s in asked if not oracle.verify(s, content)]
        assert oracle.verify_all(tuple(asked), content) == (not missing)
        for signer in missing:
            oracle.sign(signer, content)
        assert oracle.verify_all(tuple(asked), content)
        assert oracle.verify_all((), content)


@given(st.binary(max_size=24), st.lists(int64, max_size=5))
def test_a_seeded_decode_equals_a_fresh_parse(payload, signers):
    oracle = SignatureOracle()
    made = [SignedMessage(payload)]
    for signer in signers:
        made.append(made[-1].signed_by(oracle, signer))
    SignedMessage.from_bytes.cache_clear()
    decoded = [SignedMessage.from_bytes(msg.to_bytes()) for msg in made]
    simnet._signed_seeds.clear()
    for msg, got in zip(made, decoded):
        fresh = SignedMessage.from_bytes.__wrapped__(SignedMessage, msg.to_bytes())
        assert got == fresh == msg
        assert got.signers == fresh.signers
        assert got.to_bytes() == fresh.to_bytes()


def test_a_malformed_wire_is_never_seeded_or_kept():
    oracle = SignatureOracle()
    wire = SignedMessage(b"one").signed_by(oracle, 0).to_bytes()
    for bad in (wire[:-1], wire + b"\x00", b"\x00\x00"):
        for _ in range(2):
            with pytest.raises(CodecError):
                SignedMessage.from_bytes(bad)
        assert bad not in simnet._signed_seeds
    assert SignedMessage.from_bytes.cache_info().currsize == 0


class _Recorder:
    """Oracle that answers from a fixed set and logs every question."""

    def __init__(self, known):
        self.known = known
        self.asked = []

    def verify(self, signer, content):
        self.asked.append((signer, content))
        return (signer, content) in self.known


@given(st.binary(max_size=8), st.lists(st.integers(min_value=0, max_value=3),
                                      max_size=4),
       st.sets(st.integers(min_value=0, max_value=4), max_size=5),
       st.integers(min_value=0, max_value=5))
def test_verify_stack_asks_the_oracle_what_the_entry_by_entry_check_asks(
        payload, signers, unsigned, broken):
    msg = SignedMessage(payload)
    for signer in signers:
        msg = SignedMessage(msg.payload,
                            msg.stack + ((signer, msg.to_bytes()),))
    stack = list(msg.stack)
    if broken < len(stack):
        stack[broken] = (stack[broken][0], stack[broken][1] + b"!")
    msg = SignedMessage.from_bytes(SignedMessage(payload, tuple(stack)).to_bytes())
    known = {entry for k, entry in enumerate(stack) if k not in unsigned}

    reference, expected, verdict = _Recorder(known), enc_bytes(payload), True
    for signer, content in stack:
        if content != expected or not reference.verify(signer, content):
            verdict = False
            break
        expected = expected + enc_int(signer) + PRIOR
    for _ in range(2):
        oracle = _Recorder(known)
        assert msg.verify_stack(oracle) is verdict
        assert oracle.asked == reference.asked


def test_scoped_oracle_separates_instances():
    base = SignatureOracle()
    left = ScopedOracle(base, b"left")
    right = ScopedOracle(base, b"right")
    left.sign(3, b"content")
    assert left.verify(3, b"content")
    assert not right.verify(3, b"content")
    assert not base.verify(3, b"content")


@given(st.binary(max_size=80), st.binary(max_size=12),
       st.integers(min_value=0, max_value=7), st.booleans())
def test_a_scoped_verify_asks_the_base_about_the_tagged_content(
        content, nonce, signer, signed):
    known = {(signer, tag_payload(content, nonce))} if signed else set()
    base = _Recorder(known)
    assert ScopedOracle(base, nonce).verify(signer, content) is signed
    assert base.asked == [(signer, tag_payload(content, nonce))]


def test_a_scoped_check_keeps_no_verdict():
    base = SignatureOracle()
    scoped = ScopedOracle(base, b"unit")
    content = enc_str("receipt") + enc_int(7)
    for _ in range(2):
        assert scoped.verify(2, content) is False
    scoped.sign(2, content)
    assert scoped.verify(2, content) is True
    assert ScopedOracle(base, b"other").verify(2, content) is False


class _Pinger(Process):
    """Sends one message to its peer at step 0 and records arrivals."""

    def __init__(self, n, peer):
        super().__init__(n)
        self.peer = peer
        self.arrivals = []

    def register_wakes(self):
        self.net.wake(self.n, 0)

    def step(self, t, inbox):
        for d in inbox:
            self.arrivals.append((t, d.sender, d.payload))
        if t == 0:
            return [Send(self.peer, enc_int(self.n), 1)]
        return []


def test_send_delivered_exactly_one_step_later():
    procs = [_Pinger(0, 1), _Pinger(1, 0)]
    net = Network(procs)
    net.run_until(2)
    assert procs[0].arrivals == [(1, 1, enc_int(1))]
    assert procs[1].arrivals == [(1, 0, enc_int(0))]


def test_metrics_count_honest_sends_only():
    class _Noise(Adversary):
        def act(self, t, net):
            if t == 0:
                return [(1, Send(0, b"junk", 5))]
            return []

    procs = [_Pinger(0, 1), _Pinger(1, 0)]
    net = Network(procs, SignatureOracle(frozenset({1})), _Noise())
    net.run_until(2)
    assert net.metrics.messages() == 1
    assert net.metrics.signatures() == 1
    # the adversarial payload still arrives
    assert (1, 1, b"junk") in procs[0].arrivals


def test_corrupted_inbox_is_observed():
    procs = [_Pinger(0, 1), _Pinger(1, 0)]
    net = Network(procs, SignatureOracle(frozenset({1})), Adversary())
    net.run_until(2)
    seen = [(o.recipient, o.sender, o.payload) for o in net.observed]
    assert (1, 0, enc_int(0)) in seen


class _Chatter(Process):
    """Sends its id to each of ``peers`` at every step up to 3."""

    def __init__(self, n, peers):
        super().__init__(n)
        self.peers = peers

    def register_wakes(self):
        for t in range(4):
            self.net.wake(self.n, t)

    def step(self, t, inbox):
        return [Send(peer, enc_int(self.n)) for peer in self.peers]


def test_an_adversary_hears_each_honest_observation_once():
    """Across steps, ``heard`` hands over every observation whose sender
    is outside the coalition exactly once, in arrival order, and none
    that the coalition sent itself."""
    class _Listener(Adversary):
        def __init__(self):
            self.log = []

        def act(self, t, net):
            self.log.append(self.heard(net))
            return [(3, Send(2, b"own")), (2, Send(3, b"own"))]

    adversary = _Listener()
    net = Network([_Chatter(0, (2, 3)), _Chatter(1, (3,)), Process(2),
                   Process(3)], SignatureOracle(frozenset({2, 3})), adversary)
    net.run_until(5)
    honest = [o for o in net.observed if o.sender not in adversary.corrupted]
    assert len(honest) == 12 and len(net.observed) == 22
    assert [o for heard in adversary.log for o in heard] == honest
    assert [len(heard) for heard in adversary.log] == [0, 3, 3, 3, 3, 0]
    assert adversary.heard(net) == []


def test_transcript_jsonl_shape():
    procs = [_Pinger(0, 1), _Pinger(1, 0)]
    net = Network(procs)
    net.run_until(2)
    lines = net.transcript.to_jsonl().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == {"step", "round", "sender", "recipient",
                          "payload_hex", "n_signatures"}
    assert first["sender"] == 0 and first["recipient"] == 1


def test_metrics_csv_header():
    ledger = MetricsLedger()
    assert ledger.to_csv().splitlines()[0] == "round,messages,signatures"


def test_seeded_rng_reproducible_and_keyed():
    a = seeded_rng(7, 1, 2).integers(0, 1 << 30, 8)
    b = seeded_rng(7, 1, 2).integers(0, 1 << 30, 8)
    c = seeded_rng(7, 2, 1).integers(0, 1 << 30, 8)
    assert list(a) == list(b)
    assert list(a) != list(c)


# Digest of the book, transcript and metrics of the adversarial quorum bank
# run below, as the scheduler produced them before it stopped keeping an
# agenda under an adversary, with countersignatures that mark the bytes
# they sign instead of copying them and proofs that certify the 2f+1
# lowest signers of one receipt message in a bit mask.
JUNK_BANK_DIGEST = "2c10af46d739e4b5b2d58b02465d43eb2b94e9b6ce545705e8c3b44532d0e771"


def test_an_adversarial_run_keeps_its_schedule_bounded():
    bank = Bank(7, 2, [1] * 7, SignatureOracle(frozenset({6})),
                JunkAdversary(seeded_rng(5, 17), 10), family="quorum")
    net = bank.net
    for r in range(40):
        payer, target = r % 6, (r + 1) % 6
        bank.run_round({payer: target} if bank.balances()[payer] else {})
        assert len(net._agenda) <= len(net._pending) + len(net._wakes)
        assert all(step >= net.now for step in [*net._pending, *net._wakes])
    assert bank.audit() == []
    digest = hashlib.sha256()
    digest.update(bank.to_csv().encode())
    digest.update(net.transcript.to_jsonl().encode())
    digest.update(net.metrics.to_csv().encode())
    assert digest.hexdigest() == JUNK_BANK_DIGEST


def test_an_honest_round_puts_each_due_step_on_the_agenda_once(monkeypatch):
    """Whenever a step runs, the agenda holds every other step with a
    delivery or a wake due, each once."""
    bank = Bank(16, 5, [1] * 16, family="quorum")
    execute = Network._execute
    ran = []

    def checked(net, t):
        due = (set(net._pending) | set(net._wakes)) - {t}
        assert sorted(net._agenda) == sorted(due)
        ran.append(t)
        execute(net, t)

    monkeypatch.setattr(Network, "_execute", checked)
    for r in range(6):
        payers = [n for n, balance in bank.balances().items() if balance]
        bank.run_round({payer: (payer + r + 1) % 16 for payer in payers[::2]})
    assert len(ran) == len(set(ran)) == 6 * bank.steps_per_round
    assert bank.audit() == []


class _Moves(Adversary):
    """Plays a fixed map from step to (sender, Send) pairs."""

    def __init__(self, moves):
        self.moves = moves

    def act(self, t, net):
        return [(sender, Send(recipient, payload))
                for sender, recipient, payload in self.moves.get(t, ())]


@pytest.mark.parametrize("recipient", [2, -1])
def test_an_honest_send_outside_the_network_is_refused(recipient):
    net = Network([_Pinger(0, recipient), Process(1)])
    with pytest.raises(ConfigFault, match="out of range"):
        net.run_until(0)


def test_an_adversary_sending_as_an_honest_process_is_refused():
    net = Network([_Pinger(0, 1), Process(1)], SignatureOracle(frozenset({1})),
                  _Moves({0: [(0, 1, b"x")]}))
    with pytest.raises(ConfigFault, match="as honest process 0"):
        net.run_until(0)


def test_an_adversary_speaks_for_the_coalition_its_network_names():
    """An adversary is built without a coalition: attaching it to a
    network hands it the oracle's set, which ``heard`` filters by, and a
    send in the name of any other process is still refused."""
    class _Echo(Adversary):
        def __init__(self):
            self.log = []

        def act(self, t, net):
            heard = self.heard(net)
            self.log.extend((o.sender, o.recipient) for o in heard)
            return [(2, Send(1, b"echo"))] if t == 1 else []

    oracle = SignatureOracle(frozenset({1, 2}))
    echo = _Echo()
    net = Network([_Chatter(0, (1, 2)), Process(1), Process(2)], oracle, echo)
    assert echo.corrupted is oracle.corrupted is net.corrupted
    net.run_until(3)
    # the coalition's own send to 1 arrives, and heard leaves it out
    assert (2, 1) in {(o.sender, o.recipient) for o in net.observed}
    assert echo.log == [(0, 1), (0, 2)] * 3
    rogue = Network([_Pinger(0, 1), Process(1), Process(2)],
                    SignatureOracle(frozenset({2})), _Moves({0: [(1, 0, b"x")]}))
    with pytest.raises(ConfigFault, match="as honest process 1"):
        rogue.run_until(0)


def test_a_wake_in_the_past_is_refused():
    net = Network([_Pinger(0, 1), Process(1)])
    net.run_until(3)
    net.wake(1, 4)
    with pytest.raises(ConfigFault, match="wake in the past"):
        net.wake(1, 2)


class _Scripted(Process):
    """Plays a fixed map from step to sends and records its inboxes."""

    def __init__(self, n, script):
        super().__init__(n)
        self.script = script
        self.inboxes = []

    def register_wakes(self):
        for t in self.script:
            self.net.wake(self.n, t)

    def step(self, t, inbox):
        self.inboxes.append((t, list(inbox)))
        return [Send(*send) for send in self.script.get(t, ())]


class _PerMessage(Network):
    """The scheduler with every message recorded, counted and queued on
    its own, as it was before a sender's sends were posted in one pass.
    Like the scheduler, it queues each transcript event as its delivery."""

    def _post(self, t, sender, sends, honest):
        for recipient, payload, signatures in sends:
            event = TranscriptEvent(t, self.round, sender, recipient, payload,
                                    signatures)
            self.transcript.events.append(event)
            if honest:
                row = self.metrics._rows.setdefault(self.round, [0, 0])
                row[0] += 1
                row[1] += signatures
            inboxes = self._pending.get(t + 1)
            if inboxes is None:
                self._due(t + 1)
                inboxes = self._pending[t + 1] = {}
            inboxes.setdefault(recipient, []).append(event)


_SCRIPT = st.dictionaries(
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), st.binary(max_size=3),
                       st.integers(0, 3)), max_size=4),
    max_size=3)
_MOVES = st.dictionaries(
    st.integers(0, 4),
    st.lists(st.tuples(st.sampled_from((2, 3)), st.integers(0, 3),
                       st.binary(max_size=3)), max_size=4),
    max_size=3)


@given(st.lists(_SCRIPT, min_size=4, max_size=4), st.none() | _MOVES)
def test_posting_a_senders_sends_at_once_equals_posting_each_alone(scripts,
                                                                   moves):
    def run(network):
        corrupted = frozenset() if moves is None else frozenset({2, 3})
        adversary = None if moves is None else _Moves(moves)
        procs = [_Scripted(n, script) for n, script in enumerate(scripts)]
        net = network(procs, SignatureOracle(corrupted), adversary)
        for t in range(5):
            net.round = t // 2
            net.run_until(t)
        return (net.transcript.to_jsonl(), net.metrics.to_csv(),
                [p.inboxes for p in procs], net.observed, net.transcript.events)

    *got, events = run(Network)
    *expected, _ = run(_PerMessage)
    assert got == expected
    # each inbox item is the very event the transcript recorded for it
    for n, inboxes in enumerate(got[2]):
        for t, inbox in inboxes:
            sent = [e for e in events if e.step == t - 1 and e.recipient == n]
            assert len(inbox) == len(sent)
            assert all(d is e for d, e in zip(inbox, sent))
    # the adversary's sends are recorded in the order it made them
    for t, pairs in (moves or {}).items():
        assert [(e.sender, e.recipient, e.payload) for e in events
                if e.step == t and e.sender in {2, 3}] == pairs


def test_importing_simnet_loads_no_other_lockstep_module():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lockstep.simnet; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lockstep'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out == "['lockstep', 'lockstep.simnet']\n"
