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
pass runs on the shared decode tables.  Payloads of a cycle bank's second
round also go to a copy of the bank after its first round, whose chain
processes keep verified prefixes, with edits that keep a receiver's prefix
and change only the records after it; each receiver must end in the state
of a twin that keeps no prefix.  Intents of the quorum bank's second round
are also rebuilt around an edited proof and signed again by their payer,
so the edit gets past the payer's signature to the proof check; the two
passes, the first on emptied tables, must end alike.  The receipts of the
quorum bank, edited, must read by slicing as they read through a
:meth:`SignedMessage.from_bytes` parse, and each was written as
:meth:`SignedMessage.signed_by` writes it.
"""

import copy
import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from lockstep.adversary import StrawmanProcess
from lockstep.consensus import DSProcess, run_dolev_strong
from lockstep.cyclecoin import (
    KIND_CHAIN,
    KIND_QUERY,
    TAG_BASE,
    TAG_PATH,
    TAG_X,
    TAG_Y,
    CCProcess,
    PoRProcess,
    Record,
    parse_wire,
    record_content,
    wire,
)
from lockstep.marker import (
    INTENT,
    RECEIPT,
    BBMProcess,
    MarkerSystem,
    QMProcess,
    decode_proof,
    encode_proof,
    intent_content,
    mask_signers,
    parse_typed,
    read_receipt,
    receipt_content,
    receipt_message,
    summarize_proof,
)
from lockstep.payments import Bank
from lockstep.simnet import (
    PRIOR,
    CodecError,
    Delivery,
    ProtocolFault,
    ScopedOracle,
    Send,
    SignatureOracle,
    SignedMessage,
    countersign,
    enc_bytes,
    enc_int,
    enc_str,
    split_payload,
    tag_payload,
)

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
    system = MarkerSystem(family, N, f, SignatureOracle(corrupted))
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


@functools.lru_cache(maxsize=None)
def _recorded_intents():
    """The intents of the recorded quorum bank whose proofs certify
    receipts, each as (recipient, nonce, round, payer, target, signers,
    receipt message), and the message of every receipt the bank sent."""
    intents, messages = [], []
    for event in _recorded_bank("quorum").net.transcript.events:
        body, nonce = split_payload(event.payload)
        fields = parse_typed(SignedMessage.from_bytes(body).payload, INTENT, 3)
        if fields is None:
            messages.append(read_receipt(body)[5])
        elif fields[3]:
            mask, message = decode_proof(fields[3])
            intents.append((event.recipient, nonce, *fields[:3],
                            mask_signers(mask), message))
    return intents, messages


proof_edits = st.lists(st.tuples(
    st.sampled_from(("drop", "add", "foreign", "message")),
    st.integers(min_value=0), st.integers(min_value=0)), max_size=3)


@settings(max_examples=80, deadline=None)
@given(edits=proof_edits, **mutations)
def test_mutated_proofs_in_re_signed_intents_reach_the_proof_check(
        edits, pick, flips, cut, recipient):
    """Signers of a recorded intent's certificate are dropped, added or
    replaced by any id up to 39, past the 16 broadcasters, or its receipt
    message by one sent elsewhere, then its bytes flipped and cut; the
    payer signs the rebuilt intent through the instance's oracle."""
    intents, messages = _recorded_intents()
    n, nonce, r, payer, target, signers, message = intents[pick % len(intents)]
    signers = set(signers)
    for edit, i, j in edits:
        if edit == "message":
            message = messages[j % len(messages)]
        elif edit == "add":
            signers.add(j % 40)
        elif signers:
            signers.discard(sorted(signers)[i % len(signers)])
            if edit == "foreign":
                signers.add(j % 40)
    proof = _mutate(encode_proof(signers, message), flips, cut)
    assume(proof != encode_proof(*intents[pick % len(intents)][5:]))
    recorded = _recorded_bank("quorum")
    n = n if recipient is None else recipient % recorded.N
    passes = []
    summarize_proof.cache_clear()
    for _ in range(2):
        bank = Bank(recorded.N, recorded.f, recorded.initial, family="quorum",
                    oracle=copy.deepcopy(recorded.oracle))
        intent = SignedMessage(intent_content(r, payer, target, proof))
        intent = intent.signed_by(ScopedOracle(bank.oracle, nonce), payer)
        payload = tag_payload(intent.to_bytes(), nonce)
        host = bank.hosts[n]
        passes.append([_outcome(host, t, payer, payload)
                       for t in range(recorded.net.now)])
        assert host.stepped <= set(bank.nonces)
    assert passes[0] == passes[1]
    assert all(sends is ProtocolFault
               or all(isinstance(s, Send) for s in sends)
               for sends in passes[0])


# Bank arguments and the {payer: target} of two rounds.  In the second,
# unit 0 goes on from 4 round the cycle to 3 and unit 3 from 5 to 4, past
# processes that checked their chains in the first.
PREFIX_BANK = ((6, 0, (2, 1, 0, 1, 0, 0)), ({0: 4, 3: 5}, {4: 3, 5: 4}))


@functools.lru_cache(maxsize=None)
def _prefix_bank():
    """A cycle bank after its first round, with the registry after its
    second, and the sends of the second."""
    args, (first, second) = PREFIX_BANK
    bank = Bank(*args, family="cycle")
    bank.run_round(first)
    before = copy.deepcopy(bank)
    start = len(bank.net.transcript.events)
    bank.run_round(second)
    before.oracle._issued |= bank.oracle._issued
    return before, bank.net.transcript.events[start:]


def _edit_tail(bank, n, payload, edits) -> bytes:
    """``payload`` with the records after the receiver's verified prefix
    cut, swapped, replaced, re-signed over the records before them, or
    left in place with their signature taken out of the bank's registry."""
    body, nonce = split_payload(payload)
    try:
        kind, records, _ = parse_wire(body)
    except CodecError:
        return payload
    if nonce not in bank.hosts[n].instances:
        return payload
    known = bank.hosts[n].instances[nonce].verified
    lo = len(known.records) if known is not None else 0
    records = list(records)
    for edit, i, j, tag, signer in edits:
        if len(records) <= lo:
            break
        i, j = lo + i % (len(records) - lo), lo + j % (len(records) - lo)
        if edit == "cut":
            del records[i:]
        elif edit == "swap":
            records[i], records[j] = records[j], records[i]
        elif edit == "replace":
            records[i] = Record(tag, signer)
        elif edit == "unsign":
            rec = records[i]
            bank.oracle._issued.discard((rec.signer, tag_payload(
                record_content(tuple(records[:i]), rec.tag), nonce)))
        else:
            ScopedOracle(bank.oracle, nonce).sign(
                signer, record_content(tuple(records[:j]), tag))
            records[i] = Record(tag, signer)
    return tag_payload(wire(kind, tuple(records)), nonce)


def _outcome(host, t, sender, payload):
    try:
        return host.step(t, [Delivery(sender, payload)])
    except ProtocolFault:
        return ProtocolFault


def _state(proc) -> dict:
    return {key: value for key, value in vars(proc).items()
            if key not in ("net", "oracle", "verified")}


tail_edits = st.lists(st.tuples(
    st.sampled_from(("cut", "swap", "replace", "re-sign", "unsign")),
    st.integers(min_value=0), st.integers(min_value=0),
    st.sampled_from((TAG_BASE, TAG_PATH, TAG_X, TAG_Y)),
    st.integers(min_value=0, max_value=5)), max_size=2)


def _matches_a_twin_without_prefixes(bank, n, sender, payload) -> None:
    """Deliver ``payload`` to host ``n`` at every step of the bank's next
    round, and to a copy whose processes keep no prefix: the outcomes,
    the states and the registries must agree."""
    twin = copy.deepcopy(bank)
    start = bank.round_index * bank.steps_per_round
    for t in range(start, start + bank.steps_per_round):
        for proc in twin.hosts[n].instances.values():
            proc.verified = None
        sends = _outcome(bank.hosts[n], t, sender, payload)
        assert sends == _outcome(twin.hosts[n], t, sender, payload)
        assert sends is ProtocolFault or all(isinstance(s, Send)
                                             for s in sends)
    assert bank.oracle._issued == twin.oracle._issued
    for nonce, proc in bank.hosts[n].instances.items():
        assert _state(proc) == _state(twin.hosts[n].instances[nonce])


@settings(max_examples=120, deadline=None)
@given(edits=tail_edits, **mutations)
def test_mutated_cycle_payloads_meet_verified_prefixes(edits, pick, flips, cut,
                                                       recipient):
    before, events = _prefix_bank()
    event = events[pick % len(events)]
    n = event.recipient if recipient is None else recipient % before.N
    bank = copy.deepcopy(before)
    payload = _mutate(_edit_tail(bank, n, event.payload, edits), flips, cut)
    assume(payload != event.payload
           or bank.oracle._issued != before.oracle._issued)
    _matches_a_twin_without_prefixes(bank, n, event.sender, payload)


def test_a_missing_signature_past_the_prefix_is_never_taken():
    """Every record after a receiver's prefix, in turn, loses its
    signature; the receiver must refuse the chain as a twin without
    prefixes does."""
    before, events = _prefix_bank()
    for event in events:
        n = event.recipient
        body, nonce = split_payload(event.payload)
        known = before.hosts[n].instances[nonce].verified
        kind, records, _ = parse_wire(body)
        if kind not in (KIND_QUERY, KIND_CHAIN) or known is None:
            continue
        for k in range(len(known.records), len(records)):
            bank = copy.deepcopy(before)
            _edit_tail(bank, n, event.payload,
                       [("unsign", k - len(known.records), 0, TAG_X, 0)])
            _matches_a_twin_without_prefixes(bank, n, event.sender,
                                             event.payload)
            proc = bank.hosts[n].instances[nonce]
            assert records not in proc.received_log.values()
            assert records not in proc.signed_log.values()


def test_the_second_prefix_bank_round_meets_verified_prefixes():
    """Four of the second round's queries and chains extend the prefix
    their receiver verified in the first, and each is taken."""
    before, events = _prefix_bank()
    met = 0
    for event in events:
        body, nonce = split_payload(event.payload)
        known = before.hosts[event.recipient].instances[nonce].verified
        kind, records, _ = parse_wire(body)
        if (kind in (KIND_QUERY, KIND_CHAIN) and known is not None
                and records[:len(known.records)] == known.records):
            met += 1
            bank = copy.deepcopy(before)
            host = bank.hosts[event.recipient]
            host.step(event.step + 1, [Delivery(event.sender, event.payload)])
            proc = host.instances[nonce]
            assert records in (*proc.signed_log.values(),
                               *proc.received_log.values())
    assert met == 4


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
        proc = DSProcess(n, N, f, 0, None, copy.deepcopy(net.oracle))
        for t in range(f + 3):
            _step_or_fault(proc, t, sender, payload)


def _read_receipt_by_parse(data):
    """:func:`read_receipt` as it read a receipt through a
    :meth:`SignedMessage.from_bytes` parse."""
    try:
        sm = SignedMessage.from_bytes(data)
    except CodecError:
        return None
    fields = parse_typed(sm.payload, RECEIPT, 4)
    if fields is None or len(sm.stack) != 1:
        return None
    signer, content = sm.stack[0]
    if content != enc_bytes(sm.payload):
        return None
    return (*fields, signer, content)


@functools.lru_cache(maxsize=None)
def _recorded_receipts() -> tuple[bytes, ...]:
    receipts = []
    for event in _recorded_bank("quorum").net.transcript.events:
        content, _ = split_payload(event.payload)
        if _read_receipt_by_parse(content) is not None:
            receipts.append(content)
    return tuple(receipts)


def test_every_recorded_receipt_is_written_as_signed_by_writes_it():
    receipts = _recorded_receipts()
    # three units over two rounds, each handed on (a holder that keeps
    # its unit pays itself), and countersigned by the 3f+1 = 7 broadcasters
    assert len(receipts) == 3 * 2 * 7
    for data in receipts:
        j, payer, target, claimed, signer, content = read_receipt(data)
        assert content == receipt_message(j, payer, target, claimed)
        oracle = SignatureOracle()
        assert data == countersign(oracle, signer, content)
        assert oracle.verify(signer, content)
        assert data == SignedMessage(receipt_content(j, payer, target, claimed)
                                     ).signed_by(SignatureOracle(), signer).to_bytes()
        assert data == SignedMessage(receipt_content(j, payer, target, claimed),
                                     ((signer, content),)).to_bytes()


def _edited_receipt(data, edit, k, flips, cut):
    """``data`` under one edit, ``k`` choosing where and how."""
    j, payer, target, claimed, signer, x = _read_receipt_by_parse(data)
    end = len(x)
    if edit == "flip-cut":
        return _mutate(data, flips, cut)
    if edit == "second-entry":
        return countersign(SignatureOracle(), k % 16, data)
    if edit == "copy":
        # the entry written as a copy of X where the mark belongs
        return x + enc_int(signer) + enc_bytes(x)
    if edit == "other-content":
        # the empty content, whose entry is as long as the mark, another
        # round's receipt, or any bytes
        other = (b"", enc_bytes(receipt_content(j + 1 + k % 3, payer, target,
                                                claimed)), enc_int(k))[k % 3]
        return x + enc_int(signer) + enc_bytes(other)
    if edit == "int-width":
        wide = enc_bytes((k % 256).to_bytes(4 + k % 3 * 5, "big"))
        if k % 4 == 0:
            return x + wide + PRIOR
        ints = [enc_int(j), enc_int(payer), enc_int(target), enc_int(claimed)]
        ints[k // 4 % 4] = wide
        x = enc_bytes(enc_str(RECEIPT) + b"".join(ints))
        return x + enc_int(signer) + PRIOR
    # a length prefix that runs past the end, or past where it should
    # stop, or a chunk where the mark stands
    at = (0, end, end + 12)[k % 3]
    length = int.from_bytes(data[at:at + 4], "big")
    if at == end + 12:
        length = k % 7 if k % 2 else 0xFFFFFFFE
    else:
        length = 0xFFFFFFFF if k % 2 else length + 1 + k % 7
    return data[:at] + length.to_bytes(4, "big") + data[at + 4:]


@settings(max_examples=400, deadline=None)
@given(pick=st.integers(min_value=0),
       edit=st.sampled_from(("none", "flip-cut", "second-entry", "copy",
                             "other-content", "int-width", "overrun")),
       k=st.integers(min_value=0, max_value=2 ** 16),
       flips=mutations["flips"], cut=mutations["cut"])
def test_a_receipt_read_by_slicing_equals_one_read_through_a_parse(
        pick, edit, k, flips, cut):
    receipts = _recorded_receipts()
    data = receipts[pick % len(receipts)]
    if edit != "none":
        data = _edited_receipt(data, edit, k, flips, cut)
    # malformed bytes read as None; any exception fails the test
    got = read_receipt(data)
    assert got == _read_receipt_by_parse(data)
    if edit == "none":
        assert got is not None
    elif edit != "flip-cut":
        assert got is None
