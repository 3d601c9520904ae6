"""Marker transfer by countersigned chains on a directed cycle.

Here the marker is a chain of signatures anchored at a genesis record.  A
payment from the holder to a target d positions ahead walks the cycle: the
holder queries each intermediate process in order, the process countersigns
the partial chain, the holder interleaves its own signatures, and the
finished extension lands at the target.  The weight of a chain is the total
number of cycle positions its extensions crossed, and it pins the endpoint:
weight w always ends at position genesis plus w modulo N.  Two chains of
equal weight therefore end at the same process, and the refusal rules give
that process the means to keep at most one of them alive.  That is the
whole safety story.  Nobody else hears about the payment, which is why a
payment over distance d costs exactly 2(d-1)+1 messages and a payment to
yourself costs none.

The class at the bottom wraps the same logic in a response enforcement
schedule.  Every query slot is followed by room for a complaint broadcast
and a response broadcast, so a process that goes silent on the payment path
is either exposed and deleted from the cycle by all honest processes, or
shown to have refused for a provable reason.  A process asks for a step
only where it has work: the payer at the query and the complaint check of
each period its payment is in, and a holder of a complaint or response
broadcast where it reads, answers and settles it.  So all of that
machinery costs zero messages and no idle steps when every queried
process answers.

A chain only grows, and every countersigner and payee checks the whole
chain it is handed.  So each process keeps a :class:`VerifiedPrefix` of the
last chain its own handlers accepted, and checks a chain that extends it
only from its first new record: in the chain shape and in the signature
check, whose signed contents start from the prefix's bytes.  The verdicts
are those of a check from genesis, because the prefix was verified by the
same process against its own oracle, whose registry never drops an entry,
because no negative verdict is kept, and because a kept prefix holds only
groups of rounds that no later deletion bears on (see
:meth:`CCProcess._verify`).

Decoding costs a lookup.  The encoder keeps what it encoded for the
decoder, so the receiver of an honest chain decodes it without parsing,
and the records of honest chains are shared objects, one per distinct
record.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from lockstep.consensus import DSProcess
from lockstep.marker import GENESIS_ROUND, Marking, MarkerProcess
from lockstep.muxer import nonce_for
from lockstep.simnet import (
    ByteReader,
    CodecError,
    ConfigFault,
    Delivery,
    ScopedOracle,
    Seeds,
    Send,
    enc_bytes,
    enc_int,
    enc_str,
    split_payload,
    tag_payload,
)

TAG_BASE = "base"
TAG_PATH = "p"
TAG_X = "x"
TAG_Y = "y"

_TAGS = frozenset({TAG_BASE, TAG_PATH, TAG_X, TAG_Y})

# No position deleted: the default deletions of a parse or a route.
NO_DELETIONS: Mapping[int, int] = MappingProxyType({})


@dataclass(frozen=True)
class Record:
    """One signature in a chain.

    ``signer`` signed the serialization of every record before this one
    plus the role tag, so a record is only meaningful in the exact prefix
    context it was issued for.  ``enc`` carries the record's wire bytes,
    ``enc_str(tag) + enc_int(signer)``, made once with the record, so
    encoding a chain joins them instead of rebuilding them.  It takes no
    part in equality, hashing or ``repr``.
    """

    tag: str
    signer: int
    enc: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "enc", enc_str(self.tag) + enc_int(self.signer))


# encode_records' seeds for decode_records: a hit comes within a step or
# two of its send.  At worst 256 × (1.5B + 0.2 KB) when the records come
# from the table of _parse_record, 256 × (12B + 0.1 KB) when only this
# table holds them.
_encodings = Seeds(256)

_record_bytes = operator.attrgetter("enc")
_record_tag = operator.attrgetter("tag")


def encode_records(records: tuple[Record, ...]) -> bytes:
    """The wire bytes of ``records``: their count, then each record's bytes.

    When every tag is known, the bytes decode to records equal to these,
    so the encoding is kept for :func:`decode_records`, and the receiver
    of an honest chain decodes it by one lookup.  An encoding with an
    unknown tag would not decode and is never kept.
    """
    data = enc_int(len(records)) + b"".join(map(_record_bytes, records))
    if _TAGS.issuperset(map(_record_tag, records)):
        _encodings.put(data, tuple(records))
    return data


# Four tags for each of 4,096 signers, so wire input naming any number of
# signer ids cannot grow it further.  16,384 × 0.26 KB = 4.3 MB.
@lru_cache(maxsize=1 << 14)
def _parse_record(piece: bytes) -> Record:
    """The record whose wire bytes are ``piece``; raises CodecError."""
    reader = ByteReader(piece)
    tag = reader.read_str()
    signer = reader.read_int()
    # a successful parse consumed all of ``piece``: its length was taken
    # from the same tag length prefix, and the integer chunk is 8 bytes
    if tag not in _TAGS:
        raise CodecError(f"unknown record tag {tag!r}")
    return Record(tag, signer)


def decode_records(data: bytes) -> tuple[Record, ...]:
    """Inverse of :func:`encode_records`; raises CodecError on bad bytes.

    Bytes that :func:`encode_records` made and kept are answered from its
    table.  Otherwise each record is looked up by its wire bytes in the
    table of :func:`_parse_record`, shared by every caller in the process,
    so a record decoded before costs one slice and one lookup, and every
    copy of it is the same object.  Records are immutable and compare by
    value, so sharing them changes no result.
    """
    encoded = _encodings.get(data)
    if encoded is not None:
        return encoded
    reader = ByteReader(data)
    count = reader.read_int()
    if count < 0:
        raise CodecError("negative record count")
    pos, size = 12, len(data)
    records = []
    for _ in range(count):
        # a record is a tag chunk (4 + tag length bytes) and an 8 byte
        # integer chunk (12 bytes); a short piece fails in _parse_record
        stop = pos + 16 + int.from_bytes(data[pos:pos + 4], "big")
        records.append(_parse_record(data[pos:stop]))
        pos = stop
    if pos != size:
        raise CodecError("trailing bytes after records")
    return tuple(records)


_TAG_ENCS = {tag: enc_str(tag) for tag in _TAGS}
_COUNT_PREFIX = (8).to_bytes(4, "big")


def _signed_content(k: int, body: bytes | bytearray, tag: str) -> bytes:
    """:func:`record_content` after ``k`` records whose joined bytes are
    ``body``: ``enc_bytes(encode_records(prefix)) + enc_str(tag)``."""
    return b"".join((
        (len(body) + 12).to_bytes(4, "big"), _COUNT_PREFIX,
        k.to_bytes(8, "big", signed=True), body,
        _TAG_ENCS.get(tag) or enc_str(tag)))


def record_content(prefix: tuple[Record, ...], tag: str) -> bytes:
    """The byte string actually signed when a ``tag`` record follows
    ``prefix``."""
    return _signed_content(len(prefix), b"".join(map(_record_bytes, prefix)),
                           tag)


def _record(tag: str, signer: int) -> Record:
    """``Record(tag, signer)``, the shared object of the table of
    :func:`_parse_record` for a known tag, so that the records of honest
    chains are made once each."""
    prefix = _TAG_ENCS.get(tag)
    if prefix is None:
        return Record(tag, signer)
    return _parse_record(prefix + _COUNT_PREFIX
                         + int(signer).to_bytes(8, "big", signed=True))


def append_record(oracle, signer: int, records: tuple[Record, ...],
                  tag: str) -> tuple[Record, ...]:
    """Sign one record through ``oracle`` and append it."""
    oracle.sign(signer, record_content(records, tag))
    return records + (_record(tag, signer),)


def chain_signatures_ok(records: tuple[Record, ...], oracle,
                        known: VerifiedPrefix | None = None) -> bool:
    """True when every record verifies as signed over the records before
    it, that is against ``record_content(records[:k], rec.tag)``.

    ``known`` is a prefix of ``records`` verified against this oracle
    before: the oracle is asked nothing about its records, and the signed
    contents start from its bytes.  One pass: the encoded prefix grows by
    one record's bytes per step instead of being encoded again for every k.
    """
    if known is None:
        start, body = 0, bytearray()
    else:
        start, body = len(known.records), bytearray(known.body)
    for k in range(start, len(records)):
        rec = records[k]
        if not oracle.verify(rec.signer, _signed_content(k, body, rec.tag)):
            return False
        body += rec.enc
    return True


def cycle_distance(a: int, b: int, N: int) -> int:
    """Directed distance from a to b along the cycle."""
    return (b - a) % N


def cycle_path(a: int, b: int, N: int,
               deleted: Mapping[int, int] = NO_DELETIONS) -> list[int]:
    """Positions from a inclusive to b exclusive, skipping deleted ones.

    The path from a process to itself is empty by convention.
    """
    if a == b:
        return []
    path = [a]
    pos = (a + 1) % N
    while pos != b:
        if pos not in deleted:
            path.append(pos)
        pos = (pos + 1) % N
    return path


# ---------------------------------------------------------------------------
# chain structure


@dataclass(frozen=True)
class Group:
    """One extension: ``extender`` moved the chain end from its own
    position to ``end``, crossing ``hop`` cycle positions."""

    extender: int
    path: tuple[int, ...]
    terminal: str
    end: int
    hop: int


@dataclass(frozen=True)
class ChainShape:
    """Parsed view of a record sequence.

    ``end`` is where the chain ends; for a sequence whose last group closed
    with x it is the position whose countersignature would come next.
    ``weight`` treats that open group as if it were terminated on the spot,
    which is exactly the weight a countersigner vouches for.
    """

    records: tuple[Record, ...]
    groups: tuple[Group, ...]
    end: int
    weight: int

    @property
    def complete(self) -> bool:
        """A finished chain: every group closed with x except a final y;
        the bare genesis record is the complete chain of length zero."""
        return not self.groups or self.groups[-1].terminal == TAG_Y

    @property
    def request(self) -> bool:
        """A partial in flight: the final group is open, closed with x on
        a nonempty path, and its end is the position whose
        countersignature the extender wants next."""
        return (bool(self.groups) and self.groups[-1].terminal == TAG_X
                and bool(self.groups[-1].path))


def assemble(records: tuple[Record, ...], N: int, *, genesis: int = 0,
             deleted: Mapping[int, int] = NO_DELETIONS,
             resume: tuple[int, int, int, tuple[Group, ...]] | None = None
             ) -> ChainShape | None:
    """Parse records into extension groups, or None if malformed.

    Groups alternate path countersignatures with the extender's own x marks
    and close on its y mark; a lone x or y is a self hop.  ``deleted`` maps
    each deleted position to the round it was deleted in, -1 for one
    deleted from the start.  Group g, the extension of round g, is parsed
    under the deletions it was made under: a position deleted before round
    g may not extend or mark in it, and one deleted up to round g is
    skipped by its path and its end (see :class:`PoRProcess`).  Old records
    by deleted positions remain acceptable, and deleted positions count
    toward hop lengths, so weights keep their geometric meaning.  The parse
    is unambiguous: a run of pairs belongs to one group exactly as long as
    the extender signature matches, because the next group would have to
    be closed by the new chain end instead.

    ``resume`` is the state of an earlier parse, under the same ``N`` and
    ``genesis``, of a chain that ``records`` extends (see
    :attr:`VerifiedPrefix.state`); the parse goes on from it.  The groups
    it holds are not parsed again, so ``deleted`` must agree with the
    deletions of that parse on the rounds of those groups.
    """
    if (not records or records[0].tag != TAG_BASE
            or records[0].signer != genesis):
        return None
    i, end, total, done = resume or (1, genesis, 0, ())
    groups: list[Group] = list(done)
    n_records = len(records)
    barred = skipped = deleted
    while i < n_records:
        if deleted:
            barred = {a for a, d in deleted.items() if d < len(groups)}
            skipped = {a for a, d in deleted.items() if d <= len(groups)}
        rec = records[i]
        if rec.tag == TAG_BASE:
            return None
        if rec.tag in (TAG_X, TAG_Y):
            if rec.signer != end or end in barred:
                return None
            groups.append(Group(end, (), rec.tag, end, 0))
            if rec.tag == TAG_Y and i + 1 != n_records:
                return None
            i += 1
            continue
        extender = end
        if extender in barred:
            return None
        path: list[int] = []
        cursor = extender
        terminal = None
        while i < n_records and records[i].tag == TAG_PATH:
            if i + 1 >= n_records or records[i + 1].tag not in (TAG_X, TAG_Y):
                return None
            p, closer = records[i], records[i + 1]
            if closer.signer != extender or len(path) >= N:
                break
            pos = cursor
            hops = 0
            while pos != p.signer and pos in skipped and hops < N:
                pos = (pos + 1) % N
                hops += 1
            if pos != p.signer:
                break
            path.append(pos)
            cursor = (pos + 1) % N
            terminal = closer.tag
            i += 2
            if closer.tag == TAG_Y:
                break
        if not path:
            return None
        if terminal == TAG_Y and i != n_records:
            return None
        if path[0] != extender:
            return None
        new_end = cursor
        guard = 0
        while new_end in skipped and guard < N:
            new_end = (new_end + 1) % N
            guard += 1
        if new_end in skipped:
            return None
        hop = cycle_distance(extender, new_end, N)
        if hop == 0:
            return None
        groups.append(Group(extender, tuple(path), terminal, new_end, hop))
        total += hop
        end = new_end
    return ChainShape(tuple(records), tuple(groups), end, total)


@dataclass(frozen=True, eq=False)
class VerifiedPrefix:
    """What a process keeps of the last chain it accepted as well formed
    and fully signed: the chain minus its last record, because a finished
    chain's closing y comes back as an x on the next payment.

    ``body`` is the record bytes of ``records``.  ``state`` is where
    :func:`assemble` stood at the start of the latest group that the parse
    reached from these records alone, two records of lookahead included:
    (record index, chain end, weight so far, the groups before it).  A
    process keeps one, of O(L) size for a chain of L records.  It is only
    sound with the oracle that verified the chain, and under the ``N``,
    genesis and deletions it was parsed under, so it is never shared.
    """

    records: tuple[Record, ...]
    body: bytes
    state: tuple[int, int, int, tuple[Group, ...]]

    @classmethod
    def of(cls, shape: ChainShape, encoded: bytes) -> VerifiedPrefix:
        """The prefix of a chain whose shape and signatures passed;
        ``encoded`` is the chain's :func:`encode_records` bytes, from which
        the prefix's bytes are cut."""
        records, groups = shape.records, shape.groups
        keep = len(records) - 1
        g, start, weight = len(groups), len(records), shape.weight
        # a group's end was decided by the two records after it, so walk
        # back, one or two groups, to one that starts two records early
        while g and start + 2 > keep:
            g -= 1
            start -= 2 * len(groups[g].path) or 1
            weight -= groups[g].hop
        end = groups[g - 1].end if g else records[0].signer
        return cls(records[:keep], encoded[12:-len(records[-1].enc)],
                   (start, end, weight, groups[:g]))


def _inspect(rule: str, records: tuple[Record, ...], N: int, oracle,
             genesis: int, deleted: Mapping[int, int],
             known: VerifiedPrefix | None) -> ChainShape | None:
    """The shape of ``records`` if it obeys the :class:`ChainShape`
    property ``rule`` and its signatures verify, or None.  The rule is
    applied before the oracle is asked anything.  A check of records that
    extend ``known.records`` resumes from ``known``."""
    if known is not None and records[:len(known.records)] != known.records:
        known = None
    shape = assemble(records, N, genesis=genesis, deleted=deleted,
                     resume=None if known is None else known.state)
    if shape is None or not getattr(shape, rule):
        return None
    if not chain_signatures_ok(records, oracle, known):
        return None
    return shape


def inspect_chain(records: tuple[Record, ...], N: int, oracle, *,
                  genesis: int = 0,
                  deleted: Mapping[int, int] = NO_DELETIONS,
                  known: VerifiedPrefix | None = None) -> ChainShape | None:
    """Shape of a :attr:`~ChainShape.complete` chain with verified
    signatures, or None.

    ``known`` is a prefix verified against ``oracle`` before, under the
    same ``N`` and ``genesis`` and under deletions that agree with
    ``deleted`` on the rounds of its groups; a chain that extends it is
    checked from its first new record, with the same verdict.
    """
    return _inspect("complete", records, N, oracle, genesis, deleted, known)


def inspect_request(records: tuple[Record, ...], N: int, oracle, *,
                    genesis: int = 0,
                    deleted: Mapping[int, int] = NO_DELETIONS,
                    known: VerifiedPrefix | None = None) -> ChainShape | None:
    """Shape of a partial chain in flight, a :attr:`~ChainShape.request`
    with verified signatures, or None.  ``known`` works as in
    :func:`inspect_chain`.
    """
    return _inspect("request", records, N, oracle, genesis, deleted, known)


# ---------------------------------------------------------------------------
# wire helpers


KIND_QUERY = "ask"
KIND_RESPONSE = "countersign"
KIND_CHAIN = "chain"
KIND_REFUSE = "refuse"

_KINDS = (KIND_CHAIN, KIND_QUERY, KIND_RESPONSE, KIND_REFUSE)


def wire(kind: str, records: tuple[Record, ...]) -> bytes:
    return enc_str(kind) + enc_bytes(encode_records(records))


_KIND_OF = {kind.encode(): kind for kind in _KINDS}
# a step handles its inbox in _KINDS order
_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


# The latest chain wires: an attack sends one wire to many processes.
# At worst 256 × (2.5B + 0.3 KB).
@lru_cache(maxsize=256)
def parse_wire(payload: bytes) -> tuple[str, tuple[Record, ...], bytes]:
    """(kind, records, record bytes) of a wire message; raises CodecError
    on bad bytes, so a bad wire is never kept.

    The two chunks are read by slicing, as :class:`ByteReader` would read
    them.
    """
    size = len(payload)
    mid = 4 + int.from_bytes(payload[:4], "big")
    kind = _KIND_OF.get(payload[4:mid])
    if (kind is None or mid + 4 > size
            or mid + 4 + int.from_bytes(payload[mid:mid + 4], "big") != size):
        raise CodecError("malformed chain wire")
    body = payload[mid + 4:]
    return kind, decode_records(body), body


def cycle_round_steps(N: int) -> int:
    """Steps one round occupies: room for the full query and countersign
    ping pong along the longest route, never less than two."""
    return max(2, 2 * N - 2)


# ---------------------------------------------------------------------------
# protocol logic


class CCProcess(MarkerProcess):
    """One participant of the chain marker.

    ``signed_log`` maps each weight this process ever vouched for to the
    partial it countersigned, and ``received_log`` does the same for chains
    delivered to it.  A countersignature is granted only when the request
    outweighs everything in both logs, the current holder grants none at
    all, and a delivered chain is accepted only when its weight appears in
    neither log.  Refusals answer with the conflicting artifact, which is
    what makes every refusal provable to a third party.

    ``verified`` is the :class:`VerifiedPrefix` of the last chain that
    :meth:`_on_query` or :meth:`_on_chain` accepted as well formed and
    fully signed, or None; a later chain that extends it is shaped and
    verified from its first new record.  Audits such as
    :func:`verify_payment_claim` neither read nor write it.

    ``deleted`` maps each position deleted from the cycle to the round it
    was deleted in; only response enforcement (:class:`PoRProcess`) adds
    to it.
    """

    verified: VerifiedPrefix | None = None

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n, N, f, oracle, genesis_holder)
        self.deleted: dict[int, int] = {}
        self.marked = n == genesis_holder
        self.marked_round: int | None = GENESIS_ROUND if self.marked else None
        self.chain: tuple[Record, ...] = ((_record(TAG_BASE, genesis_holder),)
                                          if self.marked else ())
        if self.marked and n not in oracle.corrupted:
            oracle.sign(n, record_content((), TAG_BASE))
        self.chain_groups = 0
        self.signed_log: dict[int, tuple[Record, ...]] = {}
        self.received_log: dict[int, tuple[Record, ...]] = {}
        self.refusals: list[tuple[int, int, str]] = []
        self.evidence: list[tuple[Record, ...]] = []
        self.proofs: dict[int, tuple[Record, ...]] = {}
        self.outstanding: tuple[int, tuple[Record, ...]] | None = None
        self.route: list[int] = []
        self.target: int | None = None

    @staticmethod
    def check(N: int, f: int) -> None:
        if not 0 <= f <= N - 2:
            raise ConfigFault(f"the cycle needs 0 <= f <= N-2, got N={N} f={f}")

    @staticmethod
    def steps(N: int, f: int) -> int:
        return cycle_round_steps(N)

    def pay(self, r: int, target: int) -> None:
        if self.marked and target in self.deleted:
            raise ConfigFault(f"target {target} was deleted from the cycle")
        super().pay(r, target)

    def keep(self, r: int) -> Marking:
        # keeping the marker moves no records and costs nothing
        if not self.marked:
            raise ConfigFault(f"process {self.n} is not marked in round {r}")
        marking = tuple.__new__(Marking, (r, self.n, self.n))
        self.markings.append(marking)
        self.marked_round = r
        return marking

    # -- payer side ---------------------------------------------------------

    def _finish(self, records: tuple[Record, ...], r: int) -> Send:
        """Close the extension.  The terminal is issued in both flavors so
        the next holder can reopen it without another exchange."""
        self.oracle.sign(self.n, record_content(records, TAG_X))
        chain = append_record(self.oracle, self.n, records, TAG_Y)
        self.proofs[r] = chain
        self.marked = False
        self.outstanding = None
        self.route = []
        target, self.target = self.target, None
        return Send(target, wire(KIND_CHAIN, chain), len(chain))

    def _begin_payment(self, r: int) -> list[Send]:
        target = self.pending.pop(r)
        if target == self.n:
            self.keep(r)
            return []
        records = self.chain
        if records and records[-1].tag == TAG_Y:
            records = records[:-1] + (_record(TAG_X, records[-1].signer),)
        while self.chain_groups + (len(records) - len(self.chain)) < r:
            # one idle self hop per round spent holding without paying
            records = append_record(self.oracle, self.n, records, TAG_X)
        records = append_record(self.oracle, self.n, records, TAG_PATH)
        self.target = target
        self.route = cycle_path(self.n, target, self.N, self.deleted)[1:]
        return self._advance(records, r)

    def _advance(self, records: tuple[Record, ...], r: int) -> list[Send]:
        """The payer's move once ``records`` ends on a path record: close
        the extension when the route is done, otherwise add an x mark and
        query the next process on the route."""
        if not self.route:
            return [self._finish(records, r)]
        return self._query(append_record(self.oracle, self.n, records, TAG_X))

    def _query(self, records: tuple[Record, ...]) -> list[Send]:
        """Ask the next process on the route to countersign ``records``."""
        self.outstanding = (self.route[0], records)
        return [Send(self.route[0], wire(KIND_QUERY, records), len(records))]

    def _absorb_countersign(self, responder: int, r: int) -> list[Send]:
        """Fold a granted countersignature into the partial and move on."""
        _, records = self.outstanding
        self.route.pop(0)
        return self._advance(records + (_record(TAG_PATH, responder),), r)

    def _on_response(self, sender: int, records: tuple[Record, ...],
                     r: int) -> list[Send]:
        if self.outstanding != (sender, records):
            return []
        if not self.oracle.verify(sender, record_content(records, TAG_PATH)):
            return []
        return self._absorb_countersign(sender, r)

    def _on_refuse(self, sender: int, records: tuple[Record, ...]) -> None:
        if self.outstanding is None or sender != self.outstanding[0]:
            return
        self.evidence.append(records)
        self.outstanding = None
        self.route = []
        self.target = None

    # -- responder side -----------------------------------------------------

    def _vouch(self, r: int, w: int, records: tuple[Record, ...]
               ) -> tuple[str, tuple[Record, ...]] | None:
        """Countersign the partial ``records`` of weight ``w``, or log the
        refusal and return its reason with the artifact that proves it."""
        refusal = None
        if self.marked:
            # the holder vouches for nothing: a signature above its own
            # weight is exactly what a rival chain would need to outgrow it
            refusal = "marked", self.chain
        else:
            for reason, log in (("signed", self.signed_log),
                                ("received", self.received_log)):
                over = [v for v in log if v >= w]
                if over:
                    refusal = reason, log[max(over)]
                    break
        if refusal is None:
            self.signed_log[w] = records
            self.oracle.sign(self.n, record_content(records, TAG_PATH))
        else:
            self.refusals.append((r, w, refusal[0]))
        return refusal

    def _verify(self, inspect, records: tuple[Record, ...], encoded: bytes,
                r: int) -> ChainShape | None:
        """``inspect`` the records in round ``r`` from where ``verified``
        leaves off, and keep the prefix of a chain that passes and has no
        group past round ``r``; ``encoded`` is their :func:`encode_records`
        bytes.

        So no deletion made after a prefix was kept bears on its groups.
        :meth:`VerifiedPrefix.of` walks back at least one group, so a
        prefix kept in round r holds only groups of rounds before r.
        :func:`assemble` parses group g under the deletions of rounds up to
        g only.  And a deletion carries the round it is decided in, never
        an earlier one, so every later deletion carries round r or later.
        The rounds of ``deleted`` before r are therefore those the prefix
        was parsed under, and a check resumed from it gets the verdict of a
        check from genesis.
        """
        shape = inspect(records, self.N, self.oracle,
                        genesis=self.genesis_holder, deleted=self.deleted,
                        known=self.verified)
        if shape is not None and len(shape.groups) <= r + 1:
            self.verified = VerifiedPrefix.of(shape, encoded)
        return shape

    def _on_query(self, sender: int, records: tuple[Record, ...],
                  r: int, encoded: bytes) -> list[Send]:
        shape = self._verify(inspect_request, records, encoded, r)
        if shape is None:
            return []
        open_group = shape.groups[-1]
        if open_group.extender != sender or open_group.end != self.n:
            return []
        if len(shape.groups) - 1 != r:
            return []
        refusal = self._vouch(r, shape.weight, records)
        if refusal is not None:
            artifact = refusal[1]
            return [Send(sender, wire(KIND_REFUSE, artifact), len(artifact))]
        return [Send(sender, wire(KIND_RESPONSE, records), 1)]

    # -- target side --------------------------------------------------------

    def _accept(self, shape: ChainShape, r: int) -> None:
        self.marked = True
        self.marked_round = r
        self.chain = shape.records
        self.chain_groups = len(shape.groups)
        self.markings.append(Marking(r, self.n, shape.groups[-1].extender))

    def accept_late(self, shape: ChainShape, r: int) -> None:
        """Take a chain that :func:`verify_payment_claim` found withheld
        past round ``r``: the marker lands now unless this process has
        held it since, and the chain is logged either way."""
        if self.marked_round is None or self.marked_round < r:
            self._accept(shape, r)
        self.received_log.setdefault(shape.weight, shape.records)

    def _on_chain(self, sender: int, records: tuple[Record, ...],
                  r: int, encoded: bytes) -> None:
        shape = self._verify(inspect_chain, records, encoded, r)
        if shape is None or not shape.groups or shape.end != self.n:
            return
        w = shape.weight
        fresh = w not in self.signed_log and w not in self.received_log
        if (fresh and len(shape.groups) == r + 1
                and self.marked_round != r):
            self._accept(shape, r)
        self.received_log.setdefault(w, records)

    # -- dispatch -----------------------------------------------------------

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        r = t // self.round_steps
        sends: list[Send] = []
        if inbox:
            parsed = []
            for d in inbox:
                try:
                    kind, records, body = parse_wire(d.payload)
                except CodecError:
                    continue
                parsed.append((_RANK[kind], d.sender, body, kind, records))
            # kinds in _KINDS order, then sender, then the record bytes,
            # which are canonical, so this sorts by what
            # encode_records(records) would give; equal bytes decode to
            # equal records, so the records themselves are never ordered
            parsed.sort()
            for _, sender, body, kind, records in parsed:
                if kind == KIND_CHAIN:
                    self._on_chain(sender, records, r, body)
                elif kind == KIND_QUERY:
                    sends.extend(self._on_query(sender, records, r, body))
                elif kind == KIND_RESPONSE:
                    sends.extend(self._on_response(sender, records, r))
                else:
                    self._on_refuse(sender, records)
        if t % self.round_steps == 0 and self.marked and r in self.pending:
            sends.extend(self._begin_payment(r))
        return sends


def cycle_payment_messages(distance: int) -> int:
    """Honest message cost of a payment over the given cycle distance."""
    return 2 * max(distance - 1, 0) + (1 if distance >= 1 else 0)


# ---------------------------------------------------------------------------
# third party payment proofs


def verify_payment_claim(target: CCProcess, records: tuple[Record, ...],
                         round_index: int):
    """Audit the claim that ``records`` paid ``target`` in ``round_index``.

    Returns ("paid", None), ("late", shape), ("refuted", artifact) or
    ("invalid", None), and never changes ``target``.  "paid" means the
    target took the chain in that round.  "late" means the chain is
    valid and no equal weight rival refutes it, but the target never got
    it: the payer withheld it past the round.  The target may still take
    it with :meth:`CCProcess.accept_late` and the returned shape.  An
    honest payer's chain is never refuted, because no equal weight rival
    can exist without the payer's own signature.
    """
    shape = inspect_chain(records, target.N, target.oracle,
                          genesis=target.genesis_holder, deleted=target.deleted)
    if (shape is None or not shape.groups or shape.end != target.n
            or len(shape.groups) != round_index + 1):
        return "invalid", None
    w = shape.weight
    accepted = any(m.round == round_index and m.target == target.n
                   for m in target.markings)
    if accepted and target.received_log.get(w) == records:
        return "paid", None
    for log in (target.signed_log, target.received_log):
        artifact = log.get(w)
        if artifact is not None and artifact != records:
            return "refuted", artifact
    return ("invalid", None) if accepted else ("late", shape)


# ---------------------------------------------------------------------------
# response enforcement


MAIN_NONCE = b"m"
COMPLAINT_PREFIX = b"c"
RESPONSE_PREFIX = b"r"

COMPLY = enc_int(1)


def por_period_steps(f: int) -> int:
    """Steps per query period: query, answer, complaint broadcast, response
    broadcast."""
    return 2 * f + 8


def refusal_wire(evidence: tuple[Record, ...]) -> bytes:
    return enc_int(2) + enc_bytes(encode_records(evidence))


def parse_refusal(value: bytes) -> tuple[Record, ...] | None:
    try:
        reader = ByteReader(value)
        if reader.read_int() != 2:
            return None
        body = reader.read_bytes()
        if not reader.at_end():
            return None
        return decode_records(body)
    except CodecError:
        return None


class PoRProcess(CCProcess):
    """Chain marker participant under the response enforcement schedule.

    A round is split into N periods of 2f+8 steps.  The payer gets one
    exchange per period: query at the first step, answer at the second.
    On silence the payer broadcasts the unanswered request (steps
    2..f+4), the accused process broadcasts its countersignature or its
    justification (steps f+5..2f+7), and every honest process draws the
    same conclusion: the answer exists and the payment goes on, or the
    refusal was justified and the payment stops, or the process is deleted
    from the cycle and the payment routes around it.  Deletion changes no
    weights: the same partial simply points one position further.

    A deletion must not undo a chain that was valid when it was taken.
    A chain has one group per round (:meth:`_begin_payment` pads idle
    self hops, and a group is checked only in its own round), and group g
    was countersigned and accepted in round g under the deletions made
    until then.  A position deleted in round g before the group closed
    was routed around, so the group skips it; one deleted later took
    part in the group.  So ``deleted`` maps each deleted position to the
    round it was deleted in, and :func:`assemble` parses group g with the
    positions deleted before round g barred from extending or marking it,
    and those deleted up to round g skipped by its path and its end;
    routes skip every current deletion.  A deletion made after the group
    closed cannot undo it: its extender and marks are judged on earlier
    rounds only, its path signers are matched before any skip, and its
    end moves only if its payee is deleted, which a payee refusing with
    the chain is not while its refusal is judged.  Under the current set instead, deleting a
    payer that had already paid broke the chain it paid: the honest
    holder's refusal then failed, every honest process deleted it, and a
    fork of the same marker landed beside it (a double spend); or no
    later payment over the chain could land.
    Honest processes decide deletions from the same broadcasts, so they
    all hold the same ``deletions``, rounds included.

    A process asks for the steps it runs without a delivery through
    :meth:`~lockstep.marker.MarkerProcess._wake_at`, only where it has
    work.  The payer's first step at the round's base comes from
    :meth:`~lockstep.marker.MarkerProcess.pay`.  A payer with a query
    ready or unanswered asks for offset 0 of the next period, and with a
    query out, for offset 2 of its period, the complaint check.  A process
    that holds a sub-broadcast of a period, from a delivery or from its
    own complaint, asks for offsets f+4, f+5 and 2f+7 of it: read the
    complaints, answer one, settle the period.  At any other offset a step
    without a delivery would change nothing but ``query_mark``, and a
    later step reads that only when it carries its own (round, period).
    So on a route whose processes all answer, only the payer steps without
    a delivery: once at the start of each period in which it sends.
    """

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n, N, f, oracle, genesis_holder)
        self.period_steps = por_period_steps(f)
        # the next query of the payment, held for the first step of a period
        self.ready: list[Send] | None = None
        self.subs: dict[bytes, DSProcess] = {}
        # (round, period) -> (accused, complaint request, its weight)
        self.accused: dict[tuple[int, int],
                           tuple[int, tuple[Record, ...], int]] = {}
        self.pending_response: dict[tuple[int, int], bytes] = {}
        self.query_mark = None
        self.deletions: list[tuple[int, int, int]] = []

    @staticmethod
    def steps(N: int, f: int) -> int:
        return N * por_period_steps(f)

    def _absorb_countersign(self, responder: int, r: int) -> list[Send]:
        self.ready = super()._absorb_countersign(responder, r)
        return []

    # -- broadcast plumbing -------------------------------------------------

    def _sub_step(self, nonce: bytes, leader: int, local: int,
                  inbox: list[Delivery], value: bytes | None = None) -> list[Send]:
        """Step the sub-broadcast ``nonce`` led by ``leader`` at its
        ``local`` step, building it at first use, and tag its sends."""
        sub = self.subs.get(nonce)
        if sub is None:
            sub = self.subs[nonce] = DSProcess(
                self.n, self.N, self.f, leader, value,
                ScopedOracle(self.oracle, nonce))
        return [Send(s.recipient, tag_payload(s.payload, nonce), s.signatures)
                for s in sub.step(local, inbox)]

    def _route_sub(self, nonce: bytes, t: int,
                   inbox: list[Delivery]) -> list[Send]:
        prefix, rest = nonce[:1], nonce[1:]
        if prefix == COMPLAINT_PREFIX and len(rest) == 12:
            r = int.from_bytes(rest[0:4], "big")
            k = int.from_bytes(rest[4:8], "big")
            a = int.from_bytes(rest[8:12], "big")
            if not 0 <= a < self.N or not 0 <= k < self.N:
                return []
            base = r * self.round_steps + k * self.period_steps + 2
        elif prefix == RESPONSE_PREFIX and len(rest) == 8:
            r = int.from_bytes(rest[0:4], "big")
            k = int.from_bytes(rest[4:8], "big")
            info = self.accused.get((r, k))
            if info is None:
                return []
            a = info[0]
            base = r * self.round_steps + k * self.period_steps + self.f + 5
        else:
            return []
        local = t - base
        if not 1 <= local <= self.f + 2:
            return []
        return self._sub_step(nonce, a, local, inbox)

    # -- schedule hooks -----------------------------------------------------

    def _complain(self, r: int, k: int) -> list[Send]:
        nonce = COMPLAINT_PREFIX + nonce_for(r, k, self.n)
        return self._sub_step(nonce, self.n, 0, [],
                              encode_records(self.outstanding[1]))

    def _read_complaints(self, r: int, k: int) -> None:
        """End of the complaint broadcast: everyone settles on at most one
        valid complaint for the period, lowest complainer first."""
        prefix = COMPLAINT_PREFIX + nonce_for(r, k)
        for a in range(self.N):
            sub = self.subs.get(prefix + a.to_bytes(4, "big"))
            if sub is None:
                continue
            value, fault = sub.decide_bytes()
            if fault:
                continue
            try:
                request = decode_records(value)
            except CodecError:
                continue
            shape = inspect_request(request, self.N, self.oracle,
                                    genesis=self.genesis_holder,
                                    deleted=self.deleted)
            if (shape is not None and len(shape.groups) - 1 == r
                    and shape.groups[-1].extender == a):
                break
        else:
            return
        accused = shape.groups[-1].end
        self.accused[(r, k)] = (accused, request, shape.weight)
        if accused != self.n:
            return
        refusal = self._vouch(r, shape.weight, request)
        self.pending_response[(r, k)] = (COMPLY if refusal is None
                                         else refusal_wire(refusal[1]))

    def _answer_complaint(self, r: int, k: int) -> list[Send]:
        value = self.pending_response.pop((r, k), None)
        if value is None:
            return []
        return self._sub_step(RESPONSE_PREFIX + nonce_for(r, k), self.n, 0,
                              [], value)

    def _refusal_justified(self, accused: int, evidence: tuple[Record, ...],
                           w: int) -> bool:
        """A refusal stands if the evidence is an artifact the rules accept:
        a partial the accused countersigned at no lesser weight, or a chain
        ending at the accused, which covers both the received chain rule and
        a holder showing its marking.  The evidence is parsed once and its
        signatures are checked last."""
        shape = assemble(evidence, self.N, genesis=self.genesis_holder,
                         deleted=self.deleted)
        if shape is None or shape.end != accused:
            return False
        if not shape.complete and (
                not shape.request or shape.weight < w
                or not self.oracle.verify(accused,
                                          record_content(evidence, TAG_PATH))):
            # evidence short of a complete chain must be a request of no
            # lesser weight that carries the accused's countersignature
            return False
        return chain_signatures_ok(evidence, self.oracle)

    def _reroute(self, r: int) -> None:
        """Point the in flight partial past a deletion.  The records do not
        change; with the shorter cycle they simply end one or more
        positions further on, and the weight moves with the endpoint."""
        responder, records = self.outstanding
        shape = assemble(records, self.N, genesis=self.genesis_holder,
                         deleted=self.deleted)
        if shape is None:
            self.outstanding = None
            self.route = []
            return
        nxt = shape.groups[-1].end
        if nxt == self.target:
            self.ready = [self._finish(records[:-1], r)]
            return
        self.route = cycle_path(nxt, self.target, self.N, self.deleted)
        self.ready = self._query(records)

    def _settle_period(self, r: int, k: int) -> None:
        info = self.accused.get((r, k))
        if info is None:
            return
        accused, request, w = info
        sub = self.subs.get(RESPONSE_PREFIX + nonce_for(r, k))
        value, fault = sub.decide_bytes() if sub else (b"", True)
        payer = self.outstanding == (accused, request)
        if not fault and value == COMPLY and self.oracle.verify(
                accused, record_content(request, TAG_PATH)):
            if payer:
                self._absorb_countersign(accused, r)
            return
        evidence = parse_refusal(value) if not fault else None
        if evidence is not None and self._refusal_justified(accused, evidence, w):
            if payer:
                self._on_refuse(accused, evidence)
            return
        self.deletions.append((r, k, accused))
        self.deleted[accused] = r
        if payer:
            self._reroute(r)

    # -- dispatch -----------------------------------------------------------

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        r = t // self.round_steps
        k, off = divmod(t % self.round_steps, self.period_steps)
        main: list[Delivery] = []
        by_sub: dict[bytes, list[Delivery]] = {}
        for d in inbox:
            try:
                body, nonce = split_payload(d.payload)
            except CodecError:
                continue
            if nonce == MAIN_NONCE:
                main.append(Delivery(d.sender, body))
            elif nonce:
                by_sub.setdefault(nonce, []).append(Delivery(d.sender, body))
        held = len(self.subs)
        plain = super().step(t, main)
        sub_sends: list[Send] = []
        for nonce in sorted(by_sub):
            sub_sends.extend(self._route_sub(nonce, t, by_sub[nonce]))
        if off == 0 and self.ready is not None:
            plain.extend(self.ready)
            self.ready = None
        if off == 0:
            # remember what went out; a complaint is only in order if the
            # very same query is still unanswered two steps later
            self.query_mark = ((r, k), self.outstanding) if self.outstanding else None
            if self.query_mark is not None:
                self._wake_at(t + 2)
        elif off == 2 and self.outstanding is not None \
                and self.query_mark == ((r, k), self.outstanding):
            sub_sends.extend(self._complain(r, k))
        elif off == self.f + 4:
            self._read_complaints(r, k)
        elif off == self.f + 5:
            sub_sends.extend(self._answer_complaint(r, k))
        elif off == 2 * self.f + 7:
            self._settle_period(r, k)
            # nothing reads a settled period again, and a late message
            # fails the window check before a sub is built
            self.subs.clear()
            self.accused.clear()
        if self.subs and not held:
            # the first sub-broadcast of this period: read the complaints,
            # answer one and settle the period at the offsets to come
            for later in (self.f + 4, self.f + 5, 2 * self.f + 7):
                if later > off:
                    self._wake_at(t - off + later)
        if self.ready is not None or self.outstanding is not None:
            self._wake_at(t - off + self.period_steps)
        wrapped = [Send(s.recipient, tag_payload(s.payload, MAIN_NONCE),
                        s.signatures) for s in plain]
        wrapped.extend(sub_sends)
        return wrapped
