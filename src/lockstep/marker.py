"""Round based ownership of a single transferable marker.

Exactly one process starts marked.  In every round the marked process may
hand the marker to a target of its choice, and the guarantees are: at most
one honest process becomes marked per round, an honest handoff between
honest processes always lands, and nobody can be marked in the name of an
honest process that did not pay.

Every construction is a :class:`MarkerProcess` subclass, and one
:class:`MarkerSystem` drives any of them.  Two constructions live here.
The broadcast solution replays every handoff through the authenticated
broadcast of :mod:`lockstep.consensus`, so everybody tracks the marker and
each round costs a full broadcast.  The quorum solution designates 3f+1
broadcaster processes; a handoff is one signed intent to the broadcasters
plus their countersigned receipts to the target.  Every receipt of a
handoff countersigns one shared :func:`receipt_message`, so the target
keeps as the proof of ownership for the next handoff a certificate: that
message once and the 2f+1 lowest signer ids whose signatures on it are
valid, the way FastPay's certificates carry one content and its signers
(Baudet, Danezis & Sonnino, 2020).  On the wire the signers are one bit
mask over the broadcasters, bit i for broadcaster i, as compact
multi-signatures over a known committee name theirs (Boneh, Drijvers &
Neven, 2018).  The target asks the oracle about the signers in ascending
order and stops at the (2f+1)-th valid one.  Receipt freshness is
enforced by each broadcaster against the claimed round of the last claim
it countersigned, a receipt message names the claim it answers, and any
two quorums of 2f+1 signers share an honest broadcaster, which is what
makes stale or split proofs unusable; so a proof of 2f+1 signers proves
as much as one of 3f+1, in fewer oracle questions.

Checking a proof splits into pure facts and oracle verdicts.  The pure
facts of a proof (the round and target of its receipt message, its
signers and that message) depend on its bytes and the checker's fault
bound alone, so :func:`summarize_proof` keeps them in a bounded table
shared by every process, and every broadcaster that sees the same proof
reads them once.  A mask of B bytes can name 8B ids, so one that names
anything but a quorum of broadcasters is refused before it names any,
and no entry holds more than O(B) for a proof of B bytes.
The target that accepts a proof knows those facts, its marked round, its
own id and the certificate it keeps, so its intent seeds the table with
them under the proof's bytes and its own fault bound: an honest proof is
never decoded.  Each
countersigner writes its receipt as the receipt message's wire
countersigned in one join (:func:`~lockstep.simnet.countersign`), which
marks the signed bytes as the wire before the entry instead of copying
them.  A receipt thus has one fixed layout, 16 bytes longer than the
message it signs, which :func:`read_receipt` reads by slicing: no
receipt is made, seeded or looked up as a
:class:`~lockstep.simnet.SignedMessage`, and its signed content is a
slice of its own bytes.
Whether each signer signed the message is one question,
:meth:`~lockstep.simnet.SignatureOracle.verify_all`, which each process
asks on every check; no oracle verdict is kept or shared.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, islice
from typing import Iterable, NamedTuple

from lockstep.consensus import DSProcess
from lockstep.muxer import nonce_for
from lockstep.simnet import (
    PRIOR,
    ByteReader,
    CodecError,
    ConfigFault,
    Delivery,
    Network,
    Process,
    ScopedOracle,
    Seeds,
    Send,
    SignatureOracle,
    SignedMessage,
    countersign,
    enc_bytes,
    enc_int,
    enc_str,
    once,
)

GENESIS_ROUND = -1
# the length prefix of every enc_int
INT_WIDTH = (8).to_bytes(4, "big")


class Marking(NamedTuple):
    """One acceptance event: ``target`` became marked in ``round`` and
    decided the marker came from ``predecessor``.  A named tuple, which a
    process that makes one every round builds with ``tuple.__new__``, as
    the network builds a ``Send``."""

    round: int
    target: int
    predecessor: int


def round_tail(markings: list[Marking], r: int) -> list[Marking]:
    """The markings of round ``r`` in a list appended in round order and
    holding none after ``r``: its tail, read from the end."""
    i = len(markings)
    while i and markings[i - 1].round == r:
        i -= 1
    return markings[i:]


# ---------------------------------------------------------------------------
# rule checker


def check_marker_round(round_index: int, honest: frozenset[int],
                       markings: list[Marking],
                       payer: int | None, payer_marked: bool,
                       target: int | None) -> list[str]:
    """Audit one round of one marker instance against the three rules.

    ``markings`` are the acceptance events of honest processes this round.
    ``payer``/``target`` describe the honest input, if any; ``payer_marked``
    says whether that payer actually held the marker entering the round.
    Returns human readable violation strings, empty when clean.
    """
    violations = []
    marked_honest = [m for m in markings if m.target in honest]
    if len(marked_honest) > 1:
        violations.append(
            f"round {round_index}: {len(marked_honest)} honest processes marked")
    if (payer is not None and payer in honest and payer_marked
            and target is not None and target in honest):
        hits = [m for m in marked_honest
                if m.target == target and m.predecessor == payer]
        if not hits:
            violations.append(
                f"round {round_index}: handoff {payer}->{target} did not land")
    for m in marked_honest:
        if m.predecessor in honest and not (m.predecessor == payer
                                            and m.target == target
                                            and payer_marked):
            violations.append(
                f"round {round_index}: {m.target} marked in the name of honest "
                f"{m.predecessor} without a matching handoff")
    return violations


# ---------------------------------------------------------------------------
# one driver for every construction


class MarkerProcess(Process):
    """One participant of a single marker instance, of any construction.

    A construction is a subclass.  It says at which (N, f) it runs and how
    many steps one round occupies, keeps ``marked`` true while it holds the
    marker, and appends a :class:`Marking` to ``markings`` whenever it
    accepts one.  ``pending`` maps a round to the target the process pays
    in it.  Every state change, a decision at the end of a round
    included, happens in a step.  A round starts with :meth:`pay`, which
    asks for the payer's first step at the round's base; every other step
    a construction runs without a delivery it asks for from within a
    step.  Both go through :meth:`_wake_at`, so a driver and a simulation
    world run a construction alike.
    """

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n)
        self.N = N
        self.f = f
        self.oracle = oracle
        self.genesis_holder = genesis_holder
        self.pending: dict[int, int] = {}
        self.markings: list[Marking] = []

    @staticmethod
    def check(N: int, f: int) -> None:
        """Raise :class:`ConfigFault` unless the construction runs at (N, f)."""

    @staticmethod
    def steps(N: int, f: int) -> int:
        """Steps one round occupies."""
        raise NotImplementedError

    @once
    def round_steps(self) -> int:
        """:meth:`steps` at this process's (N, f), read at its first step
        or payment, so that the many processes a bank builds cost nothing
        until then."""
        return self.steps(self.N, self.f)

    def pay(self, r: int, target: int) -> None:
        """Hand the marker to ``target`` in round ``r``: the one way a
        round starts.  The payer asks for its first step at the round's
        base."""
        if not 0 <= target < self.N:
            raise ConfigFault(f"target {target} is not a process")
        if not self.marked:
            raise ConfigFault(f"process {self.n} is not marked in round {r}")
        self.pending[r] = target
        self._wake_at(r * self.round_steps)

    def _wake_at(self, step: int) -> None:
        """Ask for a step at ``step``: the one way a construction schedules
        the steps it runs without a delivery.  A process with no network
        is stepped by whoever holds it, as a bank's host wakes its units,
        so it asks for nothing."""
        if self.net is not None:
            self.net.wake(self.n, step)

    def keep(self, r: int) -> Marking | None:
        """Book "pay myself in round ``r``" without a network step and
        return its marking, or None when the construction needs the
        network to keep its marker; the caller then pays itself."""
        return None


class MarkerSystem:
    """Driver for one persistent marker instance; ``family`` is the
    process class of the construction.  The corrupted processes are those
    of ``oracle`` (by default a fresh oracle with none), and ``adversary``
    speaks for them."""

    def __init__(self, family: type[MarkerProcess], N: int, f: int = 0,
                 oracle: SignatureOracle | None = None, adversary=None,
                 genesis_holder: int = 0):
        family.check(N, f)
        self.N = N
        self.f = f
        if oracle is None:
            oracle = SignatureOracle()
        self.procs = [family(n, N, f, oracle, genesis_holder) for n in range(N)]
        self.net = Network(self.procs, oracle, adversary)
        self.corrupted = self.net.corrupted
        self.round_steps = family.steps(N, f)
        self.round_index = 0

    def run_round(self, inputs: dict[int, int] | None = None) -> list[Marking]:
        """Advance one round.  ``inputs`` maps honest payers to targets;
        returns the markings honest processes accepted in the round."""
        r = self.round_index
        base = r * self.round_steps
        self.net.round = r
        honest = {p.n: p for p in self.procs if p.n not in self.corrupted}
        for payer, target in (inputs or {}).items():
            if payer in honest:
                honest[payer].pay(r, target)
        self.net.run_until(base + self.round_steps - 1)
        self.round_index += 1
        return [m for proc in honest.values() for m in round_tail(proc.markings, r)]


def handoff(family: type[MarkerProcess], N: int, f: int, payer: int,
            target: int) -> tuple[int, frozenset[int]]:
    """Honest message count and contact set of one round in which
    ``payer``, the genesis holder of a fresh all honest system, pays
    ``target``.  Senders and recipients both count as contacts."""
    system = MarkerSystem(family, N, f, genesis_holder=payer)
    system.run_round({payer: target})
    events = system.net.transcript.events
    contacts = frozenset(e.sender for e in events) | \
        frozenset(e.recipient for e in events)
    return system.net.metrics.messages(), contacts


def measure_z(family: type[MarkerProcess], N: int, f: int = 0) -> list[int]:
    """Honest message cost of one handoff from process 0, the genesis
    holder, to each possible target, measured on fresh systems."""
    return [handoff(family, N, f, 0, target)[0] for target in range(N)]


# ---------------------------------------------------------------------------
# quorum solution


INTENT = "intent"
RECEIPT = "receipt"


def default_broadcasters(N: int, f: int) -> frozenset[int]:
    """The 3f+1 lowest process ids."""
    return frozenset(range(3 * f + 1))


def encode_proof(signers: Iterable[int], message: bytes) -> bytes:
    """The certificate X ‖ mask of the ``signers`` that countersigned the
    receipt message X = ``message``: X is one ``enc_bytes`` chunk, so it
    delimits itself, and the rest is the mask, big-endian with no leading
    zero byte, whose bit i is signer i.  With no signers, the genesis
    holder's empty proof, which has no bytes.  Raises
    :class:`ConfigFault` on a negative id, which no mask names; else
    written as given: only what :func:`decode_proof` accepts is a proof."""
    mask = 0
    for signer in signers:
        if signer < 0:
            raise ConfigFault(f"signer {signer} has no bit in a mask")
        mask |= 1 << signer
    if not mask:
        return b""
    return message + mask.to_bytes((mask.bit_length() + 7) // 8, "big")


def decode_proof(data: bytes) -> tuple[int, bytes]:
    """(mask, message) of a proof in its one layout: no bytes for the
    empty proof, else a message of exactly one ``enc_bytes`` chunk and a
    mask of at least one byte, the first not zero, so every proof read
    encodes back to ``data``.  In time linear in ``len(data)``: the mask
    is read as one integer, not bit by bit.  Raises :class:`CodecError`
    on anything else."""
    if not data:
        return 0, b""
    end = 4 + int.from_bytes(data[:4], "big")
    if len(data) <= end or not data[end]:
        raise CodecError("a proof is a chunk and a mask with no leading zero")
    return int.from_bytes(data[end:], "big"), data[:end]


def mask_signers(mask: int) -> tuple[int, ...]:
    """The ids a mask names, ascending: one C pass over its bits."""
    return tuple(compress(count(), map(int, reversed(f"{mask:b}"))))


def intent_content(round_index: int, payer: int, target: int, proof: bytes) -> bytes:
    return (enc_str(INTENT) + enc_int(round_index) + enc_int(payer)
            + enc_int(target) + enc_bytes(proof))


def receipt_content(round_index: int, payer: int, target: int,
                    claimed: int) -> bytes:
    """What a broadcaster countersigns for a handoff of ``round_index``
    whose intent claimed a marking of ``payer`` at round ``claimed``."""
    return (enc_str(RECEIPT) + enc_int(round_index) + enc_int(payer)
            + enc_int(target) + enc_int(claimed))


# Every broadcaster of a handoff countersigns the same receipt message in
# the same step, so one step's handoffs suffice.  At worst 64 × 0.4 KB:
# an entry of four ids past the small-int cache took 0.38 KB; over 20
# rounds of Bank(16, 5) it alone held 19 KB (tracemalloc).
@lru_cache(maxsize=64)
def receipt_message(round_index: int, payer: int, target: int,
                    claimed: int) -> bytes:
    """The receipt message X = enc_bytes(receipt_content) of a handoff,
    built once for all of its countersigners."""
    return enc_bytes(receipt_content(round_index, payer, target, claimed))


# Every broadcaster reads each intent and receipt of a step.  At worst
# 256 × (2B + 0.2 KB).
@lru_cache(maxsize=256)
def parse_typed(payload: bytes, expected: str, fields: int) -> tuple[int, ...] | None:
    """Read a tag checked record of ``fields`` integers, plus one trailing
    byte chunk when parsing an intent."""
    try:
        reader = ByteReader(payload)
        if reader.read_str() != expected:
            return None
        values = tuple(reader.read_int() for _ in range(fields))
        if expected == INTENT:
            values = values + (reader.read_bytes(),)
        if not reader.at_end():
            return None
        return values
    except CodecError:
        return None


def read_receipt(wire: bytes) -> tuple[int, int, int, int, int, bytes] | None:
    """(round, payer, target, claimed round, signer, signed content) of a
    well formed receipt signed by one signer alone, or None.  A receipt has one fixed
    layout, the :func:`~lockstep.simnet.countersign` wire X ‖
    enc_int(signer) ‖ PRIOR of its message X = enc_bytes(payload), whose
    one entry signed X, so it is read by slicing, with the checks a
    :meth:`~lockstep.simnet.SignedMessage.from_bytes` parse and a stack of
    one entry that signed X would make; the signed content is the slice
    X.  Pure: whether the signer is a broadcaster and whether the oracle
    issued the signature are left to the reader."""
    end = 4 + int.from_bytes(wire[:4], "big")
    if (len(wire) != end + 16 or wire[end:end + 4] != INT_WIDTH
            # the one entry signed exactly X, the bytes before it
            or wire[end + 12:] != PRIOR):
        return None
    fields = parse_typed(wire[4:end], RECEIPT, 4)
    if fields is None:
        return None
    return (*fields, int.from_bytes(wire[end + 4:end + 12], "big", signed=True),
            wire[:end])


# The summaries of the proofs that payers showed lately, by the encoded
# proof and the fault bound, which seed summarize_proof on a miss: a
# proof is checked a step after it is shown, so one step's intents
# suffice.  Only a holder's own certificate is seeded, so at worst
# 64 × (2B + 0.45 KB + 0.04 KB × k) for a proof of B bytes naming its
# k <= 3f+1 signers (64 distinct entries, their keys included, took
# 0.47 KB at k = 1, 0.55 KB at k = 11, 0.71 KB at k = 31 and 3.45 KB at
# k = 201, f = 100); over 20 rounds of Bank(16, 5), whose proofs certify
# 11, it alone held 29 KB (tracemalloc).
_proof_seeds = Seeds(64)


# An honest proof certifies 2f+1 signers, 65 bytes at f=5, and every
# broadcaster checks it in one step, so this table is the small one.  At
# worst 64 × (2B + 0.45 KB + 0.04 KB × k) for a proof of B bytes naming
# k <= 3f+1 signers, whose summary holds its receipt message once, and a
# refused proof holds its key alone, whatever its mask names (64 distinct
# entries, their keys included, took 0.50 KB at k = 1, 0.58 KB at k = 11,
# 0.74 KB at k = 31 and 3.31 KB at k = 201, f = 100, and a refused 1 MiB
# mask 1.00 MiB); over 20 rounds of Bank(16, 5) it alone held 27 KB
# (tracemalloc).
@lru_cache(maxsize=64)
def summarize_proof(proof: bytes, f: int) -> tuple | None:
    """The pure facts of a certificate as (round, holder, signers, X),
    read from its one receipt message X in one parse: in ``round`` the
    receipts handed the marker to ``holder``, the payer who shows the
    proof, and ``signers``, strictly ascending, are those a checker at
    fault bound ``f`` asks its oracle about.  None when the proof does
    not decode, its mask names other than 2f+1 or more of the 3f+1
    broadcasters 0..3f, or X is no receipt message; the empty proof,
    which only the genesis holder may show, has no holder."""
    # on a miss, a proof shown lately has the facts its holder seeded
    seeded = _proof_seeds.get((proof, f))
    if seeded is not None:
        return seeded
    try:
        mask, message = decode_proof(proof)
    except CodecError:
        return None
    if not mask:
        return GENESIS_ROUND, None, (), b""
    # refused before it names an id: a mask of B bytes names up to 8B
    if mask.bit_length() > 3 * f + 1 or mask.bit_count() < 2 * f + 1:
        return None
    fields = parse_typed(message[4:], RECEIPT, 4)
    if fields is None:
        return None
    j, _, holder, _ = fields
    return j, holder, mask_signers(mask), message


class QMProcess(MarkerProcess):
    """One participant of the quorum marker, possibly also a broadcaster.

    Rounds occupy three steps: intent, countersign, accept.  An intent's
    proof claims a marking of its payer at round j (the genesis holder's
    empty proof claims GENESIS_ROUND), and a broadcaster countersigns it
    only if j is after ``countersigned``, the claimed round of the last
    claim it countersigned, which then becomes j; it starts before
    GENESIS_ROUND.  Its receipt countersigns the :func:`receipt_message`
    of the handoff's round, payer and target and of the claimed round j.
    A target groups its receipts by message, passes over a message with
    fewer than 2f+1 broadcaster signers, asks the oracle about each other
    message's broadcaster signers in ascending order, and accepts a
    payer's handoff once 2f+1 have passed; it keeps as ``proof`` the
    certificate (those signers, that message).  A broadcaster accepts any
    certificate of at least 2f+1 broadcaster signers.

    The rule rests on quorum intersection (Malkhi & Reiter, Byzantine
    quorum systems, 1997; FastPay's certificates of 2f+1 signatures over
    one content, Baudet, Danezis & Sonnino, 2020): any two sets of 2f+1
    of the 3f+1 broadcasters share at least f+1, one of them honest.
    *Once per claimed round.*  The claimed rounds an honest broadcaster
    countersigns strictly increase, so it countersigns each at most once.
    *One successor.*  Every honest signer of a certificate countersigned
    the claim its message names, so two certificates claiming round j
    would share an honest broadcaster that countersigned j twice: a proof
    has at most one successor.  The claimed round must be in the receipt
    message: were it left out, a certificate could join countersigns of
    several claims of one payer, use up none of them, and a stale claim
    and a later one could each complete a certificate in the same round.
    *One chain.*  A valid claim of round j shows the certificate of round
    j, or is the genesis claim, and it is countersigned only in a round
    after j; so, by induction on the round, the certificates form one
    chain from genesis, each claiming the round of the one before, in
    rising rounds.  At most one target a round gets a proof, and no
    handoff splits.  *Stale and replayed proofs.*  Once the successor of
    the certificate of round j exists, its f+1 honest signers have
    countersigned claim j, and any 2f+1 that would countersign claim j
    again include one of them, which refuses: a proof stops counting once
    the marker it shows has moved on, however often and in whichever
    round it is shown again.  *The holder.*  Let h hold the last
    certificate, of round j.  A later certificate would be its successor,
    which needs a claim of j, and only h can make one, since an intent is
    countersigned only when signed by the payer its certificate names.  So
    no honest broadcaster has countersigned a claim of j or later unless h
    showed it, and all 2f+1 honest broadcasters countersign h's one
    intent: an honest holder's claim can be pre-empted only by its own.
    """

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n, N, f, oracle, genesis_holder)
        self.broadcasters = default_broadcasters(N, f)
        self.marked = n == genesis_holder
        self.marked_round = GENESIS_ROUND
        self.proof: tuple[tuple[int, ...], bytes] = ((), b"")
        self.countersigned = GENESIS_ROUND - 1

    @staticmethod
    def check(N: int, f: int) -> None:
        if 3 * f + 1 > N:
            raise ConfigFault(f"quorum marker needs 3f+1 <= N, got N={N} f={f}")

    @staticmethod
    def steps(N: int, f: int) -> int:
        return 3

    # -- payer side ---------------------------------------------------------

    def _intent_sends(self, r: int) -> list[Send]:
        target = self.pending.pop(r)
        proof = encode_proof(*self.proof)
        if self.proof[0]:
            _proof_seeds.put((proof, self.f),
                             (self.marked_round, self.n, *self.proof))
        content = intent_content(r, self.n, target, proof)
        sm = SignedMessage(content).signed_by(self.oracle, self.n)
        wire = sm.to_bytes()
        self.marked = False
        return [Send(b, wire, 1) for b in sorted(self.broadcasters)]

    # -- broadcaster side ---------------------------------------------------

    def _proof_round(self, payer: int, proof: bytes) -> int | None:
        """Round at which the proof says the payer was marked, or None.
        A summary names 2f+1 or more broadcasters, or none."""
        summary = summarize_proof(proof, self.f)
        if summary is None:
            return None
        j, holder, signers, message = summary
        if not signers:
            return GENESIS_ROUND if payer == self.genesis_holder else None
        if holder != payer:
            return None
        return j if self.oracle.verify_all(signers, message) else None

    def _countersigns(self, r: int, inbox: list[Delivery]) -> list[Send]:
        sends = []
        for d in inbox:
            try:
                sm = SignedMessage.from_bytes(d.payload)
            except CodecError:
                continue
            fields = parse_typed(sm.payload, INTENT, 3)
            if fields is None:
                continue
            intent_round, payer, target, proof = fields
            if intent_round != r or not 0 <= target < self.N:
                continue
            if sm.signers != (payer,) or not sm.verify_stack(self.oracle):
                continue
            claimed = self._proof_round(payer, proof)
            if claimed is None or claimed >= r:
                continue
            # fresh: a claim of a later round than any countersigned before
            if claimed <= self.countersigned:
                continue
            receipt = countersign(self.oracle, self.n, receipt_message(
                r, payer, target, claimed))
            self.countersigned = claimed
            sends.append(Send(target, receipt, 1))
        return sends

    # -- target side --------------------------------------------------------

    def _accept(self, r: int, inbox: list[Delivery]) -> None:
        # the broadcasters that countersigned each receipt message of this
        # round to this target, by its (payer, claimed round)
        groups: dict[tuple[int, int], tuple[bytes, set[int]]] = {}
        for d in inbox:
            receipt = read_receipt(d.payload)
            if receipt is None:
                continue
            j, payer, target, claimed, signer, message = receipt
            if j != r or target != self.n or signer not in self.broadcasters:
                continue
            groups.setdefault((payer, claimed), (message, set()))[1].add(signer)
        quorum = 2 * self.f + 1
        for (payer, _), (message, signers) in sorted(groups.items()):
            # fewer than 2f+1 signers give no quorum: ask nothing
            if len(signers) < quorum:
                continue
            # any 2f+1 receipts prove the handoff: keep the lowest valid
            kept = tuple(islice((s for s in sorted(signers)
                                 if self.oracle.verify(s, message)), quorum))
            if len(kept) < quorum:
                continue
            self.marked = True
            self.marked_round = r
            self.proof = (kept, message)
            self.markings.append(Marking(r, self.n, payer))
            break

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        r, phase = divmod(t, self.round_steps)
        if phase == 0:
            if self.marked and r in self.pending:
                return self._intent_sends(r)
            return []
        if phase == 1 and self.n in self.broadcasters:
            return self._countersigns(r, inbox)
        if phase == 2:
            self._accept(r, inbox)
        return []


# ---------------------------------------------------------------------------
# broadcast solution


class BBMProcess(MarkerProcess):
    """Marker tracking by one authenticated broadcast per round.

    The current holder is the broadcast leader; the broadcast value is the
    target id plus one, zero meaning the round carried no handoff.  A
    process that runs a step of a round, the payer at the round's base or
    any process a delivery reaches, asks for the round's last step and
    applies the decided value there, after its broadcast's last step, so
    the holder is replicated state.  A process that hears nothing in a
    round would decide a sender fault, which moves no holder, so it does
    not run.  Broadcast signatures are scoped to the round, which keeps
    chains from one round meaningless in another.
    """

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n, N, f, oracle, genesis_holder)
        self.holder = genesis_holder
        self.ds: DSProcess | None = None
        self.ds_round = -1

    @staticmethod
    def check(N: int, f: int) -> None:
        if f > N - 2:
            raise ConfigFault(f"broadcast marker needs f <= N-2, got N={N} f={f}")

    @staticmethod
    def steps(N: int, f: int) -> int:
        return f + 3

    @property
    def marked(self) -> bool:
        return self.holder == self.n

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        r, phase = divmod(t, self.round_steps)
        if self.ds_round != r:
            value = None
            if self.marked and r in self.pending:
                value = enc_int(self.pending.pop(r) + 1)
            scoped = ScopedOracle(self.oracle, nonce_for(r))
            self.ds = DSProcess(self.n, self.N, self.f, self.holder, value, scoped)
            self.ds_round = r
            if phase < self.f + 2:
                self._wake_at(t - phase + self.f + 2)
        sends = self.ds.step(phase, inbox)
        if phase == self.f + 2:
            value, fault = self.ds.decide()
            if not fault and 1 <= value <= self.N:
                predecessor, self.holder = self.holder, value - 1
                if self.marked:
                    self.markings.append(Marking(r, self.n, predecessor))
        return sends
