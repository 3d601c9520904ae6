"""Deterministic lockstep network with an idealized signature registry.

Everything in this package runs on the model implemented here.  Time advances
in integer steps.  A message sent at step t is delivered at the beginning of
step t+1.  Honest processes are deterministic functions of what they have
received so far, and the adversary speaks for a fixed set of corrupted
processes chosen before the run starts.  The adversary is not rushing: when
it emits messages at step t it has seen only traffic delivered up to step t,
never the honest messages currently in flight.

Signatures are modelled as an oracle that remembers every (signer, content)
pair it has issued.  Verification succeeds exactly on remembered pairs.
The oracle also names the run's coalition: ``SignatureOracle(corrupted)``
is the one place a run states which processes are corrupted.  A
:class:`Network` reads the set from its oracle and hands it to its
adversary when the adversary attaches, so neither restates it.
Honest code signs for itself through a plain :class:`SignatureOracle`;
adversarial code signs through one view, :class:`CoalitionOracle`, whose
``sign`` is the one place that refuses a signature for an honest process,
by raising :class:`ForgeryViolation`.  So a signature of an honest process
can never be fabricated, and a :class:`ScopedOracle` over that view keeps
the rule inside a muxed instance.

Shared tables.  Pure results are shared and oracle verdicts never are.
A table computed from its input is a capped ``functools.lru_cache``, and
a table a producer fills for a later decoder is one :class:`Seeds`; each
states, where it is defined, the reason for its cap and its worst case
measured with ``tracemalloc`` (CPython 3.11, for a key of B bytes; wire
bytes have no size limit).  A function that raises keeps nothing, while a
``None`` result is kept and bounded like any other.  Equal inputs get the
same result object back, whose hash is then kept, so the lookups after it
do not hash the bytes again.  :meth:`ScopedOracle.verify` and
:meth:`SignedMessage.verify_stack` ask the oracle on every call, and so
does a batch, one question, :meth:`SignatureOracle.verify_all`, whether
each of some signers signed one content, because a later ``sign`` can
turn a refusal into an acceptance.  The one verdict kept is per process,
positive only, and rests on the registry being append-only: a
chain-marker process keeps the prefix of the last chain it accepted
(:class:`lockstep.cyclecoin.VerifiedPrefix`) and asks the oracle only
about the records of a later chain past it.
"""

from __future__ import annotations

import heapq
import json
from collections import OrderedDict
from collections.abc import KeysView
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np


class ProtocolFault(Exception):
    """Base class for rule violations detected by the framework."""


class ForgeryViolation(ProtocolFault):
    """The adversary tried to sign on behalf of an honest process."""


class CodecError(ProtocolFault):
    """Bytes on the wire did not parse as the expected structure."""


class ConfigFault(ProtocolFault):
    """A run was configured in a way the protocol rules forbid."""


# ---------------------------------------------------------------------------
# canonical byte encoding
#
# All wire payloads and all signed contents are built from these helpers.
# Every piece is length prefixed, which makes each encoding prefix free and
# the concatenation of encodings unambiguous to parse.

def enc_bytes(data: bytes) -> bytes:
    """Length prefixed byte string: 4 byte big endian length, then the bytes."""
    return len(data).to_bytes(4, "big") + data


def enc_int(value: int) -> bytes:
    """Signed 8 byte big endian integer, length prefixed like any chunk."""
    return enc_bytes(int(value).to_bytes(8, "big", signed=True))


def enc_str(text: str) -> bytes:
    return enc_bytes(text.encode("utf-8"))


# The length prefix of a signature stack entry that signed exactly the
# wire bytes before it: no chunk shorter than 4 GiB has it, and such an
# entry is written as its signer and this mark instead of a copy of those
# bytes (see SignedMessage).
PRIOR = b"\xff\xff\xff\xff"


class ByteReader:
    """Sequential reader for concatenated length prefixed chunks."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read_bytes(self) -> bytes:
        if self._pos + 4 > len(self._data):
            raise CodecError("truncated length prefix")
        length = int.from_bytes(self._data[self._pos:self._pos + 4], "big")
        start = self._pos + 4
        end = start + length
        if end > len(self._data):
            raise CodecError("truncated chunk")
        self._pos = end
        return self._data[start:end]

    def read_int(self) -> int:
        chunk = self.read_bytes()
        if len(chunk) != 8:
            raise CodecError("bad integer width")
        return int.from_bytes(chunk, "big", signed=True)

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("bad utf-8 chunk") from exc

    def read_prior(self) -> bool:
        """Whether a :data:`PRIOR` mark comes next, read if it does."""
        if self._data[self._pos:self._pos + 4] != PRIOR:
            return False
        self._pos += 4
        return True

    def tell(self) -> int:
        """How many bytes have been read."""
        return self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)


SEPARATOR = b"\x00"


class Seeds(OrderedDict):
    """A table a producer fills for a later decoder, keyed by what the
    decoder will be handed: at most ``cap`` entries, oldest out first."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def put(self, key, value) -> None:
        self[key] = value
        if len(self) > self.cap:
            self.popitem(last=False)


# The tag and split tables hit within a step: one payload sent to many
# recipients, one receipt checked by every broadcaster, one tagged intent
# split by each receiver.  Each at worst 256 × (2B + 0.2 KB).
@lru_cache(maxsize=256)
def tag_payload(content: bytes, nonce: bytes) -> bytes:
    """Suffix ``content`` with an instance nonce.

    The content is length prefixed and followed by a reserved separator byte,
    so the (content, nonce) split is unambiguous for any nonce bytes.  Equal
    arguments get the same bytes object back, whose hash is then kept.
    """
    return b"".join((len(content).to_bytes(4, "big"), content, SEPARATOR, nonce))


@lru_cache(maxsize=256)
def split_payload(data: bytes) -> tuple[bytes, bytes]:
    """Inverse of :func:`tag_payload`.  Raises CodecError on malformed input,
    on every call: only good splits are kept.  Reads the length prefix as
    :meth:`ByteReader.read_bytes` does, without building a reader."""
    if len(data) < 4:
        raise CodecError("truncated length prefix")
    end = 4 + int.from_bytes(data[:4], "big")
    if end > len(data):
        raise CodecError("truncated chunk")
    if data[end:end + 1] != SEPARATOR:
        raise CodecError("missing nonce separator")
    return data[4:end], data[end + 1:]


# ---------------------------------------------------------------------------
# signatures

# The messages signed_by made lately, by their own wire, which seed
# SignedMessage.from_bytes on a miss.  What is read a step after it is
# signed is an intent or a broadcast relay (a receipt is written and read
# without a SignedMessage), so one step's signing suffices: a quorum bank
# of 16 units signs at most 16 intents a step, each 0.28 KB at f=5 with
# its certificate of 2f+1 = 11 signers.  A message of B bytes and k
# entries holds its payload and the k wires before its entries, so at
# worst 64 × ((k + 2)B + 0.4 KB + 0.1 KB × k); over 20 rounds of
# Bank(16, 5) this table alone held 81 KB (tracemalloc), 190 KB while a
# proof carried its receipts whole.
_signed_seeds = Seeds(64)


def countersign(oracle, signer: int, wire: bytes) -> bytes:
    """The wire of the message whose wire is ``wire``, countersigned by
    ``signer`` through ``oracle``: wire ‖ enc_int(signer) ‖ PRIOR, whose
    entry signed ``wire`` itself, built in one join."""
    oracle.sign(signer, wire)
    return b"".join((wire, b"\x00\x00\x00\x08",
                     int(signer).to_bytes(8, "big", signed=True), PRIOR))


class SignatureOracle:
    """Registry of issued signatures, and the name of the run's coalition.

    A signature is the fact that (signer, content) was registered.  Honest
    code registers through :meth:`sign`, which signs for anyone; adversarial
    code must sign through a :class:`CoalitionOracle` over this registry,
    which signs only for the processes in ``corrupted``.
    """

    def __init__(self, corrupted: frozenset[int] = frozenset()):
        self.corrupted = frozenset(corrupted)
        self._issued: set[tuple[int, bytes]] = set()

    def sign(self, signer: int, content: bytes) -> None:
        self._issued.add((signer, content))

    def verify(self, signer: int, content: bytes) -> bool:
        return (signer, content) in self._issued

    def verify_all(self, signers: tuple[int, ...], content: bytes) -> bool:
        """Whether every one of ``signers`` signed ``content``: one
        question for a batch, answered now, like :meth:`verify`."""
        return self._issued.issuperset(zip(signers, repeat(content)))


class CoalitionOracle(SignatureOracle):
    """The view of ``base`` through which the corrupted processes sign.

    It shares the registry of ``base``, so what it signs ``base`` verifies
    and the other way round.  Its :meth:`sign` refuses to sign for an
    honest process, so honest protocol code simulated on behalf of the
    coalition, which calls ``sign`` as it always does, still cannot forge.
    """

    def __init__(self, base: SignatureOracle):
        self.corrupted = base.corrupted
        self._issued = base._issued

    def sign(self, signer: int, content: bytes) -> None:
        if signer not in self.corrupted:
            raise ForgeryViolation(
                f"adversary attempted to sign for honest process {signer}")
        self._issued.add((signer, content))


class ScopedOracle:
    """View of an oracle whose contents are all suffixed with a fixed nonce.

    Protocol code written against a plain oracle can run inside a muxed
    instance unchanged: its signatures bind the instance nonce, so they can
    never be replayed into a sibling instance.
    """

    def __init__(self, base: SignatureOracle, nonce: bytes):
        self._base = base
        self._nonce = nonce

    @property
    def corrupted(self) -> frozenset[int]:
        return self._base.corrupted

    def sign(self, signer: int, content: bytes) -> None:
        self._base.sign(signer, tag_payload(content, self._nonce))

    def verify(self, signer: int, content: bytes) -> bool:
        return self._base.verify(signer, tag_payload(content, self._nonce))

    def verify_all(self, signers: tuple[int, ...], content: bytes) -> bool:
        return self._base.verify_all(signers, tag_payload(content, self._nonce))


class once:
    """An attribute computed at its first read and stored on the instance,
    like :class:`functools.cached_property` without the lock CPython 3.11
    takes for it.  For pure functions of immutable objects only."""

    def __init__(self, fn):
        self._fn = fn
        self._name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self._fn(obj)
        # a plain store: writing through ``obj.__dict__`` would make
        # CPython build the instance dict and slow every later read
        object.__setattr__(obj, self._name, value)
        return value


@dataclass(frozen=True)
class SignedMessage:
    """A payload plus a stack of countersignatures, outermost last.

    Each stack entry holds a signer and the bytes it signed.  For a well
    formed message entry k signed the wire of the message truncated to its
    first k entries, the wire bytes before the entry, and the wire writes
    such an entry as enc_int(signer) ‖ :data:`PRIOR` instead of a copy of
    those bytes: a chain of k signatures over payload P takes
    |P| + 4 + 16k bytes.  Adversarial senders may put anything in an
    entry, and any other content is written as enc_int(signer) ‖
    enc_bytes(content), so every stack has a wire that decodes back to it.
    :meth:`verify_stack` recomputes the bytes each entry should have signed
    and rejects mismatches.  That check, the bytes and the signers are
    computed once per object; the oracle is asked on every call.
    """

    payload: bytes
    stack: tuple[tuple[int, bytes], ...] = ()

    def to_bytes(self) -> bytes:
        return self._wire

    @once
    def _wire(self) -> bytes:
        wire = enc_bytes(self.payload)
        for signer, content in self.stack:
            wire += enc_int(signer) + (PRIOR if content == wire
                                       else enc_bytes(content))
        return wire

    # what is read is an intent or a relayed chain, each by all its
    # recipients in one step, so one step's signing suffices as for
    # _signed_seeds; a parse of B bytes and k entries holds its payload
    # and a slice for each entry, so at worst
    # 64 × ((k + 2)B + 0.5 KB + 0.1 KB × k), and over 20 rounds of
    # Bank(16, 5) this table alone held 103 KB (tracemalloc), 249 KB
    # while a proof carried its receipts whole
    @classmethod
    @lru_cache(maxsize=64)
    def from_bytes(cls, data: bytes) -> "SignedMessage":
        """The message whose wire is ``data``.  An entry written as
        :data:`PRIOR` signed ``data`` up to the entry, a slice taken once
        and shared by the checks; an entry that copies those bytes in
        full, where the mark belongs, raises :class:`CodecError`, so that
        the wire kept is the one the message encodes to."""
        # on a miss, a message signed_by made lately is its own decode
        seeded = _signed_seeds.get(data)
        if seeded is not None:
            return seeded
        reader = ByteReader(data)
        payload, stack = reader.read_bytes(), []
        while not reader.at_end():
            start = reader.tell()
            signer = reader.read_int()
            if reader.read_prior():
                content = data[:start]
            else:
                content = reader.read_bytes()
                if len(content) == start and data.startswith(content):
                    raise CodecError("a copy of the wire where PRIOR belongs")
            stack.append((signer, content))
        msg = cls(payload, tuple(stack))
        # the parse is canonical, so the message encodes to ``data``
        object.__setattr__(msg, "_wire", data)
        object.__setattr__(msg, "signers", tuple(signer for signer, _ in stack))
        return msg

    @once
    def signers(self) -> tuple[int, ...]:
        return tuple(signer for signer, _ in self.stack)

    def signed_by(self, oracle, signer: int) -> "SignedMessage":
        """This message countersigned by ``signer`` through ``oracle``.
        The child gets its wire and signers by plain stores, as in
        :class:`once`, and seeds :meth:`from_bytes` with its wire."""
        content = self._wire
        wire = countersign(oracle, signer, content)
        child = SignedMessage(self.payload, self.stack + ((signer, content),))
        object.__setattr__(child, "_wire", wire)
        object.__setattr__(child, "signers", self.signers + (signer,))
        _signed_seeds.put(wire, child)
        return child

    @once
    def _formed(self) -> int:
        """How many leading entries signed exactly the wire bytes before
        them."""
        expected = enc_bytes(self.payload)
        for k, (signer, content) in enumerate(self.stack):
            if content != expected:
                return k
            expected = expected + enc_int(signer) + PRIOR
        return len(self.stack)

    def verify_stack(self, oracle) -> bool:
        formed = self._formed
        for signer, content in self.stack[:formed]:
            if not oracle.verify(signer, content):
                return False
        return formed == len(self.stack)


# ---------------------------------------------------------------------------
# network fabric


# named tuples, several times cheaper to build than frozen dataclasses
class Send(NamedTuple):
    """One outgoing message.  ``signatures`` is the signature stack depth of
    the payload and feeds the per round signature metric."""

    recipient: int
    payload: bytes
    signatures: int = 0


class Delivery(NamedTuple):
    """One received message.  A process reads only ``sender`` and
    ``payload`` of what it receives, so the network hands over the
    :class:`TranscriptEvent` it recorded, and a host that passes a message
    on builds a Delivery."""

    sender: int
    payload: bytes


class Process:
    """Base class for honest protocol logic.

    Subclasses implement :meth:`step` and return their sends.  A process is
    stepped whenever it has pending deliveries or when it has registered a
    wake for that step through the network.
    """

    def __init__(self, n: int):
        self.n = n
        self.net: Network | None = None

    def register_wakes(self) -> None:
        """Called once the process is attached to a network.  Subclasses
        schedule their spontaneous steps here via ``self.net.wake``."""

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        return []


class Adversary:
    """Controller for all corrupted processes.

    ``act`` runs once per executed step and returns (sender, Send) pairs on
    behalf of corrupted processes.  It may inspect ``net.observed``, the
    archive of everything delivered to corrupted processes so far, or read
    it through :meth:`heard`.  ``corrupted`` is the coalition it speaks
    for, which the network sets from its oracle when the adversary
    attaches.
    """

    corrupted: frozenset[int] = frozenset()
    # how far heard has read net.observed
    _cursor = 0

    def act(self, t: int, net: "Network") -> list[tuple[int, Send]]:
        return []

    def heard(self, net: "Network") -> list[Observation]:
        """The observations of senders outside the coalition that arrived
        since the last call, oldest first."""
        observed, start = net.observed, self._cursor
        self._cursor = len(observed)
        return [obs for obs in map(observed.__getitem__, range(start, self._cursor))
                if obs.sender not in self.corrupted]


class TranscriptEvent(NamedTuple):
    step: int
    round: int
    sender: int
    recipient: int
    payload: bytes
    signatures: int


class Transcript:
    """Ordered record of every send event, honest and adversarial."""

    def __init__(self):
        self.events: list[TranscriptEvent] = []

    def to_jsonl(self) -> str:
        return "".join(json.dumps({
            "step": e.step,
            "round": e.round,
            "sender": e.sender,
            "recipient": e.recipient,
            "payload_hex": e.payload.hex(),
            "n_signatures": e.signatures,
        }, separators=(",", ":")) + "\n" for e in self.events)


class MetricsLedger:
    """Message and signature counters for honest sends, keyed by round.
    Adversarial traffic is never counted here."""

    def __init__(self):
        self._rows: dict[int, list[int]] = {}

    def row(self, round_index: int) -> list[int]:
        """The [messages, signatures] counters of a round, which the
        caller adds to."""
        row = self._rows.get(round_index)
        if row is None:
            row = self._rows[round_index] = [0, 0]
        return row

    def messages(self) -> int:
        return sum(row[0] for row in self._rows.values())

    def signatures(self) -> int:
        return sum(row[1] for row in self._rows.values())

    def to_csv(self) -> str:
        lines = ["round,messages,signatures"]
        for round_index in sorted(self._rows):
            msgs, sigs = self._rows[round_index]
            lines.append(f"{round_index},{msgs},{sigs}")
        return "\n".join(lines) + "\n"


class Observation(NamedTuple):
    """One message as seen by the adversary (delivered to a corrupted id)."""

    step: int
    recipient: int
    sender: int
    payload: bytes


class Network:
    """Lockstep scheduler.

    All-honest runs are stepped sparsely: only steps that have pending
    deliveries or registered wakes execute, each from one agenda entry, and
    only the touched processes are stepped, so cost scales with traffic
    rather than with N times steps.
    With an adversary attached every step in the window runs, because the
    adversary may act spontaneously, so no agenda of due steps is kept.
    The sends one sender makes in a step are posted in one pass: the next
    step's inboxes and the round's counters are looked up once, and each
    message costs one record, its transcript event, which is also the
    recipient's delivery, and its counts.
    The corrupted processes are those of ``oracle`` (by default a fresh
    oracle with none), and ``adversary`` speaks for exactly them.
    """

    def __init__(self, processes: list[Process],
                 oracle: SignatureOracle | None = None,
                 adversary: Adversary | None = None):
        self.processes = processes
        self.N = len(processes)
        self.oracle = oracle if oracle is not None else SignatureOracle()
        self.corrupted = self.oracle.corrupted
        self.adversary = adversary
        if adversary is not None:
            adversary.corrupted = self.corrupted
        self.round = 0
        self.now = 0
        self.transcript = Transcript()
        self.metrics = MetricsLedger()
        self.observed: list[Observation] = []
        self._pending: dict[int, dict[int, list[TranscriptEvent]]] = {}
        self._wakes: dict[int, set[int]] = {}
        self._agenda: list[int] = []
        for p in processes:
            p.net = self
        for p in processes:
            if p.n not in self.corrupted:
                p.register_wakes()

    # -- scheduling ---------------------------------------------------------

    def _due(self, step: int) -> None:
        """Put ``step`` on the agenda at its first delivery or wake.  Its
        deliveries and wakes are dropped together when it runs, so a step
        sits on the agenda at most once."""
        if (self.adversary is None and step not in self._pending
                and step not in self._wakes):
            heapq.heappush(self._agenda, step)

    def wake(self, pid: int, step: int) -> None:
        if step < self.now:
            raise ConfigFault(f"wake in the past: step {step}, now {self.now}")
        self._due(step)
        self._wakes.setdefault(step, set()).add(pid)

    def queued(self, step: int) -> KeysView[int]:
        """The ids with a delivery queued for ``step``."""
        return self._pending.get(step, {}).keys()

    def _post(self, t: int, sender: int, sends: list[Send], honest: bool) -> None:
        """Record ``sender``'s sends of step ``t`` in the transcript, count
        the honest ones, and queue each event for step t+1, in order."""
        if not sends:
            return
        r, events = self.round, self.transcript.events
        inboxes = self._pending.get(t + 1)
        if inboxes is None:
            self._due(t + 1)
            inboxes = self._pending[t + 1] = {}
        row = self.metrics.row(r) if honest else None
        # tuple.__new__ builds the named tuple without the Python-level
        # __new__ of its class, at about half the cost
        new = tuple.__new__
        for recipient, payload, signatures in sends:
            event = new(TranscriptEvent, (t, r, sender, recipient, payload, signatures))
            events.append(event)
            if row is not None:
                row[0] += 1
                row[1] += signatures
            if not 0 <= recipient < self.N:
                raise ConfigFault(f"recipient {recipient} out of range")
            inbox = inboxes.get(recipient)
            if inbox is None:
                inbox = inboxes[recipient] = []
            inbox.append(event)

    def _execute(self, t: int) -> None:
        inboxes = self._pending.pop(t, {})
        for recipient in sorted(inboxes):
            if recipient in self.corrupted:
                for d in inboxes[recipient]:
                    self.observed.append(Observation(t, recipient, d.sender, d.payload))
        wakers = self._wakes.pop(t, set())
        active = sorted((set(inboxes) | wakers) - self.corrupted)
        for n in active:
            self._post(t, n, self.processes[n].step(t, inboxes.get(n, [])), True)
        if self.adversary is not None:
            moves = self.adversary.act(t, self)
            for sender, pairs in groupby(moves, lambda move: move[0]):
                if sender not in self.corrupted:
                    raise ConfigFault(f"adversary sent as honest process {sender}")
                self._post(t, sender, [send for _, send in pairs], False)

    def run_until(self, last_step: int) -> None:
        """Execute steps from ``now`` through ``last_step`` inclusive."""
        if self.adversary is not None:
            for t in range(self.now, last_step + 1):
                self._execute(t)
            self.now = last_step + 1
            return
        while self._agenda and self._agenda[0] <= last_step:
            t = heapq.heappop(self._agenda)
            if t < self.now:
                continue
            self._execute(t)
            self.now = t + 1
        self.now = max(self.now, last_step + 1)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, key path)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))
