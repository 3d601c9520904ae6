"""Authenticated broadcast and agreement under static corruption.

The core primitive is a relay optimized signed broadcast: the leader signs
its value at step 0, a designated set of f+1 relay processes rebroadcast
anything new they extract, and every other process reports its extractions
to the relays only.  A signature chain of length k is considered only at
step k, each process extracts at most two distinct values, and decisions
are read at the end of step f+2.

On top of it sit three reductions: majority vote over N parallel broadcast
instances gives binary agreement, a two round perplexity poll lifts binary
agreement to arbitrary values, and a single leader round turns any
agreement back into a broadcast.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from lockstep.muxer import MuxHost, nonce_for
from lockstep.simnet import (
    ByteReader,
    CodecError,
    ConfigFault,
    Delivery,
    Network,
    Process,
    ScopedOracle,
    Send,
    SignatureOracle,
    SignedMessage,
    enc_int,
    enc_str,
)


# ---------------------------------------------------------------------------
# relay broadcast


# the leader of every single broadcast run
LEADER = 0


def parse_int_payload(payload: bytes) -> int:
    reader = ByteReader(payload)
    value = reader.read_int()
    if not reader.at_end():
        raise CodecError("trailing bytes after integer payload")
    return value


def inspect_proper(payload: bytes, leader: int, oracle) -> SignedMessage | None:
    """Parse a wire payload as a leader anchored chain with distinct signers.

    Returns the message when the chain is proper, None otherwise.  The
    chain length rule (length k only at step k) is checked by the caller.
    """
    try:
        sm = SignedMessage.from_bytes(payload)
    except CodecError:
        return None
    signers = sm.signers
    if not signers or signers[0] != leader:
        return None
    if len(set(signers)) != len(signers):
        return None
    if not sm.verify_stack(oracle):
        return None
    return sm


def default_relays(N: int, f: int, leader: int) -> frozenset[int]:
    """The f+1 lowest process ids excluding the leader."""
    others = [m for m in range(N) if m != leader]
    return frozenset(others[:f + 1])


class DSProcess(Process):
    """One participant of the relay broadcast.

    The broadcast value is an opaque byte string; :meth:`set_input` and
    :meth:`decide` give integer callers an encoded view of it.
    ``extracted`` is the ordered list of values admitted so far; it never
    grows past two entries.  The process forwards a countersigned copy of
    each fresh chain unless its own signature is already on it, which only
    happens to the leader receiving its own initial message.  The relays
    are :func:`default_relays` of (N, f, leader).
    """

    def __init__(self, n: int, N: int, f: int, leader: int, value: bytes | None,
                 oracle):
        super().__init__(n)
        self.N = N
        self.f = f
        self.leader = leader
        self.value = value
        self.oracle = oracle
        self.extracted: list[bytes] = []

    def register_wakes(self) -> None:
        if self.n == self.leader:
            self.net.wake(self.n, 0)

    def set_input(self, value: int) -> None:
        self.value = enc_int(int(value))

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        if t == 0:
            if self.n == self.leader and self.value is not None:
                sm = SignedMessage(self.value).signed_by(self.oracle, self.n)
                wire = sm.to_bytes()
                return [Send(m, wire, 1) for m in range(self.N)]
            return []
        if t > self.f + 2:
            return []
        sends: list[Send] = []
        for payload in sorted(d.payload for d in inbox):
            sm = inspect_proper(payload, self.leader, self.oracle)
            if sm is None:
                continue
            if len(sm.stack) != t:
                continue
            if sm.payload in self.extracted:
                continue
            if len(self.extracted) >= 2:
                continue
            self.extracted.append(sm.payload)
            if self.n in sm.signers:
                continue
            signed = sm.signed_by(self.oracle, self.n)
            wire = signed.to_bytes()
            relays = default_relays(self.N, self.f, self.leader)
            if self.n in relays:
                targets = [m for m in range(self.N) if m != self.n]
            else:
                targets = sorted(relays)
            sends.extend(Send(m, wire, len(signed.stack)) for m in targets)
        return sends

    def decide_bytes(self) -> tuple[bytes, bool]:
        """Decided payload and a sender fault flag, read at the end of f+2."""
        if len(self.extracted) == 1:
            return self.extracted[0], False
        return b"", True

    def decide(self) -> tuple[int, bool]:
        """Integer view of the decision; unparseable payloads read as 0."""
        value, fault = self.decide_bytes()
        if fault:
            return 0, True
        try:
            return parse_int_payload(value), False
        except CodecError:
            return 0, False


def _run_processes(N: int, last_step: int, make, corrupted: frozenset[int],
                   adversary=None) -> tuple[dict, Network]:
    """Build process ``make(n, oracle)`` for every id, on a fresh oracle,
    and run the network to the end of ``last_step``.  Returns what each
    honest process decides, by id, and the network."""
    oracle = SignatureOracle(corrupted)
    procs = [make(n, oracle) for n in range(N)]
    net = Network(procs, oracle, adversary)
    net.run_until(last_step)
    return {n: procs[n].decide() for n in range(N) if n not in corrupted}, net


@dataclass
class BroadcastRun:
    decisions: dict[int, int]
    sender_fault: dict[int, bool]
    extracted: dict[int, tuple[bytes, ...]]
    net: Network


def run_dolev_strong(N: int, f: int, leader_value: int | None, *,
                     corrupted: frozenset[int] = frozenset(),
                     adversary=None) -> BroadcastRun:
    """One broadcast led by :data:`LEADER`."""
    if not 0 <= f <= N - 2:
        raise ConfigFault(f"need f+1 relays among N-1 non leaders, got N={N} f={f}")
    if LEADER not in corrupted and leader_value is None:
        raise ConfigFault("honest leader needs an input value")
    wire_value = None if leader_value is None else enc_int(leader_value)
    outcomes, net = _run_processes(
        N, f + 2,
        lambda n, oracle: DSProcess(n, N, f, LEADER,
                                    wire_value if n == LEADER else None,
                                    oracle),
        corrupted, adversary)
    decisions = {n: value for n, (value, _) in outcomes.items()}
    fault = {n: flag for n, (_, flag) in outcomes.items()}
    extracted = {n: tuple(net.processes[n].extracted) for n in outcomes}
    return BroadcastRun(decisions, fault, extracted, net)


def ds_message_bound(N: int, f: int) -> int:
    """Worst case honest message count for one broadcast."""
    return N + 4 * N * (f + 1)


def ds_signature_floor(N: int, f: int) -> float:
    """Lower bound on total signatures sent in an all honest broadcast."""
    return N * (f + 1) / 4


def ds_all_honest_messages(N: int, f: int) -> int:
    """Exact honest message count when nobody is corrupted.

    Leader: N initial copies.  Each relay forwards the value once to all
    other processes, each remaining process reports it once to the relays,
    and the leader never forwards because its own signature is the anchor.
    """
    return N + (f + 1) * (N - 1) + (N - f - 2) * (f + 1)


def audit_extractions(run: BroadcastRun) -> bool:
    """Cross process extraction audit.

    Whenever some honest process extracted v, every honest process must
    have extracted v as well or hold two distinct values already.  Decision
    agreement follows from this plus the one or two values rule.
    """
    honest = sorted(run.extracted)
    for n in honest:
        for v in run.extracted[n]:
            for m in honest:
                if v not in run.extracted[m] and len(run.extracted[m]) < 2:
                    return False
    return True


# ---------------------------------------------------------------------------
# binary agreement by majority over parallel broadcasts


class MajorityBAHost(MuxHost):
    """N broadcast instances side by side, one per leader, majority decide.

    Instance j is the broadcast with leader j; this host is the leader of
    instance ``n`` and feeds its input bit there.  Sender faulted instances
    count as 0.  Requires 2f < N for validity.
    """

    def __init__(self, n: int, N: int, f: int, oracle: SignatureOracle,
                 bit: int | None = None):
        instances: dict[bytes, Process] = {}
        for j in range(N):
            nonce = nonce_for(j)
            scoped = ScopedOracle(oracle, nonce)
            instances[nonce] = DSProcess(n, N, f, j, None, scoped)
        super().__init__(n, instances)
        self.wake_instance(nonce_for(n), 0)
        self.N = N
        self.f = f
        if bit is not None:
            self.set_input(bit)

    def set_input(self, bit: int) -> None:
        self.instances[nonce_for(self.n)].set_input(int(bit))

    def decide(self) -> int:
        ones = 0
        for j in range(self.N):
            value, fault = self.instances[nonce_for(j)].decide()
            if not fault and value == 1:
                ones += 1
        return 1 if 2 * ones > self.N else 0


@dataclass
class AgreementRun:
    decisions: dict[int, int]
    net: Network


def run_majority_ba(N: int, f: int, bits: dict[int, int], *,
                    corrupted: frozenset[int] = frozenset()) -> AgreementRun:
    if not 2 * f < N:
        raise ConfigFault(f"majority agreement needs 2f < N, got N={N} f={f}")
    return AgreementRun(*_run_processes(
        N, majority_ba_steps(f) - 1,
        lambda n, oracle: MajorityBAHost(
            n, N, f, oracle, bits[n] if n not in corrupted else None),
        corrupted))


def majority_ba_steps(f: int) -> int:
    return f + 3


# ---------------------------------------------------------------------------
# arbitrary values from binary agreement


CLAIM = enc_str("perplexed")


class TurpinCoanProcess(Process):
    """Two poll rounds in front of a binary agreement.

    Step 0 exchanges raw values all to all.  A process is perplexed when at
    least half of N-f received entries disagree with its own value (missing
    entries count as 0).  Step 1 announces perplexity; silence means
    content.  The wrapped binary agreement then runs on the alert bit,
    which is set when at least N-2f processes claimed perplexity.  On alert
    the decision is 0, otherwise the most frequent value among non claimant
    entries.  Requires 3f < N.
    """

    def __init__(self, n: int, N: int, f: int, value: int | None, sub):
        super().__init__(n)
        self.N = N
        self.f = f
        self.value = value
        self.sub = sub
        self.values: dict[int, int] = {}
        self.claimants: set[int] = set()
        self.fallback = 0

    def register_wakes(self) -> None:
        for s in (0, 1, 2):
            self.net.wake(self.n, s)

    def set_input(self, value: int) -> None:
        self.value = int(value)

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        if t == 0:
            return [Send(m, enc_int(self.value)) for m in range(self.N)]
        if t == 1:
            for d in inbox:
                try:
                    v = parse_int_payload(d.payload)
                except CodecError:
                    continue
                self.values.setdefault(d.sender, v)
            diffs = sum(1 for m in range(self.N)
                        if self.values.get(m, 0) != self.value)
            if 2 * diffs >= self.N - self.f:
                return [Send(m, CLAIM) for m in range(self.N)]
            return []
        if t == 2:
            passthrough = []
            for d in inbox:
                if d.payload == CLAIM:
                    self.claimants.add(d.sender)
                else:
                    passthrough.append(d)
            alert = len(self.claimants) >= self.N - 2 * self.f
            self.sub.set_input(1 if alert else 0)
            tally = Counter(self.values.get(m, 0) for m in range(self.N)
                            if m not in self.claimants)
            if tally:
                top = max(tally.values())
                best = [v for v, c in tally.items() if c == top]
                self.fallback = min(best, key=enc_int)
            return self.sub.step(0, passthrough)
        return self.sub.step(t - 2, inbox)

    def decide(self) -> int:
        return 0 if self.sub.decide() == 1 else self.fallback


def run_turpin_coan(N: int, f: int, values: dict[int, int], *,
                    corrupted: frozenset[int] = frozenset()) -> AgreementRun:
    if not 3 * f < N:
        raise ConfigFault(f"value agreement needs 3f < N, got N={N} f={f}")
    return AgreementRun(*_run_processes(
        N, turpin_coan_steps(f) - 1,
        lambda n, oracle: TurpinCoanProcess(
            n, N, f, values[n] if n not in corrupted else None,
            MajorityBAHost(n, N, f, oracle)),
        corrupted))


def turpin_coan_steps(f: int) -> int:
    return 2 + majority_ba_steps(f)


# ---------------------------------------------------------------------------
# broadcast from agreement


class BBFromBAProcess(Process):
    """One leader round in front of an agreement protocol.

    The leader signs and distributes its value at step 0.  A process that
    sees exactly one distinct properly signed leader value adopts it, any
    other sight adopts the default 0, and the wrapped agreement settles the
    rest.
    """

    def __init__(self, n: int, N: int, f: int, leader: int, value: int | None,
                 sub, oracle):
        super().__init__(n)
        self.N = N
        self.f = f
        self.leader = leader
        self.value = value
        self.sub = sub
        self.oracle = oracle

    def register_wakes(self) -> None:
        if self.n == self.leader:
            self.net.wake(self.n, 0)
        # adopt at step 1, then the wrapped poll's wakes at its steps 0 to 2
        for s in (1, 2, 3):
            self.net.wake(self.n, s)

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        if t == 0:
            if self.n == self.leader and self.value is not None:
                sm = SignedMessage(enc_int(self.value)).signed_by(self.oracle, self.n)
                wire = sm.to_bytes()
                return [Send(m, wire, 1) for m in range(self.N)]
            return []
        if t == 1:
            seen: set[int] = set()
            for d in inbox:
                try:
                    sm = SignedMessage.from_bytes(d.payload)
                    v = parse_int_payload(sm.payload)
                except CodecError:
                    continue
                if sm.signers == (self.leader,) and sm.verify_stack(self.oracle):
                    seen.add(v)
            adopted = next(iter(seen)) if len(seen) == 1 else 0
            self.sub.set_input(adopted)
            return self.sub.step(0, [])
        return self.sub.step(t - 1, inbox)

    def decide(self) -> int:
        return self.sub.decide()


def run_bb_from_ba(N: int, f: int, leader_value: int | None, *,
                   corrupted: frozenset[int] = frozenset()) -> BroadcastRun:
    """One broadcast from agreement, led by :data:`LEADER`."""
    if not 3 * f < N:
        raise ConfigFault(f"the wrapped agreement needs 3f < N, got N={N} f={f}")
    if LEADER not in corrupted and leader_value is None:
        raise ConfigFault("honest leader needs an input value")
    decisions, net = _run_processes(
        N, bb_from_ba_steps(f) - 1,
        lambda n, oracle: BBFromBAProcess(
            n, N, f, LEADER, leader_value if n == LEADER else None,
            TurpinCoanProcess(n, N, f, None, MajorityBAHost(n, N, f, oracle)),
            oracle),
        corrupted)
    fault = {n: False for n in decisions}
    extracted = {n: (decisions[n],) for n in decisions}
    return BroadcastRun(decisions, fault, extracted, net)


def bb_from_ba_steps(f: int) -> int:
    return 1 + turpin_coan_steps(f)
