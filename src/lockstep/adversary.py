"""The attack gallery.

Every protocol in this package claims safety against f corrupted
processes, and every claim here gets a concrete enemy.  The gallery has
two kinds of entries.  Attack-must-fail entries drive a real protocol
with a hostile coalition and expect the round checkers to stay silent.
Attack-must-succeed entries drive a deliberately weakened protocol with
the same machinery and expect the planted violation to surface, which is
what keeps the checkers themselves honest.

The flagship entry is the split double spend.  The coalition runs two
copies of the honest protocol side by side, one imagining a payment to
each target, and sorts incoming honest traffic between the copies by
which reference execution the sender belongs to.  Whether that attack
can work is decided entirely by how the honest contact sets of the two
payments overlap, so the gallery first measures those sets on honest
reference runs and then replays them against the coalition.

A gallery entry names its coalition once, in the
:class:`~lockstep.simnet.SignatureOracle` of its run; the network hands
that set to the adversary when it attaches, so no adversary is built with
one.  It scripts the coalition as data.  A :class:`ScriptAdversary` runs
simulation worlds, each a :class:`SimWorld` of coalition members running
the honest code, and plays a script that maps a step to a move, a
function of the network that returns what the coalition sends at that
step; a move that re-sends what the coalition sent reads it from the
transcript of the steps before.  A world starts its rounds from its own
plan, each payer through :meth:`~lockstep.marker.MarkerProcess.pay`, as a
driver starts them for honest processes, and its range of rounds and its
feed make the deviations: it forks when it starts late from fresh sims,
crashes when its range ends, and omits what it does not hear.  One runner
builds and audits every such run, and it holds every check a coalition run
gets, so an entry adds only checks the runner cannot state.  Besides
these, only adversaries that pick their sends from what they observe are
classes of their own, and one :class:`JunkAdversary` makes every flood of
random bytes, which observes nothing.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator

import numpy as np

from lockstep.cyclecoin import (
    KIND_CHAIN,
    KIND_QUERY,
    Record,
    TAG_BASE,
    TAG_PATH,
    TAG_X,
    TAG_Y,
    CCProcess,
    PoRProcess,
    append_record,
    cycle_round_steps,
    record_content,
    verify_payment_claim,
    wire,
)
from lockstep.consensus import LEADER, run_dolev_strong
from lockstep.hopnet import (
    CheatPlan,
    HopNetwork,
    CHEAT_DENY,
    CHEAT_FORGE,
    CHEAT_KEEP,
    gen_binary_search_pair,
    gen_random_cycles,
    shortest_hop_path,
    unspent_graph,
)
from lockstep.marker import (
    GENESIS_ROUND,
    Marking,
    MarkerProcess,
    MarkerSystem,
    QMProcess,
    check_marker_round,
    default_broadcasters,
    encode_proof,
    handoff,
    intent_content,
    read_receipt,
    receipt_content,
)
from lockstep.muxer import nonce_for
from lockstep.payments import FAMILIES as BANK_FAMILIES, Bank, deal
from lockstep.simnet import (
    Adversary,
    CoalitionOracle,
    CodecError,
    ConfigFault,
    Delivery,
    Network,
    Observation,
    Process,
    ScopedOracle,
    Send,
    SignatureOracle,
    SignedMessage,
    enc_int,
    enc_str,
    seeded_rng,
    tag_payload,
)


@dataclass(frozen=True)
class AttackResult:
    """One gallery entry after execution."""

    name: str
    protocol: str
    N: int
    f: int
    violations: tuple[str, ...]
    expect_violation: bool = False
    details: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.violations) == self.expect_violation


def gallery_to_csv(results: list[AttackResult]) -> str:
    lines = ["attack,protocol,N,f,violations,expected,ok"]
    for r in results:
        lines.append(f"{r.name},{r.protocol},{r.N},{r.f},{len(r.violations)},"
                     f"{int(r.expect_violation)},{int(r.ok)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# broadcast attacks


def _ds_audit(run, leader_value: int | None) -> list[str]:
    """Consistency, validity and termination of one broadcast run;
    termination means every honest process, and no other, decided."""
    violations = []
    corrupted = run.net.corrupted
    honest = set(range(run.net.N)) - corrupted
    if set(run.decisions) != honest:
        violations.append(f"decisions from {sorted(run.decisions)}, "
                          f"not from the honest {sorted(honest)}")
    outcomes = {n: (run.decisions[n], run.sender_fault[n])
                for n in run.decisions}
    if len(set(outcomes.values())) > 1:
        violations.append(f"inconsistent decisions {outcomes}")
    if LEADER not in corrupted:
        for n, (value, fault) in outcomes.items():
            if fault or value != leader_value:
                violations.append(
                    f"process {n} decided {value} fault={fault} "
                    f"against honest leader value {leader_value}")
    return violations


class ScriptedDSAdversary(Adversary):
    """Plays a fixed table of per step, per recipient actions.

    Action 0 sends nothing.  Action k sends the coalition's best chain
    for value k-1: anchored at the leader's own signature when the
    leader is corrupted, otherwise grown from an observed leader chain,
    and extended by coalition signers toward the length that will be
    proper on delivery.  Chains that cannot reach proper length are sent
    anyway; rejecting them is part of what the run exercises.
    """

    def __init__(self, script: dict[tuple[int, int], int]):
        self._actions: dict[int, list[tuple[int, int]]] = {}
        for (step, recipient), action in sorted(script.items()):
            if action:
                self._actions.setdefault(step, []).append((recipient, action))
        # value -> (-length, arrival, message) of observed chains, best first
        self._arrivals, self._candidates = 0, {}
        # (value, wanted length) -> the chain a corrupted leader anchors
        self._forged: dict[tuple[bytes, int], SignedMessage] = {}

    def _best_observed(self, value: bytes, net: Network) -> SignedMessage | None:
        """The longest observed proper chain for ``value``, the earliest
        among equals.  Each observation is parsed and shaped once; the
        oracle is asked on every call: a refused chain can pass once signed."""
        for obs in self.heard(net):
            self._arrivals += 1
            try:
                sm = SignedMessage.from_bytes(obs.payload)
            except CodecError:
                continue
            signers = sm.signers
            if signers[:1] == (LEADER,) and len(set(signers)) == len(signers):
                insort(self._candidates.setdefault(sm.payload, []),
                       (-len(signers), self._arrivals, sm))
        return next((sm for _, _, sm in self._candidates.get(value, ())
                     if sm.verify_stack(net.oracle)), None)

    def _chain(self, value: bytes, want_len: int, net: Network) -> SignedMessage | None:
        """The coalition's best chain for ``value``.  One anchored at a
        corrupted leader depends on ``value`` and ``want_len`` alone, so it
        is built and signed once: the registry only grows, so signing the
        same contents again would change nothing."""
        forged = LEADER in self.corrupted
        if forged and (value, want_len) in self._forged:
            return self._forged[value, want_len]
        shadow = CoalitionOracle(net.oracle)
        if forged:
            sm = SignedMessage(value).signed_by(shadow, LEADER)
        else:
            sm = self._best_observed(value, net)
        if sm is None:
            return None
        for z in sorted(self.corrupted):
            if len(sm.stack) >= want_len:
                break
            if z not in sm.signers:
                sm = sm.signed_by(shadow, z)
        if forged:
            self._forged[value, want_len] = sm
        return sm

    def act(self, t: int, net: Network) -> list[tuple[int, Send]]:
        out = []
        for recipient, action in self._actions.get(t, ()):
            sm = self._chain(enc_int(action - 1), t + 1, net)
            if sm is None:
                continue
            sender = sm.signers[-1] if sm.signers[-1] in self.corrupted \
                else min(self.corrupted)
            out.append((sender, Send(recipient, sm.to_bytes(), len(sm.stack))))
        return out


@dataclass
class DSCase:
    """One cell of the exhaustive broadcast attack enumeration."""

    N: int
    f: int
    corrupted: frozenset[int]
    leader_value: int | None
    script: dict[tuple[int, int], int]


def enumerate_ds_cases(N: int, f: int) -> Iterator[DSCase]:
    """Every scripted coalition at this size, against :data:`LEADER`.

    Single corrupted sets are enumerated for f=1 and pairs for f=2.  The
    action table covers each useful (send step, honest recipient) slot
    with one of send-nothing, send value 0, send value 1.  A corrupted
    leader can act from step 0; anyone else has nothing forgeable before
    it hears the leader, so its slots start at step 1.
    """
    for members in combinations(range(N), f):
        corrupted = frozenset(members)
        first = 0 if LEADER in corrupted else 1
        slots = [(t, r) for t in range(first, f + 2)
                 for r in sorted(set(range(N)) - corrupted)]
        inputs = (None,) if LEADER in corrupted else (0, 1)
        for leader_value in inputs:
            for actions in product(range(3), repeat=len(slots)):
                script = {slot: a for slot, a in zip(slots, actions) if a}
                yield DSCase(N, f, corrupted, leader_value, script)


def _ds_attack(name: str, N: int, f: int, corrupted: frozenset[int],
               leader_value: int | None, adversary: Adversary,
               details: str) -> AttackResult:
    """Run one broadcast against ``adversary`` and audit it."""
    run = run_dolev_strong(N, f, leader_value, corrupted=corrupted,
                           adversary=adversary)
    return AttackResult(name, "broadcast", N, f,
                        tuple(_ds_audit(run, leader_value)), details=details)


def run_ds_case(case: DSCase) -> AttackResult:
    return _ds_attack("broadcast-scripted", case.N, case.f, case.corrupted,
                      case.leader_value, ScriptedDSAdversary(case.script),
                      f"corrupted={sorted(case.corrupted)}")


class RandomDSAdversary(ScriptedDSAdversary):
    """Seeded mixture of silence, equivocation, junk and replays.

    Per step and honest recipient: 40% nothing, 20% best chain for value
    0, 20% for value 1, 10% both, 5% unparseable junk, 5% a verbatim
    replay of something observed (stale length on arrival, so honest
    processes must reject it).  Its chains are the scripted adversary's,
    built the same way; it draws its actions instead of reading a table.
    """

    def __init__(self, seed: int):
        super().__init__({})
        self.rng = seeded_rng(seed, 11)

    def act(self, t: int, net: Network) -> list[tuple[int, Send]]:
        out = []
        sender_pool = sorted(self.corrupted)
        for recipient in range(net.N):
            if recipient in self.corrupted:
                continue
            u = self.rng.random()
            sender = sender_pool[int(self.rng.integers(len(sender_pool)))]
            if u < 0.40:
                continue
            if u < 0.90:
                picks = ([0] if u < 0.60 else [1] if u < 0.80 else [0, 1])
                for k in picks:
                    sm = self._chain(enc_int(k), t + 1, net)
                    if sm is not None:
                        out.append((sender,
                                    Send(recipient, sm.to_bytes(), len(sm.stack))))
            elif u < 0.95:
                junk = bytes(self.rng.integers(0, 256, size=9, dtype=np.uint8))
                out.append((sender, Send(recipient, junk)))
            elif net.observed:
                pick = net.observed[int(self.rng.integers(len(net.observed)))]
                out.append((sender, Send(recipient, pick.payload)))
        return out


def random_ds_case(seed: int, *, N: int = 6, f: int = 2) -> AttackResult:
    """One seeded random broadcast attack against :data:`LEADER`;
    corrupted set and leader input are drawn from the seed as well."""
    rng = seeded_rng(seed, 7)
    members = rng.choice(N, size=f, replace=False)
    corrupted = frozenset(int(m) for m in members)
    leader_value = None if LEADER in corrupted else int(rng.integers(2))
    return _ds_attack("broadcast-random", N, f, corrupted, leader_value,
                      RandomDSAdversary(seed), f"seed={seed}")


# ---------------------------------------------------------------------------
# coalition simulations


class SimWorld:
    """One imagined execution the coalition runs internally.

    ``sims`` are honest protocol instances for some of the corrupted ids.
    Each sim's ``net`` is the world, so a sim asks for its wakes through
    :meth:`wake` exactly as it does on a real network, which refuses a
    step before ``now``.  The world attaches its sims at its first step,
    calling each one's ``register_wakes`` as a network does at its step 0.
    ``plan`` maps a round to the payments {id: target} the sims make in
    it; a payer pays at the world's first step in the round and asks, as
    on a real network, for its first step at the round's base, so the
    world's first step in a round must be that base.  The world
    hears and steps only in the rounds of the range ``rounds``: before it
    the sims are fresh, so a world that starts late forks an earlier
    state, and after it they are silent, which is a crash.  It hears the
    real messages of the senders in ``feed`` to the sims it runs, and no
    others, which is an omission.  Messages between its sims stay inside
    the world; all other traffic reaches the real wire.  A sim does all
    its work in its steps and asks for the ones it needs, so a world runs
    any family across rounds: a broadcast marker sim applies each round's
    decision at the round's last step, to which it wakes itself.
    """

    def __init__(self, sims: dict[int, Process], feed: frozenset[int],
                 plan: dict[int, dict[int, int]], rounds: range):
        self.sims = sims
        self.feed = feed
        self.plan = plan
        self.rounds = rounds
        self.round: int | None = None
        self.now = 0
        # step -> the sims that run at it without a delivery
        self.wakes: dict[int, set[int]] = {}
        self.queues: dict[int, dict[int, list[Delivery]]] = {n: {} for n in sims}
        for sim in sims.values():
            sim.net = self

    def wake(self, pid: int, step: int) -> None:
        if step < self.now:
            raise ConfigFault(f"wake in the past: step {step}, now {self.now}")
        self.wakes.setdefault(step, set()).add(pid)

    def act(self, t: int, r: int, heard: list[Observation]
            ) -> list[tuple[int, Send]]:
        """Run the world at step ``t`` of round ``r`` on the observations
        ``heard`` since the last step, and return the sends its sims make
        to the real wire.  At its first step the world attaches its sims,
        and at its first step in a round of its range it starts the round,
        each payer of its plan through
        :meth:`~lockstep.marker.MarkerProcess.pay`, as a driver does."""
        if r not in self.rounds:
            return []
        self.now = t
        if self.round is None:
            for sim in self.sims.values():
                sim.register_wakes()
        if r != self.round:
            self.round = r
            for payer, target in self.plan.get(r, {}).items():
                self.sims[payer].pay(r, target)
        for obs in heard:
            if obs.sender in self.feed and obs.recipient in self.sims:
                self.queues[obs.recipient].setdefault(obs.step, []).append(
                    Delivery(obs.sender, obs.payload))
        wakers = self.wakes.pop(t, ())
        out = []
        for n in sorted(self.sims):
            inbox = self.queues[n].pop(t, [])
            if not inbox and n not in wakers:
                continue
            for send in self.sims[n].step(t, inbox):
                if send.recipient in self.sims:
                    self.queues[send.recipient].setdefault(t + 1, []).append(
                        Delivery(n, send.payload))
                else:
                    out.append((n, send))
        return out


class ScriptAdversary(Adversary):
    """A coalition that runs its simulation ``worlds`` and plays its
    ``script``, which maps a step to a move: a function of the network
    that returns the (sender, Send) pairs the coalition sends then.

    Each world starts its rounds at the first step it runs with a new
    ``net.round``, which is the round's first step: both drivers set
    ``net.round`` before it, and a network with an adversary runs every
    step.  Within a step the worlds' traffic goes out first and the
    script's after it.  A move runs when its step does, so it signs and
    reads the network as it is then; what the coalition sent earlier it
    reads from ``net.transcript``, which holds every send of the steps
    before.
    """

    def __init__(self,
                 script: dict[int, Callable[[Network], list[tuple[int, Send]]]],
                 worlds: list[SimWorld]):
        self.script = script
        self.worlds = worlds

    def act(self, t: int, net: Network) -> list[tuple[int, Send]]:
        heard = self.heard(net)
        out = [send for world in self.worlds
               for send in world.act(t, net.round, heard)]
        move = self.script.get(t)
        return out if move is None else out + move(net)


def _marker_attack(family: type[MarkerProcess], N: int, f: int,
                   coalition: frozenset[int], plans: list[dict[int, int]],
                   worlds: list[tuple], script: dict, genesis: int
                   ) -> tuple[list[str], MarkerSystem]:
    """Run one round of ``family`` per honest plan of ``plans`` against
    ``coalition``, which plays ``script`` and runs a :class:`SimWorld` for
    each (members, feed, plan, rounds) of ``worlds``, whose sims are the
    members running the honest code; return the audit of the rounds and
    the system.  The sims of every world sign through one
    :class:`CoalitionOracle`, over which a corrupted genesis holder first
    signs the genesis record that chains start from."""
    oracle = SignatureOracle(coalition)
    shadow = CoalitionOracle(oracle)
    if genesis in coalition:
        shadow.sign(genesis, record_content((), TAG_BASE))
    sims = [SimWorld({z: family(z, N, f, shadow, genesis) for z in sorted(members)},
                     feed, plan, rounds)
            for members, feed, plan, rounds in worlds]
    # a coalition with no world and no script is silent, and a network
    # without an adversary runs only the steps that have work
    adversary = ScriptAdversary(script, sims) if script or sims else None
    system = MarkerSystem(family, N, f, oracle, adversary, genesis)
    return _audited_rounds(system, plans), system


def _audited_rounds(system, plans: list[dict[int, int]]) -> list[str]:
    """Run scripted rounds and collect every check of a coalition run.
    After each round the round checker audits its markings, at most one
    honest process holds the marker, and one does if the round marked an
    honest process; two holders that the round's own markings already
    show are reported once, by the round checker.  After the last round,
    under response enforcement, every honest process holds the same
    deletions and none is deleted: an honest process always answers."""
    violations = []
    honest = frozenset(range(system.N)) - system.corrupted
    for plan in plans:
        payer = next(iter(plan), None)
        marked = payer is not None and system.procs[payer].marked
        r = system.round_index
        markings = system.run_round(plan)
        violations.extend(check_marker_round(
            r, honest, markings, payer, marked, plan.get(payer)))
        holders = [n for n in sorted(honest) if system.procs[n].marked]
        if (len(holders) > 1 and len(markings) < 2) or (markings and not holders):
            violations.append(f"round {r}: honest holders {holders}")
    procs = [system.procs[n] for n in sorted(honest)]
    if len({tuple(getattr(p, "deletions", ())) for p in procs}) > 1:
        violations.append("honest processes disagree on the deletions")
    gone = sorted(honest & set().union(*(getattr(p, "deleted", ()) for p in procs)))
    if gone:
        violations.append(f"honest {gone} deleted")
    return violations


class JunkAdversary(Adversary):
    """Floods every honest process with random bytes at every step.

    Each honest recipient gets a ``size`` byte blob and then the ``extra``
    payloads, all from the lowest corrupted id.  The flood observes
    nothing.  A step's blobs come from one draw that holds ``size``
    rounded up to whole 32 bit words per recipient: ``Generator.integers``
    draws ``uint8`` a whole word at a time per call, so the blobs and the
    generator state after the step are those of one draw per recipient.
    """

    def __init__(self, rng: np.random.Generator, size: int,
                 extra: tuple[bytes, ...] = ()):
        self.rng = rng
        self.size = size
        self.stride = -(-size // 4) * 4
        self.extra = extra

    def act(self, t: int, net: Network) -> list[tuple[int, Send]]:
        sender, size, stride = min(self.corrupted), self.size, self.stride
        honest = [n for n in range(net.N) if n not in self.corrupted]
        blobs = self.rng.integers(0, 256, size=stride * len(honest),
                                  dtype=np.uint8).tobytes()
        return [(sender, Send(recipient, payload))
                for k, recipient in enumerate(honest)
                for payload in (blobs[stride * k:stride * k + size],
                                *self.extra)]


# ---------------------------------------------------------------------------
# the strawman


class StrawmanProcess(MarkerProcess):
    """Direct handoff marker with none of the protections.

    The payer mails one signed note straight to the target and the
    target believes any verifying note.  Nobody else hears about the
    payment, so the contact sets of two payments from the same payer are
    disjoint apart from the payer itself.  That is exactly the geometry
    the split double spend needs, and the gallery keeps this protocol
    around to show the attack and the round checker both working.
    """

    def __init__(self, n: int, N: int, f: int, oracle, genesis_holder: int = 0):
        super().__init__(n, N, f, oracle, genesis_holder)
        self.marked = n == genesis_holder

    @staticmethod
    def steps(N: int, f: int) -> int:
        return 2

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        r, phase = divmod(t, self.round_steps)
        for d in inbox:
            try:
                sm = SignedMessage.from_bytes(d.payload)
            except CodecError:
                continue
            body = sm.payload
            want = enc_str("pay") + enc_int(r) + enc_int(d.sender) + enc_int(self.n)
            if body != want or sm.signers != (d.sender,):
                continue
            if not sm.verify_stack(self.oracle):
                continue
            self.marked = True
            self.markings.append(Marking(r, self.n, d.sender))
        if phase == 0 and self.marked and r in self.pending:
            target = self.pending.pop(r)
            note = enc_str("pay") + enc_int(r) + enc_int(self.n) + enc_int(target)
            sm = SignedMessage(note).signed_by(self.oracle, self.n)
            self.marked = False
            return [Send(target, sm.to_bytes(), 1)]
        return []


# ---------------------------------------------------------------------------
# contact sets and the split double spend


# family name -> process class, the bank families plus the strawman
FAMILIES = {**BANK_FAMILIES, "strawman": StrawmanProcess}


def x_set(family: str, N: int, f: int, payer: int,
          target: int) -> frozenset[int]:
    """Processes touching any message when ``payer`` pays ``target``.

    Measured on a fresh all honest system, senders and recipients both
    count.  A payment to yourself touches nobody.
    """
    return handoff(FAMILIES[family], N, f, payer, target)[1]


def message_floor_report(family: str, N: int, f: int) -> list[str]:
    """Check that each payment sends at least half its contact set size.

    Every contacted process sent or received something, and one message
    explains at most two contacts, so measured cost below half the set
    size would mean the bookkeeping is broken."""
    problems = []
    for target in range(1, N):
        z, contacts = handoff(FAMILIES[family], N, f, 0, target)
        if z < len(contacts) / 2:
            problems.append(
                f"target {target}: {z} messages for {len(contacts)} contacts")
    return problems


@dataclass(frozen=True)
class SplitReport:
    """Outcome of one split double spend attempt."""

    family: str
    N: int
    f: int
    skipped: bool
    accepted: tuple[bool, bool]
    violations: tuple[str, ...]

    @property
    def double_spend(self) -> bool:
        return self.accepted[0] and self.accepted[1]

    def result(self, name: str, *, expect_violation: bool = False,
               details: str = "") -> AttackResult:
        """The gallery entry: the audit violations, plus one more when
        both targets accepted the marker."""
        extra = ("double spend landed",) if self.double_spend else ()
        return AttackResult(name, self.family, self.N, self.f,
                            self.violations + extra, expect_violation, details)


def split_double_spend(family: str, N: int, f: int, payer: int,
                       n1: int, n2: int,
                       *, coalition: frozenset[int] | None = None) -> SplitReport:
    """Run the two world payment split against a marker protocol.

    The coalition defaults to the intersection of the two contact sets
    plus the payer, the set the attack construction corrupts.  When that
    exceeds f the attack is structurally out of budget and the report
    says skipped; callers may instead pass a smaller coalition and watch
    the attack run out of reach.  Targets must be distinct, honest, and
    different from the payer.
    """
    if len({payer, n1, n2}) != 3:
        raise ConfigFault("need a payer and two distinct targets")
    x1 = x_set(family, N, f, payer, n1)
    x2 = x_set(family, N, f, payer, n2)
    chosen = (x1 & x2) | {payer} if coalition is None else coalition
    if len(chosen) > f or (coalition is None and not chosen.isdisjoint((n1, n2))):
        # over budget, or the contact sets only meet through a target:
        # either way the two world construction does not apply
        return SplitReport(family, N, f, True, (False, False), ())
    if payer not in chosen or n1 in chosen or n2 in chosen:
        raise ConfigFault("the coalition must contain the payer, never a target")
    worlds = [(chosen, feed, {0: {payer: target}}, range(1))
              for target, feed in ((n1, x1), (n2, x2))]
    violations, system = _marker_attack(FAMILIES[family], N, f, chosen, [{}],
                                        worlds, {}, payer)
    accepted = (bool(system.procs[n1].markings), bool(system.procs[n2].markings))
    return SplitReport(family, N, f, False, accepted, tuple(violations))


# ---------------------------------------------------------------------------
# quorum marker gallery


def _signed(sends: list[tuple[int, int, bytes]], nonce: bytes | None = None):
    """A move that signs each (sender, recipient, content) of ``sends``
    as its sender and sends it with one signature; under a unit ``nonce``
    it signs in that unit's scope and tags the payload with the nonce."""
    def move(net: Network) -> list[tuple[int, Send]]:
        oracle = CoalitionOracle(net.oracle)
        if nonce is not None:
            oracle = ScopedOracle(oracle, nonce)
        out = []
        for sender, recipient, content in sends:
            wire = SignedMessage(content).signed_by(oracle, sender).to_bytes()
            out.append((sender, Send(recipient, wire if nonce is None
                                     else tag_payload(wire, nonce), 1)))
        return out
    return move


def _claims(payer: int, shows: list[tuple[int, int, tuple[int, ...]]]):
    """A move in which corrupted ``payer`` signs, for each (target,
    claimed round, recipients) of ``shows``, its intent of the current
    round showing the certificate of its marking at the claimed round:
    the message of the receipts it was sent in that round, signed by every
    coalition member too, and all their signers.  A genesis claim shows
    the empty proof."""
    def move(net: Network) -> list[tuple[int, Send]]:
        oracle = CoalitionOracle(net.oracle)
        out = []
        for target, claimed, recipients in shows:
            proof = encode_proof((), b"")
            if claimed != GENESIS_ROUND:
                receipts = [receipt for receipt in (
                    read_receipt(e.payload) for e in net.transcript.events
                    if e.recipient == payer and e.round == claimed) if receipt]
                message = receipts[0][5]
                for c in sorted(net.corrupted):
                    oracle.sign(c, message)
                proof = encode_proof(tuple(sorted(
                    net.corrupted | {receipt[4] for receipt in receipts})), message)
            wire = SignedMessage(intent_content(net.round, payer, target, proof)
                                 ).signed_by(oracle, payer).to_bytes()
            out.extend((payer, Send(b, wire, 1)) for b in recipients)
        return out
    return move


def _split_intents(payer: int, N: int, f: int,
                   targets: tuple[int, int]) -> list[tuple[int, int, bytes]]:
    """Conflicting first round intents of a payer that owns its genesis,
    so the empty proof is valid: one paying ``targets[0]`` to the lower
    half of the broadcaster set, one paying ``targets[1]`` to the rest."""
    casters = sorted(default_broadcasters(N, f))
    return [(payer, b, intent_content(0, payer, targets[k >= len(casters) // 2],
                                      encode_proof((), b"")))
            for k, b in enumerate(casters)]


def quorum_gallery() -> list[AttackResult]:
    """Named attack-must-fail entries against the quorum marker at N=7,
    f=2, each a coalition, its honest plans and its script."""
    N, f = 7, 2
    casters = sorted(default_broadcasters(N, f))
    proof = encode_proof((), b"")
    crooked = frozenset(casters[-f:])
    entries = {
        # conflicting intents to two halves of the broadcaster set
        "quorum-split-intents": (frozenset({0}), [{}], {
            0: _signed(_split_intents(0, N, f, (1, 2)))}),
        # pay honestly, then replay the spent proof with a new round number
        "quorum-stale-proof-replay": (frozenset({0}), [{}, {1: 3}], {
            0: _signed([(0, b, intent_content(0, 0, 1, proof)) for b in casters]),
            3: _signed([(0, b, intent_content(1, 0, 2, proof)) for b in casters])}),
        # corrupted broadcasters countersign a handoff that never happened
        "quorum-fake-receipts": (crooked, [{0: 2}], {1: _signed(
            [(b, 1, receipt_content(0, 0, 1, GENESIS_ROUND))
             for b in sorted(crooked)])}),
        # corrupted holder that never spends: nothing may move
        "quorum-silent-holder": (frozenset({0}), [{}, {}], {}),
        # a corrupted genesis pays 2 through honest broadcasters 2..4 and
        # 1 through 5 and 6, and the coalition's own receipts give 2 a
        # quorum: 5 and 6 countersigned round 0 for 1, yet 2 pays on
        "quorum-equivocating-genesis": (frozenset({0, 1}), [{}, {2: 3}], {
            0: _signed([(0, b, intent_content(0, 0, 2 if b < 5 else 1, proof))
                        for b in casters[2:]]),
            1: _signed([(b, 2, receipt_content(0, 0, 2, GENESIS_ROUND))
                        for b in (0, 1)])}),
        # a corrupted genesis pays 2 through honest broadcasters 2..4 and
        # the coalition's receipts, then shows its spent genesis claim to
        # 5 and 6, which never saw round 0: their countersigns of that
        # stale claim must not bar 2's claim of round 0
        "quorum-stale-genesis-claim": (frozenset({0, 1}), [{}, {}, {2: 3}], {
            0: _signed([(0, b, intent_content(0, 0, 2, proof))
                        for b in casters[2:5]]),
            1: _signed([(b, 2, receipt_content(0, 0, 2, GENESIS_ROUND))
                        for b in (0, 1)]),
            3: _signed([(0, b, intent_content(1, 0, 1, proof))
                        for b in casters[5:]])}),
        # a corrupted genesis marks itself in rounds 0 and 1 through 2..4
        # and the coalition, then in round 2 shows its genesis claim and
        # then its claim of round 0 to 5 and 6, which missed both rounds,
        # and its claim of round 1 to 2..4, paying 5 or 6 each time: the
        # countersigns of different claims must not join into two proofs
        "quorum-mixed-claims": (frozenset({0, 1}), [{}, {}, {}], {
            0: _claims(0, [(0, GENESIS_ROUND, casters[2:5])]),
            3: _claims(0, [(0, 0, casters[2:5])]),
            6: _claims(0, [(5, GENESIS_ROUND, (5, 6)), (6, 0, (5, 6)),
                           (5, 1, (2, 3)), (6, 1, (4,))]),
            7: _signed([(c, t, receipt_content(2, 0, t, claimed))
                        for c in (0, 1) for t in (5, 6)
                        for claimed in (GENESIS_ROUND, 0, 1)])}),
        # a corrupted genesis pays 2 through honest broadcasters 2..4 and
        # the coalition's receipts, and 1 through 5 and 6, so with the
        # coalition's own two 1 holds 2f = 4 signers of its receipt
        # message; in round 1 it pays itself with them through 5 and 6.
        # Were 2f signers a proof, 5 and 6 would countersign that claim of
        # round 0, and 2's handoff in round 2, a claim of round 0 too,
        # would find only 3 broadcasters fresh
        "quorum-2f-certificate": (frozenset({0, 1}), [{}, {}, {2: 3}], {
            0: _signed([(0, b, intent_content(0, 0, 2 if b < 5 else 1, proof))
                        for b in casters[2:]]),
            1: _signed([(b, 2, receipt_content(0, 0, 2, GENESIS_ROUND))
                        for b in (0, 1)]),
            3: _claims(1, [(1, 0, (5, 6))])}),
    }
    return [AttackResult(name, "quorum", N, f, tuple(_marker_attack(
                QMProcess, N, f, coalition, plans, [], script, 0)[0]))
            for name, (coalition, plans, script) in entries.items()]


# ---------------------------------------------------------------------------
# cycle coin gallery


def cycle_stale_replay(N: int, first_target: int) -> AttackResult:
    """Corrupted holder pays, then replays the spent chain everywhere.

    The coalition behaves honestly, and at the start of the next round
    re-sends everything it sent so far, both to the original recipient
    and rotated one position on, so stale chains arrive where they are
    expected and where they are not.  Its world sends nothing at that
    step, so the transcript of the steps before holds all it sent.  The
    follow up round also carries an honest background handoff, which
    must land untouched by the stale traffic.  The follow up target is
    kept on the payer's forward arc so its route avoids the corrupted
    position; past the end of the arc it degrades to a self transfer.
    """
    def replay(net: Network) -> list[tuple[int, Send]]:
        return [(e.sender, Send(recipient, e.payload, e.signatures))
                for e in net.transcript.events if e.sender in net.corrupted
                for recipient in (e.recipient, (e.recipient + 1) % net.N)]

    follow_up = first_target + 1 if first_target + 1 < N else first_target
    world = (frozenset({0}), frozenset(range(N)), {0: {0: first_target}}, range(2))
    violations, _ = _marker_attack(
        CCProcess, N, 0, frozenset({0}), [{}, {first_target: follow_up}],
        [world], {cycle_round_steps(N): replay}, 0)
    return AttackResult("cycle-stale-replay", "cycle", N, 1, tuple(violations),
                        details=f"target={first_target}")


def cycle_equal_weight(N: int) -> AttackResult:
    """Two corrupted neighbours forge a rival chain of the spent weight.

    Round 0 pays process 2 through process 1 honestly.  Round 1 delivers
    a one hop, one hop rival of the same total weight, shaped like a
    legitimate round 1 chain ending at the same position.  The target
    must keep the chain it accepted, and a third party auditing the
    rival must get it refuted with the original as the exhibit.
    """
    if N < 4:
        raise ConfigFault("the equal weight forgery needs at least four processes")
    forged: list[tuple[Record, ...]] = []

    def rival(net: Network) -> list[tuple[int, Send]]:
        shadow = CoalitionOracle(net.oracle)
        records = (Record(TAG_BASE, 0),)
        for signer, tag in ((0, TAG_PATH), (0, TAG_X),
                            (1, TAG_PATH), (1, TAG_Y)):
            records = append_record(shadow, signer, records, tag)
        forged.append(records)
        return [(0, Send(2, wire(KIND_CHAIN, records)))]

    coalition = frozenset({0, 1})
    world = (coalition, frozenset(range(N)), {0: {0: 2}}, range(2))
    violations, system = _marker_attack(CCProcess, N, 0, coalition,
                                        [{}, {2: 3}], [world],
                                        {cycle_round_steps(N): rival}, 0)
    verdict, _ = verify_payment_claim(system.procs[2], forged[0], 1)
    if verdict != "refuted":
        violations.append(f"rival claim audited as {verdict}, not refuted")
    return AttackResult("cycle-equal-weight", "cycle", N, 2, tuple(violations))


def cycle_silent_responder(N: int, f: int, target: int,
                           silent: int) -> AttackResult:
    """A path process refuses to answer under response enforcement.

    The payment must complete anyway and every honest process must agree
    the silent process is gone from the cycle.
    """
    violations, system = _marker_attack(PoRProcess, N, f, frozenset({silent}),
                                        [{0: target}], [], {}, 0)
    honest = [n for n in range(N) if n != silent]
    for n in honest:
        if silent not in system.procs[n].deleted:
            violations.append(f"process {n} kept the silent process")
    return AttackResult("cycle-silent-responder", "cycle", N, f,
                        tuple(violations), details=f"silent={silent}")


def cycle_por_coalitions(N: int) -> list[AttackResult]:
    """Coalitions that run the honest response enforcement code and then
    crash, omit or fork, each its f, coalition, genesis holder, worlds
    and honest plans.  Every run must pass the runner's checks."""
    everyone = frozenset(range(N))
    entries = {
        # 0 pays 1 and 1 pays 2; in round 2 a fresh 0 spends the genesis
        # again toward 3, and 1 is silent and 2's refusal goes unheard
        "cycle-por-fork-double-spend": (2, {0, 1}, 0, [
            ({0, 1}, everyone, {0: {0: 1}, 1: {1: 2}}, range(2)),
            ({0}, everyone - {2}, {2: {0: 3}}, range(2, 3))], [{}, {}, {}]),
        # the same fork in round 1, in which a deaf 1 pays 2 and is deleted
        "cycle-por-same-round-fork": (2, {0, 1}, 0, [
            ({0, 1}, frozenset(), {0: {0: 1}, 1: {1: 2}}, range(2)),
            ({0}, everyone - {2}, {1: {0: 3}}, range(1, 2))], [{}, {}]),
        # 2 is paid, pays 4 and falls silent before 4 pays across it
        "cycle-por-pay-then-silent": (1, {2}, 0, [
            ({2}, everyone, {1: {2: 4}}, range(2))], [{0: 2}, {}, {4: 3}]),
        # the genesis holder 2 pays 1 and falls silent
        "cycle-por-genesis-pay-then-silent": (1, {2}, 2, [
            ({2}, everyone, {0: {2: 1}}, range(1))], [{}, {1: 3}]),
    }
    return [AttackResult(name, "cycle", N, f, tuple(_marker_attack(
                PoRProcess, N, f, frozenset(coalition), plans, worlds, {},
                genesis)[0]))
            for name, (f, coalition, genesis, worlds, plans) in entries.items()]


_EMPTY_QUERY = wire(KIND_QUERY, ())


def cycle_junk(N: int, seed: int) -> AttackResult:
    """A corrupted bystander floods garbage while honest handoffs run."""
    flood = JunkAdversary(seeded_rng(seed, 13), 12, extra=(_EMPTY_QUERY,))
    system = MarkerSystem(CCProcess, N, 0, SignatureOracle(frozenset({N - 1})),
                          flood)
    violations = _audited_rounds(system, [{0: 1}, {1: 2}])
    return AttackResult("cycle-junk", "cycle", N, 1, tuple(violations),
                        details=f"seed={seed}")


def cycle_gallery(N: int = 8) -> list[AttackResult]:
    """Named attack-must-fail entries against the chain marker."""
    results = []
    report = split_double_spend("cycle", N, 1, 0, 2, 4,
                                coalition=frozenset({0}))
    results.append(report.result("cycle-split-chains",
                                 details=f"accepted={report.accepted}"))
    results.append(cycle_stale_replay(N, 2))
    results.append(cycle_equal_weight(N))
    results.append(cycle_silent_responder(N, 2, 3, 1))
    results.append(cycle_junk(N, 1))
    return results + cycle_por_coalitions(N)


def exhaustive_cycle_cases(N: int = 4) -> list[AttackResult]:
    """Every small split and replay layout on the smallest useful cycle."""
    results = []
    f = N - 2
    honest_pairs = [(a, b) for a in range(1, N) for b in range(1, N) if a != b]
    for extra in range(N):
        coalition = frozenset({0}) if extra == 0 else frozenset({0, extra})
        if len(coalition) > f:
            continue
        for n1, n2 in honest_pairs:
            if n1 in coalition or n2 in coalition:
                continue
            report = split_double_spend("cycle", N, f, 0, n1, n2,
                                        coalition=coalition)
            results.append(report.result(
                "cycle-split-exhaustive",
                details=f"Z={sorted(coalition)} targets=({n1},{n2})"))
    for target in range(1, N):
        results.append(cycle_stale_replay(N, target))
    return results


def random_cycle_attack(seed: int, N: int = 8) -> AttackResult:
    """One seeded draw from the cycle attack mixture."""
    rng = seeded_rng(seed, 3)
    u = rng.random()
    if u < 0.35:
        pool = [n for n in range(1, N)]
        pick = rng.choice(len(pool), size=2, replace=False)
        n1, n2 = pool[int(pick[0])], pool[int(pick[1])]
        coalition = frozenset({0})
        if N > 4 and rng.random() < 0.5:
            others = [n for n in range(1, N) if n not in (n1, n2)]
            coalition = frozenset({0, others[int(rng.integers(len(others)))]})
        report = split_double_spend("cycle", N, len(coalition), 0, n1, n2,
                                    coalition=coalition)
        return report.result("cycle-split-random", details=f"seed={seed}")
    if u < 0.55:
        target = 1 + int(rng.integers(N - 1))
        return cycle_stale_replay(N, target)
    if u < 0.70:
        return cycle_equal_weight(N)
    if u < 0.85:
        silent = 1 + int(rng.integers(N - 2))
        target = silent + 1 + int(rng.integers(N - silent - 1))
        return cycle_silent_responder(N, 2, target, silent)
    return cycle_junk(N, seed)


# ---------------------------------------------------------------------------
# payment system gallery


class BankReplayAdversary(Adversary):
    """Echoes everything delivered to the coalition back into the bank."""

    def act(self, t: int, net: Network) -> list[tuple[int, Send]]:
        out = []
        sender = min(self.corrupted)
        for obs in self.heard(net):
            out.append((sender, Send(obs.sender, obs.payload)))
            out.append((sender, Send((obs.sender + 1) % net.N, obs.payload)))
        return out


def bank_gallery(family: str, N: int, f: int, V: int, K: int,
                 seed: int) -> list[AttackResult]:
    """Attack-must-fail entries against the V unit payment system.

    Every case runs K rounds of seeded honest background payments over
    the same initial distribution and then the full audit stack.  In the
    chain family a background target never routes through a corrupted
    position: the plain chain instances promise nothing about liveness
    across a silent link, that is the job of the response enforcement
    layer, so sending a payment into one would only report the known
    gap, not a safety failure.
    """
    initial = deal(N, V)

    def targets_for(payer: int, corrupted: frozenset[int]) -> list[int]:
        if family == "quorum":
            return [n for n in range(N) if n not in corrupted]
        arc = [payer]
        for n in range(payer + 1, N):
            if n in corrupted:
                break
            arc.append(n)
        return arc

    def background(bank: Bank, rounds: int, salt: int) -> list[str]:
        rng = seeded_rng(seed, 23, salt)
        problems = []
        for _ in range(rounds):
            funded = [n for n, units in bank.balances().items() if units > 0]
            plan = {}
            for payer in funded:
                if rng.random() < 0.6:
                    choices = targets_for(payer, bank.corrupted)
                    plan[payer] = choices[int(rng.integers(len(choices)))]
            bank.run_round(plan)
            problems.extend(bank.audit())
        return problems

    results = []
    bank = Bank(N, f, initial, family=family)
    problems = background(bank, K, 1)
    supply = sum(initial)
    if sum(bank.balances().values()) != supply:
        problems.append("supply drifted in the all honest run")
    results.append(AttackResult("bank-honest-baseline", family, N, f,
                                tuple(problems)))

    corrupted = frozenset({0})
    for salt, (name, adversary) in enumerate((
            ("bank-silent-holder", None),
            ("bank-junk", JunkAdversary(seeded_rng(seed, 17), 10)),
            ("bank-replay", BankReplayAdversary())), start=2):
        bank = Bank(N, f, initial, SignatureOracle(corrupted), adversary,
                    family)
        results.append(AttackResult(name, family, N, f,
                                    tuple(background(bank, K, salt))))

    if family == "quorum" and initial[0] > 0 and N >= 3:
        adversary = ScriptAdversary({0: _signed(
            _split_intents(0, N, f, (1, 2)), nonce_for(0))}, [])
        bank = Bank(N, f, initial, SignatureOracle(corrupted), adversary,
                    family)
        problems = background(bank, K, 5)
        minted = [n for n in (1, 2) if bank.unit(n, 0).marked]
        if len(minted) > 1:
            problems.append("intent split minted two markers")
        results.append(AttackResult("bank-intent-split", family, N, f,
                                    tuple(problems)))
    return results


# ---------------------------------------------------------------------------
# trusted intermediary gallery


def _route_legs(cycleset) -> Iterator[tuple[int, int, int]]:
    """(legs, payer, payee) of the shortest route of every ordered pair,
    in scan order, on the unspent network."""
    graph = unspent_graph(cycleset)
    for a in range(cycleset.N):
        for b in range(cycleset.N):
            if a != b:
                yield len(shortest_hop_path(graph, a, b).legs), a, b


def _longest_route(cycleset) -> tuple[int, int]:
    """The first endpoint pair whose shortest route uses the most hops."""
    return max(_route_legs(cycleset), key=lambda route: route[0])[1:]


def _cheat_sweep(cycleset, payer: int, payee: int, K: int,
                 label: str) -> list[AttackResult]:
    """Honest run, every keep and forge position, and a denying payee.

    Positions count route participants, 1..Z the intermediaries and Z+1
    the payee.  The walk back must accuse the planted cheater whenever
    the payee goes unpaid, and the honest run must pay without any
    dispute at all.
    """
    N = cycleset.N
    results = []
    outcome = HopNetwork(cycleset).macro_payment(payer, payee)
    problems = [] if outcome.paid else ["honest macro payment failed"]
    results.append(AttackResult(f"hop-honest-{label}", "hopnet", N, K,
                                tuple(problems)))
    legs = len(outcome.path.legs)
    chain = [payer] + list(outcome.path.intermediaries) + [payee]
    for position in range(1, legs):
        for mode in (CHEAT_KEEP, CHEAT_FORGE):
            network = HopNetwork(cycleset)
            cheated = network.macro_payment(payer, payee,
                                            cheat=CheatPlan(position, mode))
            problems = []
            if cheated.payee_claims_paid:
                problems.append("payee reports paid through a cheat")
            else:
                accused, _ = network.dispute_walkback(cheated)
                if accused != chain[position]:
                    problems.append(
                        f"accused {accused}, cheater was {chain[position]}")
            results.append(AttackResult(
                f"hop-{mode}-at-{position}-{label}", "hopnet", N, K,
                tuple(problems)))
    network = HopNetwork(cycleset)
    denied = network.macro_payment(payer, payee,
                                   cheat=CheatPlan(legs, CHEAT_DENY))
    problems = []
    accused, _ = network.dispute_walkback(denied)
    if accused != payee:
        problems.append(f"denying payee not accused, got {accused}")
    results.append(AttackResult(f"hop-deny-at-payee-{label}", "hopnet", N, K,
                                tuple(problems)))
    return results


def cheating_intermediary_cases(N: int = 8, K: int = 2,
                                seed: int = 5) -> list[AttackResult]:
    """Run every cheat mode along the longest route of a random layout."""
    cycleset = gen_random_cycles(N, K, seed)
    payer, payee = _longest_route(cycleset)
    return _cheat_sweep(cycleset, payer, payee, K, f"seed{seed}")


def dispute_coverage(N: int = 32, max_legs: int = 5) -> list[AttackResult]:
    """Cheat sweeps over one specimen route of every length up to the cap.

    The two cycle binary search layout offers shortest routes of every
    leg count at this size; for each count the first endpoint pair in
    scan order is the specimen.
    """
    cycleset = gen_binary_search_pair(N)
    specimens: dict[int, tuple[int, int]] = {}
    for legs, a, b in _route_legs(cycleset):
        if legs <= max_legs:
            specimens.setdefault(legs, (a, b))
        if len(specimens) == max_legs:
            break
    results = []
    for count in sorted(specimens):
        payer, payee = specimens[count]
        results.extend(_cheat_sweep(cycleset, payer, payee, 2,
                                    f"legs{count}"))
    return results
