"""Checking a chain from a verified prefix gives the verdicts of a check
from genesis.

A process keeps a :class:`VerifiedPrefix` of the last chain it accepted and
checks a later chain that extends it from its first new record.  Here honest
chains are built the way :class:`CCProcess` builds them, then cut, swapped,
replaced and re-signed, in the tail only or anywhere, and checked with and
without an earlier prefix, under the prefix's own deletions or with more
made in rounds after its groups.

The seeded coalition runs also pin the schedules of response enforcement
and of the broadcast marker: each process asks for the steps its own work
needs, and every output is that of a reference schedule that steps every
process at every offset where its family can have work.
"""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from lockstep import adversary, cyclecoin
from lockstep.adversary import ScriptAdversary, SimWorld, _audited_rounds
from lockstep.cyclecoin import (
    KIND_CHAIN,
    KIND_QUERY,
    MAIN_NONCE,
    CCProcess,
    PoRProcess,
    Record,
    TAG_BASE,
    TAG_PATH,
    TAG_X,
    TAG_Y,
    VerifiedPrefix,
    append_record,
    cycle_path,
    encode_records,
    inspect_chain,
    inspect_request,
    parse_wire,
    record_content,
    verify_payment_claim,
    wire,
)
from lockstep.marker import BBMProcess, MarkerSystem
from lockstep.payments import Bank
from lockstep.simnet import (
    CoalitionOracle,
    Delivery,
    Send,
    SignatureOracle,
    tag_payload,
)

TAGS = (TAG_BASE, TAG_PATH, TAG_X, TAG_Y)


def _history(oracle, N, deleted, payments):
    """The chains in flight (requests) and the finished chains of honest
    payments from genesis 0, in order, each extending the prefix of the
    one before, as (check, records).  ``payments`` are (idle rounds,
    target) pairs."""
    chain = append_record(oracle, 0, (), TAG_BASE)
    snapshots = [(inspect_chain, chain)]
    holder = 0
    for idle, target in payments:
        records = chain
        if records[-1].tag == TAG_Y:
            records = records[:-1] + (Record(TAG_X, records[-1].signer),)
        for _ in range(idle):
            records = append_record(oracle, holder, records, TAG_X)
        if target == holder:
            chain = records
            continue
        records = append_record(oracle, holder, records, TAG_PATH)
        for nxt in cycle_path(holder, target, N, deleted)[1:]:
            records = append_record(oracle, holder, records, TAG_X)
            snapshots.append((inspect_request, records))
            records = append_record(oracle, nxt, records, TAG_PATH)
        oracle.sign(holder, record_content(records, TAG_X))
        chain = append_record(oracle, holder, records, TAG_Y)
        snapshots.append((inspect_chain, chain))
        holder = target
    return snapshots


@st.composite
def histories(draw):
    """(N, deleted, oracle, snapshots) of a random run of honest payments
    on a cycle with some positions deleted from the start."""
    N = draw(st.integers(min_value=3, max_value=7))
    deleted = {a: -1 for a in draw(st.sets(
        st.integers(min_value=1, max_value=N - 1), max_size=N - 3))}
    alive = [n for n in range(N) if n not in deleted]
    payments = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                       st.sampled_from(alive)),
                             min_size=1, max_size=4))
    oracle = SignatureOracle()
    return N, deleted, oracle, _history(oracle, N, deleted, payments)


def _tamper(draw, chain, oracle, lo):
    """The chain with up to two records from index ``lo`` on cut, swapped,
    replaced, or re-signed over the prefix as it stands."""
    chain = list(chain)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if len(chain) <= lo:
            break
        i = draw(st.integers(min_value=lo, max_value=len(chain) - 1))
        j = draw(st.integers(min_value=lo, max_value=len(chain) - 1))
        kind = draw(st.sampled_from(("cut", "swap", "replace", "re-sign")))
        if kind == "cut":
            del chain[i:i + draw(st.integers(min_value=1, max_value=3))]
        elif kind == "swap":
            chain[i], chain[j] = chain[j], chain[i]
        elif kind == "replace":
            chain[i] = Record(draw(st.sampled_from(TAGS)),
                              draw(st.integers(min_value=0, max_value=7)))
        else:
            rec = Record(draw(st.sampled_from(TAGS)),
                         draw(st.integers(min_value=0, max_value=7)))
            oracle.sign(rec.signer, record_content(tuple(chain[:j]), rec.tag))
            chain[i] = rec
    return tuple(chain)


@settings(max_examples=300)
@given(histories(), st.data())
def test_a_check_from_a_verified_prefix_matches_a_check_from_genesis(
        history, data):
    N, deleted, oracle, snapshots = history
    i = data.draw(st.integers(min_value=0, max_value=len(snapshots) - 1))
    inspect, earlier = snapshots[i]
    elsewhere = {a: -1 for a in data.draw(st.sets(
        st.integers(min_value=1, max_value=N - 1), max_size=N - 2))}
    memo_deleted, more = data.draw(st.sampled_from(
        ((deleted, False), (deleted, True), (elsewhere, True))))
    shape = inspect(earlier, N, oracle, deleted=memo_deleted)
    assume(shape is not None)
    known = VerifiedPrefix.of(shape, encode_records(earlier))
    assert known.records == earlier[:-1]
    assert known.body == encode_records(earlier[:-1])[12:]
    # deletions made later carry rounds past the groups the prefix holds
    held = len(known.state[3])
    check_deleted = dict(memo_deleted)
    for a in data.draw(st.sets(st.integers(min_value=1, max_value=N - 1),
                               max_size=N - 2)) if more else ():
        check_deleted.setdefault(
            a, data.draw(st.integers(min_value=held, max_value=held + 3)))

    j = data.draw(st.integers(min_value=i, max_value=len(snapshots) - 1))
    lo = data.draw(st.sampled_from((0, len(known.records))))
    later = _tamper(data.draw, snapshots[j][1], oracle, lo)
    for check in (inspect_chain, inspect_request):
        assert (check(later, N, oracle, deleted=check_deleted, known=known)
                == check(later, N, oracle, deleted=check_deleted))


@settings(max_examples=100)
@given(histories(), st.data())
def test_a_prefix_cut_from_a_parsed_wire_holds_its_records_bytes(
        history, data):
    """A process keeps the bytes of a prefix cut from the record bytes
    ``parse_wire`` returns, whether the wire came from the wire table,
    from the encoder's table or from a parse of its records."""
    N, deleted, oracle, snapshots = history
    inspect, records = data.draw(st.sampled_from(snapshots))
    payload = wire(KIND_CHAIN if inspect is inspect_chain else KIND_QUERY,
                   records)
    body = encode_records(records)
    for parse, forget in ((parse_wire, False),
                          (parse_wire.__wrapped__, False),
                          (parse_wire.__wrapped__, True)):
        if forget:
            cyclecoin._encodings.pop(body, None)
        _, parsed, encoded = parse(payload)
        assert parsed == records and encoded == body
        shape = inspect(parsed, N, oracle, deleted=deleted)
        known = VerifiedPrefix.of(shape, encoded)
        assert known.records == records[:-1]
        assert known.body == b"".join(rec.enc for rec in records[:-1])


@given(histories(), st.data())
def test_a_refused_chain_passes_once_its_missing_content_is_signed(
        history, data):
    """No negative verdict is kept: a chain refused for a missing signature
    passes, with the same prefix kept, as soon as that content is signed."""
    N, deleted, full, snapshots = history
    assume(len(snapshots) > 1)
    i = data.draw(st.integers(min_value=0, max_value=len(snapshots) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(snapshots) - 1))
    (inspect, earlier), (check, later) = snapshots[i], snapshots[j]
    oracle = SignatureOracle()
    for k, rec in enumerate(earlier):
        oracle.sign(rec.signer, record_content(earlier[:k], rec.tag))
    known = VerifiedPrefix.of(inspect(earlier, N, oracle, deleted=deleted),
                              encode_records(earlier))
    missing = [(rec.signer, record_content(later[:k], rec.tag))
               for k, rec in enumerate(later)]
    missing = [entry for entry in missing if not oracle.verify(*entry)]
    assert missing
    for entry in data.draw(st.permutations(missing)):
        assert check(later, N, oracle, deleted=deleted, known=known) is None
        oracle.sign(*entry)
    shape = check(later, N, oracle, deleted=deleted, known=known)
    assert shape is not None
    assert shape == check(later, N, full, deleted=deleted)


def _known(oracle, N, snapshot):
    check, records = snapshot
    return VerifiedPrefix.of(check(records, N, oracle),
                             encode_records(records))


class _CountingOracle(SignatureOracle):
    def __init__(self):
        super().__init__()
        self.asked = 0

    def verify(self, signer, content):
        self.asked += 1
        return super().verify(signer, content)


def test_the_terminal_rule_is_applied_before_the_oracle_is_asked():
    """``inspect_chain`` refuses a request and ``inspect_request`` a
    complete chain without one signature check, from genesis and from
    the prefix of the chain before."""
    oracle = _CountingOracle()
    snapshots = _history(oracle, 6, frozenset(), [(0, 2), (1, 5), (0, 1)])
    other = {inspect_chain: inspect_request, inspect_request: inspect_chain}
    assert {check for check, _ in snapshots} == set(other)
    for k, (check, records) in enumerate(snapshots):
        assert check(records, 6, oracle) is not None
        known = _known(oracle, 6, snapshots[k - 1]) if k else None
        oracle.asked = 0
        assert other[check](records, 6, oracle) is None
        assert other[check](records, 6, oracle, known=known) is None
        assert oracle.asked == 0


def test_a_group_end_decided_past_the_prefix_is_parsed_again():
    """0 pays 1, then 1 asks 2 for the next hop.  Kept from that request is
    [base, p0, x0, p1]: whether p1 opens 1's own payment or extends 0's
    was decided by the record after it, so a chain in which 0 closes p1
    with its y parses from genesis as 0's payment to 2."""
    oracle = SignatureOracle()
    snapshots = _history(oracle, 5, frozenset(), [(0, 1), (0, 3)])
    request = snapshots[2][1]
    assert [(r.tag, r.signer) for r in request] == [
        (TAG_BASE, 0), (TAG_PATH, 0), (TAG_X, 0), (TAG_PATH, 1), (TAG_X, 1)]
    known = _known(oracle, 5, snapshots[2])
    chain = append_record(oracle, 0, request[:-1], TAG_Y)
    shape = inspect_chain(chain, 5, oracle)
    assert shape is not None and (shape.end, shape.weight) == (2, 2)
    assert inspect_chain(chain, 5, oracle, known=known) == shape


def _deletion_history():
    """A request whose kept prefix holds the groups of rounds 0 and 1: 0
    pays 1, 1 pays 3, 3 idles in round 2 and asks 4 in round 3."""
    oracle = SignatureOracle()
    snapshots = _history(oracle, 6, {}, [(0, 1), (0, 3), (1, 5)])
    check, request = snapshots[4]
    assert check is inspect_request and request[7] == Record(TAG_X, 3)
    known = _known(oracle, 6, snapshots[4])
    assert known.state[0] == 7 and len(known.state[3]) == 2
    return oracle, check, request, known


def test_deleting_an_extender_in_a_round_of_its_group_breaks_the_chain():
    """Deleting 1 in round 0 skips it as 0's payee and bars it from
    extending in round 1, so the request is malformed from genesis.  A
    process never checks it from this prefix under that deletion: the
    prefix holds round 0's group, and a deletion made after it was kept
    carries a later round."""
    oracle, check, request, known = _deletion_history()
    assert check(request, 6, oracle, known=known) is not None
    assert check(request, 6, oracle, deleted={1: 0}) is None


def test_a_deletion_after_the_prefix_rounds_gives_the_verdict_from_genesis():
    """Deleting 1 in round 2 leaves the groups of rounds 0 and 1, and the
    request checks alike from the prefix and from genesis."""
    oracle, check, request, known = _deletion_history()
    shape = check(request, 6, oracle, deleted={1: 2})
    assert shape is not None and shape.groups[-1].end == 4
    assert check(request, 6, oracle, deleted={1: 2}, known=known) == shape


@pytest.mark.parametrize("family", [CCProcess, PoRProcess])
def test_no_prefix_is_kept_of_a_chain_with_a_group_past_the_round(family):
    """The corrupted genesis holder 0 pads two idle self hops and asks 1
    to countersign the group of round 2 in round 0.  The request is well
    formed and signed, but 1 keeps no prefix of it: one of its groups is
    of a round to come, and a deletion made before then could bear on
    it.  A request of round 0 from the same holder is kept."""
    N, f = 5, 1
    oracle = SignatureOracle(frozenset({0}))
    chain = append_record(oracle, 0, (), TAG_BASE)
    ahead = append_record(oracle, 0, chain, TAG_X)
    ahead = append_record(oracle, 0, ahead, TAG_X)
    for records, kept in ((ahead, False), (chain, True)):
        records = append_record(oracle, 0, records, TAG_PATH)
        records = append_record(oracle, 0, records, TAG_X)
        assert inspect_request(records, N, oracle) is not None
        payload = wire(KIND_QUERY, records)
        if family is PoRProcess:
            payload = tag_payload(payload, MAIN_NONCE)
        proc = family(1, N, f, oracle)
        proc.step(0, [Delivery(0, payload)])
        assert (proc.verified is not None) == kept


def test_a_chain_off_the_prefix_is_checked_from_genesis():
    """A chain that does not extend the kept prefix gets no records for
    free, even where its records from the prefix length on are signed
    over the records before them."""
    oracle, scratch = SignatureOracle(), SignatureOracle()
    kept = _history(oracle, 6, frozenset(), [(0, 2), (0, 5)])
    known = _known(oracle, 6, kept[-2])
    # the same payments after one idle round, signed elsewhere, and the
    # kept chain's successor with a bogus record inside the prefix
    rivals = [entry for entry in _history(scratch, 6, frozenset(),
                                          [(1, 2), (0, 5)])
              if len(entry[1]) > len(known.records)]
    check, later = kept[-1]
    rivals.append((check, later[:2] + (Record(TAG_PATH, 4),) + later[3:]))
    for check, records in rivals:
        for k in range(len(known.records), len(records)):
            oracle.sign(records[k].signer,
                        record_content(records[:k], records[k].tag))
        assert check(records, 6, oracle) is None
        assert check(records, 6, oracle, known=known) is None


def test_a_process_keeps_the_prefix_of_the_chain_it_accepted():
    bank = Bank(6, 0, [1] * 6, family="cycle")
    bank.run_round({0: 3})
    proc = bank.unit(3, 0)
    assert proc.marked
    assert proc.verified.records == proc.chain[:-1]
    for n in (1, 2):
        (query,) = bank.unit(n, 0).signed_log.values()
        assert bank.unit(n, 0).verified.records == query[:-1]
    assert bank.unit(4, 0).verified is None
    assert CCProcess.verified is None


def test_an_audit_neither_reads_nor_writes_the_prefix():
    bank = Bank(6, 0, [1] * 6, family="cycle")
    bank.run_round({0: 3})
    target = bank.unit(3, 0)
    chain = target.chain
    kept = target.verified

    class Unreadable:
        def __getattr__(self, name):
            raise AssertionError(f"an audit read {name}")

    target.verified = Unreadable()
    assert verify_payment_claim(target, chain, 0) == ("paid", None)
    assert isinstance(target.verified, Unreadable)
    target.verified = kept
    assert verify_payment_claim(target, chain, 0) == ("paid", None)
    assert target.verified is kept


def _verifications(rounds: int) -> tuple[int, int]:
    """Oracle verifications and registry size after ``rounds`` seeded rounds
    of an eight unit cycle bank, paying as ``lockstep run`` does."""
    bank = Bank(8, 2, [1] * 8, family="cycle")
    oracle = bank.oracle
    asked = [0]
    verify = oracle.verify

    def counted(signer, content):
        asked[0] += 1
        return verify(signer, content)

    oracle.verify = counted
    rng = random.Random(1)
    for _ in range(rounds):
        plan = {}
        for payer, balance in bank.balances().items():
            if balance > 0 and rng.random() < 0.6:
                plan[payer] = rng.randrange(8)
        bank.run_round(plan)
    assert bank.audit() == []
    return asked[0], len(oracle._issued)


def test_doubling_the_rounds_at_most_two_and_a_half_times_the_checks():
    """From genesis every check re-verifies the whole chain, and 80 rounds
    took 4.27 times the verifications of 40; from the verified prefix a
    check covers what is new, and the signed contents stay the same."""
    (at_40, issued_40), (at_80, issued_80) = _verifications(40), _verifications(80)
    assert (issued_40, issued_80) == (1152, 2374)
    assert at_80 / at_40 <= 2.5


def _live(proc) -> list[int]:
    """The targets ``proc`` may pay: those it has not deleted, which under
    a family without deletions is every process."""
    return [n for n in range(proc.N) if n not in getattr(proc, "deleted", ())]


class _MarkedOnly(dict):
    """A world plan whose payments are made only by sims that hold the
    marker, to targets they have not deleted, so that no world aborts."""

    def __init__(self, plan, sims):
        super().__init__(plan)
        self.sims = sims

    def get(self, r, default=None):
        return {z: t for z, t in dict.get(self, r, {}).items()
                if self.sims[z].marked and t in _live(self.sims[z])}


def _coalition_run(seed: int, rounds: int = 6, family=PoRProcess,
                   smallest: int = 5) -> tuple[list[str], MarkerSystem]:
    """The checks and the system of one seeded run of the marker
    ``family`` at N = ``smallest``..7: a coalition of up to f processes
    runs worlds that crash (stop after a range of rounds), omit (hear only
    some senders) or fork (start late from the genesis state), while an
    honest holder pays a random live target in most rounds."""
    rng = random.Random(seed)
    N, f = rng.randint(smallest, 7), rng.randint(1, 2)
    everyone = range(N)
    coalition = sorted(rng.sample(everyone, rng.randint(1, f)))
    genesis = rng.choice(coalition if rng.random() < 0.5 else everyone)
    oracle = SignatureOracle(frozenset(coalition))
    shadow = CoalitionOracle(oracle)
    if genesis in coalition:
        shadow.sign(genesis, record_content((), TAG_BASE))
    worlds = []
    for kind in rng.sample(("crash", "omit", "fork"), rng.randint(1, 2)):
        members = rng.sample(coalition, rng.randint(1, len(coalition)))
        feed = frozenset(everyone)
        span = range(rounds)
        if kind == "crash":
            span = range(rng.randint(1, rounds - 1))
        elif kind == "omit":
            feed -= set(rng.sample(everyone, rng.randint(1, N - 1)))
        else:
            span = range(rng.randint(1, rounds - 1), rounds)
        sims = {z: family(z, N, f, shadow, genesis) for z in members}
        plan = {r: {rng.choice(members): rng.choice(everyone)}
                for r in span if rng.random() < 0.7}
        worlds.append(SimWorld(sims, feed, _MarkedOnly(plan, sims), span))
    system = MarkerSystem(family, N, f, oracle,
                          ScriptAdversary({}, worlds), genesis)

    def plans():
        for _ in range(rounds):
            holders = [p for p in system.procs
                       if p.marked and p.n not in coalition]
            if not holders or rng.random() < 0.2:
                yield {}
                continue
            payer = rng.choice(holders)
            yield {payer.n: rng.choice(_live(payer))}

    return _audited_rounds(system, plans()), system


def test_checks_from_kept_prefixes_in_coalition_runs_match_genesis(
        monkeypatch):
    """Every chain check that a process resumes from its kept prefix, in
    seeded response enforcement runs against crashing, omitting and
    forking coalitions, gives the verdict of the same check from genesis
    under the process's current deletions."""
    inspect = cyclecoin._inspect
    resumed = Counter()

    def compared(rule, records, N, oracle, genesis, deleted, known):
        shape = inspect(rule, records, N, oracle, genesis, deleted, known)
        if known is not None and records[:len(known.records)] == known.records:
            resumed[bool(deleted)] += 1
            assert shape == inspect(rule, records, N, oracle, genesis,
                                    deleted, None)
        return shape

    monkeypatch.setattr(cyclecoin, "_inspect", compared)
    for seed in range(250):
        _coalition_run(seed)
    assert resumed[True] >= 100 and resumed[False] >= 400


# ---------------------------------------------------------------------------
# the schedules a process asks for


class EagerPoRProcess(PoRProcess):
    """Response enforcement that also steps every process at offsets 0,
    2, f+4, f+5 and 2f+7 of every period of every round, whether or not
    it has work there: the reference for the schedule each process asks
    for itself.  A process asks for the first such step when its network
    or world attaches it, at a round's base, and for the next at each step
    it runs."""

    def register_wakes(self) -> None:
        self._wake_at(self.net.now)

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        sends = super().step(t, inbox)
        period, off = divmod(t, self.period_steps)
        later = [o for o in (2, self.f + 4, self.f + 5, 2 * self.f + 7)
                 if o > off]
        # offset 0 of the next period follows the last offset of this one
        self._wake_at(period * self.period_steps + later[0] if later
                      else (period + 1) * self.period_steps)
        return sends


class EagerBBMProcess(BBMProcess):
    """The broadcast marker that also steps every process at the last
    step of every round, whether or not it heard anything in it: the
    reference for the decision steps each process asks for itself.  A
    process asks for the first such step when its network or world
    attaches it, at a round's base, and for the next at each step it
    runs."""

    def register_wakes(self) -> None:
        self._wake_at(self.net.now + self.f + 2)

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        sends = super().step(t, inbox)
        r, phase = divmod(t, self.round_steps)
        self._wake_at((r + (phase == self.f + 2)) * self.round_steps
                      + self.f + 2)
        return sends


POR_STATE = ("markings", "deleted", "deletions", "chain", "refusals",
             "evidence")


def _outputs(violations, system, state=POR_STATE):
    """What a run leaves: its checks, its transcript and metrics, and the
    attributes ``state`` of each process, by default what it marked,
    deleted, holds, refused and kept as evidence."""
    return (violations, system.net.transcript.to_jsonl(),
            system.net.metrics.to_csv(),
            [tuple(getattr(p, name) for name in state) for p in system.procs])


def _counted_steps(monkeypatch, family=PoRProcess) -> Counter:
    """Count the steps of every process of ``family`` by class."""
    steps = Counter()
    step = family.step

    def counted(self, t, inbox):
        steps[type(self)] += 1
        return step(self, t, inbox)

    monkeypatch.setattr(family, "step", counted)
    return steps


def test_the_asked_for_steps_give_the_eager_schedule_in_coalition_runs(
        monkeypatch):
    """Crashing, omitting and forking coalitions, some with deletions and
    some with failed handoffs, leave the same bytes and the same process
    states on both schedules, from a tenth of the steps or fewer."""
    steps = _counted_steps(monkeypatch)
    violating = deleting = 0
    for seed in range(150):
        asked = _outputs(*_coalition_run(seed))
        assert asked == _outputs(*_coalition_run(seed, family=EagerPoRProcess))
        violating += bool(asked[0])
        deleting += any(deleted for _, deleted, *_ in asked[3])
    assert violating >= 5 and deleting >= 25
    assert steps[PoRProcess] * 10 <= steps[EagerPoRProcess]


def test_the_decision_steps_bbm_asks_for_give_the_eager_schedule(
        monkeypatch):
    """Over seeded coalition runs at N = 4..7, with the genesis holder,
    the first leader, corrupted or honest, a broadcast marker process that
    steps only in the rounds it hears something, and then at the round's
    last step too, leaves the checks, transcript, metrics, holders and
    markings of one that steps at the last step of every round, from
    fewer steps."""
    steps = _counted_steps(monkeypatch, BBMProcess)
    leaders, moved = Counter(), 0
    for seed in range(150):
        violations, system = _coalition_run(seed, 4, BBMProcess, 4)
        asked = _outputs(violations, system, ("holder", "markings"))
        assert asked == _outputs(*_coalition_run(seed, 4, EagerBBMProcess, 4),
                                 ("holder", "markings"))
        assert violations == []
        leaders[system.procs[0].genesis_holder in system.corrupted] += 1
        moved += any(markings for _, markings in asked[3])
    assert min(leaders[True], leaders[False]) >= 40 and moved >= 100
    assert steps[BBMProcess] < steps[EagerBBMProcess]


def test_the_asked_for_steps_give_the_eager_schedule_in_the_gallery(
        monkeypatch):
    """The response enforcement coalitions of the cycle gallery and every
    silent responder at N = 8, f = 2 leave the same results, bytes and
    process states on both schedules."""
    attack = adversary._marker_attack
    runs = []

    def recorded(*args):
        violations, system = attack(*args)
        runs.append(_outputs(violations, system))
        return violations, system

    monkeypatch.setattr(adversary, "_marker_attack", recorded)
    outputs = []
    for family in (PoRProcess, EagerPoRProcess):
        runs.clear()
        monkeypatch.setattr(adversary, "PoRProcess", family)
        results = adversary.cycle_por_coalitions(8) + [
            adversary.cycle_silent_responder(8, 2, target, silent)
            for silent in range(1, 7) for target in range(silent + 1, 8)]
        assert all(result.ok for result in results)
        outputs.append((results, list(runs)))
    assert len(outputs[0][1]) == 25
    assert outputs[0] == outputs[1]


def test_a_silent_responder_run_steps_only_where_there_is_work(monkeypatch):
    """One payment across a silent process at N = 8, f = 2: the payer's
    queries and complaint, the two sub-broadcasts and the settling step.
    Stepping every process at five offsets of every period took 298
    steps."""
    steps = _counted_steps(monkeypatch)
    assert adversary.cycle_silent_responder(8, 2, 5, 3).ok
    assert steps[PoRProcess] <= 60
