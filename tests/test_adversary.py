"""Attack gallery: everything must fail exactly where it should."""

import dataclasses
import types

import numpy as np
import pytest

from lockstep import adversary as gallery, simnet
from lockstep.adversary import (
    JunkAdversary,
    ScriptAdversary,
    ScriptedDSAdversary,
    SimWorld,
    _ds_audit,
    bank_gallery,
    cheating_intermediary_cases,
    cycle_gallery,
    cycle_junk,
    cycle_stale_replay,
    enumerate_ds_cases,
    exhaustive_cycle_cases,
    gallery_to_csv,
    message_floor_report,
    quorum_gallery,
    random_cycle_attack,
    random_ds_case,
    run_ds_case,
    split_double_spend,
    x_set,
    AttackResult,
)
from lockstep import marker
from lockstep.consensus import (LEADER, DSProcess, inspect_proper,
                                run_dolev_strong)
from lockstep.cyclecoin import (COMPLAINT_PREFIX, KIND_QUERY, CCProcess,
                                PoRProcess, cycle_round_steps,
                                por_period_steps, wire)
from lockstep.hopnet import (CHEAT_DENY, HopNetwork, gen_binary_search_pair,
                             gen_random_cycles, shortest_hop_path)
from lockstep.muxer import nonce_for
from lockstep.payments import Bank
from lockstep.simnet import (Adversary, CoalitionOracle, ConfigFault,
                             ForgeryViolation, Network, Process, ScopedOracle,
                             Send, SignatureOracle, seeded_rng)


def test_result_expectation_logic():
    clean = AttackResult("a", "p", 4, 1, ())
    caught = AttackResult("b", "p", 4, 1, ("boom",))
    wanted = AttackResult("c", "p", 4, 1, ("boom",), expect_violation=True)
    silent = AttackResult("d", "p", 4, 1, (), expect_violation=True)
    assert clean.ok and caught.ok is False
    assert wanted.ok and silent.ok is False


def test_gallery_csv_contract():
    rows = gallery_to_csv([AttackResult("a", "p", 4, 1, ("x", "y"))])
    lines = rows.splitlines()
    assert lines[0] == "attack,protocol,N,f,violations,expected,ok"
    assert lines[1] == "a,p,4,1,2,0,0"


def test_coalition_oracle_still_refuses_honest_keys():
    """On the coalition view and on the scoped view over it that a unit's
    signed move uses: a corrupted signer signs, an honest one is refused
    and its forgery never verifies."""
    for view in (CoalitionOracle,
                 lambda base: ScopedOracle(CoalitionOracle(base), b"unit")):
        shadow = view(SignatureOracle(frozenset({1, 2})))
        shadow.sign(1, b"fine")
        shadow.sign(2, b"also fine")
        assert shadow.verify(1, b"fine") and shadow.verify(2, b"also fine")
        with pytest.raises(ForgeryViolation):
            shadow.sign(0, b"forged")
        assert not shadow.verify(0, b"forged")


def test_scripted_broadcast_enumeration_shape():
    cases = list(enumerate_ds_cases(4, 1))
    # slots: steps 1..f+1 for three honest recipients, three actions each,
    # two leader inputs, plus the corrupted leader block at step 0
    assert len(cases) == 24_057
    sample = [run_ds_case(c) for c in cases[:40]]
    assert all(r.violations == () for r in sample)


def test_a_run_missing_an_honest_decision_is_flagged():
    run = run_dolev_strong(5, 1, 1, corrupted=frozenset({3}))
    assert _ds_audit(run, 1) == []
    dropped = dataclasses.replace(
        run, decisions={n: v for n, v in run.decisions.items() if n != 2})
    assert _ds_audit(dropped, 1) == [
        "decisions from [0, 1, 4], not from the honest [0, 1, 2, 4]"]


@pytest.mark.parametrize("corrupted, leader_value, planted, expected", [
    (frozenset({0}), None, {2: (7, False)},
     ["inconsistent decisions {1: (0, True), 2: (7, False), 3: (0, True)}"]),
    (frozenset(), 5, {n: (6, False) for n in range(4)},
     [f"process {n} decided 6 fault=False against honest leader value 5"
      for n in range(4)]),
], ids=["inconsistent", "invalid"])
def test_a_planted_broadcast_outcome_is_flagged_and_nothing_written(
        corrupted, leader_value, planted, expected):
    run = run_dolev_strong(4, 1, leader_value, corrupted=corrupted)
    assert _ds_audit(run, leader_value) == []
    run = dataclasses.replace(
        run, decisions=run.decisions | {n: v for n, (v, _) in planted.items()},
        sender_fault=run.sender_fault | {n: f for n, (_, f) in planted.items()})
    state = (dict(run.decisions), dict(run.sender_fault),
             list(run.net.transcript.events))
    assert _ds_audit(run, leader_value) == expected
    assert _ds_audit(run, leader_value) == expected
    assert (run.decisions, run.sender_fault, run.net.transcript.events) == state


def test_random_broadcast_attacks_stay_clean():
    for seed in range(150):
        result = random_ds_case(seed)
        assert result.violations == (), result.name


def _full_scan(adversary, value, net):
    """The longest proper observed chain for ``value``, the earliest among
    equals, from a scan of everything observed."""
    best = None
    for obs in net.observed:
        cand = inspect_proper(obs.payload, LEADER, net.oracle)
        if cand is None or cand.payload != value:
            continue
        if best is None or len(cand.stack) > len(best.stack):
            best = cand
    return best


def test_the_observation_cursor_picks_what_a_full_scan_picks(monkeypatch):
    cursor = ScriptedDSAdversary._best_observed
    found = []

    def checked(adversary, value, net):
        best = cursor(adversary, value, net)
        assert best == _full_scan(adversary, value, net)
        found.append(best is not None)
        return best

    monkeypatch.setattr(ScriptedDSAdversary, "_best_observed", checked)
    for case in list(enumerate_ds_cases(4, 1))[::97]:
        run_ds_case(case)
    for seed in range(300):
        random_ds_case(seed)
    assert any(found) and not all(found)


class _Watched:
    """What ``ScriptedDSAdversary`` reads of a network."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.observed = []

    def deliver(self, message):
        self.observed.append(simnet.Observation(1, 3, 0, message.to_bytes()))


def test_the_cursor_skips_chains_that_are_not_proper_and_keeps_no_verdict():
    oracle, elsewhere = SignatureOracle(), SignatureOracle()
    net = _Watched(oracle)
    value = simnet.enc_int(0)
    adversary = ScriptedDSAdversary({})
    # no network attaches it, so it is handed its coalition here
    adversary.corrupted = frozenset({3})
    root = simnet.SignedMessage(value).signed_by(oracle, 0)
    short = root.signed_by(oracle, 1)
    unsigned = short.signed_by(oracle, 2).signed_by(elsewhere, 4)
    repeated = short.signed_by(oracle, 2).signed_by(oracle, 1)
    net.observed.append(simnet.Observation(1, 3, 0, b"junk"))
    for message in (short, repeated, unsigned, root.signed_by(oracle, 2)):
        net.deliver(message)
    assert adversary._best_observed(value, net) == short
    assert adversary._best_observed(simnet.enc_int(1), net) is None
    # once its last entry is signed, the longer chain is the best
    oracle.sign(*unsigned.stack[-1])
    assert adversary._best_observed(value, net) == unsigned


def _built_networks(monkeypatch):
    built = []
    init = simnet.Network.__init__

    def register(net, *args, **kwargs):
        init(net, *args, **kwargs)
        built.append(net)

    monkeypatch.setattr(simnet.Network, "__init__", register)
    return built


def _runs(cases, seeds, networks):
    """Outcomes, transcripts and registries of broadcast attack runs."""
    results = [run_ds_case(case) for case in cases]
    results += [random_ds_case(seed) for seed in seeds]
    return (repr(results), [net.transcript.to_jsonl() for net in networks],
            [sorted(net.oracle._issued) for net in networks])


def test_a_forged_chain_built_once_sends_and_signs_what_rebuilding_does(
        monkeypatch):
    """A corrupted leader's chain for a (value, length) pair is built once
    per adversary; rebuilding it for every recipient sends the same bytes
    and leaves the same registry."""
    cases = [case for case in list(enumerate_ds_cases(4, 2))[::41]
             if LEADER in case.corrupted]
    seeds = range(0, 300, 3)
    built = _built_networks(monkeypatch)
    signed_by, chain = simnet.SignedMessage.signed_by, ScriptedDSAdversary._chain
    signs = []

    def counted(message, *args, **kwargs):
        signs.append(1)
        return signed_by(message, *args, **kwargs)

    def rebuilt(adversary, value, want_len, net):
        adversary._forged.clear()
        return chain(adversary, value, want_len, net)

    monkeypatch.setattr(simnet.SignedMessage, "signed_by", counted)
    memoized, memoized_signs = _runs(cases, seeds, built), len(signs)
    built.clear()
    monkeypatch.setattr(ScriptedDSAdversary, "_chain", rebuilt)
    assert _runs(cases, seeds, built) == memoized
    assert len(cases) > 20 and memoized_signs < len(signs) - memoized_signs


def _per_recipient_draws(net, rng, size: int, extra: int = 0) -> list[bytes]:
    """The flood's blobs in ``net``, after checking that they and the
    generator state after the run are those of one ``size`` byte draw
    from ``rng`` per recipient and step; ``extra`` payloads follow each."""
    flood = net.adversary
    honest = net.N - len(flood.corrupted)
    sent = [e.payload for e in net.transcript.events
            if e.sender == min(flood.corrupted)]
    blobs = sent[0::1 + extra]
    assert len(blobs) > honest and len(blobs) % honest == 0
    assert blobs == [bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
                     for _ in blobs]
    assert flood.rng.bit_generator.state == rng.bit_generator.state
    return sent


@pytest.mark.parametrize("N", range(5, 10))
def test_the_junk_flood_sends_what_per_recipient_draws_give(N, monkeypatch):
    built = _built_networks(monkeypatch)
    for seed in range(3):
        built.clear()
        assert cycle_junk(N, seed).violations == ()
        (net,) = built
        sent = _per_recipient_draws(net, seeded_rng(seed, 13), 12, extra=1)
        assert set(sent[1::2]) == {wire(KIND_QUERY, ())}
        built.clear()
        for result in bank_gallery("quorum", N, 1, 3, 2, seed):
            assert result.ok, (result.name, result.violations)
        (net,) = [net for net in built if isinstance(net.adversary, JunkAdversary)]
        _per_recipient_draws(net, seeded_rng(seed, 17), 10)


def test_every_gallery_adversary_acts_from_the_gallery_module():
    """``perfbench/tracer.py`` wraps an adversary's ``act`` only when it
    comes from ``lockstep.adversary``; an ``act`` from anywhere else would
    drop that coalition out of traced gallery runs."""
    classes = {name: cls for name, cls in vars(gallery).items()
               if isinstance(cls, type) and issubclass(cls, Adversary)
               and cls.__module__ == gallery.__name__}
    assert sorted(classes) == [
        "BankReplayAdversary", "JunkAdversary", "RandomDSAdversary",
        "ScriptAdversary", "ScriptedDSAdversary"]
    for cls in classes.values():
        assert cls.act.__module__ == gallery.__name__, cls


def test_a_script_adversary_sends_what_its_script_returns_at_its_steps_only():
    moves = {1: [(2, Send(0, b"one", 1))],
             3: [(2, Send(1, b"three")), (2, Send(0, b"again", 2))],
             4: []}
    played, nets = [], []

    def move(t):
        def play(net):
            played.append(t)
            nets.append(net)
            return list(moves[t])
        return play

    adversary = ScriptAdversary({t: move(t) for t in moves}, [])
    net = Network([Process(n) for n in range(3)], SignatureOracle(frozenset({2})),
                  adversary)
    net.run_until(6)
    assert [(e.step, e.sender, e.recipient, e.payload, e.signatures)
            for e in net.transcript.events] == [
        (1, 2, 0, b"one", 1), (3, 2, 1, b"three", 0), (3, 2, 0, b"again", 2)]
    assert played == [1, 3, 4] and all(n is net for n in nets)
    assert all(adversary.act(t, net) == [] for t in (0, 2, 5, 6, 7))
    assert net.metrics.messages() == 0


class _Talker(Process):
    """A simulated coalition member that asks its world, which attaches
    it at the base of its first round, for wakes at steps 1, 2 and 4 of
    that round and sends to process 1 when stepped."""

    def register_wakes(self):
        for step in (1, 2, 4):
            self.net.wake(self.n, self.net.now + step)

    def step(self, t, inbox):
        return [Send(1, b"world", 1)]


def test_a_split_adversary_sends_its_worlds_traffic_before_its_script():
    """Within one step the worlds' sends go out before the script plays,
    and a move reads in the transcript what was sent in the steps before
    its own."""
    world = SimWorld({0: _Talker(0)}, frozenset({1}), {}, range(1))
    kept = []

    def script_move(net):
        kept.append([(e.step, e.payload) for e in net.transcript.events])
        return [(0, Send(1, b"script"))]

    adversary = ScriptAdversary({2: script_move,
                                 3: lambda net: [(0, Send(1, b"alone"))]},
                                [world])
    net = Network([Process(0), Process(1)], SignatureOracle(frozenset({0})),
                  adversary)
    net.run_until(5)
    assert [(e.step, e.payload, e.signatures)
            for e in net.transcript.events] == [
        (1, b"world", 1), (2, b"world", 1), (2, b"script", 0),
        (3, b"alone", 0), (4, b"world", 1)]
    assert kept == [[(1, b"world")]]


class _Pinger(Process):
    """An honest process that sends its id to processes 0 and 3 at every
    step of a run of three rounds of two steps."""

    def register_wakes(self):
        for step in range(6):
            self.net.wake(self.n, step)

    def step(self, t, inbox):
        return [Send(0, bytes([self.n])), Send(3, bytes([self.n]))]


class _Recorder(Process):
    """A simulated coalition member whose payment in a round of two steps
    wakes it at the start of the round and which, at each step it runs,
    logs the senders it hears and sends to 1."""

    def __init__(self, n):
        super().__init__(n)
        self.log = []

    def pay(self, r, target):
        self.net.wake(self.n, 2 * r)

    def step(self, t, inbox):
        self.log.append((t, sorted(d.sender for d in inbox)))
        return [Send(1, b"sim")]


@pytest.mark.parametrize("rounds, feed, log", [
    # after its range a world neither hears nor sends: a crash
    (range(1), {1, 2}, [(0, []), (1, [1, 2])]),
    # a world first stepped in round 2 starts from a fresh sim: a fork
    (range(2, 3), {1, 2}, [(4, [1, 2]), (5, [1, 2])]),
    # a sender outside the feed is never delivered: an omission
    (range(3), {1}, [(0, []), (1, [1]), (2, [1]), (3, [1]), (4, [1]),
                     (5, [1])]),
], ids=["crash", "fork", "omission"])
def test_a_world_hears_and_sends_only_in_its_rounds_and_from_its_feed(
        rounds, feed, log):
    """The world runs member 0 of the coalition {0, 3} and skips what is
    delivered to 3; the driver sets the round before its first step."""
    sim = _Recorder(0)
    world = SimWorld({0: sim}, frozenset(feed), {r: {0: 1} for r in range(3)},
                     rounds)
    net = Network([Process(0), _Pinger(1), _Pinger(2), Process(3)],
                  SignatureOracle(frozenset({0, 3})),
                  ScriptAdversary({}, [world]))
    for r in range(3):
        net.round = r
        net.run_until(2 * r + 1)
    assert sim.log == log
    assert [e.step for e in net.transcript.events if e.sender == 0] == [
        t for t, _ in log]


@pytest.mark.parametrize("N", range(4, 10))
def test_the_stale_replay_resends_the_coalitions_earlier_sends(N, monkeypatch):
    """At its replay step the coalition sends exactly its earlier
    transcript events, each to its recipient and then rotated one on, in
    transcript order: its world sends nothing at that step."""
    built = _built_networks(monkeypatch)
    replay_step = cycle_round_steps(N)
    for target in range(1, N):
        built.clear()
        assert cycle_stale_replay(N, target).ok
        (net,) = built
        ours = [e for e in net.transcript.events if e.sender == 0]
        earlier = [e for e in ours if e.step < replay_step]
        replayed = [e for e in ours if e.step == replay_step]
        assert earlier
        assert [(e.recipient, e.payload, e.signatures) for e in replayed] == [
            (recipient, e.payload, e.signatures) for e in earlier
            for recipient in (e.recipient, (e.recipient + 1) % N)]


def test_quorum_gallery_is_clean():
    for result in quorum_gallery():
        assert result.ok, (result.name, result.violations)


def test_a_proof_of_2f_receipts_cannot_move_broadcasters_past_a_holder():
    """At N=7, f=2 the corrupted genesis holder 0 pays 1, also corrupted,
    through broadcasters 5 and 6 alone in round 0: with the coalition's
    own two, 1 holds 2f = 4 signers of its receipt message.  In the same
    round 0 pays honest 2 through 2, 3 and 4, whose 3 receipts and the
    coalition's 2 mark it.  In round 1, while 2 is idle, 1 pays itself
    with the certificate of those 4 signers through 5 and 6.  Were a
    proof of 2f signers accepted, 5 and 6 would countersign that claim of
    round 0, and 2's honest handoff to 3 in round 2, a claim of round 0
    too, would find only 3 broadcasters fresh.  It must land."""
    empty = marker.encode_proof((), b"")

    def short_self_payment(net):
        oracle = CoalitionOracle(net.oracle)
        message = marker.receipt_message(0, 0, 1, -1)
        for c in (0, 1):
            oracle.sign(c, message)
        # 5 and 6 countersigned ``message``; the coalition signs it too
        proof = marker.encode_proof((0, 1, 5, 6), message)
        wire = simnet.SignedMessage(marker.intent_content(1, 1, 1, proof)
                                    ).signed_by(oracle, 1).to_bytes()
        return [(1, Send(b, wire, 1)) for b in (5, 6)]

    script = {
        0: gallery._signed([(0, b, marker.intent_content(
            0, 0, 2 if b < 5 else 1, empty)) for b in (2, 3, 4, 5, 6)]),
        1: gallery._signed([(c, 2, marker.receipt_content(0, 0, 2, -1))
                            for c in (0, 1)]),
        3: short_self_payment,
    }
    violations, system = gallery._marker_attack(
        marker.QMProcess, 7, 2, frozenset({0, 1}), [{}, {}, {2: 3}], [],
        script, 0)
    assert violations == []
    assert [m for p in system.procs for m in p.markings] == [
        marker.Marking(0, 2, 0), marker.Marking(2, 3, 2)]


def test_cycle_galleries_are_clean():
    for result in (cycle_gallery() + exhaustive_cycle_cases()
                   + [random_cycle_attack(s) for s in range(150)]):
        assert result.ok, (result.name, result.violations)


def test_the_marker_moves_on_past_a_payer_that_fell_silent():
    """Each chain group is judged under the deletions of its own round, so
    after 2 is paid, pays 4 and falls silent, the marker goes on from 4 to
    3, then to 0 and then to 1, and only 2 is deleted."""
    everyone = frozenset(range(8))
    violations, system = gallery._marker_attack(
        PoRProcess, 8, 1, frozenset({2}), [{0: 2}, {}, {4: 3}, {3: 0}, {0: 1}],
        [({2}, everyone, {1: {2: 4}}, range(2))], {}, 0)
    assert violations == []
    assert [p.n for p in system.procs if p.marked] == [1]
    assert [p.deletions for p in system.procs if p.n != 2] == [[(2, 5, 2)]] * 7


@pytest.mark.parametrize("rounds", [2, 8])
def test_response_enforcement_holds_no_settled_sub_broadcast(rounds):
    """The corrupted 5 leads a complaint broadcast in every period of every
    round; once a period is settled no honest process keeps its
    sub-broadcasts, so what each holds does not grow with the rounds."""
    N, f = 6, 1
    period = por_period_steps(f)

    def complaint(r, k):
        nonce = COMPLAINT_PREFIX + nonce_for(r, k, 5)

        def move(net):
            leader = DSProcess(5, N, f, 5, b"junk",
                               ScopedOracle(CoalitionOracle(net.oracle), nonce))
            return [(5, Send(s.recipient, simnet.tag_payload(s.payload, nonce),
                             s.signatures))
                    for s in leader.step(0, []) if s.recipient != 5]
        return move

    script = {r * N * period + k * period + 2: complaint(r, k)
              for r in range(rounds) for k in range(N)}
    violations, system = gallery._marker_attack(
        PoRProcess, N, f, frozenset({5}), [{}] * rounds, [], script, 0)
    assert violations == []
    # every period carries the complaint and its relays
    assert len(system.net.transcript.events) == 126 * rounds
    assert [(len(p.subs), len(p.accused)) for p in system.procs[:5]] == \
        [(0, 0)] * 5


@pytest.mark.parametrize("family, name, planted, expected", [
    (CCProcess, "marked", True, ["round {r}: honest holders [0, 3]"]),
    (PoRProcess, "deletions", [(0, 0, 4)],
     ["honest processes disagree on the deletions"]),
    (PoRProcess, "deleted", {2: 0}, ["honest [2] deleted"]),
], ids=["two-holders", "deletions-disagree", "honest-deleted"])
def test_the_round_runner_flags_a_planted_process_state(family, name, planted,
                                                         expected):
    """The state is planted on process 3 before a round with no payment;
    the same checks over the next round report it again, and they change
    no process's state."""
    system = marker.MarkerSystem(family, 5, 1)
    setattr(system.procs[3], name, planted)
    for r in (0, 1):
        events = len(system.net.transcript.events)
        assert gallery._audited_rounds(system, [{}]) == [
            text.format(r=r) for text in expected]
        assert len(system.net.transcript.events) == events
        assert getattr(system.procs[3], name) == planted


def test_a_broadcast_marker_world_carries_the_marker_across_rounds():
    """A BBM sim decides each round at its own last step, so the world's 1
    knows it holds the marker after 0 pays it and can pay 2 a round on."""
    everyone = frozenset(range(5))
    violations, system = gallery._marker_attack(
        marker.BBMProcess, 5, 2, frozenset({0, 1}), [{}, {}],
        [({0, 1}, everyone, {0: {0: 1}, 1: {1: 2}}, range(2))], {}, 0)
    assert violations == []
    assert system.procs[2].markings == [marker.Marking(1, 2, 1)]
    assert {p.holder for p in system.procs[2:]} == {2}


def test_a_split_broadcast_marker_holder_spends_nothing():
    """Two worlds of the corrupted holder 0 pay 1 and 2 in one round;
    broadcast agreement leaves every honest process deciding a fault."""
    everyone = frozenset(range(5))
    violations, system = gallery._marker_attack(
        marker.BBMProcess, 5, 2, frozenset({0}), [{}],
        [({0}, everyone, {0: {0: target}}, range(1)) for target in (1, 2)],
        {}, 0)
    assert violations == []
    assert [p.markings for p in system.procs[1:]] == [[]] * 4
    assert {p.holder for p in system.procs[1:]} == {0}


def test_bank_galleries_are_clean():
    for family, f in (("quorum", 1), ("cycle", 2)):
        for result in bank_gallery(family, 6, f, 3, 5, seed=4):
            assert result.ok, (result.name, result.violations)


def test_cheating_intermediaries_always_caught():
    for result in cheating_intermediary_cases(8, 2, seed=5):
        assert result.ok, (result.name, result.violations)


def test_route_legs_read_the_unspent_routes_without_a_bank(monkeypatch):
    cycleset = gen_binary_search_pair(16)
    graph = HopNetwork(cycleset).graph()
    routes = [(a, b, shortest_hop_path(graph, a, b))
              for a in range(16) for b in range(16) if a != b]

    def refuse(*args, **kwargs):
        raise AssertionError("the route scan built a Bank")

    monkeypatch.setattr(Bank, "__init__", refuse)
    assert list(gallery._route_legs(cycleset)) == [
        (len(path.legs), a, b) for a, b, path in routes]


def test_unprotected_handoffs_fall_to_the_split():
    report = split_double_spend("strawman", 6, 3, 0, 2, 4)
    assert not report.skipped
    assert report.double_spend
    assert report.violations  # the round audit sees both markings


def test_quorum_resists_the_natural_split():
    report = split_double_spend("quorum", 7, 2, 0, 3, 5)
    assert not report.double_spend
    assert report.violations == ()


def test_cycle_resists_the_natural_split():
    for first, second in ((2, 5), (5, 2)):
        report = split_double_spend("cycle", 8, 2, 0, first, second)
        assert not report.double_spend, (first, second)
        assert report.violations == ()


def test_split_refuses_a_coalition_containing_a_target():
    with pytest.raises(ConfigFault):
        split_double_spend("quorum", 7, 2, 0, 3, 5,
                           coalition=frozenset({0, 3}))


def test_contact_sets_and_the_message_floor():
    for family in ("quorum", "cycle"):
        contacts = x_set(family, 8, 2, 0, 5)
        assert 0 in contacts and 5 in contacts
        assert message_floor_report(family, 8, 2) == []
    assert x_set("strawman", 6, 3, 0, 2) == frozenset({0, 2})


def test_the_message_floor_runs_one_handoff_per_target(monkeypatch):
    built = []

    class CountingNetwork(marker.Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(marker, "Network", CountingNetwork)
    assert message_floor_report("cycle", 8, 2) == []
    assert len(built) == 7


# ---------------------------------------------------------------------------
# the gallery's own audit strings, each reported for a planted defect


def test_the_message_floor_reports_a_handoff_below_half_its_contacts(
        monkeypatch):
    monkeypatch.setattr(gallery, "handoff", lambda family, N, f, payer, target:
                        (0, frozenset({payer, target})))
    assert message_floor_report("quorum", 4, 1) == [
        f"target {t}: 0 messages for 2 contacts" for t in (1, 2, 3)]


def test_an_equal_weight_rival_not_refuted_is_reported(monkeypatch):
    monkeypatch.setattr(gallery, "verify_payment_claim",
                        lambda target, records, r: ("paid", None))
    assert gallery.cycle_equal_weight(5).violations == (
        "rival claim audited as paid, not refuted",)


def test_a_process_that_keeps_the_silent_responder_is_reported(monkeypatch):
    attack = gallery._marker_attack

    def forgetful(*args):
        violations, system = attack(*args)
        system.procs[4].deleted.clear()
        return violations, system

    monkeypatch.setattr(gallery, "_marker_attack", forgetful)
    assert gallery.cycle_silent_responder(6, 2, 3, 1).violations == (
        "process 4 kept the silent process",)


def _planted_bank_gallery(monkeypatch, **planted):
    """The quorum bank gallery at N=6, f=1, three units over K=2 rounds,
    with a bank that, once its K rounds have run, reports each planted
    balance or marked unit: ``balances`` maps a process to the units
    added to its balance, ``marked`` holds the (process, unit) pairs
    reported as marked."""
    K = 2

    class Planted(Bank):
        def balances(self):
            got = super().balances()
            if self.round_index == K:
                for n, extra in planted.get("balances", {}).items():
                    got[n] += extra
            return got

        def unit(self, n, v):
            if self.round_index == K and (n, v) in planted.get("marked", ()):
                return types.SimpleNamespace(marked=True)
            return super().unit(n, v)

    monkeypatch.setattr(gallery, "Bank", Planted)
    return {r.name: r.violations for r in bank_gallery("quorum", 6, 1, 3, K, 4)}


def test_a_drifted_supply_is_reported(monkeypatch):
    got = _planted_bank_gallery(monkeypatch, balances={1: 1})
    assert got.pop("bank-honest-baseline") == (
        "supply drifted in the all honest run",)
    assert all(v == () for v in got.values())


def test_an_intent_split_that_mints_two_markers_is_reported(monkeypatch):
    got = _planted_bank_gallery(monkeypatch, marked={(1, 0), (2, 0)})
    assert got.pop("bank-intent-split") == ("intent split minted two markers",)
    assert all(v == () for v in got.values())


def _sweep_with(monkeypatch, name, wrap):
    """The violations, by entry name, of the cheat sweep of
    ``cheating_intermediary_cases(8, 2, seed=5)`` with ``HopNetwork.<name>``
    wrapped by ``wrap``, and the route's participants, payer first."""
    cycleset = gen_random_cycles(8, 2, 5)
    payer, payee = gallery._longest_route(cycleset)
    path = HopNetwork(cycleset).macro_payment(payer, payee).path
    chain = [payer, *path.intermediaries, payee]
    monkeypatch.setattr(HopNetwork, name, wrap(getattr(HopNetwork, name)))
    results = gallery._cheat_sweep(cycleset, payer, payee, 2, "t")
    return {r.name: r.violations for r in results}, chain


def test_a_payee_paid_through_a_cheat_is_reported(monkeypatch):
    def claiming(macro_payment):
        def paid(self, a, b, cheat=None):
            outcome = macro_payment(self, a, b, cheat=cheat)
            if cheat is not None and cheat.mode != CHEAT_DENY:
                outcome.payee_claims_paid = True
            return outcome
        return paid

    got, chain = _sweep_with(monkeypatch, "macro_payment", claiming)
    cheats = {name for name in got if name.startswith(("hop-keep", "hop-forge"))}
    assert len(cheats) == 2 * (len(chain) - 2) > 0
    for name in cheats:
        assert got.pop(name) == ("payee reports paid through a cheat",)
    assert all(v == () for v in got.values())


def test_a_walk_back_that_accuses_the_payer_is_reported(monkeypatch):
    def blaming(dispute_walkback):
        def walkback(self, outcome):
            _, trace = dispute_walkback(self, outcome)
            return outcome.payer, trace
        return walkback

    got, chain = _sweep_with(monkeypatch, "dispute_walkback", blaming)
    payer = chain[0]
    assert got.pop("hop-honest-t") == ()
    assert got.pop("hop-deny-at-payee-t") == (
        f"denying payee not accused, got {payer}",)
    assert got == {f"hop-{mode}-at-{k}-t": (
        f"accused {payer}, cheater was {chain[k]}",)
        for k in range(1, len(chain) - 1) for mode in ("keep", "forge")}
