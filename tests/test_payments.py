"""Multi-unit payment books built from stacked marker instances."""

import copy
import dataclasses

import pytest

from lockstep.adversary import bank_gallery
from lockstep.cyclecoin import (KIND_CHAIN, CCProcess, cycle_round_steps,
                                parse_wire)
from lockstep.hopnet import (TRACE_LATE, HopNetwork, gen_random_cycles,
                             shortest_hop_path)
from lockstep.marker import Marking, check_marker_round
from lockstep.muxer import MuxHost, nonce_for
from lockstep.payments import Bank, deal
from lockstep.simnet import (Adversary, ConfigFault, Network, Send,
                             SignatureOracle, seeded_rng, split_payload,
                             tag_payload)


def _drive(bank, rounds, seed):
    rng = seeded_rng(seed, 11)
    for _ in range(rounds):
        plan = {}
        for payer, balance in bank.balances().items():
            if balance > 0:
                plan[payer] = int(rng.integers(bank.N))
        bank.run_round(plan)


@pytest.mark.parametrize("family", ["quorum", "cycle"])
def test_honest_runs_pass_every_audit(family):
    N, f, V = 6, 1, 3
    bank = Bank(N, f, deal(N, V), family=family)
    _drive(bank, 5, seed=3)
    assert bank.audit() == []


# audit -> (row field, entries written over it, the audit's exact report)
# for round 0 of Bank(6, 1, [1] * 6), where 0 pays 3 and the rest keep
PLANTED = {
    "holdings-exceed-supply": ("audit_conservation", "balances_after", {1: 2}, [
        "round 0: honest holdings 7 exceed supply 6",
        "round 0: supply drifted to 7, expected 6"]),
    "supply-drifts": ("audit_conservation", "balances_after", {1: 0}, [
        "round 0: supply drifted to 5, expected 6"]),
    "negative-balance": ("audit_conservation", "balances_after",
                         {1: -1, 2: 3}, ["round 0: negative balance -1 at 1"]),
    "credit-without-spend": ("audit_consent", "credits", {1: (1, 2)}, [
        "round 0: 1 credited in the name of honest 2 without a "
        "matching spend"]),
    "balance-off-its-credits": ("audit_recurrence", "credits", {3: (3,)}, [
        "round 0: balance of 3 moved 1->2 but 1 credits and delta 1 "
        "predict 1"]),
    "payment-never-credited": ("audit_delivery", "credits", {3: (3,)}, [
        "round 0: payment 0->3 never credited"]),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_each_book_audit_reports_its_planted_defect_and_writes_nothing(name):
    audit, field, written, expected = PLANTED[name]
    bank = Bank(6, 1, [1] * 6, family="cycle")
    row = bank.run_round({0: 3})
    bank.history[0] = dataclasses.replace(
        row, **{field: getattr(row, field) | written})
    state = (copy.deepcopy(bank.history), bank.to_csv(), bank.balances())
    assert getattr(bank, audit)() == expected
    assert getattr(bank, audit)() == expected
    assert (bank.history, bank.to_csv(), bank.balances()) == state


@pytest.mark.parametrize("family", ["quorum", "cycle"])
def test_supply_is_exact_without_corruption(family):
    bank = Bank(5, 1, deal(5, 3), family=family)
    _drive(bank, 4, seed=9)
    for row in bank.history:
        assert sum(row.balances_after.values()) == bank.supply


def test_funded_processes_spend_every_round():
    bank = Bank(6, 1, deal(6, 2), family="quorum")
    bank.run_round({})  # nobody asked to pay: funded holders self transfer
    row = bank.history[0]
    for n, before in row.balances_before.items():
        if before > 0:
            assert row.inputs.get(n) == n
    assert bank.audit() == []


def test_cycle_keeps_are_booked_without_a_network_step(monkeypatch):
    steps = []
    monkeypatch.setattr(MuxHost, "step",
                        lambda host, t, inbox: steps.append(host.n) or [])
    bank = Bank(6, 1, deal(6, 8), family="cycle")
    row = bank.run_round({})
    funded = [n for n, before in row.balances_before.items() if before > 0]
    assert funded == list(range(6))
    for n in funded:
        assert row.inputs[n] == n
        assert row.credits[n] == (n,)
        assert row.marked_units()[row.spent_instance[n]] == (
            Marking(0, n, n),)
    assert row.balances_after == row.balances_before
    assert bank.net.transcript.events == []
    assert steps == []
    assert bank.audit() == []


def test_payment_credits_the_target_next_round_state():
    bank = Bank(6, 1, deal(6, 1), family="quorum")
    assert bank.balances()[0] == 1
    bank.run_round({0: 4})
    assert bank.balances()[4] == 1
    assert bank.balances()[0] == 0
    assert bank.audit() == []


def test_units_move_independently():
    bank = Bank(6, 1, deal(6, 2), family="quorum")
    # unit 0 sits at process 0, unit 1 at process 1; opposite directions
    bank.run_round({0: 5, 1: 2})
    assert bank.balances() == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
    assert bank.audit() == []


def test_book_export_header():
    bank = Bank(4, 1, deal(4, 1), family="quorum")
    bank.run_round({})
    header = bank.to_csv().splitlines()[0]
    assert header == ("round,process,balance_before,paid_to,"
                      "credits,balance_after")


def test_bad_initial_allocation_is_refused():
    with pytest.raises(ConfigFault):
        Bank(4, 1, [1, -1, 0, 1], family="quorum")
    with pytest.raises(ConfigFault):
        Bank(4, 1, [1, 1], family="quorum")
    with pytest.raises(ConfigFault):
        Bank(4, 1, [1, 0, 0, 0], family="marble")


@pytest.mark.parametrize("payer,target", [(-1, 0), (4, 0), (0, -1), (0, 4)])
def test_a_payment_naming_no_process_is_refused(payer, target):
    bank = Bank(4, 0, [1, 1, 1, 1], family="cycle")
    with pytest.raises(ConfigFault) as exc:
        bank.run_round({payer: target})
    assert str(exc.value) == f"round 0: payment {payer}->{target} out of range"
    assert bank.round_index == 0 and bank.history == []


def test_an_honest_payer_with_nothing_to_spend_is_refused():
    bank = Bank(4, 0, [2, 0, 1, 1], family="cycle")
    with pytest.raises(ConfigFault) as exc:
        bank.run_round({1: 3})
    assert str(exc.value) == "round 0: process 1 has no balance to spend"
    assert bank.round_index == 0 and bank.history == []
    # paying itself asks nothing of its balance
    bank.run_round({1: 1})
    assert bank.balances() == {0: 2, 1: 0, 2: 1, 3: 1}


def test_silent_corrupted_holder_cannot_break_conservation():
    # process 2 holds a unit and never spends; books must stay consistent
    bank = Bank(6, 1, deal(6, 3), SignatureOracle(frozenset({2})),
                family="quorum")
    _drive(bank, 4, seed=5)
    assert bank.audit() == []
    for row in bank.history:
        assert sum(row.balances_after.values()) <= bank.supply


def test_an_instance_nobody_fed_or_marked_passes_every_rule():
    # why the instance audit replays only the instances a round marked or
    # fed: the rules have nothing to say about the others
    for N in range(1, 7):
        for mask in range(1 << N):
            honest = frozenset(n for n in range(N) if mask >> n & 1)
            for r in (0, 1, 7):
                assert check_marker_round(r, honest, [], None, False,
                                          None) == []


def _ref_audit_instances(bank):
    """The instance audit as a replay of every unit of every round."""
    violations = []
    for row in bank.history:
        fed = {v: payer for payer, v in row.spent_instance.items()}
        for v in range(bank.supply):
            payer = fed.get(v)
            target = row.inputs[payer] if payer is not None else None
            for text in check_marker_round(
                    row.round, bank.honest, list(row.marked_units().get(v, ())),
                    payer, payer is not None, target):
                violations.append(f"instance {v}: {text}")
    return violations


def test_the_sparse_instance_audit_equals_a_replay_of_every_unit():
    # payments routed across the silent corrupted process 5 do not land
    bank = Bank(6, 1, deal(6, 9), SignatureOracle(frozenset({5})),
                family="cycle")
    _drive(bank, 4, seed=2)
    landed = bank.audit_instances()
    assert landed and landed == _ref_audit_instances(bank)
    # forge markings on two units nobody fed: two honest holders in the
    # name of the corrupted 5, and a mark in the name of honest 1
    for row in bank.history:
        u, w = [u for u in range(bank.supply)
                if u not in row.spent_instance.values()][:2]
        forged = [(2, u, (Marking(row.round, 2, 5),)),
                  (3, u, (Marking(row.round, 3, 5),)),
                  (4, w, (Marking(row.round, 4, 1),))]
        bank.history[row.round] = dataclasses.replace(
            row, tails=sorted(list(row.tails) + forged))
    found = bank.audit_instances()
    assert found == _ref_audit_instances(bank)
    assert len(found) == len(landed) + 2 * len(bank.history)


# -- the book against its defining scans ---------------------------------
#
# These reference functions are the plain definitions of the book: every
# count and every marking read straight off the instance states.  The
# bank keeps its book with cheaper passes, and every field of every
# BankRound must equal what these scans give, round by round.


def _ref_marked(bank, n, v):
    return bool(bank.hosts[n].instances[bank.nonces[v]].marked)


def _ref_balances(bank):
    return {n: sum(1 for v in range(bank.supply) if _ref_marked(bank, n, v))
            for n in sorted(bank.honest)}


def _ref_lowest_unit(bank, n):
    return min(v for v in range(bank.supply) if _ref_marked(bank, n, v))


def _ref_marked_units(bank, r):
    marked = {}
    for v, nonce in enumerate(bank.nonces):
        ms = tuple(m for n in sorted(bank.honest)
                   for m in bank.hosts[n].instances[nonce].markings
                   if m.round == r)
        if ms:
            marked[v] = ms
    return marked


def _ref_credits(bank, marked_units):
    return {n: tuple(sorted(m.predecessor
                            for ms in marked_units.values()
                            for m in ms if m.target == n))
            for n in sorted(bank.honest)}


@pytest.fixture
def checked_rounds(monkeypatch):
    """Check every ``Bank.run_round`` against the reference scans; the
    fixture is the list of the rows checked so far."""
    rows = []
    original = Bank.run_round

    def run_round(bank, inputs=None):
        given = dict(inputs or {})
        r = bank.round_index
        before = _ref_balances(bank)
        funded = [n for n in sorted(bank.honest) if before[n] > 0]
        lowest = {n: _ref_lowest_unit(bank, n) for n in funded}
        row = original(bank, inputs)
        markings = _ref_marked_units(bank, r)
        assert row.round == r
        assert row.inputs == {n: given.get(n, n) for n in funded}
        assert row.spent_instance == lowest
        assert row.balances_before == before
        assert row.balances_after == _ref_balances(bank)
        assert row.marked_units() == markings
        assert row.credits == _ref_credits(bank, markings)
        rows.append(row)
        return row

    monkeypatch.setattr(Bank, "run_round", run_round)
    return rows


@pytest.mark.parametrize("family, N, f, V, rounds", [
    ("quorum", 7, 2, 9, 12), ("cycle", 6, 1, 8, 12), ("cycle", 5, 0, 3, 20)])
def test_book_matches_the_reference_scans(checked_rounds, family, N, f, V,
                                          rounds):
    bank = Bank(N, f, deal(N, V), family=family)
    _drive(bank, rounds, seed=N + V)
    assert len(checked_rounds) == rounds
    assert bank.audit() == []


@pytest.mark.parametrize("family, f", [("quorum", 1), ("cycle", 2)])
def test_gallery_books_match_the_reference_scans(checked_rounds, family, f):
    # the honest baseline, a silent corrupted holder, junk and replays
    results = bank_gallery(family, 6, f, 3, 5, seed=4)
    assert all(result.ok for result in results)
    assert len(checked_rounds) == 5 * len(results)


class _NonceJunk(Adversary):
    """Sends every honest host a junk payload under every unit nonce at
    step ``phase`` of every round, so it arrives one step later."""

    def __init__(self, N, supply, phase):
        self.nonces = [nonce_for(v) for v in range(supply)]
        self.round_steps = cycle_round_steps(N)
        self.phase = phase

    def act(self, t, net):
        if t % self.round_steps != self.phase:
            return []
        sender = min(self.corrupted)
        return [(sender, Send(n, tag_payload(b"junk", nonce)))
                for n in range(net.N) if n not in self.corrupted
                for nonce in self.nonces]


def _count_wakes(monkeypatch):
    """Count ``MuxHost.wake_instance`` calls into the last entry of the
    returned list; appending a 0 starts a new count."""
    counts = [0]
    original = MuxHost.wake_instance

    def counting(host, nonce, step):
        counts[-1] += 1
        original(host, nonce, step)

    monkeypatch.setattr(MuxHost, "wake_instance", counting)
    return counts


def _junk_run(phase, monkeypatch):
    """Six rounds of a cycle bank whose silent corrupted process 0 sends
    junk under every nonce at step ``phase`` of each round; returns the
    bank and, per round, how many units were woken to pay."""
    wakes = _count_wakes(monkeypatch)
    bank = Bank(6, 1, deal(6, 8), SignatureOracle(frozenset({0})),
                _NonceJunk(6, 8, phase), family="cycle")
    rng = seeded_rng(6, 29)
    for _ in range(6):
        plan = {}
        for payer, balance in bank.balances().items():
            if balance > 0 and rng.random() < 0.5:
                # along the arc up to N-1, which never crosses process 0
                plan[payer] = int(rng.integers(payer, bank.N))
        wakes.append(0)
        bank.run_round(plan)
    assert bank.audit() == []
    return bank, wakes[1:]


def test_a_kept_unit_stepped_later_in_its_round_is_booked_once(
        checked_rounds, monkeypatch):
    # the junk lands one step into each round, at every unit of every
    # honest host, so each kept unit is stepped after its keep was booked
    bank, wakes = _junk_run(0, monkeypatch)
    assert len(checked_rounds) == 6
    for row, woken in zip(bank.history, wakes):
        paying = sum(1 for n, target in row.inputs.items() if target != n)
        assert woken == paying < len(row.inputs)
        for n, target in row.inputs.items():
            if target == n:
                assert row.marked_units()[row.spent_instance[n]] == (
                    Marking(row.round, n, n),)


def test_a_delivery_at_the_first_step_keeps_through_the_network(
        checked_rounds, monkeypatch):
    # the junk lands at each round's first step, so from round 1 on every
    # funded process takes the network path, keeps included
    bank, wakes = _junk_run(cycle_round_steps(6) - 1, monkeypatch)
    assert len(checked_rounds) == 6
    assert wakes[0] < len(bank.history[0].inputs)
    for row, woken in zip(bank.history[1:], wakes[1:]):
        assert woken == len(row.inputs)


def _snapshot(banks):
    """Everything a bank produces: the book, the traffic, the registry and
    every instance's markings."""
    return [(bank.to_csv(), bank.net.metrics.to_csv(),
             bank.net.transcript.to_jsonl(), sorted(bank.oracle._issued),
             [[(proc.markings, proc.marked_round)
               for _, proc in sorted(host.instances.items())]
              for host in bank.hosts])
            for bank in banks]


def _keep_workloads():
    """Seeded honest cycle banks, the cycle bank gallery, and one hop
    payment whose last leg is withheld, its walk-back and one more
    payment; returns what they produced."""
    banks = []
    for N, f, V, rounds in ((6, 1, 8, 12), (5, 0, 3, 20)):
        bank = Bank(N, f, deal(N, V), family="cycle")
        _drive(bank, rounds, seed=N + V)
        banks.append(bank)
    original = Bank.__init__

    def registering(bank, *args, **kwargs):
        original(bank, *args, **kwargs)
        banks.append(bank)

    Bank.__init__ = registering
    try:
        gallery = bank_gallery("cycle", 6, 2, 3, 5, seed=4)
    finally:
        Bank.__init__ = original
    net = HopNetwork(gen_random_cycles(12, 2, seed=7))
    path = shortest_hop_path(net.graph(), 0, 8)
    k, payer, payee, _ = path.legs[-1]
    restore = _withhold_chains(net.banks[k].hosts[net.positions[k][payer]],
                               net.positions[k][payee])
    outcome = net.macro_payment(0, 8)
    restore()
    walkback = net.dispute_walkback(outcome)
    net.macro_payment(3, 10)
    banks += net.banks
    return (gallery, walkback, net.outcomes, sorted(net.oracle._issued),
            _snapshot(banks))


def test_keeps_produce_what_the_network_path_produces(monkeypatch):
    wakes = _count_wakes(monkeypatch)
    kept = _keep_workloads()
    wakes.append(0)
    with monkeypatch.context() as m:
        # a queued delivery at every first step sends every keep through
        # pay, a wake and a network step, as before keeps were booked
        m.setattr(Network, "queued", lambda net, step: range(net.N))
        stepped = _keep_workloads()
    assert kept[0] == stepped[0] and all(result.ok for result in kept[0])
    assert kept[1:] == stepped[1:]
    assert wakes[0] < wakes[1]


def _withhold_chains(host, payee):
    """Make ``host`` keep back every final chain it sends to ``payee``;
    returns the function that restores it."""
    step = host.step

    def withholding(t, inbox):
        out = []
        for send in step(t, inbox):
            content, _ = split_payload(send.payload)
            if (send.recipient != payee
                    or parse_wire(content)[0] != KIND_CHAIN):
                out.append(send)
        return out

    host.step = withholding
    return lambda: vars(host).pop("step")


def test_late_acceptance_keeps_the_book_exact(checked_rounds):
    net = HopNetwork(gen_random_cycles(12, 2, seed=7))
    a, b = 0, 8
    path = shortest_hop_path(net.graph(), a, b)
    k, payer, payee, _ = path.legs[-1]
    pos_payer, pos_payee = net.positions[k][payer], net.positions[k][payee]
    restore = _withhold_chains(net.banks[k].hosts[pos_payer], pos_payee)
    outcome = net.macro_payment(a, b)
    restore()
    assert outcome.delivered_legs == len(path.legs) - 1 and not outcome.paid
    # the messages are the banks' traffic: all but the withheld chain
    assert outcome.messages == path.messages - 1 == 3
    # the payee's instance takes the withheld chain during the dispute,
    # outside any round, and the rounds after it must still book exactly
    accused, trace = net.dispute_walkback(outcome)
    assert (accused, trace[0][3]) == (payer, TRACE_LATE)
    row = net.banks[k].history[outcome.base_round + len(path.legs) - 1]
    v = row.spent_instance[pos_payer]
    late = net.banks[k].hosts[pos_payee].instances[net.banks[k].nonces[v]]
    assert late.markings[-1].round == row.round
    rounds = len(checked_rounds)
    net.macro_payment(3, 10)
    assert len(checked_rounds) == rounds + net.micro_rounds * len(net.banks)


def test_a_round_reads_only_the_instances_it_stepped():
    net = HopNetwork(gen_random_cycles(32, 2, 0))
    bank = net.banks[0]
    read, stepped = set(), set()

    class Watched(CCProcess):
        """Records every read of ``marked`` and every step."""

        @property
        def marked(self):
            read.add(id(self))
            return self.__dict__["marked"]

        @marked.setter
        def marked(self, value):
            self.__dict__["marked"] = value

        def step(self, t, inbox):
            stepped.add(id(self))
            return super().step(t, inbox)

    for host in bank.hosts:
        for proc in host.instances.values():
            proc.__class__ = Watched
    row = bank.run_round({0: 5})
    assert row.credits[5] == (0, 5)
    # the payment steps the payer's unit, its four countersigners and the
    # payee; every other funded process keeps its unit without a step,
    # and a keep reads ``marked`` once
    kept = {id(bank.unit(n, row.spent_instance[n]))
            for n, target in row.inputs.items() if target == n}
    assert len(kept) == len(row.inputs) - 1
    assert len(stepped) == 1 + 5
    assert read == stepped | kept


def test_idle_rounds_share_one_map_of_each_kind():
    bank = Bank(64, 0, [1] * 64, family="cycle")
    rows = [bank.run_round() for _ in range(10)]
    for name in ("balances_before", "balances_after", "inputs",
                 "spent_instance", "credits"):
        assert len({id(getattr(row, name)) for row in rows}) == 1, name
    assert rows[0].balances_before is rows[0].balances_after
    assert bank.audit() == []


def test_late_acceptance_leaves_every_row_as_it_was_made(checked_rounds,
                                                         monkeypatch):
    made = []
    checked = Bank.run_round

    def copying(bank, inputs=None):
        row = checked(bank, inputs)
        made.append((row, copy.deepcopy(row)))
        return row

    monkeypatch.setattr(Bank, "run_round", copying)
    test_late_acceptance_keeps_the_book_exact(checked_rounds)
    assert len(made) == len(checked_rounds)
    for row, as_made in made:
        assert row == as_made
        assert row.marked_units() == as_made.marked_units()


def test_balances_are_the_callers_to_write():
    bank = Bank(6, 1, deal(6, 8), family="cycle")
    row = bank.run_round({0: 3})
    held = bank.balances()
    assert held == row.balances_after == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 1}
    held[0] = 7
    del held[1]
    held.clear()
    assert row.balances_after == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 1}
    assert bank.balances() == row.balances_after
    following = bank.run_round({})
    assert following.balances_before == row.balances_after
    assert following.inputs == {n: n for n in range(6)}
    assert bank.audit() == []
