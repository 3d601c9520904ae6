"""Cycle hopping: routing graph, macro payments, dispute walkback."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.hopnet import (
    CHEAT_DENY,
    CHEAT_FORGE,
    CHEAT_KEEP,
    CheatPlan,
    CycleSet,
    HopNetwork,
    TRACE_PAID,
    bfs_distances,
    build_hop_graph,
    format_cycles,
    gen_binary_search_pair,
    gen_random_cycles,
    graph_diameter,
    hop_experiment,
    load_cycles,
    shortest_hop_path,
    unspent_graph,
)
from lockstep.payments import Bank
from lockstep.simnet import ConfigFault


def test_random_cycles_are_permutations():
    cycleset = gen_random_cycles(10, 2, seed=3)
    assert len(cycleset.cycles) == 4  # K families, forward and reverse each
    for cycle in cycleset.cycles:
        assert sorted(cycle) == list(range(10))


def test_cycle_file_round_trip(tmp_path):
    cycleset = gen_random_cycles(8, 2, seed=1)
    path = tmp_path / "cycles.txt"
    path.write_text(format_cycles(cycleset), encoding="ascii")
    assert load_cycles(str(path)).cycles == cycleset.cycles


@pytest.mark.parametrize("content", [
    b"", b"0 1 2\n0 x 2\n", b"0 1 2\n0 \xc3\xa9 2\n", b"0 1 2\n0 1\n"],
    ids=["empty", "non-integer", "non-ascii", "short-cycle"])
def test_a_malformed_cycle_file_raises_config_fault(tmp_path, content):
    path = tmp_path / "cycles.txt"
    path.write_bytes(content)
    with pytest.raises(ConfigFault):
        load_cycles(str(path))


@pytest.mark.parametrize("a,b", [(-1, 3), (0, -2), (0, 12), (12, 0)])
def test_a_macro_payment_naming_no_process_is_refused_before_routing(a, b):
    hop = HopNetwork(gen_random_cycles(8, 2, 0))
    with pytest.raises(ConfigFault):
        hop.macro_payment(a, b)
    assert hop.outcomes == [] and hop.macro_index == 0


def test_degenerate_cycle_is_refused():
    with pytest.raises(ConfigFault):
        CycleSet(4, ((0, 1, 2, 2),))


def test_route_cost_accounting():
    net = HopNetwork(gen_random_cycles(16, 2, seed=2))
    graph = net.graph()
    path = shortest_hop_path(graph, 0, 9)
    assert path.vertices[0][1] == 0 and path.vertices[-1][1] == 9
    assert path.length == len(path.vertices) - 1
    assert path.messages == 2 * path.length + path.hops
    assert sum(steps for _, _, _, steps in path.legs) + path.hops == path.length


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_directed_route_within_twice_undirected(seed):
    samples = hop_experiment(24, 2, seed, pairs=6)
    for s in samples:
        assert s.distance <= 2 * s.undirected + s.hops


def test_binary_search_pair_reaches_every_leg_count():
    net = HopNetwork(gen_binary_search_pair(32))
    graph = net.graph()
    specimens = {1: (0, 16), 2: (0, 3), 3: (0, 1), 4: (0, 17), 5: (8, 26)}
    for legs, (a, b) in specimens.items():
        assert len(shortest_hop_path(graph, a, b).legs) == legs


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=999), st.booleans())
def test_a_fresh_network_routes_on_the_unspent_graph(N, K, seed, binary):
    cycleset = (gen_binary_search_pair(N + 1) if binary
                else gen_random_cycles(N, K, seed))
    assert HopNetwork(cycleset).graph() == unspent_graph(cycleset)


def test_binary_search_pair_diameters():
    assert graph_diameter(HopNetwork(gen_binary_search_pair(16)).graph()) == 9
    assert graph_diameter(HopNetwork(gen_binary_search_pair(64)).graph()) == 21


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=20), st.sampled_from((1, 2)),
       st.integers(min_value=0, max_value=999), st.data())
def test_diameter_equals_the_largest_bfs_eccentricity(N, K, seed, data):
    """On route graphs with unfunded or untrusted processes, then with some
    vertices' out-edges cut (sinks) and others' in-edges cut (unreachable
    from the rest), and with every edge cut."""
    cycles = gen_random_cycles(N, K, seed).cycles
    bits = st.lists(st.integers(0, 1), min_size=N, max_size=N)
    balances = tuple(tuple(data.draw(bits)) for _ in cycles)
    trusted = frozenset(data.draw(st.sets(st.integers(0, N - 1))))
    graph = build_hop_graph(cycles, balances, trusted)
    vertices = st.sets(st.integers(0, len(graph.adjacency) - 1))
    sinks, unreachable = data.draw(vertices), data.draw(vertices)
    cut = dataclasses.replace(graph, adjacency=tuple(
        () if v in sinks else tuple(u for u in row if u not in unreachable)
        for v, row in enumerate(graph.adjacency)))
    bare = dataclasses.replace(graph, adjacency=((),) * len(graph.adjacency))
    for g in (graph, cut, bare):
        assert graph_diameter(g) == max(
            max(bfs_distances(g.adjacency, s)) for s in range(len(g.adjacency)))


def test_honest_macro_payment_pays_and_conserves():
    net = HopNetwork(gen_random_cycles(12, 2, seed=7))
    before = [sum(held[n] for held in net.graph().balances) for n in range(12)]
    outcome = net.macro_payment(0, 8)
    assert outcome.paid and outcome.payee_claims_paid
    assert outcome.delivered_legs == len(outcome.path.legs)
    after = [sum(held[n] for held in net.graph().balances) for n in range(12)]
    payer, payee = 0, 8
    for n in range(12):
        expected = before[n] + (n == payee) - (n == payer)
        assert after[n] == expected


@pytest.mark.parametrize("a, b", [(0, 16), (0, 3), (0, 1), (0, 17), (8, 26)])
def test_an_honest_macro_payment_sends_what_its_route_costs(a, b):
    """On each specimen route of ``dispute_coverage``, the banks' traffic
    plus the signed promises and intent make the route's 2D+Z."""
    outcome = HopNetwork(gen_binary_search_pair(32)).macro_payment(a, b)
    assert outcome.paid and outcome.messages == outcome.path.messages


def _cheat_route(seed=5):
    net = HopNetwork(gen_random_cycles(8, 2, seed=seed))
    graph = net.graph()
    best = max(((a, b) for a in range(8) for b in range(8) if a != b),
               key=lambda ab: len(shortest_hop_path(graph, *ab).legs))
    path = shortest_hop_path(graph, *best)
    return net, best, path


def test_promises_cover_every_intermediary():
    net, (a, b), path = _cheat_route()
    outcome = net.macro_payment(a, b)
    promised = {p.promiser for p in outcome.promises}
    assert promised
    assert promised == set(path.intermediaries)


def test_walking_back_a_paid_payment_accuses_its_payee():
    """The last edge is judged by its exhibit alone: the payee's own
    instance state confirms it, so the payee's claim is the lie."""
    net, (a, b), path = _cheat_route()
    outcome = net.macro_payment(a, b)
    assert outcome.paid and len(path.legs) >= 2
    accused, trace = net.dispute_walkback(outcome)
    assert accused == b
    assert trace == [(len(path.legs), path.intermediaries[-1], b, TRACE_PAID)]


def test_walkback_accuses_the_keeper():
    net, (a, b), path = _cheat_route()
    assert len(path.legs) >= 2
    outcome = net.macro_payment(a, b, cheat=CheatPlan(1, CHEAT_KEEP))
    assert not outcome.paid
    accused, trace = net.dispute_walkback(outcome)
    assert accused == path.intermediaries[0]


def test_walkback_accuses_the_forger():
    net, (a, b), path = _cheat_route()
    outcome = net.macro_payment(a, b, cheat=CheatPlan(1, CHEAT_FORGE))
    assert not outcome.paid
    accused, trace = net.dispute_walkback(outcome)
    assert accused == path.intermediaries[0]


def test_walkback_exposes_a_lying_payee():
    net, (a, b), path = _cheat_route()
    payee_position = len(path.legs)
    outcome = net.macro_payment(a, b,
                                cheat=CheatPlan(payee_position, CHEAT_DENY))
    assert outcome.paid and not outcome.payee_claims_paid
    accused, trace = net.dispute_walkback(outcome)
    assert accused == b
    assert trace[0][3] == TRACE_PAID


@pytest.mark.parametrize("plan", [
    CheatPlan(0, CHEAT_KEEP), CheatPlan(2, CHEAT_KEEP), CheatPlan(9, CHEAT_KEEP),
    CheatPlan(2, CHEAT_FORGE), CheatPlan(1, CHEAT_DENY), CheatPlan(3, CHEAT_DENY),
    CheatPlan(1, "steal")],
    ids=["keep-at-payer", "keep-at-payee", "keep-off-route", "forge-at-payee",
         "deny-at-intermediary", "deny-off-route", "unknown-mode"])
def test_a_cheat_plan_that_does_not_fit_the_route_is_refused(plan):
    """Only an intermediary (1..Z) keeps or forges and only the payee
    (Z+1) denies; any other plan is refused before the round runs."""
    net, (a, b), path = _cheat_route()
    assert len(path.legs) == 2
    with pytest.raises(ConfigFault, match="does not fit"):
        net.macro_payment(a, b, cheat=plan)
    assert net.outcomes == [] and net.macro_index == 0


def test_a_route_longer_than_the_budget_is_refused_before_routing():
    """No route found so far has more legs than twice the unspent
    diameter, the budget, so the check is reached by lowering it."""
    net, (a, b), path = _cheat_route()
    net.micro_rounds = len(path.legs) - 1
    with pytest.raises(ConfigFault) as exc:
        net.macro_payment(a, b)
    assert str(exc.value) == "route needs more micro rounds than budgeted"
    assert net.outcomes == [] and net.macro_index == 0


def test_the_graph_reads_each_bank_once(monkeypatch):
    net = HopNetwork(gen_random_cycles(12, 2, seed=7))
    calls = []
    balances = Bank.balances

    def counted(bank):
        calls.append(bank)
        return balances(bank)

    monkeypatch.setattr(Bank, "balances", counted)
    graph = net.graph()
    assert [net.banks.index(bank) for bank in calls] == \
        list(range(len(net.banks)))
    assert graph.balances == tuple(
        tuple(bank.balances()[position[n]] for n in range(net.N))
        for bank, position in zip(net.banks, net.positions))
