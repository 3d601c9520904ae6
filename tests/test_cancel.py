"""Same-round payment cancellation: greedy pairing against brute force."""

from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lockstep.cancel import (
    BRUTEFORCE_LIMIT,
    Pairing,
    PairingInstance,
    audit_two_swap,
    pair_bruteforce,
    pair_greedy,
    pairing_cost,
    random_instance,
    sweep_cell,
)
from lockstep.simnet import ConfigFault


def test_two_pair_instance_cancels_locally():
    # sources 0 and 6 on an 11 cycle, sinks 7 and 1: the crossed pairing
    # 0->1, 6->7 costs 1+1, the parallel one costs 7+6
    inst = PairingInstance(11, (0, 6), (7, 1))
    greedy = pair_greedy(inst)
    brute = pair_bruteforce(inst)
    assert greedy.assignment == brute.assignment == (1, 0)
    assert greedy.total_cost == 2
    assert greedy.pairs(inst) == [(0, 1), (6, 7)]


def test_costs_are_directed_cycle_distances():
    inst = PairingInstance(11, (0, 6), (7, 1))
    assert pairing_cost(inst, (0, 1)) == 7 + 6
    assert pairing_cost(inst, (1, 0)) == 1 + 1


def test_greedy_matches_bruteforce_on_small_grids():
    for N in (5, 7, 9):
        for q in (2, 3):
            for sources in combinations(range(N), q):
                for sinks in combinations(range(N), q):
                    inst = PairingInstance(N, sources, sinks)
                    assert (pair_greedy(inst).total_cost
                            == pair_bruteforce(inst).total_cost)


@pytest.mark.parametrize("cells, draws", [
    ([(N, q) for N in range(1, 9) for q in range(1, N + 1)], None),
    ([(N, q) for N in range(9, 13) for q in range(2, min(N, 6) + 1)], 25),
], ids=["exhaustive", "sampled"])
def test_sweep_cell_agrees_with_per_instance_pricing(cells, draws):
    # every instance of the cells up to N=8, then a seeded sample of the
    # larger cells criterion 11 sweeps, so the closed form optimum is
    # pinned against brute force
    rng = Random(11)
    for N, q in cells:
        greedy, optimal = sweep_cell(N, q)
        subsets = list(combinations(range(N), q))
        a = len(subsets)
        assert greedy.size == optimal.size == a * a
        picks = range(a * a) if draws is None else rng.sample(range(a * a), draws)
        for k in picks:
            i, j = divmod(k, a)
            inst = PairingInstance(N, subsets[i], subsets[j])
            assert greedy[k] == pair_greedy(inst).total_cost
            assert optimal[k] == pair_bruteforce(inst).total_cost


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=6))
def test_greedy_is_optimal_on_random_instances(seed, q):
    inst = random_instance(12, q, Random(seed), repeat_sinks=True)
    greedy = pair_greedy(inst)
    assert greedy.total_cost == pair_bruteforce(inst).total_cost
    assert audit_two_swap(inst, greedy) >= 0


def test_two_swap_audit_flags_a_bad_pairing():
    inst = PairingInstance(11, (0, 6), (7, 1))
    bad = Pairing((0, 1), pairing_cost(inst, (0, 1)))
    assert audit_two_swap(inst, bad) < 0


def test_bruteforce_size_guard():
    q = BRUTEFORCE_LIMIT + 1
    inst = PairingInstance(2 * q, tuple(range(q)),
                           tuple(range(q, 2 * q)))
    with pytest.raises(ConfigFault):
        pair_bruteforce(inst)


@pytest.mark.parametrize("N, sources, sinks", [
    (0, (), ()),
    (3, (), ()),
    (3, (0, 1), (2,)),
    (3, (0, 0), (1, 2)),
    (3, (0,), (5,)),
    (3, (-1,), (1,)),
], ids=["no-process", "no-pair", "unequal-lengths", "repeated-source",
        "id-outside-cycle", "negative-id"])
def test_a_malformed_instance_raises_config_fault(N, sources, sinks):
    with pytest.raises(ConfigFault):
        PairingInstance(N, sources, sinks)


def test_random_instance_is_seed_deterministic():
    a = random_instance(10, 5, Random(77))
    b = random_instance(10, 5, Random(77))
    assert a == b
