"""Cancelling payments that share a cycle.

Several payments issued on the same cycle in the same round need not
each walk the full payer to recipient arc.  Units of the currency are
interchangeable, so the round settles correctly under any bijection
between the payers and the recipients: each payer sends one unit to the
recipient it was matched with and every net balance comes out exactly as
if the original payments had run separately.  The cost of a matching is
the marker mileage it buys, the sum of directed cycle distances from
each payer to its matched recipient.

``pair_greedy`` matches each payer in turn with the nearest recipient
still unmatched.  On a cycle metric this is not merely a heuristic: the
total cost it achieves is minimal over all bijections.  That minimum has
a closed form, the directed case of transport on the circle (Rabin, Delon
and Gousseau, 2011): with P the prefix sum, in cycle order, of payer
indicator minus recipient indicator, it is the sum of P_i - min P.
``sweep_cell`` prices grid cells with it, and ``pair_bruteforce``, which
prices every permutation, stays the reference both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from random import Random

import numpy as np

from .simnet import ConfigFault

# Permutation pricing grows factorially; past this many pairs the oracle
# refuses rather than silently taking minutes.
BRUTEFORCE_LIMIT = 9


@dataclass(frozen=True)
class PairingInstance:
    """Q same-round payments on one cycle, reduced to payers and payees.

    Process ids are cycle positions: the cycle runs in id order.
    ``sources`` must be distinct because a process spends at most one
    unit per round; repeated ``sinks`` are fine, two payers may owe the
    same recipient.  A payer may also appear among the sinks, and a
    source matched to itself costs nothing.
    """

    N: int
    sources: tuple[int, ...]
    sinks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ConfigFault("a cycle needs at least one process")
        if not self.sources or len(self.sources) != len(self.sinks):
            raise ConfigFault("need equally many sources and sinks, at least one each")
        if len(set(self.sources)) != len(self.sources):
            raise ConfigFault("sources must be distinct")
        for n in (*self.sources, *self.sinks):
            if not 0 <= n < self.N:
                raise ConfigFault(f"process id {n} is outside the cycle")

    @property
    def q(self) -> int:
        return len(self.sources)

    def cost_rows(self) -> list[list[int]]:
        """The full Q by Q cost matrix, sources down, sinks across."""
        N = self.N
        return [[(b - a) % N for b in self.sinks] for a in self.sources]


@dataclass(frozen=True)
class Pairing:
    """A bijection from source index to sink index with its total cost."""

    assignment: tuple[int, ...]
    total_cost: int

    def pairs(self, instance: PairingInstance) -> list[tuple[int, int]]:
        """(payer id, recipient id) per matched pair, in source order."""
        return [(instance.sources[i], instance.sinks[j])
                for i, j in enumerate(self.assignment)]


def pairing_cost(instance: PairingInstance, assignment: tuple[int, ...]) -> int:
    """Recompute the mileage an assignment buys, validating the bijection."""
    if sorted(assignment) != list(range(instance.q)):
        raise ConfigFault("assignment is not a bijection over the sinks")
    rows = instance.cost_rows()
    return sum(rows[i][j] for i, j in enumerate(assignment))


def pair_greedy(instance: PairingInstance) -> Pairing:
    """Match each source in turn with the nearest unmatched sink.

    Sources are served in the order given and cost ties go to the lowest
    sink index.  The serving order can change which matching comes out
    but never its total cost, so the result always prices the same as
    the brute force optimum.
    """
    rows = instance.cost_rows()
    free = list(range(instance.q))
    assignment = []
    total = 0
    for row in rows:
        best = free[0]
        low = row[best]
        for k in free[1:]:
            c = row[k]
            if c < low:
                low, best = c, k
        free.remove(best)
        assignment.append(best)
        total += low
    return Pairing(tuple(assignment), total)


# One entry per q that pair_bruteforce accepts, so a table is never built
# twice: 2 × q! × q × 8 bytes, 52 MB at q = 9 and 58 MB with every q.
@lru_cache(maxsize=BRUTEFORCE_LIMIT + 1)
def _perm_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(q) in lexicographic order, twice over.

    The first array holds the permutations themselves, one per row.  The
    second holds them as offsets into a flattened Q by Q cost matrix, so
    pricing a whole table is a single gather and row sum.
    """
    table = np.array(list(permutations(range(q))), dtype=np.int64)
    return table, table + q * np.arange(q, dtype=np.int64)


def pair_bruteforce(instance: PairingInstance) -> Pairing:
    """Exact minimum cost matching, priced over all Q factorial bijections.

    Ties resolve to the lexicographically smallest assignment, which is
    the first minimum in the permutation table.  Instances with more
    than ``BRUTEFORCE_LIMIT`` pairs are refused; an oracle that slow is
    being misused.
    """
    q = instance.q
    if q > BRUTEFORCE_LIMIT:
        raise ConfigFault(
            f"brute force is capped at {BRUTEFORCE_LIMIT} pairs, got {q}")
    table, flat = _perm_tables(q)
    costs = np.fromiter((c for row in instance.cost_rows() for c in row),
                        dtype=np.int64, count=q * q)
    totals = costs[flat].sum(axis=1)
    best = int(np.argmin(totals))
    return Pairing(tuple(int(j) for j in table[best]), int(totals[best]))


def audit_two_swap(instance: PairingInstance, pairing: Pairing) -> int:
    """Best cost change any swap of two matched sinks could still buy.

    A minimum cost matching cannot profit from an exchange, so the audit
    returns zero for optimal pairings; a negative return means mileage
    was left on the table.
    """
    rows = instance.cost_rows()
    a = pairing.assignment
    best = 0
    for i in range(instance.q):
        for k in range(i + 1, instance.q):
            delta = (rows[i][a[k]] + rows[k][a[i]]
                     - rows[i][a[i]] - rows[k][a[k]])
            best = min(best, delta)
    return best


def _batch_greedy(costs: np.ndarray) -> np.ndarray:
    """Greedy totals for a stack of cost matrices, shape (M, q, q).

    Mirrors ``pair_greedy`` exactly: rows in order, first minimum wins.
    """
    m, q, _ = costs.shape
    big = costs.max() + 1 if m else 1
    mask = np.ones((m, q), dtype=bool)
    rows = np.arange(m)
    totals = np.zeros(m, dtype=np.int64)
    for i in range(q):
        row = np.where(mask, costs[:, i, :], big)
        j = row.argmin(axis=1)
        totals += row[rows, j]
        mask[rows, j] = False
    return totals


def sweep_cell(N: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Price every set-to-set instance of one (N, q) grid cell.

    Enumerates all pairs of a q-subset of payers and a q-subset of
    recipients on the N cycle, both served in ascending id order just as
    the per-instance functions would see them, and prices the greedy and
    the optimal matching of each.  Returns the two totals arrays in
    enumeration order, payer sets outermost.

    The optimum is the module's closed form, not a search: any matching
    carries P_i + c units across the edge from i to i+1 for one constant
    c, and the cheapest takes the least c that leaves no count negative.
    The per-instance functions stay the reference; the tests pin both
    columns against ``pair_greedy`` and ``pair_bruteforce``.
    """
    if not 1 <= q <= N:
        raise ConfigFault(f"cell q={q} out of range for N={N}")
    subsets = np.array(list(combinations(range(N), q)), dtype=np.int32)
    a = len(subsets)
    # members of each subset at or before each position of the cycle
    counts = (subsets[:, :, None] <= np.arange(N)).sum(axis=1)
    greedy_out = np.empty(a * a, dtype=np.int64)
    optimal_out = np.empty(a * a, dtype=np.int64)
    block = max(1, (1 << 22) // max(1, a * q * q))
    for lo in range(0, a, block):
        src = subsets[lo:lo + block]
        diff = (subsets[None, :, None, :] - src[:, None, :, None]) % N
        stack = diff.reshape(-1, q, q)
        span = slice(lo * a, lo * a + stack.shape[0])
        greedy_out[span] = _batch_greedy(stack)
        prefix = (counts[lo:lo + block, None, :]
                  - counts[None, :, :]).reshape(-1, N)
        optimal_out[span] = prefix.sum(axis=1) - N * prefix.min(axis=1)
    return greedy_out, optimal_out


def random_instance(N: int, q: int, rng: Random, *,
                    repeat_sinks: bool = False) -> PairingInstance:
    """Draw a pairing instance for sweeps and stress tests.

    Sources are a uniform q-subset in random order.  Sinks are drawn
    with replacement when ``repeat_sinks`` is set, otherwise they form a
    q-subset of their own, independent of the sources.
    """
    if not 1 <= q <= N:
        raise ConfigFault("need 1 <= q <= N sources")
    sources = tuple(rng.sample(range(N), q))
    if repeat_sinks:
        sinks = tuple(rng.choice(range(N)) for _ in range(q))
    else:
        sinks = tuple(rng.sample(range(N), q))
    return PairingInstance(N, sources, sinks)
