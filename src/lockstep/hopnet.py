"""Cycle hop payment network with trusted intermediaries.

Several cycle economies run side by side, one per directed cycle, each a
bank of chain marking instances over the cycle's own ordering.  A process
holding value on one cycle can pay along that cycle cheaply when the
target is nearby.  When the target is far, the payment hops: an
intermediary holding value on another cycle promises to carry the payment
forward there, and the route becomes a few short in-cycle runs stitched
together by promises.

The route graph has one vertex per (cycle, process) pair.  Step edges
follow each cycle's orientation; hop edges connect two vertices of the
same process when that process is a willing intermediary with value on
the destination cycle.  A route of D edges with Z hops costs exactly
2D + Z messages end to end: two per promise, one signed intent to the
payee, 2d - 1 for an in-cycle leg of d steps, and two per collected
payment proof.

Payments execute as macro rounds of micro rounds: micro round j runs one
round of every bank, carrying the j-th in-cycle leg, while every other
bank books self transfers, which cost nothing.  The payee decides it was
paid from the payer's signed intent, the promise set and the final
in-cycle credit.

When the payee claims it was not paid, the payer walks the route
backwards.  At each edge the upstream party either exhibits the chain it
paid with, which the downstream instance state confirms or refutes, or
admits it never paid because it was never paid itself, moving the walk
one edge up.  A single dishonest participant is always the one accused,
and an honest participant never is.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .cyclecoin import verify_payment_claim
from .payments import Bank
from .simnet import (ConfigFault, SignatureOracle, enc_int, enc_str,
                     seeded_rng)

TRACE_ADMIT = "admitted non-payment"
TRACE_PAID = "exhibit confirmed in round"
TRACE_LATE = "exhibit valid but withheld past the round"
TRACE_BAD = "exhibit rejected"


# ---------------------------------------------------------------------------
# topologies


@dataclass(frozen=True)
class CycleSet:
    """Directed cycles over a common process set, each a permutation."""

    N: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.N < 2:
            raise ConfigFault(f"a cycle economy needs N >= 2, got {self.N}")
        for cycle in self.cycles:
            if sorted(cycle) != list(range(self.N)):
                raise ConfigFault("each cycle must order all N processes")


def gen_random_cycles(N: int, K: int, seed: int) -> CycleSet:
    """K random cyclic orders, both orientations of each: 2K cycles."""
    rng = seeded_rng(seed, N, K)
    cycles = []
    for _ in range(K):
        order = tuple(int(x) for x in rng.permutation(N))
        cycles.append(order)
        cycles.append(tuple(reversed(order)))
    return CycleSet(N, tuple(cycles))


def gen_binary_search_cycle(N: int) -> tuple[int, ...]:
    """One cycle whose edges mimic a binary search over positions.

    Paths grow by repeatedly stepping to the floor median of the open
    interval ahead, seeding a new path just below each median; finished
    paths are joined in discovery order.  Long range edges early, short
    range edges late, so walks can home in on any position quickly.
    """
    if N < 3:
        raise ConfigFault("binary search cycle needs N >= 3")
    paths: list[list[int]] = []
    queue: deque[tuple[int, int, int]] = deque([(0, 0, N)])
    while queue:
        start, lo, hi = queue.popleft()
        path = [start]
        cur = start
        while True:
            m = (lo + hi) // 2
            if m == lo:
                break
            path.append(m)
            if m - 1 > lo:
                queue.append((m - 1, lo, m - 1))
            cur = m
            lo = m
        paths.append(path)
    cycle = [n for path in paths for n in path]
    return tuple(cycle)


def gen_binary_search_pair(N: int) -> CycleSet:
    """The descending base cycle plus the binary search cycle."""
    descending = tuple(range(N - 1, -1, -1))
    return CycleSet(N, (descending, gen_binary_search_cycle(N)))


def format_cycles(cycleset: CycleSet) -> str:
    """The cycle file: one line per cycle, its ids in cycle order."""
    return "".join(" ".join(str(n) for n in cycle) + "\n"
                   for cycle in cycleset.cycles)


def load_cycles(path: str) -> CycleSet:
    """Read cycles in the :func:`format_cycles` format; a malformed file
    raises :class:`ConfigFault`."""
    cycles = []
    with open(path, encoding="ascii") as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    cycles.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ConfigFault(f"malformed cycle file {path}: {exc!r}") from exc
    if not cycles:
        raise ConfigFault(f"no cycles in {path}")
    return CycleSet(len(cycles[0]), tuple(cycles))


# ---------------------------------------------------------------------------
# route graph


@dataclass
class HopGraph:
    """Vertices are (cycle, process) pairs flattened as k*N + n."""

    N: int
    cycles: tuple[tuple[int, ...], ...]
    balances: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def K(self) -> int:
        return len(self.cycles)

    def split(self, v: int) -> tuple[int, int]:
        return divmod(v, self.N)


def build_hop_graph(cycles: tuple[tuple[int, ...], ...],
                    balances: tuple[tuple[int, ...], ...],
                    trusted: frozenset[int]) -> HopGraph:
    """Step edges along each cycle, hop edges at funded intermediaries."""
    if not cycles:
        raise ConfigFault("need at least one cycle")
    N = len(cycles[0])
    K = len(cycles)
    adj: list[list[int]] = [[] for _ in range(K * N)]
    for k, cycle in enumerate(cycles):
        for j, a in enumerate(cycle):
            b = cycle[(j + 1) % N]
            adj[k * N + a].append(k * N + b)
    for n in sorted(trusted):
        funded = [k for k in range(K) if balances[k][n] > 0]
        for k in range(K):
            for k2 in funded:
                if k2 != k:
                    adj[k * N + n].append(k2 * N + n)
    return HopGraph(N, tuple(cycles), tuple(tuple(row) for row in balances),
                    tuple(tuple(sorted(row)) for row in adj))


def unspent_graph(cycleset: CycleSet) -> HopGraph:
    """The route graph before any payment: every process holds one unit
    on every cycle and is a willing intermediary."""
    N = cycleset.N
    return build_hop_graph(cycleset.cycles,
                           tuple((1,) * N for _ in cycleset.cycles),
                           frozenset(range(N)))


@dataclass(frozen=True)
class HopPath:
    """A concrete route: vertices, its leg decomposition and cost."""

    vertices: tuple[tuple[int, int], ...]
    legs: tuple[tuple[int, int, int, int], ...]  # (cycle, payer, payee, steps)
    hops: int

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def intermediaries(self) -> tuple[int, ...]:
        return tuple(leg[1] for leg in self.legs[1:])

    @property
    def messages(self) -> int:
        return 2 * self.length + self.hops


def _decompose(vertices: tuple[tuple[int, int], ...]) -> tuple[tuple, int]:
    legs = []
    hops = 0
    run_start = vertices[0]
    steps = 0
    for (k1, a), (k2, b) in zip(vertices, vertices[1:]):
        if a == b:
            hops += 1
            if steps:
                legs.append((k1, run_start[1], a, steps))
            run_start = (k2, b)
            steps = 0
        else:
            steps += 1
    if steps:
        k, x = run_start
        legs.append((k, x, vertices[-1][1], steps))
    return tuple(legs), hops


def shortest_hop_path(graph: HopGraph, a: int, b: int) -> HopPath:
    """Breadth first route from a's funded cycles to b on any cycle.

    Sources and neighbours are visited in ascending (cycle, process)
    order, so the returned route is canonical.  A route always exists:
    every cycle of a :class:`CycleSet` orders all N processes, and its
    step edges do not depend on balances, so a walk along any cycle a
    holds value on reaches b.
    """
    start_cycles = [k for k in range(graph.K) if graph.balances[k][a] > 0]
    if not start_cycles:
        raise ConfigFault(f"process {a} holds no value on any cycle")
    N = graph.N
    adjacency = graph.adjacency
    parent = [-1] * (graph.K * N)
    dist = [-1] * (graph.K * N)
    queue: deque[int] = deque()
    for k in start_cycles:
        v = k * N + a
        dist[v] = 0
        parent[v] = v
        queue.append(v)
    targets = [k * N + b for k in range(graph.K)]
    best = None
    while queue:
        u = queue.popleft()
        if best is not None and dist[u] >= best:
            break
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                parent[v] = u
                queue.append(v)
                if v % N == b and best is None:
                    best = du
    final = min((v for v in targets if dist[v] >= 0),
                key=lambda v: (dist[v], v))
    chain = [final]
    while parent[chain[-1]] != chain[-1]:
        chain.append(parent[chain[-1]])
    chain.reverse()
    vertices = tuple(graph.split(v) for v in chain)
    legs, hops = _decompose(vertices)
    return HopPath(vertices, legs, hops)


def undirected_adjacency(cycles: tuple[tuple[int, ...], ...]
                         ) -> list[set[int]]:
    """Neighbours of each process in the undirected cycle union."""
    N = len(cycles[0])
    adj: list[set[int]] = [set() for _ in range(N)]
    for cycle in cycles:
        for j, x in enumerate(cycle):
            y = cycle[(j + 1) % N]
            adj[x].add(y)
            adj[y].add(x)
    return adj


def bfs_distances(adjacency: Sequence[Iterable[int]], s: int) -> list[int]:
    """Edge count from ``s`` to every vertex, -1 where unreachable."""
    dist = [-1] * len(adjacency)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def graph_diameter(graph: HopGraph) -> int:
    """Largest finite eccentricity over all vertices.

    Bit-parallel reachability: ``reach[v]`` holds, as the bits of one int,
    the vertices within d edges of v.  One round ORs every vertex's set
    with its successors' sets of the round before, so d grows by one, and
    the diameter is the number of rounds that changed some set.
    """
    adjacency = graph.adjacency
    reach = [1 << v for v in range(len(adjacency))]
    rounds = 0
    while True:
        grown = []
        for v, successors in enumerate(adjacency):
            bits = reach[v]
            for u in successors:
                bits |= reach[u]
            grown.append(bits)
        if grown == reach:
            return rounds
        reach = grown
        rounds += 1


# ---------------------------------------------------------------------------
# promises and execution


@dataclass(frozen=True)
class Promise:
    """Signed offer to carry one leg of a route."""

    promiser: int
    predecessor: int
    successor: int
    macro_round: int
    micro_round: int

    def content(self) -> bytes:
        return (enc_str("promise") + enc_int(self.promiser)
                + enc_int(self.predecessor) + enc_int(self.successor)
                + enc_int(self.macro_round) + enc_int(self.micro_round))


def intent_bytes(payer: int, payee: int, macro_round: int) -> bytes:
    return (enc_str("intent") + enc_int(payer) + enc_int(payee)
            + enc_int(macro_round))


CHEAT_KEEP = "keep"
CHEAT_FORGE = "forge"
CHEAT_DENY = "deny"


@dataclass(frozen=True)
class CheatPlan:
    """One planted misbehaviour: ``position`` indexes the route's
    participants with 1..Z the intermediaries and Z+1 the payee.  Only
    an intermediary keeps or forges, and only the payee denies."""

    position: int
    mode: str


@dataclass
class MacroOutcome:
    """One macro payment.  ``messages`` counts the 4Z+1 messages of its Z
    promises and its intent, which are signed but not sent, and every
    message the banks sent during its macro round."""

    macro_round: int
    payer: int
    payee: int
    path: HopPath
    promises: tuple[Promise, ...]
    delivered_legs: int
    messages: int
    paid: bool
    payee_claims_paid: bool
    cheat: CheatPlan | None
    base_round: int


class HopNetwork:
    """Stacked per-cycle economies plus the hop and dispute machinery;
    every process is a willing intermediary and starts with one unit on
    every cycle.  A macro round has twice as many micro rounds as the
    diameter of the :func:`unspent_graph`, and each payment is routed on
    the graph of the balances it finds."""

    def __init__(self, cycleset: CycleSet):
        self.N = cycleset.N
        self.cycles = cycleset.cycles
        self.positions = tuple({n: j for j, n in enumerate(cycle)}
                               for cycle in self.cycles)
        self.banks = [Bank(self.N, 0, [1] * self.N, family="cycle")
                      for _ in self.cycles]
        self.oracle = SignatureOracle()
        self.macro_index = 0
        self.micro_rounds = 2 * max(1, graph_diameter(unspent_graph(cycleset)))
        self.outcomes: list[MacroOutcome] = []

    # -- views ---------------------------------------------------------------

    def graph(self) -> HopGraph:
        """The route graph of the current balances, reading each bank's
        balances once."""
        balances = []
        for bank, position in zip(self.banks, self.positions):
            held = bank.balances()
            balances.append(tuple(held[position[n]] for n in range(self.N)))
        return build_hop_graph(self.cycles, tuple(balances),
                               frozenset(range(self.N)))

    # -- execution -----------------------------------------------------------

    def macro_payment(self, a: int, b: int,
                      cheat: CheatPlan | None = None) -> MacroOutcome:
        """Run one macro round carrying a payment from a to b along the
        shortest route of the current balances.

        Every bank advances by exactly ``micro_rounds`` rounds; the route
        legs ride the first len(legs) of them.  A cheat plan suppresses
        the planted leg, or only poisons the later dispute.
        """
        if a == b or not (0 <= a < self.N and 0 <= b < self.N):
            raise ConfigFault(f"cannot run payment {a}->{b}")
        path = shortest_hop_path(self.graph(), a, b)
        legs = path.legs
        if len(legs) > self.micro_rounds:
            raise ConfigFault("route needs more micro rounds than budgeted")
        if cheat is not None and not (
                (cheat.mode in (CHEAT_KEEP, CHEAT_FORGE)
                 and 1 <= cheat.position < len(legs))
                or (cheat.mode == CHEAT_DENY and cheat.position == len(legs))):
            raise ConfigFault(f"cheat plan {cheat} does not fit a route of "
                              f"{len(legs)} legs")
        chain = [a] + list(path.intermediaries) + [b]
        promises = []
        for j in range(1, len(legs)):
            promise = Promise(chain[j], chain[j - 1], chain[j + 1],
                              self.macro_index, j)
            self.oracle.sign(promise.promiser, promise.content())
            promises.append(promise)
        self.oracle.sign(a, intent_bytes(a, b, self.macro_index))
        base = self.macro_index * self.micro_rounds
        sent = sum(bank.net.metrics.messages() for bank in self.banks)
        delivered = 0
        blocked = (cheat.position if cheat is not None
                   and cheat.mode in (CHEAT_KEEP, CHEAT_FORGE)
                   else len(legs))
        for m in range(self.micro_rounds):
            inputs: dict[int, dict[int, int]] = {}
            if m < len(legs) and m < blocked and delivered == m:
                k, payer, payee, _ = legs[m]
                inputs[k] = {self.positions[k][payer]:
                             self.positions[k][payee]}
            for k, bank in enumerate(self.banks):
                row = bank.run_round(inputs.get(k))
                if k in inputs:
                    (pos_payer, pos_payee), = inputs[k].items()
                    if pos_payer in row.credits.get(pos_payee, ()):
                        delivered += 1
        paid = delivered == len(legs)
        # the legs' messages are the banks' traffic of the macro round
        messages = (4 * len(promises) + 1 - sent
                    + sum(bank.net.metrics.messages() for bank in self.banks))
        claims_paid = paid and not (cheat is not None
                                    and cheat.mode == CHEAT_DENY)
        outcome = MacroOutcome(self.macro_index, a, b, path, tuple(promises),
                               delivered, messages, paid, claims_paid,
                               cheat, base)
        self.outcomes.append(outcome)
        self.macro_index += 1
        return outcome

    # -- dispute -------------------------------------------------------------

    def _leg_proof(self, leg_index: int, outcome: MacroOutcome):
        """The exhibit of a leg: the unit its payer spent and the chain it
        archived, if it really paid the leg's payee that round; a self
        transfer does not count."""
        k, payer, payee, _ = outcome.path.legs[leg_index]
        bank = self.banks[k]
        m = outcome.base_round + leg_index
        row = bank.history[m]
        pos = self.positions[k][payer]
        if row.inputs.get(pos) != self.positions[k][payee]:
            return None
        v = row.spent_instance.get(pos)
        if v is None:
            return None
        records = bank.unit(pos, v).proofs.get(m)
        if records is None:
            return None
        return v, records

    def _verify_exhibit(self, leg_index: int, exhibit,
                        outcome: MacroOutcome) -> str:
        """Check an exhibited (unit, chain) against the payee's instance
        state on the leg's cycle and in the leg's round.

        Distinguishes a chain the payee accepted during the leg's round
        from one that only lands now: the latter means the payer withheld
        it past the round it promised.  The payee takes such a chain on
        the spot, and its bank is told which unit changed.  Every bank
        holds N units, so any leg's unit names one on every cycle.
        """
        v, records = exhibit
        k, _, payee, _ = outcome.path.legs[leg_index]
        m = outcome.base_round + leg_index
        bank = self.banks[k]
        pos = self.positions[k][payee]
        proc = bank.unit(pos, v)
        verdict, shape = verify_payment_claim(proc, tuple(records), m)
        if verdict == "paid":
            return TRACE_PAID
        if verdict != "late":
            return TRACE_BAD
        proc.accept_late(shape, m)
        bank.touch(pos, v)
        return TRACE_LATE

    def dispute_walkback(self, outcome: MacroOutcome
                         ) -> tuple[int, list[tuple[int, int, int, str]]]:
        """Walk the route backwards until someone is caught.

        Returns the accused process and the trace of (edge, upstream,
        downstream, finding) tuples.  The downstream party of each edge
        claims non-payment; the upstream party answers with an exhibit or
        an admission, and the edge is judged by that answer alone.  An
        exhibit the downstream's instance state confirms convicts the
        downstream, whatever the book says, so walking back a payment
        that was paid accuses its payee.  An admission passes the claim
        one edge upstream; a late or bad exhibit convicts the upstream.
        """
        path = outcome.path
        chain = [outcome.payer] + list(path.intermediaries) + [outcome.payee]
        cheat = outcome.cheat
        trace = []
        for j in range(len(chain) - 1, 0, -1):
            upstream, downstream = chain[j - 1], chain[j]
            leg_index = j - 1
            if (cheat is not None and cheat.position == j - 1
                    and cheat.mode == CHEAT_FORGE):
                # what a forger can show: the chain it was paid with, if any
                exhibit = (self._leg_proof(leg_index - 1, outcome)
                           if leg_index else None)
            else:
                # a keeper's leg never ran, so it has no exhibit
                exhibit = self._leg_proof(leg_index, outcome)
            if exhibit is None:
                trace.append((j, upstream, downstream, TRACE_ADMIT))
                continue
            finding = self._verify_exhibit(leg_index, exhibit, outcome)
            trace.append((j, upstream, downstream, finding))
            if finding == TRACE_PAID:
                return downstream, trace
            return upstream, trace


# ---------------------------------------------------------------------------
# scaling experiments


@dataclass(frozen=True)
class HopSample:
    N: int
    K: int
    seed: int
    payer: int
    payee: int
    distance: int
    hops: int
    messages: int
    undirected: int


def hop_experiment(N: int, K: int, seed: int,
                   pairs: int = 500) -> list[HopSample]:
    """Route statistics for random payer and payee pairs on a balanced
    random 2K-cycle system, no banks involved."""
    if pairs < 1:
        raise ConfigFault(f"hop experiment needs pairs >= 1, got {pairs}")
    cycleset = gen_random_cycles(N, K, seed)
    graph = unspent_graph(cycleset)
    undirected = undirected_adjacency(cycleset.cycles)
    rng = seeded_rng(seed, N, K, pairs)
    samples = []
    for _ in range(pairs):
        a = int(rng.integers(N))
        b = int(rng.integers(N - 1))
        if b >= a:
            b += 1
        path = shortest_hop_path(graph, a, b)
        u = bfs_distances(undirected, a)[b]
        samples.append(HopSample(N, K, seed, a, b, path.length, path.hops,
                                 path.messages, u))
    return samples

