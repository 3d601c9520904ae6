"""The four benchmark workloads, driven through lockstep's public API.

Every workload is a closed loop: one driver issues an op, waits for it to
finish and issues the next.  An *episode* is one fresh set-up followed by a
fixed number of ops on inputs drawn from an episode seed.  ``run.py``
derives one episode seed per episode from the benchmark seed, so a run
averages over many inputs, and the same episode seed must always produce
the same output digest.

An episode object offers:

* ``setup()`` builds the system under test (timed as ``setup_s``);
* ``op(i)`` runs op ``i`` and returns False when its own check flags it;
* ``finish()`` runs the checks that cover the whole episode and returns the
  indices of the ops they flag;
* ``counts()`` returns the honest (messages, signatures, payload bytes)
  carried by every ``Network`` the episode owns;
* ``digest()`` hashes the episode's deterministic outputs.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re

from lockstep import adversary, hopnet, payments, simnet

_ROUND = re.compile(r"round (\d+):")


def honest_counts(net: simnet.Network) -> tuple[int, int, int]:
    """Honest messages, signatures and payload bytes of one network."""
    wire = sum(len(e.payload) for e in net.transcript.events
               if e.sender not in net.corrupted)
    return net.metrics.messages(), net.metrics.signatures(), wire


def _sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class BankEpisode:
    """Rounds of one ``Bank``; each funded honest payer pays a uniform
    random target with probability 0.6, as ``lockstep run`` does."""

    setup_reps = 20

    def __init__(self, seed: int, ops: int, N: int, f: int, family: str):
        self.seed, self.ops = seed, ops
        self.N, self.f, self.family = N, f, family

    def setup(self) -> None:
        self.bank = payments.Bank(self.N, self.f, [1] * self.N,
                                  family=self.family)
        self.rng = random.Random(self.seed)

    def op(self, i: int) -> bool:
        plan = {}
        for payer, balance in self.bank.balances().items():
            if balance > 0 and self.rng.random() < 0.6:
                plan[payer] = self.rng.randrange(self.N)
        self.bank.run_round(plan)
        return True

    def finish(self) -> set[int]:
        flagged = set()
        for text in self.bank.audit():
            match = _ROUND.search(text)
            # A violation that names no round condemns the whole episode.
            flagged.update([int(match.group(1))] if match else range(self.ops))
        return flagged

    def counts(self) -> tuple[int, int, int]:
        return honest_counts(self.bank.net)

    def digest(self) -> str:
        return _sha256(self.bank.to_csv(), self.bank.net.metrics.to_csv())


@functools.lru_cache(maxsize=None)
def _unspent_graph(N: int, K: int, topology_seed: int) -> hopnet.HopGraph:
    """Route graph of the hop network before any payment."""
    cycles = hopnet.gen_random_cycles(N, K, topology_seed).cycles
    return hopnet.build_hop_graph(cycles, tuple((1,) * N for _ in cycles),
                                  frozenset(range(N)))


class HopEpisode:
    """Macro payments between seeded random pairs on one fixed random
    64-process, four-cycle hop network.

    The network is the same for every seed: its diameter sets the micro
    rounds, and so the cost, of every macro payment.  The seed draws the
    pairs, stratified by route cost: the i-th pair of an episode is drawn
    among the pairs whose route on the unspent network carries
    LEG_MESSAGES[i] in-cycle messages.  Those costs run from 1 to 11, and
    the few pairs a run can afford do not average them out; unstratified,
    the per-op counts of two seeds differed by up to a quarter.  Episodes
    are short because every payment moves the balances that later routes
    depend on.  A payer starts with one unit on each of the 2K cycles and
    an episode has at most 2K ops, so every payment is funded.
    """

    setup_reps = 1
    N = 64
    K = 2
    TOPOLOGY_SEED = 0
    LEG_MESSAGES = (3, 5)  # about the 30th and 65th percentiles

    def __init__(self, seed: int, ops: int):
        if ops > 2 * self.K:
            raise ValueError(f"at most {2 * self.K} macro payments an episode")
        self.seed, self.ops = seed, ops
        rng = random.Random(seed)
        graph = _unspent_graph(self.N, self.K, self.TOPOLOGY_SEED)
        self.pairs = [self._draw(rng, graph, self.LEG_MESSAGES[i % len(self.LEG_MESSAGES)])
                      for i in range(ops)]

    def _draw(self, rng: random.Random, graph, leg_messages: int):
        for _ in range(10_000):
            a, b = rng.sample(range(self.N), 2)
            path = hopnet.shortest_hop_path(graph, a, b)
            if sum(2 * d - 1 for *_, d in path.legs) == leg_messages:
                return a, b
        raise ValueError(f"no route carries {leg_messages} in-cycle messages")

    def setup(self) -> None:
        self.hop = hopnet.HopNetwork(
            hopnet.gen_random_cycles(self.N, self.K, self.TOPOLOGY_SEED))

    def op(self, i: int) -> bool:
        outcome = self.hop.macro_payment(*self.pairs[i])
        return outcome.paid and outcome.messages == outcome.path.messages

    def finish(self) -> set[int]:
        return set()

    def counts(self) -> tuple[int, int, int]:
        per_bank = [honest_counts(bank.net) for bank in self.hop.banks]
        return tuple(sum(c[j] for c in per_bank) for j in range(3))

    def digest(self) -> str:
        ledgers = [bank.to_csv() for bank in self.hop.banks]
        outcomes = [
            f"{o.macro_round},{o.payer},{o.payee},{o.path.vertices},"
            f"{o.delivered_legs},{o.messages},{o.paid},{o.payee_claims_paid}"
            for o in self.hop.outcomes]
        return _sha256(*ledgers, "\n".join(outcomes))


class ClaimsEpisode:
    """One seeded random broadcast attack plus one seeded random cycle
    attack per op.

    The case seeds cycle with period ops/4, so the first and the last
    quarter of an episode run identical cases and ``slowdown_x`` compares
    like with like.  Both entry points build their networks internally, so
    the episode counts traffic by registering every ``Network`` built during
    an op.
    """

    setup_reps = 50

    def __init__(self, seed: int, ops: int):
        self.seed, self.ops = seed, ops

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.case_seeds = [rng.randrange(2 ** 32)
                           for _ in range(max(1, self.ops // 4))]
        self.results: list[adversary.AttackResult] = []
        self.totals = [0, 0, 0]

    def op(self, i: int) -> bool:
        s = self.case_seeds[i % len(self.case_seeds)]
        built: list[simnet.Network] = []
        with NetworkRegistry(built):
            ds = adversary.random_ds_case(s, N=6, f=2)
            cycle = adversary.random_cycle_attack(s, N=8)
        self.results += [ds, cycle]
        for net in built:
            for j, value in enumerate(honest_counts(net)):
                self.totals[j] += value
        return ds.ok and cycle.ok

    def finish(self) -> set[int]:
        return set()

    def counts(self) -> tuple[int, int, int]:
        return tuple(self.totals)

    def digest(self) -> str:
        return _sha256(adversary.gallery_to_csv(self.results))


class NetworkRegistry:
    """Context manager that hands every ``Network`` built inside it to
    ``sink``, a list; restores ``Network.__init__`` on exit."""

    def __init__(self, sink: list):
        self.sink = sink

    def __enter__(self):
        self._original = simnet.Network.__dict__["__init__"]
        original, sink = self._original, self.sink

        def __init__(net, *args, **kwargs):
            original(net, *args, **kwargs)
            sink.append(net)

        simnet.Network.__init__ = __init__
        return self

    def __exit__(self, *exc) -> None:
        simnet.Network.__init__ = self._original


# name -> (episode factory taking (seed, ops), ops per episode, nominal
# wall seconds of one episode, as measured on a busy 2-core host, why)
WORKLOADS = {
    "bank-cycle": (
        lambda seed, ops: BankEpisode(seed, ops, 6, 2, "cycle"), 20, 0.17,
        "chain-marker bank: the codec, oracle and cyclecoin carry the work "
        "and op time grows with chain length"),
    "bank-quorum": (
        lambda seed, ops: BankEpisode(seed, ops, 16, 5, "quorum"), 20, 1.1,
        "quorum-marker bank: proof re-parsing, scheduler and mux; the "
        "control for chain changes"),
    "hop-macro": (
        lambda seed, ops: HopEpisode(seed, ops), 2, 1.4,
        "cycle-hop macro payments: the Bank and HopNetwork drivers with "
        "mostly idle payers"),
    "claims-gallery": (
        lambda seed, ops: ClaimsEpisode(seed, ops), 200, 1.4,
        "seeded broadcast and cycle attacks: the only workload with an "
        "adversary on the network"),
}


def make_episode(name: str, seed: int, ops: int | None = None):
    factory, default_ops, _, _ = WORKLOADS[name]
    return factory(seed, default_ops if ops is None else ops)


def episode_seeds(seed: int, count: int) -> list[int]:
    """The input seed of each episode of a run with benchmark seed ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(count)]
