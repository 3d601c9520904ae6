"""Payment rounds built from replicated marking instances.

One unit of currency is one marking instance: whoever holds the mark in
instance k owns that unit.  A process spends by handing over the mark in
one instance it holds, and the recipient's balance grows because one more
of its instances is now marked.  Every process hosts all instances side
by side behind a mux, so a single lockstep network carries the whole
economy and a signature from one instance is meaningless in another.

The :class:`Bank` driver runs the rounds and keeps the book: who held how
much entering each round, which instance each payer spent, and which
credits each recipient collected.  A funded process spends every round;
when the caller names no target the bank books a transfer to the process
itself, which nets out because the spent unit comes straight back as a
self credit.  Where that keep is free, as in the chain marker, the bank
books it with :meth:`MarkerProcess.keep` and the unit takes no network
step; the quorum marker renews its receipt proof and keeps through the
network.

Audits over the book check four account level guarantees, quantified
over honest processes only:

* conservation: honest holdings never exceed the issued supply and no
  balance goes negative;
* consent: a credit naming an honest sender always traces back to that
  sender actually spending toward the credited recipient;
* recurrence: new balance = old balance + credits, minus one if the
  process spent.  This ties the book to the instance states, so a
  handoff that silently stalls or double lands shows up here;
* delivery: a payment between honest processes lands as a credit in the
  same round.

On top of those the per instance marking rules are replayed for every
round, with the bank supplying which honest payer, if any, fed each
instance; an instance that no payer fed and nobody marked passes every
rule, so only the instances a round marked or fed are replayed.

A round costs what it touches.  Each host's mux records the instances it
stepped, and the bank keeps, per host, the set of units it holds; after a
round it re-reads ``marked`` and the new markings of the stepped
instances only.  It also keeps standing maps: the balances, each funded
process's lowest unit and its self transfer, the self credits, and the
processes that keep those units.  Free keeps run over the standing
keepers, O(funded) ``keep`` calls a round, and every other piece of book
work is O(touched): a round that moves no unit hands its row the
standing maps as they are, and one that moves a unit replaces each map
it changes by one C-level copy of its N entries with the moved entries
written.  No map is written once a row holds it.  The sets are refreshed
from the instances, never derived from the book, so the recurrence audit
still checks instance states against the book.  The price is a rule:
any change to a unit made outside ``MuxHost.step`` must be reported with
:meth:`Bank.touch`, or the book misses it.  A keep needs no touch: it
leaves ``marked`` as it was, and the bank books its marking itself.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .cyclecoin import CCProcess
from .marker import (Marking, MarkerProcess, QMProcess, check_marker_round,
                     round_tail)
from .muxer import MuxHost, nonce_for
from .simnet import ConfigFault, Network, ScopedOracle, SignatureOracle

# family name -> the process class of one marking instance
FAMILIES = {"quorum": QMProcess, "cycle": CCProcess}


def deal(N: int, V: int) -> list[int]:
    """Opening balances of ``V`` units dealt round robin over ``N``
    processes: unit v goes to process v mod N."""
    return [V // N + (n < V % N) for n in range(N)]


@dataclass(frozen=True)
class BankRound:
    """Book entry for one round.

    ``inputs`` holds every honest payer that spent this round, self
    transfers included.  ``spent_instance`` names the instance each of
    them used.  ``credits`` lists, per honest recipient, the senders of
    the units it collected this round, duplicates kept.  Balance maps
    cover honest processes only.

    The maps are shared and read-only: a row holds the bank's maps in
    force, rounds that move no unit hold the same objects, and no map is
    written once a row holds it.  ``kept`` holds the markings of the
    keeps booked without a step, and ``tails`` the (host, unit, markings)
    of each stepped instance that accepted a marking this round, in
    ascending (host, unit) order; a marking's target is the host that
    made it.  :meth:`marked_units` reads the markings per unit off both.
    """

    round: int
    inputs: dict[int, int]
    spent_instance: dict[int, int]
    balances_before: dict[int, int]
    balances_after: dict[int, int]
    credits: dict[int, tuple[int, ...]]
    kept: list[Marking]
    tails: list[tuple[int, int, tuple[Marking, ...]]]

    def marked_units(self) -> dict[int, tuple[Marking, ...]]:
        """The markings of the round per unit, for the units with any, in
        ascending host order on each unit.  A kept unit that was stepped
        too is read once, off its tail, which already holds the keep."""
        spent, seen = self.spent_instance, {(n, v) for n, v, _ in self.tails}
        kept = [(m.target, spent[m.target], (m,)) for m in self.kept]
        marked: dict[int, tuple[Marking, ...]] = {}
        # distinct (host, unit) pairs: the sort never compares markings
        for _, v, ms in sorted(self.tails + [e for e in kept
                                             if e[:2] not in seen]):
            marked[v] = marked.get(v, ()) + ms
        return marked


def _patched(standing: dict, changes: dict, gone: list[int]) -> dict:
    """A copy of ``standing`` with ``changes`` written and the keys of
    ``gone`` dropped, in ascending key order when both maps are; the
    standing map is left as is."""
    patched = standing | changes
    for key in gone:
        patched.pop(key, None)
    if standing and not changes.keys() <= standing.keys():
        patched = dict(sorted(patched.items()))
    return patched


class Bank:
    """Economy of ``sum(initial)`` marking instances over one network.

    ``initial`` gives the opening balance of each process; unit v starts
    with the v-th holder in ascending process order.  ``family`` picks
    the marking machinery, quorum countersigning or signature chains.
    The corrupted processes are those of ``oracle`` (by default a fresh
    oracle with none), and ``adversary`` speaks for them.
    """

    def __init__(self, N: int, f: int, initial: list[int] | tuple[int, ...],
                 oracle: SignatureOracle | None = None, adversary=None,
                 family: str = "quorum"):
        if family not in FAMILIES:
            raise ConfigFault(f"unknown marking family {family!r}")
        if len(initial) != N or any(v < 0 for v in initial):
            raise ConfigFault(f"initial balances must be {N} non-negative values")
        process = FAMILIES[family]
        process.check(N, f)
        self.N = N
        self.f = f
        if oracle is None:
            oracle = SignatureOracle()
        self.oracle = oracle
        self.corrupted = oracle.corrupted
        self.honest = frozenset(range(N)) - self.corrupted
        self.initial = tuple(initial)
        self.supply = sum(initial)
        self.holders0 = tuple(n for n in range(N) for _ in range(initial[n]))
        self.nonces = tuple(nonce_for(v) for v in range(self.supply))
        self.steps_per_round = process.steps(N, f)
        self.hosts = [
            MuxHost(n, {nonce: process(n, N, f, ScopedOracle(oracle, nonce),
                                       self.holders0[v])
                        for v, nonce in enumerate(self.nonces)})
            for n in range(N)
        ]
        self.net = Network(self.hosts, oracle, adversary)
        self.round_index = 0
        self.history: list[BankRound] = []
        # the units each host's instances hold, refreshed from the
        # instances a host stepped; at set-up unit v sits at holders0[v]
        self._order = tuple(sorted(self.honest))
        self._unit_of = {nonce: v for v, nonce in enumerate(self.nonces)}
        self._held: list[set[int]] = [set() for _ in range(N)]
        for v, n in enumerate(self.holders0):
            self._held[n].add(v)
        # the standing maps, each replaced, never written, when a unit
        # moves; the first refresh builds them, as if every host had moved
        self._balances = self._credits = self._lowest = {}
        self._inputs, self._keepers = {}, {}
        self._moved = list(self._order)

    # -- book keeping --------------------------------------------------------

    def unit(self, n: int, v: int):
        """The process of unit ``v`` at host ``n``."""
        return self.hosts[n].instances[self.nonces[v]]

    def touch(self, n: int, v: int) -> None:
        """Report that unit ``v`` of host ``n`` changed outside a network
        step; the next read of the book re-reads it.  The book re-reads
        only stepped or touched instances, so every other change would
        go unseen."""
        self.hosts[n].stepped.add(self.nonces[v])

    def _patch(self, moved: list[int] | tuple[int, ...]) -> None:
        """Replace the standing maps by copies with the entries of the
        ``moved`` hosts rewritten from the units they hold."""
        held = self._held
        # every honest host has a balance and a credit entry, in order
        self._balances = self._balances | {n: len(held[n]) for n in moved}
        self._credits = self._credits | {n: (n,) if held[n] else ()
                                         for n in moved}
        lowest = {n: min(held[n]) for n in moved if held[n]}
        gone = [n for n in moved if not held[n]]
        self._lowest = _patched(self._lowest, lowest, gone)
        self._inputs = _patched(self._inputs, {n: n for n in lowest}, gone)
        self._keepers = _patched(self._keepers, {
            n: self.unit(n, v) for n, v in lowest.items()}, gone)

    def _refresh(self) -> list[tuple[int, int, MarkerProcess]]:
        """Re-read ``marked`` of every honest instance stepped or touched
        since the last refresh, patch the standing maps of the hosts whose
        units moved, and return those (host, unit, process) triples in
        ascending (host, unit) order; nonces sort as their units do."""
        touched = []
        moved, self._moved = self._moved, []
        for n in self._order:
            host = self.hosts[n]
            if not host.stepped:
                continue
            held = self._held[n]
            was = set(held)
            for nonce in sorted(host.stepped):
                v = self._unit_of[nonce]
                proc = host.instances[nonce]
                if proc.marked:
                    held.add(v)
                else:
                    held.discard(v)
                touched.append((n, v, proc))
            host.stepped.clear()
            if held != was:
                moved.append(n)
        if moved:
            self._patch(moved)
        return touched

    def balances(self) -> dict[int, int]:
        """Current balance of every honest process, counted off the
        instance states.  The dict is a fresh copy, the caller's to keep
        or write; the book's own map is shared by its rows."""
        self._refresh()
        return dict(self._balances)

    # -- round driver --------------------------------------------------------

    def run_round(self, inputs: dict[int, int] | None = None) -> BankRound:
        """Advance one round.  ``inputs`` maps payers to targets; honest
        payers with a balance and no entry transfer to themselves.  A
        round starts as every marker round does, with
        :meth:`MarkerProcess.pay`; a hosted unit has no network of its
        own, so its payment asks for no step, and its host wakes it by
        nonce at the round's base through :meth:`MuxHost.wake_instance`."""
        given = dict(inputs or {})
        r = self.round_index
        base = r * self.steps_per_round
        self.net.round = r
        self._refresh()
        # the maps in force entering the round
        before, spent = self._balances, self._lowest
        effective, credits = self._inputs, self._credits
        for payer, target in given.items():
            if not 0 <= payer < self.N or not 0 <= target < self.N:
                raise ConfigFault(
                    f"round {r}: payment {payer}->{target} out of range")
            if payer in self.honest and before[payer] == 0 and target != payer:
                raise ConfigFault(
                    f"round {r}: process {payer} has no balance to spend")
        kept: list[Marking] = []
        paid: dict[int, int] = {}
        # a delivery at ``base`` is processed before a keep, so the keep
        # goes through the network then; every such delivery is already
        # queued, because the previous round ran to base - 1
        busy = self.net.queued(base)
        for payer, proc in self._keepers.items():
            target = given.get(payer, payer)
            if target == payer and payer not in busy:
                marking = proc.keep(r)
                if marking is not None:
                    kept.append(marking)
                    continue
            proc.pay(r, target)
            self.hosts[payer].wake_instance(self.nonces[spent[payer]], base)
            paid[payer] = target
        self.net.run_until(base + self.steps_per_round - 1)
        tails = [(n, v, tuple(tail)) for n, v, proc in self._refresh()
                 if (tail := round_tail(proc.markings, r))]
        if paid or tails:
            effective = effective | {p: t for p, t in paid.items() if t != p}
            # the credits of the hosts whose round is not one free keep; a
            # free keep credits its host, unless the host's tail holds it
            senders: dict[int, list[int]] = {n: [] for n in paid}
            for n, _, ms in tails:
                senders.setdefault(n, []).extend(m.predecessor for m in ms)
            seen = {(n, v) for n, v, _ in tails}
            for n, credited in senders.items():
                if n in spent and n not in paid and (n, spent[n]) not in seen:
                    credited.append(n)
            credits = credits | {n: tuple(sorted(credited))
                                 for n, credited in senders.items()}
        row = BankRound(r, effective, spent, before, self._balances, credits,
                        kept, tails)
        self.history.append(row)
        self.round_index += 1
        return row

    # -- audits --------------------------------------------------------------

    def audit_conservation(self) -> list[str]:
        """Honest holdings stay within the issued supply, balances stay
        non-negative, and with nothing corrupted the supply is exact."""
        violations = []
        for row in self.history:
            total = sum(row.balances_after.values())
            if total > self.supply:
                violations.append(
                    f"round {row.round}: honest holdings {total} exceed "
                    f"supply {self.supply}")
            if not self.corrupted and total != self.supply:
                violations.append(
                    f"round {row.round}: supply drifted to {total}, "
                    f"expected {self.supply}")
            for n, v in row.balances_after.items():
                if v < 0:
                    violations.append(
                        f"round {row.round}: negative balance {v} at {n}")
        return violations

    def audit_consent(self) -> list[str]:
        violations = []
        for row in self.history:
            for n, senders in row.credits.items():
                for s in senders:
                    if s in self.honest and row.inputs.get(s) != n:
                        violations.append(
                            f"round {row.round}: {n} credited in the name of "
                            f"honest {s} without a matching spend")
        return violations

    def audit_recurrence(self) -> list[str]:
        violations = []
        for row in self.history:
            for n in sorted(self.honest):
                delta = 1 if row.balances_before[n] > 0 else 0
                expected = (row.balances_before[n]
                            + len(row.credits[n]) - delta)
                if row.balances_after[n] != expected:
                    violations.append(
                        f"round {row.round}: balance of {n} moved "
                        f"{row.balances_before[n]}->{row.balances_after[n]} "
                        f"but {len(row.credits[n])} credits and delta "
                        f"{delta} predict {expected}")
        return violations

    def audit_delivery(self) -> list[str]:
        violations = []
        for row in self.history:
            for payer, target in row.inputs.items():
                if target in self.honest and payer not in row.credits[target]:
                    violations.append(
                        f"round {row.round}: payment {payer}->{target} "
                        f"never credited")
        return violations

    def audit_instances(self) -> list[str]:
        """Replay the per instance marking rules for every round, on the
        instances it marked or fed, in ascending unit order."""
        violations = []
        for row in self.history:
            fed = {v: payer for payer, v in row.spent_instance.items()}
            marked = row.marked_units()
            for v in sorted(fed.keys() | marked.keys()):
                payer = fed.get(v)
                target = row.inputs[payer] if payer is not None else None
                for text in check_marker_round(
                        row.round, self.honest, list(marked.get(v, ())),
                        payer, payer is not None, target):
                    violations.append(f"instance {v}: {text}")
        return violations

    def audit(self) -> list[str]:
        return (self.audit_conservation() + self.audit_consent()
                + self.audit_recurrence() + self.audit_delivery()
                + self.audit_instances())

    # -- export --------------------------------------------------------------

    def to_csv(self) -> str:
        """The book as CSV, one row per honest process and round."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["round", "process", "balance_before", "paid_to",
                         "credits", "balance_after"])
        for row in self.history:
            for n in sorted(self.honest):
                writer.writerow([
                    row.round, n, row.balances_before[n],
                    row.inputs.get(n, ""),
                    ";".join(str(s) for s in row.credits[n]),
                    row.balances_after[n],
                ])
        return out.getvalue()
