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
instance and round, with the bank supplying which honest payer, if any,
fed that instance.

A round costs what it touches.  Each host's mux records the instances it
stepped, and the bank keeps, per host, the set of units it holds; after a
round it re-reads ``marked`` and the new markings of the stepped
instances only, and books each free keep's marking as it makes it.  So a
round steps only the instances that carry traffic, and costs those plus
O(N) ``keep`` calls and O(N + supply) to write its book row, not a scan
of all N·V unit states.  The sets are refreshed from the instances, never
derived from the book, so the recurrence audit still checks instance
states against the book.  The price is a rule: any change to a unit made
outside ``MuxHost.step`` must be reported with :meth:`Bank.touch`, or the
book misses it.  A keep needs no touch: it leaves ``marked`` as it was,
and the bank books its marking itself.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .cyclecoin import CCProcess
from .marker import (Marking, MarkerProcess, QMProcess, check_marker_round,
                     round_tail)
from .muxer import MuxHost, nonce_for
from .simnet import (ConfigFault, Network, ScopedOracle, SignatureOracle)

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
    """

    round: int
    inputs: dict[int, int]
    spent_instance: dict[int, int]
    balances_before: dict[int, int]
    balances_after: dict[int, int]
    credits: dict[int, tuple[int, ...]]
    instance_markings: dict[int, tuple[Marking, ...]]


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
        self.family = family
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

    def _refresh(self) -> list[tuple[int, int, MarkerProcess]]:
        """Re-read ``marked`` of every honest instance stepped or touched
        since the last refresh, and return those (host, unit, process)
        triples in ascending (host, unit) order; nonces sort as their
        units do."""
        touched = []
        for n in self._order:
            host = self.hosts[n]
            if not host.stepped:
                continue
            held = self._held[n]
            for nonce in sorted(host.stepped):
                v = self._unit_of[nonce]
                proc = host.instances[nonce]
                if proc.marked:
                    held.add(v)
                else:
                    held.discard(v)
                touched.append((n, v, proc))
            host.stepped.clear()
        return touched

    def balances(self) -> dict[int, int]:
        """Current balance of every honest process, counted off the
        instance states."""
        self._refresh()
        return {n: len(self._held[n]) for n in self._order}

    def _round_markings(self, r: int,
                        touched: list[tuple[int, int, MarkerProcess]],
                        kept: list[tuple[int, int, Marking]]):
        """The markings honest processes accepted in round ``r``, per
        instance, and the senders each honest process was credited with.

        Only the ``touched`` instances, the ones stepped in the round, and
        the ``kept`` ones, (host, unit, marking) of each keep booked
        without a step, can hold a marking of it.  Markings are appended
        in round order, so a round's markings are the tail of each list;
        a kept instance that was stepped too is read once, off its tail,
        which already holds the keep.
        """
        per_instance: dict[int, tuple[Marking, ...]] = dict.fromkeys(
            range(self.supply), ())
        credited: dict[int, list[int]] = {n: [] for n in self._order}
        tails = []
        for n, v, proc in touched:
            tail = round_tail(proc.markings, r)
            if tail:
                tails.append((n, v, tail))
        if kept:
            seen = {(n, v) for n, v, _ in touched}
            tails += [(n, v, [m]) for n, v, m in kept if (n, v) not in seen]
            # two ascending runs: the sort merges them in linear time
            tails.sort(key=lambda e: (e[0], e[1]))
        for n, v, ms in tails:
            per_instance[v] += tuple(ms)
            for m in ms:
                if m.target in credited:
                    credited[m.target].append(m.predecessor)
        return (per_instance,
                {n: tuple(sorted(senders)) for n, senders in credited.items()})

    # -- round driver --------------------------------------------------------

    def run_round(self, inputs: dict[int, int] | None = None) -> BankRound:
        """Advance one round.  ``inputs`` maps payers to targets; honest
        payers with a balance and no entry transfer to themselves."""
        given = dict(inputs or {})
        r = self.round_index
        base = r * self.steps_per_round
        self.net.round = r
        before = self.balances()
        for payer, target in given.items():
            if not 0 <= payer < self.N or not 0 <= target < self.N:
                raise ConfigFault(
                    f"round {r}: payment {payer}->{target} out of range")
            if payer in self.honest and before[payer] == 0 and target != payer:
                raise ConfigFault(
                    f"round {r}: process {payer} has no balance to spend")
        effective: dict[int, int] = {}
        spent: dict[int, int] = {}
        kept: list[tuple[int, int, Marking]] = []
        # a delivery at ``base`` is processed before a keep, so the keep
        # goes through the network then; every such delivery is already
        # queued, because the previous round ran to base - 1
        busy = self.net.queued(base)
        for payer in self._order:
            if before[payer] == 0:
                continue
            target = given.get(payer, payer)
            v = min(self._held[payer])
            host, nonce = self.hosts[payer], self.nonces[v]
            proc = host.instances[nonce]
            marking = (proc.keep(r) if target == payer and payer not in busy
                       else None)
            if marking is None:
                proc.pay(r, target)
                host.wake_instance(nonce, base)
            else:
                kept.append((payer, v, marking))
            effective[payer] = target
            spent[payer] = v
        self.net.run_until(base + self.steps_per_round - 1)
        instance_markings, credits = self._round_markings(
            r, self._refresh(), kept)
        after = self.balances()
        row = BankRound(r, effective, spent, before, after, credits,
                        instance_markings)
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
        """Replay the per instance marking rules for every round."""
        violations = []
        for row in self.history:
            fed = {v: payer for payer, v in row.spent_instance.items()}
            for v in range(self.supply):
                payer = fed.get(v)
                target = row.inputs[payer] if payer is not None else None
                for text in check_marker_round(
                        row.round, self.honest,
                        list(row.instance_markings[v]),
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
