"""Mutation analysis: which tests fail when a named protocol rule is weakened.

A mutant is data: a module of ``src/lockstep``, an exact old text that
occurs in it once, the new text that replaces it, and the rule it
weakens.  A mutant that no attack can exploit carries the argument why
in ``equivalent``; it may survive without failing the run.  Each mutant is applied to its own fresh ``git archive`` copy of
a revision, never to a working tree, and the chosen tests run there.  A
mutant is killed when a test fails, other than the smoke test of
``tests/test_mutants.py``.  The unmutated copy runs first as the
control; a failing control makes the matrix meaningless, so the run
stops.

    python tools/mutants.py [--rev REV] [--workdir DIR] [--only NAME[,NAME...]]
                            [PYTEST_ARG ...]

runs every mutant, or only those named by ``--only``, under pytest with
the given arguments (default: the whole suite) and prints the kill
matrix: one row per mutant with the tests that failed.  An unknown name
is refused before anything runs.  ``--rev`` defaults to HEAD; pass
``$(git stash create)`` to include uncommitted edits of tracked files.
Each copy lives under ``--workdir`` (default: a temporary directory),
which is removed afterwards.  The exit code is 1 when a mutant that is
not documented as equivalent survives.
The tier-1 suite checks only that every old text still occurs once; it
never runs the mutants, since each run takes as long as its tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    rule: str
    old: str
    new: str
    equivalent: str = ""


MUTANTS = (
    Mutant("M1", "consensus.py", "inspect_proper: distinct signers dropped",
           "    if len(set(signers)) != len(signers):\n        return None\n", ""),
    Mutant("M3", "consensus.py", "inspect_proper: leader-first dropped",
           "if not signers or signers[0] != leader:", "if not signers:"),
    Mutant("M4", "consensus.py", "inspect_proper: verify_stack dropped",
           "    if not sm.verify_stack(oracle):\n        return None\n", ""),
    Mutant("Q1", "marker.py", "_countersigns: freshness dropped",
           "            if claimed <= self.countersigned:\n"
           "                continue\n", ""),
    Mutant("Q2", "marker.py", "summarize_proof: 2f+1 signers -> 1",
           "mask.bit_count() < 2 * f + 1", "mask.bit_count() < 1"),
    Mutant("Q3", "marker.py", "_accept: 2f+1 receipts -> f+1",
           "        quorum = 2 * self.f + 1\n", "        quorum = self.f + 1\n"),
    Mutant("Q4", "marker.py", "_accept: signature check dropped",
           "(s for s in sorted(signers)\n"
           "                                 if self.oracle.verify(s, message))",
           "(s for s in sorted(signers))"),
    Mutant("Q5", "marker.py", "_proof_round: verify_all dropped",
           "return j if self.oracle.verify_all(signers, message) else None",
           "return j"),
    Mutant("Q6", "marker.py", "_countersigns: intent signature dropped",
           "if sm.signers != (payer,) or not sm.verify_stack(self.oracle):",
           "if sm.signers != (payer,):"),
    Mutant("Q7", "marker.py", "summarize_proof: 2f+1 signers -> 2f",
           "mask.bit_count() < 2 * f + 1", "mask.bit_count() < 2 * f"),
    Mutant("Q8", "marker.py", "_countersigns: countersigning round kept",
           "            if claimed <= self.countersigned:\n"
           "                continue\n"
           "            receipt = countersign(self.oracle, self.n, receipt_message(\n"
           "                r, payer, target, claimed))\n"
           "            self.countersigned = claimed\n",
           "            if claimed < self.countersigned:\n"
           "                continue\n"
           "            receipt = countersign(self.oracle, self.n, receipt_message(\n"
           "                r, payer, target, claimed))\n"
           "            self.countersigned = r\n"),
    Mutant("Q9", "marker.py", "decode_proof: a leading zero byte accepted",
           "if len(data) <= end or not data[end]:", "if len(data) <= end:"),
    Mutant("Q10", "marker.py", "_countersigns: receipt names no claim",
           "                r, payer, target, claimed))",
           "                r, payer, target, GENESIS_ROUND))"),
    Mutant("Q11", "marker.py", "summarize_proof: bits past the broadcasters",
           "mask.bit_length() > 3 * f + 1 or ", ""),
    Mutant("O1", "simnet.py", "verify_all: the first signer decides",
           "zip(signers, repeat(content))", "zip(signers[:1], repeat(content))"),
    Mutant("R1", "marker.py", "read_receipt: entry may sign other content",
           "\n            # the one entry signed exactly X, the bytes before it\n"
           "            or wire[end + 12:] != PRIOR)", ")"),
    Mutant("C2", "cyclecoin.py", "_vouch: >= w -> > w",
           "over = [v for v in log if v >= w]", "over = [v for v in log if v > w]"),
    Mutant("C3", "cyclecoin.py", "_vouch: the holder vouches",
           "        if self.marked:\n            # the holder vouches for nothing",
           "        if False:\n            # the holder vouches for nothing"),
    Mutant("C4", "cyclecoin.py", "_on_chain: freshness dropped",
           "fresh = w not in self.signed_log and w not in self.received_log",
           "fresh = True"),
    Mutant("C5", "cyclecoin.py", "assemble: deleted processes may sign x/y",
           "if rec.signer != end or end in barred:", "if rec.signer != end:",
           equivalent=(
               "At a lone x or y of group g, `end` is the genesis or the end "
               "of the last path group j < g, which skipped the positions "
               "deleted up to round j, while `barred` holds those deleted "
               "before round g; a parse resumed from a kept prefix stood at "
               "such an end, since the prefix's groups are of rounds no "
               "later deletion bears on.  So `end in barred` holds there "
               "only while `end` is a genesis deleted before round g and no "
               "path group has been parsed, or is the end of group j "
               "deleted in a round from j+1 to g-1, and a path group after "
               "it is refused anyway (`extender in barred`, a set that only "
               "grows with g).  The chains C5 lets through are therefore a "
               "prefix that ends at a deleted position followed by that "
               "position's own lone marks.  "
               "Such a chain is never a request (its last group has no path), "
               "and it is complete only if it ends in a lone y, which an "
               "honest process never signs: `_finish` puts a y right after a "
               "path record.  So it carries the lone y of a corrupted "
               "position, and it ends there: only that position takes it "
               "(`_on_chain`), an audit of it is about that position "
               "(`verify_payment_claim`), and refusal evidence must end at "
               "the accused, who is not deleted while its complaint is "
               "settled.  The argument does not lean on 'a deleted process "
               "is corrupted', which the gallery checks on its response "
               "enforcement coalitions only.")),
    Mutant("D1", "cyclecoin.py", "assemble: all groups under current deletions",
           "        if deleted:\n            barred",
           "        if False:\n            barred"),
    Mutant("D2", "cyclecoin.py", "assemble: round g deletions bar group g",
           "if d < len(groups)}", "if d <= len(groups)}"),
    Mutant("C6", "cyclecoin.py", "_on_query: round check dropped",
           "        if len(shape.groups) - 1 != r:\n            return []\n", ""),
    Mutant("V1", "cyclecoin.py", "_verify: every prefix kept",
           "if shape is not None and len(shape.groups) <= r + 1:",
           "if shape is not None:"),
    Mutant("P1", "cyclecoin.py", "_refusal_justified: never justifies",
           "return chain_signatures_ok(evidence, self.oracle)", "return False"),
    Mutant("P2", "cyclecoin.py", "_settle_period: a COMPLY ignored",
           "if not fault and value == COMPLY and self.oracle.verify(",
           "if False and self.oracle.verify("),
    Mutant("P4", "cyclecoin.py", "step: a sub holder asks no settling step",
           "for later in (self.f + 4, self.f + 5, 2 * self.f + 7):",
           "for later in (self.f + 4, self.f + 5):"),
    Mutant("N1", "marker.py", "BBMProcess.step: the decision wake dropped",
           "            if phase < self.f + 2:\n"
           "                self._wake_at(t - phase + self.f + 2)\n", ""),
    Mutant("N2", "marker.py", "pay: the payer's first-step wake dropped",
           "        self.pending[r] = target\n"
           "        self._wake_at(r * self.round_steps)\n",
           "        self.pending[r] = target\n"),
    Mutant("B1", "payments.py", "run_round: a keep of None booked as free",
           "                marking = proc.keep(r)\n"
           "                if marking is not None:\n"
           "                    kept.append(marking)\n"
           "                    continue\n",
           "                kept.append(proc.keep(r))\n"
           "                continue\n"),
    Mutant("B2", "payments.py", "run_round: a moving round keeps the credits",
           "            credits = credits | {n: tuple(sorted(credited))\n"
           "                                 for n, credited in senders.items()}\n",
           ""),
    Mutant("W1", "hopnet.py", "dispute_walkback: confirmed -> upstream",
           "return downstream, trace", "return upstream, trace"),
    Mutant("S1", "simnet.py", "from_bytes: a copy where PRIOR belongs",
           "                if len(content) == start and data.startswith(content):\n"
           "                    raise CodecError(\"a copy of the wire where PRIOR "
           "belongs\")\n", ""),
    Mutant("F1", "simnet.py", "CoalitionOracle.sign: forgery refusal dropped",
           "        if signer not in self.corrupted:\n"
           "            raise ForgeryViolation(\n", "        if False:\n"
           "            raise ForgeryViolation(\n"),
)


def mutate(source: str, mutant: Mutant) -> str:
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text is not in {mutant.module} once")
    return source.replace(mutant.old, mutant.new)


def checkout(rev: str, dest: Path) -> None:
    """A fresh copy of ``rev`` in ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def failures(tree: Path, pytest_args: list[str]) -> list[str]:
    """The ids of the tests that fail or error in ``tree``."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
         *pytest_args],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if result.returncode not in (0, 1):
        return [f"pytest exited {result.returncode}"]
    return [line.split()[1] for line in result.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--only", metavar="NAME[,NAME...]")
    args, pytest_args = parser.parse_known_args(argv)
    chosen = MUTANTS
    if args.only is not None:
        names = args.only.split(",")
        unknown = sorted(set(names) - {m.name for m in MUTANTS})
        if unknown:
            parser.error(f"unknown mutant {', '.join(unknown)}")
        chosen = tuple(m for m in MUTANTS if m.name in names)
    work = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    survivors = 0
    try:
        control = work / "control"
        checkout(args.rev, control)
        failed = failures(control, pytest_args)
        if failed:
            print(f"control fails, no matrix: {', '.join(failed)}")
            return 2
        for mutant in chosen:
            tree = work / mutant.name
            checkout(args.rev, tree)
            path = tree / "src" / "lockstep" / mutant.module
            path.write_text(mutate(path.read_text(), mutant))
            # the smoke test fails on every mutant of its own list by design,
            # so its failure kills nothing
            failed = [test for test in failures(tree, pytest_args)
                      if not test.startswith("tests/test_mutants.py::")]
            if failed:
                verdict = f"killed by {len(failed)}"
            elif mutant.equivalent:
                verdict = "survives, documented as equivalent"
            else:
                verdict = "SURVIVES"
                survivors += 1
            print(f"{mutant.name}  {mutant.rule:<44} {verdict}", flush=True)
            for test in failed:
                print(f"      {test}")
    finally:
        shutil.rmtree(work)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
