"""Byte identity across commits: pinned digests of every CLI output file.

The configurations are those of criterion 12 plus ``attack --protocol
cycle`` and ``attack --protocol strawman``, the only command line paths
to ``PoRProcess``, ``StrawmanProcess`` and the chain marker under attack.
Criterion 12 checks that two runs of one commit agree; these digests
check that a refactor leaves every output byte where it was.  The
``build`` field of ``summary.json`` names the source tree, so it is
dropped before hashing.  A change that alters output bytes on purpose
updates the digests and says why in ``CHANGES.md``.

The CLI outputs carry no signed content, so two registry digests pin it:
the sha256 of the sorted (signer, content) pairs the oracle issued in a
chain-marker bank and in a response enforcement run with a silent process.
"""

import hashlib
import json
import random

import pytest

from lockstep.cli import DEFAULTS, execute
from lockstep.cyclecoin import PoRProcess
from lockstep.marker import MarkerSystem
from lockstep.payments import Bank
from lockstep.simnet import enc_bytes, enc_int

CONFIGS = {
    **{f"run-{protocol}": dict(command="run", protocol=protocol, n=7, f=2,
                               rounds=3, seed=17)
       for protocol in ("broadcast", "quorum", "cycle", "bank-quorum",
                        "bank-cycle")},
    "sweep-broadcast": dict(command="sweep", protocol="broadcast", n=8),
    "gen-topology-random": dict(command="gen-topology", protocol="random",
                                n=10, seed=5),
    "attack-quorum": dict(command="attack", protocol="quorum", seed=3),
    "attack-cycle": dict(command="attack", protocol="cycle", seed=3),
    "attack-strawman": dict(command="attack", protocol="strawman", seed=3),
}

GOLDEN = {
    "run-broadcast": {
        "metrics.csv": "d8d32c47aa9a39d4ea50ac8ca951dec3f4fa0e4c6138dfd018887cbeb281f567",
        "summary.json": "7acd173e367a7901bfac4928b6782098fc0e1a742a4672127ae81a4f7f9c56f1",
        "transcript.jsonl": "d8b118a387fc9ddf10ad97a8abbd114595392adce642218a22698d3e8499bf2c",
    },
    "run-quorum": {
        "metrics.csv": "80710479f6941573e6ffc697a3e3446a3fa3915b9290760796ee6b85b97c6496",
        "summary.json": "3138fbbf62a3edfb3d6bfef7df4a781fc2fe7d56eca5cf779fca3e3a9cd2645f",
        "transcript.jsonl": "8a098be7ba1156662a8a4b4e8cd46f25ed337517ca5577d025c4347cf9bf8ffb",
    },
    "run-cycle": {
        "metrics.csv": "e4f9e2bded34e764d4c3c16d5f75f074187f236ebf42db05a746a0006d2fa236",
        "summary.json": "0f759996cec9af9426eaa3f3b701fec7bd84fdd753f2215215468ae5a8bc8539",
        "transcript.jsonl": "abb2c7a77b99c56be7cabeae1caf7106e17f0c7e00bd2f28136a0b7f056c7612",
    },
    "run-bank-quorum": {
        "ledger.csv": "11701d7ce98d6a9cc9009f0049ba1175d3657d1f9563ce2365ca7f6aa608a942",
        "metrics.csv": "54c9288747d09dd4a813eb8f82d68a58ec469bdede1f32dcd9150cee93855a2f",
        "summary.json": "a0038d006c355bbd545989dbf71abb6b99fa5a1a0eb5b16ae4da11e1d2f48cb5",
        "transcript.jsonl": "32d44f02c2c42e778e5b9cc8527722ace72159ca6413a62e5e7573bdc8694cfe",
    },
    "run-bank-cycle": {
        "ledger.csv": "11701d7ce98d6a9cc9009f0049ba1175d3657d1f9563ce2365ca7f6aa608a942",
        "metrics.csv": "6b9f0c503bb38b1dbe02999eb590f951c4e1c1030c94961133f7ee974a94e83d",
        "summary.json": "d1ceaec698b39612a1d0beb975457a90fe0fc4433eb5b2a130a5cc71b8c9c067",
        "transcript.jsonl": "7f997665687229a5ae79914e587758d9acc3f2d9e205cdeade9cab1d41d17652",
    },
    "sweep-broadcast": {
        "metrics.csv": "7d1ab4d4a69be83d398b85bb9d82c74ec4f7e90ea7e9518a39d7172f23d46f4e",
        "summary.json": "3b0787a1cbb8eaf850e83adb685f0ac065015fa7d079217fd4ff318f1be228ba",
        "transcript.jsonl": "e703af119eab76459f60c046f4c14d799b029c17a1437983bda98d78451a8557",
    },
    "gen-topology-random": {
        "cycles.txt": "067f44ecd252508f53b85d381a9e7c70d4fc20e4c7deb2815b6f205a4bbf2079",
        "metrics.csv": "77fffc98715caa58fb3455f189d686cfd6d8a20e6d4b23714ce9dfc5bd88d7af",
        "summary.json": "b271b9a0d460e6418965988693bf4afffcf734db10d8abda2eaaa406c9522c52",
        "transcript.jsonl": "60d5de2f16c29f2cfbdb86f490b9281d041a8a557a0877296131bc92173c2cef",
    },
    "attack-quorum": {
        "metrics.csv": "a7147de591a3bfb8c6c97c13751804cfb84b376140dc281c9bf67761605f1591",
        "summary.json": "d782707fd1a771d491208405f9b4a5bed5bbd7ad3e8e5b5712c2285fcc024524",
        "transcript.jsonl": "05947068d46a826c87aa85afb17bc558f4c671e425db2cc5dc2cf53de8dd3039",
    },
    "attack-cycle": {
        "metrics.csv": "37bb47f7680c15f84bf79e3449b130d0233976db3c766619f418e46106e0f867",
        "summary.json": "f6fc2d4c35ef0397e9b5588379ca6005b3fa85ece6266c2f409d44ab71b1dd51",
        "transcript.jsonl": "9c5929341fd25e0339425ce7366da6eef3af536e08b2ca4da9612e8190f3123c",
    },
    "attack-strawman": {
        "metrics.csv": "08d132d2e9813b2228f0cfd259886dd547ed2d6926bc4f87da2b79a0ea7d498e",
        "summary.json": "38cfb2e877868ba9f5b29428f2d80f73c578573c5dfb6b390535c957841e46b6",
        "transcript.jsonl": "2c0c1ce16ad0f1d825d3c9c0cb808f8036738ce75d4ec4dd7cf3858dbf8f6d5d",
    },
}


def _digests(files: dict[str, str]) -> dict[str, str]:
    summary = json.loads(files["summary.json"])
    summary.pop("build")
    files = dict(files, **{"summary.json": json.dumps(summary, indent=2) + "\n"})
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(files.items())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_the_pinned_digests(name):
    files, _ = execute(dict(DEFAULTS, **CONFIGS[name]))
    assert _digests(files) == GOLDEN[name]


def _registry_digest(oracle) -> str:
    h = hashlib.sha256()
    for signer, content in sorted(oracle._issued):
        h.update(enc_int(signer) + enc_bytes(content))
    return h.hexdigest()


def test_cycle_bank_signs_the_pinned_contents():
    bank = Bank(6, 2, [1] * 6, family="cycle")
    rng = random.Random(7)
    for _ in range(20):
        bank.run_round({payer: rng.randrange(6)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert len(bank.oracle._issued) == 337
    assert _registry_digest(bank.oracle) == \
        "9e2f2d7c450796a7e857b136f321dd71236961e2b68e2bd8340c45c02dcd71a0"


def test_response_enforcement_signs_the_pinned_contents():
    system = MarkerSystem(PoRProcess, 6, 1, frozenset({2}))
    system.run_round({0: 4})
    system.run_round({4: 3})
    assert [sorted(p.deleted) for p in system.procs] == [[2]] * 2 + [[]] + [[2]] * 3
    assert _registry_digest(system.net.oracle) == \
        "c289e0f96cd937d60224fed50b1d229b74248aa19b94b6d87760eb8bcd1585e5"
