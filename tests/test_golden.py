"""Byte identity across commits: pinned digests of every CLI output file.

The configurations are those of criterion 12, every other sweep grid,
topology layout and attack gallery, and ``attack --protocol all``, which
runs the galleries in their fixed order.  ``attack --protocol cycle`` and
``attack --protocol strawman`` are the only command line paths to
``PoRProcess``, ``StrawmanProcess`` and the chain marker under attack.
Criterion 12 checks that two runs of one commit agree; these digests
check that a refactor leaves every output byte where it was.  The
``build`` field of ``summary.json`` names the source tree, so it is
dropped before hashing.  A change that alters output bytes on purpose
updates the digests and says why in ``CHANGES.md``.

The CLI outputs carry no signed content, so two registry digests pin it:
the sha256 of the sorted (signer, content) pairs the oracle issued in a
chain-marker bank and in a response enforcement run with a silent process.
The agreement runners that no command reaches are pinned by the digest of
their transcript and decisions, each with one silent corrupted process.
A direct hop network run is pinned the same way: its books, its traffic
counts, its outcomes and its walk-back traces.  The CLI's quorum runs use
f=2, so a 16-process quorum bank at f=5, whose proofs certify exactly the
2f+1 = 11 lowest of the 16 signers of the receipt message a target gets,
is pinned by its book, its metrics and its transcript.  The
seeded attacks are pinned by their gallery rows and by the transcript and
metrics of every network they build, adversarial traffic included.
"""

import hashlib
import json
import random

import pytest

from lockstep import simnet
from lockstep.adversary import (gallery_to_csv, random_cycle_attack,
                                random_ds_case)
from lockstep.cli import DEFAULTS, execute
from lockstep.consensus import run_bb_from_ba, run_majority_ba, run_turpin_coan
from lockstep.cyclecoin import PoRProcess
from lockstep.hopnet import (CHEAT_DENY, CHEAT_FORGE, CHEAT_KEEP, CheatPlan,
                             HopNetwork, gen_random_cycles)
from lockstep.marker import MarkerSystem
from lockstep.payments import Bank
from lockstep.simnet import SignatureOracle, enc_bytes, enc_int

CONFIGS = {
    **{f"run-{protocol}": dict(command="run", protocol=protocol, n=7, f=2,
                               rounds=3, seed=17)
       for protocol in ("broadcast", "quorum", "cycle", "bank-quorum",
                        "bank-cycle")},
    "sweep-broadcast": dict(command="sweep", protocol="broadcast", n=8),
    "sweep-quorum": dict(command="sweep", protocol="quorum", n=8),
    "sweep-cycle": dict(command="sweep", protocol="cycle", n=12),
    "sweep-hopnet": dict(command="sweep", protocol="hopnet", n=32, pairs=50),
    "sweep-cancel": dict(command="sweep", protocol="cancel", n=6),
    "gen-topology-random": dict(command="gen-topology", protocol="random",
                                n=10, seed=5),
    "gen-topology-binary": dict(command="gen-topology", protocol="binary",
                                n=10),
    "attack-broadcast": dict(command="attack", protocol="broadcast", seed=3,
                             samples=20),
    "attack-quorum": dict(command="attack", protocol="quorum", seed=3),
    "attack-cycle": dict(command="attack", protocol="cycle", seed=3),
    "attack-bank": dict(command="attack", protocol="bank", seed=3),
    "attack-hopnet": dict(command="attack", protocol="hopnet", seed=3),
    "attack-strawman": dict(command="attack", protocol="strawman", seed=3),
    "attack-all": dict(command="attack", protocol="all", seed=3, samples=10),
}

GOLDEN = {
    "run-broadcast": {
        "metrics.csv": "d8d32c47aa9a39d4ea50ac8ca951dec3f4fa0e4c6138dfd018887cbeb281f567",
        "summary.json": "074147b67c421502c0fb7e40d61119907c7b7f3f8294aa2a779a0b93a710685a",
        "transcript.jsonl": "e5aab08afc17759082a704bbb2eff669fd9b026eaaf856b2365b4bb53a4a91a4",
    },
    "run-quorum": {
        "metrics.csv": "80710479f6941573e6ffc697a3e3446a3fa3915b9290760796ee6b85b97c6496",
        "summary.json": "983f58c2bfc20eeaa251cea55e0dc3af14f25d672ada657ad1c2a4f37f9cc580",
        "transcript.jsonl": "bbf38950576442af197beb18420713ad17dfe8be6a9c23ccac5384dee0d48ee2",
    },
    "run-cycle": {
        "metrics.csv": "e4f9e2bded34e764d4c3c16d5f75f074187f236ebf42db05a746a0006d2fa236",
        "summary.json": "0f759996cec9af9426eaa3f3b701fec7bd84fdd753f2215215468ae5a8bc8539",
        "transcript.jsonl": "abb2c7a77b99c56be7cabeae1caf7106e17f0c7e00bd2f28136a0b7f056c7612",
    },
    "run-bank-quorum": {
        "ledger.csv": "11701d7ce98d6a9cc9009f0049ba1175d3657d1f9563ce2365ca7f6aa608a942",
        "metrics.csv": "54c9288747d09dd4a813eb8f82d68a58ec469bdede1f32dcd9150cee93855a2f",
        "summary.json": "03cead9262c50a25368be5bca989539893aa335a7ff7c00cfc964eb24de521e9",
        "transcript.jsonl": "bf3c020c47e6525b8dfeed6fc119e5aa902867c4604e70e14c150bd863902a49",
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
    "sweep-quorum": {
        "metrics.csv": "e14feed556f4ab255ec545d1cb4108682e0d927c7b5033ec763b31aeb8ce5240",
        "summary.json": "73269f8be0d64f42222d98db0f2c56bb1c817fe15ce44698205f2da2d16ee328",
        "transcript.jsonl": "ae6c76c4b6d50cddbd5f377473b8794bc992a0b366a33f621ce5c9ff64456dc4",
    },
    "sweep-cycle": {
        "metrics.csv": "0822fcad58202338e6b4758e5f0c76c7b7cb89f531688c81e572f763ea9e033c",
        "summary.json": "b0b157b6af328da32e3da2069b066554b68bdfa6040e227bf6c8524701e8ab6b",
        "transcript.jsonl": "8baef218dbfc41284b9cfb6654ee53a66fc200ee281c429d7dba3175d510edfc",
    },
    "sweep-hopnet": {
        "metrics.csv": "f43b4ac7cc1acce956052a360707bc16ede7f4aca2aa411cd09474af0f6ad4a4",
        "summary.json": "117a24fecf6bbc58e91d0cae0be74c715ba23cea11bc61c03193f0a95b491024",
        "transcript.jsonl": "61f59d43108b6e7ed243df4cfca856c77affa3229b38369d15b7044f4d3a6100",
    },
    "sweep-cancel": {
        "metrics.csv": "1a460e2617e80fbf37f9ca6bdb4e6aefad14d12480a3c9ee895b3ab276cf0384",
        "summary.json": "2b04b756a5dbccf18e3ccff1f1f7186fd3d8761e91ece275a27ed2f7a908e2fc",
        "transcript.jsonl": "522c1bfd5b3117902ea3e8519698edbf26728193983645ebf75e105d589e3da1",
    },
    "gen-topology-binary": {
        "cycles.txt": "69e22100b64793ebc926809df368be878d91cc8300f0e6a8d9bfb1f4428a2ff0",
        "metrics.csv": "7baeb743559fb0dbe8910be304f56174357acc657c050fd81252113ca136135f",
        "summary.json": "74aa424aa8a0e4c215c2cabef6bd7a4a94e0702baeaaf8893341c2d81347f00c",
        "transcript.jsonl": "ec2f55b979349d644c1241d2ea1dfad8a38f54e3c162e7e32f1043409443767b",
    },
    "attack-broadcast": {
        "metrics.csv": "2e7f95c34031e4827382f6fe8b3915a4891f5125a130180db4fe1bdfeced300a",
        "summary.json": "7d02a83cf2f4ba8ea32234959df0dfc797bbed2d1687c9a57770a1f424de23f1",
        "transcript.jsonl": "5b2e06cbff756fe15acb7828dcf143cb6adefe80726c8f638695d411ee2d7fc9",
    },
    "attack-bank": {
        "metrics.csv": "a96ae9b025a3a588ddfa851697f810e42a55864bd92d005e773b90216f131084",
        "summary.json": "ff053dbb5d5229de335a29222ccd2fe0a1463ebd7d2c336101ca9ea47e5408cc",
        "transcript.jsonl": "5b5575b8195eca01cffaa1e2465f9f40bda2e53fe5d76f68cc412d2b6a90237e",
    },
    "attack-hopnet": {
        "metrics.csv": "42eb0cd5b9a346ec2706554f3ec27aad9a295b96ffae22e459dd0e4604df91cf",
        "summary.json": "3f1920fc0a323836e32c65924f0604c938cbdd79524ac078f65341b1038de68d",
        "transcript.jsonl": "aa92ea8441a039d141ea915585e9ffc778f51c2b8039800c6713fb519d41468d",
    },
    "attack-all": {
        "metrics.csv": "ba0e9ce1f4846d3579d0e78dd63bc1453e516d07b1f250bd4c62fab68944e38a",
        "summary.json": "84d85c57f71a7939a8888adeb5cbc1845b73347222f7c91c9a6e2a0ca0f09b3c",
        "transcript.jsonl": "b1a96a89458ea69d21df3a650787cdbdbda63bd4e11c1388168c2fbd0f521f5a",
    },
    "gen-topology-random": {
        "cycles.txt": "067f44ecd252508f53b85d381a9e7c70d4fc20e4c7deb2815b6f205a4bbf2079",
        "metrics.csv": "77fffc98715caa58fb3455f189d686cfd6d8a20e6d4b23714ce9dfc5bd88d7af",
        "summary.json": "b271b9a0d460e6418965988693bf4afffcf734db10d8abda2eaaa406c9522c52",
        "transcript.jsonl": "60d5de2f16c29f2cfbdb86f490b9281d041a8a557a0877296131bc92173c2cef",
    },
    "attack-quorum": {
        "metrics.csv": "a44c3e409031e364190fb088f3d15b37f72b1411725b5c1c744374158aa4c9eb",
        "summary.json": "39ae4d52e768994f8ba2dfaa7f110e134772809ca5f6763b40839a32289709bb",
        "transcript.jsonl": "bf65c65a6f78f065ea9fb15461cca6d7838bc6d684298c5936c2b0587c635c96",
    },
    "attack-cycle": {
        "metrics.csv": "696c5b46bd49d344c138128f5eba854a9eac72dff6e5ae9272d7dc9dab85b1cd",
        "summary.json": "79d0c91ab7a6f2772e5b3b5a4953b46f3a90fd3a4ba1205d5a973c53451351fb",
        "transcript.jsonl": "9921e77f8b9657e7715830e4426f4eae664063022d261276d69dcf8809822364",
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
    system = MarkerSystem(PoRProcess, 6, 1, SignatureOracle(frozenset({2})))
    system.run_round({0: 4})
    system.run_round({4: 3})
    assert [sorted(p.deleted) for p in system.procs] == [[2]] * 2 + [[]] + [[2]] * 3
    assert _registry_digest(system.net.oracle) == \
        "8492c311db5a1b3e35923e7a9d5c8646202e1e55640d014c63ab4684c53eed2b"


def test_sixteen_process_quorum_bank_matches_the_pinned_digests():
    """At f=5 every proof certifies 2f+1 = 11 signers, each checked by all
    16 broadcasters: the book, the metrics and the transcript of four
    seeded rounds."""
    bank = Bank(16, 5, [1] * 16, family="quorum")
    rng = random.Random(11)
    for _ in range(4):
        bank.run_round({payer: rng.randrange(16)
                        for payer, balance in bank.balances().items()
                        if balance > 0 and rng.random() < 0.6})
    assert bank.audit() == []
    assert [hashlib.sha256(text.encode()).hexdigest() for text in (
        bank.to_csv(), bank.net.metrics.to_csv(),
        bank.net.transcript.to_jsonl())] == [
        "ecb7c2cee4f5f27cb68b40de1d8ffa488bbfc250b2668ea192f0ec8d42c71713",
        "9d32f83ddcd0b71b599d387687f732de8d0ba776fb4ad6d0b515b48b58bea3d9",
        "513934ce4b889b81e88e19aefec1d7623eb5dc71b38a9d4be6b4c232bafa12bb",
    ]


AGREEMENT_RUNS = {
    "majority-ba": (lambda: run_majority_ba(
        5, 1, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0}, corrupted=frozenset({3})),
        "0e75975b7b7a547ba7930607b1d2ab60aafe2fec3f26e113371f3bd696dfd29d"),
    "turpin-coan": (lambda: run_turpin_coan(
        4, 1, {0: 5, 1: 5, 2: 7, 3: 5}, corrupted=frozenset({2})),
        "c26c0c5b60648da47f986c79e6460cb0d4eabb3eeb69abcb3c645d61255acca1"),
    "bb-from-ba": (lambda: run_bb_from_ba(4, 1, 9, corrupted=frozenset({2})),
                   "ce2617f3d171f1e0e6531faaaf19a6353d7c95900d936dda1fce2805c5de0caf"),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_RUNS))
def test_agreement_runs_match_the_pinned_digests(name):
    runner, golden = AGREEMENT_RUNS[name]
    run = runner()
    h = hashlib.sha256(run.net.transcript.to_jsonl().encode())
    h.update(json.dumps(sorted(run.decisions.items())).encode())
    assert h.hexdigest() == golden


def test_hop_run_matches_the_pinned_digest():
    """Four honest macro payments, then one with each cheat mode, each
    followed by its walk-back."""
    net = HopNetwork(gen_random_cycles(32, 2, 0))
    for a, b in ((0, 17), (5, 30), (12, 3), (21, 8)):
        net.macro_payment(a, b)
    traces = []
    for (a, b), cheat in (((0, 4), CheatPlan(1, CHEAT_KEEP)),
                          ((0, 7), CheatPlan(2, CHEAT_FORGE)),
                          ((0, 9), CheatPlan(3, CHEAT_DENY))):
        traces.append(net.dispute_walkback(net.macro_payment(a, b,
                                                             cheat=cheat)))
    h = hashlib.sha256()
    for bank in net.banks:
        h.update(bank.to_csv().encode())
        h.update(bank.net.metrics.to_csv().encode())
    h.update(repr(net.outcomes).encode())
    h.update(repr(traces).encode())
    assert [accused for accused, _ in traces] == [20, 30, 9]
    assert h.hexdigest() == \
        "37dee3f1ebaca8d211adeaa98e9559a40b4c862129cd4fb02c88c5a5bb3f038c"


def test_seeded_attack_runs_match_the_pinned_digest(monkeypatch):
    """Seeds 0..199 of the random broadcast attack at N=6, f=2 and of the
    cycle attack mixture at N=8."""
    built: list[simnet.Network] = []
    init = simnet.Network.__init__

    def register(net, *args, **kwargs):
        init(net, *args, **kwargs)
        built.append(net)

    monkeypatch.setattr(simnet.Network, "__init__", register)
    results = []
    for seed in range(200):
        results.append(random_ds_case(seed, N=6, f=2))
        results.append(random_cycle_attack(seed, N=8))
    h = hashlib.sha256(gallery_to_csv(results).encode())
    for net in built:
        h.update(net.transcript.to_jsonl().encode())
        h.update(net.metrics.to_csv().encode())
    assert len(built) == 552
    assert h.hexdigest() == \
        "ca9f5d74837c24a19e146be9b089c2ef176ee9e675363c2ca7e566613e4cfd9c"
