"""Deterministic protocol laboratory for lockstep networks.

The package bundles authenticated broadcast, round based marker ownership,
payment systems built from markers, a cycle hopping payment network, payment
cancellation, and an adversary gallery, all running on one simulated
synchronous network with reproducible transcripts and metrics.
"""

from lockstep.simnet import (
    CodecError,
    ConfigFault,
    ForgeryViolation,
    Network,
    ProtocolFault,
    SignatureOracle,
    SignedMessage,
    seeded_rng,
)
from lockstep.consensus import (
    BroadcastRun,
    run_dolev_strong,
    run_majority_ba,
    run_turpin_coan,
)
from lockstep.muxer import MuxHost, nonce_for
from lockstep.marker import (
    Marking,
    MarkerSystem,
    check_marker_round,
    measure_z,
)
from lockstep.cyclecoin import verify_payment_claim
from lockstep.payments import Bank
from lockstep.hopnet import (
    CycleSet,
    HopNetwork,
    HopPath,
    gen_binary_search_pair,
    gen_random_cycles,
    load_cycles,
    save_cycles,
    shortest_hop_path,
)
from lockstep.cancel import (
    PairingInstance,
    pair_bruteforce,
    pair_greedy,
    random_instance,
)
from lockstep.adversary import AttackResult, split_double_spend

__version__ = "0.1.0"

__all__ = [
    "AttackResult",
    "Bank",
    "BroadcastRun",
    "CodecError",
    "ConfigFault",
    "CycleSet",
    "ForgeryViolation",
    "HopNetwork",
    "HopPath",
    "MarkerSystem",
    "Marking",
    "MuxHost",
    "Network",
    "PairingInstance",
    "ProtocolFault",
    "SignatureOracle",
    "SignedMessage",
    "check_marker_round",
    "gen_binary_search_pair",
    "gen_random_cycles",
    "load_cycles",
    "measure_z",
    "nonce_for",
    "pair_bruteforce",
    "pair_greedy",
    "random_instance",
    "run_dolev_strong",
    "run_majority_ba",
    "run_turpin_coan",
    "save_cycles",
    "seeded_rng",
    "shortest_hop_path",
    "split_double_spend",
    "verify_payment_claim",
    "__version__",
]
