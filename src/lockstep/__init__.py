"""Deterministic protocol laboratory for lockstep networks.

The package bundles authenticated broadcast, round based marker ownership,
payment systems built from markers, a cycle hopping payment network, payment
cancellation, and an adversary gallery, all running on one simulated
synchronous network with reproducible transcripts and metrics.

Import each name from the module that defines it:

- ``simnet``: the network, the codec, the signature oracle and the faults;
- ``consensus``: relay signed broadcast and the agreements built on it;
- ``muxer``: many protocol instances side by side on one network;
- ``marker``: the quorum and broadcast markers and the marker rule audit;
- ``cyclecoin``: the cycle-chain marker and response enforcement;
- ``payments``: banks built from one marker instance per unit;
- ``hopnet``: the cycle hop payment network and its dispute walk-back;
- ``cancel``: cancelling payments that share a cycle;
- ``adversary``: the attack gallery;
- ``cli``: the ``lockstep`` command.
"""
