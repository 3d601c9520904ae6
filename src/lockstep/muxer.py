"""Running many protocol instances side by side on one network.

Each instance gets a nonce.  Outgoing payloads are suffixed with the nonce,
incoming payloads are demultiplexed by it, and signatures issued inside an
instance bind the nonce through :class:`~lockstep.simnet.ScopedOracle`, so
nothing signed in one instance verifies in another.  Messages whose nonce is
unknown, or which do not parse as tagged payloads at all, are dropped.

Instances are serviced in ascending nonce order within a step, which keeps
transcripts reproducible.  The metrics ledger counts the sends of every
instance together, by round, as it counts any honest send.  Tags and
splits come from the shared tables of :mod:`lockstep.simnet`: a payload an
instance sends to k recipients is one tagged object, and every receiving
host gets the same content object back from it.
"""

from __future__ import annotations

from lockstep.simnet import CodecError, Delivery, Process, Send, split_payload, tag_payload


def nonce_for(*ids: int) -> bytes:
    """Dense instance nonce: each id packed as 4 big endian bytes."""
    return b"".join(int(i).to_bytes(4, "big") for i in ids)


class MuxHost(Process):
    """Hosts one sub process per nonce and routes traffic between them.

    :meth:`wake_instance` is the one way to make an instance run at a step
    without deliveries (for example a broadcaster sending its first
    message).  The host keeps its wakes in one map from step to nonces and
    tells the network of each step once a network is attached; a wake
    recorded before that is registered with the network when it attaches.
    A host nested in another process, such as the one in
    :class:`~lockstep.consensus.TurpinCoanProcess`, never attaches, so only
    the map wakes its instances.  A step services only the instances with
    a delivery or a wake due, so its cost follows the traffic, not the
    instance count.

    ``stepped`` collects the nonces of the instances serviced since a
    reader last cleared it, so a driver can re-read just the instances
    whose state may have moved; a driver that changes an instance itself
    adds its nonce there too.
    """

    def __init__(self, n: int, instances: dict[bytes, Process]):
        super().__init__(n)
        self.instances = dict(instances)
        self._later: dict[int, set[bytes]] = {}
        self.stepped: set[bytes] = set()

    def register_wakes(self) -> None:
        for s in self._later:
            self.net.wake(self.n, s)

    def wake_instance(self, nonce: bytes, step: int) -> None:
        """Schedule one extra servicing of ``nonce`` at ``step``, before
        or during a run, so a driver can decide round by round which
        instance needs a spontaneous step.  A nonce the host does not know
        is never serviced.
        """
        self._later.setdefault(step, set()).add(nonce)
        if self.net is not None:
            self.net.wake(self.n, step)

    def step(self, t: int, inbox: list[Delivery]) -> list[Send]:
        # named tuples built as in Network._post
        new = tuple.__new__
        groups: dict[bytes, list[Delivery]] = {}
        for d in inbox:
            try:
                content, nonce = split_payload(d.payload)
            except CodecError:
                continue
            if nonce in self.instances:
                groups.setdefault(nonce, []).append(new(Delivery, (d.sender, content)))
        for nonce in self._later.pop(t, ()):
            if nonce in self.instances:
                groups.setdefault(nonce, [])
        self.stepped.update(groups)
        out: list[Send] = []
        for nonce in sorted(groups):
            for recipient, payload, signatures in self.instances[nonce].step(
                    t, groups[nonce]):
                out.append(new(Send, (recipient, tag_payload(payload, nonce),
                                      signatures)))
        return out
