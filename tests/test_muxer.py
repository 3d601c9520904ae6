"""Instance multiplexing: nonce packing and cross-instance isolation."""

from hypothesis import given, strategies as st

from lockstep.muxer import MuxHost, nonce_for
from lockstep.simnet import (Network, Process, Send, Transcript,
                             TranscriptEvent, enc_int, tag_payload)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                min_size=1, max_size=4))
def test_nonce_packing_is_dense_and_invertible(ids):
    nonce = nonce_for(*ids)
    assert len(nonce) == 4 * len(ids)
    unpacked = [int.from_bytes(nonce[k:k + 4], "big")
                for k in range(0, len(nonce), 4)]
    assert unpacked == ids


def test_distinct_id_tuples_get_distinct_nonces():
    seen = {nonce_for(a, b) for a in range(5) for b in range(5)}
    assert len(seen) == 25
    assert nonce_for(1, 2) != nonce_for(2, 1)


class _Echo(Process):
    """Replies to every delivery with the same payload; remembers senders."""

    def __init__(self, n, peer):
        super().__init__(n)
        self.peer = peer
        self.heard = []

    def step(self, t, inbox):
        for d in inbox:
            self.heard.append((t, d.sender, d.payload))
        if t == 0:
            return [Send(self.peer, enc_int(self.n))]
        return []


def test_instances_stay_separated():
    a, b = nonce_for(1), nonce_for(2)
    hosts = [MuxHost(0, {a: _Echo(0, 1), b: _Echo(0, 1)}),
             MuxHost(1, {a: _Echo(1, 0)})]
    hosts[0].wake_instance(a, 0)
    hosts[0].wake_instance(b, 0)
    net = Network(hosts)
    net.run_until(2)
    heard = hosts[1].instances[a].heard
    # only the matching instance hears host 0, with the nonce stripped
    assert heard == [(1, 0, enc_int(0))]


class _Fanout(Process):
    """Sends one payload to each peer at step 0."""

    def __init__(self, n, peers, payload):
        super().__init__(n)
        self.peers = peers
        self.payload = payload

    def step(self, t, inbox):
        return [Send(p, self.payload, 1) for p in self.peers] if t == 0 else []


def test_a_payload_sent_to_k_recipients_is_one_tagged_object():
    nonce, k = nonce_for(3), 5
    payload = enc_int(42) * 60
    hosts = [MuxHost(0, {nonce: _Fanout(0, range(1, k + 1), payload)})]
    hosts[0].wake_instance(nonce, 0)
    hosts += [MuxHost(n, {nonce: _Echo(n, 0)}) for n in range(1, k + 1)]
    net = Network(hosts)
    net.run_until(2)
    sent = [e.payload for e in net.transcript.events]
    assert len(sent) == k and all(p is sent[0] for p in sent)
    # every receiver gets the same content object back
    heard = [host.instances[nonce].heard for host in hosts[1:]]
    assert [h[0][:2] for h in heard] == [(1, 0)] * k
    assert heard[0][0][2] == payload
    assert all(h[0][2] is heard[0][0][2] for h in heard)
    # the transcript reads as k separately tagged copies would
    fresh = Transcript()
    fresh.events = [TranscriptEvent(0, 0, 0, n, tag_payload.__wrapped__(
        payload, nonce), 1) for n in range(1, k + 1)]
    assert net.transcript.to_jsonl() == fresh.to_jsonl()


def test_unknown_nonce_is_dropped():
    known, stray = nonce_for(1), nonce_for(9)

    class _Blaster(Process):
        def register_wakes(self):
            self.net.wake(self.n, 0)

        def step(self, t, inbox):
            if t == 0:
                return [Send(1, tag_payload(enc_int(5), stray)),
                        Send(1, b"not even a tagged payload")]
            return []

    listener = MuxHost(1, {known: _Echo(1, 0)})
    net = Network([_Blaster(0), listener])
    net.run_until(2)
    assert listener.instances[known].heard == []


def test_mid_run_instance_wake():
    nonce = nonce_for(3)

    class _Counter(Process):
        def __init__(self, n):
            super().__init__(n)
            self.steps = []

        def step(self, t, inbox):
            self.steps.append(t)
            return []

    host = MuxHost(0, {nonce: _Counter(0)})
    net = Network([host])
    host.wake_instance(nonce, 2)
    net.run_until(4)
    assert host.instances[nonce].steps == [2]


class _Logged(Process):
    """Appends (step, name) to a shared log whenever it is stepped."""

    def __init__(self, n, name, log):
        super().__init__(n)
        self.name, self.log = name, log

    def step(self, t, inbox):
        self.log.append((t, self.name))
        return []


def test_only_instances_with_work_are_stepped_in_nonce_order():
    log = []
    names = (7, 2, 5, 0, 9, 4)
    nonces = {v: nonce_for(v) for v in names}

    class _Sender(Process):
        def register_wakes(self):
            self.net.wake(self.n, 1)

        def step(self, t, inbox):
            # deliveries land at step 2 for instances 9 and 0
            return [Send(1, tag_payload(b"x", nonces[v])) for v in (9, 0)]

    host = MuxHost(1, {nonces[v]: _Logged(1, v, log) for v in names})
    for v, step in ((5, 2), (5, 4), (7, 4)):
        host.wake_instance(nonces[v], step)  # before the network attaches
    net = Network([_Sender(0), host])
    host.wake_instance(nonces[4], 2)
    host.wake_instance(nonces[2], 3)
    host.wake_instance(nonces[5], 4)
    net.run_until(6)
    assert log == [(2, 0), (2, 4), (2, 5), (2, 9), (3, 2), (4, 5), (4, 7)]


def test_wake_for_an_unknown_nonce_steps_nothing():
    log = []
    host = MuxHost(0, {nonce_for(1): _Logged(0, 1, log)})
    net = Network([host])
    host.wake_instance(nonce_for(99), 2)
    net.run_until(4)
    assert log == []


def test_a_host_no_network_attaches_wakes_its_instances_from_the_static_map():
    """A host nested in another process, as the agreement host is in the
    Turpin-Coan poll, never gets ``register_wakes``; a wake recorded with
    no network attached still services the instance at the host's local
    step 0."""
    log = []
    nonce = nonce_for(1)
    nested = MuxHost(0, {nonce: _Logged(0, 1, log)})
    nested.wake_instance(nonce, 0)

    class _Parent(Process):
        def register_wakes(self):
            self.net.wake(self.n, 2)

        def step(self, t, inbox):
            return nested.step(t - 2, inbox)

    net = Network([_Parent(0)])
    net.run_until(4)
    assert nested.net is None
    assert log == [(0, 1)]
