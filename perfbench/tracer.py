"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of ``lockstep`` while it
is installed.  A function is replaced on its defining module and on every
other ``lockstep`` module that bound it with ``from ... import``; a method
is replaced on its class, a classmethod stays a classmethod.  Everything is
restored on exit, in reverse order.

Each span counts its calls and its self time: its wall time minus the wall
time of the spans it called.  A few spans also observe their arguments or
results for the derived metrics (``records_mean``, ``miss_ratio`` and so
on).  Adversaries are built inside the attack entry points, so their
``act`` is wrapped per instance when a ``Network`` is built with one.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

MUX_STEP = "muxer.MuxHost.step"
ACT = "adversary.act"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    tally: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount


def _records(stat, args, result):
    stat.add("records", len(args[0]))


def _content(stat, args, result):
    stat.add("content_bytes", len(args[2]))


def _miss(stat, args, result):
    _content(stat, args, result)
    if result is False:
        stat.add("false")


def _false(stat, args, result):
    if result is False:
        stat.add("false")


def _empty_inbox(stat, args, result):
    if not args[2]:
        stat.add("empty")


def _observed(stat, args, result):
    stat.add("observed", len(args[1].observed))


# (module, attribute path, observer, workload that must call it)
SPANS = (
    ("cyclecoin", "record_content", None, "bank-cycle"),
    ("cyclecoin", "encode_records", _records, "bank-cycle"),
    ("cyclecoin", "decode_records", None, "bank-cycle"),
    ("cyclecoin", "parse_wire", None, "bank-cycle"),
    ("cyclecoin", "chain_signatures_ok", _records, "bank-cycle"),
    ("cyclecoin", "assemble", None, "bank-cycle"),
    ("cyclecoin", "CCProcess.step", None, "bank-cycle"),
    ("cyclecoin", "PoRProcess.step", None, "claims-gallery"),
    ("simnet", "SignatureOracle.sign", _content, "bank-cycle"),
    ("simnet", "SignatureOracle.verify", _miss, "bank-cycle"),
    ("marker", "QMProcess.step", None, "bank-quorum"),
    ("marker", "decode_proof", None, "bank-quorum"),
    ("marker", "parse_typed", None, "bank-quorum"),
    ("simnet", "SignedMessage.from_bytes", None, "bank-quorum"),
    ("simnet", "SignedMessage.to_bytes", None, "bank-quorum"),
    ("simnet", "SignedMessage.verify_stack", _false, "bank-quorum"),
    ("simnet", "Network.run_until", None, "bank-quorum"),
    ("simnet", "split_payload", None, "bank-quorum"),
    ("simnet", "tag_payload", None, "bank-quorum"),
    ("muxer", "MuxHost.step", _empty_inbox, "bank-quorum"),
    ("payments", "Bank.run_round", None, "bank-quorum"),
    ("payments", "Bank.balances", None, "bank-quorum"),
    ("payments", "Bank.audit", None, "bank-quorum"),
    ("hopnet", "HopNetwork.macro_payment", None, "hop-macro"),
    ("hopnet", "HopNetwork.graph", None, "hop-macro"),
    ("hopnet", "shortest_hop_path", None, "hop-macro"),
    ("hopnet", "graph_diameter", None, "hop-macro"),
    ("consensus", "DSProcess.step", None, "claims-gallery"),
)

# Spans of protocol steps that a MuxHost may service as sub-instances.
PROTOCOL_STEPS = frozenset({"cyclecoin.CCProcess.step",
                            "cyclecoin.PoRProcess.step",
                            "marker.QMProcess.step",
                            "consensus.DSProcess.step"})

# The metric suffixes reported under each span name, or under a layer
# prefix for metrics taken across spans, in the order BENCHMARK.json lists
# them.  UNITS gives each suffix its unit.
REPORTS = {
    "cyclecoin.record_content": ("calls", "self_s"),
    "cyclecoin.encode_records": ("calls", "self_s", "records_mean"),
    "cyclecoin.decode_records": ("calls", "self_s"),
    "cyclecoin.parse_wire": ("calls", "self_s"),
    "cyclecoin.chain_signatures_ok": ("calls", "self_s", "records_mean"),
    "cyclecoin.assemble": ("calls", "self_s"),
    "cyclecoin.CCProcess.step": ("calls", "self_s"),
    "cyclecoin.PoRProcess.step": ("calls", "self_s"),
    "simnet.SignatureOracle.sign": ("calls", "self_s"),
    "simnet.SignatureOracle.verify": ("calls", "self_s", "miss_ratio"),
    "simnet.SignatureOracle": ("content_bytes_mean",),
    "marker.QMProcess.step": ("calls", "self_s"),
    "marker.decode_proof": ("calls", "self_s"),
    "marker.parse_typed": ("calls", "self_s"),
    "simnet.SignedMessage.from_bytes": ("calls", "self_s"),
    "simnet.SignedMessage.to_bytes": ("calls", "self_s"),
    "simnet.SignedMessage.verify_stack": ("calls", "self_s", "fail_ratio"),
    "simnet.Network.run_until": ("calls", "self_s"),
    "simnet.Network": ("sends", "transcript_bytes"),
    "simnet.split_payload": ("calls", "self_s"),
    "simnet.tag_payload": ("calls", "self_s"),
    "muxer.MuxHost.step": ("calls", "self_s", "empty_ratio"),
    "muxer": ("instances_per_step",),
    "payments.Bank.run_round": ("calls", "self_s"),
    "payments.Bank.balances": ("calls", "self_s"),
    "payments.Bank.audit": ("self_s",),
    "hopnet.HopNetwork.macro_payment": ("self_s",),
    "hopnet.HopNetwork.graph": ("calls", "self_s"),
    "hopnet.shortest_hop_path": ("calls", "self_s"),
    "hopnet.graph_diameter": ("self_s",),
    "adversary.act": ("calls", "self_s", "observed_mean"),
    "consensus.DSProcess.step": ("calls", "self_s"),
}

UNITS = {"calls": "count", "self_s": "s", "records_mean": "records",
         "miss_ratio": "ratio", "fail_ratio": "ratio", "empty_ratio": "ratio",
         "content_bytes_mean": "bytes", "sends": "count",
         "transcript_bytes": "bytes", "instances_per_step": "count",
         "observed_mean": "count"}


def span_workloads() -> dict[str, str]:
    """Span name -> the workload on which it must record calls."""
    mapping = {f"{mod}.{path}": workload for mod, path, _, workload in SPANS}
    mapping[ACT] = "claims-gallery"
    return mapping


def metric_units() -> dict[str, str]:
    """Every per-layer metric name of a traced run -> its unit."""
    units = {f"{prefix}.{suffix}": UNITS[suffix]
             for prefix, suffixes in REPORTS.items() for suffix in suffixes}
    units["trace.overhead_x"] = "x"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.stats``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.sends = 0
        self.transcript_bytes = 0

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        mux = self.stats.setdefault(MUX_STEP, Stat())
        nested = name in PROTOCOL_STEPS

        def traced(*args, **kwargs):
            if nested and stack and stack[-1][0] == MUX_STEP:
                mux.add("instances")
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, name: str, observe) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "lockstep":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, observe) -> None:
        descriptor = cls.__dict__[attr]
        if isinstance(descriptor, classmethod):
            self._set(cls, attr,
                      classmethod(self.wrap(name, descriptor.__func__, observe)))
        else:
            self._set(cls, attr, self.wrap(name, descriptor, observe))

    def _patch_network(self, simnet) -> None:
        network = simnet.Network
        run_until = network.__dict__["run_until"]
        init = network.__dict__["__init__"]
        traced_run = self.wrap("simnet.Network.run_until", run_until)
        tracer = self

        def run_until_counted(net, last_step):
            events = net.transcript.events
            before = len(events)
            traced_run(net, last_step)
            tracer.sends += len(events) - before
            tracer.transcript_bytes += sum(len(e.payload)
                                           for e in events[before:])

        def init_with_act(net, *args, **kwargs):
            init(net, *args, **kwargs)
            adv = net.adversary
            act = getattr(type(adv), "act", None)
            if (adv is not None and "act" not in vars(adv)
                    and getattr(act, "__module__", "") == "lockstep.adversary"):
                adv.act = tracer.wrap(ACT, adv.act, _observed)

        self._set(network, "run_until", run_until_counted)
        self._set(network, "__init__", init_with_act)

    def __enter__(self) -> "Tracer":
        try:
            simnet = importlib.import_module("lockstep.simnet")
            self._patch_network(simnet)
            for mod_name, path, observe, _ in SPANS:
                if path == "Network.run_until":
                    continue
                module = importlib.import_module(f"lockstep.{mod_name}")
                name = f"{mod_name}.{path}"
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    self._patch_method(getattr(module, owner_name), attr,
                                       name, observe)
                else:
                    self._patch_function(module, attr, name, observe)
            self.stats.setdefault(ACT, Stat())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report ---------------------------------------------------------------

    def metrics(self, episodes: int) -> dict[str, float]:
        """Per-layer metrics, counts and times per traced episode."""
        s = self.stats
        sign, verify = s["simnet.SignatureOracle.sign"], s["simnet.SignatureOracle.verify"]
        mux = s[MUX_STEP]
        derived = {
            "records_mean": lambda st: _ratio(st.tally.get("records", 0), st.calls),
            "miss_ratio": lambda st: _ratio(st.tally.get("false", 0), st.calls),
            "fail_ratio": lambda st: _ratio(st.tally.get("false", 0), st.calls),
            "empty_ratio": lambda st: _ratio(st.tally.get("empty", 0), st.calls),
            "observed_mean": lambda st: _ratio(st.tally.get("observed", 0), st.calls),
        }
        special = {
            "simnet.SignatureOracle.content_bytes_mean": _ratio(
                sign.tally.get("content_bytes", 0) + verify.tally.get("content_bytes", 0),
                sign.calls + verify.calls),
            "simnet.Network.sends": self.sends / episodes,
            "simnet.Network.transcript_bytes": self.transcript_bytes / episodes,
            "muxer.instances_per_step": _ratio(mux.tally.get("instances", 0), mux.calls),
        }
        out = {}
        for prefix, suffixes in REPORTS.items():
            for suffix in suffixes:
                key = f"{prefix}.{suffix}"
                if key in special:
                    out[key] = special[key]
                elif suffix == "calls":
                    out[key] = s[prefix].calls / episodes
                elif suffix == "self_s":
                    out[key] = s[prefix].self_s / episodes
                else:
                    out[key] = derived[suffix](s[prefix])
        return out
