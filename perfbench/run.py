"""Benchmark of the lockstep payment lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bank-cycle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process runs one workload, single-threaded.  It runs a fixed number of
episodes (a fresh set-up plus a fixed number of ops, see ``workloads.py``),
each on its own input seed drawn from ``--seed``.  ``--seconds`` sets how
many, from each workload's nominal episode time, so the work does not
depend on host speed; only a host far slower than nominal makes a run stop
early, after OVERRUN times ``--seconds``.  The run checks every op and the
byte identity of the outputs, then prints a context line and, as its last
line, the result as one JSON object.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs every episode untraced and then traced, and
reports the per-layer metrics of ``tracer.py``.  ``--workload all`` runs
each workload in its own process.

Host adjustment: a short fixed loop (the probe) runs before each set-up and
each op, outside the timed regions.  Each time is scaled by
PROBE_REF_NS / (ns per iteration its probe measured), so times read as on a
host where the loop costs PROBE_REF_NS per iteration.  On a shared host
this removes most of the drift in speed between runs; the unadjusted times
are printed on the context line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "slowdown_x": "x",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "msgs_per_op": "count",
    "sigs_per_op": "count",
    "wire_bytes_per_op": "bytes",
}

# Nanoseconds per probe iteration on the reference host (2 cores,
# Python 3.11).  Fixed for good: changing it rescales every time metric.
PROBE_REF_NS = 1900.0
# The probe before each op lasts about this share of a nominal op.
PROBE_SHARE = 0.03
# A run stops starting episodes after OVERRUN times --seconds.
OVERRUN = 1.2
_PROBE_CHUNKS = tuple(i.to_bytes(4, "big") + b"abcdefgh" for i in range(256))


def host_probe(iterations: int) -> float:
    """Seconds for a fixed loop of the work lockstep does most: joining
    byte chunks and hashing (int, bytes) keys into a set."""
    chunks = _PROBE_CHUNKS
    seen = set()
    start = time.perf_counter()
    for i in range(iterations):
        seen.add((i & 7, b"".join(chunks[:64 + (i & 127)])))
    return time.perf_counter() - start


def source_hash() -> str:
    """Hash of everything an episode's outputs depend on."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lockstep").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_episode(episode, setup_reps: int, probe_iterations: int) -> dict:
    """Set up ``setup_reps`` times (the last one is used) and run all ops,
    each preceded by one probe.  Each time comes with the host speed its
    probe measured."""
    def timed(step) -> tuple[tuple[float, float], object]:
        ns = 1e9 * host_probe(probe_iterations) / probe_iterations
        start = time.perf_counter()
        try:
            result = step()
        except Exception:  # a raising op counts as failed; the run goes on
            traceback.print_exc()
            result = False
        return (time.perf_counter() - start, PROBE_REF_NS / ns), result

    gc.collect()  # so no garbage of an earlier episode is collected in this one
    setups = [timed(episode.setup)[0] for _ in range(setup_reps)]
    times, failed = [], set()
    for i in range(episode.ops):
        pair, ok = timed(lambda: episode.op(i))
        times.append(pair)
        if not ok:
            failed.add(i)
    failed |= episode.finish()
    return {"setups": setups, "times": times, "failed": len(failed),
            "counts": episode.counts(), "digest": episode.digest()}


def op_phase(episodes: list[dict]) -> float:
    """Host-adjusted seconds of all ops."""
    return sum(t * f for e in episodes for t, f in e["times"])


def timings(episodes: list[dict], scaled: bool) -> dict[str, float]:
    """Time metrics over the pooled ops of all episodes."""
    def adjust(pairs):
        return [t * f if scaled else t for t, f in pairs]

    times = [adjust(e["times"]) for e in episodes]
    flat = [t for ep in times for t in ep]
    q = max(1, len(times[0]) // 4)
    return {
        "setup_s": statistics.median(
            t for e in episodes for t in adjust(e["setups"])),
        "ops_per_s": len(flat) / sum(flat),
        "op_p50_ms": 1e3 * statistics.median(flat),
        "slowdown_x": (sum(t for ep in times for t in ep[-q:])
                       / sum(t for ep in times for t in ep[:q])),
    }


def end_to_end(episodes: list[dict]) -> dict[str, float]:
    ops = sum(len(e["times"]) for e in episodes)
    msgs, sigs, wire = (sum(e["counts"][j] for e in episodes) for j in range(3))
    failed = sum(e["failed"] for e in episodes)
    return {
        **timings(episodes, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / ops,
        "msgs_per_op": msgs / ops,
        "sigs_per_op": sigs / ops,
        "wire_bytes_per_op": wire / ops,
    }


def stored_digests_agree(digests: dict[str, str]) -> bool:
    """Compare with, or record, the digests that earlier runs of the same
    source, workload and episode seed produced in this checkout."""
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    agree = all(known.get(key, digest) == digest
                for key, digest in digests.items())
    for key, digest in digests.items():
        known.setdefault(key, digest)
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=0, sort_keys=True))
    return agree


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}")
    _, ops, episode_s, _ = workloads.WORKLOADS[name]
    probe_iterations = round(PROBE_SHARE * episode_s / ops / (PROBE_REF_NS * 1e-9))
    # The work of a run is fixed by --seconds, not by host speed, so the
    # counts of a (seed, seconds) pair repeat exactly.  The first episode
    # runs once more up front, unmeasured, to warm up and to check that it
    # repeats.  A traced run repeats every episode traced, at up to 1.5
    # times the cost.
    budget = seconds / episode_s - 1
    count = max(2, round(budget / 2.5) if trace else round(budget))
    seeds = workloads.episode_seeds(seed, count)
    setup_reps = 1 if trace else workloads.make_episode(name, 0).setup_reps
    warmup = run_episode(workloads.make_episode(name, seeds[0]), 1,
                         probe_iterations)
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + OVERRUN * seconds
    last = 0.0
    for s in seeds:
        started = time.perf_counter()
        if len(plain) >= 2 and started + last > deadline:
            break  # a host far slower than the nominal one
        plain.append(run_episode(workloads.make_episode(name, s), setup_reps,
                                 probe_iterations))
        if trace:
            with tracer:
                traced.append(run_episode(workloads.make_episode(name, s), 1,
                                          probe_iterations))
        last = time.perf_counter() - started
    seeds = seeds[:len(plain)]
    # Byte identity: the repeated episodes and earlier runs in this checkout
    # must reproduce the same outputs.
    source = source_hash()
    identical = all(
        (a["digest"], a["counts"]) == (b["digest"], b["counts"])
        for a, b in [(warmup, plain[0])] + list(zip(traced, plain)))
    identical = stored_digests_agree({
        f"{name}|seed={s}|src={source}": p["digest"]
        for s, p in zip(seeds, plain)}) and identical
    runs = [warmup] + plain + traced
    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        values = tracer.metrics(len(traced))
        values["trace.overhead_x"] = op_phase(traced) / op_phase(plain)
        units = tracing.metric_units()
    else:
        values = end_to_end(plain)
        units = END_TO_END
    context = {"workload": name, "seed": seed, "trace": int(trace),
               "episodes": len(plain), "episodes_planned": count,
               "ops_per_episode": ops,
               "probe_iterations": probe_iterations,
               "host_speed": statistics.median(
                   f for r in runs for _, f in r["times"]),
               "unscaled": timings(plain, scaled=False),
               "digests_identical": identical,
               "python": platform.python_version()}
    print(json.dumps({"context": context}))
    correct = identical and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, then one table."""
    sys.path.insert(0, str(SRC))
    import workloads

    status, rows = 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
        if lines:
            rows[name] = json.loads(lines[-1])
    for name, result in rows.items():
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lockstep").is_dir():
        print(f"no lockstep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
