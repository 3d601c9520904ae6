"""Acceptance gate: twelve numbered criteria, one verdict line each.

Every test prints ``criterion NN PASS/FAIL`` with its measured numbers
and then asserts, so a plain ``pytest -v`` run shows one line per
criterion and ``-s`` adds the measurements.
"""

import time
from random import Random

import numpy as np
from scipy.optimize import curve_fit

from lockstep.adversary import (
    bank_gallery,
    cycle_gallery,
    dispute_coverage,
    enumerate_ds_cases,
    exhaustive_cycle_cases,
    random_cycle_attack,
    random_ds_case,
    run_ds_case,
)
from lockstep.cancel import (
    PairingInstance,
    pair_bruteforce,
    pair_greedy,
    random_instance,
    sweep_cell,
)
from lockstep.cli import DEFAULTS, execute
from lockstep.consensus import (
    bb_from_ba_steps,
    ds_message_bound,
    ds_signature_floor,
    majority_ba_steps,
    run_bb_from_ba,
    run_dolev_strong,
    run_majority_ba,
    run_turpin_coan,
    turpin_coan_steps,
)
from lockstep.cyclecoin import (
    CCProcess,
    PoRProcess,
    cycle_distance,
    cycle_payment_messages,
)
from lockstep.hopnet import hop_experiment
from lockstep.marker import MarkerSystem, QMProcess, measure_z
from lockstep.payments import Bank
from lockstep.simnet import seeded_rng


def _verdict(number, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {word}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def test_criterion_01_broadcast_safety_under_attack():
    t0 = time.perf_counter()
    bad = []
    cases = 0
    for f in (1, 2):
        for case in enumerate_ds_cases(4, f):
            cases += 1
            result = run_ds_case(case)
            if result.violations:
                bad.append(result)
    for seed in range(10_000):
        result = random_ds_case(seed, N=6, f=2)
        if result.violations:
            bad.append(result)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    _verdict(1, ok, f"{cases} exhaustive + 10000 random adversaries, "
                    f"{len(bad)} violations, {elapsed:.1f}s")


def test_criterion_02_broadcast_message_and_signature_counts():
    worst = 0.0
    cells = 0
    ok = True
    for N in range(3, 13):
        for f in range(1, 4):
            if f + 2 > N:
                continue
            cells += 1
            run = run_dolev_strong(N, f, 1)
            msgs = run.net.metrics.messages()
            sigs = run.net.metrics.signatures()
            ok = ok and msgs <= ds_message_bound(N, f)
            ok = ok and sigs >= ds_signature_floor(N, f)
            worst = max(worst, msgs / ds_message_bound(N, f))
    _verdict(2, ok, f"{cells} all-honest cells, worst bound use "
                    f"{worst:.2f}, floor always met")


def test_criterion_03_reduction_overheads():
    ok = True
    detail = []
    for N, f in ((4, 1), (7, 2), (10, 3)):
        ba = run_majority_ba(N, f, {n: 1 for n in range(N)})
        base = ba.net.metrics.messages()
        ok = ok and turpin_coan_steps(f) - majority_ba_steps(f) == 2
        extremes = []
        for values in ({n: 0 for n in range(N)},
                       {n: n % 3 for n in range(N)}):
            tc = run_turpin_coan(N, f, values)
            extra = tc.net.metrics.messages() - base
            extremes.append(extra)
            ok = ok and extra <= 2 * N * N
        tc_base = run_turpin_coan(N, f, {n: 1 for n in range(N)})
        bb = run_bb_from_ba(N, f, 1)
        leader_extra = (bb.net.metrics.messages()
                        - tc_base.net.metrics.messages())
        ok = ok and bb_from_ba_steps(f) - turpin_coan_steps(f) == 1
        ok = ok and leader_extra <= N
        detail.append(f"N={N}: poll +{max(extremes)}<=2N^2, "
                      f"leader +{leader_extra}<=N")
    _verdict(3, ok, "; ".join(detail))


# Honest payload bytes of a handoff at N=7, f=2 whose intents carry a
# proof of 2f+1 = 5 receipts: 7 intents of 70 + 63 + 1 = 134 bytes, each
# with the certificate of one receipt message of 63 bytes and a 1-byte
# mask of its 5 signers, and 7 receipts of 79, each a message that names
# the claimed round and a 16-byte countersignature: 1,491 (2,016 while
# the certificate named its 5 signers by 12-byte ids, 3,528 while a
# proof carried its 5 receipts whole and a receipt left out the claimed
# round, 10,402 while every entry carried a copy of the bytes it signed).
ROUND_1_PAYLOAD_BYTES = 7 * (70 + 63 + 1) + 7 * 79


def test_criterion_04_quorum_marker_exact_counts():
    ok = True
    for N in range(4, 11):
        for f in range(1, 4):
            if 3 * f >= N:
                continue
            costs = measure_z(QMProcess, N, f)
            ok = ok and costs == [2 * (3 * f + 1)] * N
            ok = ok and sum(costs) == N * (6 * f + 2)
    system = MarkerSystem(QMProcess, 7, 2)
    system.run_round({0: 3})
    ok = ok and system.net.now == 3
    # round 1's intents carry the proof of round 0's handoff: exactly 2f+1
    first = len(system.net.transcript.events)
    proof = len(system.procs[3].proof[0])
    system.run_round({3: 5})
    events = system.net.transcript.events[first:]
    payload = sum(len(e.payload) for e in events
                  if e.sender not in system.corrupted)
    ok = ok and proof == len(system.procs[5].proof[0]) == 5
    ok = ok and len(events) == 14 and payload == ROUND_1_PAYLOAD_BYTES
    _verdict(4, ok, "per-handoff 2(3f+1), totals N(6f+2) on the full "
                    "grid, rounds take 3 steps, a proof carries 2f+1 "
                    f"receipts, a handoff showing one sends {len(events)} "
                    f"messages of {payload} payload bytes")


def test_criterion_05_cycle_coin_locality():
    ok = True
    for N in range(4, 11):
        costs = measure_z(CCProcess, N)
        expected = [cycle_payment_messages(cycle_distance(0, t, N))
                    for t in range(N)]
        ok = ok and costs == expected
        ok = ok and costs[0] == 0
    N = 10
    system = MarkerSystem(CCProcess, N)
    for payer in range(N - 2):
        system.run_round({payer: payer + 1})
    heard = [e for e in system.net.transcript.events
             if e.recipient == N - 1]
    ok = ok and heard == []
    _verdict(5, ok, "cost 2(d-1)+1 at every distance, self-pay 0, last "
                    "process silent through the sequential scenario")


def test_criterion_06_cycle_coin_safety_under_attack():
    t0 = time.perf_counter()
    results = cycle_gallery(8) + exhaustive_cycle_cases(4)
    results += [random_cycle_attack(seed, N=8) for seed in range(10_000)]
    bad = [r for r in results if not r.ok]
    plain = MarkerSystem(CCProcess, 7)
    plain.run_round({0: 4})
    backed = MarkerSystem(PoRProcess, 7, 2)
    backed.run_round({0: 4})
    free = backed.net.metrics.messages() == plain.net.metrics.messages()
    elapsed = time.perf_counter() - t0
    _verdict(6, not bad and free,
             f"{len(results)} attacks, {len(bad)} unexpected outcomes, "
             f"response enforcement adds 0 messages, {elapsed:.1f}s")


def test_criterion_07_payment_system_conditions():
    ok = True
    for family in ("quorum", "cycle"):
        bank = Bank(6, 1, [1, 1, 1, 0, 0, 0], family=family)
        rng = seeded_rng(2, 5)
        for _ in range(5):
            plan = {payer: int(rng.integers(6))
                    for payer, balance in bank.balances().items()
                    if balance > 0}
            bank.run_round(plan)
        ok = ok and bank.audit() == []
        ok = ok and all(sum(r.balances_after.values()) == bank.supply
                        for r in bank.history)
    gallery = (bank_gallery("quorum", 6, 1, 3, 5, seed=4)
               + bank_gallery("cycle", 6, 2, 3, 5, seed=4))
    bad = [r for r in gallery if not r.ok]
    _verdict(7, ok and not bad,
             f"honest books audit clean with exact supply, "
             f"{len(gallery)} gallery cases, {len(bad)} unexpected")


def test_criterion_08_cycle_cost_growth():
    sizes = list(range(6, 25, 2))
    totals = [sum(measure_z(CCProcess, N)) for N in sizes]
    floor_ok = all(total >= 0.2 * N * (N - 2)
                   for N, total in zip(sizes, totals))
    (_, exponent), _ = curve_fit(lambda x, a, b: a * np.power(x, b),
                                 np.array(sizes, dtype=float),
                                 np.array(totals, dtype=float),
                                 p0=(1.0, 2.0))
    fit_ok = abs(exponent - 2.0) <= 0.15
    _verdict(8, floor_ok and fit_ok,
             f"totals clear 0.2*N*f at f=N-2, fit exponent "
             f"{exponent:.3f} within 2.0+-0.15")


def test_criterion_09_hop_network_scaling():
    t0 = time.perf_counter()
    sizes = (256, 512, 1024, 2048)
    peaks = []
    doubling_bad = 0
    for N in sizes:
        peak = 0
        for seed in range(5):
            samples = hop_experiment(N, 2, seed, 500)
            peak = max(peak, max(s.messages for s in samples))
            doubling_bad += sum(1 for s in samples
                                if s.distance > 2 * s.undirected + s.hops)
        peaks.append(peak)
    xs = np.array(sizes, dtype=float)
    ys = np.array(peaks, dtype=float)
    (a, b), _ = curve_fit(lambda x, a, b: a + b * np.log2(x), xs, ys)
    residual = float(np.max(np.abs(a + b * np.log2(xs) - ys) / ys))
    elapsed = time.perf_counter() - t0
    ok = residual < 0.15 and doubling_bad == 0 and elapsed < 300
    _verdict(9, ok, f"peaks {peaks}, log fit residual {residual:.3f} "
                    f"< 0.15, doubling bound holds on 10000 pairs, "
                    f"{elapsed:.1f}s")


def test_criterion_10_dispute_walkback_correctness():
    results = dispute_coverage(32, max_legs=5)
    bad = [r for r in results if not r.ok]
    _verdict(10, not bad and len(results) >= 5,
             f"{len(results)} planted cheats over route lengths 1..5, "
             f"{len(bad)} wrong accusations")


def test_criterion_11_greedy_cancellation_optimality():
    t0 = time.perf_counter()
    mismatches = 0
    instances = 0
    for N in range(4, 13):
        for q in range(2, min(N, 6) + 1):
            greedy, optimal = sweep_cell(N, q)
            instances += greedy.size
            mismatches += int(np.count_nonzero(greedy != optimal))
    for seed in range(10_000):
        rng = Random(seed)
        q = 2 + seed % 7  # 2..8
        inst = random_instance(12, q, rng, repeat_sinks=True)
        if pair_greedy(inst).total_cost != pair_bruteforce(inst).total_cost:
            mismatches += 1
        instances += 1
    fixture = PairingInstance(11, (0, 6), (7, 1))
    fixture_ok = pair_greedy(fixture).total_cost == 2
    elapsed = time.perf_counter() - t0
    _verdict(11, mismatches == 0 and fixture_ok,
             f"{instances} instances, {mismatches} cost mismatches, "
             f"two-pair fixture costs 2, {elapsed:.1f}s")


def test_criterion_12_byte_identical_reruns():
    configs = []
    for protocol in ("broadcast", "quorum", "cycle", "bank-quorum",
                     "bank-cycle"):
        configs.append(dict(DEFAULTS, command="run", protocol=protocol,
                            n=7, f=2, rounds=3, seed=17))
    configs.append(dict(DEFAULTS, command="sweep", protocol="broadcast",
                        n=8))
    configs.append(dict(DEFAULTS, command="gen-topology",
                        protocol="random", n=10, seed=5))
    configs.append(dict(DEFAULTS, command="attack", protocol="quorum",
                        seed=3))
    drift = []
    for cfg in configs:
        first, _ = execute(cfg)
        second, _ = execute(cfg)
        if first != second:
            drift.append(cfg["command"] + "/" + cfg["protocol"])
    detail = (f"{len(configs)} command configurations re-executed, "
              f"all byte-identical" if not drift else f"drift in {drift}")
    _verdict(12, not drift, detail)
