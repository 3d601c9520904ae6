"""Command line front end.

Five subcommands: ``run`` executes one protocol and writes its transcript,
``sweep`` walks a parameter grid, ``verify`` recomputes a previous output
directory and compares bytes, ``gen-topology`` emits cycle layouts, and
``attack`` runs the adversary gallery.  Every command writes the same
trio into the output directory: ``transcript.jsonl`` with one record per
event, ``metrics.csv``, and ``summary.json`` carrying the effective
configuration, a build identifier, and the violation list.  All
randomness flows from the configured seed through the package generator,
and worker count never changes the output bytes, so ``verify`` can
reproduce any directory from its summary alone.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import sys
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from lockstep.adversary import (
    _audited_rounds,
    _ds_audit,
    bank_gallery,
    cheating_intermediary_cases,
    cycle_gallery,
    exhaustive_cycle_cases,
    gallery_to_csv,
    quorum_gallery,
    random_cycle_attack,
    random_ds_case,
    split_double_spend,
    AttackResult,
)
from lockstep.cancel import sweep_cell
from lockstep.consensus import (
    ds_all_honest_messages,
    ds_message_bound,
    ds_signature_floor,
    run_dolev_strong,
)
from lockstep.hopnet import (
    format_cycles,
    gen_binary_search_pair,
    gen_random_cycles,
    graph_diameter,
    hop_experiment,
    unspent_graph,
)
from lockstep.marker import MarkerSystem, measure_z
from lockstep.payments import FAMILIES, Bank, deal
from lockstep.simnet import ConfigFault, seeded_rng

DEFAULTS = {
    "protocol": "quorum",
    "n": 6,
    "f": 1,
    "rounds": 5,
    "seed": 0,
    "workers": 1,
    "out": "out",
    "units": 3,
    "pairs": 200,
    "cycles": 2,
    "samples": 100,
}

_INT_KEYS = frozenset(key for key, value in DEFAULTS.items()
                      if isinstance(value, int))


def build_id() -> str:
    """Digest of the package sources, so a summary names the code that
    produced it."""
    digest = hashlib.sha256()
    root = Path(__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def checked(settings: dict, source: str) -> dict:
    """``settings``, if each key is a key of ``DEFAULTS`` and each integer
    setting is a non-negative integer.  Flags, config files and a
    summary's ``config`` all pass through here."""
    for key, value in settings.items():
        if key not in DEFAULTS:
            raise ConfigFault(f"{source}: unknown key {key!r}")
        if key in _INT_KEYS and (type(value) is not int or value < 0):
            raise ConfigFault(f"{source}: {key!r} needs a non-negative "
                              f"integer, got {value!r}")
    return settings


def load_config(path: str | None) -> dict:
    """Read a flat key = value file: no section headers, no unknown keys."""
    if path is None:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text(encoding="utf-8")
        if any(line.lstrip().startswith("[") for line in text.splitlines()):
            raise ConfigFault(f"config {path}: section headers are not allowed")
        parser.read_string("[cli]\n" + text)
        # a value that is not all digits stays text, for checked() to refuse
        settings = {key: int(raw) if key in _INT_KEYS and raw.isdecimal()
                    else raw for key, raw in parser["cli"].items()}
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigFault(f"cannot read config {path}: {exc}") from exc
    return checked(settings, f"config {path}")


_PROTOCOL_DEFAULTS = {"attack": "all", "gen-topology": "random"}


def effective_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags."""
    cfg = dict(DEFAULTS)
    cfg["protocol"] = _PROTOCOL_DEFAULTS.get(args.command, cfg["protocol"])
    cfg.update(load_config(args.config))
    cfg.update(checked({key: value for key, value in vars(args).items()
                        if key in DEFAULTS and value is not None}, "flags"))
    cfg["command"] = args.command
    return cfg


# ---------------------------------------------------------------------------
# run


def _lookup(command: str, table: dict, name):
    """``table[name]``, or a usage error that lists the names ``command``
    knows."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ConfigFault(
            f"{command} knows {sorted(table)}, not {name!r}") from None


def _jsonl(records: list[dict]) -> str:
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


def _net_outputs(net, numbers: dict, violations: list,
                 extra: dict | None = None):
    """Output files of a run on ``net``; its message and signature counts
    close ``numbers``."""
    numbers["messages"] = net.metrics.messages()
    numbers["signatures"] = net.metrics.signatures()
    files = {"transcript.jsonl": net.transcript.to_jsonl(),
             "metrics.csv": net.metrics.to_csv(), **(extra or {})}
    return files, numbers, violations


def _run_broadcast(cfg: dict):
    value = int(seeded_rng(cfg["seed"], 1).integers(2))
    run = run_dolev_strong(cfg["n"], cfg["f"], value)
    violations = _ds_audit(run, value)
    numbers = {
        "leader_value": value,
        "decisions": {str(n): v for n, v in sorted(run.decisions.items())},
    }
    return _net_outputs(run.net, numbers, violations)


def _run_marker(cfg: dict):
    N, f, seed = cfg["n"], cfg["f"], cfg["seed"]
    system = MarkerSystem(FAMILIES[cfg["protocol"]], N, f)
    rng = seeded_rng(seed, 2)
    # the draws do not depend on outcomes, so every round's plan comes first
    holders = [0] + [int(rng.integers(N)) for _ in range(cfg["rounds"])]
    violations = _audited_rounds(system, [{holder: target} for holder, target
                                          in zip(holders, holders[1:])])
    return _net_outputs(system.net, {"final_holder": holders[-1]}, violations)


def _run_bank(cfg: dict):
    N, f, seed = cfg["n"], cfg["f"], cfg["seed"]
    family = cfg["protocol"].split("-", 1)[1]
    FAMILIES[family].check(N, f)  # before dealing the units over N
    bank = Bank(N, f, deal(N, cfg["units"]), family=family)
    rng = seeded_rng(seed, 3)
    for _ in range(cfg["rounds"]):
        plan = {}
        for payer, balance in bank.balances().items():
            if balance > 0 and rng.random() < 0.6:
                plan[payer] = int(rng.integers(N))
        bank.run_round(plan)
    violations = bank.audit()
    numbers = {
        "supply": bank.supply,
        "balances": {str(n): v for n, v in sorted(bank.balances().items())},
    }
    return _net_outputs(bank.net, numbers, violations,
                        {"ledger.csv": bank.to_csv()})


RUN_PROTOCOLS = {
    "broadcast": _run_broadcast,
    "quorum": _run_marker,
    "cycle": _run_marker,
    "bank-quorum": _run_bank,
    "bank-cycle": _run_bank,
}


def execute_run(cfg: dict):
    return _lookup("run", RUN_PROTOCOLS, cfg["protocol"])(cfg)


# ---------------------------------------------------------------------------
# sweep


def _broadcast_cell(args: tuple) -> dict:
    N, f = args
    run = run_dolev_strong(N, f, 1)
    msgs = run.net.metrics.messages()
    sigs = run.net.metrics.signatures()
    cell = {
        "N": N, "f": f, "messages": msgs,
        "expected": ds_all_honest_messages(N, f),
        "bound": ds_message_bound(N, f),
        "signatures": sigs,
        "floor": ds_signature_floor(N, f),
    }
    problems = []
    if msgs != cell["expected"]:
        problems.append(f"N={N} f={f}: measured {msgs}, "
                        f"expected {cell['expected']}")
    if msgs > cell["bound"]:
        problems.append(f"N={N} f={f}: {msgs} above bound {cell['bound']}")
    if sigs < cell["floor"]:
        problems.append(f"N={N} f={f}: {sigs} signatures under the floor")
    cell["problems"] = problems
    return cell


def _quorum_cell(args: tuple) -> dict:
    N, f = args
    total = sum(measure_z(FAMILIES["quorum"], N, f))
    expected = N * (6 * f + 2)
    cell = {"N": N, "f": f, "total": total, "expected": expected}
    cell["problems"] = ([] if total == expected else
                        [f"N={N} f={f}: total {total} != {expected}"])
    return cell


def _cycle_cell(N: int) -> dict:
    total = sum(measure_z(FAMILIES["cycle"], N))
    return {"N": N, "total": total, "problems": []}


def _hopnet_cell(args: tuple) -> dict:
    N, K, seed, pairs = args
    samples = hop_experiment(N, K, seed, pairs)
    max_d = max(s.distance for s in samples)
    max_m = max(s.messages for s in samples)
    return {
        "N": N, "K": K, "pairs": pairs,
        "max_D": max_d, "max_messages": max_m,
        "mean_messages": round(sum(s.messages for s in samples) / len(samples), 3),
        "problems": [],
    }


def _cancel_cell(args: tuple) -> dict:
    N, q = args
    greedy, optimal = sweep_cell(N, q)
    mismatches = int(np.count_nonzero(greedy != optimal))
    cell = {
        "N": N, "q": q, "instances": int(greedy.size),
        "mismatches": mismatches,
        "greedy_total": int(greedy.sum()),
        "optimal_total": int(optimal.sum()),
    }
    cell["problems"] = ([] if mismatches == 0 else
                        [f"N={N} q={q}: {mismatches} greedy shortfalls"])
    return cell


def _map_cells(worker, cells: list, workers: int) -> list[dict]:
    if workers > 1 and len(cells) > 1:
        with Pool(workers) as pool:
            return pool.map(worker, cells)
    return [worker(c) for c in cells]


def _power_law(x, a, b):
    return a * np.power(x, b)


def _affine_log(x, a, b):
    return a * np.log2(x) + b


def _sweep_broadcast(cfg: dict):
    cells = [(N, f) for N in range(4, cfg["n"] + 1)
             for f in range(1, 4) if f <= N - 2]
    header = ["N", "f", "messages", "expected", "bound", "signatures", "floor"]
    return _map_cells(_broadcast_cell, cells, cfg["workers"]), header, {}


def _sweep_quorum(cfg: dict):
    cells = [(N, f) for N in range(4, cfg["n"] + 1)
             for f in range(1, 4) if 3 * f + 1 <= N]
    header = ["N", "f", "total", "expected"]
    return _map_cells(_quorum_cell, cells, cfg["workers"]), header, {}


def _sweep_cycle(cfg: dict):
    # scipy.optimize is a slow import that only the two fitting sweeps need
    from scipy.optimize import curve_fit
    cells = list(range(6, cfg["n"] + 1, 2))
    if len(cells) < 2:
        raise ConfigFault(f"sweep cycle fits two parameters, so it needs "
                          f"n >= 8, got {cfg['n']}")
    rows = _map_cells(_cycle_cell, cells, cfg["workers"])
    xs = np.array([r["N"] for r in rows], dtype=float)
    ys = np.array([r["total"] for r in rows], dtype=float)
    (a, b), _ = curve_fit(_power_law, xs, ys, p0=(1.0, 2.0))
    numbers = {"fit_scale": round(float(a), 6),
               "fit_exponent": round(float(b), 6)}
    return rows, ["N", "total"], numbers


def _sweep_hopnet(cfg: dict):
    from scipy.optimize import curve_fit
    sizes = []
    N = 8
    while N <= cfg["n"]:
        sizes.append(N)
        N *= 2
    cells = [(N, cfg["cycles"], cfg["seed"], cfg["pairs"]) for N in sizes]
    rows = _map_cells(_hopnet_cell, cells, cfg["workers"])
    header = ["N", "K", "pairs", "max_D", "max_messages", "mean_messages"]
    numbers = {}
    if len(rows) >= 3:
        xs = np.array([r["N"] for r in rows], dtype=float)
        ys = np.array([r["max_messages"] for r in rows], dtype=float)
        (a, b), _ = curve_fit(_affine_log, xs, ys)
        fitted = _affine_log(xs, a, b)
        residual = float(np.max(np.abs(fitted - ys) / ys))
        numbers = {"fit_slope": round(float(a), 6),
                   "fit_intercept": round(float(b), 6),
                   "max_relative_residual": round(residual, 6)}
    return rows, header, numbers


def _sweep_cancel(cfg: dict):
    limit = min(cfg["n"], 12)
    cells = [(N, q) for N in range(4, limit + 1)
             for q in range(2, min(N, 6) + 1)]
    rows = _map_cells(_cancel_cell, cells, cfg["workers"])
    header = ["N", "q", "instances", "mismatches",
              "greedy_total", "optimal_total"]
    numbers = {"instances": sum(r["instances"] for r in rows),
               "mismatches": sum(r["mismatches"] for r in rows)}
    return rows, header, numbers


# each sweep maps the config to its rows, CSV header and fitted numbers;
# the cell workers above stay module level so that Pool.map can pickle them
SWEEPS = {
    "broadcast": _sweep_broadcast,
    "quorum": _sweep_quorum,
    "cycle": _sweep_cycle,
    "hopnet": _sweep_hopnet,
    "cancel": _sweep_cancel,
}


def execute_sweep(cfg: dict):
    rows, header, numbers = _lookup("sweep", SWEEPS, cfg["protocol"])(cfg)
    if not rows:
        raise ConfigFault(f"sweep {cfg['protocol']} has no cell at "
                          f"n = {cfg['n']}")
    violations = [p for r in rows for p in r["problems"]]
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for r in rows:
        out.write(",".join(str(r[h]) for h in header) + "\n")
    files = {
        "transcript.jsonl": _jsonl(rows),
        "metrics.csv": out.getvalue(),
    }
    return files, numbers, violations


# ---------------------------------------------------------------------------
# topology generation


# layout name -> config -> cycle set; "binary-search" is accepted as an
# alias of "binary" but not listed in the error message
TOPOLOGIES = {
    "binary": lambda cfg: gen_binary_search_pair(cfg["n"]),
    "random": lambda cfg: gen_random_cycles(cfg["n"], cfg["cycles"],
                                            cfg["seed"]),
}


def execute_gen_topology(cfg: dict):
    N = cfg["n"]
    name = "binary" if cfg["protocol"] == "binary-search" else cfg["protocol"]
    cycleset = _lookup("gen-topology", TOPOLOGIES, name)(cfg)
    diameter = graph_diameter(unspent_graph(cycleset))
    records = [{"cycle": k, "order": list(cycle)}
               for k, cycle in enumerate(cycleset.cycles)]
    numbers = {"N": N, "cycles": len(cycleset.cycles), "diameter": diameter}
    files = {
        "transcript.jsonl": _jsonl(records),
        "metrics.csv": "N,cycles,diameter\n"
                       f"{N},{len(cycleset.cycles)},{diameter}\n",
        "cycles.txt": format_cycles(cycleset),
    }
    return files, numbers, []


# ---------------------------------------------------------------------------
# attack


def _seeded(case, seed: int, samples: int) -> list[AttackResult]:
    base = seed * 1_000_003
    return [case(base + i) for i in range(samples)]


# gallery name -> (seed, samples) -> results; "all" runs the others in
# this order
ATTACKS = {
    "broadcast": lambda seed, samples: _seeded(random_ds_case, seed, samples),
    "quorum": lambda seed, samples: quorum_gallery(),
    "cycle": lambda seed, samples: (
        cycle_gallery() + exhaustive_cycle_cases()
        + _seeded(random_cycle_attack, seed, samples)),
    "bank": lambda seed, samples: (bank_gallery("quorum", 6, 1, 3, 5, seed)
                                   + bank_gallery("cycle", 6, 2, 3, 5, seed)),
    "hopnet": lambda seed, samples: cheating_intermediary_cases(8, 2, seed),
    "strawman": lambda seed, samples: [
        split_double_spend("strawman", 6, 3, 0, 2, 4).result(
            "strawman-split", expect_violation=True,
            details="the no-protection handoff must fall to the split")],
    "all": lambda seed, samples: [
        result for name, gallery in ATTACKS.items() if name != "all"
        for result in gallery(seed, samples)],
}


def execute_attack(cfg: dict):
    results = _lookup("attack", ATTACKS, cfg["protocol"])(cfg["seed"],
                                                           cfg["samples"])
    unexpected = [r for r in results if not r.ok]
    violations = [
        f"{r.name}: "
        + ("; ".join(r.violations) if r.violations
           else "expected a violation, saw none")
        for r in unexpected
    ]
    records = [{
        "attack": r.name, "protocol": r.protocol, "N": r.N, "f": r.f,
        "violations": list(r.violations), "expected": r.expect_violation,
        "ok": r.ok, "details": r.details,
    } for r in results]
    numbers = {
        "cases": len(results),
        "unexpected": len(unexpected),
        "expected_violations": sum(1 for r in results if r.expect_violation),
    }
    files = {
        "transcript.jsonl": _jsonl(records),
        "metrics.csv": gallery_to_csv(results),
    }
    return files, numbers, violations


# ---------------------------------------------------------------------------
# plumbing and verification


EXECUTORS = {
    "run": execute_run,
    "sweep": execute_sweep,
    "gen-topology": execute_gen_topology,
    "attack": execute_attack,
}

# what a run's bytes depend on: every setting but where it writes and how
# many workers it uses
_SUMMARY_KEYS = ("command", *(key for key in DEFAULTS
                              if key not in ("workers", "out")))


def execute(cfg: dict):
    """Produce the output files for one command, no disk involved."""
    files, numbers, violations = _lookup("lockstep", EXECUTORS,
                                         cfg["command"])(cfg)
    summary = {
        "build": build_id(),
        "config": {k: cfg[k] for k in _SUMMARY_KEYS},
        "numbers": numbers,
        "violations": list(violations),
        "checksums": {name: hashlib.sha256(text.encode()).hexdigest()
                      for name, text in sorted(files.items())},
    }
    files["summary.json"] = json.dumps(summary, indent=2) + "\n"
    return files, violations


def write_out(cfg: dict, files: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_bytes(text.encode("utf-8"))
    return out


def run_command(cfg: dict) -> int:
    files, violations = execute(cfg)
    out = write_out(cfg, files)
    for text in violations:
        print(f"violation: {text}")
    print(f"{cfg['command']} {cfg['protocol']}: "
          f"{len(violations)} violations, wrote {out}/")
    return 0 if not violations else 1


def verify_command(cfg: dict) -> int:
    """Recompute an output directory from its own summary and compare."""
    out = Path(cfg["out"])
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        build = summary["build"]
        settings = dict(summary["config"])
        command = settings.pop("command")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigFault(f"cannot load {out}/summary.json: {exc}") from exc
    replay = {**DEFAULTS, **checked(settings, f"{out}/summary.json"),
              "command": command, "out": cfg["out"]}
    files, _ = execute(replay)
    failures = []
    if build != build_id():
        failures.append(f"build {build} != current {build_id()}")
    for name, text in sorted(files.items()):
        try:
            on_disk = (out / name).read_bytes()
        except OSError:
            failures.append(f"{name}: missing")
            continue
        if on_disk != text.encode("utf-8"):
            failures.append(f"{name}: differs from the recomputation")
    for line in failures:
        print(f"mismatch: {line}")
    status = "verified" if not failures else "NOT reproducible"
    print(f"{out}/: {status} ({len(files)} files)")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    common.add_argument("--seed", type=int, help="root of all randomness")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int, help="parallel sweep cells")
    common.add_argument("--protocol", help="which protocol or gallery")
    common.add_argument("--n", type=int, help="process count, or its cap")
    common.add_argument("--f", type=int, help="corruption budget")
    common.add_argument("--rounds", type=int, help="rounds to execute")
    parser = argparse.ArgumentParser(
        prog="lockstep",
        description="deterministic lockstep protocol laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="execute one protocol and record it")
    sub.add_parser("sweep", parents=[common],
                   help="walk a parameter grid")
    sub.add_parser("verify", parents=[common],
                   help="recompute an output directory and compare")
    sub.add_parser("gen-topology", parents=[common],
                   help="emit a cycle layout")
    sub.add_parser("attack", parents=[common],
                   help="run the adversary gallery")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
        if args.command == "verify":
            return verify_command(cfg)
        return run_command(cfg)
    except ConfigFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
