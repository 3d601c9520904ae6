"""Checks of the benchmark itself: wrappers, workloads and the result line.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Small episodes that still reach every span mapped to their workload.
SMALL_OPS = {"bank-cycle": 8, "bank-quorum": 3, "hop-macro": 1,
             "claims-gallery": 40}


def _traced_episode(name: str, seed: int) -> tracing.Tracer:
    tracer = tracing.Tracer()
    with tracer:
        result = run.run_episode(workloads.make_episode(name, seed, SMALL_OPS[name]),
                                 1, 100)
    assert result["failed"] == 0
    return tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_span_records_calls_on_its_workload(name):
    """A renamed or moved function fails here instead of reporting zero."""
    tracer = _traced_episode(name, 3)
    silent = [span for span, workload in tracing.span_workloads().items()
              if workload == name and tracer.stats[span].calls == 0]
    assert not silent


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "lockstep"]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("lockstep")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_attribute():
    before = _snapshot()
    _traced_episode("bank-quorum", 1)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_from_bytes_stays_a_classmethod():
    from lockstep.simnet import SignedMessage
    with tracing.Tracer():
        assert isinstance(SignedMessage.__dict__["from_bytes"], classmethod)
        msg = SignedMessage(b"x", ((1, b"y"),))
        assert SignedMessage.from_bytes(msg.to_bytes()) == msg


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_passes_every_check_and_repeats(name, seed):
    ops = SMALL_OPS[name]
    first = run.run_episode(workloads.make_episode(name, seed, ops), 1, 100)
    again = run.run_episode(workloads.make_episode(name, seed, ops), 1, 100)
    assert first["failed"] == again["failed"] == 0
    assert (first["digest"], first["counts"]) == (again["digest"], again["counts"])
    assert first["counts"][0] > 0


def test_traced_digest_equals_untraced():
    plain = run.run_episode(workloads.make_episode("bank-cycle", 5, 8), 1, 100)
    with tracing.Tracer():
        traced = run.run_episode(workloads.make_episode("bank-cycle", 5, 8), 1, 100)
    assert plain["digest"] == traced["digest"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracing.metric_units())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    status = run.main(["--workload", "claims-gallery", "--seed", "4",
                       "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = tracing.metric_units() if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank-cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
