"""Command line wrapper: outputs, reproducibility, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lockstep.cli import DEFAULTS, build_id, execute, main
from lockstep.hopnet import load_cycles
from lockstep.payments import Bank


def _cfg(command, **overrides):
    cfg = dict(DEFAULTS)
    cfg["command"] = command
    cfg.update(overrides)
    return cfg


def _run(argv):
    return main([str(a) for a in argv])


def test_run_and_verify_every_protocol(tmp_path):
    for protocol in ("broadcast", "quorum", "cycle",
                     "bank-quorum", "bank-cycle"):
        out = tmp_path / protocol
        assert _run(["run", "--protocol", protocol, "--n", 7, "--f", 2,
                     "--rounds", 3, "--seed", 9, "--out", out]) == 0
        assert (out / "transcript.jsonl").exists()
        assert (out / "metrics.csv").exists()
        assert _run(["verify", "--out", out]) == 0


def test_summary_carries_config_and_checksums(tmp_path):
    out = tmp_path / "one"
    _run(["run", "--protocol", "quorum", "--n", 7, "--f", 2, "--out", out])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["build"] == build_id()
    assert summary["config"]["protocol"] == "quorum"
    assert summary["violations"] == []
    assert set(summary["checksums"]) == {"transcript.jsonl", "metrics.csv"}


def test_verify_spots_tampering(tmp_path):
    out = tmp_path / "tampered"
    _run(["run", "--protocol", "broadcast", "--out", out])
    target = out / "metrics.csv"
    target.write_text(target.read_text() + "9,9,9\n")
    assert _run(["verify", "--out", out]) == 1


def test_execution_is_deterministic():
    cfg = _cfg("run", protocol="bank-cycle", n=6, rounds=4, seed=13)
    first, _ = execute(cfg)
    second, _ = execute(cfg)
    assert first == second


def test_sweep_output_is_worker_independent(tmp_path):
    solo = execute(_cfg("sweep", protocol="quorum", n=8, workers=1))[0]
    pooled = execute(_cfg("sweep", protocol="quorum", n=8, workers=3))[0]
    assert solo == pooled


def test_sweep_rows_match_flag_grid(tmp_path):
    out = tmp_path / "sweep"
    assert _run(["sweep", "--protocol", "broadcast", "--n", 6,
                 "--out", out]) == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert rows[0].startswith("N,f,messages")
    cells = [tuple(map(int, r.split(",")[:2])) for r in rows[1:]]
    assert cells == [(N, f) for N in range(4, 7)
                     for f in range(1, 4) if f <= N - 2]


def test_config_file_sets_and_flags_override(tmp_path):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("protocol = cycle\nn = 10\nseed = 21\n")
    out = tmp_path / "from-file"
    _run(["run", "--config", cfg_file, "--n", 6, "--out", out])
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["protocol"] == "cycle"
    assert config["seed"] == 21
    assert config["n"] == 6  # the flag wins


def test_a_percent_sign_in_a_config_value_is_plain_text(tmp_path):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text(f"out = {tmp_path / '50%'}\n")
    assert _run(["run", "--config", cfg_file]) == 0
    assert (tmp_path / "50%" / "summary.json").exists()


def test_topology_files_load_back(tmp_path):
    out = tmp_path / "topo"
    assert _run(["gen-topology", "--n", 12, "--seed", 3, "--out", out]) == 0
    cycleset = load_cycles(str(out / "cycles.txt"))
    assert cycleset.N == 12
    assert _run(["verify", "--out", out]) == 0


def test_gen_topology_builds_no_bank(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gen-topology built a Bank")

    monkeypatch.setattr(Bank, "__init__", refuse)
    assert _run(["gen-topology", "--n", 12, "--seed", 3,
                 "--out", tmp_path / "topo"]) == 0


def test_importing_the_cli_loads_no_curve_fitting():
    """Only the fitting sweeps need ``scipy.optimize``, a slow import, so
    every other command starts without it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lockstep.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_attack_csv_contract(tmp_path):
    out = tmp_path / "attacks"
    assert _run(["attack", "--protocol", "quorum", "--out", out]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("attack,protocol,N,f,violations")
    assert len(lines) > 1


def test_attack_gallery_default_covers_everything(tmp_path):
    out = tmp_path / "gallery"
    assert _run(["attack", "--seed", 1, "--out", out]) == 0
    protocols = {json.loads(line)["protocol"]
                 for line in (out / "transcript.jsonl").read_text().splitlines()}
    assert {"broadcast", "quorum", "cycle", "hopnet", "strawman"} <= protocols


def test_usage_errors_exit_two(tmp_path, capsys):
    assert _run(["run", "--protocol", "nosuch", "--out", tmp_path / "x"]) == 2
    for n, data in enumerate([b"mystery = 4\n", b"n = abc\n",
                              b"[lab]\nmystery = 4\n", b"[DEFAULT]\nn = 5\n",
                              b"\xff\xfe"]):
        bad = tmp_path / f"bad{n}.cfg"
        bad.write_bytes(data)
        assert _run(["run", "--config", bad, "--out", tmp_path / "y"]) == 2
    assert _run(["verify", "--out", tmp_path / "nowhere"]) == 2
    for n, text in enumerate([
            "not json", '{"build": "x"}', "[]",
            '{"build": "x", "config": {"command": "run", "n": "seven"}}',
            '{"build": "x", "config": {"command": "nosuch"}}']):
        out = tmp_path / f"summary{n}"
        out.mkdir()
        (out / "summary.json").write_text(text)
        assert _run(["verify", "--out", out]) == 2
    pairs = tmp_path / "pairs.cfg"
    pairs.write_text("pairs = 0\n")
    for argv in (["run", "--seed", -1],
                 ["sweep", "--protocol", "cycle", "--n", 7],
                 ["sweep", "--protocol", "hopnet", "--n", 16,
                  "--config", pairs],
                 ["run", "--protocol", "bank-quorum", "--n", 0],
                 # a grid with no cell at this n
                 ["sweep", "--protocol", "hopnet", "--n", 7],
                 ["sweep", "--protocol", "broadcast", "--n", 3],
                 ["sweep", "--protocol", "quorum", "--n", 3],
                 ["sweep", "--protocol", "cancel", "--n", 3]):
        assert _run([*argv, "--out", tmp_path / "z"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 20 and all(e.startswith("error: ") for e in errors)


@pytest.mark.parametrize("command, known", [
    ("run", "['bank-cycle', 'bank-quorum', 'broadcast', 'cycle', 'quorum']"),
    ("sweep", "['broadcast', 'cancel', 'cycle', 'hopnet', 'quorum']"),
    ("gen-topology", "['binary', 'random']"),
    ("attack", "['all', 'bank', 'broadcast', 'cycle', 'hopnet', 'quorum', "
               "'strawman']"),
])
def test_unknown_names_are_refused_with_the_known_list(tmp_path, capsys,
                                                         command, known):
    assert _run([command, "--protocol", "nosuch",
                 "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == \
        f"error: {command} knows {known}, not 'nosuch'\n"


def test_binary_search_is_an_alias_of_binary():
    alias, _ = execute(_cfg("gen-topology", protocol="binary-search", n=10))
    plain, _ = execute(_cfg("gen-topology", protocol="binary", n=10))
    assert json.loads(alias.pop("summary.json"))["config"]["protocol"] == \
        "binary-search"
    plain.pop("summary.json")
    assert alias == plain
