"""Attack gallery: everything must fail exactly where it should."""

import dataclasses

import pytest

from lockstep.adversary import (
    CoalitionOracle,
    _ds_audit,
    bank_gallery,
    cheating_intermediary_cases,
    cycle_gallery,
    enumerate_ds_cases,
    exhaustive_cycle_cases,
    gallery_to_csv,
    message_floor_report,
    quorum_gallery,
    random_cycle_attack,
    random_ds_case,
    run_ds_case,
    split_double_spend,
    x_set,
    AttackResult,
)
from lockstep import marker
from lockstep.consensus import run_dolev_strong
from lockstep.simnet import ConfigFault, ForgeryViolation, SignatureOracle


def test_result_expectation_logic():
    clean = AttackResult("a", "p", 4, 1, ())
    caught = AttackResult("b", "p", 4, 1, ("boom",))
    wanted = AttackResult("c", "p", 4, 1, ("boom",), expect_violation=True)
    silent = AttackResult("d", "p", 4, 1, (), expect_violation=True)
    assert clean.ok and caught.ok is False
    assert wanted.ok and silent.ok is False


def test_gallery_csv_contract():
    rows = gallery_to_csv([AttackResult("a", "p", 4, 1, ("x", "y"))])
    lines = rows.splitlines()
    assert lines[0] == "attack,protocol,N,f,violations,expected,ok"
    assert lines[1] == "a,p,4,1,2,0,0"


def test_coalition_oracle_still_refuses_honest_keys():
    base = SignatureOracle(frozenset({1}))
    shadow = CoalitionOracle(base)
    shadow.sign(1, b"fine")
    with pytest.raises(ForgeryViolation):
        shadow.sign(0, b"forged")


def test_scripted_broadcast_enumeration_shape():
    cases = list(enumerate_ds_cases(4, 1))
    # slots: steps 1..f+1 for three honest recipients, three actions each,
    # two leader inputs, plus the corrupted leader block at step 0
    assert len(cases) == 24_057
    sample = [run_ds_case(c) for c in cases[:40]]
    assert all(r.violations == () for r in sample)


def test_a_run_missing_an_honest_decision_is_flagged():
    corrupted = frozenset({3})
    run = run_dolev_strong(5, 1, 1, corrupted=corrupted)
    assert _ds_audit(run, 1, corrupted, 0) == []
    dropped = dataclasses.replace(
        run, decisions={n: v for n, v in run.decisions.items() if n != 2})
    assert _ds_audit(dropped, 1, corrupted, 0) == [
        "decisions from [0, 1, 4], not from the honest [0, 1, 2, 4]"]


def test_random_broadcast_attacks_stay_clean():
    for seed in range(150):
        result = random_ds_case(seed)
        assert result.violations == (), result.name


def test_quorum_gallery_is_clean():
    for result in quorum_gallery():
        assert result.ok, (result.name, result.violations)


def test_cycle_galleries_are_clean():
    for result in (cycle_gallery() + exhaustive_cycle_cases()
                   + [random_cycle_attack(s) for s in range(150)]):
        assert result.ok, (result.name, result.violations)


def test_bank_galleries_are_clean():
    for family, f in (("quorum", 1), ("cycle", 2)):
        for result in bank_gallery(family, 6, f, 3, 5, seed=4):
            assert result.ok, (result.name, result.violations)


def test_cheating_intermediaries_always_caught():
    for result in cheating_intermediary_cases(8, 2, seed=5):
        assert result.ok, (result.name, result.violations)


def test_unprotected_handoffs_fall_to_the_split():
    report = split_double_spend("strawman", 6, 3, 0, 2, 4)
    assert not report.skipped
    assert report.double_spend
    assert report.violations  # the round audit sees both markings


def test_quorum_resists_the_natural_split():
    report = split_double_spend("quorum", 7, 2, 0, 3, 5)
    assert not report.double_spend
    assert report.violations == ()


def test_cycle_resists_the_natural_split():
    for first, second in ((2, 5), (5, 2)):
        report = split_double_spend("cycle", 8, 2, 0, first, second)
        assert not report.double_spend, (first, second)
        assert report.violations == ()


def test_split_refuses_a_coalition_containing_a_target():
    with pytest.raises(ConfigFault):
        split_double_spend("quorum", 7, 2, 0, 3, 5,
                           coalition=frozenset({0, 3}))


def test_contact_sets_and_the_message_floor():
    for family in ("quorum", "cycle"):
        contacts = x_set(family, 8, 2, 0, 5)
        assert 0 in contacts and 5 in contacts
        assert message_floor_report(family, 8, 2) == []
    assert x_set("strawman", 6, 3, 0, 2) == frozenset({0, 2})


def test_the_message_floor_runs_one_handoff_per_target(monkeypatch):
    built = []

    class CountingNetwork(marker.Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(marker, "Network", CountingNetwork)
    assert message_floor_report("cycle", 8, 2) == []
    assert len(built) == 7
