"""tools/mutants.py: every mutant still names text the source holds once."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCES = {path.name: path.read_text()
           for path in (ROOT / "src" / "lockstep").glob("*.py")}


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once_under_src_and_mutates_to_python(mutant):
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1
    mutated = mutants.mutate(SOURCES[mutant.module], mutant)
    assert mutated != SOURCES[mutant.module]
    compile(mutated, mutant.module, "exec")


def test_an_unknown_mutant_name_is_refused_before_anything_runs(
        tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        mutants.main(["--only", "C2,Z9", "--workdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown mutant Z9" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
