import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_edits_exactly_one_place():
    # a refactor that moves or rewrites a mutated line must update the list
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
