"""The mutant list of the mutation runner (tools/mutants.py) fits this tree:
each mutant's text occurs exactly once in its file and its test files
exist, so a change that rewrites a mutant's text fails here, not in the
next mutation run.  No mutant is applied and no test is run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_mutant_text_occurs_once_and_its_tests_exist():
    mutants = load_tool().MUTANTS
    assert len({name for name, *_ in mutants}) == len(mutants)
    for name, file, old, new, tests in mutants:
        assert (ROOT / file).read_text().count(old) == 1, name
        assert old != new and tests, name
        for test in tests:
            assert (ROOT / test).is_file(), (name, test)
