"""The mutant registry stays runnable: each mutant's ``old`` text occurs exactly
once in its file under ``src/``, and each test it names is one that pytest
collects, a whole test function or one row of it by its id.
``tests/run_mutants.py`` runs the mutants themselves."""

import pytest

from run_mutants import ROOT, load

MUTANTS = load()


def test_each_mutant_edits_one_place_of_a_source_file():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert set(m) == {"id", "pr", "file", "old", "new", "tests"}, m["id"]
        assert m["file"].startswith("src/") and m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["id"]


def test_each_named_test_is_a_test_function(request):
    # a stale row id makes the mutant run exit 4 (no test found), not fail a test
    named = set()
    for path in sorted({test.partition("::")[0] for m in MUTANTS for test in m["tests"]}):
        module = pytest.Module.from_parent(request.session, path=ROOT / path)
        for item in module.collect():
            named |= {f"{path}::{item.name}", f"{path}::{item.originalname}"}
    for m in MUTANTS:
        assert m["tests"], m["id"]
        for test in m["tests"]:
            assert test in named, (m["id"], test)
