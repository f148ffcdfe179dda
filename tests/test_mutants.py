"""The mutant registry stays runnable: each mutant's ``old`` text occurs exactly
once in its file under ``src/``, and each test it names is a test function of an
existing test file.  ``tests/run_mutants.py`` runs the mutants themselves."""

import ast

from run_mutants import ROOT, load

MUTANTS = load()


def test_each_mutant_edits_one_place_of_a_source_file():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert set(m) == {"id", "pr", "file", "old", "new", "tests"}, m["id"]
        assert m["file"].startswith("src/") and m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["id"]


def test_each_named_test_is_a_test_function():
    functions = {}
    for m in MUTANTS:
        assert m["tests"], m["id"]
        for test in m["tests"]:
            path, _, name = test.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                functions[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            name = name.partition("[")[0]
            assert name.startswith("test_") and name in functions[path], (m["id"], test)
