"""The names the benchmark looks up in treegress stay bound.

``bench/spans.py`` wraps functions at the names their callers bind, and
``bench/run.py`` reads a few more at set-up, so deleting or renaming one of them
breaks the benchmark.  This test reads ``bench/spans.py`` and changes no bench
file: it installs the tracer once, uninstalls it, and checks that every wrapped
attribute is back, in milliseconds rather than a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

MODULES = ("cli", "experiments", "inference", "prte", "pta", "trees")
# what bench/run.py's Session.setup reads, besides the names the tracer wraps
SETUP_NAMES = [("cli", "run_chain"), ("cli", "run_chains"), ("experiments", "read_dataset"),
               ("experiments", "prior_library"), ("pta", "compile_prior")]


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_and_restores_every_name_the_bench_reads():
    mods = {short: importlib.import_module(f"treegress.{short}") for short in MODULES}
    for short, attr in SETUP_NAMES:
        assert hasattr(mods[short], attr), f"{short}.{attr}"
    inference, tree = mods["inference"], mods["trees"].Tree
    before = {short: dict(vars(module)) for short, module in mods.items()}
    proposers = dict(inference._PROPOSERS)
    context, nodes = dict(vars(inference._ChainContext)), dict(vars(tree))
    tracer = _spans().Tracer()
    try:
        tracer.install(0, mods)
        assert inference.compute_ties is not before["inference"]["compute_ties"]
        assert tree.__hash__ is not nodes["__hash__"]
    finally:
        tracer.uninstall()
    for short, module in mods.items():
        assert dict(vars(module)) == before[short], short
    assert inference._PROPOSERS == proposers
    assert dict(vars(inference._ChainContext)) == context
    assert dict(vars(tree)) == nodes
    assert tree.__hash__ is object.__hash__
