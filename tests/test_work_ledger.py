"""The work the benchmark runs do matches its pins in ``tests/work_ledger.json``.

``tests/work_ledger.py`` says what is counted.  A change that moves a count rewrites
the pins with ``python tests/work_ledger.py --write`` and says which counts moved and
why; a count that moves with no reason given is a finding, whatever the timings say.
"""

import importlib.util
import json
import sys

from work_ledger import CHAIN_SEED, DATA_SEED, LEDGER, RUNS, moved, run_all


def test_the_benchmark_runs_do_the_pinned_work():
    lines = moved(json.loads(LEDGER.read_text(encoding="utf-8")), run_all())
    assert not lines, "moved (run/part: key: pinned -> now):\n" + "\n".join(lines)


def test_the_ledger_runs_are_the_benchmark_workloads():
    path = LEDGER.parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up there
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    assert (bench.REFERENCE_DATA_SEED, bench.REFERENCE_CHAIN_SEED) == (DATA_SEED, CHAIN_SEED)
    assert {name: (wl.prior, wl.task, wl.config, wl.chains)
            for name, wl in bench.WORKLOADS.items()} == RUNS
