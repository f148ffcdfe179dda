"""The work ledger: exact call counts of the three benchmark runs, pinned in Tier-1.

    python tests/work_ledger.py            # print the ledger of src/ as JSON
    python tests/work_ledger.py --write    # rewrite tests/work_ledger.json

Each run is a workload of ``bench/run.py``, whose table ``WORKLOADS`` and reference
seeds (data seed 7, chain seed 0) are read from that file: ``gen-data`` and then ``fit``
through ``cli.main``, each under its own ``cProfile``, so that data generation and the
fit are keyed apart.  The prior-only ``e1-prior`` fit reads the bench's one-row ``y``
csv, which no treegress code writes.

Keys, with the call count of each (Python 3.11, numpy 2.4):
  - ``file:qualname`` for every profiled function whose code is in the package,
    comprehensions and lambdas of one function summed under their shared name;
  - ``file:qualname -> builtin`` for every call from such a function to a built-in,
    with the ``at 0x...`` object address stripped from the built-in's name.

For fixed seeds these counts are exact where wall time is noisy.  Live trees elsewhere
in a process change the node table's misses, so each run is measured in a fresh
interpreter, the three side by side, on the ``src/`` next to this file.
"""

from __future__ import annotations

import contextlib
import cProfile
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

LEDGER = Path(__file__).resolve().with_name("work_ledger.json")
SRC = LEDGER.parents[1] / "src"


def _bench():
    """``bench/run.py`` loaded as a module, for its workload table and reference seeds."""
    path = LEDGER.parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up there
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    return bench


_BENCH = _bench()
WORKLOADS = _BENCH.WORKLOADS
DATA_SEED, CHAIN_SEED = _BENCH.REFERENCE_DATA_SEED, _BENCH.REFERENCE_CHAIN_SEED
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def _counts(profile: cProfile.Profile, package: Path) -> dict:
    """The profile's calls keyed as the module docstring says."""
    counts = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or Path(code.co_filename).parent != package:
            continue
        caller = f"{Path(code.co_filename).name}:{code.co_qualname}"
        counts[caller] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                counts[f"{caller} -> {_ADDRESS.sub('', sub.code)}"] += sub.callcount
    return dict(sorted(counts.items()))


def _profiled(main, argv, package: Path) -> dict:
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        profile.enable()
        code = main(argv)
        profile.disable()
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return _counts(profile, package)


def reference_run(name: str, d: Path, call) -> dict:
    """The workload's inputs at the reference seeds, in the directory ``d``: ``call(argv)``
    on its ``gen-data`` (or the one-row ``y`` csv written for a prior-only fit), then on
    its ``fit``, which writes ``d / "posterior.json"``.  Returns {"gen-data": ..., "fit":
    ...}, what the calls returned."""
    wl, out = WORKLOADS[name], {}
    if wl.task is None:
        y = random.Random(DATA_SEED).uniform(-1.0, 1.0)
        (d / "train.csv").write_text(f"y\n{y!r}\n", encoding="utf-8")
    else:
        out["gen-data"] = call(["gen-data", "--task", wl.task, "--seed", str(DATA_SEED),
                                "--out-dir", str(d)])
    (d / "config.json").write_text(json.dumps(dict(wl.config, seed=CHAIN_SEED)), encoding="utf-8")
    out["fit"] = call(["fit", "--prior", wl.prior, "--train", str(d / "train.csv"),
                       "--config", str(d / "config.json"), "--out", str(d / "posterior.json"),
                       "--chains", str(wl.chains)])
    return out


def measure(name: str) -> dict:
    """The ledger of one run, in this interpreter: {"gen-data": ..., "fit": ...}."""
    from treegress import cli

    package = Path(cli.__file__).resolve().parent
    with tempfile.TemporaryDirectory(prefix="treegress-ledger-") as tmp:
        return reference_run(name, Path(tmp), lambda argv: _profiled(cli.main, argv, package))


def run_all() -> dict:
    """Every run's ledger, each measured in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    procs = {name: subprocess.Popen([sys.executable, *(f"-W{w}" for w in sys.warnoptions),
                                     __file__, "--run", name], stdout=subprocess.PIPE, text=True,
                                    env=env)
             for name in sorted(WORKLOADS)}
    outs = {name: proc.communicate()[0] for name, proc in procs.items()}
    failed = [name for name, proc in procs.items() if proc.returncode]
    if failed:
        raise RuntimeError(f"the ledger runs {failed} failed; their errors are on stderr")
    return {name: json.loads(out) for name, out in outs.items()}


def moved(pinned: dict, now: dict) -> list:
    """One line per key whose count differs between two ledgers, None where absent."""
    lines = []
    for run in sorted(pinned.keys() | now.keys()):
        for part in sorted(pinned.get(run, {}).keys() | now.get(run, {}).keys()):
            old, new = pinned.get(run, {}).get(part, {}), now.get(run, {}).get(part, {})
            lines += [f"{run}/{part}: {key}: {old.get(key)} -> {new.get(key)}"
                      for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        print(json.dumps(measure(sys.argv[2])))
    else:
        text = json.dumps(run_all(), indent=1, sort_keys=True) + "\n"
        if sys.argv[1:] == ["--write"]:
            LEDGER.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
