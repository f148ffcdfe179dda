"""Run the mutant registry: every mutant in ``tests/mutants.json`` must be killed.

    python3 tests/run_mutants.py           # every registered mutant
    python3 tests/run_mutants.py ID ...    # only these

Each mutant names a file under ``src/``, an ``old`` text that occurs there
exactly once, the ``new`` text that replaces it, and the test ids that must
fail.  For each one, ``src/`` is copied to a temporary directory, the one
replacement is made in the copy, and ``python -m pytest -q -x`` runs the named
ids from the checkout's root with ``PYTHONPATH`` at the copy, under the two
warning flags of the Tier-1 CI run.  Only pytest's exit 1 (a test failed) counts
as killed; a pass is a survivor, and any other exit (a collection error, no
test found) is an error.  It prints one line per mutant and exits 0 only when
every mutant is killed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = ROOT / "tests" / "mutants.json"
# CI's Tier-1 run turns these into errors, and some mutants are caught only by them
WARNINGS = ["-W", "error::RuntimeWarning", "-W", "error::pytest.PytestUnraisableExceptionWarning"]
JOBS = min(4, os.cpu_count() or 1)


def load() -> list:
    """The registry's mutants, in file order."""
    return json.loads(REGISTRY.read_text(encoding="utf-8"))


def run(mutant) -> tuple:
    """(outcome, seconds, the first failed test or pytest's last output line) of one
    mutant: "killed", "survived" or "error"."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="treegress-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / Path(mutant["file"]).relative_to("src")
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "error", 0.0, f"its old text occurs {text.count(mutant['old'])} times"
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, *WARNINGS[:2], "-m", "pytest", "-q", "-x", *WARNINGS[2:],
             *mutant["tests"]],
            cwd=ROOT, env=env, capture_output=True, text=True)
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith("FAILED ")]
    last = failed[0] if failed else lines[-1]
    return outcome, time.perf_counter() - start, (
        f"{last} (pytest exit {proc.returncode})" if outcome == "error" else last)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = load()
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        parser.error(f"no mutants {sorted(unknown)}")
    mutants = [m for m in mutants if not args.ids or m["id"] in args.ids]
    start = time.perf_counter()
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(run, mutants))
    for mutant, (outcome, seconds, last) in zip(mutants, results):
        print(f"{outcome:8} {seconds:5.1f}s  {mutant['id']}: {last}")
    alive = [m["id"] for m, (outcome, _, _) in zip(mutants, results) if outcome != "killed"]
    print(f"{len(mutants) - len(alive)} of {len(mutants)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s" + (f"; not killed: {alive}" if alive else ""))
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
