"""The benchmark's three reference posteriors, rebuilt through the CLI.

``bench/run.py`` fits each workload once at data seed 7 and chain seed 0 and
records the SHA-256 of the posterior JSON.  This test rebuilds the same inputs
and pins those digests, so a change to any draw fails in Tier-1 under this
name, not only in a benchmark run.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from treegress.cli import main

DATA_SEED = 7

# (prior, gen-data task or None for a prior-only fit on a one-row y csv,
#  run config without its seed, chains, SHA-256 of posterior.json)
REFERENCE = {
    "langmuir": ("E_iso", "isotherm:langmuir", {"burn_in": 2000, "samples": 1000, "thin": 1}, 1,
                 "cc4ff7cabf7b75d212c681acbe781c09d41721cde21219a3e78e3053be708068"),
    "ogden": ("E_hyp", "hyperelastic", {"burn_in": 2000, "samples": 1000, "thin": 1}, 2,
              "a058e5970c486b32fe374829c2e28b825fe0f44534ca53f9d6376f4b432c341b"),
    "e1-prior": ("E_1", None, {"burn_in": 0, "samples": 2000, "thin": 2, "prior_only": True}, 1,
                 "5fc088e16cb4a1452452b263bccbf0ee67d9cc4ca131925390b717092f40ee79"),
}


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_reference_posterior_sha256(workload, tmp_path):
    prior, task, config, chains, expected = REFERENCE[workload]
    if task is None:
        y = random.Random(DATA_SEED).uniform(-1.0, 1.0)
        (tmp_path / "train.csv").write_text(f"y\n{y!r}\n", encoding="utf-8")
    else:
        _cli("gen-data", "--task", task, "--seed", DATA_SEED, "--out-dir", tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(dict(config, seed=0)), encoding="utf-8")
    posterior = tmp_path / "posterior.json"
    _cli("fit", "--prior", prior, "--train", tmp_path / "train.csv",
         "--config", tmp_path / "config.json", "--out", posterior, "--chains", chains)
    assert hashlib.sha256(posterior.read_bytes()).hexdigest() == expected
