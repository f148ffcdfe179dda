"""The benchmark's three reference posteriors, rebuilt through the CLI.

``bench/run.py`` fits each workload once at data seed 7 and chain seed 0 and
records the SHA-256 of the posterior JSON.  This test rebuilds the same inputs
(``work_ledger.reference_run``, from the bench's own workload table) and pins
those digests, so a change to any draw fails in Tier-1 under this name, not
only in a benchmark run.
"""

import contextlib
import hashlib
import io

import pytest

from treegress.cli import main
from work_ledger import reference_run

SHA256 = {  # of each workload's posterior.json
    "langmuir": "cc4ff7cabf7b75d212c681acbe781c09d41721cde21219a3e78e3053be708068",
    "ogden": "a058e5970c486b32fe374829c2e28b825fe0f44534ca53f9d6376f4b432c341b",
    "e1-prior": "5fc088e16cb4a1452452b263bccbf0ee67d9cc4ca131925390b717092f40ee79",
}


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, argv


@pytest.mark.parametrize("workload", sorted(SHA256))
def test_reference_posterior_sha256(workload, tmp_path):
    reference_run(workload, tmp_path, _cli)
    assert hashlib.sha256((tmp_path / "posterior.json").read_bytes()).hexdigest() == SHA256[workload]
