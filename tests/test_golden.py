"""Golden outputs: the exact bytes of short fits and their reports.

The SHA-256 digests below were recorded before the evaluation fast paths
(cached tree facts, compiled and memoized evaluation, report dedup) existed,
with Python 3.11 and numpy 2.4 on x86-64 Linux.  Any fast path that changes
a single output byte at these seeds fails here.  Criterion 10 only compares
two runs of the same code with each other; this test compares against the
code before the fast paths.
"""

import contextlib
import hashlib
import io
import json

import pytest

from treegress.cli import main
from treegress.inference import Draw, McmcConfig, Posterior, posterior_to_json
from treegress.trees import SymbolicExpression, parse_tree

DATA_SEED = 7
CHAIN_SEED = 0
NOISE_SEED = 3
CONFIG = {"burn_in": 300, "samples": 200, "thin": 2}

# Hand-made draws: repeated (tree, theta) pairs; draws that are non-finite at
# some points only (negative base to a fractional power) or at every draw
# (division by zero); and +0.0 against -0.0, which compare equal but print
# apart once they reach a band.
HAND_DRAWS = {
    "mixed": [
        ("(pow c a#)", (0.5,), 0.1),
        ("(pow c a#)", (0.5,), 0.1),
        ("(pow c a#)", (0.5,), 0.2),
        ("(pow c a#)", (2.0,), 0.2),
        ("(/ a# c)", (1.5,), 0.3),
        ("(/ a# c)", (1.5,), 0.3),
        ("(+ (* a# c) 1/3)", (-2.0,), 0.1),
    ],
    "zeros": [
        ("(* a# c)", (-0.0,), 0.1),
        ("(* a# c)", (-0.0,), 0.1),
        ("(* a# c)", (0.0,), 0.1),
    ],
}
HAND_DATA = "c,s\n-1.0,0.5\n0.0,1.0\n0.25,0.5\n2.0,1.5\n3.5,2.0\n"

EXPECTED = {
    "hyp/bands.csv": "13922bc2934ad2d2d6b053b56d7c29c2096360fe28a773575fb0789ecaae9292",
    "hyp/fit.stdout": "f2161bb36018906eb4567ce261ecd62f80f75cd02a8e7b4578f009875f88722e",
    "hyp/metrics.csv": "2f8d4954ea0a571be32f13abd6d7fb3643cb3431bd013de5d66cecb5a4f7a88d",
    "hyp/noisy/bands.csv": "9ec8ede9f27c6ffd8847f4c41928df07563202277c7bc2bd1046393064ec2c27",
    "hyp/posterior.json": "b5a63dcf5c6dadb372fdf5672a0833dd060c5f8a5ba8792caf9b9e7328786a9d",
    "iso/bands.csv": "2f6689e2fab7afb04c9678f43013fd968ed40cb27a20dd1325a7dd0a3c0748a0",
    "iso/fit.stdout": "ceb99f840415e042fdad595ae593901e98ba0bc47eaf703a38301e4293f4a441",
    "iso/metrics.csv": "5159e4b5570cba95135ee7d5bf5bdac412e6c01c15815c8d014dba2728efe08a",
    "iso/noisy/bands.csv": "d1750d1c2c4c89896bc83466df8327a3cb8423eef95cf01bf4f81136048f9dc9",
    "iso/posterior.json": "211ae0ada3f5800d0344f9c2e122671bdc79656a247ecdc86287b521604e64c3",
    "mixed/bands.csv": "21fe80b22506a74e930240d53b03396fd87bfd4aa81d2860a921d0d08c61a869",
    "mixed/metrics.csv": "ee8e2e263cfcb3e6fa01993f4c0d9100a117a0c04d5307ab48e1a58526b91842",
    "mixed/noisy/bands.csv": "12300bc58496783f9442601c567d47aed43d03cb9c8b1f5094736480c6abb022",
    "zeros/bands.csv": "33a7bcbef1ebe220526aa45eb6c48a3cedc43f097c3993e98af73a7bd6a11177",
    "zeros/metrics.csv": "6139f6816641fd23de0394bca5ffb06e57ee4a6bfa4bbdba73acce2232cd4fe3",
    "zeros/noisy/bands.csv": "1e19d9a72d8633e0210deecc5f7f98127312ee7196c333f59a6996acd275bba0",
}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fit_and_report(root, name, task, prior, chains):
    d = root / name
    _cli("gen-data", "--task", task, "--seed", DATA_SEED, "--out-dir", d)
    config = d / "config.json"
    config.write_text(json.dumps(dict(CONFIG, seed=CHAIN_SEED)))
    posterior = d / "posterior.json"
    summary = _cli("fit", "--prior", prior, "--train", d / "train.csv", "--config", config,
                   "--out", posterior, "--chains", chains)
    data = [d / "test1.csv", d / "test2.csv", d / "test3.csv"]
    _cli("report", "--posterior", posterior, "--data", *data, "--out-dir", d / "report")
    _cli("report", "--posterior", posterior, "--data", *data, "--out-dir", d / "noisy",
         "--with-noise", "--seed", NOISE_SEED)
    return {
        f"{name}/posterior.json": _sha(posterior.read_bytes()),
        f"{name}/fit.stdout": _sha(summary.encode()),
        f"{name}/metrics.csv": _sha((d / "report" / "metrics.csv").read_bytes()),
        f"{name}/bands.csv": _sha((d / "report" / "bands.csv").read_bytes()),
        f"{name}/noisy/bands.csv": _sha((d / "noisy" / "bands.csv").read_bytes()),
    }


def _hand_report(root, name):
    d = root / name
    d.mkdir()
    draws = tuple(
        Draw(SymbolicExpression(parse_tree(text), theta_c=theta), sigma, -1.0)
        for text, theta, sigma in HAND_DRAWS[name]
    )
    posterior = d / "posterior.json"
    posterior.write_text(posterior_to_json(Posterior(draws, {}, McmcConfig(), 0)))
    (d / "data.csv").write_text(HAND_DATA)
    _cli("report", "--posterior", posterior, "--data", d / "data.csv", "--out-dir", d / "report")
    _cli("report", "--posterior", posterior, "--data", d / "data.csv", "--out-dir", d / "noisy",
         "--with-noise", "--seed", NOISE_SEED)
    return {
        f"{name}/metrics.csv": _sha((d / "report" / "metrics.csv").read_bytes()),
        f"{name}/bands.csv": _sha((d / "report" / "bands.csv").read_bytes()),
        f"{name}/noisy/bands.csv": _sha((d / "noisy" / "bands.csv").read_bytes()),
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = _fit_and_report(root, "iso", "isotherm:langmuir", "E_iso", 1)
    out.update(_fit_and_report(root, "hyp", "hyperelastic", "E_hyp", 2))
    for name in HAND_DRAWS:
        out.update(_hand_report(root, name))
    return out


@pytest.mark.parametrize("output", sorted(EXPECTED))
def test_golden_output_bytes(digests, output):
    assert digests[output] == EXPECTED[output]
