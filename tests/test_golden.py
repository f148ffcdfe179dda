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


# SHA-256 of train, test1, test2 and test3.csv that ``gen-data`` writes for
# each task at DATA_SEED, recorded before the data generators took a task
# name in place of a spec object.
GEN_DATA = {
    "isotherm:langmuir": (
        "92bb9e38f2c67ecaaf4cc225a16e755fcc5e7f15642387befe4aa55e885f407d",
        "163975adf6b3179afa653ddcbdc4f435d33e2a194580d4e426d74c8a3e16aebb",
        "ee4678ca63ea7e939e07419f28ef561df8837780040cc4a3f03ce8b12165e166",
        "9bfba08ca3f4cb1241ab977f632bc5052b4e2487d31b04b32bcb50401835e050",
    ),
    "isotherm:modified_langmuir": (
        "ee3265f8f9feaf801e285f45e444cf1b0a0d62c16aba8a4814473bb6bbafb6f4",
        "95b8fbdd7dcdd9e9e404d7076803a23ee5096b655d8e7a8873558fd6ad44e533",
        "dab354b29a46d0080fcbd5889dbfe2eac17aae8cd526157d2ae53efd27460532",
        "96e537ff37725c37a011d4005483b3c2498ce7cb2ba61c8844ddf5b2ad65b8b1",
    ),
    "isotherm:two_site_langmuir": (
        "9be18230db7f2a3de9870f606f13c250d4cc0987b0b7a7460792d1ebbceaab5b",
        "d879a077ffa8fd4d5bb3a2a196f02fc89b3b745d8808fe67df3163d7ad597b77",
        "a740a87c8a7c00fb0adf8a2af6e85b7d899b2a0e8540c48538b9e3215ba8ad3d",
        "8e9cdfb3e44c53fa8660e1f4046c535e198bfae60a18ccd264425ef95e76917a",
    ),
    "isotherm:general_langmuir_freundlich": (
        "66a05c223e8b6b1174e8b45655a0fa71bebea296182cde8897bb9fbb43ab1415",
        "0596f819d6c90881438a439e8c6d0cf815c53edd3073dbc18694163d82236d08",
        "0f1387fe98580240a9ef431254d4b9492f490aa5533325acad12964097093581",
        "88037ded9f4229c6d9ae94fadc9ea00c74590fe147af2dfadd2102b89f06f6fb",
    ),
    "isotherm:freundlich": (
        "2f36649aa96b24ab0cab2a434580accbd5d962ac9d313000a730eabbc7dab4f6",
        "fcd01a7521de492384ecdf8105a865a91ab214bc84725e27589b34fa55513fe9",
        "5483d0a274df6c0e00926ed89b945b81ba5866451641b9ed34274402d02d7b76",
        "4155d20a371bf664494602848853d8d394be0b8d9aaaf30f383d45b5ab5ae6f6",
    ),
    "isotherm:general_freundlich": (
        "98b405bf020b93f03d8b7433f2d81494ada6ccec70a9147fd4d251f1fb6fdd83",
        "31b7ad9eb4123cd7986312c43bc56e53eed5b2395ddc4344cc37b65caece4a62",
        "bbb56451e7a6289bd6151633dda0976375b69c560131fa5b685918fcf1390e8e",
        "058743058c3e5527c4c0f64b8772be8069107ec5897f84e39a39a7ded30d586f",
    ),
    "isotherm:toth": (
        "67260214036dd33cca55343cbb3ab0110fff921a23189fa055f46f6b91753bdd",
        "ce1dbd335997c48296ac5d2542f5e327ab7943f8eea6f0189866dc72b1807551",
        "9ab5dfc19d984466d9e374b341e8c8095eeee18cf1bae918ae1bd40572729dc9",
        "ffcfb65965c254c5a8d93b4d79bb65777567de1c71ffb27c49f30c885f9048f7",
    ),
    "isotherm:brunauer_emmett_teller": (
        "08079764dd46273a3ccde5522d7ef35f63122df05801f99e3ca533943f673d90",
        "c799614f646606e86d08c9fe22ddedd538c1650356b5b26b05e68889ff559c8a",
        "9ff3fe69c623383bbdce9239cc0357be167e7bb4f453c55da23d6dca043604e1",
        "7f8c102e00585801b946d925fece6185448a7ccfc92b096f55553115852ef439",
    ),
    "isotherm:farley_dzombak_morel": (
        "461ad7430f16d41996abad77ef07ef6c2e25ccd909db5b7b5a073779c59aef5d",
        "49ab70589fd8d04cfcc91e4e90e6db236c4ec1a22494d43e3c67f8cd7b734e2d",
        "1470702d4e5b857be743eca9e20f92330c84cde8d2292d872a69849e2353de79",
        "5bdda480e3fc3c43af5a859209195e8eaa96eaab191155866dd517e5fdc02e2c",
    ),
    "isotherm:redlich_peterson": (
        "bcee8cf603c78a147207ae0aba0b44ff5670b6ccb1c95c8d1ebfbed1cb3dd7ff",
        "03a5de672a25593f70be65983efce587b8f92dc050170c10c395df80755e7dbd",
        "0e8d48567fde29ef6a9a3165e12a83b67e6a9550e17b63a97ec582cae92c3154",
        "afb102dfcf7f03ed458ca702ffb60febedd619d20b82144526d5ac2fae0b7b92",
    ),
    "hyperelastic": (
        "304686886cf1df81e3f9501fbe35d21fb9c0ed65bec4da4dd7eca9f782e60693",
        "c1e0f826858121dc8add58a31601065ca779d27bc1f7d36cad489386e12d4b93",
        "81c62ab3bc8424b3c4033816f077d2d903b0ff531db59150b5136e8b155b8564",
        "e0dd70e7cceb5a2a7648d8aa9a2bfae2eac8d0b7aa96e37b0e8da9611e643d4c",
    ),
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


@pytest.mark.parametrize("task", sorted(GEN_DATA))
def test_gen_data_bytes(task, tmp_path):
    _cli("gen-data", "--task", task, "--seed", DATA_SEED, "--out-dir", tmp_path)
    splits = ("train", "test1", "test2", "test3")
    assert tuple(_sha((tmp_path / f"{s}.csv").read_bytes()) for s in splits) == GEN_DATA[task]
