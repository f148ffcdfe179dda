"""Pinned bytes of the automaton layer: the ``parse --dump-pta`` file of every
shipped prior, the criterion-9 product's dump, and per prior a
``sample_from_state`` stream from every state.

The SHA-256 digests below were recorded before the automaton's transitions
moved from a row dict to per-symbol arrays, with Python 3.11 and numpy 2.4 on
x86-64 Linux.  A change to how the automaton is stored must leave all of them
as they are: the dump order, every probability, every sampled tree and the
random numbers each draw consumes.
"""

import contextlib
import hashlib
import importlib.resources
import io
import json

import numpy as np

from treegress.cli import main
from treegress.prte import build_prior, load_prior
from treegress.pta import compile_prior, product, sample_from_state
from treegress.trees import format_tree

_PRIOR_DIR = importlib.resources.files("treegress") / "priors"
PRIORS = ["e1", "e_sum", "e_iso", "e_hyp", "e_hook", "e_mrs", "e_grm"]
STREAM_SEED = 20
DRAWS_PER_STATE = 50

# The second factor of acceptance criterion 9.
VARIANT = (
    "iter $y { choice{ 1/2: f($x, $y), 1/4: f($y, $x), 1/4: g($x) } }"
    ".subst($x, iter $x { choice{ 1/10: f($x, $x), 2/10: g($x), 3/10: a, 4/10: b } })"
)

EXPECTED = {
    "dump/e1": "1f869804f701f980b6b18c09eb7d7c1cae2bbf43259e5c070610dfd4bc2b8eb9",
    "dump/e_grm": "38e4c54e596b517f8b7dd313120b86737460f29e47c3f3e395fb1bfd24ade0a0",
    "dump/e_hook": "6003d83a98c356d51d3a0a844b74271b4a0a5b9a3ffbbdcb1348ea398239e520",
    "dump/e_hyp": "71a166272b964bf56480c537b5ece75e8313ea7779ee89d610e2693513440049",
    "dump/e_iso": "b36d7a3dbb76963041e02326a3710c141f11eb1fc63efa3e98f368f41ecd1d7e",
    "dump/e_mrs": "15151ba6825778206d1307b5ab18f6af3684664373d4a88cae8bc1951b7f327c",
    "dump/e_sum": "51a17330e475df6b9ded0bbf498dcb5bc8506d0d79e9a488a40ca3711239d8e7",
    "product/criterion-9": "704b451331ab4478c64bbaffc9370f97b368cbe20a06faf941e5ae0fbefd5469",
    "stream/e1": "cdc69f6da73f967cd9da620f4e7ef18580f99e39affc9f3a152779bcc1b1aaab",
    "stream/e_grm": "af3051d7ed5fa0a074d2af878b60cf604c258cd115ef6d5da2f652b8d8f0a686",
    "stream/e_hook": "45c4caf5a5d2f5a9f62182db62c8425818e4b70495432b0b80c730348493d902",
    "stream/e_hyp": "2188350054b4a4c09fab57bc45af5eaa6b8b9ab5dc567e852cf7a109be20cb4f",
    "stream/e_iso": "b2d507a95932eccfe7415ae165be8667a4be250e7de5a8be4df186da7f8a245a",
    "stream/e_mrs": "2a57a4ac9a34750d43a057e1c5d05acb1d826f71b6b238a3406264ef80b7ed9d",
    "stream/e_sum": "5e633752321fb3b14b2e5121f70934fe0e5fd05769f5d093f119f93565ea01a3",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump_pta(stem, tmp_path) -> str:
    out = tmp_path / f"{stem}.pta.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["parse", "--prior", str(_PRIOR_DIR / f"{stem}.json"), "--dump-pta", str(out)])
    assert code == 0
    return _sha(out.read_bytes())


def _stream(stem) -> str:
    """Tree texts of ``DRAWS_PER_STATE`` draws from each state in turn, then
    the generator's final state."""
    pta = compile_prior(load_prior(str(_PRIOR_DIR / f"{stem}.json")))
    rng = np.random.default_rng(STREAM_SEED)
    lines = [
        format_tree(sample_from_state(pta, q, rng))
        for q in range(pta.n_states)
        for _ in range(DRAWS_PER_STATE)
    ]
    lines.append(json.dumps(rng.bit_generator.state, sort_keys=True))
    return _sha("\n".join(lines).encode())


def test_automaton_bytes_are_pinned(tmp_path):
    got = {}
    for stem in PRIORS:
        got[f"dump/{stem}"] = _dump_pta(stem, tmp_path)
        got[f"stream/{stem}"] = _stream(stem)
    e1 = load_prior(str(_PRIOR_DIR / "e1.json"))
    prod = product(compile_prior(e1), compile_prior(build_prior("variant", VARIANT)))
    got["product/criterion-9"] = _sha(prod.to_json().encode())
    assert got == EXPECTED
