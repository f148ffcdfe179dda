"""Tests for synthetic data generation, the prior library, and metrics."""

import hashlib
import json
import math

import numpy as np
import pytest

from treegress import cli, experiments
from treegress.errors import InputError, LengthMismatch
from treegress.experiments import (
    ISOTHERM_NAMES,
    gen_hyperelastic,
    gen_isotherm,
    isotherm_rates,
    ogden_energy,
    prior_library,
    read_dataset,
    rmse,
)
from treegress.prte import prte_density, sample_tree


# -- isotherms -------------------------------------------------------------------

def test_langmuir_closed_form():
    formula = lambda s_T, k, c: s_T * k * c / (1 + k * c)
    assert formula(100.0, 1.0, 1.0) == pytest.approx(50.0)
    # generator agrees with the closed form when noise is off
    data = gen_isotherm("langmuir", seed=7, noise=False)
    train = data["train"]
    p = train.meta["params"]
    expect = formula(p["s_T"], p["k"], train.columns[0])
    assert np.allclose(train.target, expect)


def test_train_set_shape_and_range():
    data = gen_isotherm("langmuir", seed=7)
    train = data["train"]
    assert train.n == 20
    assert train.header == ("c", "s")
    assert ((train.columns[0] >= 20) & (train.columns[0] <= 100)).all()
    assert ((data["test2"].columns[0] >= 0) & (data["test2"].columns[0] <= 20)).all()
    assert ((data["test3"].columns[0] >= 100) & (data["test3"].columns[0] <= 150)).all()


def test_zero_concentration_gives_zero_sorption():
    # every formula with a positive power of c vanishes at c = 0
    vanishing = [
        "langmuir",
        "modified_langmuir",
        "two_site_langmuir",
        "general_langmuir_freundlich",
        "freundlich",
        "general_freundlich",
        "toth",
        "redlich_peterson",
    ]
    for name in vanishing:
        from treegress.experiments import _ISOTHERMS

        formula, order, _, _ = _ISOTHERMS[name]
        params = {k: 0.5 for k in order}
        assert formula(params, np.array([0.0]))[0] == pytest.approx(0.0)


def test_generated_targets_finite_everywhere():
    for name in ISOTHERM_NAMES:
        for seed in (1, 2, 3):
            data = gen_isotherm(name, seed=seed, noise=False)
            for split, ds in data.items():
                assert np.isfinite(ds.target).all(), (name, seed, split)


def test_nonnegative_outside_pole_families():
    pole_families = {"brunauer_emmett_teller", "farley_dzombak_morel"}
    for name in ISOTHERM_NAMES:
        if name in pole_families:
            continue
        for seed in (1, 2, 3):
            data = gen_isotherm(name, seed=seed, noise=False)
            for ds in data.values():
                assert (ds.target >= 0).all(), (name, seed)


def test_seed_determinism():
    a = gen_isotherm("toth", seed=11)
    b = gen_isotherm("toth", seed=11)
    for split in a:
        for ca, cb in zip(a[split].columns, b[split].columns):
            assert ca.tobytes() == cb.tobytes()


def test_unknown_isotherm_rejected():
    with pytest.raises(InputError, match="unknown isotherm 'linear'"):
        gen_isotherm("linear", seed=0)


def test_rate_overrides():
    assert isotherm_rates("toth")["alpha"] == 0.75
    assert isotherm_rates("redlich_peterson")["alpha"] == 0.75
    bet = isotherm_rates("brunauer_emmett_teller")
    assert (bet["k_1"], bet["k_2"], bet["k_3"]) == (0.25, 4.0, 100.0)
    two = isotherm_rates("two_site_langmuir")
    assert (two["k_1"], two["k_2"]) == (8.0, 8.0)
    assert isotherm_rates("langmuir") == {"s_T": 0.015, "k": 4.0}


def test_split_meta_holds_only_the_keys_that_are_read():
    for name in ISOTHERM_NAMES:
        data = gen_isotherm(name, seed=4)
        assert list(data) == ["train", "test1", "test2", "test3"]
        for ds in data.values():
            assert set(ds.meta) == {"params", "resampled"}
            assert ds.meta["params"] == data["train"].meta["params"]
    assert all(ds.meta == {} for ds in gen_hyperelastic(seed=4).values())


# -- pole redraw ------------------------------------------------------------------------
# At POLE_EPS = 1e-6 no seed from 0 to 2,999 lands an input near either pole, so these
# widen the band until seed 0 redraws 3 train and 2 test1 inputs of both isotherms.
# Neither formula uses ``**``, so the digests hold whichever power loop numpy picks.

POLE_CSV_SHA256 = {
    "brunauer_emmett_teller": {
        "train": "de679a470fd144991e4b70d04bd184000a603f86c9dcf88f1711697cd0d7cc25",
        "test1": "c12354ac96ff023b78e0fd146d6f57274b276d6857bbdb7b0d4876d07b9c6b24",
        "test2": "918dc96cef7904b879d8423d380d3535c85a76fd10f53f156c74bd1978a1bee4",
        "test3": "0c3388b513ca75fccc3a115ae55b6d0bc41b9c9322f7fdcd4ac9c18dcb337368",
    },
    "farley_dzombak_morel": {
        "train": "206c5b7025679aebef51aa194d73a5feb61c092f07d3096036d169edda1b5378",
        "test1": "a6400424c408128f8b7473c4c9f3b18c8304801f75a4b4f44a555e7e2c581e8d",
        "test2": "e194d1314a812da6c57a6a1a471ed7decbfc28885b6377fa11a18a55eb04c9d8",
        "test3": "24d49579deef4df7afb2e725558de988029e662e9bb53debf4f2de5a69a1b169",
    },
}


def _gen_data(capsys, tmp_path, name):
    code = cli.main(["gen-data", "--task", f"isotherm:{name}", "--seed", "0",
                     "--out-dir", str(tmp_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(POLE_CSV_SHA256))
def test_pole_adjacent_inputs_are_redrawn_and_reported(monkeypatch, capsys, tmp_path, name):
    monkeypatch.setattr(experiments, "POLE_EPS", 0.05)
    data = gen_isotherm(name, seed=0)
    assert {split: ds.meta["resampled"] for split, ds in data.items()} == {
        "train": 3, "test1": 2, "test2": 0, "test3": 0}
    code, err = _gen_data(capsys, tmp_path, name)
    assert code == 0
    assert [json.loads(line) for line in err.splitlines()] == [
        {"note": "pole-adjacent inputs redrawn", "split": "train", "count": 3},
        {"note": "pole-adjacent inputs redrawn", "split": "test1", "count": 2},
    ]
    digests = {split: hashlib.sha256((tmp_path / f"{split}.csv").read_bytes()).hexdigest()
               for split in POLE_CSV_SHA256[name]}
    assert digests == POLE_CSV_SHA256[name]


def test_an_unavoidable_pole_is_a_runtime_failure(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(experiments, "POLE_EPS", 10)
    monkeypatch.setattr(experiments, "POLE_RETRIES", 3)
    code, err = _gen_data(capsys, tmp_path, "brunauer_emmett_teller")
    assert code == 3
    assert json.loads(err) == {"error": "RuntimeFailure",
                               "message": "brunauer_emmett_teller/train: cannot avoid pole"}


# -- hyper-elastic ------------------------------------------------------------------

def test_undeformed_state_zero_energy():
    ones = np.ones(4)
    assert np.allclose(ogden_energy(ones, ones, ones), 0.0)


def test_ogden_energy_single_stretch():
    w = ogden_energy(np.array([2.0]), np.array([1.0]), np.array([1.0]))
    expect = (1.5 / 1.75) * (2**1.75 - 1) + (0.1 / 2.5) * (2**2.5 - 1)
    assert w[0] == pytest.approx(expect)


def test_hyperelastic_ranges_and_header():
    data = gen_hyperelastic(seed=3)
    assert data["train"].header == ("l1", "l2", "l3", "w")
    t3 = data["test3"]
    for col in t3.columns[:3]:
        assert ((col >= 2.5) & (col <= 5.0)).all()


def test_hyperelastic_noise_scale():
    clean = gen_hyperelastic(seed=9, noise=False)
    noisy = gen_hyperelastic(seed=9, noise=True)
    diff = noisy["train"].target - clean["train"].target
    assert 0 < np.abs(diff).max() < 0.1


# -- prior library --------------------------------------------------------------------

def test_library_contents():
    lib = prior_library()
    for name in ("E_iso", "E_hyp", "E_hook", "E_MRS", "E_GRM", "E_1", "E_sum"):
        assert name in lib


def test_hook_prior_is_deterministic():
    lib = prior_library()
    hook = lib["E_hook"]
    t = sample_tree(hook, np.random.default_rng(0))
    assert prte_density(hook, t) == 1


def test_mrs_prior_is_deterministic():
    lib = prior_library()
    mrs = lib["E_MRS"]
    a = sample_tree(mrs, np.random.default_rng(0))
    b = sample_tree(mrs, np.random.default_rng(1))
    assert a == b
    assert prte_density(mrs, a) == 1


# -- csv round trip ---------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    data = gen_isotherm("freundlich", seed=5)
    path = tmp_path / "train.csv"
    data["train"].to_csv(path)
    text = path.read_text()
    assert text.startswith("c,s\n")
    assert '"' not in text
    back = read_dataset(path)
    assert back.header == ("c", "s")
    for a, b in zip(back.columns, data["train"].columns):
        assert a.tobytes() == b.tobytes()


# -- rmse ----------------------------------------------------------------------------------

def test_rmse_identical_zero():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_three_four():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))


def test_rmse_constant_offset():
    x = np.linspace(0, 1, 9)
    assert rmse(x + 0.25, x) == pytest.approx(0.25)


def test_rmse_length_mismatch():
    with pytest.raises(LengthMismatch):
        rmse([1.0], [1.0, 2.0])
