"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
match the statements below; nothing is calibrated at runtime.

 1. exact density of the example language: 1/48 and 0
 2. automaton/oracle equivalence on samples + exhaustive run enumeration
 3. geometric iteration-length law at N=100000
 4. analytic vs numerical Jacobians of the dimension maps, sizes up to 5
 5. finite-prior chain marginal vs enumerated posterior, TV < 0.1, 3 seeds
 6. prior recovery: sigma KS < 0.05 at N=10000; structure top-10 in 3 SE
 7. end-to-end synthetic sorption fit: median RMSE over 5 seeds
 8. end-to-end hyper-elastic fit: median RMSE over 3 seeds
 9. product automaton scores = product of scores, 50 samples
10. byte-identical CLI outputs for identical seeds
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import all_trees, brute_force_eval

from treegress.experiments import gen_hyperelastic, gen_isotherm, prior_library, rmse
from treegress.inference import (
    McmcConfig,
    expand_params,
    posterior_predict,
    run_chain,
    shrink_params,
)
from treegress.prte import build_prior, prte_density, sample_tree
from treegress.pta import Pta, compile_prior, product, pta_eval
from treegress.trees import RankedAlphabet, RankedSymbol, parse_tree


class criterion:
    """Times the criterion body and enforces its runtime budget."""

    def __init__(self, number, slug, budget_seconds):
        self.number = number
        self.slug = slug
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def check(self, ok, detail):
        elapsed = time.perf_counter() - self.t0
        in_time = elapsed < self.budget
        status = "PASS" if (ok and in_time) else "FAIL"
        print(
            f"\nCRITERION {self.number:02d} {self.slug}: {status} "
            f"({detail}; {elapsed:.1f}s of {self.budget:.0f}s budget)"
        )
        assert ok, f"criterion {self.number} {self.slug}: {detail}"
        assert in_time, f"criterion {self.number} took {elapsed:.1f}s (> {self.budget}s)"


@pytest.fixture(scope="module")
def library():
    return prior_library()


# -- 1 ------------------------------------------------------------------------------

def test_criterion_01_exact_density(library):
    c = criterion(1, "exact-density", 1.0).__enter__()
    e1 = library["E_1"]
    target = parse_tree("(g (g a))", e1.alphabet)
    oracle = prte_density(e1, target)
    pta = compile_prior(e1)
    via_pta = pta_eval(pta, target)
    zero_oracle = prte_density(e1, parse_tree("(f b b)", e1.alphabet))
    zero_pta = pta_eval(pta, parse_tree("(f b b)", e1.alphabet))
    ok = (
        oracle == Fraction(1, 48)
        and abs(via_pta - 1 / 48) <= 1e-12
        and zero_oracle == 0
        and zero_pta == 0.0
    )
    c.check(ok, f"oracle={oracle}, pta diff={abs(via_pta - 1 / 48):.2e}, zeros={zero_oracle},{zero_pta}")


# -- 2 ------------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence(library):
    c = criterion(2, "oracle-equivalence", 30.0).__enter__()
    worst = 0.0
    for prior in library.values():
        pta = compile_prior(prior)
        rng = np.random.default_rng(20)
        for _ in range(100):
            t = sample_tree(prior, rng)
            worst = max(worst, abs(pta_eval(pta, t) - float(prte_density(prior, t))))
    alpha = RankedAlphabet([RankedSymbol("f", 2), RankedSymbol("g", 1), RankedSymbol("a", 0)])
    hand = Pta(
        alpha,
        ("s0", "s1", "s2"),
        [0.5, 0.25, 0.25],
        {
            ("f", 2): ([0, 0, 1], [0.3, 0.4, 0.5], ([1, 0, 2], [1, 2, 2])),
            ("g", 1): ([0, 1, 1, 2], [0.6, 0.2, 0.7, 0.5], ([1, 1, 2, 2],)),
            ("a", 0): ([1, 2], [1.0, 1.0], ()),
        },
    )
    trees = all_trees(alpha, 4)
    exact = all(
        pta_eval(hand, t) == pytest.approx(brute_force_eval(hand, t), abs=1e-14)
        for t in trees
    )
    ok = worst <= 1e-9 and exact
    c.check(ok, f"worst sample gap={worst:.2e} over {len(library)} priors; "
            f"enumeration exact on {len(trees)} trees={exact}")


# -- 3 ------------------------------------------------------------------------------

def test_criterion_03_geometric_length_law(library):
    c = criterion(3, "geometric-length-law", 30.0).__enter__()
    e_sum = library["E_sum"]
    rng = np.random.default_rng(123)
    n = 100_000
    counts = {}
    for _ in range(n):
        t = sample_tree(e_sum, rng)
        l = sum(1 for _, node in t.walk() if node.symbol.name == "f")
        counts[l] = counts.get(l, 0) + 1
    gaps = {}
    ok = True
    for l in (1, 2, 3):
        p = 0.1 ** (l - 1) * 0.9
        se = math.sqrt(p * (1 - p) / n)
        gap = abs(counts.get(l, 0) / n - p)
        gaps[l] = gap / se
        ok = ok and gap < 4 * se
    c.check(ok, "deviations in binomial SEs: "
            + ", ".join(f"l={l}: {g:.2f}" for l, g in gaps.items()))


# -- 4 ------------------------------------------------------------------------------

def _numeric_log_abs_det(fn, point, h=1e-5):
    d = point.size
    jac = np.empty((d, d))
    for j in range(d):
        hi, lo = point.copy(), point.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (fn(hi) - fn(lo)) / (2 * h)
    return math.log(abs(np.linalg.det(jac)))


def test_criterion_04_jacobians():
    c = criterion(4, "jacobians", 10.0).__enter__()
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in range(6):
        for n_star in range(6):
            if n == n_star or n + n_star == 0:
                continue
            point = rng.standard_normal(n + n_star)
            if n_star > n:
                mapper = lambda x: np.concatenate(expand_params(x[:n], x[n:])[:2])
                _, _, analytic = expand_params(point[:n], point[n:])
            else:
                mapper = lambda x: np.concatenate(shrink_params(x[:n], x[n:])[:2])
                _, _, analytic = shrink_params(point[:n], point[n:])
            worst = max(worst, abs(_numeric_log_abs_det(mapper, point) - analytic))
    ok = worst <= 1e-6
    c.check(ok, f"worst |analytic - numeric| = {worst:.2e}")


# -- 5 ------------------------------------------------------------------------------

TOY_TEXT = (
    "choice{ 3/10: 1, 1/4: 2, 3/20: 3, 3/20: +(1, 1), 1/10: +(2, 3), 1/20: *(2, 3) }"
)
TOY_VALUES = {"1": 1.0, "2": 2.0, "3": 3.0, "(+ 1 1)": 2.0, "(+ 2 3)": 5.0, "(* 2 3)": 6.0}


def test_criterion_05_toy_posterior_exactness():
    c = criterion(5, "toy-posterior-exactness", 120.0).__enter__()
    prior = build_prior("toy", TOY_TEXT, variables=["x"])
    y_obs, sigma = 2.2, 0.7
    weights = {
        text: float(prte_density(prior, parse_tree(text, prior.alphabet)))
        * math.exp(-((y_obs - v) ** 2) / (2 * sigma**2))
        for text, v in TOY_VALUES.items()
    }
    z = sum(weights.values())
    exact = {k: w / z for k, w in weights.items()}
    data = ({"x": np.array([0.0])}, np.array([y_obs]))
    tvs = []
    for seed in (1, 2, 3):
        config = McmcConfig(
            burn_in=2000, samples=98_000, thin=1, seed=seed, sigma0=sigma,
            p_global=0.5, p_local=0.5, p_param=0.0, p_sigma=0.0,
        )
        post = run_chain(prior, data, config)
        counts = {}
        for d in post.draws:
            counts[str(d.expr.tree)] = counts.get(str(d.expr.tree), 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / len(post.draws) - p) for k, p in exact.items()
        )
        tvs.append(tv)
    ok = all(tv < 0.1 for tv in tvs)
    c.check(ok, "TV per seed: " + ", ".join(f"{tv:.4f}" for tv in tvs))


# -- 6 ------------------------------------------------------------------------------

def test_criterion_06_prior_recovery(library):
    c = criterion(6, "prior-recovery", 120.0).__enter__()
    e_sum = library["E_sum"]
    config = McmcConfig(
        burn_in=2000, samples=120_000, thin=12, seed=6, prior_only=True,
        p_global=0.25, p_local=0.25, p_param=0.0, p_sigma=0.5, step_sigma=1.2,
    )
    post = run_chain(e_sum, None, config)
    draws = post.draws
    assert len(draws) == 10_000

    sigmas = np.sort(np.array([d.sigma for d in draws]))
    n = len(sigmas)
    cdf = 1.0 - np.exp(-sigmas)
    ks = max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(cdf - np.arange(0, n) / n).max(),
    )

    series = {}
    for i, d in enumerate(draws):
        series.setdefault(str(d.expr.tree), []).append(i)
    top = sorted(series, key=lambda k: len(series[k]), reverse=True)[:10]
    worst_z = 0.0
    batches = 25
    size = n // batches
    for text in top:
        x = np.zeros(n)
        x[series[text]] = 1.0
        means = x[: batches * size].reshape(batches, size).mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(batches)
        p = float(prte_density(e_sum, parse_tree(text, e_sum.alphabet)))
        gap = abs(x.mean() - p)
        worst_z = max(worst_z, gap / se if se > 0 else (0.0 if gap == 0 else math.inf))
    ok = ks < 0.05 and worst_z <= 3.0
    c.check(ok, f"sigma KS={ks:.4f} (n={n}); worst structure z={worst_z:.2f} over top-10")


# -- 7 ------------------------------------------------------------------------------

def test_criterion_07_langmuir_end_to_end(library):
    c = criterion(7, "langmuir-end-to-end", 1800.0).__enter__()
    e_iso = library["E_iso"]
    results = {"test1": [], "test3": []}
    for seed in range(5):
        data = gen_isotherm("langmuir", seed=1000 + seed)
        config = McmcConfig(burn_in=2000, samples=1000, thin=10, seed=seed)
        post = run_chain(e_iso, data["train"], config)
        for split in results:
            ds = data[split]
            bands = posterior_predict(post, ds.inputs())
            finite = np.isfinite(bands["mean"])
            results[split].append(rmse(bands["mean"][finite], ds.target[finite]))
    med1 = float(np.median(results["test1"]))
    med3 = float(np.median(results["test3"]))
    ok = med1 <= 5.0 and med3 <= 15.0
    c.check(ok, f"median RMSE test1={med1:.2f} (<=5), test3={med3:.2f} (<=15) over 5 seeds")


# -- 8 ------------------------------------------------------------------------------

def test_criterion_08_hyperelastic_sanity(library):
    c = criterion(8, "hyperelastic-sanity", 1800.0).__enter__()
    e_hyp = library["E_hyp"]
    scores = []
    for seed in range(3):
        data = gen_hyperelastic(seed=2000 + seed)
        config = McmcConfig(burn_in=2000, samples=1000, thin=10, seed=seed)
        post = run_chain(e_hyp, data["train"], config)
        ds = data["test3"]
        bands = posterior_predict(post, ds.inputs())
        finite = np.isfinite(bands["mean"])
        scores.append(rmse(bands["mean"][finite], ds.target[finite]))
    med = float(np.median(scores))
    ok = med <= 15.0
    c.check(ok, f"median RMSE test3={med:.2f} J (<=15) over 3 seeds")


# -- 9 ------------------------------------------------------------------------------

def test_criterion_09_product_construction(library):
    c = criterion(9, "product-construction", 10.0).__enter__()
    e1 = library["E_1"]
    other = build_prior(
        "variant",
        "iter $y { choice{ 1/2: f($x, $y), 1/4: f($y, $x), 1/4: g($x) } }"
        ".subst($x, iter $x { choice{ 1/10: f($x, $x), 2/10: g($x), 3/10: a, 4/10: b } })",
    )
    a = compile_prior(e1)
    b = compile_prior(other)
    prod = product(a, b)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        t = sample_tree(e1, rng)
        gap = abs(pta_eval(prod, t) - pta_eval(a, t) * pta_eval(b, t))
        worst = max(worst, gap)
    ok = worst <= 1e-9
    c.check(ok, f"worst |product - pointwise| = {worst:.2e} on 50 samples, "
            f"{prod.n_states} product states")


# -- 10 -----------------------------------------------------------------------------

_SRC = Path(__file__).resolve().parent.parent / "src"


# The CLI runs with cwd=tmp_path, where a relative PYTHONPATH such as `src`
# does not resolve, so `_run` puts the checkout's absolute `src` first itself.
# With `pip install -e .` that directory is the same checkout, so the child
# loads the same code with or without an install.
def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "treegress.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, (
        f"treegress.cli {' '.join(args)} exited {proc.returncode} "
        f"(PYTHONPATH={env['PYTHONPATH']}):\n{proc.stderr}"
    )
    return proc.stdout


def test_criterion_10_reproducibility(tmp_path, library):
    c = criterion(10, "reproducibility", 120.0).__enter__()
    prior_dir = _SRC / "treegress" / "priors"
    checks = []

    out = [_run(["parse", "--prior", str(prior_dir / "e_iso.json")], tmp_path) for _ in range(2)]
    checks.append(("parse", out[0] == out[1]))

    out = [
        _run(["sample", "--prior", "E_iso", "--n", "20", "--seed", "13"], tmp_path)
        for _ in range(2)
    ]
    checks.append(("sample", out[0] == out[1]))

    out = [
        _run(["density", "--prior", "E_1", "--tree", "(g (g a))", "--via", "both"], tmp_path)
        for _ in range(2)
    ]
    checks.append(("density", out[0] == out[1]))

    gen_outputs = []
    for run_id in ("a", "b"):
        d = tmp_path / f"gen_{run_id}"
        _run(["gen-data", "--task", "isotherm:langmuir", "--seed", "7", "--out-dir", str(d)], tmp_path)
        gen_outputs.append(b"".join((d / f"{s}.csv").read_bytes() for s in ("train", "test1", "test2", "test3")))
    checks.append(("gen-data", gen_outputs[0] == gen_outputs[1]))

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"burn_in": 100, "samples": 200, "thin": 10, "seed": 3}))
    fit_outputs = []
    for run_id in ("a", "b"):
        out_file = tmp_path / f"post_{run_id}.json"
        stdout = _run(
            ["fit", "--prior", "E_iso", "--train", str(tmp_path / "gen_a" / "train.csv"),
             "--config", str(config), "--out", str(out_file)],
            tmp_path,
        )
        fit_outputs.append(stdout + out_file.read_text())
    checks.append(("fit", fit_outputs[0] == fit_outputs[1]))

    rep_outputs = []
    for run_id in ("a", "b"):
        d = tmp_path / f"rep_{run_id}"
        _run(
            ["report", "--posterior", str(tmp_path / "post_a.json"),
             "--data", str(tmp_path / "gen_a" / "test1.csv"), "--out-dir", str(d),
             "--seed", "5", "--with-noise"],
            tmp_path,
        )
        rep_outputs.append((d / "metrics.csv").read_bytes() + (d / "bands.csv").read_bytes())
    checks.append(("report", rep_outputs[0] == rep_outputs[1]))

    ok = all(flag for _, flag in checks)
    c.check(ok, ", ".join(f"{name}={'ok' if flag else 'DIFFERS'}" for name, flag in checks))
