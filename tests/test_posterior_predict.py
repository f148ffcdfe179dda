"""The predictive bands against the dense computation they replace.

``posterior_predict`` evaluates each distinct expression once and reads a
point's quantiles from its distinct values and their draw counts.  The dense
code below expands every point to all its draws and runs ``np.percentile``
and ``np.mean`` on each row; the bands must be its bytes: on random
posteriors, on the benchmark's reference posteriors, and in the files
``report`` writes.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegress.cli import _BANDS, main
from treegress.errors import InputError
from treegress.experiments import Dataset, gen_hyperelastic, gen_isotherm, read_dataset, rmse
from treegress.inference import (
    Draw,
    McmcConfig,
    Posterior,
    posterior_from_json,
    posterior_predict,
    posterior_to_json,
    run_chains,
)
from treegress.trees import SymbolicExpression, eval_expression, parse_tree

KEYS = ("mean", "q05", "q50", "q95", "dropped")


def oracle(posterior, inputs, rng=None):
    """posterior_predict as it was: a points x draws matrix, reduced by numpy row by row."""
    if not posterior.draws:
        raise InputError("posterior holds no draws")
    inputs = {k: np.asarray(v, dtype=float) for k, v in inputs.items()}
    exprs, index = posterior.distinct
    values = np.take(np.column_stack([eval_expression(e, inputs) for e in exprs]), index, axis=1)
    n = values.shape[0]
    if rng is not None:
        sigmas = np.array([d.sigma for d in posterior.draws])
        values += sigmas * rng.standard_normal((sigmas.size, n)).T
    finite = np.isfinite(values)
    dropped = (~finite).sum(axis=1)
    mean = np.full(n, np.nan)
    quantiles = np.full((3, n), np.nan)
    whole = np.flatnonzero(dropped == 0)
    for start in range(0, whole.size, 256):
        idx = whole[start:start + 256]
        rows = values[idx]
        mean[idx] = rows.mean(axis=1)
        quantiles[:, idx] = np.percentile(rows, [5.0, 50.0, 95.0], axis=1)
    for j in np.flatnonzero(dropped):
        row = values[j, finite[j]]
        if row.size:
            mean[j] = row.mean()
            quantiles[:, j] = np.percentile(row, [5.0, 50.0, 95.0])
    return {"mean": mean, "q05": quantiles[0], "q50": quantiles[1], "q95": quantiles[2],
            "dropped": dropped}


def assert_same_bands(posterior, inputs, seed=None):
    def rng():
        return None if seed is None else np.random.default_rng(seed)

    got, want = posterior_predict(posterior, inputs, rng()), oracle(posterior, inputs, rng())
    for key in KEYS:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key
    # the noise-free value of each distinct expression, one column each
    columns = np.column_stack([eval_expression(e, inputs) for e in posterior.distinct[0]])
    assert got["columns"].tobytes() == columns.tobytes()


# -- random posteriors --------------------------------------------------------------------

# x holds both zeros, so products and sums give zeros of either sign; 1e300 overflows
# a product to ±inf, and a quotient by a zero x is NaN: partial and total drops
POINTS = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.0, 1e300]),
                  min_size=1, max_size=8)
TREES = [parse_tree(text) for text in
         ("x", "c#", "(* c# x)", "(/ c# x)", "(+ x c#)", "(- c# x)", "(* c# (* x x))")]
PARAMS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e300, -3.0])
SIGMAS = st.sampled_from([0.0, 0.5, 2.0, 1e308])


@st.composite
def expressions(draw):
    tree = draw(st.sampled_from(TREES))
    return SymbolicExpression(tree, tuple(draw(PARAMS) for _ in range(tree.n_const)))


@st.composite
def posteriors(draw):
    pool = draw(st.lists(expressions(), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.sampled_from(["same", "copy", "new"])),
                          min_size=1, max_size=300))
    draws, last = [], {}
    for i, how in picks:
        if how == "same" and i in last:  # the draw object again, as a run of one state
            d = last[i]
        elif how == "copy":  # an equal expression in another object: the same column
            e = pool[i]
            d = Draw(SymbolicExpression(e.tree, e.theta_c, e.theta_d, e.ties), draw(SIGMAS), -1.0)
        else:
            d = Draw(pool[i], draw(SIGMAS), -1.0)
        draws.append(d)
        last[i] = d
    return Posterior(tuple(draws), {}, McmcConfig(), 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(posteriors(), POINTS, st.one_of(st.none(), st.integers(0, 2**32)))
def test_the_bands_are_the_dense_bands(posterior, x, seed):
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 and 1e308 overflow on purpose
        assert_same_bands(posterior, {"x": np.array(x)}, seed)


@pytest.mark.parametrize("both", [False, True])
@pytest.mark.parametrize("n", range(1, 61))
def test_signed_zeros_at_every_order_statistic(n, both):
    # x + c is x for c = -0.0, and c for the other constants: a point at
    # x = -0.0 holds only -0.0 among its zeros, one at x = 0.0 only 0.0, unless
    # a c = 0.0 column puts 0.0 beside the -0.0; the weights put the zeros at
    # the order statistics of many points
    rng = np.random.default_rng(n)
    values = [-2.0, -0.0, 1.0, 3.0] + [0.0] * both
    exprs = [SymbolicExpression(parse_tree("(+ x c#)"), (v,)) for v in values]
    counts = rng.multinomial(n, np.full(len(values), 1 / len(values)))
    draws = [Draw(e, 0.1, -1.0) for e, c in zip(exprs, counts) for _ in range(c)]
    rng.shuffle(draws)
    assert_same_bands(Posterior(tuple(draws), {}, McmcConfig(), 0),
                      {"x": rng.choice([-0.0, 0.0], size=40)})


def test_every_split_of_the_draws_between_two_expressions():
    # m draws of one expression and n - m of another: the boundary between
    # them falls on every order statistic's position and on its upper neighbour
    a, b = (SymbolicExpression(parse_tree("(* c# x)"), (c,)) for c in (1.0, 3.0))
    x = {"x": np.array([-1.0, 0.5, 2.0])}
    for n in range(9, 41):  # 2 columns, at least 9 draws: the counted path
        for m in range(1, n):
            draws = tuple(Draw(a if i < m else b, 0.1, -1.0) for i in range(n))
            assert_same_bands(Posterior(draws, {}, McmcConfig(), 0), x)


@pytest.mark.parametrize("k", [3, 100, 249, 250, 251, 500, 900, 1000])
def test_the_counted_quantiles_take_points_with_under_a_quarter_as_many_columns_as_draws(
        monkeypatch, k):
    # k distinct expressions in 1,000 draws, each drawn at least once; the
    # counted read costs what numpy's partition does at about a quarter as
    # many columns as draws, so from 250 on every point goes through np.percentile
    rng = np.random.default_rng(k)
    tree = parse_tree("(* c# x)")
    exprs = [SymbolicExpression(tree, (float(c),)) for c in rng.standard_normal(k)]
    picks = np.concatenate([np.arange(k), rng.integers(0, k, 1000 - k)])
    rng.shuffle(picks)
    post = Posterior(tuple(Draw(exprs[i], 0.1, -1.0) for i in picks), {}, McmcConfig(), 0)
    x = {"x": np.linspace(0.5, 3.0, 40)}
    real, rows = np.percentile, []
    monkeypatch.setattr(np, "percentile", lambda a, *rest, **kw: rows.append(len(a)) or
                        real(a, *rest, **kw))
    assert_same_bands(post, x)
    assert rows[0] == (0 if 4 * k < 1000 else 40)  # the first call is posterior_predict's


def test_no_draws_is_an_input_error():
    with pytest.raises(InputError, match="no draws"):
        posterior_predict(Posterior((), {}, McmcConfig(), 0), {"x": np.zeros(3)})


# -- the reference posteriors -------------------------------------------------------------


def _grid(names, lo, hi, target):
    """2,000 points drawn as bench/run.py draws its concentration grid."""
    rng = random.Random(7)
    cols = [np.array([rng.uniform(lo, hi) for _ in range(2000)]) for _ in names]
    return Dataset((*names, target), (*cols, np.zeros(2000)))


@pytest.fixture(scope="module", params=["langmuir", "ogden"])
def reference(request, e_iso, e_hyp):
    """(posterior as `report` loads it, its datasets by split): data seed 7, chain seed 0."""
    if request.param == "langmuir":
        data, prior, chains = gen_isotherm("langmuir", 7), e_iso, 1
        data["grid"] = _grid(("c",), 0.0, 150.0, "s")
    else:
        data, prior, chains = gen_hyperelastic(7), e_hyp, 2
        data["grid"] = _grid(("l1", "l2", "l3"), 0.6, 1.8, "w")
    config = McmcConfig(burn_in=2000, samples=1000, thin=1, seed=0)
    post = run_chains(prior, data.pop("train"), config, chains)
    return posterior_from_json(posterior_to_json(post)), data


def test_the_reference_bands_are_the_dense_bands(reference):
    post, data = reference
    assert len(post.distinct[0]) < 10 < len(post.draws)  # few distinct expressions, many draws
    for ds in data.values():
        assert_same_bands(post, ds.inputs())
        assert_same_bands(post, ds.inputs(), seed=11)


def oracle_report(posterior, paths, rng=None):
    """(metrics.csv, bands.csv) as `report` wrote them: each distinct expression
    evaluated for the RMSE and again for the dense bands, cell by cell."""
    exprs, index = posterior.distinct
    metrics, lines, x_names = [], [], None
    for path in paths:
        ds = read_dataset(path)
        inputs = ds.inputs()
        if x_names is None:
            x_names = list(inputs)
            lines.append(",".join(["dataset", *x_names, *_BANDS, "flagged"]) + "\n")
        preds = [eval_expression(e, inputs) for e in exprs]
        errors = np.array([rmse(p, ds.target) if np.isfinite(p).all() else math.nan
                           for p in preds])[index]
        per_draw = errors[~np.isnan(errors)]
        mean, std = (np.mean(per_draw), np.std(per_draw)) if per_draw.size else (math.nan,) * 2
        metrics.append(f"{path.stem},{float(mean)!r},{float(std)!r},"
                       f"{errors.size - per_draw.size}\n")
        bands = oracle(posterior, inputs, rng=rng)
        columns = [inputs[v] for v in x_names] + [bands[q] for q in _BANDS]
        for j in np.argsort(inputs[x_names[0]], kind="stable"):
            cells = ",".join(repr(float(c[j])) for c in columns)
            lines.append(f"{path.stem},{cells},{int(bands['dropped'][j] == len(posterior.draws))}\n")
    return "dataset,rmse_mean,rmse_std,dropped_draws\n" + "".join(metrics), "".join(lines)


@pytest.mark.parametrize("noise", [False, True])
def test_the_reference_reports_are_the_dense_reports(reference, tmp_path, capsys, noise):
    post, data = reference
    post_path = tmp_path / "posterior.json"
    post_path.write_text(posterior_to_json(post), encoding="utf-8")
    paths = []
    for split, ds in data.items():
        paths.append(tmp_path / f"{split}.csv")
        ds.to_csv(paths[-1])
    argv = ["report", "--posterior", str(post_path), "--data", *map(str, paths),
            "--out-dir", str(tmp_path / "report"), "--seed", "5"]
    assert main(argv + ["--with-noise"] * noise) == 0
    capsys.readouterr()
    metrics, bands = oracle_report(posterior_from_json(post_path.read_text(encoding="utf-8")),
                                   paths, np.random.default_rng(5) if noise else None)
    assert (tmp_path / "report" / "metrics.csv").read_text(encoding="utf-8") == metrics
    assert (tmp_path / "report" / "bands.csv").read_text(encoding="utf-8") == bands


# -- memory -------------------------------------------------------------------------------


def test_the_bands_of_a_repeated_posterior_hold_no_points_by_draws_matrix(monkeypatch):
    # 2,000 points x 1,000 draws over 3 distinct expressions: the dense matrix
    # alone is 16 MB; the bands need one block of 256 expanded rows, 2 MB
    tree = parse_tree("(* c# x)")
    runs = [(Draw(SymbolicExpression(tree, (c,)), 0.1, -1.0), k)
            for c, k in ((1.0, 500), (2.0, 300), (3.0, 200))]
    post = Posterior(tuple(d for d, k in runs for _ in range(k)), {}, McmcConfig(), 0)
    x = {"x": np.linspace(0.1, 10.0, 2000)}
    post.distinct  # keyed before measuring
    tracemalloc.start()
    try:
        got = posterior_predict(post, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # no row holds a zero, so every quantile is read from the draw counts
    real, rows = np.percentile, []
    monkeypatch.setattr(np, "percentile", lambda a, *rest, **k: rows.append(len(a)) or
                        real(a, *rest, **k))
    again = posterior_predict(post, x)
    assert all(again[key].tobytes() == got[key].tobytes() for key in KEYS)
    assert sum(rows) == 0
