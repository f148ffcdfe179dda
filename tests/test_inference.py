"""Tests for the reversible-jump sampler.

Independent oracles (those of ``tests/oracles.py`` and these):
    - hand-computed Gaussian log-densities
    - central-difference Jacobian determinants of the dimension maps
    - the exponential prior law of the noise scale under a constant likelihood
    - every E_1 tree within a depth of 3, scored exactly
"""

import itertools
import json
import math
import struct
import sys
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegress.errors import InputError, LengthMismatch, SizeMismatch
from treegress.inference import (
    MOVES,
    Draw,
    McmcConfig,
    Posterior,
    _ChainContext,
    _stdnorm_logpdf,
    _sum_squared_error,
    expand_params,
    posterior_from_json,
    posterior_predict,
    posterior_to_json,
    run_chain,
    run_chains,
    shrink_params,
)
import oracles
from helpers import addresses
from oracles import jump_map, numeric_log_abs_det, reference_ties, stdnorm_logpdf, theta_jump
from treegress.prte import build_prior, prte_density
from treegress.pta import compile_prior, pta_eval
from treegress.trees import SymbolicExpression, Tree, parse_tree

LOG_2PI = math.log(2 * math.pi)


def expr_of(text, **kw):
    return SymbolicExpression(parse_tree(text), **kw)


# -- likelihood ------------------------------------------------------------------

LIK_PRIOR = build_prior(
    "lik",
    "choice{ 1/3: x, 1/3: /(1, x), 1/3: c# }",
    variables=["x"],
    markers={"c#": {"dist": "normal", "mean": 0.0, "stddev": 1.0}},
)


def log_likelihood(expr, sigma, data):
    """The log-likelihood the chain scores a state with: ``ChainState.log_lik``."""
    ctx = _ChainContext(LIK_PRIOR, compile_prior(LIK_PRIOR), data, McmcConfig())
    return ctx.make_state(expr, sigma).log_lik


def test_perfect_fit_loglik():
    e = expr_of("x")
    x = np.linspace(0.5, 3.0, 7)
    ll = log_likelihood(e, 1.0, ({"x": x}, x.copy()))
    assert ll == pytest.approx(-7 / 2 * LOG_2PI)


def test_divide_by_zero_gives_minus_inf():
    e = expr_of("(/ 1 x)")
    ll = log_likelihood(e, 1.0, ({"x": np.array([0.0, 1.0])}, np.array([1.0, 1.0])))
    assert ll == -math.inf


def test_three_point_hand_computed():
    e = expr_of("c#", theta_c=(5.0,))
    y = np.array([4.0, 5.0, 7.0])
    ll = log_likelihood(e, 2.0, ({"x": np.zeros(3)}, y))
    sse = 1.0 + 0.0 + 4.0
    assert ll == pytest.approx(-1.5 * LOG_2PI - 3 * math.log(2.0) - sse / 8.0)


def test_sum_squared_error_of_a_non_finite_prediction_is_inf():
    y = np.array([1.0, 2.0, 3.0])
    with np.errstate(all="ignore"):  # the chain's error state, entered once per run
        for bad in (math.nan, math.inf, -math.inf):
            pred = {"x": np.array([1.0, bad, 3.0])}
            assert _sum_squared_error(expr_of("x"), pred, 3, y) == math.inf
        # finite residuals whose squares overflow
        pred = {"x": np.array([1e200, 2.0, -1e200])}
        assert _sum_squared_error(expr_of("x"), pred, 3, y) == math.inf


def test_sum_squared_error_matches_np_sum_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        pred = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        sse = _sum_squared_error(expr_of("x"), {"x": pred}, n, y)
        assert sse.hex() == float(np.sum((y - pred) ** 2)).hex()


# -- proposals the parameter prior rejects -------------------------------------------


def test_zero_parameter_prior_is_scored_without_the_data(e_iso, monkeypatch):
    import treegress.inference as inf
    from treegress.experiments import gen_isotherm
    from treegress.prte import sample_expression

    ctx = _ChainContext(e_iso, compile_prior(e_iso), gen_isotherm("langmuir", 7)["train"],
                        McmcConfig())
    expr = sample_expression(e_iso, np.random.default_rng(0))
    # every E_iso marker is exp
    negative = SymbolicExpression(expr.tree, (-0.5, *expr.theta_c[1:]), expr.theta_d, expr.ties)

    def no_evaluation(*_):
        raise AssertionError("evaluated a proposal whose parameter prior is zero")

    monkeypatch.setattr(inf, "_sum_squared_error", no_evaluation)
    state = ctx.make_state(negative, 1.5)
    assert state.log_prior_params == -math.inf
    assert state.log_lik == -math.inf and state.sse == math.inf
    assert state.log_prior_tree == ctx.log_prior_tree(negative.tree)
    assert state.log_prior_sigma == ctx.log_prior_sigma(1.5)
    monkeypatch.undo()
    assert math.isfinite(ctx.make_state(expr, 1.5).log_lik)


def test_chain_evaluates_only_proposals_with_a_finite_parameter_prior(e_iso, monkeypatch):
    import treegress.inference as inf
    from treegress.experiments import gen_isotherm

    data = gen_isotherm("langmuir", 7)["train"]
    config = McmcConfig(burn_in=2000, samples=1000, thin=10, seed=0)
    scorer = _ChainContext(e_iso, compile_prior(e_iso), data, config)
    real_sse = inf._sum_squared_error
    log_priors = []  # the parameter prior of each expression the chain evaluates

    def counted(expr, columns, n, y):
        log_priors.append(scorer.log_prior_params(expr))
        return real_sse(expr, columns, n, y)

    def evaluate_always(self, expr, sigma, log_tree=None):
        """make_state scoring every proposal on the data: the reference."""
        sse = inf._sum_squared_error(expr, self.inputs, self.n, self.y)
        return inf.ChainState(
            expr=expr, sigma=sigma, log_lik=inf._log_lik_from_sse(sse, sigma, self.y.size),
            log_prior_tree=self.log_prior_tree(expr.tree) if log_tree is None else log_tree,
            log_prior_params=self.log_prior_params(expr),
            log_prior_sigma=self.log_prior_sigma(sigma), sse=sse)

    monkeypatch.setattr(inf, "_sum_squared_error", counted)
    post = run_chain(e_iso, data, config)
    skipping = list(log_priors)
    log_priors.clear()
    monkeypatch.setattr(_ChainContext, "make_state", evaluate_always)
    reference = run_chain(e_iso, data, config)

    assert skipping and all(math.isfinite(lp) for lp in skipping)
    zero_prior = sum(lp == -math.inf for lp in log_priors)
    assert zero_prior > 0 and len(skipping) == len(log_priors) - zero_prior
    assert posterior_to_json(post) == posterior_to_json(reference)
    assert post.accept_stats == reference.accept_stats


# -- dimension maps ----------------------------------------------------------------

def test_expand_worked_example():
    theta_star, u_star, logdet = expand_params([4.0], [2.0, 9.0])
    assert theta_star == (3.0, 9.0)
    assert u_star == (1.0,)
    assert logdet == pytest.approx(-math.log(2.0))


def test_expand_from_empty():
    theta_star, u_star, logdet = expand_params([], [7.0])
    assert theta_star == (7.0,)
    assert u_star == ()
    assert logdet == 0.0


def test_shrink_worked_example():
    theta_star, u_star, logdet = shrink_params([3.0, 7.0], [1.0])
    assert theta_star == (4.0,)
    assert u_star == (2.0, 7.0)
    assert logdet == pytest.approx(math.log(2.0))


def test_shrink_to_empty():
    theta_star, u_star, logdet = shrink_params([3.0, 7.0], [])
    assert theta_star == ()
    assert u_star == (3.0, 7.0)
    assert logdet == 0.0


def test_size_mismatch_errors():
    with pytest.raises(SizeMismatch):
        expand_params([1.0, 2.0], [3.0])
    with pytest.raises(SizeMismatch):
        shrink_params([1.0], [2.0, 3.0])


def test_shrink_undoes_expand():
    rng = np.random.default_rng(0)
    for n, n_star in [(0, 1), (1, 3), (2, 5), (4, 5)]:
        theta = rng.standard_normal(n)
        u = rng.standard_normal(n_star)
        theta_star, u_star, logdet = expand_params(theta, u)
        theta_back, u_back, logdet_back = shrink_params(theta_star, u_star)
        assert np.allclose(theta_back, theta)
        assert np.allclose(u_back, u)
        assert logdet + logdet_back == pytest.approx(0.0)


@pytest.mark.parametrize("n,n_star", [(n, m) for n in range(6) for m in range(6) if n != m and n + m > 0])
def test_jacobian_matches_finite_differences(n, n_star):
    rng = np.random.default_rng(100 + 10 * n + n_star)
    point = rng.standard_normal(n + n_star)
    if n_star > n:
        _, _, analytic = expand_params(point[:n], point[n:])
    else:
        _, _, analytic = shrink_params(point[:n], point[n:])
    assert numeric_log_abs_det(jump_map(n, n_star), point) == pytest.approx(
        analytic, abs=1e-6
    )


def _draw_theta_jump(theta_old, n_new: int, rng):
    n_old = len(theta_old)
    u = rng.standard_normal(n_new) if n_new != n_old else np.zeros(0)
    return theta_jump(theta_old, n_new, u)


def test_jump_reversibility_terms():
    # the reverse jump with the returned auxiliaries undoes the forward jump
    # and its terms are the exact mirror, so forward and reverse acceptance
    # ratios multiply to one
    rng = np.random.default_rng(3)
    for n_old, n_new in [(1, 4), (4, 1), (2, 2), (0, 3), (3, 0)]:
        theta = rng.standard_normal(n_old)
        u = rng.standard_normal(n_new) if n_new != n_old else np.zeros(0)
        theta_new, u_star, logdet, log_pu, log_pu_rev = theta_jump(
            theta, n_new, u
        )
        theta_back, u_back, logdet_r, log_pu_r, log_pu_rev_r = theta_jump(
            theta_new, n_old, u_star
        )
        assert np.allclose(theta_back, theta)
        assert np.allclose(u_back, u)
        assert logdet_r == pytest.approx(-logdet)
        assert log_pu_r == pytest.approx(log_pu_rev)
        assert log_pu_rev_r == pytest.approx(log_pu)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def test_float_jump_matches_the_numpy_oracle_to_the_bit():
    # the jump _jump_to makes, on the floats of rng.standard_normal(n).tolist(),
    # against the numpy maps it replaced, in both directions over sizes 0-25;
    # the auxiliary densities against the exactly summed oracle
    rng = np.random.default_rng(21)
    jumps = 0
    for n_old in range(26):
        for n_new in range(26):
            if n_old == n_new:
                continue
            for _ in range(4):
                theta = (rng.standard_normal(n_old) * rng.choice([0.01, 1.0, 1e3], n_old)).tolist()
                u = rng.standard_normal(n_new).tolist()
                jump = expand_params if n_new > n_old else shrink_params
                theta_new, u_star, logdet = jump(theta, u)
                want = theta_jump(theta, n_new, np.array(u))
                assert type(theta_new) is tuple and type(u_star) is tuple
                assert all(type(x) is float for x in theta_new + u_star)
                assert _bits(theta_new) == _bits(want[0].tolist())
                assert _bits(u_star) == _bits(want[1].tolist())
                assert _bits([logdet]) == _bits([want[2]])
                got = (_stdnorm_logpdf(u), _stdnorm_logpdf(u_star))
                assert _bits(got) == _bits([stdnorm_logpdf(u), stdnorm_logpdf(u_star)])
                jumps += 1
    assert jumps >= 2000


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                                math.nan, 1e300, -1e300, 1.0])


@st.composite
def _float_vectors(draw):
    """Seeded normal vectors of length 0-400 at one of several scales, salted
    with any floats: zeros of both signs, subnormals, infinities, NaN."""
    n = draw(st.integers(0, 400))
    scale = draw(st.sampled_from([0.0, 1e-320, 1e-160, 1.0, 1e150, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal(n) * scale).tolist()
    for at, value in draw(st.lists(st.tuples(st.integers(0, 399), st.floats() | _EDGE_FLOATS),
                                   max_size=12)):
        if at < n:
            values[at] = value
    return values


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_float_vectors())
@example([1e154, 1e154])  # finite squares whose sum passes float range
def test_stdnorm_logpdf_is_the_exactly_summed_density(values):
    # the exact sum rounded once; -inf past float range or on an infinite square, so
    # a jump with such auxiliaries is rejected, and NaN from a NaN entry
    got = _stdnorm_logpdf(values)
    if any(math.isnan(x) for x in values):
        assert math.isnan(got)
        return
    try:
        want = stdnorm_logpdf(values)
    except OverflowError:  # past float range, or an infinite square
        want = -math.inf
    assert _bits([got]) == _bits([want])


# -- config ------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InputError):
        McmcConfig(p_global=0.5, p_local=0.5, p_param=0.5, p_sigma=0.5)
    with pytest.raises(InputError):
        McmcConfig(samples=1001, thin=10)
    with pytest.raises(InputError):
        McmcConfig(tau=0.0)
    # a JSON true is a bool, not 1: only a bool field takes it
    for field in ("burn_in", "tau", "sigma0", "max_depth"):
        with pytest.raises(InputError, match=field):
            McmcConfig(**{field: True})
    # a JSON NaN or Infinity is a float; no float field takes it
    for field, value in [("tau", math.nan), ("tau", math.inf), ("p_global", math.nan),
                         ("step_sigma", math.nan), ("step_theta", math.inf),
                         ("lambda_sigma", math.nan), ("sigma0", math.nan), ("sigma0", math.inf),
                         ("sigma0", -math.inf)]:
        with pytest.raises(InputError, match=f"{field} must be finite"):
            McmcConfig(**{field: value})
    with pytest.raises(InputError, match="max_depth"):
        McmcConfig(max_depth=0)
    McmcConfig(prior_only=True)
    assert McmcConfig().max_depth is None  # defaults valid; None is the prior's depth


# -- prior recovery -------------------------------------------------------------------

def test_sigma_matches_its_prior_without_likelihood(e_sum):
    config = McmcConfig(
        burn_in=500,
        samples=12_000,
        thin=4,
        seed=5,
        prior_only=True,
        p_global=0.25,
        p_local=0.25,
        p_param=0.0,
        p_sigma=0.5,
        step_sigma=1.2,
    )
    post = run_chain(e_sum, None, config)
    sigmas = np.sort([d.sigma for d in post.draws])
    n = len(sigmas)
    cdf = 1.0 - np.exp(-config.lambda_sigma * sigmas)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(cdf - ecdf_lo).max())
    assert ks < 0.1


def test_structure_marginal_matches_prior_density(e_sum):
    config = McmcConfig(
        burn_in=500,
        samples=12_000,
        thin=4,
        seed=8,
        prior_only=True,
        p_global=0.5,
        p_local=0.5,
        p_param=0.0,
        p_sigma=0.0,
    )
    post = run_chain(e_sum, None, config)
    counts = {}
    for d in post.draws:
        counts[d.expr.tree] = counts.get(d.expr.tree, 0) + 1
    n = len(post.draws)
    top = sorted(counts, key=counts.get, reverse=True)[:5]
    for tree in top:
        p = float(prte_density(e_sum, tree))
        se = math.sqrt(p * (1 - p) / n)
        # thinned draws still correlate; allow a generous multiple
        assert abs(counts[tree] / n - p) < 6 * se + 0.01


def test_chain_targets_the_prior_truncated_at_max_depth(e1):
    # every E_1 tree of depth <= 3 (5,552), scored exactly: the law of tree size
    # under the prior restricted to them, which global and local moves must keep
    leaves = [Tree(s) for s in e1.alphabet if s.rank == 0]
    trees = leaves
    for _ in range(3):
        trees = leaves + [Tree(s, kids) for s in e1.alphabet if s.rank
                          for kids in itertools.product(trees, repeat=s.rank)]
    assert len(trees) == 5552
    pta = compile_prior(e1)
    exact = {}
    for t in trees:
        exact[t.size] = exact.get(t.size, 0.0) + pta_eval(pta, t)
    total = sum(exact.values())
    config = McmcConfig(burn_in=1000, samples=20_000, thin=4, seed=0, max_depth=3,
                        prior_only=True, p_global=0.3, p_local=0.7, p_param=0.0, p_sigma=0.0)
    post = run_chain(e1, None, config)
    assert max(len(a) for d in post.draws for a in addresses(d.expr.tree)) <= 3
    counts = {}
    for d in post.draws:
        counts[d.expr.tree.size] = counts.get(d.expr.tree.size, 0) + 1
    n = len(post.draws)
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p / total) for k, p in exact.items())
    assert tv < 0.05


def test_sigma_step_out_of_float_range_aborts_the_move(e_sum, e_iso):
    # log-steps of 1000 overflow exp() or underflow it to 0.0; with data, a
    # sigma whose square underflows would divide the likelihood by zero
    from treegress.experiments import gen_isotherm

    for prior, data in ((e_sum, None), (e_iso, gen_isotherm("langmuir", seed=7)["train"])):
        config = McmcConfig(burn_in=0, samples=50, thin=1, step_sigma=1000.0,
                            prior_only=data is None)
        post = run_chain(prior, data, config)
        assert len(post.draws) == 50
        assert post.accept_stats["sigma"]["aborted"] > 0
        assert all(0.0 < d.sigma < math.inf for d in post.draws)


# -- chain mechanics ---------------------------------------------------------------------

def test_chain_deterministic(e_sum):
    data = None
    config = McmcConfig(
        burn_in=50, samples=200, thin=2, seed=42, prior_only=True
    )
    a = run_chain(e_sum, data, config)
    b = run_chain(e_sum, data, config)
    assert posterior_to_json(a) == posterior_to_json(b)


def test_draw_count_is_samples_over_thin(e_sum):
    config = McmcConfig(burn_in=10, samples=100, thin=10, seed=0, prior_only=True)
    post = run_chain(e_sum, None, config)
    assert len(post.draws) == 10


def test_recorded_draws_have_finite_posterior():
    prior = build_prior(
        "risky",
        "choice{ 1/2: /(1, x), 1/2: *(c#, x) }",
        variables=["x"],
        markers={"c#": {"dist": "exp", "rate": 1.0}},
    )
    data = ({"x": np.array([0.0, 1.0, 2.0])}, np.array([0.1, 1.0, 2.1]))
    config = McmcConfig(burn_in=100, samples=400, thin=4, seed=2)
    post = run_chain(prior, data, config)
    assert all(math.isfinite(d.log_post) for d in post.draws)
    # the divide-by-zero branch can never be accepted on this data
    assert all(d.expr.tree.symbol.name != "/" for d in post.draws)


def test_cache_coherence(e_iso):
    from treegress.inference import _ChainContext
    from treegress.pta import compile_prior

    data = ({"c": np.linspace(20, 100, 20)}, np.linspace(1, 50, 20))
    config = McmcConfig(burn_in=200, samples=400, thin=4, seed=9, max_depth=50)
    post = run_chain(e_iso, data, config)
    ctx = _ChainContext(e_iso, compile_prior(e_iso), data, config)
    for d in post.draws[::37]:
        fresh = ctx.make_state(d.expr, d.sigma)
        assert fresh.log_posterior == pytest.approx(d.log_post, abs=1e-9)


def test_intern_shares_one_object_per_distinct_tree(e_hyp):
    from treegress.inference import _ChainContext
    from treegress.prte import compute_ties, sample_tree
    from treegress.pta import compile_prior

    ctx = _ChainContext(e_hyp, compile_prior(e_hyp), None, McmcConfig(prior_only=True))
    tree = sample_tree(e_hyp, np.random.default_rng(8))
    assert sample_tree(e_hyp, np.random.default_rng(8)) is tree
    again = parse_tree(str(tree))
    assert again is tree and parse_tree(str(tree), e_hyp.alphabet) is tree
    ties, consts = ctx.ties(tree)
    want, tags = reference_ties(tree, e_hyp)
    assert compute_ties(tree, e_hyp) == (want, tags)
    assert ties == want
    assert consts == tuple(e_hyp.markers[tag].constants for tag in tags)
    assert ctx.ties(again) is ctx.ties(tree)


@pytest.mark.parametrize("stem", ["e1", "e_iso", "e_hyp"])
def test_a_tree_without_markers_takes_no_tie_entry(stem, all_shipped):
    """``ctx.ties`` gives the tie table and the constants of the group tags that
    ``compute_ties`` and the recursive oracle give, and stores an entry only for a tree
    with continuous markers: none for the marker-free E_1."""
    from treegress.errors import DepthBudgetExhausted
    from treegress.prte import compute_ties, sample_tree

    prior = all_shipped[stem]
    ctx = _ChainContext(prior, compile_prior(prior), None, McmcConfig(prior_only=True))
    drawn = []
    for seed in range(40):
        try:
            drawn.append(sample_tree(prior, np.random.default_rng(seed)))
        except DepthBudgetExhausted:
            continue
    assert len(drawn) > 20
    for tree in drawn:
        ties, tags = reference_ties(tree, prior)
        assert compute_ties(tree, prior) == (ties, tags)
        consts = tuple(prior.markers[tag].constants for tag in tags)
        assert ctx.ties(tree) == (ties, consts)
        if tree.n_const:
            assert ctx.tie_table[tree] == (ties, consts)
    assert set(ctx.tie_table) == {tree for tree in drawn if tree.n_const}
    assert (ctx.tie_table == {}) is (stem == "e1")


def test_variable_mismatch_rejected(e_iso, monkeypatch):
    """Data that do not fit the chain raise before it starts: columns that are not
    the prior's variables, or columns and a target not 1-D and of one length."""
    import treegress.inference as inf

    monkeypatch.setattr(inf, "_initial_state", lambda *_: pytest.fail("the chain started"))
    for inputs, y, error, message in [
        ({"z": np.ones(3)}, np.ones(3), InputError, "do not match prior variables"),
        ({"c": np.ones(3)}, np.ones(4), LengthMismatch, r"shape \(4,\) for columns of length 3"),
        ({"c": np.ones((3, 2))}, np.ones(3), LengthMismatch, r"of one length, got \[\(3, 2\)\]"),
        ({"c": np.ones(3)}, np.ones((3, 1)), LengthMismatch, r"target of shape \(3, 1\)"),
    ]:
        with pytest.raises(error, match=message):
            run_chain(e_iso, (inputs, y), McmcConfig(burn_in=1, samples=10, thin=1))


def test_multi_chain_merge(e_sum):
    config = McmcConfig(burn_in=20, samples=100, thin=10, seed=3, prior_only=True)
    merged = run_chains(e_sum, None, config, chains=3)
    assert len(merged.draws) == 30
    again = run_chains(e_sum, None, config, chains=3)
    assert posterior_to_json(merged) == posterior_to_json(again)


@pytest.mark.parametrize("chains", [0, -3])
def test_run_chains_rejects_fewer_than_one_chain(e1, chains):
    config = McmcConfig(burn_in=1, samples=10, thin=1, prior_only=True)
    with pytest.raises(InputError, match="at least 1"):
        run_chains(e1, None, config, chains)


def test_run_chains_rejects_more_chains_than_spawn_takes(e1):
    config = McmcConfig(burn_in=1, samples=10, thin=1, prior_only=True)
    with pytest.raises(InputError, match=f"at most {sys.maxsize}"):
        run_chains(e1, None, config, sys.maxsize + 1)


@pytest.mark.parametrize("workload", ["ogden", "e1-prior"])
def test_run_chains_equals_the_merge_of_single_chains(workload, e_hyp, e1):
    from treegress.experiments import gen_hyperelastic

    prior, data, chains, config = {
        "ogden": (e_hyp, gen_hyperelastic(7)["train"], 2,
                  McmcConfig(burn_in=300, samples=300, thin=3, seed=0)),
        "e1-prior": (e1, None, 3, McmcConfig(burn_in=0, samples=400, thin=2, seed=0,
                                            prior_only=True)),
    }[workload]
    seen = []
    got = run_chains(prior, data, config, chains, on_draw=seen.append)
    want = oracles.merged_chains(prior, data, config, chains)
    assert posterior_to_json(got) == posterior_to_json(want)
    assert json.dumps(got.accept_stats) == json.dumps(want.accept_stats)
    assert tuple(seen) == got.draws


def test_run_chain_calls_the_proposer_in_the_table(e_iso, monkeypatch):
    """A proposer swapped into ``_PROPOSERS`` (as the benchmark's tracer swaps
    them) is the one the chain calls, once per local move proposed."""
    import treegress.inference as inf
    from treegress.experiments import gen_isotherm

    calls = []
    real = inf._PROPOSERS["local"]
    monkeypatch.setitem(inf._PROPOSERS, "local", lambda *a: calls.append(1) or real(*a))
    post = run_chain(e_iso, gen_isotherm("langmuir", 7)["train"],
                     McmcConfig(burn_in=100, samples=100, thin=10, seed=0))
    assert len(calls) == post.accept_stats["local"]["proposed"] > 0


def test_a_chain_takes_its_depth_from_the_prior_unless_the_config_sets_one():
    prior = build_prior("comb", "iter $x { choice{ 1/2: +(c, $x), 1/2: c } }",
                        variables=["c"], max_depth=2)
    config = McmcConfig(burn_in=200, samples=400, thin=2, seed=0, prior_only=True)
    assert config.max_depth is None
    post = run_chain(prior, None, config)
    assert post.config.max_depth == 2
    assert max(len(a) for d in post.draws for a in addresses(d.expr.tree)) == 2
    deeper = run_chain(prior, None, replace(config, max_depth=6))
    assert deeper.config.max_depth == 6
    assert max(len(a) for d in deeper.draws for a in addresses(d.expr.tree)) > 2


# -- prediction ------------------------------------------------------------------------

def make_posterior(draw_specs):
    draws = tuple(draw_specs)
    cfg = McmcConfig(burn_in=1, samples=10, thin=1)
    return Posterior(draws, {}, cfg)


def test_single_draw_quantiles_collapse():
    from treegress.inference import Draw

    e = expr_of("(* 2 x)")
    post = make_posterior([Draw(e, 0.5, -1.0)])
    out = posterior_predict(post, {"x": np.array([1.0, 3.0])})
    assert out["mean"].tolist() == [2.0, 6.0]
    assert out["q05"].tolist() == [2.0, 6.0]
    assert out["q95"].tolist() == [2.0, 6.0]


def test_constant_posterior_zero_spread():
    from treegress.inference import Draw

    e = expr_of("c#", theta_c=(4.0,))
    post = make_posterior([Draw(e, 0.1, -1.0)] * 20)
    out = posterior_predict(post, {"x": np.linspace(0, 1, 5)})
    assert np.allclose(out["q95"] - out["q05"], 0.0)


def test_all_draws_non_finite():
    from treegress.inference import Draw

    e = expr_of("(/ 1 x)")
    post = make_posterior([Draw(e, 0.1, -1.0)] * 3)
    out = posterior_predict(post, {"x": np.array([0.0, 2.0])})
    assert out["dropped"].tolist() == [3, 0]
    assert all(np.isnan(out[q][0]) for q in ("mean", "q05", "q50", "q95"))
    assert out["mean"][1] == 0.5


def test_nonfinite_draws_dropped_pointwise():
    from treegress.inference import Draw

    good = expr_of("x")
    bad = expr_of("(/ 1 x)")
    post = make_posterior([Draw(good, 0.1, -1.0), Draw(bad, 0.1, -1.0)])
    out = posterior_predict(post, {"x": np.array([0.0, 2.0])})
    assert out["dropped"].tolist() == [1, 0]
    assert out["mean"][0] == pytest.approx(0.0)


def test_posterior_distinct_table():
    # equal expressions share an entry; -0.0 and 0.0 are told apart by eval_key
    a, b, c = (expr_of("c#", theta_c=(v,)) for v in (1.0, -0.0, 0.0))
    draws = [Draw(e, 0.1, -1.0) for e in (a, b, expr_of("c#", theta_c=(1.0,)), c, b)]
    post = make_posterior(draws)
    exprs, index = post.distinct
    assert exprs == (a, b, c) and exprs[0] is a
    assert index.tolist() == [0, 1, 0, 2, 1]
    assert post.distinct is post.distinct  # built once, on first use
    empty = make_posterior([]).distinct
    assert empty[0] == () and empty[1].tolist() == []


def test_posterior_distinct_keys_a_repeated_draw_object_once(monkeypatch):
    import treegress.inference

    # a run of one draw object is keyed once; equal values in another object
    # are keyed again, so a signed zero still tells them apart
    a, b = (Draw(expr_of("c#", theta_c=(v,)), 0.1, -1.0) for v in (0.0, -0.0))
    calls = []
    real = treegress.inference.eval_key
    monkeypatch.setattr(treegress.inference, "eval_key", lambda e: calls.append(e) or real(e))
    exprs, index = make_posterior([a, a, b, b, Draw(a.expr, 0.1, -1.0), a]).distinct
    assert [id(e) for e in exprs] == [id(a.expr), id(b.expr)]
    assert index.tolist() == [0, 0, 1, 1, 0, 0]
    assert len(calls) == 4


# -- serialization ------------------------------------------------------------------------

def test_posterior_json_round_trip(e_sum):
    config = McmcConfig(burn_in=20, samples=60, thin=3, seed=11, prior_only=True)
    post = run_chain(e_sum, None, config)
    text = posterior_to_json(post)
    back = posterior_from_json(text)
    assert back.draws == post.draws
    assert back.config == post.config
    assert posterior_to_json(back) == text
    # each distinct expression text is parsed once, so equal trees are shared
    by_text = {}
    for d in back.draws:
        assert by_text.setdefault(str(d.expr.tree), d.expr.tree) is d.expr.tree


def test_posterior_json_keeps_signed_zeros_of_repeated_draws():
    # consecutive draws that compare equal but differ in the sign of a zero
    one, zero, minus = (expr_of("(* c# c)", theta_c=(v,)) for v in (1.0, 0.0, -0.0))
    draws = [Draw(one, 0.5, -1.0), Draw(one, 0.5, -1.0), Draw(one, 0.5, 0.0),
             Draw(one, 0.5, -0.0), Draw(one, 0.25, -0.0), Draw(one, 0.25, 0.0),
             Draw(zero, 0.5, -1.0), Draw(minus, 0.5, -1.0)]
    text = posterior_to_json(Posterior(tuple(draws), {}, McmcConfig()))
    back = posterior_from_json(text)
    assert back.draws == tuple(draws)
    assert posterior_to_json(back) == text


# -- dimension jumps against a quadrature oracle ------------------------------------

def test_dimension_jump_posterior_matches_quadrature():
    # two structures with different parameter counts; the structure posterior
    # is computable by integrating the parameters out on a grid, and the
    # chain must reproduce it through its expand/shrink jumps
    prior = build_prior(
        "jump",
        "choice{ 1/2: c#, 1/2: +(c#, c#) }",
        variables=["x"],
        markers={"c#": {"dist": "exp", "rate": 1.0}},
    )
    y_obs, sigma = 1.3, 0.4

    grid = np.linspace(0.0, 12.0, 2001)
    dx = grid[1] - grid[0]
    prior_pdf = np.exp(-grid)

    def lik(mean):
        return np.exp(-((y_obs - mean) ** 2) / (2 * sigma**2))

    # structure A: one parameter, mean = theta
    za = float(np.sum(prior_pdf * lik(grid)) * dx)
    # structure B: two parameters, mean = theta1 + theta2
    pp = np.outer(prior_pdf, prior_pdf)
    means = grid[:, None] + grid[None, :]
    zb = float(np.sum(pp * lik(means)) * dx * dx)
    exact_a = 0.5 * za / (0.5 * za + 0.5 * zb)

    data = ({"x": np.array([0.0])}, np.array([y_obs]))
    config = McmcConfig(
        burn_in=3000, samples=60_000, thin=1, seed=17, sigma0=sigma,
        p_global=0.3, p_local=0.2, p_param=0.5, p_sigma=0.0, step_theta=0.4,
    )
    post = run_chain(prior, data, config)
    frac_a = sum(1 for d in post.draws if d.expr.tree.symbol.name == "c#") / len(post.draws)
    assert abs(frac_a - exact_a) < 0.02, (frac_a, exact_a)


def test_zero_step_scale_proposal_identical(e_iso):
    import numpy as np
    from treegress.inference import _ChainContext, propose_params
    from treegress.pta import compile_prior
    from treegress.prte import sample_expression

    config = McmcConfig(burn_in=10, samples=10, thin=1, step_theta=0.0, prior_only=True)
    ctx = _ChainContext(e_iso, compile_prior(e_iso), None, config)
    rng = np.random.default_rng(0)
    state = ctx.make_state(sample_expression(e_iso, rng), 1.0)
    proposal, log_fwd, log_rev = propose_params(state, ctx, rng)
    assert proposal.expr == state.expr
    assert log_fwd == log_rev == 0.0


def _full_path(move, state, ctx, rng):
    """The global or local move built out in full, as it was before a
    proposal of the current expression was returned as the state itself."""
    import treegress.inference as inf
    from treegress.prte import sample_tree
    from treegress.pta import sample_from_state
    from treegress.trees import disc_positions

    if move == "global":
        tree = sample_tree(ctx.prior, rng)
    else:
        old = state.expr.tree
        n = int(rng.integers(old.size))
        addr, old_sub = list(old.walk())[n]
        boltzmann = ctx.boltzmann_marginal(old, n)[0]
        start = int(rng.choice(len(boltzmann), p=boltzmann))
        new_sub = sample_from_state(ctx.pta, start, rng, ctx.prior.max_depth - len(addr))
        tree = old.replace_at(addr, new_sub)
        fwd_regrow = inf._log(boltzmann @ ctx.inside(new_sub))  # the node at addr in tree
        rev_regrow = inf._log(boltzmann @ ctx.inside(old_sub))
    ties, _ = ctx.ties(tree)
    n_new = (max(ties) + 1) if ties else 0
    theta, _, logdet, log_pu, log_pu_rev = _draw_theta_jump(state.expr.theta_c, n_new, rng)
    theta_d, disc_fwd, disc_rev = inf._disc_jump(
        state.expr.theta_d, len(disc_positions(tree)), ctx.prior.theta_d_support, rng
    )
    proposal = ctx.make_state(SymbolicExpression(tree, tuple(theta), theta_d, ties), state.sigma)
    if move == "global":
        log_fwd = proposal.log_prior_tree + log_pu + disc_fwd - logdet
        log_rev = state.log_prior_tree + log_pu_rev + disc_rev
    else:
        log_fwd = -math.log(old.size) + fwd_regrow + log_pu + disc_fwd - logdet
        log_rev = -math.log(tree.size) + rev_regrow + log_pu_rev + disc_rev
    return proposal, log_fwd, log_rev


def test_identity_proposals_match_the_full_path(e_iso, e_hyp, monkeypatch):
    """The kernel runs as the chain runs it, through ``_step``; each global and
    local proposal that is the current state is checked against ``_full_path``
    from a snapshot of the generator taken before the proposal."""
    import copy

    import treegress.inference as inf
    from treegress.experiments import gen_hyperelastic, gen_isotherm

    calls = []  # the chain evaluates on the data through run_program
    real_eval = inf.run_program
    monkeypatch.setattr(
        inf, "run_program", lambda expr, *data: calls.append(expr) or real_eval(expr, *data)
    )
    bits = lambda x: struct.pack("<d", x)  # noqa: E731
    checked = {"global": 0, "local": 0}

    def checking(move, propose):
        def wrapper(state, ctx, rng):
            before, n_calls = copy.deepcopy(rng), len(calls)
            out = propose(state, ctx, rng)  # an abort raises through to _step
            if out is not None and out[0] is state:
                _, log_fwd, log_rev = out
                assert len(calls) == n_calls  # no evaluation on the data
                fresh = _ChainContext(ctx.prior, ctx.pta, (ctx.inputs, ctx.y), ctx.config)
                full, full_fwd, full_rev = _full_path(move, state, fresh, before)
                assert full.expr == state.expr
                assert bits(full.log_posterior) == bits(state.log_posterior)
                assert (bits(full_fwd), bits(full_rev)) == (bits(log_fwd), bits(log_rev))
                assert before.bit_generator.state == rng.bit_generator.state
                checked[move] += 1
            return out

        return wrapper

    for move in checked:
        monkeypatch.setitem(inf._PROPOSERS, move, checking(move, inf._PROPOSERS[move]))
    fits = [
        (e_iso, gen_isotherm("langmuir", seed=7)["train"]),
        (e_hyp, gen_hyperelastic(seed=7)["train"]),
    ]
    for prior, data in fits:
        checked.update(dict.fromkeys(checked, 0))
        ctx = _ChainContext(prior, compile_prior(prior), data, McmcConfig())
        rng = np.random.default_rng(0)
        state = inf._initial_state(ctx, rng)
        stats = {move: {"proposed": 0, "accepted": 0, "aborted": 0} for move in MOVES}
        for _ in range(1000):
            state = inf._step(state, ctx, rng, stats)
        assert checked["global"] > 0 and checked["local"] > 0
        assert sum(c["proposed"] for c in stats.values()) == 1000
    assert calls  # the counter sees the evaluations of the proposals that are not the state


# -- tempered context distribution ---------------------------------------------------

def test_pick_state_is_rng_choice(e1, e_iso, monkeypatch):
    """``propose_local`` replaces ``rng.choice(n, p=boltzmann)`` with ``bisect_right``
    on the cdf ``boltzmann_marginal`` returns beside it; it must pick the same
    states from the same generator state, because it relies on how numpy
    implements ``choice``."""
    import treegress.inference as inf
    from treegress.prte import sample_tree
    from treegress.pta import compile_prior

    def check(ctx, tree, n, draws, seed):
        p, cdf = ctx.boltzmann_marginal(tree, n)[:2]

        def pick(rng):  # the search propose_local makes
            return bisect_right(cdf, rng.random())

        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [pick(ours) for _ in range(draws)]
        assert got == [int(ref.choice(len(p), p=p)) for _ in range(draws)]
        assert ours.bit_generator.state == ref.bit_generator.state
        # draws that hit a cdf entry exactly, or fall just below one, pick alike too
        edges = p.cumsum()
        edges /= edges[-1]  # as choice() builds it
        for r in [0.0, *edges[edges < 1], *np.nextafter(edges, 0.0)]:
            fixed = oracles.FixedRandom(r)
            assert pick(fixed) == fixed.choice(len(p), p=p), r
        return draws

    total = 0
    cfg = McmcConfig()
    tree = parse_tree("(g (g a))", e1.alphabet)
    pta = compile_prior(e1)
    gen = np.random.default_rng(12)
    made = [[0.0, 0.5, 0.0, 0.5], [0.3, 0.7, 0.0], [0.0, 1.0], [1.0], np.eye(7)[0],
            np.eye(7)[3], np.eye(7)[6], gen.dirichlet(np.ones(40)),
            gen.dirichlet(np.ones(40)) * (gen.random(40) < 0.5)]
    for i, vector in enumerate(made):  # each fed to boltzmann_marginal as the state marginal
        monkeypatch.setattr(inf, "context_marginal", lambda *_, v=np.asarray(vector): v)
        monkeypatch.setattr(inf, "inside", lambda *_, n=len(vector): np.ones(n))  # of its size
        total += check(inf._ChainContext(e1, pta, None, cfg), tree, 1, 6000, i)  # address (1,)
    monkeypatch.undo()
    for prior in (e1, e_iso):  # real marginals, at two temperatures
        pta = compile_prior(prior)
        for tau in (1.0, 0.5):
            ctx = inf._ChainContext(prior, pta, None, McmcConfig(tau=tau))
            for t in [sample_tree(prior, gen) for _ in range(4)]:
                for n in range(min(t.size, 6)):
                    total += check(ctx, t, n, 1000, total)
    assert total >= 100_000


def test_boltzmann_marginal_calls_context_marginal_once_per_miss(e1, monkeypatch):
    """The chain reaches the context marginal through ``inference.context_marginal``,
    once per cache miss and never on a hit."""
    import treegress.inference as inf
    from treegress.pta import compile_prior

    calls = []
    real = inf.context_marginal
    monkeypatch.setattr(inf, "context_marginal", lambda *a: calls.append(a[1:3]) or real(*a))
    ctx = inf._ChainContext(e1, compile_prior(e1), None, McmcConfig())
    tree = parse_tree("(f (g a) b)", e1.alphabet)
    queries = [1, 0, 2, 1, 3, 0, 2, 1]  # node indexes in walk order: (), (1,), (1, 1), (2,)
    for n in queries:
        assert ctx.boltzmann_marginal(tree, n)[3:] == tree.nth(n)
    assert calls == [(tree, tree.nth(n)[0]) for n in dict.fromkeys(queries)]


def test_a_held_tree_is_scored_once_per_cut_site(e_iso, monkeypatch):
    """On the reference Langmuir chain (data seed 7, chain seed 0, 2000 + 1000 steps)
    the context marginal runs once per distinct (tree, node index), and a local move at
    a cut site met before calls no ``inside`` and no ``Tree.nth``: the chain state holds
    one structure, so all but the first move at each site regrow the same subtree for free."""
    import treegress.inference as inf
    from treegress.experiments import gen_isotherm

    marginals, insides, sites, moves = [], [], [], {"hit": 0, "held": 0}
    descents = []
    real_marginal, real_inside, real_nth = inf.context_marginal, inf.inside, Tree.nth
    monkeypatch.setattr(inf, "context_marginal",
                        lambda *a: marginals.append(a[1:3]) or real_marginal(*a))
    monkeypatch.setattr(inf, "inside", lambda *a: insides.append(a[1]) or real_inside(*a))
    monkeypatch.setattr(Tree, "nth", lambda tree, n: descents.append(n) or real_nth(tree, n))
    real_site = _ChainContext.boltzmann_marginal

    def site(ctx, tree, n):
        sites.append(((tree, n), (tree, n) in ctx.marginal_cache))
        return real_site(ctx, tree, n)

    monkeypatch.setattr(_ChainContext, "boltzmann_marginal", site)
    real_local = inf._PROPOSERS["local"]

    def local(state, ctx, rng):
        n_sites, n_insides = len(sites), len(insides)
        out = real_local(state, ctx, rng)  # an abort raises through to _step
        if len(sites) > n_sites and sites[-1][1]:
            moves["hit"] += 1
            if out is not None and out[0] is state:
                assert len(insides) == n_insides  # no inside vector and no dot product
                moves["held"] += 1
        return out

    monkeypatch.setitem(inf._PROPOSERS, "local", local)
    post = run_chain(e_iso, gen_isotherm("langmuir", 7)["train"],
                     McmcConfig(burn_in=2000, samples=1000, thin=10, seed=0))
    n_descents = len(descents)
    monkeypatch.undo()
    assert post.accept_stats["local"]["proposed"] == len(sites)
    assert marginals == [(t, t.nth(n)[0]) for t, n in dict.fromkeys(key for key, _ in sites)]
    assert (len(sites), len(marginals), moves["hit"], moves["held"]) == (1175, 51, 1124, 1021)
    assert n_descents == len(marginals)  # one descent per cut site, none per move


def test_boltzmann_temperature_limits(e1):
    from treegress.inference import _ChainContext
    from treegress.pta import compile_prior, context_marginal
    from treegress.trees import parse_tree

    pta = compile_prior(e1)
    tree = parse_tree("(g (g a))", e1.alphabet)
    addr = (1,)
    raw = context_marginal(pta, tree, addr)

    def boltzmann(tau):
        cfg = McmcConfig(burn_in=1, samples=10, thin=1, tau=tau)
        return _ChainContext(e1, pta, None, cfg).boltzmann_marginal(tree, 1)[0]  # at addr

    # unit temperature reproduces the marginal itself
    assert np.allclose(boltzmann(1.0), raw)
    # very high temperature flattens toward uniform over the support
    hot = boltzmann(1e9)
    support = raw > 0
    assert np.allclose(hot[support], 1.0 / support.sum(), atol=1e-6)
    # impossible states stay impossible at any temperature
    for tau in (0.5, 1.0, 1e9):
        assert np.all(boltzmann(tau)[~support] == 0.0)
    # at the smallest tau the config takes, every weight is still a number
    coldest = boltzmann(745 / sys.float_info.max)
    assert np.all(np.isfinite(coldest)) and coldest.sum() == pytest.approx(1.0)
    assert np.all(coldest[~support] == 0.0)
    with pytest.raises(InputError, match="tau at least"):
        McmcConfig(tau=math.nextafter(745 / sys.float_info.max, 0.0))


def test_each_cut_site_is_tempered_as_on_its_own(all_shipped):
    """Every cut site of sampled trees on every shipped prior, at four temperatures,
    gets the per-site tempering's bytes, cdf and regrow term.  Sites with equal
    marginal bytes share one weights array, as the roots of all trees of a prior
    do, and each keeps the regrow term of its own subtree."""
    import treegress.inference as inf
    from treegress.prte import sample_tree
    from treegress.pta import context_marginal, inside

    for prior in all_shipped.values():
        pta = compile_prior(prior)
        trees = [sample_tree(prior, np.random.default_rng(seed)) for seed in range(8)]
        for tau in (1.0, 0.5, 1e9, 745 / sys.float_info.max):
            ctx = _ChainContext(prior, pta, None, McmcConfig(tau=tau))
            shared, regrows = {}, {}  # marginal bytes -> the weights array, the regrow terms
            for t in trees:
                for n, (addr, node) in enumerate(t.walk()):
                    marginal = context_marginal(pta, t, addr)
                    weights, cdf, regrow, at, sub = ctx.boltzmann_marginal(t, n)
                    want, want_cdf = oracles.tempered(marginal, tau)
                    assert weights.tobytes() == want.tobytes() and cdf == want_cdf
                    assert struct.pack("<d", regrow) == struct.pack(
                        "<d", inf._log(want @ inside(pta, node)))
                    assert (at, sub) == (addr, node)
                    assert shared.setdefault(marginal.tobytes(), weights) is weights
                    regrows.setdefault(marginal.tobytes(), {})[node] = regrow
            at_root = regrows[context_marginal(pta, trees[0], ()).tobytes()]
            if len(set(trees)) > 1:  # e_hook and e_mrs draw one tree
                assert len({at_root[t] for t in trees}) > 1  # one weights array, two regrows


def test_a_cut_sites_weights_are_read_only(e1):
    """Sites share their weights array, so a write through one record raises
    instead of changing the distribution of every site with that marginal."""
    ctx = _ChainContext(e1, compile_prior(e1), None, McmcConfig())
    weights = ctx.boltzmann_marginal(parse_tree("(f (g a) b)", e1.alphabet), 1)[0]
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        weights /= weights.sum()


def test_a_chain_tempers_each_distinct_marginal_once(e1, monkeypatch):
    """On a prior-only E_1 chain (chain seed 0, 400 draws, thin 2) the context
    marginal runs once per new cut site, 128 times; the 20 distinct marginals
    among them are tempered once each, into 20 weights arrays."""
    import treegress.inference as inf

    marginals, weights = [], {}  # every context marginal's bytes; id -> each weights array
    real_marginal, real_site = inf.context_marginal, _ChainContext.boltzmann_marginal

    def marginal(*args):
        out = real_marginal(*args)
        marginals.append(out.tobytes())
        return out

    def site(ctx, tree, n):
        record = real_site(ctx, tree, n)
        weights[id(record[0])] = record[0]  # held here, so no id is reused
        return record

    monkeypatch.setattr(inf, "context_marginal", marginal)
    monkeypatch.setattr(_ChainContext, "boltzmann_marginal", site)
    run_chain(e1, None, McmcConfig(burn_in=0, samples=400, thin=2, seed=0, prior_only=True))
    assert (len(marginals), len(set(marginals)), len(weights)) == (128, 20, 20)
