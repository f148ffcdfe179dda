"""Tests for automaton compilation, inside/outside scoring, context
marginals, state-seeded generation, and the product construction.

The key oracles here are independent of the code under test:
    - exhaustive enumeration of every state assignment (run) for small trees
    - exact densities from the expression oracle
    - sampling frequencies
"""

import json
import math

import numpy as np
import pytest

from treegress.errors import (
    AlphabetMismatch,
    DepthBudgetExhausted,
    ImpossibleContext,
    InputError,
    StateBudgetExceeded,
)
from treegress.prte import build_prior, prte_density, sample_tree
from treegress.pta import (
    Pta,
    compile_prior,
    context_marginal,
    inside,
    outside,
    pta_eval,
    product,
    sample_from_state,
)
from treegress.trees import RankedAlphabet, RankedSymbol, Tree, parse_tree

F = RankedSymbol("f", 2)
G = RankedSymbol("g", 1)
A = RankedSymbol("a", 0)
FGA = RankedAlphabet([F, G, A])


# -- independent oracles --------------------------------------------------------

from helpers import all_trees, brute_force_eval


def hand_built_pta():
    """Sub-stochastic 3-state automaton over {f/2, g/1, a/0} with branching
    rows, built directly rather than compiled."""
    tables = {
        ("f", 2): ([0, 0, 1], [0.3, 0.4, 0.5], ([1, 0, 2], [1, 2, 2])),
        ("g", 1): ([0, 1, 1, 2], [0.6, 0.2, 0.7, 0.5], ([1, 1, 2, 2],)),
        ("a", 0): ([1, 2], [1.0, 1.0], ()),
    }
    return Pta(FGA, ("s0", "s1", "s2"), [0.5, 0.25, 0.25], tables)


# -- compile + eval ---------------------------------------------------------------


def test_compiled_density_of_example_tree(e1):
    pta = compile_prior(e1)
    val = pta_eval(pta, parse_tree("(g (g a))", e1.alphabet))
    assert abs(val - 1 / 48) < 1e-12
    assert pta_eval(pta, parse_tree("(f b b)", e1.alphabet)) == 0.0


def test_trivial_prior_compiles_to_one_state():
    prior = build_prior("t", "choice{ 1: a }")
    pta = compile_prior(prior)
    assert pta.n_states == 1
    assert pta.initial.tolist() == [1.0]
    states, probs, kids = pta.tables[("a", 0)]
    assert (states.tolist(), probs.tolist(), kids) == ([0], [1.0], ())


def test_compiled_matches_oracle_on_samples(all_shipped):
    for prior in all_shipped.values():
        pta = compile_prior(prior)
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = sample_tree(prior, rng)
            assert abs(pta_eval(pta, t) - float(prte_density(prior, t))) <= 1e-9


def test_alphabet_and_table_keys_are_in_sorted_order(all_shipped):
    # not in the set order of the prior's symbols, which follows the hash seed
    for name, prior in all_shipped.items():
        symbols = list(prior.alphabet)
        assert symbols == sorted(symbols), name
        keys = list(compile_prior(prior).tables)
        assert keys == sorted(keys), name


def test_state_budget():
    prior = build_prior("t", "choice{ 1/2: f(a, b), 1/2: b }")
    with pytest.raises(StateBudgetExceeded):
        compile_prior(prior, state_budget=2)


def test_eval_rejects_foreign_symbols(e1):
    pta = compile_prior(e1)
    with pytest.raises(AlphabetMismatch):
        pta_eval(pta, parse_tree("(h a)"))


# Two states over {f/2, g/1, a/0}: s0 reads g into s1, s1 loops on g or reads a.
G_LOOP = ([0, 1], [0.5, 0.5], ([1, 1],))
A_AT_1 = ([1], [1.0], ())  # s1 accepts a
TWO_STATE = {"initial": [1.0, 0.0], "tables": {("g", 1): G_LOOP, ("a", 0): A_AT_1}}


def test_two_state_automaton_is_valid():
    pta = Pta(FGA, ("s0", "s1"), **TWO_STATE)
    assert pta_eval(pta, parse_tree("(g (g a))", FGA)) == 0.25


@pytest.mark.parametrize(
    "change",
    [
        {"tables": {("g", 1): ([0, 0, 1], [0.25, 0.25, 0.5], ([1, 2, 1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): ([0, 2], [0.5, 0.5], ([1, 1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): ([2], [1.0], ())}},
        {"tables": {("g", 1): ([0, 1], [0.5, 0.5], ([1, -1],)), ("a", 0): A_AT_1}},
        {"initial": [1.5, -0.5]},
        {"tables": {("g", 1): ([0, 1], [0.5, 0.5], ([1.5, 1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): ([0.9, 1], [0.5, 0.5], ([1, 1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): ([1], [1.0, 1.0], ())}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): ([1], [0.5], ())}},
        {"tables": {("g", 1): ([0, 1], [0.5], ([1, 1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): ([0, 1], [0.5, 0.5], ([1],)), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): ([0, 1], [0.5, 0.5], ([1, 1], [1, 1])), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): A_AT_1, ("h", 1): ([], [], ([],))}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): ([1, 1], [1.0, 1.0], ())}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): ([1], [1.0], ([1],))}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): [0, 1]}},
        {"tables": {("g", 1): ([0], [1.0]), ("a", 0): A_AT_1}},
        {"tables": {("g", 1): G_LOOP, ("a", 0): 1}},
    ],
    ids=["child-past-end", "source-past-end", "final-past-end", "child-minus-one",
         "negative-initial", "child-1.5", "source-0.9", "leaf-vector-length",
         "leaf-vector-half", "probs-shorter", "kids-shorter", "two-child-arrays-for-g",
         "key-outside-alphabet", "leaf-state-twice", "leaf-with-a-child-array",
         "leaf-entry-of-two", "entry-of-two-for-g", "integer-entry"],
)
def test_constructor_rejects_bad_state_indices_and_negative_initial_mass(change):
    with pytest.raises(InputError):  # never a bare ValueError or TypeError
        Pta(FGA, ("s0", "s1"), **{**TWO_STATE, **change})


# -- brute-force equivalence ---------------------------------------------------------


def test_matches_run_enumeration_exactly():
    pta = hand_built_pta()
    for tree in all_trees(FGA, 4):
        assert pta_eval(pta, tree) == pytest.approx(brute_force_eval(pta, tree), abs=1e-14)


def test_single_state_always_accepting():
    tables = {("f", 2): ([0], [0.7], ([0], [0])), ("g", 1): ([0], [0.4], ([0],)),
              ("a", 0): ([0], [1.0], ())}
    pta = Pta(FGA, ("q",), [1.0], tables)
    for tree in all_trees(FGA, 4):
        n_f = sum(1 for _, n in tree.walk() if n.symbol.name == "f")
        n_g = sum(1 for _, n in tree.walk() if n.symbol.name == "g")
        assert pta_eval(pta, tree) == pytest.approx(0.7**n_f * 0.4**n_g)


# -- inside / outside -----------------------------------------------------------------


def test_outside_times_inside_is_the_tree_score_at_every_address(all_shipped):
    for prior in all_shipped.values():
        pta = compile_prior(prior)
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = sample_tree(prior, rng)
            memo = {}
            total = float(pta.initial @ inside(pta, t, memo))
            assert total > 0
            for addr, node in t.walk():
                split = float(outside(pta, t, addr, memo) @ inside(pta, node, memo))
                assert split == pytest.approx(total, rel=1e-12, abs=0.0)


class _CountingMemo(dict):
    """A memo that counts how often each key is set."""

    def __init__(self):
        super().__init__()
        self.sets = {}

    def __setitem__(self, key, value):
        self.sets[key] = self.sets.get(key, 0) + 1
        super().__setitem__(key, value)


def test_inside_computes_each_distinct_node_once():
    tree = parse_tree("(f (g a) (g a))", FGA)
    memo = _CountingMemo()
    inside(hand_built_pta(), tree, memo)
    ga = tree.children[0]
    assert memo.sets == {tree: 1, ga: 1, ga.children[0]: 1}


def test_shared_memo_scores_equal_fresh_ones_bit_for_bit(all_shipped):
    for prior in all_shipped.values():
        pta = compile_prior(prior)
        rng = np.random.default_rng(9)
        memo = {}
        for _ in range(200):
            t = sample_tree(prior, rng)
            assert float(pta.initial @ inside(pta, t, memo)) == pta_eval(pta, t)


def test_boltzmann_marginal_is_the_context_marginal(all_shipped):
    from treegress.inference import McmcConfig, _ChainContext

    for prior in all_shipped.values():
        pta = compile_prior(prior)
        ctx = _ChainContext(prior, pta, None, McmcConfig(tau=1.0))
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = sample_tree(prior, rng)
            for n, (addr, node) in enumerate(t.walk()):
                want = context_marginal(pta, t, addr)
                got, cdf, regrow, at, sub = ctx.boltzmann_marginal(t, n)
                assert at == addr and sub is node  # the site's address and subtree, by index
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
                np.testing.assert_array_equal(cdf, got.cumsum() / got.cumsum()[-1])
                assert regrow == math.log(got @ inside(pta, node))  # the subtree at the cut


# -- context marginals ----------------------------------------------------------------


def test_hole_at_root_returns_initial(e1):
    pta = compile_prior(e1)
    marg = context_marginal(pta, parse_tree("a", e1.alphabet), ())
    assert np.allclose(marg, pta.initial)


def test_context_marginal_matches_enumeration():
    pta = hand_built_pta()
    context = parse_tree("(f (g a) ?)")
    marg = context_marginal(pta, context, (2,))
    raw = np.array(
        [brute_force_eval(pta, context, hole_state=i) for i in range(pta.n_states)]
    )
    assert np.allclose(marg, raw / raw.sum(), atol=1e-12)


def test_context_marginal_excludes_zero_states(e1):
    # under the example language the root symbol g only comes from one site
    pta = compile_prior(e1)
    marg = context_marginal(pta, parse_tree("(g ?)"), (1,))
    assert (marg >= 0).all()
    assert marg.sum() == pytest.approx(1.0)
    assert (marg > 0).sum() < pta.n_states


def test_impossible_context():
    # g can only be read once: the start state has the sole g-row
    pta = Pta(FGA, ("s0", "s1"), [1.0, 0.0], {("g", 1): ([0], [1.0], ([1],)), ("a", 0): A_AT_1})
    with pytest.raises(ImpossibleContext):
        context_marginal(pta, parse_tree("(g (g ?))"), (1, 1))


def test_chain_rule_consistency(e1):
    # plugging any subtree into the hole: sum_q raw_marginal(q) * gen(s|q)
    # must be proportional to the full-tree score with one shared constant
    pta = compile_prior(e1)
    context = parse_tree("(g ?)")
    marg = context_marginal(pta, context, (1,))
    ratios = []
    for text in ["a", "b", "(g a)", "(f a b)"]:
        sub = parse_tree(text, e1.alphabet)
        insides = inside(pta, sub)
        lhs = float(marg @ insides)
        full = pta_eval(pta, context.replace_at((1,), sub))
        if lhs > 0:
            ratios.append(full / lhs)
    assert ratios
    assert max(ratios) - min(ratios) < 1e-9 * max(ratios)


# -- generation -------------------------------------------------------------------------


def test_leaf_state_generates_its_leaf(e_sum):
    pta = compile_prior(e_sum)
    leaf_state = int(pta.tables[("f", 0)][0][0])
    tree = sample_from_state(pta, leaf_state, np.random.default_rng(0))
    logp = math.log(inside(pta, tree)[leaf_state])
    assert str(tree) == "f"
    assert logp == pytest.approx(0.0)


def test_generation_lengths_from_sum_state(e_sum):
    # starting at the '+'-emitting state forces length >= 2 and then the
    # usual geometric continuation
    pta = compile_prior(e_sum)
    plus_state = int(pta.tables[("+", 2)][0][0])
    rng = np.random.default_rng(5)
    n = 5000
    counts = {}
    for _ in range(n):
        t = sample_from_state(pta, plus_state, rng)
        l = sum(1 for _, node in t.walk() if node.symbol.name == "f")
        counts[l] = counts.get(l, 0) + 1
    assert counts.get(1, 0) == 0
    for l in (2, 3, 4):
        p = 0.1 ** (l - 2) * 0.9
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(l, 0) / n - p) < 4 * se


def test_generation_probability_matches_frequency(e1):
    pta = compile_prior(e1)
    # the right-hand block's g-emitting state
    g_states = list(dict.fromkeys(pta.tables[("g", 1)][0].tolist()))
    start = g_states[-1]
    rng = np.random.default_rng(12)
    n = 10_000
    seen = {}
    logp = {}
    for _ in range(n):
        t = sample_from_state(pta, start, rng)
        seen[t] = seen.get(t, 0) + 1
        logp[t] = math.log(inside(pta, t)[start])
    for t, c in sorted(seen.items(), key=lambda kv: -kv[1])[:5]:
        p = math.exp(logp[t])
        se = math.sqrt(p * (1 - p) / n)
        assert abs(c / n - p) < 4 * se


class _Draws:
    """Stands in for a generator: ``random()`` returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_a_regrow_past_max_depth_raises_depth_budget_exhausted(e_sum):
    pta = compile_prior(e_sum)
    plus_state = int(pta.tables[("+", 2)][0][0])  # its every tree is at least one level deep
    with pytest.raises(DepthBudgetExhausted, match="passed depth 0"):
        sample_from_state(pta, plus_state, np.random.default_rng(0), max_depth=0)


def test_a_row_with_missing_mass_raises_depth_budget_exhausted():
    # s0's one g-row sums to 0.5: a draw below it grows (g a), any other one dies
    pta = Pta(RankedAlphabet([G, A]), ("s0", "s1"), [1.0, 0.0],
              {("g", 1): ([0], [0.5], ([1],)), ("a", 0): A_AT_1})
    assert sample_from_state(pta, 0, _Draws(0.4999)) == parse_tree("(g a)")
    for u in (0.5, 0.9):
        with pytest.raises(DepthBudgetExhausted, match="missing row mass"):
            sample_from_state(pta, 0, _Draws(u))


# -- product ------------------------------------------------------------------------------


def test_product_with_always_accepting_scales_by_constant():
    pta = hand_built_pta()
    tables = {("f", 2): ([0], [1.0], ([0], [0])), ("g", 1): ([0], [1.0], ([0],)),
              ("a", 0): ([0], [1.0], ())}
    ones = Pta(FGA, ("u",), [1.0], tables)
    prod = product(pta, ones)
    for tree in all_trees(FGA, 4):
        assert pta_eval(prod, tree) == pytest.approx(pta_eval(pta, tree), abs=1e-12)


def test_product_squares_density(e1):
    pta = compile_prior(e1)
    prod = product(pta, pta)
    t = parse_tree("(g (g a))", e1.alphabet)
    assert pta_eval(prod, t) == pytest.approx((1 / 48) ** 2, abs=1e-12)
    assert pta_eval(prod, parse_tree("(f b b)", e1.alphabet)) == 0.0


def test_product_zero_if_either_zero():
    pta = hand_built_pta()
    only_a = Pta(FGA, ("v",), [1.0], {("a", 0): ([0], [1.0], ())})  # accepts the single leaf 'a'
    prod = product(pta, only_a)
    assert pta_eval(prod, parse_tree("(g a)", FGA)) == 0.0
    assert pta_eval(prod, parse_tree("a", FGA)) == pytest.approx(
        pta_eval(pta, parse_tree("a", FGA))
    )


def test_product_associative_in_scores(e_sum):
    pta = compile_prior(e_sum)
    left = product(product(pta, pta), pta)
    right = product(pta, product(pta, pta))
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = sample_tree(e_sum, rng)
        assert pta_eval(left, t) == pytest.approx(pta_eval(right, t), rel=1e-12)


def test_product_alphabet_mismatch(e1, e_sum):
    with pytest.raises(AlphabetMismatch):
        product(compile_prior(e1), compile_prior(e_sum))


def test_product_state_budget(e1):
    pta = compile_prior(e1)
    with pytest.raises(StateBudgetExceeded):
        product(pta, pta, state_budget=3)


# -- dump ----------------------------------------------------------------------------------


def test_json_dump_round_trips_states(e_sum):
    pta = compile_prior(e_sum)
    doc = json.loads(pta.to_json())
    assert set(doc) == {"states", "initial", "transitions", "finals"}
    assert len(doc["states"]) == pta.n_states
    assert sum(doc["initial"]) == pytest.approx(1.0)
