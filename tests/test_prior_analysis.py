"""The sampler and the density oracle against the oracles of their concepts.

``_Resolution`` derives each fact about a prior node once: the node a
variable, concatenation or iteration expands to (``target``) and every
node's least height (``heights``), and from them the flat ``plan`` that
``_draw`` walks, whose symbol records hold the one tree of each symbol
without a choice below it, as ``held_trees`` finds them; ``prte_density``
reads the tables.  ``tests/oracles.py`` keeps the forms that re-derive them: a
four-way step over the expression itself that resolves variables through its
own scope walk, picks a choice's branch by a running float sum and holds no
tree, a fixed-tree fixpoint over the expression, and a density keyed by tree
address.  They must agree with the library exactly: the same held trees site by
site, the same tree objects, generator states and errors for every draw, and
equal Fractions for every density.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from helpers import check_draws, plan_held, plan_sites
from treegress.prte import PConcat, PIter, PVar, build_prior, prte_density, sample_tree
from treegress.trees import RankedSymbol, Tree, parse_tree

# nested subst and iter; an inner iter shadows an outer one of the same name,
# and a subst's right side reads the variable of the iteration around it
NESTED = {
    "nested-subst": "f($y, $y).subst($y, choice{ 1/2: g($z), 1/2: a }.subst($z, "
                    "choice{ 1/3: b, 2/3: g(c) }))",
    "shadowed-iter": "iter $x { choice{ 1/2: f($x, iter $x { choice{ 1/2: g($x), 1/2: a } }), "
                     "1/2: b } }",
    "subst-in-iter": "iter $x { choice{ 1/2: h($x, $x, g(g(a))).subst($x, choice{ 1/2: a, "
                     "1/2: g($x) }), 1/2: b } }",
    "iter-in-subst": "f($v, $v).subst($v, iter $w { choice{ 1/4: g($w), 3/4: h($w, b, c) }."
                     "subst($w, choice{ 1/2: $w, 1/2: a }) })",
}


def _priors(all_shipped):
    nested = [build_prior(name, text, max_depth=depth)
              for name, text in NESTED.items() for depth in (50, 3)]
    return [*all_shipped.values(), *nested]


def test_the_target_table_is_the_four_way_step(all_shipped):
    for prior in _priors(all_shipped):
        graph, (targets, _) = prior.graph, oracles.scope_targets(prior.root)
        steps = [n for n in graph.nodes if isinstance(n, (PVar, PConcat, PIter))]
        assert len(graph.target) == len(steps)
        assert all(graph.target[id(n)] is oracles.step(n, targets) for n in steps)


def test_draws_equal_the_four_way_step_on_shipped_priors(all_shipped):
    for prior in all_shipped.values():
        check_draws(prior, range(60))


@pytest.mark.parametrize("name", NESTED)
@pytest.mark.parametrize("max_depth", [50, 3])
def test_draws_equal_the_four_way_step_on_nested_scopes(name, max_depth):
    prior = build_prior(name, NESTED[name], max_depth=max_depth)
    check_draws(prior, range(200))


def test_fixed_trees_take_the_least_heights(all_shipped):
    for prior in _priors(all_shipped):
        graph, (targets, nodes) = prior.graph, oracles.scope_targets(prior.root)
        assert graph.height == graph.heights[id(prior.root)]
        sites = plan_sites(graph.plan, targets, oracles.held(nodes, targets), [(0, prior.root)])
        held = plan_held(graph.plan)
        assert held
        for i, (tree, height, _) in held.items():
            assert height == graph.heights[id(sites[i])] == max(len(a) for a, _ in tree.walk())


def test_density_equals_the_address_keyed_oracle_on_draws(all_shipped):
    for prior in _priors(all_shipped):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tree = sample_tree(prior, rng)
            p = prte_density(prior, tree)
            assert type(p) is Fraction and p > 0
            assert p == oracles.density(prior, tree)


def test_density_equals_the_oracle_outside_the_language(all_shipped):
    rng = np.random.default_rng(9)
    stranger, zeros = Tree(RankedSymbol("zz", 0)), 0
    for prior in _priors(all_shipped):
        leaves = [Tree(s) for s in prior.alphabet if s.rank == 0] + [stranger]
        for _ in range(60):
            tree = sample_tree(prior, rng)
            addr, _ = tree.nth(int(rng.integers(tree.size)))
            leaf = leaves[int(rng.integers(len(leaves)))]
            edited = tree.replace_at(addr, leaf) if addr else stranger
            p = prte_density(prior, edited)
            assert type(p) is Fraction and p == oracles.density(prior, edited)
            zeros += p == 0
    assert zeros >= 300
    e1 = all_shipped["e1"]
    outside = parse_tree("(f b b)", e1.alphabet)
    assert prte_density(e1, outside) == 0 == oracles.density(e1, outside)


def test_density_of_a_tree_with_repeated_subtrees():
    prior = build_prior("doubling", "iter $x { choice{ 1/2: +($x, $x), 1/2: a } }")
    plus, tree = RankedSymbol("+", 2), Tree(RankedSymbol("a", 0))
    for _ in range(10):  # a complete + tree of depth 10: 11 distinct nodes, 2047 occurrences
        tree = Tree(plus, (tree, tree))
    assert tree.size == 2**11 - 1
    assert prte_density(prior, tree) == oracles.density(prior, tree) == Fraction(1, 2**tree.size)


def test_density_of_a_deep_complete_tree_scores_each_distinct_node_once():
    # depth 18: 524,287 occurrences of 19 distinct nodes; a pass over every
    # occurrence took over half a second
    prior = build_prior("doubling", "iter $x { choice{ 1/2: +($x, $x), 1/2: a } }")
    plus, tree = RankedSymbol("+", 2), Tree(RankedSymbol("a", 0))
    expected = Fraction(1, 2)  # D_0, the leaf; D_d = D_{d-1}^2 / 2
    for _ in range(18):
        tree, expected = Tree(plus, (tree, tree)), expected ** 2 / 2
    start = time.perf_counter()
    p = prte_density(prior, tree)
    assert time.perf_counter() - start < 0.2
    assert p == expected == Fraction(1, 2**tree.size)


def test_density_of_a_deep_comb():
    prior = build_prior("comb", "iter $x { choice{ 2/3: f($x, a), 1/3: a } }", max_depth=400)
    f, tree = RankedSymbol("f", 2), Tree(RankedSymbol("a", 0))
    a = tree
    for _ in range(399):
        tree = Tree(f, (tree, a))
    expected = Fraction(2, 3) ** 399 * Fraction(1, 3)
    assert prte_density(prior, tree) == oracles.density(prior, tree) == expected
