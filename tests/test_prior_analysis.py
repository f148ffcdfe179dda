"""The sampler and the density oracle against their earlier, self-contained forms.

``_Resolution`` derives each fact about a prior node once: the node a
variable, concatenation or iteration expands to (``target``) and every
node's least height (``heights``), and from them the flat ``plan`` that
``_draw`` walks, whose symbol records hold the one tree of each symbol
without a choice below it, as ``held_trees`` finds them; ``prte_density``
reads the tables.  The oracles below keep the forms that re-derived them: a
four-way step over the expression itself that resolves variables through its
own scope walk and picks a choice's branch by its own ``_pick_branch``, a
fixed-tree fixpoint over the expression that works out heights again, and a
density keyed by tree address.  They must agree with the library exactly:
the same held trees site by site, the same tree objects, generator states and
errors for every draw, and equal Fractions for every density.
"""

import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from treegress.errors import DepthBudgetExhausted
from treegress.prte import (
    RESAMPLE_RETRIES,
    PChoice,
    PConcat,
    PIter,
    PSymbol,
    PVar,
    _draw,
    build_prior,
    prte_density,
    sample_tree,
)
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


def _scope_targets(root) -> tuple:
    """(id(variable occurrence) -> the node it is bound to; every node), by a
    walk of its own."""
    targets, nodes, stack = {}, [], [(root, {})]
    while stack:
        node, scope = stack.pop()
        nodes.append(node)
        if isinstance(node, PVar):
            targets[id(node)] = scope[node.name]
        elif isinstance(node, PSymbol):
            stack += [(c, scope) for c in node.children]
        elif isinstance(node, PChoice):
            stack += [(b, scope) for _, b in node.branches]
        elif isinstance(node, PConcat):
            stack += [(node.right, scope), (node.left, {**scope, node.var: node.right})]
        else:
            stack.append((node.body, {**scope, node.var: node}))
    return targets, nodes


def _step(node, targets):
    """Where a variable, concatenation or iteration goes on: the four-way step."""
    if isinstance(node, PVar):
        return targets[id(node)]
    if isinstance(node, PConcat):
        return node.left
    return node.body  # PIter


def _fixed_oracle(nodes, targets) -> dict:
    """id(node) -> (tree, height) of every choice-free node, heights summed again."""
    fixed, changed = {}, True
    while changed:
        changed = False
        for n in nodes:
            if id(n) in fixed or isinstance(n, PChoice):
                continue
            if isinstance(n, PSymbol):
                kids = [fixed.get(id(c)) for c in n.children]
                held = None if None in kids else (Tree(n.symbol, tuple(t for t, _ in kids)),
                                                  max((h + 1 for _, h in kids), default=0))
            else:
                held = fixed.get(id(_step(n, targets)))
            if held is not None:
                fixed[id(n)], changed = held, True
    return fixed


def _site(node, targets):
    """The symbol or choice a node expands to, by the four-way step."""
    while not isinstance(node, (PSymbol, PChoice)):
        node = _step(node, targets)
    return node


def _plan_sites(plan, targets, fixed, starts):
    """Plan index -> the symbol or choice node its record stands for, matched record
    by record from the (index, node) pairs ``starts``.  Each index stands for one node
    and each node has one index; a symbol's record carries its symbol, one index per
    child and the held entry of ``fixed``, the oracle's (tree, height), with the
    tree's count of inner nodes; a choice's its running sums and one index per branch,
    the last repeated."""
    sites, index, pending = {}, {}, list(starts)
    while pending:
        i, node = pending.pop()
        node = _site(node, targets)
        if i in sites:
            assert sites[i] is node and index[id(node)] == i
            continue
        assert id(node) not in index
        sites[i], index[id(node)] = node, i
        symbol, kids, held = plan[i]
        if isinstance(node, PSymbol):
            want = fixed.get(id(node))
            if want is not None:
                want += (sum(n.symbol.rank > 0 for _, n in want[0].walk()),)
            assert symbol is node.symbol and held == want
            assert len(kids) == len(node.children)
            pending += zip(kids, node.children)
        else:
            assert symbol is None and held is node.cumulative
            assert len(kids) == len(node.branches) + 1 and kids[-1] == kids[-2]
            pending += zip(kids, (b for _, b in node.branches))
    return sites


def _plan_held(plan) -> dict:
    """Plan index -> the (tree, height, inner nodes) its symbol record holds, for each
    held record."""
    return {i: held for i, (symbol, _, held) in enumerate(plan)
            if symbol is not None and held is not None}


def _pick_branch(choice, rng):
    """The branch of the first running sum above one ``rng.random()``, or the last."""
    i = bisect_right(choice.cumulative, rng.random())
    return choice.branches[min(i, len(choice.branches) - 1)][1]


def _draw_oracle(prior, fixed, targets, rng, nodes, depth, pick=_pick_branch):
    """``_draw`` as a four-way step: PVar through its scope target, PConcat to
    ``left``, PIter to ``body``, with its own fixed-tree table; ``pick`` resolves
    a choice."""
    out = []
    for node in nodes:
        while True:
            held = fixed.get(id(node))
            if held is not None and depth + held[1] <= prior.max_depth:
                out.append(held[0])
                break
            if isinstance(node, PSymbol):
                if depth > prior.max_depth:
                    raise DepthBudgetExhausted(f"the drawn tree passed depth {prior.max_depth}")
                out.append(Tree(node.symbol, _draw_oracle(prior, fixed, targets, rng,
                                                          node.children, depth + 1, pick)))
                break
            if isinstance(node, PChoice):
                node = pick(node, rng)
            else:
                node = _step(node, targets)
    return tuple(out)


def _sample_oracle(prior, fixed, targets, rng, pick=_pick_branch):
    for _ in range(RESAMPLE_RETRIES):
        try:
            return _draw_oracle(prior, fixed, targets, rng, (prior.root,), 0, pick)[0]
        except DepthBudgetExhausted:
            continue
    raise DepthBudgetExhausted(
        f"no sample within depth {prior.max_depth} after {RESAMPLE_RETRIES} tries")


def _density_oracle(prior, tree):
    """``prte_density`` keyed by tree address, each occurrence scored anew."""
    graph = prior.graph
    zero = Fraction(0)
    by_symbol: dict = {}
    for s in graph.symbol_nodes:
        by_symbol.setdefault((s.symbol.name, s.symbol.rank), []).append(s)
    val: dict = {}
    order = sorted(tree.walk(), key=lambda item: len(item[0]), reverse=True)
    for addr, node in order:
        key = (node.symbol.name, node.symbol.rank)
        for site in by_symbol.get(key, ()):
            p = Fraction(1)
            for i in range(1, node.symbol.rank + 1):
                reach_i = graph.reach[id(site.children[i - 1])]
                child_addr = addr + (i,)
                total = zero
                for sid, w in reach_i.items():
                    v = val.get((child_addr, sid))
                    if v is not None:
                        total += w * v
                if total == 0:
                    p = zero
                    break
                p *= total
            if p != 0:
                val[(addr, id(site))] = p
    total = zero
    for sid, w in graph.reach[id(prior.root)].items():
        v = val.get(((), sid))
        if v is not None:
            total += w * v
    return total


def _outcome(draw, seed):
    """(the tree, or the error type and message, of one draw; the generator state after it)."""
    rng = np.random.default_rng(seed)
    try:
        out = draw(rng)
    except DepthBudgetExhausted as exc:
        out = (DepthBudgetExhausted, str(exc))
    return out, rng.bit_generator.state


def _priors(all_shipped):
    nested = [build_prior(name, text, max_depth=depth)
              for name, text in NESTED.items() for depth in (50, 3)]
    return [*all_shipped.values(), *nested]


def _check_draws(prior, seeds):
    targets, nodes = _scope_targets(prior.root)
    fixed = _fixed_oracle(nodes, targets)
    plan = prior.graph.plan
    # every plan record is reached from the root, and holds the oracle's tree or none
    assert len(_plan_sites(plan, targets, fixed, [(0, prior.root)])) == len(plan)
    for seed in seeds:
        for ours, theirs in [
            (lambda rng: sample_tree(prior, rng),
             lambda rng: _sample_oracle(prior, fixed, targets, rng)),
            (lambda rng: _draw(prior.graph.plan, rng, (0,), 0, prior.max_depth)[0],
             lambda rng: _draw_oracle(prior, fixed, targets, rng, (prior.root,), 0)[0]),
        ]:
            (tree, state), (again, state_again) = _outcome(ours, seed), _outcome(theirs, seed)
            assert state == state_again
            assert tree is again if isinstance(tree, Tree) else tree == again


def test_the_target_table_is_the_four_way_step(all_shipped):
    for prior in _priors(all_shipped):
        graph, (targets, _) = prior.graph, _scope_targets(prior.root)
        steps = [n for n in graph.nodes if isinstance(n, (PVar, PConcat, PIter))]
        assert len(graph.target) == len(steps)
        assert all(graph.target[id(n)] is _step(n, targets) for n in steps)


def test_draws_equal_the_four_way_step_on_shipped_priors(all_shipped):
    for prior in all_shipped.values():
        _check_draws(prior, range(60))


@pytest.mark.parametrize("name", NESTED)
@pytest.mark.parametrize("max_depth", [50, 3])
def test_draws_equal_the_four_way_step_on_nested_scopes(name, max_depth):
    prior = build_prior(name, NESTED[name], max_depth=max_depth)
    _check_draws(prior, range(200))


def test_fixed_trees_take_the_least_heights(all_shipped):
    for prior in _priors(all_shipped):
        graph, (targets, nodes) = prior.graph, _scope_targets(prior.root)
        assert graph.height == graph.heights[id(prior.root)]
        sites = _plan_sites(graph.plan, targets, _fixed_oracle(nodes, targets), [(0, prior.root)])
        held = _plan_held(graph.plan)
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
            assert p == _density_oracle(prior, tree)


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
            assert type(p) is Fraction and p == _density_oracle(prior, edited)
            zeros += p == 0
    assert zeros >= 300
    e1 = all_shipped["e1"]
    outside = parse_tree("(f b b)", e1.alphabet)
    assert prte_density(e1, outside) == 0 == _density_oracle(e1, outside)


def test_density_of_a_tree_with_repeated_subtrees():
    prior = build_prior("doubling", "iter $x { choice{ 1/2: +($x, $x), 1/2: a } }")
    plus, tree = RankedSymbol("+", 2), Tree(RankedSymbol("a", 0))
    for _ in range(10):  # a complete + tree of depth 10: 11 distinct nodes, 2047 occurrences
        tree = Tree(plus, (tree, tree))
    assert tree.size == 2**11 - 1
    assert prte_density(prior, tree) == _density_oracle(prior, tree) == Fraction(1, 2**tree.size)


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
    assert prte_density(prior, tree) == _density_oracle(prior, tree) == expected
