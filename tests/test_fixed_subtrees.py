"""Fixed subtrees and composed marker counts.

A prior sub-expression without a choice, and an automaton state with one
sure entry into such states, can give only one tree.  Both samplers return
the tree they hold for it instead of rebuilding it node by node, and one
fixpoint, ``held_trees``, finds those trees for both: over the sampling
plan's records and over the regrow's.  Each held entry's height and inner
node count must be those of its tree.  Holding it must change no draw: with
the tables emptied (a prior's plan records with every symbol's held entry
None, an automaton's regrow records holding only their leaves), every draw
gives the same tree object, the same error and the same generator state.
Every leaf state is held, at height 0, so the regrow has no leaf case of its
own.  The automaton's sibling-loop regrow must also grow what its earlier
recursive form, one call per node, grows.  A node sums its marker counts
from its children's, and they must equal the markers a full walk finds.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_prior_analysis import _plan_held
from treegress.errors import DepthBudgetExhausted
from treegress.experiments import gen_isotherm
from treegress.inference import McmcConfig, run_chain
from treegress.prte import _draw, build_prior, held_trees, sample_tree
from treegress.pta import Pta, _grow, compile_prior, product, sample_from_state
from treegress.trees import (
    RankedAlphabet,
    RankedSymbol,
    Tree,
    disc_positions,
    is_const_marker,
    is_disc_marker,
    parse_tree,
)

F, G, A = RankedSymbol("f", 2), RankedSymbol("g", 1), RankedSymbol("a", 0)

# g(g(a)) is the fixed block: it starts at depth 1 and ends at depth 3
BLOCK = "choice{ 1/2: f(g(g(a)), choice{ 1/2: a, 1/2: b }), 1/2: b }"


def _outcome(draw, seed):
    """(the tree, or the error type and message, of one draw from ``seed``;
    the generator state after it)."""
    rng = np.random.default_rng(seed)
    try:
        out = draw(rng)
    except DepthBudgetExhausted as exc:
        out = (DepthBudgetExhausted, str(exc))
    return out, rng.bit_generator.state


def _draws(prior, pta, seeds, max_depth):
    """Every outcome of ``sample_tree``, of one attempt at the root and of
    ``sample_from_state`` from each state, in a fixed order."""
    out = [_outcome(lambda rng: sample_tree(prior, rng), s) for s in seeds]
    out += [_outcome(lambda rng: _draw(prior.graph.plan, rng, (0,), 0, prior.max_depth)[0], s)
            for s in seeds]
    out += [_outcome(lambda rng: sample_from_state(pta, q, rng, max_depth), s)
            for q in range(pta.n_states) for s in seeds]
    return out


def _held(records) -> dict:
    """State -> the (tree, height, inner nodes) its regrow record holds, for each held state."""
    return {q: held for q, (_, _, _, held) in enumerate(records) if held is not None}


def _unplanned(plan) -> tuple:
    """The plan records with every symbol's held entry None; a choice's keeps its sums."""
    return tuple((symbol, kids, None if symbol is not None else sums)
                 for symbol, kids, sums in plan)


def _unheld(records) -> tuple:
    """The regrow records with every held entry None but the leaf states': a leaf state
    is always held, and unheld it would draw an ``rng.random()`` that the held one does
    not."""
    return tuple((s, cdf, kids, held if s.rank == 0 else None) for s, cdf, kids, held in records)


def _check_unchanged_without_tables(prior, seeds, max_depth, monkeypatch):
    pta = compile_prior(prior)
    held = _draws(prior, pta, seeds, max_depth)
    monkeypatch.setattr(prior.graph, "plan", _unplanned(prior.graph.plan))
    monkeypatch.setattr(pta, "regrow", _unheld(pta.regrow))
    built = _draws(prior, pta, seeds, max_depth)
    assert len(held) == len(built)
    for (tree, state), (again, state_again) in zip(held, built):
        assert state == state_again
        assert tree is again if isinstance(tree, Tree) else tree == again
    return held


def test_shipped_priors_draw_the_same_without_fixed_tables(all_shipped, monkeypatch):
    for prior in all_shipped.values():
        _check_unchanged_without_tables(prior, range(25), prior.max_depth, monkeypatch)


def test_shipped_priors_hold_their_fixed_blocks(e_iso, e_hyp):
    for prior in (e_iso, e_hyp):
        assert max(tree.size for tree, _, _ in _plan_held(prior.graph.plan).values()) >= 10
        assert max(n for _, _, n in _held(compile_prior(prior).regrow).values()) >= 5


@pytest.mark.parametrize("max_depth", [3, 2], ids=["ends-at-max-depth", "one-level-past"])
def test_a_fixed_block_at_the_depth_bound_draws_as_built(max_depth, monkeypatch):
    prior = build_prior("block", BLOCK, max_depth=max_depth)
    block = parse_tree("(g (g a))")
    assert block in {tree for tree, _, _ in _plan_held(prior.graph.plan).values()}
    assert block in {tree for tree, _, _ in _held(compile_prior(prior).regrow).values()}
    held = _check_unchanged_without_tables(prior, range(40), max_depth, monkeypatch)
    under_f = [out.children[0] is block for out, _ in held
               if isinstance(out, Tree) and out.symbol.name == "f"]
    if max_depth == 3:  # the block fits below f, and is drawn there
        assert any(under_f)
    else:  # it does not: every attempt through f overflows, after the same draws
        assert not under_f and any(not isinstance(out, Tree) for out, _ in held)


def test_a_state_whose_one_entry_can_die_is_not_held(monkeypatch):
    # g at q0 has one entry of probability 1/2: a draw of 1/2 or more is missing row mass
    pta = Pta(RankedAlphabet([G, A]), ("q0", "q1"), [1.0, 0.0],
              {("g", 1): ([0], [0.5], ([1],)), ("a", 0): ([1], [1.0], ())})
    assert set(_held(pta.regrow)) == {1}

    def draw(rng):
        return sample_from_state(pta, 0, rng)

    held = [_outcome(draw, seed) for seed in range(20)]
    monkeypatch.setattr(pta, "regrow", _unheld(pta.regrow))
    assert [_outcome(draw, seed) for seed in range(20)] == held
    assert {type(out) for out, _ in held} == {Tree, tuple}  # some grow g(a), some die


def _walked_entry(tree) -> tuple:
    """(tree, depth, nodes of rank above 0), from a full walk of the tree."""
    nodes = list(tree.walk())
    return tree, max(len(a) for a, _ in nodes), sum(n.symbol.rank > 0 for _, n in nodes)


def test_held_trees_on_hand_built_records():
    records = [
        (F, (1, 2)),  # 0: f(g(a), a), both children later in the list
        (G, (2,)),  # 1: g(a)
        (A, ()),  # 2: a
        (G, (4,)),  # 3 and 4: a cycle
        (G, (3,)),
        (None, None),  # 5: draws
        (G, (5,)),  # 6: above a record that draws
        (F, (0, 0)),  # 7: f(f(g(a), a), f(g(a), a))
    ]
    held = held_trees(records)
    assert set(held) == {0, 1, 2, 7}
    a = Tree(A)
    ga = Tree(G, (a,))
    fga = Tree(F, (ga, a))
    assert held[2] == (a, 0, 0)
    assert held[1] == (ga, 1, 1)
    assert held[0] == (fga, 2, 2)
    assert held[7] == (Tree(F, (fga, fga)), 3, 5)
    assert all(entry == _walked_entry(entry[0]) for entry in held.values())
    assert held_trees([]) == {} and held_trees([(None, None)]) == {}


def test_held_entries_are_their_trees_on_shipped_priors(all_shipped):
    for prior in all_shipped.values():
        for held in (_plan_held(prior.graph.plan), _held(compile_prior(prior).regrow)):
            assert held and all(entry == _walked_entry(entry[0]) for entry in held.values())


def _grow_oracle(emit, fixed, rng, q, depth, max_depth):
    """``pta._grow`` in its earlier recursive form, on separate emit and held tables:
    one call per node, its children grown through a generator, and a leaf grown
    without a held entry."""
    held = fixed.get(q)
    if held is not None and depth + held[1] <= max_depth:
        if held[2]:
            rng.random(held[2])
        return held[0]
    if depth > max_depth:
        raise DepthBudgetExhausted(f"the grown tree passed depth {max_depth}")
    symbol, cdf, kids = emit[q]
    if symbol.rank == 0:
        return Tree(symbol)
    i = bisect_right(cdf, rng.random())
    if i == len(cdf):
        raise DepthBudgetExhausted(f"the grown tree drew missing row mass at state {q}")
    return Tree(symbol, tuple(_grow_oracle(emit, fixed, rng, s, depth + 1, max_depth)
                              for s in kids[i]))


def _check_grow(pta, seeds, max_depth):
    """The sibling loop and the recursive oracle agree from every state, with the
    held entries and without them (the oracle then holds nothing, not even a leaf):
    the same tree object or error message, and the same generator state."""
    emit = {q: record[:3] for q, record in enumerate(pta.regrow)}
    outcomes = []
    for records, fixed in ((pta.regrow, _held(pta.regrow)), (_unheld(pta.regrow), {})):
        for q in range(pta.n_states):
            for seed in seeds:
                got = _outcome(lambda rng: _grow(records, rng, (q,), 0, max_depth)[0], seed)
                want = _outcome(lambda rng: _grow_oracle(emit, fixed, rng, q, 0, max_depth), seed)
                assert got[1] == want[1]
                assert got[0] is want[0] if isinstance(want[0], Tree) else got[0] == want[0]
                outcomes.append(want[0])
    return outcomes


def test_the_sibling_loop_regrow_equals_the_recursive_one_on_shipped_priors(all_shipped):
    for prior in all_shipped.values():
        for max_depth in (prior.max_depth, 3):
            _check_grow(compile_prior(prior), range(8), max_depth)


@pytest.mark.parametrize("max_depth", [3, 2], ids=["ends-at-max-depth", "one-level-past"])
def test_the_sibling_loop_regrow_equals_the_recursive_one_at_the_depth_bound(max_depth):
    outcomes = _check_grow(compile_prior(build_prior("block", BLOCK, max_depth=max_depth)),
                           range(40), max_depth)
    block = parse_tree("(g (g a))")
    trees = [out for out in outcomes if isinstance(out, Tree)]
    if max_depth == 3:  # the block fits below f: nothing overflows, and it is drawn there
        assert len(trees) == len(outcomes)
        assert any(t.symbol.name == "f" and t.children[0] is block for t in trees)
    else:  # it does not: some attempts overflow
        assert len(trees) < len(outcomes)


def test_the_sibling_loop_regrow_equals_the_recursive_one_on_missing_row_mass():
    pta = Pta(RankedAlphabet([G, A]), ("q0", "q1"), [1.0, 0.0],
              {("g", 1): ([0], [0.5], ([1],)), ("a", 0): ([1], [1.0], ())})
    outcomes = _check_grow(pta, range(20), 50)
    assert any("missing row mass" in out[1] for out in outcomes if isinstance(out, tuple))


def test_every_leaf_state_is_held_at_height_0(all_shipped):
    hook = compile_prior(all_shipped["e_hook"])  # its product's every state emits one symbol
    for pta in [*map(compile_prior, all_shipped.values()), product(hook, hook)]:
        leaves = [(symbol, held) for symbol, _, _, held in pta.regrow if symbol.rank == 0]
        assert leaves and all(held == (Tree(symbol), 0, 0) for symbol, held in leaves)


def test_the_reference_langmuir_chain_builds_few_trees(e_iso, monkeypatch):
    new = Tree.__dict__["__new__"].__func__
    calls = [0]

    def counting(cls, symbol, children=()):
        calls[0] += 1
        return new(cls, symbol, children)

    data = gen_isotherm("langmuir", 7)["train"]
    monkeypatch.setattr(Tree, "__new__", staticmethod(counting))
    run_chain(e_iso, data, McmcConfig(seed=0))
    assert 0 < calls[0] <= 5_000


# -- composed marker counts ----------------------------------------------------------

LEAVES = [Tree(RankedSymbol(name, 0)) for name in ("a", "x", "k#", "m#", "d#")]
TREES = st.recursive(
    st.sampled_from(LEAVES),
    lambda kids: st.one_of(st.builds(lambda left, right: Tree(F, (left, right)), kids, kids),
                           st.builds(lambda c: Tree(G, (c,)), kids)),
    max_leaves=40,
)


def _walked(tree):
    """The node, continuous-marker and discrete-marker counts of a full pre-order walk."""
    nodes = [n.symbol for _, n in tree.walk()]
    return (len(nodes), sum(map(is_const_marker, nodes)), sum(map(is_disc_marker, nodes)))


@settings(derandomize=True, database=None, deadline=1000, max_examples=300)
@given(TREES)
def test_a_composed_shape_is_the_walked_one(tree):
    for _, node in tree.walk():
        assert (node.size, node.n_const, node.n_disc) == _walked(node)
        assert type(node.n_const) is int and type(node.n_disc) is int


def test_a_deep_shape_composes_without_recursion():
    t = Tree(RankedSymbol("k#", 0))
    for _ in range(3000):
        t = Tree(G, (t,))
    t = Tree(F, (Tree(RankedSymbol("d#", 0)), t))
    assert (t.size, t.n_const, t.n_disc) == (3003, 1, 1)
    assert disc_positions(t) == ((1,),)
