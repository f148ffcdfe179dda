"""Fixed subtrees and composed marker counts.

A prior sub-expression without a choice, and an automaton state with one
sure entry into such states, can give only one tree.  Both samplers return
the tree they hold for it instead of rebuilding it node by node, and one
fixpoint, ``held_trees``, finds those trees for both: over the sampling
plan's records and over the regrow's.  Each held entry's height and inner
node count must be those of its tree.  Holding it must change no draw: every
draw gives the tree object, the error and the generator state of the oracles
in ``tests/oracles.py``, which build every tree node by node.  Every leaf state
is held, at height 0, so the regrow has no leaf case of its own.  A node sums
its marker counts from its children's, and they must equal the markers a full
walk finds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import check_draws, draw_outcome, plan_held
from treegress.experiments import gen_isotherm
from treegress.inference import McmcConfig, run_chain
from treegress.prte import build_prior, held_trees
from treegress.pta import Pta, compile_prior, product, sample_from_state
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

# g at q0 has one entry of probability 1/2: a draw of 1/2 or more is missing row mass
MAY_DIE = Pta(RankedAlphabet([G, A]), ("q0", "q1"), [1.0, 0.0],
              {("g", 1): ([0], [0.5], ([1],)), ("a", 0): ([1], [1.0], ())})


def _held(records) -> dict:
    """State -> the (tree, height, inner nodes) its regrow record holds, for each held state."""
    return {q: held for q, (_, _, _, held) in enumerate(records) if held is not None}


def _check_grow(pta, seeds, max_depth) -> list:
    """``sample_from_state`` from every state gives the oracle's tree object or error
    message, and its generator state; returns the oracle's outcomes."""
    outcomes = []
    for q in range(pta.n_states):
        for seed in seeds:
            got = draw_outcome(lambda rng: sample_from_state(pta, q, rng, max_depth), seed)
            want = draw_outcome(lambda rng: oracles.grow(pta, rng, q, 0, max_depth), seed)
            assert got[1] == want[1]
            assert got[0] is want[0] if isinstance(want[0], Tree) else got[0] == want[0]
            outcomes.append(want[0])
    return outcomes


def test_shipped_priors_hold_their_fixed_blocks(e_iso, e_hyp):
    for prior in (e_iso, e_hyp):
        assert max(tree.size for tree, _, _ in plan_held(prior.graph.plan).values()) >= 10
        assert max(n for _, _, n in _held(compile_prior(prior).regrow).values()) >= 5


@pytest.mark.parametrize("max_depth", [3, 2], ids=["ends-at-max-depth", "one-level-past"])
def test_a_fixed_block_at_the_depth_bound_draws_as_built(max_depth):
    prior = build_prior("block", BLOCK, max_depth=max_depth)
    block = parse_tree("(g (g a))")
    assert block in {tree for tree, _, _ in plan_held(prior.graph.plan).values()}
    assert block in {tree for tree, _, _ in _held(compile_prior(prior).regrow).values()}
    outcomes = check_draws(prior, range(40))
    under_f = [out.children[0] is block for out in outcomes
               if isinstance(out, Tree) and out.symbol.name == "f"]
    if max_depth == 3:  # the block fits below f, and is drawn there
        assert any(under_f)
    else:  # it does not: every attempt through f overflows, after the same draws
        assert not under_f and any(not isinstance(out, Tree) for out in outcomes)


def test_a_state_whose_one_entry_can_die_is_not_held():
    assert set(_held(MAY_DIE.regrow)) == {1}


def test_the_sibling_loop_regrow_equals_the_recursive_one_on_missing_row_mass():
    outcomes = _check_grow(MAY_DIE, range(20), 50)
    assert {type(out) for out in outcomes[:20]} == {Tree, tuple}  # from q0 some grow g(a), some die
    assert any("missing row mass" in out[1] for out in outcomes if isinstance(out, tuple))


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
    assert all(entry == oracles.walked_entry(entry[0]) for entry in held.values())
    assert held_trees([]) == {} and held_trees([(None, None)]) == {}


def test_held_entries_are_their_trees_on_shipped_priors(all_shipped):
    for prior in all_shipped.values():
        for held in (plan_held(prior.graph.plan), _held(compile_prior(prior).regrow)):
            assert held and all(entry == oracles.walked_entry(entry[0]) for entry in held.values())


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
