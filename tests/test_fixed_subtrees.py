"""Fixed subtrees and composed marker counts.

A prior sub-expression without a choice, and an automaton state with one
sure entry into such states, can give only one tree.  Both samplers return
the tree they hold for it instead of rebuilding it node by node.  Holding it
must change no draw: with the tables emptied, every draw gives the same tree
object, the same error and the same generator state.  A node sums its
marker counts from its children's, and they must equal the markers a full
walk finds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegress.errors import DepthBudgetExhausted
from treegress.experiments import gen_isotherm
from treegress.inference import McmcConfig, run_chain
from treegress.prte import _draw, build_prior, sample_tree
from treegress.pta import Pta, _generation_tables, compile_prior, sample_from_state
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
    fixed = prior.graph.fixed_trees()
    out = [_outcome(lambda rng: sample_tree(prior, rng), s) for s in seeds]
    out += [_outcome(lambda rng: _draw(prior, fixed, rng, (prior.root,), 0)[0], s) for s in seeds]
    out += [_outcome(lambda rng: sample_from_state(pta, q, rng, max_depth), s)
            for q in range(pta.n_states) for s in seeds]
    return out


def _check_unchanged_without_tables(prior, seeds, max_depth, monkeypatch):
    pta = compile_prior(prior)
    held = _draws(prior, pta, seeds, max_depth)
    monkeypatch.setattr(prior.graph, "fixed", {})
    monkeypatch.setattr(pta, "_emission", (_generation_tables(pta)[0], {}))
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
        assert max(tree.size for tree, _ in prior.graph.fixed_trees().values()) >= 10
        assert max(n for _, _, n in _generation_tables(compile_prior(prior))[1].values()) >= 5


@pytest.mark.parametrize("max_depth", [3, 2], ids=["ends-at-max-depth", "one-level-past"])
def test_a_fixed_block_at_the_depth_bound_draws_as_built(max_depth, monkeypatch):
    prior = build_prior("block", BLOCK, max_depth=max_depth)
    block = parse_tree("(g (g a))")
    assert block in {tree for tree, _ in prior.graph.fixed_trees().values()}
    assert block in {tree for tree, _, _ in _generation_tables(compile_prior(prior))[1].values()}
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
              {("g", 1): ([0], [0.5], ([1],)), ("a", 0): [0.0, 1.0]})
    assert set(_generation_tables(pta)[1]) == {1}

    def draw(rng):
        return sample_from_state(pta, 0, rng)

    held = [_outcome(draw, seed) for seed in range(20)]
    monkeypatch.setattr(pta, "_emission", (_generation_tables(pta)[0], {}))
    assert [_outcome(draw, seed) for seed in range(20)] == held
    assert {type(out) for out, _ in held} == {Tree, tuple}  # some grow g(a), some die


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
