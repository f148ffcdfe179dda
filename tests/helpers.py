"""Shared test inputs and checks: exhaustive small-tree generation, a tree's
addresses, and the walk that matches a prior's plan records and draws with the
oracles'.  The oracles the tests compare with are in ``tests/oracles.py``."""

import itertools

import numpy as np

import oracles
from treegress.errors import DepthBudgetExhausted
from treegress.prte import PSymbol, _draw, sample_tree
from treegress.trees import Tree


def addresses(tree):
    """Every address of the tree, in pre-order."""
    return [addr for addr, _ in tree.walk()]


def all_trees(alphabet, max_nodes):
    """Every tree over the alphabet with at most max_nodes nodes."""
    by_size = {1: [Tree(s) for s in alphabet if s.rank == 0]}
    for size in range(2, max_nodes + 1):
        out = []
        for sym in alphabet:
            if sym.rank == 0:
                continue
            for split in _compositions(size - 1, sym.rank):
                for kids in itertools.product(*[by_size.get(k, []) for k in split]):
                    out.append(Tree(sym, kids))
        by_size[size] = out
    return [t for size in range(1, max_nodes + 1) for t in by_size[size]]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def plan_sites(plan, targets, fixed, starts):
    """Plan index -> the symbol or choice node its record stands for, matched record
    by record from the (index, node) pairs ``starts``.  Each index stands for one node
    and each node has one index; a symbol's record carries its symbol, one index per
    child and the held entry of ``fixed``, the oracle's; a choice's its running sums
    and one index per branch, the last repeated."""
    sites, index, pending = {}, {}, list(starts)
    while pending:
        i, node = pending.pop()
        node = oracles.site(node, targets)
        if i in sites:
            assert sites[i] is node and index[id(node)] == i
            continue
        assert id(node) not in index
        sites[i], index[id(node)] = node, i
        symbol, kids, held = plan[i]
        if isinstance(node, PSymbol):
            assert symbol is node.symbol and held == fixed.get(id(node))
            assert len(kids) == len(node.children)
            pending += zip(kids, node.children)
        else:
            assert symbol is None and held is node.cumulative
            assert len(kids) == len(node.branches) + 1 and kids[-1] == kids[-2]
            pending += zip(kids, (b for _, b in node.branches))
    return sites


def plan_held(plan) -> dict:
    """Plan index -> the (tree, height, inner nodes) its symbol record holds, for each
    held record."""
    return {i: held for i, (symbol, _, held) in enumerate(plan)
            if symbol is not None and held is not None}


def draw_outcome(draw, seed):
    """(the tree, or the error type and message, of one draw; the generator state after it)."""
    rng = np.random.default_rng(seed)
    try:
        out = draw(rng)
    except DepthBudgetExhausted as exc:
        out = (DepthBudgetExhausted, str(exc))
    return out, rng.bit_generator.state


def check_draws(prior, seeds) -> list:
    """``sample_tree`` and one attempt of ``_draw`` from each seed give the oracles'
    tree objects or errors, and generator states; returns the oracles' outcomes."""
    outcomes = []
    targets, nodes = oracles.scope_targets(prior.root)
    plan = prior.graph.plan
    # every plan record is reached from the root, and holds the oracle's tree or none
    assert len(plan_sites(plan, targets, oracles.held(nodes, targets), [(0, prior.root)])) \
        == len(plan)
    for seed in seeds:
        for ours, theirs in [
            (lambda rng: sample_tree(prior, rng),
             lambda rng: oracles.sample(prior, targets, rng)),
            (lambda rng: _draw(prior.graph.plan, rng, (0,), 0, prior.max_depth)[0],
             lambda rng: oracles.draw(prior, targets, rng, (prior.root,), 0)[0]),
        ]:
            (tree, state), (again, state_again) = (draw_outcome(ours, seed),
                                                   draw_outcome(theirs, seed))
            assert state == state_again
            assert tree is again if isinstance(tree, Tree) else tree == again
            outcomes.append(again)
    return outcomes
