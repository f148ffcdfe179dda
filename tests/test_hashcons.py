"""Trees built through a node table (``hashcons``).

A sampler given a table must draw the tree it draws without one, from the
same random numbers, and return the table's object for every node it has
seen before.  A chain builds its trees through its own table, so a redrawn
tree costs no new node; emptying the table or any other chain cache changes
only the speed, never a draw.
"""

import json
import random

import numpy as np
import pytest

import treegress.inference as inf
from treegress.errors import DepthBudgetExhausted
from treegress.experiments import gen_hyperelastic, gen_isotherm
from treegress.inference import McmcConfig, posterior_to_json, run_chain, run_chains
from treegress.prte import sample_tree
from treegress.pta import compile_prior, sample_from_state
from treegress.trees import Tree, hashcons

DRAWS = 20


def _outcome(draw, seed, nodes=None):
    """(the tree or the error type of one draw from ``seed``, the generator state after it)."""
    rng = np.random.default_rng(seed)
    try:
        out = draw(rng, nodes)
    except DepthBudgetExhausted:
        out = DepthBudgetExhausted
    return out, rng.bit_generator.state


def _check_sampler(draw, seeds):
    nodes: dict = {}
    for seed in seeds:
        shared, shared_state = _outcome(draw, seed, nodes)
        fresh, fresh_state = _outcome(draw, seed)
        assert shared == fresh and shared_state == fresh_state
        if isinstance(shared, Tree):
            assert _outcome(draw, seed, nodes)[0] is shared
            assert all(hashcons(nodes, n.symbol, n.children) is n for _, n in shared.walk())


def test_samplers_draw_the_same_trees_through_a_node_table(all_shipped):
    for prior in all_shipped.values():
        pta = compile_prior(prior)
        _check_sampler(lambda rng, nodes: sample_tree(prior, rng, nodes), range(DRAWS))
        for q in range(pta.n_states):
            _check_sampler(lambda rng, nodes: sample_from_state(pta, q, rng, prior.max_depth, nodes),
                           range(q, q + 3))


def test_replace_at_builds_through_a_node_table(all_shipped):
    for prior in all_shipped.values():
        rng = np.random.default_rng(1)
        nodes: dict = {}
        tree = sample_tree(prior, rng, nodes)
        subtree = sample_tree(prior, rng, nodes)
        for addr, _ in tree.walk():
            shared = tree.replace_at(addr, subtree, nodes)
            fresh = tree.replace_at(addr, subtree)  # new nodes along the path
            assert shared == fresh and shared.node_at(addr) is subtree
            assert tree.replace_at(addr, subtree, nodes) is shared
            if addr:  # an off-path sibling stays this tree's object
                parent = tree.node_at(addr[:-1])
                for i, child in enumerate(parent.children, 1):
                    if i != addr[-1]:
                        assert shared.node_at(addr[:-1] + (i,)) is child
        # putting back the subtree that is there rebuilds this tree's own nodes
        for addr, node in tree.walk():
            assert tree.replace_at(addr, node, nodes) is tree


def _fits(e_iso, e_hyp, e1):
    """Short chains in the style of the three benchmark workloads."""
    y = random.Random(7).uniform(-1.0, 1.0)
    return {
        "langmuir": (e_iso, gen_isotherm("langmuir", 7)["train"], 1,
                     McmcConfig(burn_in=300, samples=300, thin=3, seed=0)),
        "ogden": (e_hyp, gen_hyperelastic(7)["train"], 2,
                  McmcConfig(burn_in=300, samples=300, thin=3, seed=0)),
        "e1-prior": (e1, ({}, [y]), 1,
                     McmcConfig(burn_in=0, samples=400, thin=2, seed=0, prior_only=True)),
    }


@pytest.mark.parametrize("cap", [0, 8])
@pytest.mark.parametrize("workload", ["langmuir", "ogden", "e1-prior"])
def test_emptying_the_chain_caches_changes_no_draw(workload, cap, e_iso, e_hyp, e1, monkeypatch):
    """At a cap of 0 every chain cache is emptied mid-chain, the tie table of
    the Ogden chains too, which meet only 2 distinct trees; at 8, the node
    table is emptied, while the other caches may keep their entries."""
    prior, data, chains, config = _fits(e_iso, e_hyp, e1)[workload]
    uncapped = run_chains(prior, data, config, chains)

    contexts, emptied = [], set()
    real_init, real_bounded = inf._ChainContext.__init__, inf._bounded

    def init(self, *args):
        real_init(self, *args)
        contexts.append(self)

    def bounded(cache):
        if len(cache) > inf._CACHE_CAP:
            emptied.add(id(cache))
        return real_bounded(cache)

    monkeypatch.setattr(inf._ChainContext, "__init__", init)
    monkeypatch.setattr(inf, "_bounded", bounded)
    monkeypatch.setattr(inf, "_CACHE_CAP", cap)
    capped = run_chains(prior, data, config, chains)

    assert posterior_to_json(capped) == posterior_to_json(uncapped)
    assert json.dumps(capped.accept_stats) == json.dumps(uncapped.accept_stats)
    assert len(contexts) == chains
    for ctx in contexts:
        caches = (ctx.nodes, ctx.inside_memo, ctx.marginal_cache, ctx.tie_table)
        assert {id(cache) for cache in (caches if cap == 0 else caches[:1])} <= emptied


def test_a_chain_builds_each_distinct_node_once(e_iso, monkeypatch):
    """The reference Langmuir chain (data seed 7, chain seed 0, 2000 + 1000
    steps) holds one structure; drawing every proposal in full built 9,269
    nodes, and building them through the chain's node table builds 50."""
    data = gen_isotherm("langmuir", 7)["train"]
    built = []
    real_post_init = Tree.__post_init__

    def post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(Tree, "__post_init__", post_init)
    run_chain(e_iso, data, McmcConfig(burn_in=2000, samples=1000, thin=10, seed=0))
    assert len(built) <= 100
