"""Equal trees are one object (hash-consing in one process-wide table of weak
references).

``Tree(symbol, children)`` returns the live node of that key, so every way of
making a tree (parsing, both samplers, ``replace_at``, reading a posterior)
returns the object already held for an equal tree, and a node leaves the
table once nothing else holds it: its reference's callback drops the entry.
The chain's caches key trees by identity; emptying them changes only the
speed, never a draw.
"""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treegress.inference as inf
from helpers import draw_outcome
from treegress import trees
from treegress.experiments import gen_hyperelastic, gen_isotherm
from treegress.inference import (
    McmcConfig,
    posterior_from_json,
    posterior_to_json,
    run_chain,
    run_chains,
)
from treegress.prte import sample_tree
from treegress.pta import compile_prior, sample_from_state
from treegress.trees import RankedSymbol, Tree, format_tree, parse_tree

DRAWS = 20


def _check_sampler(draw, seeds, alphabet):
    for seed in seeds:
        tree, state = draw_outcome(draw, seed)
        assert draw_outcome(draw, seed) == (tree, state)
        if isinstance(tree, Tree):
            assert draw_outcome(draw, seed)[0] is tree
            assert parse_tree(format_tree(tree), alphabet) is tree
            assert all(Tree(n.symbol, n.children) is n for _, n in tree.walk())


def test_samplers_draw_the_same_trees_through_a_node_table(all_shipped):
    for prior in all_shipped.values():
        pta = compile_prior(prior)
        _check_sampler(lambda rng: sample_tree(prior, rng), range(DRAWS), prior.alphabet)
        for q in range(pta.n_states):
            _check_sampler(lambda rng: sample_from_state(pta, q, rng, prior.max_depth),
                           range(q, q + 3), prior.alphabet)


def test_replace_at_builds_through_a_node_table(all_shipped):
    for prior in all_shipped.values():
        rng = np.random.default_rng(1)
        tree = sample_tree(prior, rng)
        subtree = sample_tree(prior, rng)
        nodes = dict(tree.walk())
        for addr in nodes:
            shared = tree.replace_at(addr, subtree)
            at = dict(shared.walk())
            assert at[addr] is subtree and tree.replace_at(addr, subtree) is shared
            assert parse_tree(format_tree(shared)) is shared
            if addr:  # an off-path sibling stays this tree's object
                for i, child in enumerate(nodes[addr[:-1]].children, 1):
                    if i != addr[-1]:
                        assert at[addr[:-1] + (i,)] is child
        # putting back the subtree that is there rebuilds this tree's own nodes
        for addr, node in tree.walk():
            assert tree.replace_at(addr, node) is tree


def test_a_read_posterior_holds_the_chain_trees(e1):
    config = McmcConfig(burn_in=0, samples=200, thin=2, seed=3, prior_only=True)
    posterior = run_chain(e1, None, config)
    again = posterior_from_json(posterior_to_json(posterior))
    assert len({id(d.expr.tree) for d in posterior.draws}) > 1
    assert all(a.expr.tree is d.expr.tree for a, d in zip(again.draws, posterior.draws))


def test_a_dropped_deep_tree_leaves_the_table():
    gc.collect()
    before = len(trees._NODES)
    t = Tree(RankedSymbol("leaf", 0))
    for _ in range(5000):
        t = Tree(RankedSymbol("g", 1), (t,))
    assert len(trees._NODES) == before + 5001 and t.size == 5001
    del t  # frees 5,001 nested nodes without a RecursionError
    assert len(trees._NODES) == before


def test_a_node_rebuilt_after_its_twin_died_is_a_new_entry():
    symbol = RankedSymbol("twin", 0)
    key = (symbol.name, symbol.rank, ())
    first = Tree(symbol)
    old_ref = trees._NODES[key]
    assert old_ref() is first and old_ref.key == key
    del first  # the callback drops the entry
    assert old_ref() is None and key not in trees._NODES
    second = Tree(symbol)
    assert trees._NODES[key]() is second and Tree(symbol) is second
    assert [k for k in trees._NODES if k == key] == [key]
    # a stale callback for the key leaves the newer node's entry in place
    trees._forget(old_ref)
    assert trees._NODES[key]() is second


def test_a_node_dies_quietly_after_the_module_globals_are_gone(monkeypatch):
    """Interpreter shutdown may clear the module's globals while nodes are still
    alive: the callback reads the table it was bound to, not ``trees._NODES``."""
    node = Tree(RankedSymbol("last", 0))
    table = trees._NODES
    monkeypatch.setattr(trees, "_NODES", None)
    del node
    assert ("last", 0, ()) not in table


def test_a_dead_reference_left_in_the_table_is_a_miss():
    """A node freed late (in CPython's deferred deallocation of deep trees) can
    leave a dead reference in the table until its callback runs: a lookup that
    meets one builds a new node, and the late callback then leaves it in place."""

    class Gone:
        pass

    symbol = RankedSymbol("late", 0)
    key = (symbol.name, symbol.rank, ())
    gone = Gone()
    dead = trees._NodeRef(gone)
    dead.key = key
    del gone
    assert dead() is None
    trees._NODES[key] = dead
    try:
        node = Tree(symbol)
        assert type(node) is Tree and node.symbol is symbol
        assert trees._NODES[key] is not dead and trees._NODES[key]() is node
        trees._forget(dead)
        assert trees._NODES[key]() is node and Tree(symbol) is node
    finally:
        if trees._NODES.get(key) is dead:
            del trees._NODES[key]


def test_a_tree_is_immutable():
    t = parse_tree("(+ a b)")
    for field, value in (("symbol", RankedSymbol("-", 2)), ("children", ()), ("size", 1)):
        with pytest.raises(AttributeError):
            setattr(t, field, value)
    assert format_tree(t) == "(+ a b)" and t.size == 3


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
    the Ogden chains too, which meet only 2 distinct trees; at 8, the inside
    memo is emptied, while the other caches may keep their entries."""
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
    assert len(contexts) == 1  # every chain of a fit runs on one context
    for ctx in contexts:
        caches = (ctx.inside_memo, ctx.marginal_cache, ctx.tempered, ctx.tie_table)
        if workload == "e1-prior":  # no E_1 tree has a marker, so none takes a tie entry
            assert ctx.tie_table == {}
            caches = caches[:3]
        assert {id(cache) for cache in (caches if cap == 0 else caches[:1])} <= emptied


def test_a_chain_builds_each_distinct_node_once(e_iso, monkeypatch):
    """The reference Langmuir chain (data seed 7, chain seed 0, 2000 + 1000
    steps) holds one structure; drawing every proposal in full built 9,269
    nodes, and building each distinct node once builds 50."""
    data = gen_isotherm("langmuir", 7)["train"]
    misses = []  # one weak reference per node built
    real_ref = trees._NodeRef

    def counting(node, callback):
        misses.append(node.symbol)  # not the node, which would then stay alive
        return real_ref(node, callback)

    gc.collect()
    before = len(trees._NODES)
    monkeypatch.setattr(trees, "_NodeRef", counting)
    run_chain(e_iso, data, McmcConfig(burn_in=2000, samples=1000, thin=10, seed=0))
    assert 0 < len(misses) <= 100
    gc.collect()  # the chain's nodes are gone, and so are their entries
    assert len(trees._NODES) == before


def test_a_fit_leaves_the_node_table_as_it_found_it(e1):
    gc.collect()
    before = len(trees._NODES)
    posterior = run_chains(e1, None, McmcConfig(burn_in=0, samples=200, thin=2, seed=1,
                                                prior_only=True), 2)
    assert len(trees._NODES) > before
    del posterior
    gc.collect()
    assert len(trees._NODES) == before


def test_the_command_line_exits_quietly(tmp_path):
    """A fit and a report in a fresh interpreter exit 0 and print nothing to
    stderr: the nodes still alive at shutdown die without a callback error."""
    src = Path(trees.__file__).resolve().parents[1]  # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("TREEGRESS_SEED", None)
    (tmp_path / "config.json").write_text(json.dumps(
        {"burn_in": 200, "samples": 200, "thin": 4, "seed": 2}))
    commands = [
        ["gen-data", "--task", "isotherm:langmuir", "--seed", "7", "--out-dir", "data"],
        ["fit", "--prior", "E_iso", "--train", "data/train.csv", "--config", "config.json",
         "--out", "posterior.json"],
        ["report", "--posterior", "posterior.json", "--data", "data/test1.csv",
         "--out-dir", "report"],
    ]
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "treegress.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, ""), args


@pytest.mark.parametrize("workload", ["langmuir", "ogden", "e1-prior"])
def test_only_the_evaluation_meets_a_floating_point_condition(workload, e_iso, e_hyp, e1,
                                                              monkeypatch):
    """``run_chains`` enters ``np.errstate(all="ignore")`` once, around every step, for
    the evaluation on the data, where a non-finite prediction scores -inf.  No other
    part of a step may meet a floating-point condition: here the steps run under
    ``errstate(all="raise")``, with only ``run_program`` under "ignore"."""
    prior, data, chains, config = _fits(e_iso, e_hyp, e1)[workload]
    evaluations = []
    real_run = inf.run_program

    def ignoring(*args):
        evaluations.append(args[0])
        with np.errstate(all="ignore"):
            return real_run(*args)

    monkeypatch.setattr(inf, "run_program", ignoring)
    ctx = inf._ChainContext(prior, compile_prior(prior, config.state_budget), data, config)
    seeds = [config.seed] if chains == 1 else [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(chains)]
    stats = {move: {"proposed": 0, "accepted": 0, "aborted": 0} for move in inf.MOVES}
    with np.errstate(all="raise"):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            state = inf._initial_state(ctx, rng)
            for _ in range(config.burn_in + config.samples):
                state = inf._step(state, ctx, rng, stats)
    steps = chains * (config.burn_in + config.samples)
    assert sum(counts["proposed"] for counts in stats.values()) == steps
    assert bool(evaluations) is not config.prior_only
