"""Property tests for the automaton's stored form: random hand-built
automata, drawn as sparse rows and written into per-symbol arrays (a leaf's
row as the rank-0 case, each accepting state one entry of probability 1),
keep every row entry in order, score every small tree as the exhaustive run
enumeration does, and split each score exactly into outside times inside at
every address."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_trees, brute_force_eval
from treegress.pta import Pta, inside, outside, pta_eval
from treegress.trees import RankedAlphabet, RankedSymbol

FGA = RankedAlphabet([RankedSymbol("f", 2), RankedSymbol("g", 1), RankedSymbol("a", 0)])
TREES = all_trees(FGA, 4)

PROPERTY = settings(derandomize=True, database=None, deadline=1000, max_examples=200)


@st.composite
def automata(draw):
    """1-4 states, every state with initial mass, and per (symbol, state) a
    sparse row of up to three child tuples with positive probabilities; the
    row keeps a random share of dead mass, which may be none.  A random set of
    states accepts the leaf a, each through one entry of probability 1."""
    q = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=q, max_size=q))
    initial = [w / sum(weights) for w in weights]
    transitions = {}
    for name, rank in (("f", 2), ("g", 1)):
        tuples = list(itertools.product(range(q), repeat=rank))
        for state in range(q):
            chosen = draw(st.lists(st.sampled_from(tuples), unique=True, max_size=3))
            if not chosen:
                continue
            mass = draw(st.lists(st.integers(1, 9), min_size=len(chosen), max_size=len(chosen)))
            total = sum(mass) + draw(st.integers(0, 9))
            transitions[((name, rank), state)] = [(t, m / total) for t, m in zip(chosen, mass)]
    for state in sorted(draw(st.sets(st.integers(0, q - 1)))):  # the states accepting a
        transitions[(("a", 0), state)] = [((), 1.0)]
    tables = {}
    for ((name, rank), state), rows in transitions.items():  # rows become columns, in order
        states, probs, kids = tables.setdefault((name, rank), ([], [], tuple([] for _ in range(rank))))
        for tup, p in rows:
            states.append(state)
            probs.append(p)
            for col, s in zip(kids, tup):
                col.append(s)
    return transitions, Pta(FGA, tuple(f"s{i}" for i in range(q)), initial, tables)


@PROPERTY
@given(automata())
def test_arrays_hold_the_row_entries_in_order(case):
    transitions, pta = case
    want = [
        {"symbol": name, "rank": rank, "from": f"s{state}", "to": [f"s{c}" for c in tup], "p": p}
        for ((name, rank), state), rows in transitions.items()  # f rows first, as in the dump
        if rank
        for tup, p in rows
    ]
    doc = json.loads(pta.to_json())
    assert doc["transitions"] == want
    assert doc["finals"] == [[f"s{state}", name] for (name, rank), state in transitions if not rank]


@PROPERTY
@given(automata())
def test_scores_match_run_enumeration(case):
    _, pta = case
    for tree in TREES:
        assert pta_eval(pta, tree) == pytest.approx(brute_force_eval(pta, tree), abs=1e-14)


@PROPERTY
@given(automata())
def test_outside_times_inside_is_the_score_at_every_address(case):
    _, pta = case
    for tree in TREES:
        memo = {}
        total = float(pta.initial @ inside(pta, tree, memo))
        for addr, node in tree.walk():
            split = float(outside(pta, tree, addr, memo) @ inside(pta, node, memo))
            assert split == pytest.approx(total, rel=1e-12, abs=0.0)
