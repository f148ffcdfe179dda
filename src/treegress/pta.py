"""Probabilistic top-down tree automata.

A prior expression compiles into an automaton whose states are the emitting
sites of the expression: the initial vector is the root-symbol distribution,
and each transition row routes a state's children into the sites they can
expand to, with tuple probabilities given by the product of the child routing
distributions.

Trees are scored by the inside-outside algorithm over per-symbol transition
arrays (``Pta.tables``).  The inside pass runs bottom-up: a node's inside
vector holds, per state, the probability of the runs on its subtree that
start there.  The outside pass runs down one path: the outside vector at an
address holds, per state, the probability of the runs on the rest of the
tree that reach that address in that state.  A tree's score is the initial
vector against the root's inside vector; a context marginal is the
normalised outside vector at the hole.

Transition rows may sum to less than one; missing mass means derivations that
die and simply contributes nothing to any score.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import (
    AlphabetMismatch,
    DepthBudgetExhausted,
    ImpossibleContext,
    InputError,
    StateBudgetExceeded,
)
from .prte import RESAMPLE_RETRIES, DepthOverflow, PriorSpec
from .trees import HOLE_NAME, Tree

PROB_TOL = 1e-12
DEFAULT_STATE_BUDGET = 10_000


class Pta:
    """(states, initial, transitions, finals) over a ranked alphabet.

    ``transitions`` maps ((symbol name, rank), state) to a sparse list of
    (child-state tuple, probability); rank-0 symbols are accepted through
    ``finals`` pairs instead of transition rows.
    """

    def __init__(self, alphabet, states, initial, transitions, finals, check=True):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = np.asarray(initial, dtype=float)
        self.transitions = dict(transitions)
        self.finals = frozenset(finals)
        self._rows_by_symbol = self._tables = self._emission = None
        if check:
            self._validate()

    def _validate(self):
        q = len(self.states)
        if self.initial.shape != (q,):
            raise InputError("initial vector length differs from state count")
        if abs(float(self.initial.sum()) - 1.0) > PROB_TOL:
            raise InputError(f"initial distribution sums to {self.initial.sum()!r}")
        for (symkey, state), rows in self.transitions.items():
            name, rank = symkey
            if not self.alphabet.has(name, rank):
                raise AlphabetMismatch(f"transition on unknown symbol {name}/{rank}")
            total = 0.0
            for tup, p in rows:
                if len(tup) != rank:
                    raise InputError(f"tuple arity mismatch for {name}/{rank}")
                if p <= 0:
                    raise InputError("transition probabilities must be positive")
                total += p
            if total > 1.0 + PROB_TOL:
                raise InputError(f"row for {name}/{rank} at state {state} sums to {total}")
        for state, name in self.finals:
            if not self.alphabet.has(name, 0):
                raise AlphabetMismatch(f"final pair on unknown leaf symbol {name}")
        unreachable = set(range(q)) - self._reachable()
        if unreachable:
            raise InputError(f"states unreachable from the initial support: {sorted(unreachable)}")

    def _reachable(self):
        seen = set(np.flatnonzero(self.initial > 0).tolist())
        frontier = list(seen)
        succ = {}
        for (_, state), rows in self.transitions.items():
            succ.setdefault(state, set()).update(s for tup, _ in rows for s in tup)
        while frontier:
            s = frontier.pop()
            for t in succ.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    @property
    def n_states(self):
        return len(self.states)

    def rows_by_symbol(self):
        if self._rows_by_symbol is None:
            table = {}
            for (symkey, state), rows in self.transitions.items():
                table.setdefault(symkey, []).append((state, rows))
            self._rows_by_symbol = table
        return self._rows_by_symbol

    def tables(self):
        """(name, rank) -> what the inside and outside passes read: a leaf
        symbol's accepting-state indicator, or an inner symbol's transitions
        as (states, probabilities, child-state arrays) in ``rows_by_symbol``
        order."""
        if self._tables is None:
            tables = {}
            for sym in self.alphabet:
                key = (sym.name, sym.rank)
                if sym.rank == 0:  # one read-only vector, shared by every leaf
                    tables[key] = np.zeros(self.n_states)
                    tables[key][[s for s, name in self.finals if name == sym.name]] = 1.0
                    tables[key].flags.writeable = False
                    continue
                rows = self.rows_by_symbol().get(key, ())
                flat = [(s, p, *tup) for s, row in rows for tup, p in row]
                cols = np.array(flat, dtype=float).reshape(-1, 2 + sym.rank).T
                kids = tuple(cols[2:].astype(np.intp))
                tables[key] = (cols[0].astype(np.intp), np.ascontiguousarray(cols[1]), kids)
            self._tables = tables
        return self._tables

    def to_json(self) -> str:
        """Debug dump; the layout is not a stability-guaranteed format."""
        doc = {
            "states": list(self.states),
            "initial": [float(x) for x in self.initial],
            "transitions": [
                {
                    "symbol": symkey[0],
                    "rank": symkey[1],
                    "from": self.states[state],
                    "to": [self.states[s] for s in tup],
                    "p": p,
                }
                for (symkey, state), rows in sorted(
                    self.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
                for tup, p in rows
            ],
            "finals": sorted([self.states[s], name] for s, name in self.finals),
        }
        return json.dumps(doc, indent=2)


# -- compilation --------------------------------------------------------------------


def compile_prior(prior: PriorSpec, state_budget: int = DEFAULT_STATE_BUDGET) -> Pta:
    """Build the automaton scoring exactly what the prior's density assigns:
    one state per emitting site, initial mass per the root-symbol
    distribution, child tuples routed by the product of child distributions."""
    graph = prior.graph  # re-runs no analysis; validation happened at build
    sites = graph.symbol_nodes
    if len(sites) > state_budget:
        raise StateBudgetExceeded(f"{len(sites)} states exceed budget {state_budget}")
    index = {id(s): i for i, s in enumerate(sites)}

    initial = np.zeros(len(sites))
    for sid, w in graph.reach[id(prior.root)].items():
        initial[index[sid]] = float(w)

    transitions = {}
    finals = set()
    for site in sites:
        q = index[id(site)]
        sym = site.symbol
        if sym.rank == 0:
            finals.add((q, sym.name))
            continue
        rows = [((), 1.0)]
        for child in site.children:
            support = graph.reach[id(child)].items()
            rows = [
                (tup + (index[sid],), p * float(w))
                for tup, p in rows
                for sid, w in support
            ]
        transitions[((sym.name, sym.rank), q)] = rows

    states = tuple(f"q{i}" for i in range(len(sites)))
    return Pta(prior.alphabet, states, initial, transitions, finals)


# -- inside / outside ---------------------------------------------------------------


def inside(pta: Pta, tree: Tree, memo=None) -> np.ndarray:
    """Inside vector of the tree: entry q is the total probability of the
    successful runs on the tree that start in state q.  ``memo`` maps
    subtrees to their inside vectors; it is filled in as the pass goes, and
    a caller scoring trees that share subtrees passes the same dict."""
    memo = {} if memo is None else memo
    tables = pta.tables()
    order, pending = [], [tree]
    while pending:  # pre-order over the nodes not yet in the memo
        node = pending.pop()
        if node not in memo:
            order.append((node, _table(tables, node.symbol)))
            pending.extend(node.children)
    q = pta.n_states
    for node, entry in reversed(order):
        if node.symbol.rank == 0:
            memo[node] = entry
            continue
        states, weights, kids = entry
        for child, idx in zip(node.children, kids):
            weights = weights * memo[child][idx]
        memo[node] = np.bincount(states, weights=weights, minlength=q)
    return memo[tree]


def outside(pta: Pta, tree: Tree, addr, memo=None) -> np.ndarray:
    """Outside vector at ``addr``: entry q is the total probability of the
    runs on the rest of the tree that put state q at ``addr``.  The node at
    ``addr`` itself is never read, so it may be the hole '?'.  ``memo`` is
    as for ``inside``, which scores the siblings along the path."""
    tables = pta.tables()
    q = pta.n_states
    vec = pta.initial
    node = tree
    for j in addr:
        states, probs, kids = _table(tables, node.symbol)
        weights = probs * vec[states]
        for i, (child, idx) in enumerate(zip(node.children, kids), 1):
            if i != j:
                weights = weights * inside(pta, child, memo)[idx]
        vec = np.bincount(kids[j - 1], weights=weights, minlength=q)
        node = node.children[j - 1]
    return vec


def _table(tables, symbol):
    entry = tables.get((symbol.name, symbol.rank))
    if entry is None:
        raise AlphabetMismatch(f"symbol '{symbol.name}/{symbol.rank}' not in automaton alphabet")
    return entry


def pta_eval(pta: Pta, tree: Tree, initial=None) -> float:
    """Total probability of successful runs on the tree: the start
    distribution against the root's inside vector.  ``initial`` optionally
    replaces the automaton's start distribution (e.g. a one-hot state)."""
    start = pta.initial if initial is None else np.asarray(initial, dtype=float)
    return float(start @ inside(pta, tree))


def state_marginal(pta: Pta, tree: Tree, addr, memo=None) -> np.ndarray:
    """Distribution over the state at ``addr`` given every symbol of the
    tree outside the subtree there: the normalised outside vector."""
    vec = outside(pta, tree, addr, memo)
    total = float(vec.sum())
    if total <= 0.0:
        raise ImpossibleContext("no state can produce this context")
    return vec / total


def context_marginal(pta: Pta, context: Tree) -> np.ndarray:
    """Distribution over the state at the single '?' leaf of the context,
    conditioned on the context's symbols."""
    holes = [addr for addr, node in context.walk() if node.symbol.name == HOLE_NAME]
    if len(holes) != 1:
        raise InputError("context must contain exactly one '?'")
    return state_marginal(pta, context, holes[0])


# -- generation ---------------------------------------------------------------------


def sample_from_state(pta: Pta, state, rng, max_depth: int = 50) -> Tree:
    """Grow a tree from the automaton's generative process seeded at the given
    state instead of the initial distribution.  The tree's probability from
    that state is ``pta_eval`` with a one-hot start.

    Requires generative states: each state must either emit exactly one
    symbol through transition rows or accept exactly one leaf symbol.
    Missing row mass aborts the attempt; attempts deeper than max_depth are
    redrawn, as in the expression sampler.
    """
    emit = _emission_table(pta)
    for _ in range(RESAMPLE_RETRIES):
        try:
            return _grow(pta.alphabet, emit, rng, int(state), 0, max_depth)
        except DepthOverflow:
            continue
    raise DepthBudgetExhausted(
        f"no tree from state {pta.states[int(state)]} within depth {max_depth}"
    )


def _grow(alphabet, emit, rng, q: int, depth: int, max_depth: int) -> Tree:
    """One attempt of ``sample_from_state`` from state ``q`` at ``depth``; a
    module function, so that no closure cycle keeps the automaton alive."""
    symbol, rows = emit[q]
    if symbol.rank == 0:
        return alphabet.leaf(symbol.name)
    if depth > max_depth:
        raise DepthOverflow()
    r = rng.random()
    acc = 0.0
    for tup, p in rows:
        acc += p
        if r < acc:
            kids = tuple(_grow(alphabet, emit, rng, s, depth + 1, max_depth) for s in tup)
            return Tree(symbol, kids)
    raise DepthOverflow()  # dead mass


def _emission_table(pta: Pta):
    """State -> (symbol, transition rows) of the one symbol the state emits;
    a leaf symbol has no rows."""
    if pta._emission is None:
        options: dict = {}
        for ((name, rank), state), rows in pta.transitions.items():
            options.setdefault(state, []).append((pta.alphabet.get(name, rank), rows))
        for state, name in pta.finals:
            options.setdefault(state, []).append((pta.alphabet.get(name, 0), ()))
        for q in range(pta.n_states):
            if len(options.get(q, ())) != 1:
                raise InputError(
                    f"state {pta.states[q]} does not emit exactly one symbol; "
                    "generative sampling is defined for single-symbol states"
                )
        pta._emission = {q: only for q, (only,) in options.items()}
    return pta._emission


# -- product construction --------------------------------------------------------------


def product(a: Pta, b: Pta, state_budget: int = DEFAULT_STATE_BUDGET) -> Pta:
    """Pairwise product automaton: scores every tree with the product of the
    two factors' scores (unnormalized; renormalization is the caller's
    business where it matters)."""
    if a.alphabet.symbol_keys() != b.alphabet.symbol_keys():
        raise AlphabetMismatch("product requires identical alphabets")
    if a.n_states * b.n_states > state_budget:
        raise StateBudgetExceeded(
            f"{a.n_states * b.n_states} product states exceed budget {state_budget}"
        )

    pairs = list(itertools.product(range(a.n_states), range(b.n_states)))
    index = {pair: i for i, pair in enumerate(pairs)}
    initial = np.array([a.initial[p] * b.initial[q] for p, q in pairs])

    rows_a = a.rows_by_symbol()
    rows_b = b.rows_by_symbol()
    transitions = {}
    for symkey, a_rows in rows_a.items():
        b_entries = rows_b.get(symkey)
        if not b_entries:
            continue
        for qa, rowsa in a_rows:
            for qb, rowsb in b_entries:
                combined = [
                    (tuple(index[(sa, sb)] for sa, sb in zip(ta, tb)), pa * pb)
                    for ta, pa in rowsa
                    for tb, pb in rowsb
                ]
                if combined:
                    transitions[(symkey, index[(qa, qb)])] = combined

    finals = set()
    finals_b = {}
    for qb, name in b.finals:
        finals_b.setdefault(name, set()).add(qb)
    for qa, name in a.finals:
        for qb in finals_b.get(name, ()):
            finals.add((index[(qa, qb)], name))

    states = tuple(f"{a.states[p]}*{b.states[q]}" for p, q in pairs)
    return _prune(Pta(a.alphabet, states, initial, transitions, finals, check=False))


def _prune(pta: Pta) -> Pta:
    """Drop states unreachable from the initial support and re-index."""
    keep = sorted(pta._reachable())
    remap = {old: new for new, old in enumerate(keep)}
    states = tuple(pta.states[i] for i in keep)
    initial = pta.initial[keep]
    transitions = {}
    for (symkey, state), rows in pta.transitions.items():
        if state not in remap:
            continue
        kept_rows = [
            (tuple(remap[s] for s in tup), p)
            for tup, p in rows
            if all(s in remap for s in tup)
        ]
        if kept_rows:
            transitions[(symkey, remap[state])] = kept_rows
    finals = {(remap[s], name) for s, name in pta.finals if s in remap}
    return Pta(pta.alphabet, states, initial, transitions, finals)
