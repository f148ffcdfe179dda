"""Probabilistic top-down tree automata.

A prior expression compiles into an automaton whose states are the emitting
sites of the expression: the initial vector is the root-symbol distribution,
and each transition row routes a state's children into the sites they can
expand to, with tuple probabilities given by the product of the child routing
distributions.

An automaton is built in the one form it is stored in, per-symbol arrays
(``Pta.tables``) that compilation and the product write and that scoring
and the JSON dump read; generation reads one record per state
(``Pta.regrow``), derived from them once.  Trees are scored by the inside-outside
algorithm over them.  The inside pass runs bottom-up: a node's inside vector
holds, per state, the probability of the runs on its subtree that start
there.  The outside pass runs down one path: the outside vector at an
address holds, per state, the probability of the runs on the rest of the
tree that reach that address in that state.  A tree's score is the initial
vector against the root's inside vector; the context marginal at an address
is the normalised outside vector there.

Transition rows may sum to less than one; missing mass means derivations that
die and simply contributes nothing to any score.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    AlphabetMismatch,
    DepthBudgetExhausted,
    ImpossibleContext,
    InputError,
    StateBudgetExceeded,
)
from .prte import DEFAULT_MAX_DEPTH, PriorSpec, held_trees
from .trees import Tree

PROB_TOL = 1e-12
DEFAULT_STATE_BUDGET = 10_000


class Pta:
    """(alphabet, states, initial, tables), given in the form it is stored.

    ``tables`` maps (symbol name, rank) to the one form every reader uses,
    (states, probabilities, child-state arrays), whose entry i moves
    ``states[i]`` into the child states ``kids[0][i], kids[1][i], ...``, in
    entry order.  A leaf symbol is the rank-0 case, with no child-state
    arrays: each of its entries is a state that accepts it, with probability
    1.  A symbol of the alphabet with no key gets an empty entry.  A malformed
    argument (states that are not a sequence, tables that are not a mapping) or
    a malformed entry or initial vector (a ragged or non-numeric array, a part
    that is not a sequence, a bad index or probability) raises InputError, never
    a bare ValueError or TypeError.
    """

    def __init__(self, alphabet, states, initial, tables):
        self.alphabet = alphabet
        try:
            self.states = tuple(states)
        except TypeError:
            raise InputError(f"states {states!r} is not a sequence of state names") from None
        try:
            self.initial = np.asarray(initial, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"initial vector {initial!r} is not a vector of numbers") from None
        try:
            unknown = set(tables) - alphabet.symbol_keys()
            get = tables.get
        except (TypeError, AttributeError):
            raise InputError(f"tables {tables!r} is not a mapping of (symbol name, rank) "
                             "to entries") from None
        if unknown:
            raise AlphabetMismatch(f"tables on symbols outside the alphabet: {sorted(unknown)}")
        self.tables = {(s.name, s.rank): _stored(s, get) for s in alphabet}
        self._validate()

    def _validate(self):
        q = self.n_states
        if self.initial.shape != (q,):
            raise InputError("initial vector length differs from state count")
        if not (self.initial >= 0).all() or abs(float(self.initial.sum()) - 1.0) > PROB_TOL:
            raise InputError(f"initial vector {self.initial.tolist()} is not a distribution")
        for (name, rank), (states, probs, kids) in self.tables.items():
            if any(((idx < 0) | (idx >= q)).any() for idx in (states, *kids)):
                raise InputError(f"a {name}/{rank} transition has a state index outside [0, {q})")
            if not (probs > 0).all():
                raise InputError("transition probabilities must be positive")
            if not (rank or (probs == 1.0).all()):
                raise InputError(f"leaf {name} has a probability other than 1")
            totals = np.bincount(states, weights=probs, minlength=q)
            if totals.max() > 1.0 + PROB_TOL:
                worst = int(np.argmax(totals))
                raise InputError(f"row for {name}/{rank} at state {worst} sums to {totals[worst]}")
        unreachable = np.flatnonzero(~_reachable(self.initial, self.tables.values()))
        if len(unreachable):
            raise InputError(f"states unreachable from the initial support: {unreachable.tolist()}")

    @property
    def n_states(self):
        return len(self.states)

    @cached_property
    def regrow(self) -> tuple:
        """One record per state, built at the first regrow: (the one symbol the state
        emits, the running sums of its entries' probabilities, their child-state tuples,
        the (tree, height, inner nodes) the state grows or None).  ``held_trees``, the
        fixpoint the prior's sampling plan uses too, finds the states that grow one tree:
        a state whose one entry, with a running sum >= 1.0, leads into such states.  A
        leaf state's one entry has probability 1 and child tuple (), so it grows its leaf
        at height 0.  Raises InputError unless every state emits exactly one symbol."""
        options: dict = {}  # state -> (symbol, running sums, child-state tuples) per symbol
        for (name, rank), entry in self.tables.items():
            symbol = self.alphabet.get(name, rank)
            rows: dict = {}
            for state, p, tup in _entries(entry):
                probs, kids = rows.setdefault(state, ([], []))
                probs.append(p)
                kids.append(tup)
            for state, (probs, kids) in rows.items():
                options.setdefault(state, []).append((symbol, tuple(accumulate(probs)), tuple(kids)))
        for q in range(self.n_states):
            if len(options.get(q, ())) != 1:
                raise InputError(
                    f"state {self.states[q]} does not emit exactly one symbol; "
                    "generative sampling is defined for single-symbol states"
                )
        emit = [options[q][0] for q in range(self.n_states)]
        held = held_trees([(symbol, kids[0]) if len(cdf) == 1 and cdf[0] >= 1.0 else (None, None)
                           for symbol, cdf, kids in emit])
        return tuple((*record, held.get(q)) for q, record in enumerate(emit))

    def to_json(self) -> str:
        """Debug dump; the layout is not a stability-guaranteed format."""
        doc = {
            "states": list(self.states),
            "initial": [float(x) for x in self.initial],
            "transitions": [
                {"symbol": name, "rank": rank, "from": self.states[state],
                 "to": [self.states[s] for s in tup], "p": p}
                for (name, rank), entry in sorted(self.tables.items(), key=lambda kv: kv[0])
                if rank
                for state, p, tup in _entries(entry)
            ],
            "finals": sorted([self.states[s], name] for (name, rank), (states, _, _)
                             in self.tables.items() if not rank for s in states.tolist()),
        }
        return json.dumps(doc, indent=2)


def _stored(sym, get):
    """The symbol's entry, read through the tables' ``get``, as arrays, checked for shape."""
    name, rank = sym.name, sym.rank
    try:
        states, probs, kids = get((name, rank), ((), (), ((),) * rank))
        probs, *idx = (np.asarray(a) for a in (probs, states, *kids))
        if len(kids) != rank or probs.ndim != 1 or any(a.shape != probs.shape for a in idx):
            raise InputError(f"{name}/{rank} needs {2 + rank} arrays of one length")
        if any(a.size and a.dtype.kind not in "iu" for a in idx):
            raise InputError(f"a {name}/{rank} state array is not of integers")
        states, *kids = (a.astype(np.intp) for a in idx)
        return states, probs.astype(float), tuple(kids)
    except (TypeError, ValueError):
        raise InputError(f"{name}/{rank} needs a (states, probabilities, child-state arrays) "
                         "entry of numbers") from None


def _entries(entry):
    """(state, probability, child-state tuple) of each entry of a symbol, in
    entry order; a leaf's child tuple is (), which ``zip`` of no columns
    would not give."""
    states, probs, kids = entry
    tuples = zip(*(k.tolist() for k in kids)) if kids else [()] * len(states)
    return zip(states.tolist(), probs.tolist(), tuples)


def _reachable(initial, entries) -> np.ndarray:
    """Mask of the states reachable from the initial support through the
    given entries."""
    src = np.concatenate([np.empty(0, np.intp)] + [s for s, _, kids in entries for _ in kids])
    dst = np.concatenate([np.empty(0, np.intp)] + [k for _, _, kids in entries for k in kids])
    seen = initial > 0
    while True:
        grown = seen.copy()
        grown[dst[seen[src]]] = True
        if (grown == seen).all():
            return seen
        seen = grown


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

    tables, flat = {}, {}
    for site in sites:
        q = index[id(site)]
        sym = site.symbol
        rows = [((), 1.0)]
        for child in site.children:
            support = graph.reach[id(child)].items()
            rows = [
                (tup + (index[sid],), p * float(w))
                for tup, p in rows
                for sid, w in support
            ]
        flat.setdefault((sym.name, sym.rank), []).extend((q, p, *tup) for tup, p in rows)
    for key, entries in flat.items():  # per symbol, the sites' entries in site order
        states, probs, *kids = zip(*entries)
        tables[key] = (states, probs, kids)

    states = tuple(f"q{i}" for i in range(len(sites)))
    return Pta(prior.alphabet, states, initial, tables)


# -- inside / outside ---------------------------------------------------------------


def inside(pta: Pta, tree: Tree, memo=None) -> np.ndarray:
    """Inside vector of the tree: entry q is the total probability of the
    successful runs on the tree that start in state q.  ``memo`` maps
    subtrees to their inside vectors; it is filled in as the pass goes, and
    a caller scoring trees that share subtrees passes the same dict."""
    memo = {} if memo is None else memo
    tables = pta.tables
    order, pending = [], [tree]
    while pending:  # pre-order over the nodes not yet in the memo
        node = pending.pop()
        if node not in memo:
            order.append((node, _table(tables, node.symbol)))
            pending.extend(node.children)
    q = pta.n_states
    for node, (states, weights, kids) in reversed(order):
        if node in memo:  # a subtree met twice in this tree
            continue
        for child, idx in zip(node.children, kids):
            weights = weights * memo[child][idx]
        memo[node] = np.bincount(states, weights=weights, minlength=q)
    return memo[tree]


def outside(pta: Pta, tree: Tree, addr, memo=None) -> np.ndarray:
    """Outside vector at ``addr``: entry q is the total probability of the
    runs on the rest of the tree that put state q at ``addr``.  The node at
    ``addr`` itself is never read.  ``memo`` is as for ``inside``, which
    scores the siblings along the path."""
    tables = pta.tables
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


def pta_eval(pta: Pta, tree: Tree) -> float:
    """Total probability of successful runs on the tree: the start
    distribution against the root's inside vector."""
    return float(pta.initial @ inside(pta, tree))


def context_marginal(pta: Pta, tree: Tree, addr, memo=None) -> np.ndarray:
    """Distribution over the state at ``addr`` given every symbol of the
    tree outside the subtree there: the normalised outside vector."""
    vec = outside(pta, tree, addr, memo)
    total = float(vec.sum())
    if total <= 0.0:
        raise ImpossibleContext("no state can produce this context")
    return vec / total


# -- generation ---------------------------------------------------------------------


def sample_from_state(pta: Pta, state, rng, max_depth: int = DEFAULT_MAX_DEPTH) -> Tree:
    """Grow a tree from the automaton's generative process seeded at the
    given state instead of the initial distribution, its root at depth 0.
    The tree's probability from that state is its inside vector's entry,
    ``inside(pta, tree)[state]``.

    Requires generative states: each state must emit exactly one symbol,
    a leaf symbol included, through its entries of ``Pta.tables``.
    There is one attempt, which missing row mass or a node deeper than
    ``max_depth`` ends with DepthBudgetExhausted.  Unlike the expression
    sampler, this does not redraw: a caller that rejects on the error
    proposes each tree with exactly its inside probability.  The attempt
    reads one record of ``Pta.regrow`` per node; a state that grows one
    tree only gives the tree held for it, after the same draws.
    """
    return _grow(pta.regrow, rng, (int(state),), 0, max_depth)[0]


def _grow(records, rng, states: tuple, depth: int, max_depth: int) -> tuple:
    """One attempt of ``sample_from_state``: the trees grown from the sibling ``states``
    at ``depth``, one frame a level.  An unheld state takes the entry of the first
    running sum above one ``rng.random()``; a leaf state's one entry is sure, so it is
    held and gets no draw.  A held tree that would pass ``max_depth`` is grown out, to
    overflow as it would unheld.  No closure, so no cycle keeps the automaton."""
    out = []
    for q in states:
        symbol, cdf, kids, held = records[q]
        if held is not None and depth + held[1] <= max_depth:
            if held[2]:
                rng.random(held[2])  # the stream of one rng.random() per inner node
            out.append(held[0])
            continue
        if depth > max_depth:
            raise DepthBudgetExhausted(f"the grown tree passed depth {max_depth}")
        i = bisect_right(cdf, rng.random())
        if i == len(cdf):
            raise DepthBudgetExhausted(f"the grown tree drew missing row mass at state {q}")
        out.append(Tree(symbol, _grow(records, rng, kids[i], depth + 1, max_depth)))
    return tuple(out)


# -- product construction --------------------------------------------------------------


def product(a: Pta, b: Pta, state_budget: int = DEFAULT_STATE_BUDGET) -> Pta:
    """Pairwise product automaton: scores every tree with the product of the
    two factors' scores (unnormalized; renormalization is the caller's
    business where it matters).  Pair (p, q) is state p * |b| + q until the
    states no initial mass reaches are pruned."""
    if a.alphabet.symbol_keys() != b.alphabet.symbol_keys():
        raise AlphabetMismatch("product requires identical alphabets")
    n = a.n_states * b.n_states
    if n > state_budget:
        raise StateBudgetExceeded(f"{n} product states exceed budget {state_budget}")
    nb = b.n_states
    tables = {}
    for key, (sa, pa, ka) in a.tables.items():
        sb, pb, kb = b.tables[key]
        i, j = np.divmod(np.arange(len(sa) * len(sb)), max(len(sb), 1))
        # one row per (a row, b row) pair in the factors' row order; stable, so
        # a row's entries stay a-major
        order = np.lexsort((_runs(sb)[j], _runs(sa)[i]))
        i, j = i[order], j[order]
        kids = tuple(x[i] * nb + y[j] for x, y in zip(ka, kb))
        tables[key] = (sa[i] * nb + sb[j], pa[i] * pb[j], kids)
    states = [f"{x}*{y}" for x in a.states for y in b.states]
    return _prune(a.alphabet, states, np.outer(a.initial, b.initial).ravel(), tables)


def _runs(states):
    """Row number of each entry: a row is a run of entries from one state."""
    return np.cumsum(np.diff(states, prepend=states[:1]) != 0)


def _prune(alphabet, states, initial, tables) -> Pta:
    """The automaton on the states reachable from the initial support,
    re-indexed in order."""
    keep = _reachable(initial, tables.values())
    new = np.cumsum(keep) - 1
    for key, (src, probs, kids) in tables.items():
        live = np.logical_and.reduce([keep[src], *(keep[k] for k in kids)])
        tables[key] = (new[src[live]], probs[live], tuple(new[k[live]] for k in kids))
    states = [s for s, k in zip(states, keep) if k]
    return Pta(alphabet, states, initial[keep], tables)
