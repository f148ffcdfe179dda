"""Probabilistic top-down tree automata.

A prior expression compiles into an automaton whose states are the emitting
sites of the expression: the initial vector is the root-symbol distribution,
and each transition row routes a state's children into the sites they can
expand to, with tuple probabilities given by the product of the child routing
distributions.  Trees are scored by building a factor graph that mirrors the
tree (one latent state variable per node, one factor per node tying parent
state, observed symbol, and child states) and eliminating it leaf-to-root.

Transition rows may sum to less than one; missing mass means derivations that
die and simply contributes nothing to any score.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatch,
    DepthBudgetExhausted,
    ImpossibleContext,
    InputError,
    StateBudgetExceeded,
)
from .prte import PriorSpec, RESAMPLE_RETRIES
from .trees import HOLE_NAME, RankedSymbol, Tree

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
        self._rows_by_symbol = None
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


# -- factor graph -------------------------------------------------------------------


@dataclass(frozen=True)
class FactorNode:
    """The factor tying one tree node's state to its observed symbol and its
    children's states.  For leaves the table is the accepted-state indicator;
    for inner nodes it is the sparse transition rows of the observed symbol."""

    address: tuple
    symbol: RankedSymbol
    table: tuple  # inner: ((state, child-tuple, p), ...); leaf: (state, ...)


@dataclass(frozen=True)
class FactorGraph:
    """Tree-shaped graph: one latent state variable and one factor per node,
    plus the initial-distribution factor on the root state."""

    states: tuple
    initial: np.ndarray
    nodes: tuple  # FactorNode, pre-order
    hole: tuple | None = None


def build_factor_graph(pta: Pta, tree: Tree, allow_hole: bool = False) -> FactorGraph:
    rows_by_symbol = pta.rows_by_symbol()
    nodes = []
    hole = None
    for addr, node in tree.walk():
        sym = node.symbol
        if sym.name == HOLE_NAME:
            if not allow_hole:
                raise AlphabetMismatch("'?' only allowed in context queries")
            if hole is not None:
                raise InputError("context must contain exactly one '?'")
            hole = addr
            nodes.append(FactorNode(addr, sym, ()))
            continue
        if not pta.alphabet.has(sym.name, sym.rank):
            raise AlphabetMismatch(f"symbol '{sym.name}/{sym.rank}' not in automaton alphabet")
        if sym.rank == 0:
            accepted = tuple(s for s, name in pta.finals if name == sym.name)
            nodes.append(FactorNode(addr, sym, accepted))
        else:
            table = tuple(
                (state, tup, p)
                for state, rows in rows_by_symbol.get((sym.name, sym.rank), ())
                for tup, p in rows
            )
            nodes.append(FactorNode(addr, sym, table))
    if allow_hole and hole is None:
        raise InputError("context must contain exactly one '?'")
    return FactorGraph(pta.states, pta.initial, tuple(nodes), hole)


def _eliminate(graph: FactorGraph, initial: np.ndarray, order=None):
    """Leaf-to-root elimination.  Returns a scalar, or a vector over the hole
    state when the graph has a hole (messages on the hole-to-root path carry a
    second axis for it)."""
    q = len(graph.states)
    by_addr = {n.address: n for n in graph.nodes}
    if order is None:
        order = [n.address for n in reversed(graph.nodes)]
    else:
        order = [tuple(a) for a in order]
        if sorted(order) != sorted(by_addr):
            raise InputError("elimination order must list every node exactly once")
        seen = set()
        for addr in order:
            node = by_addr[addr]
            for i in range(1, node.symbol.rank + 1):
                if addr + (i,) not in seen:
                    raise InputError("elimination order must be leaf-to-root")
            seen.add(addr)

    msgs = {}
    for addr in order:
        node = by_addr[addr]
        if graph.hole is not None and addr == graph.hole:
            msgs[addr] = np.eye(q)
        elif node.symbol.rank == 0:
            vec = np.zeros(q)
            for s in node.table:
                vec[s] = 1.0
            msgs[addr] = vec
        else:
            kids = [msgs[addr + (i,)] for i in range(1, node.symbol.rank + 1)]
            mat_axis = [i for i, m in enumerate(kids) if m.ndim == 2]
            if mat_axis:
                out = np.zeros((q, q))
                j = mat_axis[0]
                for state, tup, p in node.table:
                    scalar = p
                    for i, m in enumerate(kids):
                        if i != j:
                            scalar *= m[tup[i]]
                    if scalar:
                        out[state] += scalar * kids[j][tup[j]]
            else:
                out = np.zeros(q)
                for state, tup, p in node.table:
                    scalar = p
                    for i, m in enumerate(kids):
                        scalar *= m[tup[i]]
                    out[state] += scalar
            msgs[addr] = out
    return initial @ msgs[()]


def pta_eval(pta: Pta, tree: Tree, initial=None, order=None) -> float:
    """Total probability of successful runs on the tree: all state
    assignments marginalized by elimination.  ``initial`` optionally replaces
    the automaton's start distribution (e.g. a one-hot state)."""
    graph = build_factor_graph(pta, tree)
    start = pta.initial if initial is None else np.asarray(initial, dtype=float)
    return float(_eliminate(graph, start, order))


def context_marginal(pta: Pta, context: Tree) -> np.ndarray:
    """Distribution over the state at the single '?' leaf of the context,
    conditioned on the context's symbols: eliminate everything else, keep the
    hole's state variable, normalize."""
    graph = build_factor_graph(pta, context, allow_hole=True)
    vec = _eliminate(graph, pta.initial)
    total = float(vec.sum())
    if total <= 0.0:
        raise ImpossibleContext("no state can produce this context")
    return vec / total


# -- generation ---------------------------------------------------------------------


def sample_from_state(pta: Pta, state, rng, max_depth: int = 50):
    """Grow a tree from the automaton's generative process seeded at the given
    state instead of the initial distribution.  Returns (tree, log_prob) where
    log_prob is the total generation probability of the returned tree from
    that state (all derivations, matching observed frequencies).

    Requires generative states: each state must either emit exactly one
    symbol through transition rows or accept exactly one leaf symbol.
    Missing row mass aborts the attempt; attempts deeper than max_depth are
    redrawn, as in the expression sampler.
    """
    start = int(state)
    emit = _emission_table(pta)

    def grow(q, depth):
        kind, payload = emit[q]
        if kind == "leaf":
            return pta.alphabet.leaf(payload)
        if depth > max_depth:
            raise _Overflow()
        symkey, rows = payload
        r = rng.random()
        acc = 0.0
        chosen = None
        for tup, p in rows:
            acc += p
            if r < acc:
                chosen = tup
                break
        if chosen is None:  # dead mass
            raise _Overflow()
        kids = tuple(grow(s, depth + 1) for s in chosen)
        return Tree(pta.alphabet.get(symkey[0], symkey[1]), kids)

    for _ in range(RESAMPLE_RETRIES):
        try:
            tree = grow(start, 0)
            break
        except _Overflow:
            continue
    else:
        raise DepthBudgetExhausted(
            f"no tree from state {pta.states[start]} within depth {max_depth}"
        )
    onehot = np.zeros(pta.n_states)
    onehot[start] = 1.0
    prob = pta_eval(pta, tree, initial=onehot)
    return tree, math.log(prob) if prob > 0 else -math.inf


class _Overflow(Exception):
    pass


def _emission_table(pta: Pta):
    if getattr(pta, "_emission", None) is None:
        table = {}
        for (symkey, state), rows in pta.transitions.items():
            table.setdefault(state, []).append(("inner", (symkey, rows)))
        for state, name in pta.finals:
            table.setdefault(state, []).append(("leaf", name))
        emit = {}
        for q in range(pta.n_states):
            options = table.get(q, [])
            if len(options) != 1:
                raise InputError(
                    f"state {pta.states[q]} does not emit exactly one symbol; "
                    "generative sampling is defined for single-symbol states"
                )
            emit[q] = options[0]
        pta._emission = emit
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
