"""Shared independent oracles for the test suite: exhaustive run enumeration
and exhaustive small-tree generation, plus a tree's addresses."""

import itertools

from treegress.trees import Tree


def brute_force_eval(pta, tree, hole_state=None):
    """Sum over every state assignment: initial mass at the root, then per
    node the probability of its symbol's entry from the node's state into its
    children's states, () for a leaf, or 0 without one.  A '?' leaf is
    clamped to hole_state instead of reading an entry."""
    weight = {}  # (symbol key, state, child-state tuple) -> first matching entry's p
    for key, (states, probs, kids) in pta.tables.items():
        for i, s in enumerate(states.tolist()):
            weight.setdefault((key, s, tuple(int(k[i]) for k in kids)), float(probs[i]))
    nodes = list(tree.walk())
    addrs = [addr for addr, _ in nodes]
    total = 0.0
    for assign in itertools.product(range(pta.n_states), repeat=len(nodes)):
        state_of = dict(zip(addrs, assign))
        p = pta.initial[state_of[()]]
        for addr, node in nodes:
            if p == 0:
                break
            q = state_of[addr]
            if node.symbol.name == "?":
                if q != hole_state:
                    p = 0.0
                continue
            key = (node.symbol.name, node.symbol.rank)
            tup = tuple(state_of[addr + (i,)] for i in range(1, node.symbol.rank + 1))
            p *= weight.get((key, q, tup), 0.0)
        total += p
    return total


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


def reference_eval(expr, inputs):
    """Tree-walking evaluation with a full array at every node: an independent
    oracle for the compiled evaluator, which must match it byte for byte."""
    from fractions import Fraction

    import numpy as np

    columns = {name: np.asarray(col, dtype=float) for name, col in inputs.items()}
    n = len(next(iter(columns.values()))) if columns else 1
    markers = iter([expr.theta_c[g] for g in expr.ties])
    discs = iter([float(v) for v in expr.theta_d])

    def ev(node):
        name, kids = node.symbol.name, [ev(c) for c in node.children]
        if not kids:
            if name == "d#":
                return np.full(n, next(discs))
            if name.endswith("#"):
                return np.full(n, next(markers))
            if name in columns:
                return columns[name].copy()
            return np.full(n, float(Fraction(name)))
        with np.errstate(all="ignore"):
            if name == "+":
                out = kids[0]
                for k in kids[1:]:
                    out = out + k
                return out
            if name == "-":
                return kids[0] - kids[1]
            if name == "*":
                return kids[0] * kids[1]
            if name == "/":
                return kids[0] / np.where(np.abs(kids[1]) < 1e-300, np.nan, kids[1])
            return np.power(kids[0], kids[1])

    return ev(expr.tree)


def reference_ties(tree, prior):
    """(tie table, tags) by one recursive walk that keeps the ancestor path: an
    independent oracle for compute_ties.  A group's tag is that of its first marker."""
    keys = []

    def walk(node, addr, ancestors):
        name = node.symbol.name
        if node.symbol.rank == 0 and name.endswith("#") and name != "d#":
            anchor = prior.shared.get(name)
            if anchor is None:
                keys.append((("solo", addr), name))
            else:
                sites = [a for a, s in ancestors if (s.name, s.rank) == tuple(anchor)]
                keys.append(((name, sites[-1] if sites else ("root",)), name))
        for i, child in enumerate(node.children, start=1):
            walk(child, addr + (i,), ancestors + [(addr, node.symbol)])

    walk(tree, (), [])
    first = {}
    ties = tuple(first.setdefault(key, len(first)) for key, _ in keys)
    tags = tuple(keys[ties.index(g)][1] for g in range(len(first)))
    return ties, tags
