"""Probabilistic regular tree expressions: AST, text format, sampling, density.

An expression is built from five constructors:

* ``PSymbol(f, children)``   -- emit symbol f, then expand each child,
* ``PVar(name)``             -- a variable occurrence,
* ``PChoice([(w, e), ...])`` -- pick one branch by weight,
* ``PConcat(l, v, r)``       -- expand l; every occurrence of v inside it is
                                replaced by an independent sample of r,
* ``PIter(body, v)``         -- expand body; every occurrence of v restarts
                                the iteration (independently per occurrence).

Variables are lexically scoped; an inner binder shadows an outer one of the
same name.  Sampling is the operational reading of the above.  The density of
a tree is the total probability over all ways the expression can generate it,
computed exactly in rational arithmetic: every choice weight is a Fraction.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import (
    DepthBudgetExhausted,
    InputError,
    NonTerminatingIter,
    PrteSyntaxError,
    UnboundVariable,
    WeightSumError,
    json_object,
)
from .trees import (
    RankedAlphabet,
    RankedSymbol,
    SymbolicExpression,
    Tree,
    is_const_marker,
    is_disc_marker,
    is_numeric_literal,
)

WEIGHT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 50
# the samplers recurse once per level, one frame each in _draw and pta._grow, so
# 400 levels stay clear of Python's default recursion limit of 1000
MAX_DEPTH_CAP = 400
RESAMPLE_RETRIES = 1000
_MIN_RATE = 1 / sys.float_info.max  # an exponential scale 1 / rate is finite above it

_KEYWORDS = frozenset({"choice", "iter", "subst"})


# -- AST -----------------------------------------------------------------------


class Prte:
    """Base class; subclasses are immutable value objects."""

    __slots__ = ()

    def __str__(self):
        return format_prte(self)


@dataclass(frozen=True)
class PSymbol(Prte):
    symbol: RankedSymbol
    children: tuple = ()

    def __post_init__(self):
        if len(self.children) != self.symbol.rank:
            raise InputError(
                f"'{self.symbol.name}' has rank {self.symbol.rank} "
                f"but {len(self.children)} sub-expressions"
            )


@dataclass(frozen=True)
class PVar(Prte):
    name: str


@dataclass(frozen=True)
class PChoice(Prte):
    branches: tuple  # of (weight, Prte); each weight is stored as a Fraction
    # running float sums of the weights, added in branch order, for the sampler
    cumulative: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.branches:
            raise InputError("choice needs at least one branch")
        object.__setattr__(self, "branches", tuple((Fraction(w), b) for w, b in self.branches))
        for w, _ in self.branches:
            if not (0 < float(w) <= 1):
                raise WeightSumError(f"choice weight {w} outside (0, 1]")
        object.__setattr__(self, "cumulative", tuple(accumulate(float(w) for w, _ in self.branches)))
        total = self.cumulative[-1]
        if abs(total - 1.0) > WEIGHT_TOL:
            raise WeightSumError(f"choice weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class PConcat(Prte):
    left: Prte
    var: str
    right: Prte


@dataclass(frozen=True)
class PIter(Prte):
    body: Prte
    var: str


# -- canonical text ------------------------------------------------------------


def _format_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def format_prte(e: Prte) -> str:
    """Canonical single-line form; parsing it back yields an equal AST."""
    if isinstance(e, PSymbol):
        if not e.children:
            return e.symbol.name
        inner = ", ".join(format_prte(c) for c in e.children)
        return f"{e.symbol.name}({inner})"
    if isinstance(e, PVar):
        return f"${e.name}"
    if isinstance(e, PChoice):
        inner = ", ".join(f"{_format_weight(w)}: {format_prte(b)}" for w, b in e.branches)
        return f"choice{{ {inner} }}"
    if isinstance(e, PIter):
        return f"iter ${e.var} {{ {format_prte(e.body)} }}"
    if isinstance(e, PConcat):
        return f"{format_prte(e.left)}.subst(${e.var}, {format_prte(e.right)})"
    raise TypeError(f"not a Prte: {e!r}")


# One token per match: whitespace, then punctuation, a variable, a number, a
# name, a stray '$' or the end.  A number must end at whitespace, punctuation or
# the end; the lookahead and backreference stop the regex from backtracking into
# a shorter number, so ``0.5iter`` reads as the name ``0``, ``.`` and ``5iter``.
_TOKEN_RE = re.compile(r"""
    \s*
    (?: (?P<punct>[(){},:.])
      | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
      | (?=(?P<num>-?\d+(?:\.\d+)?(?:/\d+)?))(?P=num)(?=[\s(){},:.]|\Z)
      | (?P<name>[^\s(){},:.$]+)
      | (?P<bad>.)
      | (?P<eof>\Z) )
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'var' | 'name' | one of "(){},:." | 'eof'
    text: str
    pos: int  # offset into the text; a variable's is its '$'


def _line_col(text: str, pos: int) -> tuple:
    """1-based line and column of an offset; only a newline starts a line."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str):
    tokens, pos = [], 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        tok, start, pos = m.group(kind), m.start(kind), m.end()
        if kind == "bad":
            raise PrteSyntaxError(f"unexpected character {tok!r}", *_line_col(text, start))
        if kind == "var":
            tok = tok[1:]
        tokens.append(_Token(tok if kind == "punct" else kind, tok, start))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str, tok: _Token) -> PrteSyntaxError:
        return PrteSyntaxError(message, *_line_col(self.text, tok.pos))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text!r}", tok)
        return tok

    # prte := primary { "." "subst" "(" VAR "," prte ")" }
    def parse_prte(self) -> Prte:
        expr = self.parse_primary()
        while self.peek().kind == ".":
            self.next()
            kw = self.expect("name")
            if kw.text != "subst":
                raise self.error(f"expected 'subst', found {kw.text!r}", kw)
            self.expect("(")
            var = self.expect("var").text
            self.expect(",")
            right = self.parse_prte()
            self.expect(")")
            expr = PConcat(expr, var, right)
        return expr

    def parse_primary(self) -> Prte:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return PVar(tok.text)
        if tok.kind == "name" and tok.text == "choice":
            return self.parse_choice()
        if tok.kind == "name" and tok.text == "iter":
            return self.parse_iter()
        if tok.kind in ("name", "num"):
            return self.parse_node()
        raise self.error(f"expected an expression, found {tok.text!r}", tok)

    def parse_choice(self) -> PChoice:
        kw = self.next()
        self.expect("{")
        branches = []
        while True:
            w = self.parse_weight()
            self.expect(":")
            branches.append((w, self.parse_prte()))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect("}")
        try:
            return PChoice(tuple(branches))
        except WeightSumError as exc:
            line, col = _line_col(self.text, kw.pos)
            raise WeightSumError(f"{exc} (line {line}, column {col})") from None

    def parse_weight(self):
        tok = self.expect("num")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"bad weight {tok.text!r}", tok) from None

    def parse_iter(self) -> PIter:
        self.next()
        var = self.expect("var").text
        self.expect("{")
        body = self.parse_prte()
        self.expect("}")
        return PIter(body, var)

    def parse_node(self) -> PSymbol:
        tok = self.next()
        name = tok.text
        if name in _KEYWORDS:
            raise self.error(f"{name!r} is a reserved word", tok)
        if self.peek().kind == "(":
            self.next()
            kids = [self.parse_prte()]
            while self.peek().kind == ",":
                self.next()
                kids.append(self.parse_prte())
            self.expect(")")
            return PSymbol(RankedSymbol(name, len(kids)), tuple(kids))
        return PSymbol(RankedSymbol(name, 0))


def _parse(text: str) -> Prte:
    """Parse the textual form, checking its syntax only."""
    parser = _Parser(text)
    try:
        expr = parser.parse_prte()
    except RecursionError:
        raise InputError("the expression nests too deeply to parse") from None
    tail = parser.peek()
    if tail.kind != "eof":
        raise parser.error(f"trailing input {tail.text!r}", tail)
    return expr


def parse_prte(text: str) -> Prte:
    """Parse the textual form; symbols are taken at their observed rank.
    The result is validated: scopes close, weights sum to one, and every
    iteration can terminate."""
    expr = _parse(text)
    _Resolution(expr)  # raises on unbound variables / dead iterations
    return expr


# -- scope resolution and static analysis ---------------------------------------


class _Resolution:
    """Static pass over an expression, the one place each fact about a node is
    derived.

    Resolves every variable occurrence to the sub-expression it expands to
    (the right side of its concatenation, or the enclosing iteration itself),
    checks that every iteration admits a finite derivation, finds the least
    derivation height of every node, and precomputes the root-symbol
    distribution ``reach`` of every node: the probability that expanding the
    node emits its first symbol at each emitting site.  The sampling ``plan``,
    built at the first draw, holds trees as the automaton's regrow does: by
    ``held_trees``."""

    def __init__(self, root: Prte):
        self.root = root
        # id of a variable, concatenation or iteration -> the node it expands to
        self.target: dict[int, Prte] = {}
        self.nodes: list[Prte] = []
        self._seen: set[int] = set()
        try:
            self._resolve(root, {})
            self.heights = self._least_heights()
            self.height = self.heights[id(root)]
            self.reach = self._compute_reach()
        except RecursionError:
            raise InputError("the expression nests too deeply to analyse") from None
        self.symbol_nodes = [n for n in self.nodes if isinstance(n, PSymbol)]

    # resolution ----------------------------------------------------------

    def _resolve(self, node: Prte, scope: dict):
        key = id(node)
        if key in self._seen:  # the analysis keys nodes by identity, one object per place
            raise InputError("a sub-expression object occurs twice; build one node per place")
        self._seen.add(key)
        self.nodes.append(node)
        if isinstance(node, PSymbol):
            for c in node.children:
                self._resolve(c, scope)
        elif isinstance(node, PVar):
            if node.name not in scope:
                raise UnboundVariable(f"variable ${node.name} is not bound")
            self.target[key] = scope[node.name]
        elif isinstance(node, PChoice):
            for _, b in node.branches:
                self._resolve(b, scope)
        elif isinstance(node, PConcat):
            self._resolve(node.right, scope)
            self.target[key] = node.left
            self._resolve(node.left, {**scope, node.var: node.right})
        elif isinstance(node, PIter):
            self.target[key] = node.body
            self._resolve(node.body, {**scope, node.var: node})
        else:
            raise TypeError(f"not a Prte: {node!r}")

    # expansion edges -------------------------------------------------------

    def expansion(self, node: Prte):
        """Weighted epsilon successors: where probability mass flows without
        emitting a symbol."""
        if isinstance(node, PChoice):
            return node.branches
        if isinstance(node, PSymbol):
            return ()
        return ((Fraction(1), self.target[id(node)]),)

    # termination -----------------------------------------------------------

    def _least_heights(self):
        """id(node) -> least derivation height, found by lowering each from
        infinity until nothing changes (Knuth 1977): a leaf symbol has height
        0 and an inner symbol 1 plus its children's maximum; a choice has its
        branches' minimum, and a variable, concatenation or iteration the
        height of what it expands to.  An infinite height derives no finite
        tree: an iteration whose body never sheds its variable keeps growing
        forever and is rejected."""
        height = {id(n): math.inf for n in self.nodes}
        changed = True
        while changed:
            changed = False
            for n in reversed(self.nodes):  # children mostly before parents
                if isinstance(n, PSymbol):
                    h = max((height[id(c)] + 1 for c in n.children), default=0)
                else:
                    h = min(height[id(t)] for _, t in self.expansion(n))
                if h < height[id(n)]:
                    height[id(n)] = h
                    changed = True
        for n in self.nodes:
            if isinstance(n, PIter) and height[id(n)] == math.inf:
                raise NonTerminatingIter(
                    f"iteration over ${n.var} has no variable-free derivation"
                )
        if height[id(self.root)] == math.inf:
            raise NonTerminatingIter("expression cannot derive any finite tree")
        return height

    @cached_property
    def plan(self) -> tuple:
        """One record per symbol and per choice, the root's first, built at the first draw.
        Records name each other by index, so there is no cycle, though ``iter`` makes the
        graph cyclic.  A symbol's is (symbol, child indices, the (tree, height, inner
        nodes) ``held_trees`` finds for it or None); a choice's is (None, branch indices
        with the last one twice, for a draw above every running sum, its running sums).
        A variable, concatenation or iteration takes the index of the symbol or choice it
        expands to.  A choice draws, so ``held_trees`` sees it as (None, None) and holds
        exactly the symbols without a choice below them, each at its least height."""
        def site(node):
            while id(node) in self.target:
                node = self.target[id(node)]
            return node

        first = site(self.root)
        sites = [first, *(n for n in self.nodes if id(n) not in self.target and n is not first)]
        index = {id(n): i for i, n in enumerate(sites)}
        index.update((key, index[id(site(n))]) for key, n in self.target.items())
        records = [(n.symbol, tuple(index[id(c)] for c in n.children))
                   if isinstance(n, PSymbol) else (None, None) for n in sites]
        held = held_trees(records)
        return tuple(
            (symbol, kids, held.get(i)) if symbol is not None else
            (None, tuple(index[id(b)] for _, b in (*n.branches, n.branches[-1])), n.cumulative)
            for i, (n, (symbol, kids)) in enumerate(zip(sites, records)))

    # root-symbol distributions ----------------------------------------------

    def _compute_reach(self):
        """For every node, the sub-probability of each emitting site being the
        one that produces the node's root symbol.  Expansion may loop through
        variables without emitting, so each strongly connected group of the
        expansion graph is one exact linear system (I - A) X = B: B sums the
        reach of the group's successors outside it, A weighs the edges inside
        it, and a group without such an edge is B itself."""
        reach: dict[int, dict[int, object]] = {}
        for comp in _sccs(self.nodes, self.expansion):
            order = {id(n): i for i, n in enumerate(comp)}
            matrix = [[Fraction(int(i == j)) for j in range(len(comp))] for i in range(len(comp))]
            rhs, cyclic = [], False
            for i, n in enumerate(comp):
                acc = {id(n): Fraction(1)} if isinstance(n, PSymbol) else {}
                for w, t in self.expansion(n):
                    if id(t) in order:
                        matrix[i][order[id(t)]] -= w
                        cyclic = True
                        continue
                    for s, p in reach[id(t)].items():
                        acc[s] = acc.get(s, 0) + w * p
                rhs.append(acc)
            solved = _solve_linear(matrix, rhs) if cyclic else rhs
            if solved is None:
                raise NonTerminatingIter(
                    "probability mass is trapped in a variable expansion loop"
                )
            reach.update(zip(order, solved))
        return reach


def _sccs(nodes, successors):
    """Tarjan's algorithm, yielding components in reverse topological order
    (every successor component is yielded before its predecessors)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    def visit(n):
        key = id(n)
        index[key] = low[key] = counter[0]
        counter[0] += 1
        stack.append(n)
        on_stack.add(key)
        for _, t in successors(n):
            tk = id(t)
            if tk not in index:
                visit(t)
                low[key] = min(low[key], low[tk])
            elif tk in on_stack:
                low[key] = min(low[key], index[tk])
        if low[key] == index[key]:
            comp = []
            while True:
                m = stack.pop()
                on_stack.discard(id(m))
                comp.append(m)
                if m is n:
                    break
            components.append(comp)

    for n in nodes:
        if id(n) not in index:
            visit(n)
    return components


def _solve_linear(matrix, rhs):
    """Gaussian elimination with dict-valued right-hand sides.  Returns None
    when the system is singular."""
    k = len(matrix)
    m = [row[:] for row in matrix]
    b = [dict(r) for r in rhs]
    for col in range(k):
        pivot = None
        for r in range(col, k):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        b[col], b[pivot] = b[pivot], b[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        b[col] = {s: v / pv for s, v in b[col].items()}
        for r in range(k):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            m[r] = [vr - factor * vc for vr, vc in zip(m[r], m[col])]
            for s, v in b[col].items():
                b[r][s] = b[r].get(s, 0 * v) - factor * v
    return [{s: v for s, v in row.items() if v != 0} for row in b]


# -- marker priors and prior specifications --------------------------------------

@dataclass(frozen=True)
class MarkerPrior:
    """Distribution of the continuous parameter bound to one marker tag."""

    kind: str  # 'exp' | 'normal'
    rate: float = 1.0
    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exp", "normal"):
            raise InputError(f"unknown marker prior '{self.kind}'")
        if not all(map(math.isfinite, (self.rate, self.mean, self.stddev))):
            raise InputError("marker prior rate, mean and stddev must be finite")
        if self.kind == "exp" and self.rate <= _MIN_RATE:  # positive, and 1 / rate finite
            raise InputError(f"exponential rate must be above 1 / sys.float_info.max "
                             f"({_MIN_RATE!r}), or its scale 1 / rate overflows")
        if self.kind == "normal" and self.stddev <= 0:
            raise InputError("normal stddev must be positive")
        # what the chain's log density reads; log(rate) or log(stddev), only the one the
        # kind reads: a normal prior may carry rate=0
        log_scale = math.log(self.rate if self.kind == "exp" else self.stddev)
        object.__setattr__(self, "constants",
                           (self.kind == "exp", self.rate, self.mean, self.stddev, log_scale))

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "exp":
            return float(rng.exponential(1.0 / self.rate))
        return float(rng.normal(self.mean, self.stddev))


@dataclass(frozen=True)
class PriorSpec:
    """A validated prior: expression, marker priors, sampler limits.

    ``alphabet`` is derived, not given: the symbols the expression uses plus
    the declared input ``variables``, each as a leaf.  ``shared`` optionally
    ties all markers of a tag that sit under the same nearest ancestor of a
    given (name, rank); tied occurrences consume a single parameter entry.
    """

    name: str
    root: Prte
    max_depth: int = DEFAULT_MAX_DEPTH
    markers: dict = field(default_factory=dict)  # tag -> MarkerPrior
    theta_d_support: tuple = ()
    shared: dict = field(default_factory=dict)  # tag -> (name, rank)
    variables: tuple = ()
    alphabet: RankedAlphabet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        graph = _Resolution(self.root)
        object.__setattr__(self, "_graph", graph)
        if not 0 < self.max_depth <= MAX_DEPTH_CAP:
            raise InputError(f"max_depth must be between 1 and {MAX_DEPTH_CAP}, got {self.max_depth}")
        if graph.height > self.max_depth:  # the sampler would overflow on every draw
            raise InputError(
                f"the prior's shallowest tree is {graph.height} deep, beyond max_depth {self.max_depth}"
            )
        used = {n.symbol for n in graph.symbol_nodes}
        used_tags = {s.name for s in used if is_const_marker(s)}
        declared = set(self.markers)
        if used_tags - declared:
            raise InputError(f"markers without a prior: {sorted(used_tags - declared)}")
        if declared - used_tags:
            raise InputError(f"declared markers never used: {sorted(declared - used_tags)}")
        undeclared = sorted(set(self.shared) - declared)
        if undeclared:
            raise InputError(f"shared tags that are not declared markers: {undeclared}")
        anchors = {(s.name, s.rank) for s in used}
        unmatched = sorted(tag for tag, anchor in self.shared.items() if anchor not in anchors)
        if unmatched:  # no node would anchor them, so each tag would tie all its markers
            raise InputError(
                f"shared tags whose anchor no symbol of the expression has: {unmatched}")
        leaves = {RankedSymbol(v, 0) for v in self.variables}
        unreadable = sorted(s.name for s in leaves if is_numeric_literal(s) or s.name.endswith("#"))
        if unreadable:  # evaluation reads such a leaf as a literal or a parameter, never a column
            raise InputError(f"variables that name a number or a marker: {unreadable}")
        if any(is_disc_marker(s) for s in used) and not self.theta_d_support:
            raise InputError("discrete markers present but theta_d_support is empty")
        object.__setattr__(
            self, "theta_d_support", tuple(Fraction(v) for v in self.theta_d_support)
        )
        object.__setattr__(self, "alphabet", RankedAlphabet(sorted(used | leaves)))

    @property
    def graph(self) -> _Resolution:
        return self._graph


# -- sampling --------------------------------------------------------------------


def held_trees(records) -> dict:
    """Index -> (tree, its depth, its nodes of rank above 0) of every record that can
    give only one tree, for both samplers: a record is (symbol, child indices), or
    (None, None) for one that draws, and is held once all its children are.  A fixpoint
    like ``_Resolution._least_heights``, so a child may come later and a cycle is never held."""
    held, changed = {}, True
    while changed:
        changed = False
        for i, (symbol, kids) in enumerate(records):
            if i in held or kids is None or any(k not in held for k in kids):
                continue
            subtrees, heights, inner = zip(*(held[k] for k in kids)) if kids else ((), (-1,), ())
            held[i] = Tree(symbol, subtrees), max(heights) + 1, sum(inner) + (symbol.rank > 0)
            changed = True
    return held


def sample_tree(prior: PriorSpec, rng: np.random.Generator) -> Tree:
    """Draw one tree.  Each variable occurrence expands to an independent
    sample of its binding expression.  Samples deeper than max_depth are
    discarded and redrawn; persistent overflow raises DepthBudgetExhausted.
    The truncation slightly biases the sampled law against very deep trees;
    the density does not.  The draw walks ``prior.graph.plan``, in which a symbol
    without a choice below it gives the tree ``held_trees`` holds for it."""
    plan = prior.graph.plan
    for _ in range(RESAMPLE_RETRIES):
        try:
            return _draw(plan, rng, (0,), 0, prior.max_depth)[0]
        except DepthBudgetExhausted:
            continue
    raise DepthBudgetExhausted(
        f"no sample within depth {prior.max_depth} after {RESAMPLE_RETRIES} tries"
    )


def _draw(plan: tuple, rng: np.random.Generator, at: tuple, depth: int, max_depth: int) -> tuple:
    """One attempt of ``sample_tree``: the trees of the sibling plan records ``at`` at
    ``depth``, left to right.  A choice takes the branch of the first running sum above
    one ``rng.random()``, in this frame, so a held tree opens none; one that would pass
    max_depth is built out, to overflow as it would unheld."""
    out = []
    for i in at:
        symbol, kids, held = plan[i]
        while symbol is None:  # a choice: ``kids`` are its branches, ``held`` its running sums
            symbol, kids, held = plan[kids[bisect_right(held, rng.random())]]
        if held is not None and depth + held[1] <= max_depth:
            out.append(held[0])
        elif depth > max_depth:
            raise DepthBudgetExhausted(f"the drawn tree passed depth {max_depth}")
        else:
            out.append(Tree(symbol, _draw(plan, rng, kids, depth + 1, max_depth)))
    return tuple(out)


def compute_ties(tree: Tree, prior: PriorSpec) -> tuple:
    """(tie table, tags) under this prior's sharing rules: the i-th continuous marker in
    pre-order maps to its group, numbered by first occurrence, and ``tags[g]`` is group
    g's tag.  A shared tag groups by its nearest strict ancestor matching its anchor, or
    by none; any other marker is its own group.  One walk over the nodes with markers
    carries each anchor's nearest occurrence on the path, in a dict copied at anchors."""
    anchors = set(prior.shared.values())
    groups: dict = {}  # group key -> (group, tag), in order of first occurrence
    ties = []
    stack = [(tree, {})] if tree.n_const else []
    occurrence = 0
    while stack:
        node, near = stack.pop()
        name, rank = node.symbol.name, node.symbol.rank
        if is_const_marker(node.symbol):
            anchor = prior.shared.get(name)
            key = ("solo", occurrence) if anchor is None else (name, near.get(anchor))
            ties.append(groups.setdefault(key, (len(groups), name))[0])
        else:
            if (name, rank) in anchors:
                near = {**near, (name, rank): occurrence}
            stack.extend((child, near) for child in reversed(node.children) if child.n_const)
        occurrence += 1
    return tuple(ties), tuple(tag for _, tag in groups.values())


group_tags = compute_ties  # bench/spans.py wraps this name; ROADMAP item 5 deletes it


def sample_expression(prior: PriorSpec, rng: np.random.Generator) -> SymbolicExpression:
    """Sample a tree as ``sample_tree`` does, then fill its parameter slots from the marker
    priors (one draw per group of ``compute_ties``, from its tag's prior) and the discrete
    support.  Raises InputError, naming the marker, when a draw passes float range."""
    tree = sample_tree(prior, rng)
    ties, tags = compute_ties(tree, prior)
    theta_c = tuple(prior.markers[tag].sample(rng) for tag in tags)
    for tag, value in zip(tags, theta_c):
        if not math.isfinite(value):
            m = prior.markers[tag]
            shape = (f"rate {m.rate!r}" if m.kind == "exp" else
                     f"mean {m.mean!r}, stddev {m.stddev!r}")
            raise InputError(f"marker {tag} drew {value!r} from its {m.kind} prior ({shape}), "
                             "past float range")
    support = prior.theta_d_support
    theta_d = tuple(support[int(rng.integers(len(support)))] for _ in range(tree.n_disc))
    return SymbolicExpression(tree, theta_c, theta_d, ties)


# -- density ---------------------------------------------------------------------


def prte_density(prior: PriorSpec, tree: Tree):
    """Total probability that the prior generates exactly this tree, summed
    over every derivation, as an exact Fraction; 0 for trees outside the
    language.  Unlike the sampler this is not depth-limited."""
    graph = prior.graph
    sites_of: dict = {}
    for s in graph.symbol_nodes:
        sites_of.setdefault(s.symbol, []).append(s)
    # inside values, bottom-up: emitted[node][id(site)] is the probability that
    # the emitting site generates exactly the tree node; each distinct node is
    # scored once, however often it occurs
    emitted: dict = {}

    def derives(expr: Prte, node: Tree):
        """The probability that expanding ``expr`` generates exactly ``node``."""
        at = emitted[node]
        return sum((w * at[sid] for sid, w in graph.reach[id(expr)].items() if sid in at),
                   Fraction(0))

    stack = [(tree, False)]  # post-order: a node pushes its children only when first met
    while stack:
        node, ready = stack.pop()
        if node in emitted:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        at = emitted[node] = {}
        for site in sites_of.get(node.symbol, ()):
            p = Fraction(1)
            for expr, child in zip(site.children, node.children):
                p *= derives(expr, child)
                if not p:
                    break
            if p:
                at[id(site)] = p
    return derives(prior.root, tree)


# -- prior files -------------------------------------------------------------------


def build_prior(
    name: str,
    expression: str,
    variables=(),
    markers=None,
    theta_d_support=(),
    max_depth: int = DEFAULT_MAX_DEPTH,
    shared=None,
) -> PriorSpec:
    """Assemble and validate a prior from its textual expression and the
    other keys of a prior file: ``markers`` maps each tag to a marker object
    such as ``{"dist": "exp", "rate": 1.0}``, ``shared`` a tag to
    ``{"anchor": name, "rank": rank}``.  Only the syntax is checked here;
    ``PriorSpec`` runs the static analysis once and derives the alphabet:
    exactly the symbols used plus the declared input variables."""
    expr = _parse(expression)
    for what, specs in (("marker", markers), ("shared tag", shared)):
        for tag, spec in (specs or {}).items():  # json_object would decode a string as JSON
            if type(spec) is not dict:
                raise InputError(f"{what} '{tag}': not one JSON object but a {type(spec).__name__}")
    marker_priors = {tag: _marker_from_dict(tag, spec) for tag, spec in (markers or {}).items()}
    anchors = {tag: json_object(spec, f"shared tag '{tag}'", _ANCHOR_KEYS, _ANCHOR_KEYS)
               for tag, spec in (shared or {}).items()}
    try:
        support = tuple(Fraction(str(v)) for v in theta_d_support)
        for v in support:
            float(v)  # a value evaluates as a float, so it must have a finite one
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"theta_d_support: {exc}") from exc
    return PriorSpec(
        name=name,
        root=expr,
        max_depth=max_depth,
        markers=marker_priors,
        theta_d_support=support,
        shared={tag: (a["anchor"], a["rank"]) for tag, a in anchors.items()},
        variables=tuple(variables),
    )


# per marker distribution, and for a shared anchor: the keys of its object, all required
_MARKER_KEYS = {"exp": {"dist": (str,), "rate": (float,)},
                "normal": {"dist": (str,), "mean": (float,), "stddev": (float,)}}
_ANCHOR_KEYS = {"anchor": (str,), "rank": (int,)}


def _marker_from_dict(tag: str, spec: dict) -> MarkerPrior:
    kind = spec.get("dist")
    keys = _MARKER_KEYS.get(kind) if type(kind) is str else None
    if keys is None:
        raise InputError(f"marker '{tag}': unknown distribution {kind!r}")
    spec = json_object(spec, f"marker '{tag}'", keys, keys)
    return MarkerPrior(kind, **{key: float(spec[key]) for key in keys if key != "dist"})


# per prior file key, which names the parameter of build_prior it fills: the JSON
# type of its value, and of the items of a list or the values of an object
_PRIOR_FILE_KEYS = {
    "name": (str,),
    "expression": (str,),
    "variables": (list, str),
    "markers": (dict, dict),
    "theta_d_support": (list, float, str),
    "max_depth": (int,),
    "shared": (dict, dict),
}


def load_prior(source) -> PriorSpec:
    """Load a prior from a JSON file path or an already-parsed dict.  ``json_object``
    checks its keys and their JSON types; ``build_prior`` checks the values."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8")
    return build_prior(**json_object(source, "prior file", _PRIOR_FILE_KEYS, ("name", "expression")))
