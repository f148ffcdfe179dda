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

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
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
)
from .trees import (
    RankedAlphabet,
    RankedSymbol,
    SymbolicExpression,
    Tree,
    is_const_marker,
    is_disc_marker,
)

WEIGHT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 50
RESAMPLE_RETRIES = 1000

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


_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?(/\d+)?")
_VAR_RE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = "(){},:."


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'var' | 'name' | one of _PUNCT | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        m = _VAR_RE.match(text, i)
        if m:
            tokens.append(_Token("var", m.group()[1:], line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (m.end() >= n or text[m.end()].isspace() or text[m.end()] in _PUNCT):
            tokens.append(_Token("num", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT and text[j] != "$":
            j += 1
        if j == i:
            raise PrteSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token("name", text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise PrteSyntaxError(
                f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col
            )
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise PrteSyntaxError(message, tok.line, tok.col)

    # prte := primary { "." "subst" "(" VAR "," prte ")" }
    def parse_prte(self) -> Prte:
        expr = self.parse_primary()
        while self.peek().kind == ".":
            self.next()
            kw = self.expect("name")
            if kw.text != "subst":
                raise PrteSyntaxError(f"expected 'subst', found {kw.text!r}", kw.line, kw.col)
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
        self.fail(f"expected an expression, found {tok.text!r}")

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
            raise WeightSumError(f"{exc} (line {kw.line}, column {kw.col})") from None

    def parse_weight(self):
        tok = self.expect("num")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise PrteSyntaxError(f"bad weight {tok.text!r}", tok.line, tok.col) from None

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
            raise PrteSyntaxError(f"{name!r} is a reserved word", tok.line, tok.col)
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
        raise PrteSyntaxError(f"trailing input {tail.text!r}", tail.line, tail.col)
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
    """Static pass over an expression.

    Resolves every variable occurrence to the sub-expression it expands to
    (the right side of its concatenation, or the enclosing iteration itself),
    checks that every iteration admits a finite derivation, finds the least
    derivation ``height`` of the root, and precomputes the root-symbol
    distribution ``reach`` of every node: the probability that expanding the
    node emits its first symbol at each emitting site.
    """

    def __init__(self, root: Prte):
        self.root = root
        self.var_target: dict[int, Prte] = {}
        self.nodes: list[Prte] = []
        self._seen: set[int] = set()
        self.fixed: dict | None = None  # see fixed_trees
        try:
            self._resolve(root, {})
            self.height = self._least_height()
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
            self.var_target[key] = scope[node.name]
        elif isinstance(node, PChoice):
            for _, b in node.branches:
                self._resolve(b, scope)
        elif isinstance(node, PConcat):
            self._resolve(node.right, scope)
            inner = dict(scope)
            inner[node.var] = node.right
            self._resolve(node.left, inner)
        elif isinstance(node, PIter):
            inner = dict(scope)
            inner[node.var] = node
            self._resolve(node.body, inner)
        else:
            raise TypeError(f"not a Prte: {node!r}")

    # expansion edges -------------------------------------------------------

    def expansion(self, node: Prte):
        """Weighted epsilon successors: where probability mass flows without
        emitting a symbol."""
        if isinstance(node, PChoice):
            return list(node.branches)
        if isinstance(node, PVar):
            return [(Fraction(1), self.var_target[id(node)])]
        if isinstance(node, PConcat):
            return [(Fraction(1), node.left)]
        if isinstance(node, PIter):
            return [(Fraction(1), node.body)]
        return []

    # termination -----------------------------------------------------------

    def _least_height(self):
        """Least derivation height of every node, by lowering each from
        infinity until nothing changes (Knuth 1977): a leaf symbol has height
        0 and an inner symbol 1 plus its children's maximum; a choice has its
        branches' minimum, and a variable, concatenation or iteration the
        height of what it expands to.  An infinite height derives no finite
        tree: an iteration whose body never sheds its variable keeps growing
        forever and is rejected.  Returns the root's height."""
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
        return height[id(self.root)]

    def fixed_trees(self) -> dict:
        """id(node) -> (tree, height) of every node whose expansion reaches no
        choice and so derives one tree; a fixpoint like ``_least_height``'s."""
        if self.fixed is None:
            fixed, changed = {}, True
            while changed:
                changed = False
                for n in reversed(self.nodes):
                    if id(n) in fixed or isinstance(n, PChoice):
                        continue
                    if isinstance(n, PSymbol):
                        kids = [fixed.get(id(c)) for c in n.children]
                        held = None if None in kids else (Tree(n.symbol, tuple(t for t, _ in kids)),
                                                          max((h + 1 for _, h in kids), default=0))
                    else:
                        held = fixed.get(id(self.expansion(n)[0][1]))
                    if held is not None:
                        fixed[id(n)], changed = held, True
            self.fixed = fixed
        return self.fixed

    # root-symbol distributions ----------------------------------------------

    def _compute_reach(self):
        """For every node, the sub-probability of each emitting site being the
        one that produces the node's root symbol.  Expansion may loop through
        variables without emitting, so strongly connected groups of the
        expansion graph are solved as exact linear systems."""
        reach: dict[int, dict[int, object]] = {}
        for comp in _sccs(self.nodes, self.expansion):
            internal = {id(n) for n in comp}
            if len(comp) == 1 and not any(
                id(t) in internal for _, t in self.expansion(comp[0])
            ):
                n = comp[0]
                if isinstance(n, PSymbol):
                    reach[id(n)] = {id(n): Fraction(1)}
                else:
                    acc: dict[int, object] = {}
                    for w, t in self.expansion(n):
                        for s, p in reach[id(t)].items():
                            acc[s] = acc.get(s, 0) + w * p
                    reach[id(n)] = acc
                continue
            # cyclic group: solve (I - A) X = B
            order = {id(n): i for i, n in enumerate(comp)}
            k = len(comp)
            matrix = [[Fraction(0)] * k for _ in range(k)]
            rhs: list[dict[int, object]] = [dict() for _ in range(k)]
            for n in comp:
                i = order[id(n)]
                matrix[i][i] += 1
                for w, t in self.expansion(n):
                    if id(t) in internal:
                        matrix[i][order[id(t)]] -= w
                    else:
                        for s, p in reach[id(t)].items():
                            rhs[i][s] = rhs[i].get(s, Fraction(0)) + w * p
            solved = _solve_linear(matrix, rhs)
            if solved is None:
                raise NonTerminatingIter(
                    "probability mass is trapped in a variable expansion loop"
                )
            for n in comp:
                reach[id(n)] = solved[order[id(n)]]
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
        if self.kind == "exp" and self.rate <= 0:
            raise InputError("exponential rate must be positive")
        if self.kind == "normal" and self.stddev <= 0:
            raise InputError("normal stddev must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "exp":
            return float(rng.exponential(1.0 / self.rate))
        return float(rng.normal(self.mean, self.stddev))

    def logpdf(self, x: float) -> float:
        if self.kind == "exp":
            if x < 0:
                return -math.inf
            return math.log(self.rate) - self.rate * x
        z = (x - self.mean) / self.stddev
        return -0.5 * z * z - math.log(self.stddev) - 0.5 * math.log(2 * math.pi)


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
        if self.max_depth <= 0:
            raise InputError("max_depth must be positive")
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
        if any(is_disc_marker(s) for s in used) and not self.theta_d_support:
            raise InputError("discrete markers present but theta_d_support is empty")
        object.__setattr__(
            self, "theta_d_support", tuple(Fraction(v) for v in self.theta_d_support)
        )
        leaves = {RankedSymbol(v, 0) for v in self.variables}
        object.__setattr__(self, "alphabet", RankedAlphabet(used | leaves))

    @property
    def graph(self) -> _Resolution:
        return self._graph


# -- sampling --------------------------------------------------------------------


def sample_tree(prior: PriorSpec, rng: np.random.Generator) -> Tree:
    """Draw one tree.  Each variable occurrence expands to an independent
    sample of its binding expression.  Samples deeper than max_depth are
    discarded and redrawn; persistent overflow raises DepthBudgetExhausted.
    The truncation slightly biases the sampled law against very deep trees;
    the density does not.  A sub-expression without a choice gives the tree
    ``prior.graph.fixed_trees()`` holds for it."""
    fixed = prior.graph.fixed_trees()
    for _ in range(RESAMPLE_RETRIES):
        try:
            return _draw(prior, fixed, rng, (prior.root,), 0)[0]
        except DepthBudgetExhausted:
            continue
    raise DepthBudgetExhausted(
        f"no sample within depth {prior.max_depth} after {RESAMPLE_RETRIES} tries"
    )


def _draw(prior: PriorSpec, fixed: dict, rng: np.random.Generator, nodes: tuple,
          depth: int) -> tuple:
    """One attempt of ``sample_tree``: the trees of sibling ``nodes`` at ``depth``, left
    to right.  Choices resolve in this frame, so a held tree opens none; one that would
    pass max_depth is built out, to overflow as it would unheld.  Not a recursive
    closure: its reference cycle would keep the prior alive until a full collection."""
    out = []
    for node in nodes:
        while True:
            held = fixed.get(id(node))
            if held is not None and depth + held[1] <= prior.max_depth:
                out.append(held[0])
                break
            if isinstance(node, PSymbol):
                if depth > prior.max_depth:
                    raise DepthBudgetExhausted(f"the drawn tree passed depth {prior.max_depth}")
                out.append(Tree(node.symbol, _draw(prior, fixed, rng, node.children, depth + 1)))
                break
            if isinstance(node, PChoice):
                node = _pick_branch(node, rng)
            elif isinstance(node, PVar):
                node = prior.graph.var_target[id(node)]
            elif isinstance(node, PConcat):
                node = node.left
            else:  # PIter
                node = node.body
    return tuple(out)


def _pick_branch(choice: PChoice, rng: np.random.Generator) -> Prte:
    i = bisect_right(choice.cumulative, rng.random())
    return choice.branches[min(i, len(choice.branches) - 1)][1]


def compute_ties(tree: Tree, prior: PriorSpec) -> tuple:
    """Tie table for a tree under this prior's sharing rules: the i-th
    continuous-marker position (pre-order) maps to its parameter group.
    Shared tags group by the nearest ancestor matching their anchor symbol;
    everything else gets its own group."""
    group_of: dict = {}
    ties = []
    for pos, tag in _const_markers(tree):
        anchor = prior.shared.get(tag)
        if anchor is None:
            key = ("solo", pos)
        else:
            site, node = ("root",), tree
            for depth, i in enumerate(pos):
                if (node.symbol.name, node.symbol.rank) == anchor:
                    site = pos[:depth]
                node = node.children[i - 1]
            key = (tag, site)
        ties.append(group_of.setdefault(key, len(group_of)))
    return tuple(ties)


def group_tags(tree: Tree, ties: tuple) -> list:
    """Marker tag of each parameter group, aligned with theta_c."""
    tags: list = []
    for (_, tag), g in zip(_const_markers(tree), ties):
        if g == len(tags):
            tags.append(tag)
    return tags


def _const_markers(tree: Tree) -> list:
    """(address, tag) of each continuous marker in pre-order, from one walk."""
    if not tree.n_const:  # no walk for a tree without markers
        return []
    return [(pos, node.symbol.name) for pos, node in tree.walk() if is_const_marker(node.symbol)]


def sample_expression(prior: PriorSpec, rng: np.random.Generator) -> SymbolicExpression:
    """Sample a tree as ``sample_tree`` does, then fill its parameter slots
    from the marker priors (one draw per tie group) and the discrete support."""
    tree = sample_tree(prior, rng)
    ties = compute_ties(tree, prior)
    theta_c = tuple(
        prior.markers[tag].sample(rng) for tag in group_tags(tree, ties)
    )
    support = prior.theta_d_support
    theta_d = tuple(support[int(rng.integers(len(support)))] for _ in range(tree.n_disc))
    return SymbolicExpression(tree, theta_c, theta_d, ties)


# -- density ---------------------------------------------------------------------


def prte_density(prior: PriorSpec, tree: Tree):
    """Total probability that the prior generates exactly this tree, summed
    over every derivation, as an exact Fraction; 0 for trees outside the
    language.  Unlike the sampler this is not depth-limited."""
    graph = prior.graph
    zero = Fraction(0)
    by_symbol: dict = {}
    for s in graph.symbol_nodes:
        by_symbol.setdefault((s.symbol.name, s.symbol.rank), []).append(s)

    # inside values bottom-up over tree positions; val[(addr, site_id)] is the
    # probability that the emitting site generates the subtree at addr
    val: dict = {}
    order = sorted(tree.walk(), key=lambda item: len(item[0]), reverse=True)
    for addr, node in order:
        key = (node.symbol.name, node.symbol.rank)
        for site in by_symbol.get(key, ()):
            p = Fraction(1)
            for i in range(1, node.symbol.rank + 1):
                reach_i = graph.reach[id(site.children[i - 1])]
                child_addr = addr + (i,)
                total = zero
                for sid, w in reach_i.items():
                    v = val.get((child_addr, sid))
                    if v is not None:
                        total += w * v
                if total == 0:
                    p = zero
                    break
                p *= total
            if p != 0:
                val[(addr, id(site))] = p

    total = zero
    for sid, w in graph.reach[id(prior.root)].items():
        v = val.get(((), sid))
        if v is not None:
            total += w * v
    return total


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
    marker_priors = {tag: _marker_from_dict(tag, spec) for tag, spec in (markers or {}).items()}
    shared_anchors = {}
    for tag, anchor in (shared or {}).items():
        pair = (anchor.get("anchor"), anchor.get("rank")) if type(anchor) is dict else None
        if pair is None or type(pair[0]) is not str or type(pair[1]) is not int:
            raise InputError(f"shared tag '{tag}': {anchor!r} is not an anchor name and rank")
        shared_anchors[tag] = pair
    try:
        support = tuple(Fraction(str(v)) for v in theta_d_support)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"theta_d_support: {exc}") from exc
    return PriorSpec(
        name=name,
        root=expr,
        max_depth=max_depth,
        markers=marker_priors,
        theta_d_support=support,
        shared=shared_anchors,
        variables=tuple(variables),
    )


_MARKER_PARAMS = {"exp": ("rate",), "normal": ("mean", "stddev")}


def _marker_from_dict(tag: str, spec: dict) -> MarkerPrior:
    kind = spec.get("dist")
    params = _MARKER_PARAMS.get(kind) if type(kind) is str else None
    if params is None:
        raise InputError(f"marker '{tag}': unknown distribution {kind!r}")
    values = [spec.get(param) for param in params]
    if not all(type(v) in (int, float) for v in values):
        raise InputError(f"marker '{tag}': the {kind} prior needs numbers for {', '.join(params)}")
    return MarkerPrior(kind, **{param: float(v) for param, v in zip(params, values)})


# per prior file key: the JSON type of its value and of the items of a list
# or the values of an object
_PRIOR_FILE_TYPES = {
    "name": (str, ()),
    "expression": (str, ()),
    "variables": (list, (str,)),
    "markers": (dict, (dict,)),
    "theta_d_support": (list, (int, float, str)),
    "max_depth": (int, ()),
    "shared": (dict, ()),
}


def load_prior(source) -> PriorSpec:
    """Load a prior from a JSON file path or an already-parsed dict.  A
    document that is not an object, or a key of the wrong JSON type, raises
    InputError; ``build_prior`` checks the markers, anchors and support."""
    doc = source
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputError("a prior file holds one JSON object")
    unknown = set(doc) - set(_PRIOR_FILE_TYPES)
    if unknown:
        raise InputError(f"unknown prior file keys: {sorted(unknown)}")
    if "name" not in doc or "expression" not in doc:
        raise InputError("prior file needs 'name' and 'expression'")
    for key, (kind, items) in _PRIOR_FILE_TYPES.items():
        value = doc.get(key, kind())
        inner = value.values() if type(value) is dict else value
        if type(value) is not kind or (items and not all(type(v) in items for v in inner)):
            of = f" of {' or '.join(t.__name__ for t in items)}" if items else ""
            raise InputError(f"prior file key '{key}' must be of type {kind.__name__}{of}")
    return build_prior(
        name=doc["name"],
        expression=doc["expression"],
        variables=doc.get("variables", ()),
        markers=doc.get("markers", {}),
        theta_d_support=doc.get("theta_d_support", ()),
        max_depth=doc.get("max_depth", DEFAULT_MAX_DEPTH),
        shared=doc.get("shared", {}),
    )
