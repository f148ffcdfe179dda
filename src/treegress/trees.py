"""Ranked alphabets, labeled trees, and symbolic expressions.

A tree is a recursive node structure; child-index addresses (1-based tuples,
root = empty tuple) are derived on demand rather than stored.  A symbolic
expression couples a tree with parameter vectors: rank-0 symbols whose name
ends in ``#`` are continuous-parameter markers (``d#`` alone marks a discrete
parameter), and each marker occurrence consumes one parameter entry in
pre-order.  Everything here is immutable.  Trees are interned in one dict of
keyed weak references, so equal trees are one object; its get-then-set is not
atomic, and no caller builds trees from several threads.  A node's size and
marker counts are summed from its children's when built.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityMismatch, InputError, LengthMismatch, UnknownSymbol

DISC_MARKER_NAME = "d#"

# Denominators smaller than this are treated as division by zero.
DIV_EPS = 1e-300


@dataclass(frozen=True, order=True)
class RankedSymbol:
    """A symbol with a fixed number of children."""

    name: str
    rank: int

    def __post_init__(self):
        if not self.name:
            raise InputError("symbol name must be non-empty")
        if self.rank < 0:
            raise InputError(f"symbol '{self.name}' has negative rank")

    def __str__(self):
        return self.name


def is_const_marker(symbol: RankedSymbol) -> bool:
    return symbol.rank == 0 and symbol.name.endswith("#") and symbol.name != DISC_MARKER_NAME


def is_disc_marker(symbol: RankedSymbol) -> bool:
    return symbol.rank == 0 and symbol.name == DISC_MARKER_NAME


def is_numeric_literal(symbol: RankedSymbol) -> bool:
    """Rank-0 symbols whose name parses as a decimal or fraction, e.g. '1',
    '0.5', '-2/3'.  They evaluate to themselves."""
    if symbol.rank != 0:
        return False
    try:
        Fraction(symbol.name)
        return True
    except (ValueError, ZeroDivisionError):
        return False


class RankedAlphabet:
    """A finite set of ranked symbols, keyed by (name, rank).

    The same surface name may appear at several ranks (e.g. a binary and a
    ternary sum); they are distinct symbols.  Marker symbols must have rank 0.
    """

    def __init__(self, symbols):
        table = {}
        for sym in symbols:
            key = (sym.name, sym.rank)
            if key in table:
                raise InputError(f"duplicate symbol {sym.name}/{sym.rank}")
            if sym.name.endswith("#") and sym.rank != 0:
                raise InputError(f"marker symbol '{sym.name}' must have rank 0")
            table[key] = sym
        if not table:
            raise InputError("alphabet must be non-empty")
        self._table = table

    def __iter__(self):
        return iter(self._table.values())

    def __len__(self):
        return len(self._table)

    def get(self, name: str, rank: int) -> RankedSymbol:
        try:
            return self._table[(name, rank)]
        except KeyError:
            raise UnknownSymbol(f"no symbol '{name}' of rank {rank} in alphabet") from None

    def symbol_keys(self):
        return frozenset(self._table)


# (symbol name, rank, children) -> a weak reference to the one live Tree of that key
_NODES: dict = {}


class _NodeRef(weakref.ref):
    __slots__ = ("key",)  # the node's key in _NODES, set by the node's builder


def _forget(ref: _NodeRef, nodes: dict = _NODES) -> None:  # reads no module global
    if nodes.get(ref.key) is ref:  # else a newer node holds the key
        del nodes[ref.key]


class Tree:
    """An immutable labeled tree; child count always equals the symbol rank.

    ``Tree(symbol, children)`` returns the one live node of that symbol name, rank and
    children, built only if there is none: equal trees are one object, so equality and
    hashing are by identity; a node's weak reference in ``_NODES`` drops its entry when
    the node dies.  ``size`` and the marker counts ``n_const`` and ``n_disc`` are summed
    from the children's at construction; the compiled evaluation program is computed
    once per node, on first use.  ``walk``, ``replace_at`` and ``repr`` are iterative,
    so very deep trees stay within the recursion limit.
    """

    __slots__ = ("symbol", "children", "size", "n_const", "n_disc", "_program", "__weakref__")

    def __new__(cls, symbol: RankedSymbol, children: tuple = ()):
        key = (symbol.name, symbol.rank, children)
        ref = _NODES.get(key)
        node = None if ref is None else ref()  # a dead reference counts as no node
        if node is None:
            if len(children) != symbol.rank:
                raise ArityMismatch(symbol.name, symbol.rank, len(children))
            size, n_const, n_disc = 1, 0, 0
            if not children:  # a marker leaf counts itself
                n_const, n_disc = int(is_const_marker(symbol)), int(is_disc_marker(symbol))
            for c in children:
                size += c.size
                n_const += c.n_const
                n_disc += c.n_disc
            node = object.__new__(cls)
            _set_symbol(node, symbol)
            _set_children(node, children)
            _set_size(node, size)
            _set_n_const(node, n_const)
            _set_n_disc(node, n_disc)
            _set_program(node, None)
            _NODES[key] = ref = _NodeRef(node, _forget)
            ref.key = key
        return node

    __hash__ = object.__hash__  # by identity; in the class body, so a profiler can wrap it

    def __setattr__(self, name, value):  # a node's builder writes through the slots' setters
        raise AttributeError(f"Tree is immutable: cannot assign to '{name}'")

    # -- address arithmetic ----------------------------------------------

    def replace_at(self, address, subtree: "Tree") -> "Tree":
        """The tree with ``subtree`` at ``address``: one new node at most per
        level of the path, every subtree off the path shared with this tree."""
        path = [self]
        for i in address[:-1]:
            path.append(path[-1].children[i - 1])
        for node, i in zip(reversed(path), reversed(address)):
            kids = node.children
            subtree = Tree(node.symbol, kids[:i - 1] + (subtree,) + kids[i:])
        return subtree

    def walk(self):
        """Yield (address, node) pairs in pre-order.  Iterative so that very
        deep trees stay within the interpreter's recursion limit."""
        stack = [((), self)]
        while stack:
            addr, node = stack.pop()
            yield addr, node
            for i in range(node.symbol.rank, 0, -1):
                stack.append((addr + (i,), node.children[i - 1]))

    def nth(self, n: int) -> tuple:
        """The n-th (address, node) pair of ``walk()``, by descent through child sizes."""
        if not 0 <= n < self.size:
            raise IndexError(f"node {n} of a tree of {self.size} nodes")
        addr, node = [], self
        while n:
            n -= 1
            for i, child in enumerate(node.children, 1):
                if n < child.size:
                    break
                n -= child.size
            addr.append(i)
            node = child
        return tuple(addr), node

    def __str__(self):
        return format_tree(self)

    def __repr__(self):
        return f"Tree({format_tree(self)!r})"


_set_symbol, _set_children, _set_size, _set_n_const, _set_n_disc, _set_program = (
    getattr(Tree, name).__set__ for name in Tree.__slots__[:6])


def _resolve_name(name: str, observed_children: int, alphabet: RankedAlphabet) -> RankedSymbol:
    """The alphabet's symbol of this name and child count.  A name the
    alphabet holds only at other ranks is an arity clash."""
    try:
        return alphabet.get(name, observed_children)
    except UnknownSymbol:
        ranks = [s.rank for s in alphabet if s.name == name]
        if not ranks:
            raise UnknownSymbol(f"symbol '{name}' not in alphabet") from None
        raise ArityMismatch(name, min(ranks), observed_children) from None


def disc_positions(tree: Tree) -> tuple:
    """Pre-order addresses of the discrete markers; no walk for a tree without one."""
    return tuple(a for a, n in tree.walk() if is_disc_marker(n.symbol)) if tree.n_disc else ()


@dataclass(frozen=True)
class SymbolicExpression:
    """A tree plus the parameter values its markers bind to.

    ``ties`` maps the i-th continuous-marker position (pre-order) to an index
    into ``theta_c``; several positions may share one entry (tied parameters).
    Group indices are canonical: numbered by first occurrence.  Without ties,
    it is the identity and |theta_c| equals the marker count.
    """

    tree: Tree
    theta_c: tuple = ()
    theta_d: tuple = ()
    ties: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        n_pos = self.tree.n_const
        ties = self.ties
        if ties is None:
            ties = tuple(range(n_pos))
            object.__setattr__(self, "ties", ties)
        if len(ties) != n_pos:
            raise LengthMismatch(
                f"{n_pos} continuous markers but tie table of length {len(ties)}"
            )
        seen = 0
        for g in ties:
            if g == seen:
                seen += 1
            elif not 0 <= g < seen:
                raise InputError("tie groups must be numbered by first occurrence")
        groups = seen
        object.__setattr__(self, "theta_c", tuple(float(v) for v in self.theta_c))
        if len(self.theta_c) != groups:
            raise LengthMismatch(
                f"{groups} marker groups but {len(self.theta_c)} continuous parameters"
            )
        if not all(map(math.isfinite, self.theta_c)):
            raise InputError("continuous parameters must be finite")
        n_disc = self.tree.n_disc
        object.__setattr__(self, "theta_d", tuple(Fraction(v) for v in self.theta_d))
        if len(self.theta_d) != n_disc:
            raise LengthMismatch(
                f"{n_disc} discrete markers but {len(self.theta_d)} discrete parameters"
            )


def eval_expression(expr: SymbolicExpression, inputs) -> np.ndarray:
    """Evaluate the expression pointwise on equal-length input columns.

    Arithmetic symbols: '+' (rank 2 or 3), '-' and '*' and '/' and 'pow'
    (rank 2); rank-0 symbols are numeric literals, parameter markers, or
    input variables.  Domain violations (division by ~0, fractional power of
    a negative base, overflow) leave non-finite entries in the result rather
    than raising; callers map those to log-likelihood -inf.  Each distinct
    tree is compiled once (see ``_compile``).
    """
    columns, n = input_columns(inputs)
    with np.errstate(all="ignore"):
        return run_program(expr, columns, n)


def input_columns(inputs) -> tuple:
    """(the inputs as contiguous float64 columns, their common length, or 1 without
    a column); columns that are not 1-D and of one length raise LengthMismatch."""
    columns = {name: np.ascontiguousarray(col, dtype=float) for name, col in inputs.items()}
    shapes = {col.shape for col in columns.values()}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise LengthMismatch(f"input columns must be 1-D and of one length, got {sorted(shapes)}")
    return columns, shapes.pop()[0] if shapes else 1


def run_program(expr: SymbolicExpression, columns: dict, n: int) -> np.ndarray:
    """``eval_expression`` on the ``columns`` and length ``n`` that ``input_columns``
    returns, under the caller's floating-point error state.  A caller that evaluates
    many times on one data set checks it once and enters ``np.errstate(all="ignore")``
    once, around all of the evaluations."""
    program = expr.tree._program
    if program is None:
        program = _compile(expr.tree)
        _set_program(expr.tree, program)
    params = [expr.theta_c[g] for g in expr.ties] + [float(v) for v in expr.theta_d]
    stack, filled = [], {}
    for op, arg in program:
        if op is _PARAM:
            stack.append(params[arg])
        elif op is _LITERAL:
            stack.append(arg)
        elif op is _VARIABLE:
            if arg not in columns:
                raise UnknownSymbol(f"variable '{arg}' missing from inputs")
            stack.append(columns[arg])
        elif op is _POW:
            exponent = stack.pop()
            stack[-1] = np.power(_full(stack[-1], n, filled), _full(exponent, n, filled))
        elif op is _FAIL:
            raise UnknownSymbol(arg)
        else:
            right = stack.pop()
            stack[-1] = op(stack[-1], right)
    out = _full(stack[0], n, filled)
    return out.copy() if len(program) == 1 else out  # never hand out an input column


# Compiled programs: (opcode, argument) pairs in post-order.  A leaf pushes
# its value; an operator pops its right operand and combines it with the top
# of the stack.  Leaves stay Python floats until an array operand broadcasts
# them; each +, -, * and / rounds the same either way.  pow always gets two
# full contiguous arrays (input columns are made contiguous), because numpy
# may pick another power routine for a scalar or a strided operand.
_LITERAL, _PARAM, _VARIABLE, _POW, _FAIL = "literal", "param", "variable", "pow", "fail"


def _full(value, n: int, filled: dict) -> np.ndarray:
    """``value`` as an n-long array; a scalar object is filled once per ``filled``, whose
    entry keeps it alive so that no other takes its id (tied slots share one float)."""
    if isinstance(value, np.ndarray):
        return value
    if id(value) not in filled:
        out = np.empty(n)
        out.fill(value)
        filled[id(value)] = value, out
    return filled[id(value)][1]


def _divide(num, den):
    if isinstance(den, float):
        return num / (math.nan if abs(den) < DIV_EPS else den)
    return num / np.where(np.abs(den) < DIV_EPS, np.nan, den)


_BINARY = {("-", 2): operator.sub, ("*", 2): operator.mul, ("/", 2): _divide, ("pow", 2): _POW}


def _compile(tree: Tree) -> tuple:
    """Post-order program of the tree.  Parameter slots index the continuous
    markers in pre-order, then the discrete ones; literals are parsed here,
    once; a symbol without an evaluation rule becomes a failing instruction,
    so errors surface in evaluation order."""
    program = []
    const_slot, disc_slot = itertools.count(), itertools.count(tree.n_const)
    stack = [tree]
    while stack:
        item = stack.pop()
        if not isinstance(item, Tree):
            program.append(item)
            continue
        sym = item.symbol
        if sym.rank == 0:
            if is_const_marker(sym):
                program.append((_PARAM, next(const_slot)))
            elif is_disc_marker(sym):
                program.append((_PARAM, next(disc_slot)))
            elif is_numeric_literal(sym):
                program.append((_LITERAL, float(Fraction(sym.name))))
            else:
                program.append((_VARIABLE, sym.name))
            continue
        first, *rest = item.children
        if sym.name == "+" and rest:  # folds from the left: ((c1 + c2) + c3) + ...
            steps = [first] + [step for c in rest for step in (c, (operator.add, None))]
        elif (sym.name, sym.rank) in _BINARY:
            steps = [first, *rest, (_BINARY[sym.name, sym.rank], None)]
        else:
            steps = [first, *rest, (_FAIL, f"no evaluation rule for '{sym.name}/{sym.rank}'")]
        stack.extend(reversed(steps))
    return tuple(program)


# -- prefix text format -------------------------------------------------------


_SEXPR_TOKEN = re.compile(r"[()]|[^\s()]+")  # a parenthesis, or a name up to space or one


def format_tree(tree: Tree) -> str:
    """Parenthesized prefix form: '(+ a b)', bare name for leaves."""
    parts = []
    stack = [tree]  # nodes, and the strings that go between them
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif not item.children:
            parts.append(item.symbol.name)
        else:
            parts.append("(" + item.symbol.name)
            stack.append(")")
            for child in reversed(item.children):
                stack += (child, " ")
    return "".join(parts)


def parse_tree(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the prefix form.  With an alphabet, symbols must resolve against
    it ((name, child-count) lookup); without one, symbols are inferred from
    the shape of the text.  Iterative, so very deep trees parse."""

    def lookup(name, k):
        if alphabet is None:
            return RankedSymbol(name, k)
        return _resolve_name(name, k, alphabet)

    tokens = _SEXPR_TOKEN.findall(text)
    pos = 0
    open_nodes = []  # (name, children so far) of each '(' not yet closed
    while True:
        if pos >= len(tokens):
            raise InputError("missing ')'" if open_nodes else "unexpected end of tree text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] in "()":
                raise InputError("expected symbol after '('")
            open_nodes.append((tokens[pos], []))
            pos += 1
            continue
        if tok == ")":
            if not open_nodes:
                raise InputError("unexpected ')'")
            name, kids = open_nodes.pop()
            node = Tree(lookup(name, len(kids)), tuple(kids))
        else:
            node = Tree(lookup(tok, 0))
        if not open_nodes:
            break
        open_nodes[-1][1].append(node)
    if pos != len(tokens):
        raise InputError("trailing input after tree text")
    return node
