"""Ranked alphabets, labeled trees, and symbolic expressions.

A tree is a recursive node structure; child-index addresses (1-based tuples,
root = empty tuple) are derived on demand rather than stored.  A symbolic
expression couples a tree with parameter vectors: rank-0 symbols whose name
ends in ``#`` are continuous-parameter markers (``d#`` alone marks a discrete
parameter), and each marker occurrence consumes one parameter entry in
pre-order.  Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityMismatch,
    InputError,
    LengthMismatch,
    NotPrefixClosed,
    UnknownSymbol,
    format_address,
)

DISC_MARKER_NAME = "d#"
HOLE_NAME = "?"

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


HOLE = RankedSymbol(HOLE_NAME, 0)


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
    The hole symbol '?' is reserved for context queries and rejected here.
    """

    def __init__(self, symbols):
        table = {}
        for sym in symbols:
            if sym.name == HOLE_NAME:
                raise InputError("'?' is reserved for context holes")
            key = (sym.name, sym.rank)
            if key in table:
                raise InputError(f"duplicate symbol {sym.name}/{sym.rank}")
            if sym.name.endswith("#") and sym.rank != 0:
                raise InputError(f"marker symbol '{sym.name}' must have rank 0")
            table[key] = sym
        if not table:
            raise InputError("alphabet must be non-empty")
        self._table = table
        self._leaves = {name: Tree(sym) for (name, rank), sym in table.items() if rank == 0}

    def __iter__(self):
        return iter(self._table.values())

    def __len__(self):
        return len(self._table)

    def __contains__(self, symbol: RankedSymbol):
        return self._table.get((symbol.name, symbol.rank)) == symbol

    def has(self, name: str, rank: int) -> bool:
        return (name, rank) in self._table

    def get(self, name: str, rank: int) -> RankedSymbol:
        try:
            return self._table[(name, rank)]
        except KeyError:
            raise UnknownSymbol(f"no symbol '{name}' of rank {rank} in alphabet") from None

    def leaf(self, name: str) -> "Tree":
        """The one-node tree of a rank-0 symbol, shared by every tree that
        the samplers grow over this alphabet."""
        return self._leaves[name]

    def by_name(self, name: str):
        return [s for s in self._table.values() if s.name == name]

    def symbol_keys(self):
        return frozenset(self._table)


class TreeShape(NamedTuple):
    """Node count and pre-order addresses of the parameter markers."""

    size: int
    const: tuple
    disc: tuple


@dataclass(frozen=True, slots=True)
class Tree:
    """An immutable labeled tree; child count always equals the symbol rank.

    The hash, the shape record and the compiled evaluation program are
    computed once per tree, on first use, and kept on the tree.  Hashing,
    equality, ``replace_at`` and ``repr`` are iterative, so very deep trees
    stay within the interpreter's recursion limit.
    """

    symbol: RankedSymbol
    children: tuple = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _shape: TreeShape | None = field(default=None, init=False, repr=False, compare=False)
    _program: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.children) != self.symbol.rank:
            raise ArityMismatch((), self.symbol.name, self.symbol.rank, len(self.children))

    def __hash__(self):
        if self._hash is None:
            # hash the not-yet-hashed nodes bottom-up; the same value as the
            # dataclass default hash((symbol, children)), without its recursion
            pending, order = [self], []
            while pending:
                order.append(pending.pop())
                pending.extend(c for c in order[-1].children if c._hash is None)
            for node in reversed(order):
                object.__setattr__(node, "_hash", hash((node.symbol, node.children)))
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if a.symbol is not b.symbol and a.symbol != b.symbol:
                return False
            pending.extend(zip(a.children, b.children))
        return True

    @property
    def shape(self) -> TreeShape:
        if self._shape is None:
            size, const, disc = 0, [], []
            for addr, node in self.walk():
                size += 1
                if is_const_marker(node.symbol):
                    const.append(addr)
                elif is_disc_marker(node.symbol):
                    disc.append(addr)
            object.__setattr__(self, "_shape", TreeShape(size, tuple(const), tuple(disc)))
        return self._shape

    # -- address arithmetic ----------------------------------------------

    def node_at(self, address) -> "Tree":
        node = self
        for i in address:
            node = node.children[i - 1]
        return node

    def replace_at(self, address, subtree: "Tree") -> "Tree":
        """The tree with ``subtree`` at ``address``: one new node per level
        of the path, every subtree off the path shared with this tree."""
        path = [self]
        for i in address[:-1]:
            path.append(path[-1].children[i - 1])
        for node, i in zip(reversed(path), reversed(address)):
            kids = node.children
            subtree = Tree(node.symbol, kids[:i - 1] + (subtree,) + kids[i:])
        return subtree

    def walk(self, prefix=()):
        """Yield (address, node) pairs in pre-order.  Iterative so that very
        deep trees stay within the interpreter's recursion limit."""
        stack = [(prefix, self)]
        while stack:
            addr, node = stack.pop()
            yield addr, node
            for i in range(node.symbol.rank, 0, -1):
                stack.append((addr + (i,), node.children[i - 1]))

    def addresses(self):
        return [addr for addr, _ in self.walk()]

    @property
    def size(self) -> int:
        return self.shape.size

    def __str__(self):
        return format_tree(self)

    def __repr__(self):
        return f"Tree({format_tree(self)!r})"


def validate_tree(candidate, alphabet: RankedAlphabet) -> Tree:
    """Check an address -> symbol map against the tree axioms and build the
    verified tree.

    Addresses are tuples of 1-based child indices (strings of digits are also
    accepted, '' for the root).  Values may be RankedSymbol instances or
    symbol names; names are resolved against the alphabet using the child
    count observed in the map.
    """
    entries = {}
    for raw_addr, raw_sym in candidate.items():
        addr = _coerce_address(raw_addr)
        entries[addr] = raw_sym
    if not entries:
        raise InputError("tree map is empty")
    if () not in entries:
        raise NotPrefixClosed(min(entries, key=len))
    for addr in entries:
        if addr and addr[:-1] not in entries:
            raise NotPrefixClosed(addr)

    child_count = {}
    for addr in entries:
        if addr:
            parent = addr[:-1]
            child_count[parent] = max(child_count.get(parent, 0), addr[-1])
    # every node must have children indexed exactly 1..k with no gaps
    for addr in sorted(entries, key=len):
        k = child_count.get(addr, 0)
        for j in range(1, k + 1):
            if addr + (j,) not in entries:
                raise InputError(
                    f"missing child {j} of node {format_address(addr)}"
                )

    # resolve in pre-order, so the first bad node reports first; then build in
    # reverse pre-order, where a node's children are the last trees built
    symbols, pending = [], [()]
    while pending:
        addr = pending.pop()
        raw = entries[addr]
        k = child_count.get(addr, 0)
        if isinstance(raw, RankedSymbol):
            sym = raw
            if sym not in alphabet:
                raise UnknownSymbol(f"symbol '{sym.name}/{sym.rank}' not in alphabet")
        else:
            sym = _resolve_name(str(raw), k, alphabet, addr)
        if sym.rank != k:
            raise ArityMismatch(addr, sym.name, sym.rank, k)
        symbols.append(sym)
        pending.extend(addr + (j,) for j in range(k, 0, -1))
    built = []
    for sym in reversed(symbols):
        built.append(Tree(sym, tuple(built.pop() for _ in range(sym.rank))))
    return built[0]


def _coerce_address(raw):
    if isinstance(raw, tuple):
        return tuple(int(i) for i in raw)
    if isinstance(raw, str):
        return tuple(int(ch) for ch in raw)
    if isinstance(raw, int):
        return (raw,) if raw else ()
    raise InputError(f"bad address {raw!r}")


def _resolve_name(
    name: str, observed_children: int, alphabet: RankedAlphabet, addr=()
) -> RankedSymbol:
    if alphabet.has(name, observed_children):
        return alphabet.get(name, observed_children)
    candidates = alphabet.by_name(name)
    if not candidates:
        raise UnknownSymbol(f"symbol '{name}' not in alphabet")
    # the name exists at other ranks only: report the arity clash
    raise ArityMismatch(addr, name, candidates[0].rank, observed_children)


def positions_of(tree: Tree, symbol: RankedSymbol):
    """Pre-order list of addresses labeled with the given symbol."""
    return [addr for addr, node in tree.walk() if node.symbol == symbol]


def const_positions(tree: Tree) -> tuple:
    return tree.shape.const


def disc_positions(tree: Tree) -> tuple:
    return tree.shape.disc


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
        shape = self.tree.shape
        n_pos = len(shape.const)
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
            elif g > seen:
                raise InputError("tie groups must be numbered by first occurrence")
        groups = seen
        object.__setattr__(self, "theta_c", tuple(float(v) for v in self.theta_c))
        if len(self.theta_c) != groups:
            raise LengthMismatch(
                f"{groups} marker groups but {len(self.theta_c)} continuous parameters"
            )
        if not all(map(math.isfinite, self.theta_c)):
            raise InputError("continuous parameters must be finite")
        n_disc = len(shape.disc)
        object.__setattr__(
            self, "theta_d", tuple(Fraction(v) for v in self.theta_d)
        )
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
    columns = {name: np.ascontiguousarray(col, dtype=float) for name, col in inputs.items()}
    lengths = {col.shape[0] for col in columns.values()}
    if len(lengths) > 1:
        raise LengthMismatch(f"input columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 1

    program = expr.tree._program
    if program is None:
        program = _compile(expr.tree)
        object.__setattr__(expr.tree, "_program", program)
    params = [expr.theta_c[g] for g in expr.ties] + [float(v) for v in expr.theta_d]
    stack = []
    with np.errstate(all="ignore"):
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
                stack[-1] = np.power(_full(stack[-1], n), _full(exponent, n))
            elif op is _FAIL:
                raise UnknownSymbol(arg)
            else:
                right = stack.pop()
                stack[-1] = op(stack[-1], right)
    out = _full(stack[0], n)
    return out.copy() if len(program) == 1 else out  # never hand out an input column


# Compiled programs: (opcode, argument) pairs in post-order.  A leaf pushes
# its value; an operator pops its right operand and combines it with the top
# of the stack.  Leaves stay Python floats until an array operand broadcasts
# them; each +, -, * and / rounds the same either way.  pow always gets two
# full contiguous arrays (input columns are made contiguous), because numpy
# may pick another power routine for a scalar or a strided operand.
_LITERAL, _PARAM, _VARIABLE, _POW, _FAIL = "literal", "param", "variable", "pow", "fail"


def _full(value, n: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    out = np.empty(n)
    out.fill(value)
    return out


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
    const_slot, disc_slot = itertools.count(), itertools.count(len(tree.shape.const))
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


def format_tree(tree: Tree) -> str:
    """Parenthesized prefix form: '(+ a b)', bare name for leaves."""
    parts = []
    stack = [("node", tree)]
    while stack:
        kind, item = stack.pop()
        if kind == "text":
            parts.append(item)
        elif not item.children:
            parts.append(item.symbol.name)
        else:
            parts.append(f"({item.symbol.name} ")
            stack.append(("text", ")"))
            for idx in range(len(item.children) - 1, -1, -1):
                stack.append(("node", item.children[idx]))
                if idx > 0:
                    stack.append(("text", " "))
    return "".join(parts)


def parse_tree(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the prefix form.  With an alphabet, symbols must resolve against
    it ((name, child-count) lookup); without one, symbols are inferred from
    the shape of the text.  Iterative, so very deep trees parse."""

    def lookup(name, k):
        if alphabet is None:
            return RankedSymbol(name, k)
        return _resolve_name(name, k, alphabet)

    tokens = _tokenize_sexpr(text)
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


def _tokenize_sexpr(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens
