"""The text readers against reference tokenizers, and print/parse round-trips.

``oracle_tokenize`` and ``oracle_tokenize_sexpr`` (``tests/oracles.py``) are
character-by-character tokenizers kept as the specification of the lexical
rules: the readers in ``treegress.prte`` and ``treegress.trees`` must split every
text the same way, and fail on it with the same error, message, line and column.
"""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleToken, oracle_tokenize, oracle_tokenize_sexpr
from treegress import prte, trees
from treegress.errors import PrteSyntaxError, TreegressError
from treegress.prte import format_prte, parse_prte
from treegress.trees import RankedSymbol, Tree, format_tree, parse_tree


# Pieces of text: every token class and its edge cases (a number glued to a
# name or a variable, a dangling decimal point, a zero denominator, a lone '$'
# and '$' before a digit), grammar fragments that reach deep into the parser,
# and whitespace of several kinds, one that is not ASCII, one that ends no line
# ('\r', '\x1c') and a non-ASCII digit.
PIECES = [
    "(", ")", "{", "}", ",", ":", ".", "$x", "$_a1", "$", "$1",
    "1", "-2", "0.5", "1/2", "1/0", "1/0: ", "0.", "0.5iter", "12$x", "2x", "1e-3", "٣",
    "a", "f", "x#", "-", "/", "é", "choice", "iter", "subst",
    "f(", "g(a, b)", "choice{ ", "1/2: ", "iter $x { ", ".subst($x, ",
    " ", "\n", "\r\n", "\r", "\t", "\x1c", "　",
]
texts = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


def outcome(call, text):
    """The value of a call, or the type, message and position of its error."""
    try:
        return "ok", call(text)
    except TreegressError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def tokens_as_oracle(text: str):
    return [OracleToken(t.kind, t.text, *prte._line_col(text, t.pos)) for t in prte._tokenize(text)]


def tokenize_by_oracle(text: str):
    """The oracle's tokens in the reader's form, each at its offset."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    return [prte._Token(t.kind, t.text, starts[t.line - 1] + t.col - 1)
            for t in oracle_tokenize(text)]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(texts)
def test_prte_tokens_and_errors_match_the_oracle(text):
    assert outcome(tokens_as_oracle, text) == outcome(oracle_tokenize, text)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(texts)
def test_parse_prte_reads_the_oracle_tokens_alike(text):
    got = outcome(parse_prte, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prte, "_tokenize", tokenize_by_oracle)
        assert got == outcome(parse_prte, text)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(texts)
def test_tree_tokens_and_parse_tree_match_the_oracle(text):
    assert trees._SEXPR_TOKEN.findall(text) == oracle_tokenize_sexpr(text)
    got = outcome(parse_tree, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees, "_SEXPR_TOKEN", SimpleNamespace(findall=oracle_tokenize_sexpr))
        assert got == outcome(parse_tree, text)


@pytest.mark.parametrize(
    "text, kinds",
    [
        ("0.5iter", [("name", "0"), (".", "."), ("name", "5iter")]),
        ("12$x", [("name", "12"), ("var", "x")]),
        ("2x 1e-3", [("name", "2x"), ("name", "1e-3")]),
        ("0.", [("num", "0"), (".", ".")]),
        ("1/0)", [("num", "1/0"), (")", ")")]),
        ("-2/3,", [("num", "-2/3"), (",", ",")]),
    ],
)
def test_numbers_end_at_space_punctuation_or_the_end(text, kinds):
    assert [(t.kind, t.text) for t in prte._tokenize(text)] == kinds + [("eof", "")]


@pytest.mark.parametrize(
    "text, line, col",
    [("a $", 1, 3), ("a\r\n $1", 2, 2), ("a\r$", 1, 3), ("　\x1c\t$", 1, 4), ("a\n\n  $", 3, 3)],
)
def test_a_stray_dollar_is_placed_by_newlines_alone(text, line, col):
    with pytest.raises(PrteSyntaxError, match=re.escape("unexpected character '$'")) as info:
        parse_prte(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_the_pattern_needs_no_atomic_group():
    pattern = prte._TOKEN_RE.pattern
    assert "(?>" not in pattern and not re.search(r"[*+?}]\+", pattern)


# -- round trips ---------------------------------------------------------------

# a tree-text name is any run of characters other than whitespace and parentheses
names = st.text(st.characters().filter(lambda c: not c.isspace() and c not in "()"), min_size=1)
drawn_trees = st.recursive(
    names.map(lambda name: Tree(RankedSymbol(name, 0))),
    lambda kids: st.tuples(names, st.lists(kids, min_size=1, max_size=3)).map(
        lambda nk: Tree(RankedSymbol(nk[0], len(nk[1])), tuple(nk[1]))
    ),
    max_leaves=12,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(drawn_trees)
def test_parse_tree_inverts_format_tree(tree):
    assert parse_tree(format_tree(tree)) is tree


def test_parse_tree_inverts_format_tree_3000_deep():
    leaf, pair = Tree(RankedSymbol("x#", 0)), RankedSymbol("f", 2)
    tree = leaf
    for i in range(3000):
        tree = Tree(pair, (tree, leaf) if i % 2 else (leaf, tree))
    assert parse_tree(format_tree(tree)) is tree


def test_every_prior_text_in_the_tests_round_trips(all_shipped):
    """Each string in the test files that parses as a prior prints back to an
    equal expression, as each shipped prior does."""
    exprs = [prior.root for prior in all_shipped.values()]
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    exprs.append(parse_prte(node.value))
                except TreegressError:
                    pass
    assert len(exprs) > 100
    for expr in exprs:
        assert parse_prte(format_prte(expr)) == expr
