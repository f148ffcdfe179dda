"""Tests for ranked alphabets, tree validation, and expression evaluation.

Covers:
    - parse_tree against an alphabet accepts/rejects trees, reporting the
      right error kind
    - marker positions are pre-order addresses
    - eval_expression arithmetic, parameter binding, and domain-error flags
    - compiled evaluation matches a tree-walking reference byte for byte
    - text round-trip of the prefix form, also for very deep trees
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import addresses, reference_eval, reference_ties
from treegress.errors import (
    ArityMismatch,
    InputError,
    LengthMismatch,
    UnknownSymbol,
)
from treegress.prte import compute_ties, sample_expression, sample_tree
from treegress.trees import (
    RankedAlphabet,
    RankedSymbol,
    SymbolicExpression,
    Tree,
    disc_positions,
    eval_expression,
    format_tree,
    parse_tree,
)

PLUS = RankedSymbol("+", 2)
A = RankedSymbol("a", 0)
B = RankedSymbol("b", 0)
X = RankedSymbol("x", 0)
CM = RankedSymbol("c#", 0)

ALPHA = RankedAlphabet([PLUS, A, B, X, CM])


# -- parse_tree against an alphabet -----------------------------------------------

def test_single_node_valid():
    t = parse_tree("a", ALPHA)
    assert t.size == 1
    assert t.symbol == A


def test_arity_violation_single_child():
    with pytest.raises(ArityMismatch):
        parse_tree("(+ a)", ALPHA)
    # a name held at several ranks reports the smallest
    two_sums = RankedAlphabet([PLUS, RankedSymbol("+", 3), A])
    with pytest.raises(ArityMismatch, match=r"symbol '\+' has rank 2 but 1 children"):
        parse_tree("(+ a)", two_sums)


def test_prefix_present_but_rank_zero_with_child():
    # 'b' is in the alphabet only at rank 0, so 'b' with a child is an arity
    # clash, not an unknown symbol
    with pytest.raises(ArityMismatch, match="symbol 'b' has rank 0 but 1 children"):
        parse_tree("(+ a (b x))", ALPHA)


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_tree("zzz", ALPHA)
    with pytest.raises(UnknownSymbol):
        parse_tree("(zzz a)", ALPHA)


# -- marker positions ---------------------------------------------------------------

def test_positions_two_markers():
    # tree shaped like (x - c)^2 + (y + z)^2 + c with two continuous markers
    text = "(+ (+ (pow (- x c#) 2) (pow (+ y z) 2)) c#)"
    t = parse_tree(text)
    marks = [addr for addr, node in t.walk() if node.symbol == CM]
    assert marks == [(1, 1, 1, 2), (2,)]
    assert t.n_const == 2 and t.n_disc == 0


def test_positions_absent_symbol():
    t = parse_tree("(+ a b)", ALPHA)
    assert t.n_const == t.n_disc == 0 and disc_positions(t) == ()


def test_positions_preorder():
    t = parse_tree("(+ c# c#)")
    assert t.n_const == 2 and [a for a, n in t.walk() if n.symbol == CM] == [(1,), (2,)]


# -- SymbolicExpression invariants ------------------------------------------------

def test_theta_count_enforced():
    t = parse_tree("(+ c# c#)")
    SymbolicExpression(t, theta_c=(1.0, 2.0))
    with pytest.raises(LengthMismatch):
        SymbolicExpression(t, theta_c=(1.0,))
    with pytest.raises(LengthMismatch):
        SymbolicExpression(t, theta_c=(1.0, 2.0, 3.0))


def test_tied_positions_share_one_entry():
    t = parse_tree("(+ c# c#)")
    e = SymbolicExpression(t, theta_c=(5.0,), ties=(0, 0))
    out = eval_expression(e, {})
    assert out.tolist() == [10.0]


def test_no_markers_means_empty_theta():
    t = parse_tree("(+ a b)", ALPHA)
    with pytest.raises(LengthMismatch):
        SymbolicExpression(t, theta_c=(1.0,))
    SymbolicExpression(t)  # fine


# -- eval_expression -------------------------------------------------------------

def test_langmuir_evaluation():
    # saturation * (k c) / (1 + k c) at saturation=100, k=1, c=1 -> 50
    t = parse_tree("(* sT# (/ (* k# c) (+ 1 (* k# c))))")
    e = SymbolicExpression(t, theta_c=(100.0, 1.0), ties=(0, 1, 1))
    out = eval_expression(e, {"c": np.array([1.0])})
    assert out.tolist() == [50.0]


def test_langmuir_untied():
    t = parse_tree("(* sT# (/ (* k# c) (+ 1 (* k# c))))")
    e = SymbolicExpression(t, theta_c=(100.0, 1.0, 1.0))
    out = eval_expression(e, {"c": np.array([1.0, 4.0])})
    assert out[0] == pytest.approx(50.0)
    assert out[1] == pytest.approx(80.0)


def test_constant_broadcast():
    t = parse_tree("c#")
    e = SymbolicExpression(t, theta_c=(7.0,))
    out = eval_expression(e, {"x": np.zeros(3)})
    assert out.tolist() == [7.0, 7.0, 7.0]


def test_fractional_power_of_negative_base_flagged():
    t = parse_tree("(pow a 0.5)")
    wait = parse_tree("(pow -2 0.5)")
    e = SymbolicExpression(wait)
    out = eval_expression(e, {"x": np.zeros(1)})
    assert not np.isfinite(out[0])


def test_divide_by_zero_flagged():
    t = parse_tree("(/ 1 x)")
    e = SymbolicExpression(t)
    out = eval_expression(e, {"x": np.array([0.0, 2.0])})
    assert not np.isfinite(out[0])
    assert out[1] == pytest.approx(0.5)


def test_ternary_sum():
    t = parse_tree("(+ 1 2 3)")
    out = eval_expression(SymbolicExpression(t), {"x": np.zeros(2)})
    assert out.tolist() == [6.0, 6.0]


def test_eval_deterministic():
    t = parse_tree("(* sT# (/ (* k# c) (+ 1 (* k# c))))")
    e = SymbolicExpression(t, theta_c=(100.0, 0.3, 0.3))
    xs = {"c": np.linspace(1, 50, 17)}
    a = eval_expression(e, xs)
    b = eval_expression(e, xs)
    assert a.tobytes() == b.tobytes()


def test_sum_folds_from_the_left():
    # (1e16 + -1e16) + 1 = 1, whereas 1e16 + (-1e16 + 1) rounds to 0
    t = parse_tree("(+ 1e16 -1e16 1)")
    assert eval_expression(SymbolicExpression(t), {}).tolist() == [1.0]


def test_single_variable_result_is_a_copy():
    col = np.array([1.0, 2.0])
    out = eval_expression(SymbolicExpression(parse_tree("x")), {"x": col})
    out[0] = 9.0
    assert col.tolist() == [1.0, 2.0]


def test_missing_variable_and_missing_rule_raise_in_evaluation_order():
    with pytest.raises(UnknownSymbol, match="variable 'zzz' missing from inputs"):
        eval_expression(SymbolicExpression(parse_tree("(max zzz 1)")), {"x": np.zeros(1)})
    with pytest.raises(UnknownSymbol, match=re.escape("no evaluation rule for 'max/2'")):
        eval_expression(SymbolicExpression(parse_tree("(max x 1)")), {"x": np.zeros(1)})
    # an operator is reached only after both of its operands
    with pytest.raises(UnknownSymbol, match="variable 'y' missing"):
        eval_expression(SymbolicExpression(parse_tree("(max x y)")), {"x": np.zeros(1)})
    with pytest.raises(UnknownSymbol, match=re.escape("no evaluation rule for 'max/2'")):
        eval_expression(SymbolicExpression(parse_tree("(- (max x 1) y)")), {"x": np.zeros(1)})


HAND_TREES = [
    ("(pow x a#)", (0.5,), (), None),
    ("(pow 2 a#)", (-1.5,), (), None),
    ("(/ a# (- x x))", (3.0,), (), None),
    ("(/ (* a# b#) (+ 1 a# b#))", (1e300, -1e300), (), (0, 1, 0, 1)),
    ("(- (* d# x) (/ 1/3 d#))", (), (Fraction(2, 3), Fraction(-5)), None),
    ("(+ (* a# x) (* a# (pow x 2)) 0.1)", (-0.0, 0.0), (), None),
    ("(* (pow a# -1) (pow b# -1))", (-0.0, 0.0), (), None),
    ("(+ (pow x a#) (pow 2 a#) (pow a# a#))", (1.5,), (), (0, 0, 0, 0)),
]


@pytest.mark.parametrize("text, theta_c, theta_d, ties", HAND_TREES)
def test_compiled_matches_tree_walk_on_hand_trees(text, theta_c, theta_d, ties):
    e = SymbolicExpression(parse_tree(text), theta_c, theta_d, ties)
    xs = {"x": np.array([-2.0, -0.5, 0.0, 1e-310, 0.75, 3.0, 1e200])}
    assert eval_expression(e, xs).tobytes() == reference_eval(e, xs).tobytes()


@pytest.mark.parametrize("stem, n_points", [("e_iso", 1), ("e_iso", 25), ("e_hyp", 25),
                                             ("e_grm", 25), ("e_mrs", 25), ("e_hook", 25)])
def test_compiled_matches_tree_walk_on_prior_draws(all_shipped, stem, n_points):
    prior = all_shipped[stem]
    rng = np.random.default_rng(11)
    xs = {v: rng.uniform(-1.0, 60.0, n_points) for v in prior.variables}
    for _ in range(150):
        e = sample_expression(prior, rng)
        assert eval_expression(e, xs).tobytes() == reference_eval(e, xs).tobytes(), str(e.tree)


class _CountingNumpy:
    """numpy, counting the arrays that ``empty`` makes."""

    def __init__(self):
        self.made = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.made += 1
        return np.empty(*args, **kwargs)


def test_a_tied_pow_operand_is_filled_once_per_evaluation(e_hyp, monkeypatch):
    import treegress.trees as trees

    tree = parse_tree("(* (/ mu# alpha#) (- (+ (pow l1 alpha#) (pow l2 alpha#) (pow l3 alpha#)) 3))")
    ties, tags = compute_ties(tree, e_hyp)
    assert ties == (0, 1, 1, 1, 1)  # the four alpha# share one parameter
    assert (ties, tags) == reference_ties(tree, e_hyp) == (ties, ("mu#", "alpha#"))
    rng = np.random.default_rng(2)
    xs = {v: rng.uniform(0.5, 3.0, 25) for v in ("l1", "l2", "l3")}
    exprs = [SymbolicExpression(tree, (float(mu), float(alpha)), (), ties)
             for mu, alpha in rng.uniform(0.1, 4.0, (3, 2))]
    counting = _CountingNumpy()
    monkeypatch.setattr(trees, "np", counting)
    got = [eval_expression(e, xs) for e in exprs]
    assert counting.made == len(exprs)  # one fill of alpha# per evaluation, not three
    monkeypatch.undo()
    for e, out in zip(exprs, got):
        assert out.tobytes() == reference_eval(e, xs).tobytes()


def test_unequal_input_lengths_rejected():
    t = parse_tree("(+ x y)")
    with pytest.raises(LengthMismatch):
        eval_expression(SymbolicExpression(t), {"x": np.zeros(2), "y": np.zeros(3)})


# -- text round-trip ---------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "a",
        "(+ a b)",
        "(+ (+ a b) (pow x -2/3))",
        "(* sT# (/ (* k# c) (+ 1 (* k# c))))",
    ],
)
def test_round_trip(text):
    t = parse_tree(text)
    assert format_tree(t) == text
    assert parse_tree(format_tree(t)) == t


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of tree text"),
        (")", "unexpected ')'"),
        ("(+ a b", "missing ')'"),
        ("(", "expected symbol after '('"),
        ("(()", "expected symbol after '('"),
        ("(+ a b) c", "trailing input after tree text"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_tree(text)


def test_deep_tree_round_trip():
    plus, leaf = RankedSymbol("+", 2), Tree(A)
    t = leaf
    for _ in range(5000):
        t = Tree(plus, (leaf, t))
    again = parse_tree(format_tree(t))
    assert again == t
    assert hash(again) == hash(t)
    assert again.size == 10001
    assert eval_expression(SymbolicExpression(again), {"a": np.ones(2)}).tolist() == [5001.0] * 2


def test_deep_chain_replace_validate_and_repr():
    g, a, b = RankedSymbol("g", 1), RankedSymbol("a", 0), RankedSymbol("b", 0)
    t = Tree(a)
    for _ in range(3000):
        t = Tree(g, (t,))
    bottom = (1,) * 3000
    swapped = t.replace_at(bottom, Tree(b))
    assert swapped.nth(3000) == (bottom, Tree(b)) and swapped.size == t.size
    assert t.nth(3000) == (bottom, Tree(a))
    assert parse_tree(format_tree(t), RankedAlphabet([g, a])) == t
    assert repr(t) == f"Tree({format_tree(t)!r})"


def test_node_sizes_and_nth_address(all_shipped):
    rng = np.random.default_rng(4)
    trees = [sample_tree(prior, rng) for prior in all_shipped.values() for _ in range(40)]
    chain = Tree(RankedSymbol("a", 0))
    for _ in range(3000):  # built bottom-up, with no recursion
        chain = Tree(RankedSymbol("g", 1), (chain,))
    for t in trees + [chain]:
        pre_order = list(t.walk())
        assert t.size == len(pre_order)
        for n, (addr, node) in enumerate(pre_order):
            got, got_node = t.nth(n)
            assert got == addr and got_node is node
        for n in (-1, t.size):
            with pytest.raises(IndexError):
                t.nth(n)


def test_replace_at_shares_subtrees_off_the_path():
    t = parse_tree("(+ (+ a b) (+ c (+ a b)))")
    new = t.replace_at((2, 1), Tree(A))
    assert format_tree(new) == "(+ (+ a b) (+ a (+ a b)))"
    assert new.children[0] is t.children[0]
    assert new.children[1].children[1] is t.children[1].children[1]
    assert t.replace_at((), new) is new


def test_equal_trees_are_one_object():
    t = parse_tree("(+ a (+ b c#))")
    assert t is parse_tree("(+ a (+ b c#))") and hash(t) == object.__hash__(t)
    other = parse_tree("(+ a (+ c# b))")
    assert other is not t and other != t
    assert Tree(PLUS, (Tree(A), t.children[1])) is t


def test_shape_record():
    t = parse_tree("(+ c# (* d# (+ x c#)))")
    assert (t.size, t.n_const, t.n_disc) == (7, 2, 1)
    assert [(n.size, n.n_const, n.n_disc) for n in t.children] == [(1, 1, 0), (5, 1, 1)]
    assert disc_positions(t) == ((2, 1),)


def test_parse_against_alphabet_rejects_unknown():
    with pytest.raises(UnknownSymbol):
        parse_tree("(+ a zzz)", ALPHA)


def test_addresses_one_based():
    t = parse_tree("(+ a (+ b b))")
    assert addresses(t) == [(), (1,), (2,), (2, 1), (2, 2)]
    assert dict(t.walk())[(2, 1)].symbol.name == "b"
