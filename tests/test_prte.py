"""Tests for the tree-expression prior machinery.

Covers:
    - parsing structure, weight checks, scope checks, and the static
      termination analysis
    - canonical printing round-trips byte-for-byte
    - sampler semantics (independent re-expansion per variable occurrence,
      geometric iteration lengths, depth budget)
    - the density oracle: exact rational values, agreement with sampling
      frequencies, monotonicity in choice weights, depth-independence
"""

import dataclasses
import gc
import inspect
import json
import math
import struct
import sys
import time
import weakref
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_ties
from test_prior_analysis import (
    _draw_oracle,
    _fixed_oracle,
    _plan_sites,
    _sample_oracle,
    _scope_targets,
    _site,
)
from treegress.errors import (
    DepthBudgetExhausted,
    InputError,
    NonTerminatingIter,
    PrteSyntaxError,
    UnboundVariable,
    WeightSumError,
)
from treegress.prte import (
    MAX_DEPTH_CAP,
    MarkerPrior,
    PChoice,
    PConcat,
    PIter,
    PriorSpec,
    PSymbol,
    PVar,
    _draw,
    build_prior,
    compute_ties,
    format_prte,
    load_prior,
    parse_prte,
    prte_density,
    sample_expression,
    sample_tree,
)
from treegress.inference import McmcConfig, _ChainContext
from treegress.trees import RankedSymbol, SymbolicExpression, Tree, is_const_marker, parse_tree


# -- parsing ---------------------------------------------------------------------

def test_parse_example_language(e1):
    root = e1.root
    assert isinstance(root, PConcat)
    assert root.var == "x"
    assert isinstance(root.left, PIter) and root.left.var == "y"
    assert isinstance(root.right, PIter) and root.right.var == "x"
    left_choice = root.left.body
    assert isinstance(left_choice, PChoice)
    assert [w for w, _ in left_choice.branches] == [Fraction(1, 3)] * 3
    right_choice = root.right.body
    assert [w for w, _ in right_choice.branches] == [Fraction(1, 4)] * 4


def test_single_branch_choice():
    e = parse_prte("choice{ 1.0: a }")
    assert isinstance(e, PChoice)
    assert len(e.branches) == 1
    assert e.branches[0][0] == 1


def test_nonterminating_iteration_rejected():
    with pytest.raises(NonTerminatingIter):
        parse_prte("iter $x { choice{ 0.5: f($x), 0.5: $x } }")


def _root_reach(text):
    """The root's reach, each emitting site named by its symbol."""
    prior = build_prior("reach", text)
    names = {id(site): site.symbol.name for site in prior.graph.symbol_nodes}
    return {names[sid]: w for sid, w in prior.graph.reach[id(prior.root)].items()}


@pytest.mark.parametrize(
    "text, want",
    [
        # r = r/3 + a/3 + b/3
        ("iter $x { choice{ 1/3: $x, 1/3: a, 1/3: b } }",
         {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        # x = y/2 + a/2 and y = x/2 + y/4 + b/4, so x = 3a/4 + b/4
        ("iter $x { choice{ 1/2: iter $y { choice{ 1/2: $x, 1/4: $y, 1/4: b } }, 1/2: a } }",
         {"a": Fraction(3, 4), "b": Fraction(1, 4)}),
    ],
    ids=["self-loop", "nested-loops"],
)
def test_reach_through_variable_loops_is_exact(text, want):
    assert _root_reach(text) == want


def test_a_loop_that_keeps_all_its_mass_is_rejected():
    # the weights sum to 1 within tolerance, but the loop back to $x has weight exactly 1
    with pytest.raises(NonTerminatingIter, match="probability mass is trapped"):
        build_prior("trapped", "iter $x { choice{ 1: $x, 1/10000000000000: a } }")


def test_weight_sum_error():
    with pytest.raises(WeightSumError):
        parse_prte("choice{ 0.5: a, 0.6: b }")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        parse_prte("f($x)")


def _shared_leaf():
    a = PSymbol(RankedSymbol("a", 0))
    return PSymbol(RankedSymbol("f", 2), (a, a))


def _shared_variable():
    # one $x object read where $x is a and where it is b
    x, f = PVar("x"), RankedSymbol("f", 2)
    inner = PConcat(x, "x", PSymbol(RankedSymbol("b", 0)))
    return PConcat(PSymbol(f, (x, inner)), "x", PSymbol(RankedSymbol("a", 0)))


@pytest.mark.parametrize("make", [_shared_leaf, _shared_variable], ids=["same-scope", "two-scopes"])
def test_a_node_object_that_occurs_twice_is_rejected(make):
    with pytest.raises(InputError, match="occurs twice"):
        PriorSpec(name="shared", root=make())


def test_syntax_error_carries_location():
    with pytest.raises(PrteSyntaxError) as exc:
        parse_prte("choice{ 0.5: a,\n 0.5 b }")
    assert exc.value.line == 2


def test_noop_iteration_allowed():
    # iterating a variable that never occurs in the body is a no-op
    e = parse_prte("iter $z { a }")
    assert isinstance(e, PIter)


def test_load_prior_analyses_the_expression_once(monkeypatch):
    import importlib.resources

    import treegress.prte as prte

    made = []

    class Counted(prte._Resolution):
        def __init__(self, root):
            made.append(root)
            super().__init__(root)

    monkeypatch.setattr(prte, "_Resolution", Counted)
    for path in (importlib.resources.files("treegress") / "priors").iterdir():
        made.clear()
        load_prior(str(path))
        assert len(made) == 1, path.name


def _walk_symbols(e) -> set:
    """Every symbol of the expression, by a walk of its constructors."""
    if isinstance(e, PSymbol):
        return {e.symbol}.union(*map(_walk_symbols, e.children))
    if isinstance(e, PChoice):
        return set().union(*(_walk_symbols(b) for _, b in e.branches))
    if isinstance(e, PConcat):
        return _walk_symbols(e.left) | _walk_symbols(e.right)
    if isinstance(e, PIter):
        return _walk_symbols(e.body)
    return set()


def test_alphabet_is_the_symbols_used_plus_the_variables(all_shipped):
    for name, prior in all_shipped.items():
        want = _walk_symbols(prior.root) | {RankedSymbol(v, 0) for v in prior.variables}
        assert prior.alphabet.symbol_keys() == {(s.name, s.rank) for s in want}, name
    # a variable the expression also names is one symbol; so is a repeated variable
    prior = build_prior("t", "choice{ 1/2: +(x, y), 1/2: x }", variables=["x", "z", "z"])
    assert prior.alphabet.symbol_keys() == {("+", 2), ("x", 0), ("y", 0), ("z", 0)}


EXP = {"dist": "exp", "rate": 1.0}


@pytest.mark.parametrize(
    "expression, markers, shared, error",
    [
        ("choice{ 1/2: a, 1/2 b }", {}, None, PrteSyntaxError),
        ("choice{ 1/2: a, 1/3: b }", {}, None, WeightSumError),
        ("f($x)", {}, None, UnboundVariable),
        ("iter $x { f($x) }", {}, None, NonTerminatingIter),
        ("+(k#, a)", {}, None, InputError),
        # a Python caller's marker or anchor that is not a dict, JSON text included
        ("+(k#, a)", {"k#": "exp"}, None, InputError),
        ("+(k#, a)", {"k#": json.dumps(EXP)}, None, InputError),
        ("+(k#, k#)", {"k#": EXP}, {"k#": '{"anchor": "+", "rank": 2}'}, InputError),
        ("+(k#, k#)", {"k#": EXP}, {"k#": ("+", 2)}, InputError),
    ],
    ids=["syntax", "weight-sum", "unbound", "non-terminating", "undeclared-marker",
         "marker-str", "marker-json-text", "anchor-json-text", "anchor-tuple"],
)
def test_single_fault_priors_raise_their_error(expression, markers, shared, error):
    with pytest.raises(InputError) as exc:
        build_prior("bad", expression, markers=markers, shared=shared)
    assert type(exc.value) is error
    if isinstance(next(iter((shared or markers).values()), {}), (str, tuple)):
        assert "not one JSON object" in str(exc.value)


def test_too_deep_an_expression_is_an_input_error():
    deep = PSymbol(RankedSymbol("a", 0))
    for _ in range(3000):
        deep = PSymbol(RankedSymbol("f", 1), (deep,))
    with pytest.raises(InputError, match="nests too deeply to analyse"):
        PriorSpec("deep", deep)
    with pytest.raises(InputError, match="nests too deeply to parse"):
        parse_prte("f(" * 600 + "a" + ")" * 600)
    text = "f(" * 300 + "a" + ")" * 300
    assert format_prte(parse_prte(text)) == text


@pytest.mark.parametrize(
    "expression, height",
    [
        ("a", 0),
        ("f(a, g(b))", 2),
        ("choice{ 1/2: g(g(a)), 1/2: g(a) }", 1),
        ("g($y).subst($y, g(g(a)))", 3),
        ("iter $x { choice{ 1/2: f($x, $x), 1/2: g(a) } }", 1),
        ("iter $x { choice{ 9/10: g($x), 1/10: g(g(a)) } }", 2),
        ("iter $x { choice{ 1/2: $x, 1/2: g(a) } }", 1),
    ],
)
def test_least_derivation_height_bounds_max_depth(expression, height):
    # the shallowest tree's depth, with the root at depth 0: a prior builds
    # down to max_depth == height, and every draw there stays within it
    assert build_prior("h", expression).graph.height == height
    prior = build_prior("h", expression, max_depth=max(height, 1))
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = sample_tree(prior, rng)
        assert max(len(addr) for addr, _ in t.walk()) <= prior.max_depth
    if height > 1:
        with pytest.raises(InputError, match=f"is {height} deep, beyond max_depth {height - 1}"):
            build_prior("h", expression, max_depth=height - 1)
        with pytest.raises(InputError, match="beyond max_depth"):
            dataclasses.replace(prior, max_depth=height - 1)



COMB = "iter $x { choice{ 999/1000: +(f, $x), 1/1000: f } }"


def test_max_depth_is_capped_where_both_samplers_still_recurse():
    """Past the cap a prior is rejected; at it, a comb drawn by ``sample_tree``
    and one grown by ``sample_from_state`` reach the cap and finish, with a tree
    or DepthBudgetExhausted, not a RecursionError, under a recursion limit only
    50 frames above the cap and the test's own stack: each sampler spends one
    frame a level."""
    from treegress.pta import compile_prior, sample_from_state

    for depth in (MAX_DEPTH_CAP + 1, 100_000):
        with pytest.raises(InputError, match=f"between 1 and {MAX_DEPTH_CAP}"):
            build_prior("comb", COMB, max_depth=depth)
    prior = build_prior("comb", COMB, max_depth=MAX_DEPTH_CAP)
    with pytest.raises(InputError, match="max_depth"):
        dataclasses.replace(prior, max_depth=MAX_DEPTH_CAP + 1)
    pta = compile_prior(prior)
    start = int(np.flatnonzero(pta.initial)[0])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + MAX_DEPTH_CAP + 50)
    try:
        for draw in (lambda rng: sample_tree(prior, rng),
                     lambda rng: sample_from_state(pta, start, rng, MAX_DEPTH_CAP)):
            depths = []
            for seed in range(8):
                try:
                    depths.append(max(len(a) for a, _ in draw(np.random.default_rng(seed)).walk()))
                except DepthBudgetExhausted:
                    depths.append(MAX_DEPTH_CAP + 1)
            assert max(depths) > MAX_DEPTH_CAP / 2, depths
    finally:
        sys.setrecursionlimit(limit)


# -- canonical printing -------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "choice{ 1: a }",
        "iter $x { choice{ 1/10: +(f, $x), 9/10: f } }",
        "f(a, b).subst($q, a)",
    ],
)
def test_print_parse_idempotent(text):
    ast = parse_prte(text)
    printed = format_prte(ast)
    assert parse_prte(printed) == ast
    assert format_prte(parse_prte(printed)) == printed


def test_example_prior_round_trips(all_shipped):
    for prior in all_shipped.values():
        printed = format_prte(prior.root)
        assert parse_prte(printed) == prior.root
        assert format_prte(parse_prte(printed)) == printed


# -- sampling -------------------------------------------------------------------------

def test_single_branch_always_same():
    prior = build_prior("t", "choice{ 1: a }")
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert str(sample_tree(prior, rng)) == "a"


def test_sampling_deterministic(e_iso):
    a = sample_tree(e_iso, np.random.default_rng(123))
    b = sample_tree(e_iso, np.random.default_rng(123))
    assert a == b


def test_sample_expression_deterministic(e_iso):
    a = sample_expression(e_iso, np.random.default_rng(7))
    b = sample_expression(e_iso, np.random.default_rng(7))
    assert a == b


def test_geometric_iteration_lengths(e_sum):
    # P(length = l) = 0.1^(l-1) * 0.9
    rng = np.random.default_rng(2024)
    n = 20_000
    counts = {}
    for _ in range(n):
        t = sample_tree(e_sum, rng)
        l = sum(1 for _, node in t.walk() if node.symbol.name == "f")
        counts[l] = counts.get(l, 0) + 1
    for l in (1, 2, 3):
        p = 0.1 ** (l - 1) * 0.9
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(l, 0) / n - p) < 4 * se


def test_depth_budget_exhausted():
    # iteration continues almost surely; a tiny depth cap must give up
    prior = build_prior(
        "deep",
        "iter $x { choice{ 9999999/10000000: f($x), 1/10000000: a } }",
        max_depth=3,
    )
    with pytest.raises(DepthBudgetExhausted):
        sample_tree(prior, np.random.default_rng(0))


def test_sampling_leaves_no_reference_cycle(e_iso):
    prior = dataclasses.replace(e_iso)
    gone = weakref.ref(prior)
    gc.disable()
    try:
        sample_tree(prior, np.random.default_rng(0))
        del prior
        assert gone() is None
    finally:
        gc.enable()


def test_independent_expansion_per_occurrence(e1):
    # f(x, x) re-expands each x independently; over many samples the two
    # children must differ sometimes
    rng = np.random.default_rng(11)
    saw_different = False
    for _ in range(300):
        t = sample_tree(e1, rng)
        if t.symbol.name == "f" and t.children[0] != t.children[1]:
            saw_different = True
            break
    assert saw_different


# -- density --------------------------------------------------------------------------

def test_density_exact_values(e1):
    assert prte_density(e1, parse_tree("(g (g a))", e1.alphabet)) == Fraction(1, 48)
    assert prte_density(e1, parse_tree("(f b b)", e1.alphabet)) == 0


def test_density_sum_length_three(e_sum):
    t = parse_tree("(+ f (+ f f))", e_sum.alphabet)
    assert prte_density(e_sum, t) == Fraction(9, 1000)


def test_density_matches_sampling_frequency(e1):
    rng = np.random.default_rng(99)
    n = 30_000
    target = parse_tree("(g (g a))", e1.alphabet)
    hits = sum(1 for _ in range(n) if sample_tree(e1, rng) == target)
    p = 1 / 48
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * se


def test_density_with_expansion_loop():
    # the stop branch is reachable only through re-expansion; all derivations
    # of 'a' sum to probability one
    prior = build_prior("loop", "iter $x { choice{ 9/10: a, 1/10: $x } }")
    assert prte_density(prior, parse_tree("a", prior.alphabet)) == 1


def test_density_ignores_depth_budget():
    shallow = build_prior("shallow", "iter $x { choice{ 1/2: f($x), 1/2: a } }", max_depth=2)
    chain = parse_tree("(f (f (f (f a))))", shallow.alphabet)
    assert prte_density(shallow, chain) == Fraction(1, 32)


def test_density_monotone_in_choice_weight():
    lo = build_prior("lo", "choice{ 1/4: f(a), 3/4: b }")
    hi = build_prior("hi", "choice{ 1/2: f(a), 1/2: b }")
    t = parse_tree("(f a)", lo.alphabet)
    assert prte_density(hi, t) > prte_density(lo, t)


def test_bulk_of_mass_on_frequent_trees(all_shipped):
    # with continue-weight 0.1 the most frequent samples carry nearly all mass
    for stem in ("e_iso", "e_hyp", "e_mrs", "e_hook", "e_grm"):
        prior = all_shipped[stem]
        rng = np.random.default_rng(17)
        seen = {}
        for _ in range(20_000):
            t = sample_tree(prior, rng)
            seen[t] = seen.get(t, 0) + 1
        top = sorted(seen, key=seen.get, reverse=True)[:1000]
        mass = float(sum(prte_density(prior, t) for t in top))
        assert mass >= 0.99, f"{stem} cumulative density {mass}"


# -- parameter binding -------------------------------------------------------------------

def test_marker_draws_follow_declared_rate(e_iso):
    rng = np.random.default_rng(31)
    draws = []
    for _ in range(400):
        e = sample_expression(e_iso, rng)
        # saturation marker is always the first group (pre-order root factor)
        draws.append(e.theta_c[0])
    mean = float(np.mean(draws))
    # Exp(rate 0.015) has mean ~66.7; loose 4-sigma band
    assert abs(mean - 1 / 0.015) < 4 * (1 / 0.015) / math.sqrt(len(draws))


def _old_logpdf(prior, x):
    """MarkerPrior.logpdf with its logarithms taken on every call: the oracle."""
    if prior.kind == "exp":
        if x < 0:
            return -math.inf
        return math.log(prior.rate) - prior.rate * x
    z = (x - prior.mean) / prior.stddev
    return -0.5 * z * z - math.log(prior.stddev) - 0.5 * math.log(2 * math.pi)


def _scored(prior, x):
    """The chain's log density of one marker of this prior at x, read through its record."""
    one = PriorSpec("one", PSymbol(RankedSymbol("k#", 0)), markers={"k#": prior})
    ctx = _ChainContext(one, None, None, McmcConfig(prior_only=True))
    return ctx.log_prior_params(SymbolicExpression(Tree(RankedSymbol("k#", 0)), (x,)))


def test_marker_logpdf_keeps_the_bits_of_the_formula(all_shipped):
    # every shipped marker prior is exponential; two normal ones stand in for that kind
    priors = [m for spec in all_shipped.values() for m in spec.markers.values()]
    priors += [MarkerPrior("normal", mean=1.5, stddev=0.3),
               MarkerPrior("normal", mean=-2.0, stddev=7.0)]
    for prior in priors:
        for x in (-1e300, -1.0, -0.0, 0.0, 5e-324, 0.3, 1e300):
            got, want = _scored(prior, x), _old_logpdf(prior, x)
            assert struct.pack("<d", got) == struct.pack("<d", want), (prior, x)


def test_marker_prior_validates_only_its_kind_s_scale():
    # a field the kind does not read is not checked, and its log is not taken
    assert _scored(MarkerPrior("normal", rate=0.0), 0.0) == _old_logpdf(MarkerPrior("normal"), 0.0)
    assert _scored(MarkerPrior("exp", stddev=-1.0), 1.0) == -1.0


def test_an_exponential_rate_whose_scale_overflows_is_rejected():
    bound = 1 / sys.float_info.max
    assert 1.0 / bound == math.inf  # the largest rate that fails: its scale overflows
    for rate in (bound, 1e-320, 0.0, -1.0):
        with pytest.raises(InputError, match=r"above 1 / sys\.float_info\.max"):
            MarkerPrior("exp", rate=rate)
    smallest = MarkerPrior("exp", rate=math.nextafter(bound, 1.0))  # the smallest that loads
    assert math.isfinite(1.0 / smallest.rate) and math.isfinite(smallest.constants[-1])


def test_zero_marker_prior_gives_empty_theta(e1):
    e = sample_expression(e1, np.random.default_rng(0))
    assert e.theta_c == ()
    assert e.theta_d == ()


def test_shared_alpha_ties(e_hyp):
    rng = np.random.default_rng(8)
    for _ in range(20):
        e = sample_expression(e_hyp, rng)
        summands = sum(1 for _, n in e.tree.walk() if n.symbol.name == "*")
        # per summand: one mu group and one alpha group covering 4 positions
        assert len(e.theta_c) == 2 * summands
        assert len(e.ties) == 5 * summands


def test_ties_match_a_recursive_walk(all_shipped):
    rng = np.random.default_rng(12)
    for prior in all_shipped.values():
        for _ in range(100):
            tree = sample_tree(prior, rng)
            assert compute_ties(tree, prior) == reference_ties(tree, prior), str(tree)


# a# groups under its nearest '*', b# under its nearest binary '+'; k# is solo
NESTED = build_prior(
    "nested",
    "iter $x { choice{ 1/2: *(+(a#, $x), +(b#, k#)), 1/2: *(a#, d#) } }",
    markers={tag: {"dist": "exp", "rate": 1.0} for tag in ("a#", "b#", "k#")},
    shared={"a#": {"anchor": "*", "rank": 2}, "b#": {"anchor": "+", "rank": 2}},
    theta_d_support=[1, 2],
)
NESTED_TREES = st.recursive(
    st.sampled_from([Tree(RankedSymbol(name, 0)) for name in ("a#", "b#", "k#", "d#", "x")]),
    lambda kids: st.builds(lambda name, left, right: Tree(RankedSymbol(name, 2), (left, right)),
                           st.sampled_from(["*", "+"]), kids, kids),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=1000, max_examples=300)
@given(NESTED_TREES)
def test_ties_under_nested_anchors_match_a_recursive_walk(tree):
    ties, tags = compute_ties(tree, NESTED)
    assert (ties, tags) == reference_ties(tree, NESTED)
    markers = [node.symbol.name for _, node in tree.walk() if is_const_marker(node.symbol)]
    assert tags == tuple(markers[ties.index(g)] for g in range(len(set(ties))))


@pytest.mark.parametrize("anchor", ["x", "a#"])
def test_a_tag_anchored_at_a_leaf_ties_all_its_markers_into_one_group(anchor):
    """No leaf is an ancestor, so a tag anchored at a rank-0 symbol, a variable or the
    marker's own, has no anchor occurrence above any of its markers."""
    prior = build_prior("leaf", "iter $x { choice{ 1/2: +(a#, $x), 1/2: +(a#, +(b#, x)) } }",
                        variables=["x"], markers={tag: {"dist": "exp", "rate": 1.0}
                                                  for tag in ("a#", "b#")},
                        shared={"a#": {"anchor": anchor, "rank": 0}})
    for text, want in [("(+ a# (+ a# (+ a# b#)))", ((0, 0, 0, 1), ("a#", "b#"))),
                       ("(+ a# (+ a# (+ b# x)))", ((0, 0, 1), ("a#", "b#"))),
                       ("(+ b# (+ a# (+ a# (+ b# x))))", ((0, 1, 1, 2), ("b#", "a#", "b#")))]:
        tree = parse_tree(text)
        assert compute_ties(tree, prior) == want == reference_ties(tree, prior), text


POSITIVE = st.floats(min_value=5e-324, max_value=1e308)
# every rate whose scale 1 / rate is finite, subnormal ones among them
RATES = st.floats(min_value=1 / sys.float_info.max, max_value=1e308, exclude_min=True)
MARKER_PRIORS = st.one_of(
    st.builds(lambda rate: MarkerPrior("exp", rate=rate), RATES),
    st.builds(lambda mean, stddev: MarkerPrior("normal", mean=mean, stddev=stddev),
              st.floats(-1e308, 1e308), POSITIVE),
)
# -0.0, negatives, subnormals and +-1e308 among the draws
THETAS = (st.sampled_from([-0.0, 0.0, -1.0, 5e-324, -5e-324, 2e-310, -1e308, 1e308])
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(NESTED_TREES, st.tuples(MARKER_PRIORS, MARKER_PRIORS, MARKER_PRIORS), st.data())
def test_the_record_scorer_is_the_formula_summed_over_tied_groups(tree, priors, data):
    """The chain's marker log density, read from its per-tree record of constants,
    is the sum of ``_old_logpdf`` over the tie groups in slot order, to the bit."""
    prior = dataclasses.replace(NESTED, markers=dict(zip(("a#", "b#", "k#"), priors)))
    ties, tags = reference_ties(tree, prior)
    assert compute_ties(tree, prior) == (ties, tags)
    theta = data.draw(st.lists(THETAS, min_size=len(tags), max_size=len(tags)))
    theta_d = data.draw(st.lists(st.sampled_from([1, 2]), min_size=tree.n_disc,
                                 max_size=tree.n_disc))
    want = 0.0
    for tag, x in zip(tags, theta):
        want += _old_logpdf(prior.markers[tag], x)
    if theta_d:
        want -= len(theta_d) * math.log(2)
    ctx = _ChainContext(prior, None, None, McmcConfig(prior_only=True))
    got = ctx.log_prior_params(SymbolicExpression(tree, tuple(theta), tuple(theta_d), ties))
    assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)


def test_a_deep_marker_comb_builds_in_linear_time():
    # one marker per level: storing each marker's address on every ancestor
    # made this build cubic in the depth, as did re-descending from the root to
    # find each anchored marker's nearest anchor
    start = time.perf_counter()
    plus, k = RankedSymbol("+", 2), Tree(RankedSymbol("k#", 0))
    built = k
    for _ in range(1000):
        built = Tree(plus, (k, built))
    parsed = parse_tree("(* k# " * 1000 + "k#" + ")" * 1000)
    assert time.perf_counter() - start < 1.0
    for tree in (built, parsed):
        assert (tree.size, tree.n_const, tree.n_disc) == (2001, 1001, 0)
        assert compute_ties(tree, NESTED) == (tuple(range(1001)), ("k#",) * 1001)
    star, a = RankedSymbol("*", 2), Tree(RankedSymbol("a#", 0))
    anchored = a
    for _ in range(2000):
        anchored = Tree(star, (a, anchored))
    start = time.perf_counter()
    ties, tags = compute_ties(anchored, NESTED)  # a# groups under its nearest '*'
    assert time.perf_counter() - start < 1.0
    assert (ties, tags) == (tuple(range(2000)) + (1999,), ("a#",) * 2000)


def test_minimal_isotherm_sample_shape(e_iso):
    # taking the stop branch at both iterations gives
    # saturation * (fraction * (q c^alpha / (1 + p c^beta))^gamma)
    rng = np.random.default_rng(0)
    smallest = None
    for _ in range(200):
        t = sample_tree(e_iso, rng)
        if smallest is None or t.size < smallest.size:
            smallest = t
    assert str(smallest) == (
        "(* sT# (* f# (pow (/ (* q# (pow c alpha#)) (+ 1 (* p# (pow c beta#)))) gamma#)))"
    )


def test_isotherm_root_is_saturation_product(e_iso):
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = sample_tree(e_iso, rng)
        assert t.symbol.name == "*"
        assert t.children[0].symbol.name == "sT#"


def _float_accumulating_pick(choice, rng):
    """The branch pick as it was before PChoice stored its running sums: the
    reference that the bisect over ``PChoice.cumulative`` must reproduce."""
    r = rng.random()
    acc = 0.0
    for w, branch in choice.branches:
        acc += float(w)
        if r < acc:
            return branch
    return choice.branches[-1][1]


def _choices(e):
    """Every PChoice node of a prior expression."""
    pending, found = [e], []
    while pending:
        node = pending.pop()
        if isinstance(node, PChoice):
            found.append(node)
            pending.extend(b for _, b in node.branches)
        elif isinstance(node, PConcat):
            pending += [node.left, node.right]
        elif isinstance(node, PIter):
            pending.append(node.body)
        else:
            pending.extend(getattr(node, "children", ()))
    return found


class _Fixed:
    """A stand-in generator whose random() returns one given value."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def _attempt(draw):
    """The tree of one draw, or the error type and message it ends with."""
    try:
        return draw()
    except DepthBudgetExhausted as exc:
        return DepthBudgetExhausted, str(exc)


def test_branch_pick_matches_the_float_accumulating_pick(all_shipped):
    for name, prior in all_shipped.items():
        targets, nodes = _scope_targets(prior.root)
        fixed, plan = _fixed_oracle(nodes, targets), prior.graph.plan
        fast = np.random.default_rng(5)
        got = [sample_tree(prior, fast) for _ in range(300)]
        ref = np.random.default_rng(5)
        want = [_sample_oracle(prior, fixed, targets, ref, _float_accumulating_pick)
                for _ in range(300)]
        assert got == want, name
        assert fast.bit_generator.state == ref.bit_generator.state, name
        records = [(at, choice) for choice in _choices(prior.root)
                   for at, (symbol, _, sums) in enumerate(plan)
                   if symbol is None and sums is choice.cumulative]
        assert len(records) == len(_choices(prior.root)), name
        sites = _plan_sites(plan, targets, fixed, [(0, prior.root), *records])
        # the plan with every symbol record holding its own index: a draw from a choice
        # record gives the index of the symbol record it picks
        probe = tuple((symbol, (), (i, 0)) if symbol is not None else (symbol, kids, sums)
                      for i, (symbol, kids, sums) in enumerate(plan))
        # at and just below every running sum, and the largest draw below 1: the plan
        # record's branch is the float-accumulating pick, ``_draw`` picks the symbol that
        # pick reaches, and one attempt from the record ends as one from the choice does
        for at, choice in records:
            _, branches, sums = plan[at]
            edges = [r for acc in choice.cumulative for r in (acc, math.nextafter(acc, 0.0))]
            for r in edges + [0.0, math.nextafter(1.0, 0.0)]:
                pick = _site(_float_accumulating_pick(choice, _Fixed(r)), targets)
                assert sites[branches[bisect_right(sums, r)]] is pick, (name, r)
                while isinstance(pick, PChoice):
                    pick = _site(_float_accumulating_pick(pick, _Fixed(r)), targets)
                assert sites[_draw(probe, _Fixed(r), (at,), 0, 0)[0]] is pick, (name, r)
                ours = _attempt(lambda: _draw(plan, _Fixed(r), (at,), 0, prior.max_depth)[0])
                theirs = _attempt(lambda: _draw_oracle(prior, fixed, targets, _Fixed(r), (choice,),
                                                       0, _float_accumulating_pick)[0])
                assert ours == theirs, (name, r)
