"""The posterior writer against ``json.dumps(doc, indent=2)``.

``posterior_to_json`` lays each draw out by hand and encodes a repeated draw
object once.  The document it writes must be the bytes the plain indent-2
dump of the same document gives, which is the layout the reference SHAs pin.
The chain records a run of one state as one ``Draw`` object, repeated.
"""

import hashlib
import json
import math
from dataclasses import asdict
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from treegress.cli import _print_fit_summary
from treegress.experiments import gen_isotherm
from treegress.inference import (
    MOVES,
    Draw,
    McmcConfig,
    Posterior,
    eval_key,
    posterior_to_json,
    run_chains,
)
from treegress.trees import SymbolicExpression, format_tree, parse_tree

# trees with no marker, continuous and discrete markers, and symbol names that
# json escapes: non-ASCII, astral (a surrogate pair), a quote and a backslash
TREES = [parse_tree(text) for text in (
    "x",
    "(* c# x)",
    "(+ a# (* b# (pow x d#)))",
    '(× ä# (q"\\ 𝛼# d#))',
)]
# every float json spells its own way, signed zeros and ints
SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0, -7, 10**20]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
)
FRACTIONS = st.fractions(max_denominator=10**6)
STATS = st.one_of(
    st.just({}),  # the partial trace cmd_fit writes after a failure
    st.fixed_dictionaries({move: st.fixed_dictionaries(
        {key: st.integers(0, 10**6) for key in ("proposed", "accepted", "aborted")})
        for move in MOVES}),
)


def _unchecked(tree, theta_c, theta_d, ties):
    """An expression built as the chain's ``_jump_to`` builds it, without the
    checks, so ints and non-finite values reach the writer."""
    expr = object.__new__(SymbolicExpression)
    expr.__dict__.update(tree=tree, theta_c=tuple(theta_c), theta_d=tuple(theta_d), ties=ties)
    return expr


@st.composite
def draws(draw):
    tree = draw(st.sampled_from(TREES))
    ties, groups = [], 0
    for _ in range(tree.n_const):  # group indices numbered by first occurrence
        g = draw(st.integers(0, groups))
        ties.append(g)
        groups += g == groups
    theta_c = draw(st.lists(SCALARS, min_size=groups, max_size=groups))
    theta_d = draw(st.lists(FRACTIONS, min_size=tree.n_disc, max_size=tree.n_disc))
    expr = _unchecked(tree, theta_c, theta_d, tuple(ties))
    return Draw(expr, draw(SCALARS), draw(SCALARS))


def _flip_zeros(d: Draw) -> Draw:
    """A new draw object equal to ``d`` whose zeros have the other sign."""
    def flip(v):
        return -v if v == 0 and isinstance(v, float) else v

    e = d.expr
    expr = _unchecked(e.tree, map(flip, e.theta_c), e.theta_d, e.ties)
    return Draw(expr, flip(d.sigma), flip(d.log_post))


@st.composite
def posteriors(draw):
    out = []
    for action in draw(st.lists(st.sampled_from(["new", "repeat", "copy", "flip"]), max_size=12)):
        if action == "new" or not out:
            out.append(draw(draws()))
        elif action == "repeat":  # the same object, as the chain records a run
            out.append(out[-1])
        elif action == "copy":  # a distinct object with equal values
            prev = out[-1]
            out.append(Draw(_unchecked(prev.expr.tree, prev.expr.theta_c, prev.expr.theta_d,
                                       prev.expr.ties), prev.sigma, prev.log_post))
        else:
            out.append(_flip_zeros(out[-1]))
    config = McmcConfig(seed=draw(st.integers(0, 2**32)), sigma0=draw(st.sampled_from([None, 0.5])))
    return Posterior(tuple(out), draw(STATS), config, draw(st.integers(0, 2**63)))


def oracle(posterior: Posterior) -> str:
    """The writer as it was: the whole document through ``json.dumps(indent=2)``."""
    doc = {
        "config": asdict(posterior.config),
        "seed": posterior.seed,
        "draws": [
            {
                "expr": format_tree(d.expr.tree),
                "theta_c": list(d.expr.theta_c),
                "theta_d": [str(v) for v in d.expr.theta_d],
                "ties": list(d.expr.ties),
                "sigma": d.sigma,
                "log_post": d.log_post,
            }
            for d in posterior.draws
        ],
        "accept_stats": posterior.accept_stats,
    }
    return json.dumps(doc, indent=2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(posteriors())
def test_the_writer_gives_the_bytes_of_an_indent_2_dump(posterior):
    assert posterior_to_json(posterior) == oracle(posterior)


def test_an_empty_trace_and_a_run_with_signed_zeros():
    empty = Posterior((), {}, McmcConfig(), 0)
    assert posterior_to_json(empty) == oracle(empty)
    d = Draw(SymbolicExpression(parse_tree("(* c# (pow x d#))"), (-0.0,), (Fraction(-2, 3),)),
             0.5, -math.inf)
    post = Posterior((d, d, _flip_zeros(d), d), {}, McmcConfig(), 3)
    text = posterior_to_json(post)
    assert text == oracle(post)
    entries = json.loads(text)["draws"]
    assert [repr(e["theta_c"][0]) for e in entries] == ["-0.0", "-0.0", "0.0", "-0.0"]
    assert {e["theta_d"][0] for e in entries} == {"-2/3"}


def test_the_reference_langmuir_chain_records_one_draw_per_run(e_iso, capsys, monkeypatch):
    import treegress.inference

    seen = []
    config = McmcConfig(burn_in=2000, samples=1000, thin=1, seed=0)
    post = run_chains(e_iso, gen_isotherm("langmuir", 7)["train"], config, 1, on_draw=seen.append)
    assert len(seen) == len(post.draws) and all(a is b for a, b in zip(seen, post.draws))

    text = posterior_to_json(post)
    assert text == oracle(post)
    # the bytes `fit` writes for this chain, pinned in test_reference_posteriors.py
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cc4ff7cabf7b75d212c681acbe781c09d41721cde21219a3e78e3053be708068")
    entries = json.loads(text)["draws"]
    runs = 1 + sum(a != b for a, b in zip(entries, entries[1:]))
    assert len({id(d) for d in post.draws}) == runs < len(entries) / 10

    # distinct keys each draw object once, and indexes as keying every draw did
    first: dict = {}
    keyed = [first.setdefault(eval_key(d.expr), len(first)) for d in post.draws]
    calls = []
    monkeypatch.setattr(treegress.inference, "eval_key", lambda e: calls.append(e) or eval_key(e))
    assert post.distinct[1].tolist() == keyed and len(calls) == runs

    # the summary `fit` prints for this chain, recorded before trees' texts were shared
    capsys.readouterr()
    _print_fit_summary(post)
    summary = capsys.readouterr().out
    assert hashlib.sha256(summary.encode()).hexdigest() == (
        "530413e705ea6c4a8a8dc044de96a99b33900cc2d28e6b1e545f02f6887227a6")
