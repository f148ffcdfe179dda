"""The posterior writer against ``json.dumps(doc, indent=2)``, and the reader
against ``json.loads``.

``posterior_to_json`` lays each draw out by hand and encodes a repeated draw
object once.  The document it writes must be the bytes the plain indent-2
dump of the same document gives (``oracles.posterior_json``), which is the layout the reference SHAs pin.
The chain records a run of one state as one ``Draw`` object, repeated.

``posterior_from_json`` decodes a run of equal entries once when the text has
the writer's layout; on any text, edited or not, its document must be the one
``json.loads`` gives, or it must raise the same error.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import treegress.inference
from oracles import posterior_json
from treegress.cli import _print_fit_summary
from treegress.experiments import gen_isotherm
from treegress.inference import (
    MOVES,
    Draw,
    McmcConfig,
    Posterior,
    _load_posterior,
    eval_key,
    posterior_from_json,
    posterior_to_json,
    run_chains,
)
from treegress.trees import RankedSymbol, SymbolicExpression, Tree, format_tree, parse_tree

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
    return Posterior(tuple(out), draw(STATS), config)


def test_texts_are_the_format_tree_texts(e1):
    """``Posterior.texts`` formats each distinct node once through a memo, and gives
    ``format_tree``'s text for every tree of the e1-prior reference posterior, in
    order of first appearance, and for a tree 3,000 deep."""
    config = McmcConfig(burn_in=0, samples=2000, thin=2, seed=0, prior_only=True)
    post = run_chains(e1, None, config, 1)
    seen = [d.expr.tree for d in post.draws]
    trees = sorted(set(seen), key=seen.index)
    assert len(trees) == 519
    assert list(post.texts.items()) == [(tree, format_tree(tree)) for tree in trees]
    digest = hashlib.sha256(posterior_to_json(post).encode()).hexdigest()
    assert digest.startswith("5fc088e1")  # tests/test_reference_posteriors.py's e1-prior
    leaf, pair = parse_tree("x"), RankedSymbol("f", 2)
    deep = leaf
    for i in range(3000):
        deep = Tree(pair, (deep, leaf) if i % 2 else (leaf, deep))
    draw = Draw(SymbolicExpression(deep), 1.0, 0.0)
    assert Posterior((draw,), {}, config).texts == {deep: format_tree(deep)}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(posteriors())
def test_the_writer_gives_the_bytes_of_an_indent_2_dump(posterior):
    assert posterior_to_json(posterior) == posterior_json(posterior)


def test_an_empty_trace_and_a_run_with_signed_zeros():
    empty = Posterior((), {}, McmcConfig())
    assert posterior_to_json(empty) == posterior_json(empty)
    d = Draw(SymbolicExpression(parse_tree("(* c# (pow x d#))"), (-0.0,), (Fraction(-2, 3),)),
             0.5, -math.inf)
    post = Posterior((d, d, _flip_zeros(d), d), {}, McmcConfig(seed=3))
    text = posterior_to_json(post)
    assert text == posterior_json(post)
    entries = json.loads(text)["draws"]
    assert [repr(e["theta_c"][0]) for e in entries] == ["-0.0", "-0.0", "0.0", "-0.0"]
    assert {e["theta_d"][0] for e in entries} == {"-2/3"}


def test_the_reference_langmuir_chain_records_one_draw_per_run(e_iso, capsys, monkeypatch):
    import treegress.inference

    config = McmcConfig(burn_in=2000, samples=1000, thin=1, seed=0)
    post = run_chains(e_iso, gen_isotherm("langmuir", 7)["train"], config)

    text = posterior_to_json(post)
    assert text == posterior_json(post)
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


# -- the reader -------------------------------------------------------------------

# the writer's layout around and between draw entries, as indent=2 puts it
DRAWS_OPEN = ',\n  "draws": [\n    {\n'
DRAW_SEP = '\n    },\n    {\n'
DRAWS_CLOSE = '\n    }\n  ],\n  "accept_stats": '
# a number an entry holds, as a list item or a field value
NUMBER = re.compile(r"(?<= )-?(?:Infinity|NaN|\d[\d.eE+-]*)(?=,\n|\n|\Z)")
ZERO = re.compile(r"(?<= )-?0\.0(?=,\n|\n|\Z)")


def _outcome(load, text):
    """What ``load`` gives for the text: the document as json writes it (which tells
    -0.0, NaN, 1 and 1.0 apart), or the type and message of its error."""
    try:
        return json.dumps(load(text))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def edited_posteriors(draw):
    """A writer output, edited: a space or newline inserted, a character deleted, a
    field of one entry (one that repeats the entry before it, where there is one)
    given another value, a zero's sign swapped, ``true`` in place of a number, or a
    second "draws" key in the tail."""
    text = posterior_to_json(draw(posteriors()))
    kind = draw(st.sampled_from(["insert", "delete", "field", "zero", "true", "tail-draws"]))
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([" ", "\n"])) + text[at:]
    if kind == "delete":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:]
    if kind == "tail-draws":
        return text[:-2] + ',\n  "draws": ' + draw(st.sampled_from(["null", "[]", "{}"])) + "\n}"
    if DRAWS_OPEN not in text:
        return text
    head, rest = text.split(DRAWS_OPEN)
    body, tail = rest.split(DRAWS_CLOSE)
    entries = body.split(DRAW_SEP)
    runs = [j for j in range(1, len(entries)) if entries[j] == entries[j - 1]]
    j = draw(st.sampled_from(runs or range(len(entries))))
    entry = entries[j]
    if kind == "field":
        field = draw(st.sampled_from(["expr", "sigma", "log_post", "ties"]))
        value = draw(st.sampled_from(['"x"', "0.25", "-0.0", "1e400", "[]", "[1.5]"]))
        entry = re.sub(rf'(?<="{field}": )[^\n]*?(?=,\n|\Z)', lambda _: value, entry, count=1)
    elif kind == "zero":
        entry = ZERO.sub(lambda m: m[0][1:] if m[0][0] == "-" else "-" + m[0], entry, count=1)
    else:
        numbers = list(NUMBER.finditer(entry))
        if numbers:
            m = draw(st.sampled_from(numbers))
            entry = entry[:m.start()] + "true" + entry[m.end():]
    entries[j] = entry
    return head + DRAWS_OPEN + DRAW_SEP.join(entries) + DRAWS_CLOSE + tail


def _read_and_write(text):
    return posterior_to_json(posterior_from_json(text))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.one_of(posteriors().map(posterior_to_json), edited_posteriors()))
def test_the_reader_decodes_as_json_loads(text):
    assert _outcome(_load_posterior, text) == _outcome(json.loads, text)
    # and a valid document gives the posterior, or the error, its compact dump gives
    try:
        compact = json.dumps(json.loads(text))
    except ValueError:
        return
    assert _outcome(_read_and_write, text) == _outcome(_read_and_write, compact)


def _count_entry_decodes(monkeypatch) -> list:
    """Patch the reader's entry decoder to record where it starts each decode."""
    decoder, starts = treegress.inference._DECODER, []

    class Spy:
        def raw_decode(self, s, idx):
            starts.append(idx)
            return decoder.raw_decode(s, idx)

    monkeypatch.setattr(treegress.inference, "_DECODER", Spy())
    return starts


def test_the_reader_falls_back_on_edges_of_the_layout():
    d = Draw(SymbolicExpression(parse_tree("(* c# x)"), (1.5,)), 0.5, -1.0)
    text = posterior_to_json(Posterior((d, d), {}, McmcConfig()))
    start = text.index(DRAWS_OPEN)
    edges = {
        "no head": "{" + text[start:],  # "{," is not JSON
        "draws in the tail": text[:-2] + ',\n  "draws": null\n}',
        # valid JSON, but the first entry ends before the marker that follows it
        "two entries in one": text.replace(DRAW_SEP, "\n    }, {\n"),
        "one entry in two": text.replace('"theta_c": [', '"theta_c": [' + DRAW_SEP, 1),
        # an empty last entry: a separator that runs into the closing marker
        "empty last entry": text.replace(DRAWS_CLOSE, DRAW_SEP[:-1] + DRAWS_CLOSE),
        "a bad separator": text.replace(DRAW_SEP, "\n    };\n    {\n"),
        "an entry that extends the one before": posterior_to_json(
            Posterior((d, Draw(d.expr, d.sigma, -1.05)), {}, McmcConfig())),
        # not JSON; past the text of the entry before, an object starts 12 bytes on
        "an entry that extends the one before, unclosed":
            text.replace(DRAWS_CLOSE, ',\n     "x": {"y": 1' + DRAWS_CLOSE),
    }
    for name, edited in edges.items():
        assert _outcome(_load_posterior, edited) == _outcome(json.loads, edited), name


def test_the_reader_decodes_each_run_of_the_writer_once(monkeypatch):
    # a writer posterior of 4 runs; only a run decoded once is one object
    a, b, c = (Draw(SymbolicExpression(parse_tree("(* c# x)"), (v,)), 0.5, -1.0)
               for v in (1.0, 2.0, 3.0))
    post = Posterior((a, a, a, b, a, a, c, c, c), {}, McmcConfig())
    text = posterior_to_json(post)
    assert text.count(DRAWS_OPEN) == text.count(DRAWS_CLOSE) == 1
    assert text.count(DRAW_SEP) == len(post.draws) - 1

    decoded = _count_entry_decodes(monkeypatch)
    back = posterior_from_json(text)
    assert len(decoded) == 4
    assert [d is prev for prev, d in zip(back.draws, back.draws[1:])] == [
        True, True, False, False, True, False, True, True]
    assert posterior_to_json(back) == text
