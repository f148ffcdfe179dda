"""The test suite's oracles: one form of each concept the library implements,
written from its definition, for the tests to compare the library with.

Each section names its concept.  Where an oracle reads one of the library's
tables (the prior analysis's reach, an automaton's records), its docstring says
so; it never calls the code it checks.  An oracle is removed only when every
mutant of ``tests/mutants.json`` is still killed without it.
"""

import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from treegress.errors import DepthBudgetExhausted, InputError, PrteSyntaxError, SizeMismatch
from treegress.inference import Posterior, run_chain
from treegress.inference import expand_params as library_expand
from treegress.inference import shrink_params as library_shrink
from treegress.prte import RESAMPLE_RETRIES, PChoice, PConcat, PSymbol, PVar, prte_density
from treegress.trees import Tree, format_tree, parse_tree

# -- prior-sampler stream ----------------------------------------------------------------


def scope_targets(root) -> tuple:
    """(id(variable occurrence) -> the node it is bound to; every node of the
    expression), by a walk of its own."""
    targets, nodes, stack = {}, [], [(root, {})]
    while stack:
        node, scope = stack.pop()
        nodes.append(node)
        if isinstance(node, PVar):
            targets[id(node)] = scope[node.name]
        elif isinstance(node, PSymbol):
            stack += [(c, scope) for c in node.children]
        elif isinstance(node, PChoice):
            stack += [(b, scope) for _, b in node.branches]
        elif isinstance(node, PConcat):
            stack += [(node.right, scope), (node.left, {**scope, node.var: node.right})]
        else:
            stack.append((node.body, {**scope, node.var: node}))
    return targets, nodes


def step(node, targets):
    """Where a variable, concatenation or iteration goes on: the four-way step."""
    if isinstance(node, PVar):
        return targets[id(node)]
    if isinstance(node, PConcat):
        return node.left
    return node.body  # PIter


def site(node, targets):
    """The symbol or choice a node expands to, by the four-way step."""
    while not isinstance(node, (PSymbol, PChoice)):
        node = step(node, targets)
    return node


def pick_branch(choice, rng):
    """The branch whose running float sum of weights first passes one
    ``rng.random()``, or the last one."""
    r = rng.random()
    acc = 0.0
    for w, branch in choice.branches:
        acc += float(w)
        if r < acc:
            return branch
    return choice.branches[-1][1]


def draw(prior, targets, rng, nodes, depth):
    """One attempt at the trees of ``nodes`` at ``depth``, left to right, node by
    node: a choice takes ``pick_branch``, a variable, concatenation or iteration
    the four-way step, and a symbol past ``prior.max_depth`` ends the attempt.  It
    holds no tree, so a held tree must draw as if it were built."""
    out = []
    for node in nodes:
        while not isinstance(node, PSymbol):
            node = pick_branch(node, rng) if isinstance(node, PChoice) else step(node, targets)
        if depth > prior.max_depth:
            raise DepthBudgetExhausted(f"the drawn tree passed depth {prior.max_depth}")
        out.append(Tree(node.symbol, draw(prior, targets, rng, node.children, depth + 1)))
    return tuple(out)


def sample(prior, targets, rng):
    """``sample_tree``: ``draw`` from the root until an attempt fits."""
    for _ in range(RESAMPLE_RETRIES):
        try:
            return draw(prior, targets, rng, (prior.root,), 0)[0]
        except DepthBudgetExhausted:
            continue
    raise DepthBudgetExhausted(
        f"no sample within depth {prior.max_depth} after {RESAMPLE_RETRIES} tries")


class FixedRandom(np.random.Generator):
    """A generator whose ``random()`` returns one given value, so a test can steer a
    draw into any cell of the table it reads; ``choice`` draws through it too."""

    def __init__(self, r):
        super().__init__(np.random.PCG64(0))
        self.r = r

    def random(self, size=None, dtype=np.float64, out=None):
        return self.r if size is None else np.full(size, self.r)


# -- held trees -------------------------------------------------------------------------


def walked_entry(tree) -> tuple:
    """(tree, depth, nodes of rank above 0), from a full walk of the tree."""
    nodes = list(tree.walk())
    return tree, max(len(a) for a, _ in nodes), sum(n.symbol.rank > 0 for _, n in nodes)


def held(nodes, targets) -> dict:
    """id(node) -> ``walked_entry`` of the one tree of every node without a choice
    below it, by a fixpoint over the expression."""
    trees, changed = {}, True
    while changed:
        changed = False
        for n in nodes:
            if id(n) in trees or isinstance(n, PChoice):
                continue
            if isinstance(n, PSymbol):
                kids = [trees.get(id(c)) for c in n.children]
                tree = None if None in kids else Tree(n.symbol, tuple(kids))
            else:
                tree = trees.get(id(step(n, targets)))
            if tree is not None:
                trees[id(n)], changed = tree, True
    return {key: walked_entry(tree) for key, tree in trees.items()}


# -- regrow stream ----------------------------------------------------------------------


def grow(pta, rng, q, depth, max_depth):
    """``sample_from_state``'s one attempt from state ``q`` at ``depth``, one call per
    node, holding no tree: a leaf state emits its leaf with no draw, and an inner
    state takes the entry of the first running sum above one ``rng.random()``.  Reads
    the (symbol, running sums, child-state tuples) of ``pta.regrow``."""
    if depth > max_depth:
        raise DepthBudgetExhausted(f"the grown tree passed depth {max_depth}")
    symbol, cdf, kids = pta.regrow[q][:3]
    if symbol.rank == 0:
        return Tree(symbol)
    r = rng.random()
    i = next((i for i, acc in enumerate(cdf) if r < acc), len(cdf))
    if i == len(cdf):
        raise DepthBudgetExhausted(f"the grown tree drew missing row mass at state {q}")
    return Tree(symbol, tuple(grow(pta, rng, s, depth + 1, max_depth) for s in kids[i]))


# -- density ----------------------------------------------------------------------------


def density(prior, tree):
    """``prte_density`` keyed by tree address, each occurrence scored anew, as exact
    Fractions.  Reads the prior analysis's reach table and emitting sites."""
    graph = prior.graph
    zero = Fraction(0)
    by_symbol: dict = {}
    for s in graph.symbol_nodes:
        by_symbol.setdefault((s.symbol.name, s.symbol.rank), []).append(s)
    val: dict = {}
    order = sorted(tree.walk(), key=lambda item: len(item[0]), reverse=True)
    for addr, node in order:
        key = (node.symbol.name, node.symbol.rank)
        for s in by_symbol.get(key, ()):
            p = Fraction(1)
            for i in range(1, node.symbol.rank + 1):
                reach_i = graph.reach[id(s.children[i - 1])]
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
                val[(addr, id(s))] = p
    total = zero
    for sid, w in graph.reach[id(prior.root)].items():
        v = val.get(((), sid))
        if v is not None:
            total += w * v
    return total


# -- automaton score and context marginal -----------------------------------------------


def brute_force_eval(pta, tree, hole_state=None):
    """Sum over every state assignment: initial mass at the root, then per
    node the probability of its symbol's entry from the node's state into its
    children's states, () for a leaf, or 0 without one.  A '?' leaf is
    clamped to hole_state instead of reading an entry, so the vector over
    hole states is the unnormalised context marginal there."""
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


def tempered(marginal, tau):
    """One cut site's marginal tempered at ``tau`` on its own: (weights, cdf list).
    Zero-probability states stay excluded, and the cdf is normalised as
    ``Generator.choice`` normalises it."""
    support = marginal > 0
    logits = np.full(marginal.shape, -math.inf)
    logits[support] = np.log(marginal[support]) / tau
    logits -= logits[support].max()
    weights = np.exp(logits)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return weights, cdf.tolist()


# -- ties and tags ----------------------------------------------------------------------


def reference_ties(tree, prior):
    """(tie table, tags) by one recursive walk that keeps the ancestor path: a
    group's tag is that of its first marker."""
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


# -- marker prior density ---------------------------------------------------------------


def marker_logpdf(prior, x):
    """A marker prior's log density at x, its logarithms taken on every call."""
    if prior.kind == "exp":
        if x < 0:
            return -math.inf
        return math.log(prior.rate) - prior.rate * x
    z = (x - prior.mean) / prior.stddev
    return -0.5 * z * z - math.log(prior.stddev) - 0.5 * math.log(2 * math.pi)


# -- evaluation -------------------------------------------------------------------------


def reference_eval(expr, inputs):
    """Tree-walking evaluation with a full array at every node; the compiled
    evaluator must match it byte for byte."""
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


# -- dimension-jump maps ----------------------------------------------------------------

LOG_2PI = math.log(2 * math.pi)


def expand_params(theta, u):
    """The expansion map on numpy vectors."""
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    n, n_star = theta.size, u.size
    if n_star <= n:
        raise SizeMismatch(f"expansion needs a target larger than {n}, got {n_star}")
    u_theta, u_new = u[:n], u[n:]
    theta_star = np.concatenate([(theta + u_theta) / 2.0, u_new])
    u_star = (theta - u_theta) / 2.0
    return theta_star, u_star, -n * math.log(2.0)


def shrink_params(theta, u):
    """The shrinkage map on numpy vectors."""
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    n, n_star = theta.size, u.size
    if n_star > n:
        raise SizeMismatch(f"shrinkage target {n_star} exceeds current size {n}")
    head, tail = theta[:n_star], theta[n_star:]
    theta_star = head + u
    u_star = np.concatenate([head - u, tail])
    return theta_star, u_star, n_star * math.log(2.0)


def stdnorm_logpdf(u) -> float:
    """log N(u; 0, I) with u·u summed exactly, then rounded once.  Raises
    OverflowError when that sum passes float range."""
    return -0.5 * float(sum(Fraction(x * x) for x in u)) - 0.5 * len(u) * LOG_2PI


def theta_jump(theta_old, n_new: int, u):
    """The parameter jump ``_jump_to`` makes, given its auxiliaries u:
    (theta_new, u_star, log|det|, log p(u), log p(u_star))."""
    n_old = len(theta_old)
    if n_new == n_old:
        return np.asarray(theta_old, float), np.zeros(0), 0.0, 0.0, 0.0
    jump = expand_params if n_new > n_old else shrink_params
    theta_new, u_star, logdet = jump(theta_old, u)
    return theta_new, u_star, logdet, stdnorm_logpdf(u), stdnorm_logpdf(u_star)


def numeric_log_abs_det(fn, point, h=1e-5):
    """Central-difference Jacobian determinant of a flat map R^d -> R^d."""
    d = point.size
    jac = np.empty((d, d))
    for j in range(d):
        hi, lo = point.copy(), point.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (fn(hi) - fn(lo)) / (2 * h)
    return math.log(abs(np.linalg.det(jac)))


def jump_map(n, n_star):
    """The library's expansion or shrinkage from n to n_star parameters as one flat
    map of (theta, u), for ``numeric_log_abs_det``."""
    jump = library_expand if n_star > n else library_shrink
    return lambda x: np.concatenate(jump(x[:n], x[n:])[:2])


# -- posterior of a finite prior --------------------------------------------------------

# six trees of one input x, each a constant; the criterion-5 toy posterior
TOY_TEXT = "choice{ 3/10: 1, 1/4: 2, 3/20: 3, 3/20: +(1, 1), 1/10: +(2, 3), 1/20: *(2, 3) }"
TOY_VALUES = {"1": 1.0, "2": 2.0, "3": 3.0, "(+ 1 1)": 2.0, "(+ 2 3)": 5.0, "(* 2 3)": 6.0}


def toy_posterior(prior, y, sigma):
    """Tree text -> posterior probability of each toy tree given one observation y
    with noise sigma, by enumeration: prior density times Gaussian likelihood."""
    weights = {text: float(prte_density(prior, parse_tree(text, prior.alphabet)))
               * math.exp(-((y - value) ** 2) / (2 * sigma**2))
               for text, value in TOY_VALUES.items()}
    z = sum(weights.values())
    return {text: w / z for text, w in weights.items()}


# -- multi-chain merge ------------------------------------------------------------------


def merged_chains(prior, data, config, chains):
    """One ``run_chain`` per spawned seed, the draws concatenated in chain order and
    the stats summed."""
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(chains)]
    posts = [run_chain(prior, data, replace(config, seed=seed)) for seed in seeds]
    stats = {move: {key: sum(p.accept_stats[move][key] for p in posts) for key in counts}
             for move, counts in posts[0].accept_stats.items()}
    merged_config = replace(posts[0].config, seed=config.seed)
    return Posterior(tuple(d for p in posts for d in p.draws), stats, merged_config)


# -- predictive bands and report --------------------------------------------------------

BANDS = ("mean", "q05", "q50", "q95")


def bands(posterior, inputs, rng=None):
    """Every draw evaluated by ``reference_eval`` into a draws x points matrix, plus
    its own noise when ``rng`` is given, each point reduced by numpy over its finite
    values: {"mean", "q05", "q50", "q95", "dropped"}."""
    if not posterior.draws:
        raise InputError("posterior holds no draws")
    inputs = {k: np.asarray(v, dtype=float) for k, v in inputs.items()}
    memo: dict = {}
    values = np.array([memo.setdefault(id(d.expr), reference_eval(d.expr, inputs))
                       for d in posterior.draws])
    n = values.shape[1]
    if rng is not None:
        sigmas = np.array([d.sigma for d in posterior.draws])
        values = values + sigmas[:, None] * rng.standard_normal((sigmas.size, n))
    finite = np.isfinite(values)
    dropped = (~finite).sum(axis=0)
    mean = np.full(n, np.nan)
    quantiles = np.full((3, n), np.nan)
    whole = np.flatnonzero(dropped == 0)
    if whole.size:
        rows = values[:, whole].T.copy()
        mean[whole] = rows.mean(axis=1)
        quantiles[:, whole] = np.percentile(rows, [5.0, 50.0, 95.0], axis=1)
    for j in np.flatnonzero(dropped):
        col = values[finite[:, j], j]
        if col.size:
            mean[j] = col.mean()
            quantiles[:, j] = np.percentile(col, [5.0, 50.0, 95.0])
    return {"mean": mean, "q05": quantiles[0], "q50": quantiles[1], "q95": quantiles[2],
            "dropped": dropped}


def report(posterior, datasets, rng=None):
    """(metrics.csv, bands.csv) of ``report`` over the (name, Dataset) pairs: per
    dataset the mean and spread of the finite draws' RMSE, and ``bands`` row by row
    in the order of the first input."""
    metrics, lines, x_names = [], [], None
    for name, ds in datasets:
        inputs = ds.inputs()
        if x_names is None:
            x_names = list(inputs)
            lines.append(",".join(["dataset", *x_names, *BANDS, "flagged"]) + "\n")
        memo: dict = {}
        for d in posterior.draws:
            if id(d.expr) not in memo:
                p = reference_eval(d.expr, inputs)
                memo[id(d.expr)] = (float(np.sqrt(np.mean((p - ds.target) ** 2)))
                                    if np.isfinite(p).all() else math.nan)
        errors = np.array([memo[id(d.expr)] for d in posterior.draws])
        per_draw = errors[~np.isnan(errors)]
        mean, std = (np.mean(per_draw), np.std(per_draw)) if per_draw.size else (math.nan,) * 2
        metrics.append(f"{name},{float(mean)!r},{float(std)!r},"
                       f"{errors.size - per_draw.size}\n")
        out = bands(posterior, inputs, rng=rng)
        columns = [inputs[v] for v in x_names] + [out[q] for q in BANDS]
        for j in np.argsort(inputs[x_names[0]], kind="stable"):
            cells = ",".join(repr(float(c[j])) for c in columns)
            lines.append(f"{name},{cells},{int(out['dropped'][j] == len(posterior.draws))}\n")
    return "dataset,rmse_mean,rmse_std,dropped_draws\n" + "".join(metrics), "".join(lines)


# -- posterior bytes (until the writer is json.dumps itself) ----------------------------


def posterior_json(posterior) -> str:
    """The posterior file: the whole document through ``json.dumps(indent=2)``."""
    doc = {
        "config": asdict(posterior.config),
        "seed": posterior.config.seed,
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


# -- tokenizer --------------------------------------------------------------------------
# Character-by-character tokenizers, the specification of the lexical rules: the
# readers in ``treegress.prte`` and ``treegress.trees`` must split every text the
# same way, and fail on it with the same error, message, line and column.

_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?(/\d+)?")
_VAR_RE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = "(){},:."


@dataclass(frozen=True)
class OracleToken:
    kind: str
    text: str
    line: int
    col: int


def oracle_tokenize(text: str):
    """The tokens of a prior text."""
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
            tokens.append(OracleToken(ch, ch, line, col))
            col += 1
            i += 1
            continue
        m = _VAR_RE.match(text, i)
        if m:
            tokens.append(OracleToken("var", m.group()[1:], line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (m.end() >= n or text[m.end()].isspace() or text[m.end()] in _PUNCT):
            tokens.append(OracleToken("num", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT and text[j] != "$":
            j += 1
        if j == i:
            raise PrteSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(OracleToken("name", text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(OracleToken("eof", "", line, col))
    return tokens


def oracle_tokenize_sexpr(text: str):
    """The tokens of a tree text."""
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
