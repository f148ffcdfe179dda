"""Reversible-jump Metropolis-Hastings over symbolic expressions.

The chain state is (expression, noise scale); moves are
    * global: redraw the whole tree from the prior,
    * local: cut a uniformly chosen subtree, sample the automaton state at
      the cut from a tempered context marginal, regrow from that state,
    * params: joint Gaussian random walk on the continuous parameters,
    * sigma: Gaussian random walk on log(noise scale).

Dimension changes are made reversible by pairing the parameter vectors with
standard-normal auxiliaries through the expansion/shrinkage maps below; their
Jacobian determinants are analytic (2^-n for expansion to any size, 2^k for
shrinkage onto k entries).

Convention for the returned proposal terms: ``log_fwd`` is the forward
proposal log-density plus the auxiliary log-density minus the log-determinant
of the forward map, ``log_rev`` the reverse proposal plus reverse-auxiliary
log-density; the acceptance log-ratio is then (posterior delta) + log_rev -
log_fwd.  Normalization constants of the tree series cancel throughout.

A global or local proposal that rebuilds the current expression is the
current state: it is returned as is, with the proposal terms the full path
would give, and is neither evaluated nor scored again.

A proposal whose parameter prior is zero is scored without evaluating the
data, with log-likelihood -inf; the chain still draws its uniform and rejects it.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    DepthBudgetExhausted,
    ImpossibleContext,
    InputError,
    LengthMismatch,
    RuntimeFailure,
    SizeMismatch,
    json_object,
)
from .prte import PriorSpec, compute_ties, sample_expression, sample_tree
# group_tags stays bound: bench/spans.py wraps it here; ROADMAP item 5 deletes it
from .prte import group_tags  # noqa: F401
# pta_eval stays bound: bench/spans.py wraps it here
from .pta import Pta, compile_prior, context_marginal, inside, pta_eval  # noqa: F401
from .pta import sample_from_state
# disc_positions stays bound: bench/spans.py wraps it here
from .trees import disc_positions  # noqa: F401
# format_tree stays bound: bench/spans.py wraps it here
from .trees import format_tree  # noqa: F401
from .trees import SymbolicExpression, Tree, eval_expression, input_columns, parse_tree, run_program

LOG_2PI = math.log(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * LOG_2PI
# a log sigma beyond this in size takes the likelihood's sigma**2 out of float range
_MAX_LOG_SIGMA = 0.5 * math.log(sys.float_info.max)
_MIN_TAU = 745 / sys.float_info.max  # log m >= -744.5 for m > 0, so from here up log(m)/tau is finite
_CACHE_CAP = 200_000

MOVES = ("global", "local", "params", "sigma")


def _sigma_in_range(sigma) -> bool:  # the likelihood's sigma**2 and its log are in float range
    return sigma > 0 and abs(math.log(sigma)) <= _MAX_LOG_SIGMA


# each field of McmcConfig: the Python types it takes (a JSON true is a bool, not 1, and
# a float must be finite), the test a value other than None passes, that rule in words
_INT, _REAL, _OPTIONAL = (numbers.Integral,), (numbers.Real,), (type(None),)
_NON_NEGATIVE, _POSITIVE = (lambda v: v >= 0, "non-negative"), (lambda v: v > 0, "positive")
_FIELD_RULES = {
    "burn_in": (_INT, *_NON_NEGATIVE), "samples": (_INT, *_POSITIVE),
    "thin": (_INT, *_POSITIVE), "seed": (_INT, *_NON_NEGATIVE),
    "lambda_sigma": (_REAL, *_POSITIVE), "prior_only": ((bool,), lambda v: True, None),
    "tau": (_REAL, lambda v: v >= _MIN_TAU, f"at least {_MIN_TAU!r}"),
    **dict.fromkeys(("step_sigma", "step_theta", "p_global", "p_local", "p_param", "p_sigma"),
                    (_REAL, *_NON_NEGATIVE)),
    "max_depth": (_INT + _OPTIONAL, *_POSITIVE), "state_budget": (_INT, *_POSITIVE),
    "sigma0": (_REAL + _OPTIONAL, _sigma_in_range,
               f"positive with |log sigma0| <= {_MAX_LOG_SIGMA:.1f}"),
}
# a posterior draw's only keys and the JSON types of their values (a number is an int or a float)
_DRAW_KEYS = ("expr", "theta_c", "theta_d", "ties", "sigma", "log_post")
_DRAW_TYPES = {(str, list, list, list, s, p) for s in (int, float) for p in (int, float)}
# a posterior's keys, all required
_POSTERIOR_KEYS = {"config": (dict,), "seed": (int,), "draws": (list,), "accept_stats": (dict,)}


@dataclass(frozen=True)
class McmcConfig:
    burn_in: int = 2000
    samples: int = 1000
    thin: int = 10
    seed: int = 0
    lambda_sigma: float = 1.0
    tau: float = 1.0
    step_sigma: float = 0.4
    step_theta: float = 0.5
    p_global: float = 0.2
    p_local: float = 0.4
    p_param: float = 0.3
    p_sigma: float = 0.1
    max_depth: int | None = None  # None: the prior's max_depth
    state_budget: int = 10_000
    sigma0: float | None = None
    prior_only: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, passes, rule = _FIELD_RULES[f.name]
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                rule = f.type
            elif isinstance(value, float) and not math.isfinite(value):  # JSON admits NaN
                rule = "finite"
            elif value is None or passes(value):
                continue
            raise InputError(f"config field {f.name} must be {rule}, got {value!r}")
        if self.samples % self.thin:
            raise InputError("samples must be divisible by thin")
        mix = sum(self.move_mix().values())
        if abs(mix - 1.0) > 1e-12:
            raise InputError(f"move mix sums to {mix!r}, expected 1")

    def move_mix(self):
        return dict(zip(MOVES, (self.p_global, self.p_local, self.p_param, self.p_sigma)))


# the keys of a config object in a JSON input, with any value: McmcConfig checks its fields
CONFIG_KEYS = dict.fromkeys(McmcConfig.__dataclass_fields__)


class ChainState:
    """A state of the chain and its score terms; ``log_posterior``, their sum, is added once."""

    __slots__ = ("expr", "sigma", "log_lik", "log_prior_tree", "log_prior_params",
                 "log_prior_sigma", "sse", "log_posterior")

    def __init__(self, expr, sigma, log_lik, log_prior_tree, log_prior_params, log_prior_sigma, sse):
        self.expr, self.sigma, self.log_lik, self.sse = expr, sigma, log_lik, sse
        self.log_prior_tree, self.log_prior_params = log_prior_tree, log_prior_params
        self.log_prior_sigma = log_prior_sigma
        self.log_posterior = log_lik + log_prior_tree + log_prior_params + log_prior_sigma


@dataclass(frozen=True)
class Draw:
    expr: SymbolicExpression
    sigma: float
    log_post: float


def eval_key(expr: SymbolicExpression) -> tuple:
    """Draws with equal keys evaluate to the same bytes.  Parameters are keyed
    by their hex form, which keeps -0.0 apart from 0.0."""
    return expr.tree, expr.ties, expr.theta_d, tuple(v.hex() for v in expr.theta_c)


@dataclass(frozen=True)
class Posterior:
    draws: tuple
    accept_stats: dict
    config: McmcConfig

    @cached_property
    def distinct(self) -> tuple:
        """(the draws' distinct expressions by ``eval_key``, in order of first
        appearance; each draw's index into them).  A summary evaluates each
        distinct expression once and gathers per-draw results by index."""
        first: dict = {}  # eval_key -> (index, expression)
        index, prev = [], None
        for d in self.draws:  # a repeated draw object keeps the index of the draw before it
            if d is not prev:
                i, prev = first.setdefault(eval_key(d.expr), (len(first), d.expr))[0], d
            index.append(i)
        return tuple(expr for _, expr in first.values()), np.array(index, dtype=np.intp)

    @cached_property
    def texts(self) -> dict:
        """Each distinct tree of the draws, in order of first appearance -> its
        ``format_tree`` text.  A memo local to this call formats each distinct node once,
        children first, without recursion."""
        trees = dict.fromkeys(d.expr.tree for d in self.draws)
        memo: dict = {}
        stack = list(trees)
        while stack:
            node = stack.pop()
            if node in memo:
                continue
            texts = [memo.get(child) for child in node.children]
            if None in texts:  # a child has no text yet: the children first, then the node again
                stack.append(node)
                stack += node.children
            else:
                memo[node] = f"({node.symbol.name} {' '.join(texts)})" if texts else node.symbol.name
        return {tree: memo[tree] for tree in trees}


# -- likelihood -------------------------------------------------------------------


def _sum_squared_error(expr: SymbolicExpression, columns, n: int, y) -> float:
    """The residuals' sum of squares, evaluated as ``run_program`` evaluates: on checked
    columns, under the caller's error state (``run_chains`` enters it once per run)."""
    sse = float(np.add.reduce((y - run_program(expr, columns, n)) ** 2))
    return sse if math.isfinite(sse) else math.inf  # a non-finite prediction sums to inf or nan


def _log(p) -> float:
    """log p, or -inf for a zero probability."""
    return math.log(p) if p > 0 else -math.inf


def _log_lik_from_sse(sse: float, sigma: float, n: int) -> float:
    return -0.5 * n * LOG_2PI - n * math.log(sigma) - sse / (2.0 * sigma * sigma)


# -- dimension-matching maps ----------------------------------------------------------


def expand_params(theta, u):
    """Grow the float sequence theta to len(u) entries: the first len(theta)
    mix old values with auxiliaries, the rest are fresh.  Returns tuples of
    floats (theta_star, u_star) and log|det| = -len(theta)*log(2)."""
    n, n_star = len(theta), len(u)
    if n_star <= n:
        raise SizeMismatch(f"expansion needs a target larger than {n}, got {n_star}")
    theta_star = (*[(t + v) / 2.0 for t, v in zip(theta, u)], *u[n:])
    return theta_star, tuple([(t - v) / 2.0 for t, v in zip(theta, u)]), -n * math.log(2.0)


def shrink_params(theta, u):
    """Shrink the float sequence theta onto len(u) entries, theta[:len(u)] + u;
    the auxiliaries remember what it takes to undo the move.  Returns tuples
    of floats (theta_star, u_star) and log|det| = +len(u)*log(2)."""
    n, n_star = len(theta), len(u)
    if n_star > n:
        raise SizeMismatch(f"shrinkage target {n_star} exceeds current size {n}")
    u_star = (*[t - v for t, v in zip(theta, u)], *theta[n_star:])
    return tuple([t + v for t, v in zip(theta, u)]), u_star, n_star * math.log(2.0)


def _stdnorm_logpdf(u) -> float:
    """log N(u; 0, I) for floats.  u·u is ``math.fsum``'s exactly rounded sum; one past
    float range is inf, so a jump with such auxiliaries scores -inf and is rejected."""
    try:
        total = math.fsum([x * x for x in u])
    except OverflowError:  # finite squares whose exact sum passes float range
        total = math.inf
    return -0.5 * total - 0.5 * len(u) * LOG_2PI


def _disc_jump(theta_d_old, n_new: int, support, rng):
    """Match the discrete parameter vector to the new marker count: survivors
    keep values by rank, additions draw uniformly from the support.  Returns
    (theta_d_new, log_fwd, log_rev)."""
    old = tuple(theta_d_old)
    n_old = len(old)
    if n_new == n_old:
        return old, 0.0, 0.0
    log_s = math.log(len(support)) if support else 0.0
    if n_new > n_old:
        extra = tuple(
            support[int(rng.integers(len(support)))] for _ in range(n_new - n_old)
        )
        return old + extra, -(n_new - n_old) * log_s, 0.0
    return old[:n_new], 0.0, -(n_old - n_new) * log_s


# -- state construction -----------------------------------------------------------------


def _bounded(cache: dict) -> dict:
    """The cache, emptied first if it has outgrown _CACHE_CAP."""
    if len(cache) > _CACHE_CAP:
        cache.clear()
    return cache


class _ChainContext:
    """Everything a move needs: prior, automaton, data, config, caches.  The
    data are checked once, here: ``inputs`` and ``n`` are what ``input_columns``
    returns, ``y`` is 1-D and as long as the columns, and unless the chain is
    prior-only, ``y`` has rows and the columns are the prior's variables.  The
    caches but ``tempered`` key trees by identity: equal trees are one object, so
    a redrawn tree finds the entries of the tree the chain already holds, and a
    key holds its tree alive.  ``tempered`` keys a context marginal's bytes, so
    cut sites with equal marginals share one read-only weights array.  A cache is
    emptied past _CACHE_CAP, which costs speed only."""

    def __init__(self, prior: PriorSpec, pta: Pta, data, config: McmcConfig):
        self.prior = prior
        self.pta = pta
        self.config = config
        if hasattr(data, "target"):  # a Dataset
            data = data.inputs(), data.target
        inputs, y = ({}, ()) if data is None else data
        self.inputs, self.n = input_columns(inputs)
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or (self.inputs and self.y.size != self.n):
            raise LengthMismatch(f"target of shape {self.y.shape} for columns of length {self.n}")
        if data is not None and not config.prior_only:
            if self.y.size == 0:
                raise InputError("the training data has no rows")
            if set(self.inputs) != set(prior.variables):
                raise InputError(f"data columns {sorted(self.inputs)} do not match prior "
                                 f"variables {sorted(prior.variables)}")
        self.inside_memo: dict = {}  # subtree -> inside vector
        self.marginal_cache: dict = {}  # (tree, node index) -> the cut site's record
        self.tempered: dict = {}  # a context marginal's bytes -> (its weights, their cdf)
        self.tie_table: dict = {}  # tree -> (its ties, its groups' marker-prior constants)
        self.cumulative = tuple(accumulate(config.move_mix().values()))  # added in MOVES order

    def ties(self, tree: Tree) -> tuple:
        """(the tree's tie table, the ``MarkerPrior.constants`` of each group's prior in
        slot order), from one ``compute_ties`` walk per distinct tree with markers;
        ((), ()) without one."""
        if not tree.n_const:
            return (), ()
        known = self.tie_table.get(tree)
        if known is None:
            ties, tags = compute_ties(tree, self.prior)
            consts = tuple(self.prior.markers[tag].constants for tag in tags)
            known = _bounded(self.tie_table)[tree] = ties, consts
        return known

    def inside(self, tree: Tree) -> np.ndarray:
        """Inside vector of the tree through the chain's memo (emptied past
        _CACHE_CAP).  A proposal from ``replace_at`` shares every off-path
        subtree with its origin, so only the nodes on the new path are scored."""
        return inside(self.pta, tree, _bounded(self.inside_memo))

    def log_prior_tree(self, tree: Tree) -> float:
        return _log(self.pta.initial @ self.inside(tree))

    def boltzmann_marginal(self, tree: Tree, n: int) -> tuple:
        """The record of the cut site at node ``n`` of ``tree`` in ``walk`` order:
        (tempered distribution of the state there given the rest of the tree, its
        cumulative sum normalised as ``Generator.choice`` normalises it, as a list,
        the log probability that the distribution regrows the subtree already there,
        the site's address, the subtree there).  The distribution and its cdf are
        tempered once per distinct marginal.  Zero-probability states stay
        excluded for any temperature.  ``bisect_right`` on the cdf picks the state
        ``rng.choice`` would."""
        key = (tree, n)
        cached = self.marginal_cache.get(key)
        if cached is None:
            addr, node = tree.nth(n)
            marginal = context_marginal(self.pta, tree, addr, self.inside_memo)
            tempered = self.tempered.get(marginal.tobytes())
            if tempered is None:
                support = marginal > 0
                logits = np.full(marginal.shape, -math.inf)
                logits[support] = np.log(marginal[support]) / self.config.tau
                logits -= logits[support].max()
                weights = np.exp(logits)
                weights /= weights.sum()
                cdf = weights.cumsum()
                cdf /= cdf[-1]
                weights.flags.writeable = False  # shared by every site with this marginal
                tempered = _bounded(self.tempered)[marginal.tobytes()] = weights, cdf.tolist()
            weights, cdf = tempered
            regrow = _log(weights @ self.inside(node))
            cached = _bounded(self.marginal_cache)[key] = weights, cdf, regrow, addr, node
        return cached

    def log_prior_params(self, expr: SymbolicExpression) -> float:
        """The marker priors' log density at theta_c, term by term in the order of
        the formula, plus the uniform discrete priors' log mass."""
        total = 0.0  # the cached constants fit expr.ties: both come from one compute_ties walk
        for (exp, rate, mean, stddev, log_scale), x in zip(self.ties(expr.tree)[1], expr.theta_c):
            if exp:
                if x < 0:  # the sum is -inf: for a finite theta, as the chain's, no term is +inf
                    return -math.inf
                total += log_scale - rate * x
            else:
                z = (x - mean) / stddev
                total += -0.5 * z * z - log_scale - _HALF_LOG_2PI
        if expr.theta_d:
            total -= len(expr.theta_d) * math.log(len(self.prior.theta_d_support))
        return total

    def log_prior_sigma(self, sigma: float) -> float:
        # exponential density expressed on the log scale the walk lives on
        lam = self.config.lambda_sigma
        return math.log(lam) - lam * sigma + math.log(sigma)

    def make_state(self, expr: SymbolicExpression, sigma: float, log_tree=None) -> ChainState:
        log_params = self.log_prior_params(expr)
        if self.config.prior_only or self.y.size == 0:
            sse, ll = 0.0, 0.0
        elif log_params == -math.inf:  # rejected whatever the data say, so not evaluated
            sse, ll = math.inf, -math.inf
        else:
            sse = _sum_squared_error(expr, self.inputs, self.n, self.y)
            ll = _log_lik_from_sse(sse, sigma, self.y.size)
        return ChainState(
            expr=expr,
            sigma=sigma,
            log_lik=ll,
            log_prior_tree=self.log_prior_tree(expr.tree) if log_tree is None else log_tree,
            log_prior_params=log_params,
            log_prior_sigma=self.log_prior_sigma(sigma),
            sse=sse,
        )

    def restate_sigma(self, state: ChainState, sigma: float) -> ChainState:
        if self.config.prior_only or self.y.size == 0:
            ll = 0.0
        else:
            ll = _log_lik_from_sse(state.sse, sigma, self.y.size)
        return ChainState(state.expr, sigma, ll, state.log_prior_tree, state.log_prior_params,
                          self.log_prior_sigma(sigma), state.sse)


# -- proposals ------------------------------------------------------------------------


def _chain_expr(tree, theta_c, theta_d, ties) -> SymbolicExpression:
    """A SymbolicExpression built without its checks: a proposal's ties come from
    ``compute_ties`` and its parameters are finite floats, as many as its groups."""
    expr = object.__new__(SymbolicExpression)
    expr.__dict__.update(tree=tree, theta_c=theta_c, theta_d=theta_d, ties=ties)
    return expr


def _jump_to(state, ctx, tree, ties, rng, log_fwd, log_rev, log_tree=None):
    """The proposal on ``tree`` with the state's parameters dimension-matched
    to it, and the move's ``log_fwd``/``log_rev`` plus the jump terms."""
    theta = state.expr.theta_c
    n_new = (max(ties) + 1) if ties else 0
    logdet = log_pu = log_pu_rev = 0.0  # a jump that keeps the count draws nothing
    if n_new != len(theta):  # expand or shrink with standard-normal auxiliaries u
        u = rng.standard_normal(n_new).tolist()
        jump = expand_params if n_new > len(theta) else shrink_params
        theta, u_star, logdet = jump(theta, u)
        log_pu, log_pu_rev = _stdnorm_logpdf(u), _stdnorm_logpdf(u_star)
    theta_d_new, disc_fwd, disc_rev = _disc_jump(
        state.expr.theta_d, tree.n_disc, ctx.prior.theta_d_support, rng
    )
    proposal = ctx.make_state(_chain_expr(tree, theta, theta_d_new, ties), state.sigma, log_tree)
    return proposal, log_fwd + log_pu + disc_fwd - logdet, log_rev + log_pu_rev + disc_rev


def propose_global(state: ChainState, ctx: _ChainContext, rng):
    """Independence proposal from the prior; parameters are dimension-matched
    through the expansion/shrinkage maps with standard-normal auxiliaries."""
    tree = sample_tree(ctx.prior, rng)
    if tree is state.expr.tree:  # the current expression: the jumps draw nothing, add 0.0
        return state, state.log_prior_tree, state.log_prior_tree
    ties, _ = ctx.ties(tree)
    log_tree = ctx.log_prior_tree(tree)
    return _jump_to(state, ctx, tree, ties, rng, log_tree, state.log_prior_tree, log_tree)


def propose_local(state: ChainState, ctx: _ChainContext, rng):
    """Cut a uniformly chosen subtree, draw the automaton state at the cut
    from the tempered context marginal, regrow from that state within the
    depth left at the cut.  An impossible context raises ImpossibleContext
    and a regrow past that depth DepthBudgetExhausted; the chain counts
    either as an aborted move."""
    tree = state.expr.tree
    n_nodes = tree.size
    boltzmann, cdf, log_rev_regrow, addr, old_sub = ctx.boltzmann_marginal(
        tree, int(rng.integers(n_nodes)))
    new_sub = sample_from_state(ctx.pta, bisect_right(cdf, rng.random()), rng,
                                ctx.prior.max_depth - len(addr))
    if new_sub is old_sub:  # the current expression: the jumps draw nothing, add 0.0
        log_regrow = -math.log(n_nodes) + log_rev_regrow
        return state, log_regrow, log_regrow
    new_tree = tree.replace_at(addr, new_sub)
    ties, _ = ctx.ties(new_tree)
    log_fwd = -math.log(n_nodes) + _log(boltzmann @ ctx.inside(new_sub))
    log_rev = -math.log(new_tree.size) + log_rev_regrow
    return _jump_to(state, ctx, new_tree, ties, rng, log_fwd, log_rev)


_STEP_MULTIPLIERS = (0.1, 1.0, 10.0)


def propose_params(state: ChainState, ctx: _ChainContext, rng):
    """Joint Gaussian random walk on the continuous parameters.  The step
    scale is multiplied by a symmetric random factor so that parameters of
    very different magnitudes all mix; the proposal stays symmetric."""
    expr = state.expr
    theta = expr.theta_c  # Python floats, whose overflow gives inf without a warning
    if not theta:
        return state, 0.0, 0.0
    mult = _STEP_MULTIPLIERS[int(rng.integers(len(_STEP_MULTIPLIERS)))]
    step = ctx.config.step_theta * mult
    theta_new = [t + step * z for t, z in zip(theta, rng.standard_normal(len(theta)).tolist())]
    if not all(map(math.isfinite, theta_new)):  # an overflowing step aborts the move
        return None
    proposal = ctx.make_state(_chain_expr(expr.tree, tuple(theta_new), expr.theta_d, expr.ties),
                              state.sigma, state.log_prior_tree)
    return proposal, 0.0, 0.0


def propose_sigma(state: ChainState, ctx: _ChainContext, rng):
    """Gaussian random walk on log(sigma); the exponential prior is evaluated
    on the log scale so the walk is symmetric and sigma stays positive."""
    s_new = math.log(state.sigma) + ctx.config.step_sigma * float(rng.standard_normal())
    if abs(s_new) > _MAX_LOG_SIGMA:  # a step out of float range aborts the move
        return None
    return ctx.restate_sigma(state, math.exp(s_new)), 0.0, 0.0


_PROPOSERS = {
    "global": propose_global,
    "local": propose_local,
    "params": propose_params,
    "sigma": propose_sigma,
}


# -- the chain -------------------------------------------------------------------------


def _step(state: ChainState, ctx: _ChainContext, rng, stats) -> ChainState:
    """The next state after one move, counted in ``stats``.  A proposer that
    returns None or raises DepthBudgetExhausted or ImpossibleContext aborts
    the move: a rejection.  The uniform is drawn only when log_alpha < 0."""
    move = MOVES[min(bisect_right(ctx.cumulative, rng.random()), len(MOVES) - 1)]
    counts = stats[move]
    counts["proposed"] += 1
    try:
        out = _PROPOSERS[move](state, ctx, rng)
    except (DepthBudgetExhausted, ImpossibleContext):
        out = None
    if out is None:
        counts["aborted"] += 1
        return state
    proposal, log_fwd, log_rev = out
    log_alpha = proposal.log_posterior - state.log_posterior + log_rev - log_fwd
    if log_alpha >= 0 or math.log(max(rng.random(), 1e-300)) < log_alpha:
        counts["accepted"] += 1
        return proposal
    return state


def _initial_state(ctx: _ChainContext, rng) -> ChainState:
    """Prior-consistent start: expression and parameters from the prior,
    sigma from its exponential prior unless pinned.  Redraw the expression
    when it cannot evaluate on the data (infinite negative likelihood would
    wedge the chain)."""
    sigma = ctx.config.sigma0
    if sigma is None:  # a draw meets the range a pinned sigma0 meets
        sigma = float(rng.exponential(1.0 / ctx.config.lambda_sigma))
        if not _sigma_in_range(sigma):
            raise InputError(f"lambda_sigma drew sigma {sigma!r}, out of float range: pin sigma0")
    for _ in range(1000):
        state = ctx.make_state(sample_expression(ctx.prior, rng), sigma)
        if math.isfinite(state.log_lik):
            return state
    raise RuntimeFailure("no prior draw evaluates finitely on the data")


def run_chains(prior: PriorSpec, data, config: McmcConfig, chains: int = 1) -> Posterior:
    """Independent chains, each seeded from the master seed (one chain: the seed itself)
    and merged in chain order.  A chain burns in, then records every thin-th state of
    the next `samples` steps.  The depth is the config's ``max_depth``, or the prior's
    when that is None; the returned config records it.  The prior is compiled, the data
    checked and ``np.errstate(all="ignore")`` entered once; all chains share one context,
    whose caches hold pure functions of interned trees.  Aborted moves count as
    rejections, so the kernel is total; a proposal deeper than max_depth lies outside the
    support of the depth-truncated target.  A RuntimeFailure from ``compile_prior`` or a
    chain carries ``exc.posterior``: the draws so far, no move counts, the config it ran."""
    if not 1 <= chains <= sys.maxsize:  # SeedSequence.spawn takes at most sys.maxsize
        raise InputError(f"chains must be at least 1 and at most {sys.maxsize}, got {chains}")
    if config.max_depth is None:
        config = replace(config, max_depth=prior.max_depth)
    elif prior.max_depth != config.max_depth:
        prior = replace(prior, max_depth=config.max_depth)
    seeds = [config.seed] if chains == 1 else [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(chains)]
    stats = {move: {"proposed": 0, "accepted": 0, "aborted": 0} for move in MOVES}
    draws = []
    try:
        ctx = _ChainContext(prior, compile_prior(prior, config.state_budget), data, config)
        with np.errstate(all="ignore"):  # a non-finite prediction scores -inf; it does not warn
            for seed in seeds:
                rng = np.random.default_rng(seed)
                state, last = _initial_state(ctx, rng), None  # last: the state last recorded
                for k in range(-config.burn_in, config.samples):
                    state = _step(state, ctx, rng, stats)
                    if k >= 0 and (k + 1) % config.thin == 0:
                        if state is not last:  # a run of one state is one Draw, appended again
                            draw, last = Draw(state.expr, state.sigma, state.log_posterior), state
                        draws.append(draw)
    except RuntimeFailure as exc:
        exc.posterior = Posterior(tuple(draws), {}, config)
        raise
    return Posterior(tuple(draws), stats, config)


run_chain = run_chains  # the one-chain name of README's sketch, the tests and the benchmark


# -- posterior summaries ------------------------------------------------------------------


_BAND_BLOCK = 256  # points per block of expanded rows in posterior_predict
_PERCENTS = [5.0, 50.0, 95.0]
_QUANTILES = np.true_divide(_PERCENTS, 100)  # q as np.percentile reads it


def posterior_predict(posterior: Posterior, inputs, rng=None):
    """Pointwise predictive mean and 5/50/95% quantiles over the draws, the bits of
    ``np.mean`` and ``np.percentile`` of each point's draws.  Passing an rng adds
    observation noise (one sigma-scaled draw per posterior sample), giving
    aleatoric-plus-epistemic bands; without it the bands are epistemic only.  Draws
    that evaluate non-finite at a point are dropped there and counted; a point with no
    finite draw yields a NaN row whose count is the number of draws.  Each distinct
    expression is evaluated once; ``columns`` holds those noise-free values, a column
    each.  Quantiles are read from a point's distinct values and draw counts, except at
    a point with a dropped draw or with both 0.0 and -0.0, or when the distinct columns
    are a quarter of the draws or more (as with noise, a column a draw)."""
    if not posterior.draws:
        raise InputError("posterior holds no draws")
    exprs, index = posterior.distinct
    # one row per point, one column per distinct expression; C order, as the row reductions assume
    columns = values = np.column_stack([eval_expression(e, inputs) for e in exprs])
    n = values.shape[0]
    if rng is not None:  # one noise vector per draw, drawn in draw order: each draw is a column
        sigmas = np.array([d.sigma for d in posterior.draws])
        values = np.take(columns, index, axis=1)
        values += sigmas * rng.standard_normal((sigmas.size, n)).T
        index = np.arange(sigmas.size)
    counts = np.bincount(index)
    finite = np.isfinite(values)
    shared = counts.size < index.size  # else a column a draw, in first-appearance (draw) order
    # the unweighted count spares a noisy report's bands an integer matmul, about 6% of their time
    dropped = ~finite @ counts if shared else (~finite).sum(axis=1)
    # Quantiles read from a point's sorted distinct values and counts cost what numpy's
    # partition of all its draws does at about a quarter as many columns as draws.
    # numpy's partition orders 0.0 and -0.0 as it likes: a point holding both stays on it.
    counted = np.zeros(n, dtype=bool)
    if 4 * counts.size < index.size:
        zero, sign = values == 0, np.signbit(values)
        counted = ~((zero & sign).any(axis=1) & (zero & ~sign).any(axis=1))
    mean = np.full(n, np.nan)
    quantiles = np.full((3, n), np.nan)
    # Points where every draw is finite, a block at a time: the mean reduces each
    # expanded row as np.mean of that point alone does.
    whole = np.flatnonzero(dropped == 0)
    for start in range(0, whole.size, _BAND_BLOCK):
        idx = whole[start:start + _BAND_BLOCK]
        rows = np.take(values[idx], index, axis=1) if shared else values[idx]
        mean[idx] = rows.mean(axis=1)
        c = counted[idx]
        if c.any():
            quantiles[:, idx[c]] = _counted_percentiles(values[idx[c]], counts)
            rows, idx = rows[~c], idx[~c]
        quantiles[:, idx] = np.percentile(rows, _PERCENTS, axis=1)
    for j in np.flatnonzero(dropped):
        row = values[j, index][finite[j, index]]
        if row.size:
            mean[j] = row.mean()
            quantiles[:, j] = np.percentile(row, _PERCENTS)
    return {"mean": mean, "q05": quantiles[0], "q50": quantiles[1], "q95": quantiles[2],
            "dropped": dropped, "columns": columns}


def _counted_percentiles(values, counts):
    """np.percentile(q=[5, 50, 95], axis=1) of ``values`` with column i repeated
    counts[i] times: numpy's linear method (Hyndman & Fan type 7) at numpy's
    indexes, with numpy's ``_lerp``, read from each row's sorted distinct values."""
    draws = counts.sum()
    virtual = (draws - 1) * _QUANTILES
    prev = np.floor(virtual)  # 2 draws or more: virtual < draws - 1, so numpy's clip never applies
    at = np.concatenate([prev, prev + 1])  # both neighbours of each quantile
    order = np.argsort(values, axis=1)
    filled = np.cumsum(counts[order], axis=1)  # draws up to each sorted value
    # the sorted value that holds each position, found by one search over all
    # rows: each row's running counts are lifted past those of the rows before
    lift = np.arange(len(values))[:, None]
    k = np.searchsorted((filled + lift * draws).ravel(), at + lift * draws,
                        side="right") - lift * counts.size
    # ties are equal values or zeros of one sign, so any order among them reads the same bits
    a, b = np.take_along_axis(values, np.take_along_axis(order, k, axis=1),
                              axis=1).T.reshape(2, 3, -1)
    t = (virtual - prev)[:, None]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


# -- serialization ------------------------------------------------------------------------


# the writer's layout around and between the entries of the draws list; no JSON string
# holds a raw newline, so in any document these can only sit between values
_DRAWS_OPEN = ',\n  "draws": [\n    {\n'
_DRAW_SEP = '\n    },\n    {\n'
_DRAWS_CLOSE = '\n    }\n  ],\n  "accept_stats": '
_DECODER = json.JSONDecoder()


def posterior_to_json(posterior: Posterior) -> str:
    """The bytes of ``json.dumps(doc, indent=2)`` for the posterior's document.  Each
    draw object is encoded once, and a draw that is the draw before it (``d is prev``,
    a run of one state) reuses that text.  A draw is laid out by hand, every scalar
    as json's own encoder writes it: NaN, Infinity, -0.0, ints and escapes."""
    # the document's head and tail, each dumped alone: the head's closing "\n}" is
    # cut, and every line of the tail is indented one level, as a value in the document
    head = json.dumps({"config": asdict(posterior.config), "seed": posterior.config.seed}, indent=2)
    stats = json.dumps(posterior.accept_stats, indent=2).replace("\n", "\n  ")
    entries, prev = [], None
    for d in posterior.draws:
        if d is not prev:
            entry, prev = _draw_json(d, posterior.texts[d.expr.tree]), d
        entries.append(entry)
    if not entries:
        return f'{head[:-2]},\n  "draws": [],\n  "accept_stats": {stats}\n}}'
    return f"{head[:-2]}{_DRAWS_OPEN}{_DRAW_SEP.join(entries)}{_DRAWS_CLOSE}{stats}\n}}"


def _draw_json(d: Draw, text: str) -> str:
    """The members of one entry of the draws list, at the depth ``indent=2`` puts them."""
    e, nc, nt = d.expr, len(d.expr.theta_c), len(d.expr.ties)
    items = json.dumps([*e.theta_c, *e.ties, *map(str, e.theta_d), d.sigma, d.log_post])
    items = items[1:-1].split(", ")  # no item holds ", ": numbers, and Fractions as strings
    theta_c, ties, theta_d = ("[\n        " + ",\n        ".join(xs) + "\n      ]" if xs else "[]"
                              for xs in (items[:nc], items[nc:nc + nt], items[nc + nt:-2]))
    return (f'      "expr": {json.dumps(text)},\n      "theta_c": {theta_c},\n'
            f'      "theta_d": {theta_d},\n      "ties": {ties},\n      "sigma": {items[-2]},\n'
            f'      "log_post": {items[-1]}')


def _load_posterior(text: str):
    """``json.loads(text)``, decoding a run of draw entries with equal text once, as one
    dict object, when the text has the writer's layout.  Each entry is compared with the
    text of the one before; the head, the tail and each entry that differs are decoded
    alone.  If one of them is not exactly one object between the layout's markers, the
    whole text is decoded as one document instead, so any other text gives json's own
    result or error."""
    start, end = text.find(_DRAWS_OPEN), text.rfind(_DRAWS_CLOSE)
    try:
        if not 0 <= start < end:
            raise ValueError("not the writer's layout")
        # the head parses with "}" after it only if the marker's comma ends a member of
        # the top-level object; the tail starts at the "accept_stats" key
        head = json.loads(text[:start] + "}")
        tail = json.loads("{" + text[end + _DRAWS_CLOSE.index('"accept_stats"'):])
        if not head:
            raise ValueError("not the writer's layout")
        entries, body, pos = [], "", start + len(_DRAWS_OPEN)
        while True:
            # a repeat is the text of the entry before, then a separator or the closing marker
            stop = pos + len(body)
            if not (entries and text.startswith(body, pos)
                    and (stop == end or text.startswith(_DRAW_SEP, stop, end))):
                # decoded from its "{", an entry must end at the "}" that starts a marker
                entry, at = _DECODER.raw_decode(text, pos - 2)
                stop = at - 6
                if stop != end and not text.startswith(_DRAW_SEP, stop, end):
                    raise ValueError("an entry is not one object")
                body = text[pos:stop]
            entries.append(entry)
            if stop == end:
                return {**head, "draws": entries, **tail}
            pos = stop + len(_DRAW_SEP)
    except (ValueError, RecursionError):
        return json.loads(text)


def posterior_from_json(text: str) -> Posterior:
    doc = json_object(text, "posterior", _POSTERIOR_KEYS, _POSTERIOR_KEYS, loads=_load_posterior)
    config = McmcConfig(**json_object(doc["config"], "posterior config", CONFIG_KEYS))
    if doc["seed"] != config.seed:  # the writer records the config's seed there
        raise InputError(
            f"the posterior's 'seed' {doc['seed']} is not its config's seed {config.seed}")
    trees: dict = {}  # each distinct expression text is parsed once
    draws, prev = [], None
    for i, entry in enumerate(doc["draws"]):
        if entry is prev and draws:  # one dict for a run; a null first entry is not prev
            draws.append(draws[-1])
            continue
        if (type(entry) is not dict or len(entry) != len(_DRAW_KEYS)
                or tuple(map(type, map(entry.get, _DRAW_KEYS))) not in _DRAW_TYPES
                or not set(map(type, entry["theta_c"])) <= {int, float}
                or not set(map(type, entry["theta_d"])) <= {str}
                or not set(map(type, entry["ties"])) <= {int}):
            raise InputError(f"draw {i} is not an object whose only keys, {', '.join(_DRAW_KEYS)}, "
                             "are a string, lists of numbers, strings and integers, two numbers")
        prev = entry
        try:
            tree = trees.get(entry["expr"])
            if tree is None:
                tree = trees[entry["expr"]] = parse_tree(entry["expr"])
            theta_d = tuple(Fraction(v) for v in entry["theta_d"])
            expr = SymbolicExpression(tree, tuple(entry["theta_c"]), theta_d, tuple(entry["ties"]))
            sigma = float(entry["sigma"])
            if not (sigma > 0 and math.isfinite(sigma)):
                raise InputError("sigma must be positive and finite")
            draws.append(Draw(expr, sigma, float(entry["log_post"])))
        except (InputError, ValueError, ArithmeticError) as exc:
            raise InputError(f"draw {i}: {exc}") from exc
    return Posterior(tuple(draws), doc["accept_stats"], config)
