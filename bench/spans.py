"""Spans around the calls the benchmark's workloads make into treegress.

Each public function is wrapped at the name its caller binds (``inference``
imports ``pta_eval`` by name, so ``treegress.inference.pta_eval`` is patched,
and ``treegress.pta.pta_eval`` as well for the call ``sample_from_state`` makes
internally).  A span is (name, start, end, parent index, run id) and stays in
memory until the run writes it out.  ``Tree.__hash__`` and ``Tree.walk`` run
far too often for spans; they only count calls made while a chain runs.

Span names are ``<layer>.<function>``; the layer is the part before the first
dot.  Spans of layer ``trace`` time the tracer's own bookkeeping and are left
out of every share.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter

CHAIN_SPANS = ("inference.run_chain", "inference.run_chains")
MOVES = ("global", "local", "params", "sigma")

# (module, attribute, span name): every public function a workload reaches,
# patched where its caller looks it up.
_FUNCTIONS = (
    ("cli", "run_chain", "inference.run_chain"),
    ("cli", "run_chains", "inference.run_chains"),
    ("cli", "posterior_to_json", "cli.posterior_to_json"),
    ("cli", "posterior_from_json", "cli.posterior_from_json"),
    ("cli", "posterior_predict", "inference.posterior_predict"),
    ("cli", "read_dataset", "cli.read_dataset"),
    ("cli", "eval_expression", "trees.eval_expression"),
    ("cli", "parse_tree", "trees.parse_tree"),
    ("cli", "compile_prior", "pta.compile_prior"),
    ("cli", "pta_eval", "pta.pta_eval"),
    ("cli", "prte_density", "prte.prte_density"),
    ("cli", "gen_isotherm", "experiments.gen_data"),
    ("cli", "gen_hyperelastic", "experiments.gen_data"),
    ("inference", "run_chain", "inference.run_chain"),
    ("inference", "compile_prior", "pta.compile_prior"),
    ("inference", "pta_eval", "pta.pta_eval"),
    ("inference", "context_marginal", "pta.context_marginal"),
    ("inference", "sample_from_state", "pta.sample_from_state"),
    ("inference", "sample_tree", "prte.sample_tree"),
    ("inference", "sample_expression", "prte.sample_expression"),
    ("inference", "compute_ties", "prte.compute_ties"),
    ("inference", "group_tags", "prte.group_tags"),
    ("inference", "eval_expression", "trees.eval_expression"),
    ("inference", "disc_positions", "trees.disc_positions"),
    ("inference", "parse_tree", "trees.parse_tree"),
    ("inference", "format_tree", "trees.format_tree"),
    ("pta", "pta_eval", "pta.pta_eval"),
    ("prte", "sample_tree", "prte.sample_tree"),
    ("prte", "compute_ties", "prte.compute_ties"),
    ("prte", "group_tags", "prte.group_tags"),
)


class Tracer:
    """Installs the wrappers, records spans and chain-time call counts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run_id = 0
        self.in_chain = 0
        self.counts: dict = {}  # run id -> Counter of count-only calls in chains
        self.identity: Counter = Counter()  # run id -> local proposals regrowing the same tree
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        chain = name in CHAIN_SPANS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self.in_chain += chain
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.in_chain -= chain
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.in_chain:
                self.counts[self.run_id][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _local_move(self, fn):
        timed = self.span("inference.local", fn)
        note = self.span("trace.identity", lambda old, out: out is not None and out[0].expr.tree == old)

        def wrapper(state, ctx, rng):
            out = timed(state, ctx, rng)
            if note(state.expr.tree, out):
                self.identity[self.run_id] += 1
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, run_id, mods):
        """Wrap the functions of ``mods`` (short name -> treegress module)."""
        self.run_id = run_id
        self.counts[run_id] = Counter()
        for mod, attr, name in _FUNCTIONS:
            self._patch(mods[mod], attr, self.span(name, getattr(mods[mod], attr)))
        proposers = mods["inference"]._PROPOSERS
        for move in MOVES:
            fn = proposers[move]
            wrapped = self._local_move(fn) if move == "local" else self.span(f"inference.{move}", fn)
            self._undo.append((proposers, move, fn))
            proposers[move] = wrapped
        ctx = mods["inference"]._ChainContext
        self._patch(ctx, "log_prior_tree", self.span("inference.log_prior_cache", ctx.log_prior_tree))
        self._patch(ctx, "boltzmann_marginal", self.span("inference.marginal_cache", ctx.boltzmann_marginal))
        tree = mods["trees"].Tree
        self._patch(tree, "__hash__", self._count("trees.hash", tree.__hash__))
        self._patch(tree, "walk", self._count("trees.walk", tree.walk))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def write(self, path):
        """All spans as gzip'd CSV: run, index, parent, name, start_us, end_us."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run,index,parent,name,start_us,end_us\n")
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{run},{idx},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")


def summarize(tracer: Tracer, run_id: int, steps: int, accept_stats: dict) -> dict:
    """Per-layer metrics of one traced fit+report cycle.

    Counts are per chain step over spans inside ``run_chain``/``run_chains``;
    ``us_per_call`` is inclusive time per call there; ``.ms`` metrics are the
    total milliseconds of the whole cycle (of the chains, for
    ``compile_prior``); shares divide each layer's self
    time inside the chain (span minus its child spans) by the chain's time.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run_id]
    in_chain: dict = {}
    self_time: dict = {}
    for i, (name, start, end, parent, _) in spans:
        in_chain[i] = name in CHAIN_SPANS or in_chain.get(parent, False)
        self_time[i] = end - start
        if parent in self_time:
            self_time[parent] -= end - start

    calls: Counter = Counter()
    inclusive: Counter = Counter()
    total: Counter = Counter()
    layer_self: Counter = Counter()
    under: Counter = Counter()  # (parent span name, span name) -> calls
    names = {i: s[0] for i, s in spans}
    for i, (name, start, end, parent, _) in spans:
        total[name] += end - start
        if not in_chain[i]:
            continue
        calls[name] += 1
        inclusive[name] += end - start
        layer = name.split(".", 1)[0]
        if layer != "trace":
            layer_self[layer] += self_time[i]
        under[(names.get(parent), name)] += 1

    out: dict = {}

    def us_per_call(fn):
        return inclusive[fn] / calls[fn] * 1e6 if calls[fn] else 0.0

    def ms(fn, where=total):
        out[f"{fn}.ms"] = where[fn] * 1e3

    ms("pta.compile_prior", inclusive)
    for fn in ("pta.pta_eval", "pta.context_marginal", "pta.sample_from_state",
               "prte.sample_tree", "prte.compute_ties", "prte.group_tags",
               "trees.eval_expression"):
        out[f"{fn}.calls_per_step"] = calls[fn] / steps
        out[f"{fn}.us_per_call"] = us_per_call(fn)
    for fn in ("trees.walk", "trees.hash"):
        out[f"{fn}.calls_per_step"] = tracer.counts[run_id][fn] / steps
    ms("trees.parse_tree")
    chain_time = sum(layer_self.values())
    for layer in ("pta", "prte", "trees"):
        out[f"{layer}.share"] = layer_self[layer] / chain_time
    out["inference.self_share"] = layer_self["inference"] / chain_time

    for move in MOVES:
        for key in ("proposed", "accepted", "aborted"):
            out[f"inference.{move}.{key}"] = accept_stats[move][key]
        out[f"inference.{move}.us_per_call"] = us_per_call(f"inference.{move}")
    local = accept_stats["local"]["proposed"]
    out["inference.local.identity_ratio"] = tracer.identity[run_id] / local if local else 0.0
    for cache, scorer in (("log_prior_cache", "pta.pta_eval"), ("marginal_cache", "pta.context_marginal")):
        lookups = calls[f"inference.{cache}"]
        missed = under[(f"inference.{cache}", scorer)]
        out[f"inference.{cache}.lookups"] = lookups
        out[f"inference.{cache}.hit_ratio"] = 1.0 - missed / lookups if lookups else 0.0
    ms("inference.posterior_predict")
    ms("cli.posterior_to_json")
    ms("cli.posterior_from_json")
    ms("cli.read_dataset")
    ms("experiments.gen_data")
    return out
