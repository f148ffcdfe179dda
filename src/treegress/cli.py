"""Command-line surface.

Subcommands: parse, sample, density, gen-data, fit, report.  Exit codes are
0 (ok), 2 (input problem), 3 (runtime failure).  Errors go to stderr as one
JSON object per failure.  Every command that draws random numbers takes
--seed, a non-negative integer; the TREEGRESS_SEED environment variable
supplies the default.  Output bytes are stable for a fixed seed: floats
print as their shortest round-trip decimal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import InputError, RuntimeFailure, TreegressError, json_object
from .experiments import gen_hyperelastic, gen_isotherm, prior_documents, read_dataset, rmse
from .inference import (
    CONFIG_KEYS,
    Draw,
    McmcConfig,
    Posterior,
    posterior_from_json,
    posterior_predict,
    posterior_to_json,
    run_chain,  # not called here; bench/run.py and bench/spans.py look it up on this module
    run_chains,
)
from .prte import PriorSpec, format_prte, load_prior, prte_density, sample_expression
from .pta import compile_prior, pta_eval
from .trees import eval_expression, parse_tree  # eval_expression: bench/spans.py looks it up here

# prior, train and out each name a path, or the prior a library prior
_RUN_CONFIG_KEYS = {**CONFIG_KEYS, "prior": (str,), "train": (str,), "out": (str,)}
_BANDS = ("mean", "q05", "q50", "q95")  # the posterior_predict columns that bands.csv holds
# input problems, exit 2; any other OSError, such as a full disk, exits 3
_INPUT_FAULTS = (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
                 FileExistsError, UnicodeDecodeError)


def _resolve_seed(args):
    """--seed, else TREEGRESS_SEED, else 0; a fit without --seed keeps its
    config's seed.  A seed is a non-negative integer."""
    seed = args.seed
    if seed is None and args.command != "fit":
        env = os.environ.get("TREEGRESS_SEED") or "0"
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"TREEGRESS_SEED must be an integer, got {env!r}") from None
    if seed is not None and seed < 0:
        raise InputError(f"a seed must be non-negative, got {seed}")
    return seed


def _resolve_prior(ref: str) -> PriorSpec:
    if Path(ref).exists():
        return load_prior(ref)
    library = prior_documents()
    if ref in library:
        return load_prior(library[ref])
    raise InputError(
        f"'{ref}' is neither a prior file nor a library prior "
        f"(known: {', '.join(sorted(library))})"
    )


def _fmt(x: float) -> str:
    return repr(float(x))


# -- commands ---------------------------------------------------------------------


def cmd_parse(args) -> int:
    prior = load_prior(args.prior)
    print(format_prte(prior.root))
    print(f"name: {prior.name}")
    print(f"symbols: {len(prior.alphabet)}")
    print(f"markers: {', '.join(sorted(prior.markers)) if prior.markers else '(none)'}")
    print(f"variables: {', '.join(prior.variables) if prior.variables else '(none)'}")
    print(f"max_depth: {prior.max_depth}")
    if args.dump_pta:
        pta = compile_prior(prior)
        Path(args.dump_pta).write_text(pta.to_json(), encoding="utf-8")
        print(f"automaton: {pta.n_states} states -> {args.dump_pta}")
    return 0


def cmd_sample(args) -> int:
    prior = _resolve_prior(args.prior)
    if args.max_depth is not None:
        prior = dataclasses.replace(prior, max_depth=args.max_depth)
    if args.n < 0:
        raise InputError(f"--n must be non-negative, got {args.n}")
    rng = np.random.default_rng(args.seed)
    for _ in range(args.n):
        expr = sample_expression(prior, rng)
        line = {
            "expr": str(expr.tree),
            "theta_c": list(expr.theta_c),
            "theta_d": [str(v) for v in expr.theta_d],
        }
        print(json.dumps(line))
    return 0


def cmd_density(args) -> int:
    prior = _resolve_prior(args.prior)
    tree = parse_tree(args.tree, prior.alphabet)
    want_oracle = args.via in ("oracle", "both")
    want_pta = args.via in ("pta", "both")
    oracle_val = prte_density(prior, tree) if want_oracle else None
    pta_val = pta_eval(compile_prior(prior), tree) if want_pta else None
    if args.via == "oracle":
        print(_fmt_density(oracle_val))
    elif args.via == "pta":
        print(_fmt(pta_val))
    else:
        print(f"oracle: {_fmt_density(oracle_val)}")
        print(f"pta: {_fmt(pta_val)}")
        print(f"difference: {_fmt(abs(float(oracle_val) - pta_val))}")
    return 0


def _fmt_density(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator} ≈ {_fmt(value)}"


def cmd_gen_data(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    task = args.task
    if task.startswith("isotherm:"):
        datasets = gen_isotherm(task.split(":", 1)[1], args.seed)
    elif task == "hyperelastic":
        datasets = gen_hyperelastic(args.seed)
    else:
        raise InputError(f"unknown task '{task}' (isotherm:<name> or hyperelastic)")
    for split, data in datasets.items():
        path = out_dir / f"{split}.csv"
        data.to_csv(path)
        print(str(path))
        resampled = data.meta.get("resampled", 0)
        if resampled:
            print(
                json.dumps({"note": "pole-adjacent inputs redrawn", "split": split,
                            "count": resampled}),
                file=sys.stderr,
            )
    return 0


def cmd_fit(args) -> int:
    if not 1 <= args.chains <= sys.maxsize:  # SeedSequence.spawn takes at most sys.maxsize
        raise InputError(f"--chains must be at least 1 and at most {sys.maxsize}, got {args.chains}")
    doc = json_object(Path(args.config).read_text(encoding="utf-8"), "run config", _RUN_CONFIG_KEYS)
    refs = {key: doc.pop(key, None) for key in ("prior", "train", "out")}
    if args.seed is not None:
        doc["seed"] = args.seed
    config = McmcConfig(**doc)
    prior_ref = args.prior or refs["prior"]
    train_ref = args.train or refs["train"]
    out_ref = args.out or refs["out"]
    if not (prior_ref and train_ref and out_ref):
        raise InputError("fit needs a prior, a train csv, and an output path")
    out = Path(out_ref)  # checked before the chain runs, not after
    if out.is_dir() or not out.parent.is_dir():
        raise (IsADirectoryError if out.is_dir() else FileNotFoundError)(f"cannot write {out_ref}")
    prior = _resolve_prior(prior_ref)
    train = read_dataset(train_ref)

    partial: list[Draw] = []
    try:
        posterior = run_chains(prior, train, config, args.chains, on_draw=partial.append)
    except InputError:
        raise
    except TreegressError as exc:
        config = dataclasses.replace(config, max_depth=config.max_depth or prior.max_depth)
        trace = Posterior(tuple(partial), {}, config)
        out.write_text(posterior_to_json(trace), encoding="utf-8")
        raise RuntimeFailure(
            f"inference stopped after {len(partial)} draws: {exc}"
        ) from exc

    out.write_text(posterior_to_json(posterior), encoding="utf-8")
    _print_fit_summary(posterior)
    return 0


def _print_fit_summary(posterior: Posterior) -> None:
    print(f"draws: {len(posterior.draws)}")
    for move, s in posterior.accept_stats.items():
        rate = s["accepted"] / s["proposed"] if s["proposed"] else 0.0
        print(f"accept[{move}]: {s['accepted']}/{s['proposed']} ({rate:.3f})")
    counts = Counter(posterior.texts[d.expr.tree] for d in posterior.draws)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    for text, c in top:
        print(f"top: {c}/{len(posterior.draws)} {text}")
    sigma_mean = sum(d.sigma for d in posterior.draws) / len(posterior.draws)
    print(f"sigma_mean: {_fmt(sigma_mean)}")


def cmd_report(args) -> int:
    posterior = posterior_from_json(Path(args.posterior).read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed) if args.with_noise else None

    metrics_lines, bands_lines = [], []
    index = posterior.distinct[1]
    x_names = None  # the first dataset's input columns, in its header's order
    for data_path in args.data:
        ds = read_dataset(data_path)
        if ds.n == 0:
            raise InputError(f"{data_path} has no rows")
        name = Path(data_path).stem
        inputs = ds.inputs()
        if x_names is None:
            x_names = list(inputs)
            if not x_names:
                raise InputError(f"{data_path}: no input columns besides the target")
            bands_lines.append(",".join(["dataset", *x_names, *_BANDS, "flagged"]) + "\n")
        elif set(inputs) != set(x_names):
            raise InputError(f"{data_path}: input columns {sorted(inputs)} differ from "
                             f"the first dataset's {sorted(x_names)}")
        bands = posterior_predict(posterior, inputs, rng=rng)
        # one RMSE per distinct expression, from the columns the bands evaluated;
        # NaN where it is non-finite on the data
        errors = np.array([rmse(p, ds.target) if np.isfinite(p).all() else math.nan
                           for p in bands["columns"].T])[index]
        per_draw = errors[~np.isnan(errors)]
        mean, std = (np.mean(per_draw), np.std(per_draw)) if per_draw.size else (math.nan,) * 2
        metrics_lines.append(f"{name},{_fmt(mean)},{_fmt(std)},{errors.size - per_draw.size}\n")

        order = np.argsort(inputs[x_names[0]], kind="stable")
        columns = [inputs[v] for v in x_names] + [bands[q] for q in _BANDS]
        flagged = bands["dropped"] == len(posterior.draws)
        for *cells, f in zip(*(c[order].tolist() for c in columns), flagged[order].tolist()):
            bands_lines.append(f"{name},{','.join(map(repr, cells))},{int(f)}\n")

    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text("dataset,rmse_mean,rmse_std,dropped_draws\n" + "".join(metrics_lines),
                            encoding="utf-8", newline="\n")
    bands_path = out_dir / "bands.csv"
    bands_path.write_text("".join(bands_lines), encoding="utf-8", newline="\n")
    print(str(metrics_path))
    print(str(bands_path))
    return 0


# -- wiring -----------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Its usage errors raise InputError, which ``main`` prints as one JSON object."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="treegress",
        description="Bayesian symbolic regression with tree-expression priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a prior file, print its canonical form")
    p.add_argument("--prior", required=True)
    p.add_argument("--dump-pta", default=None, help="write the compiled automaton as JSON")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("sample", help="draw expressions from a prior")
    p.add_argument("--prior", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("density", help="prior probability of one tree")
    p.add_argument("--prior", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--via", choices=("pta", "oracle", "both"), default="both")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("gen-data", help="write synthetic benchmark csv files")
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("fit", help="run the posterior sampler")
    p.add_argument("--prior", default=None)
    p.add_argument("--train", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chains", type=int, default=1)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("report", help="metrics and predictive bands from a posterior")
    p.add_argument("--posterior", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--with-noise", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args)
        return args.fn(args)
    except _INPUT_FAULTS as exc:
        _report_error(exc)
        return 2
    except Exception as exc:  # anything unforeseen is a runtime failure
        _report_error(exc)
        return 3


def _report_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
