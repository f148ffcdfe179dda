"""treegress benchmark: seeded fit/report workloads through ``treegress.cli.main``.

    python3 bench/run.py --workload langmuir --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  A run
makes one reference cycle at fixed seeds (warm-up, posterior SHA-256,
reference output checks).  It then runs cycles, each on new inputs drawn from
``--seed``, until ``--seconds`` have passed.  At the end it repeats the
reference fit, whose posterior must not change.  A cycle is set-up (a fresh
import of treegress through a compiled prior, ``SETUP_REPEATS`` times), fit,
report and the output checks.  Every ``cli.main`` call counts as one attempt;
it fails on a non-zero exit code or a failed output check.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: each
timing is scaled to a reference host speed (``host_scaled``), and the metric
is the median over the run's cycles.  With ``--trace 1`` each cycle runs the
fit once untraced and then gen-data, fit and report traced (``spans.py``); the
last line holds the per-layer metrics (counts from the first traced cycle,
times as medians over cycles) and the spans go to ``bench/out/``.  The line
before the last, and a JSON file in ``bench/out/``, record the environment,
the posterior SHA-256, the checks and every sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

REFERENCE_DATA_SEED = 7  # the data and chain seeds of the ROADMAP baseline fits
REFERENCE_CHAIN_SEED = 0
GRID_POINTS = 2000
SETUP_REPEATS = 3  # set-ups per cycle; set-up is short, so it is sampled more often
DENSITY_TREES = 5
E2E_UNITS = {"setup_s": "s", "fit_s": "s", "steps_per_s": "1/s", "report_s": "s", "peak_rss_mb": "MB"}
E2E_BETTER = {"setup_s": "lower", "fit_s": "lower", "steps_per_s": "higher", "report_s": "lower"}
ORACLE_RTOL = 1e-9
PROBE_LOOPS = 30_000
# Probe time of the host this was tuned on in its fast state; timings are
# scaled to it, so they read as seconds on that host when undisturbed.
PROBE_REF_S = 0.006


@dataclass(frozen=True)
class Workload:
    name: str
    prior: str
    task: str | None  # gen-data task; None: prior-only fit on a one-row y csv
    config: dict
    chains: int = 1
    report: tuple = ()  # splits passed to ``report``; empty: ``density`` instead
    rmse_bounds: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.chains * (self.config["burn_in"] + self.config["samples"])


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "langmuir", "E_iso", "isotherm:langmuir",
            {"burn_in": 2000, "samples": 1000, "thin": 1},
            report=("test1", "test2", "test3", "grid"),
            rmse_bounds={"test1": 5.0, "test3": 15.0},  # criterion 7
        ),
        Workload(
            "ogden", "E_hyp", "hyperelastic",
            {"burn_in": 2000, "samples": 1000, "thin": 1},
            chains=2,
            report=("test1", "test3"),
            rmse_bounds={"test3": 15.0},  # criterion 8
        ),
        Workload(
            "e1-prior", "E_1", None,
            {"burn_in": 0, "samples": 2000, "thin": 2, "prior_only": True},
        ),
    )
}


# -- the program under test -------------------------------------------------------


def import_treegress() -> dict:
    """Fresh import of the package from ``src/``; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "treegress" or m.startswith("treegress.")]:
        del sys.modules[name]
    importlib.import_module("treegress.cli")
    return {
        short: sys.modules[f"treegress.{short}"]
        for short in ("cli", "experiments", "inference", "prte", "pta", "trees")
    }


class Session:
    """The imported program, the calls into it and the tally of attempts and failures."""

    def __init__(self):
        self.m: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.chain_seconds = 0.0

    def setup(self, wl: Workload, data_seed: int, chain_seed: int, d: Path) -> tuple:
        """Everything before the first chain step, from a fresh import of
        treegress to a compiled prior: (wall seconds, input paths)."""
        start = time.perf_counter()
        self.m = import_treegress()
        paths = prepare(self, wl, data_seed, chain_seed, d)
        self.m["experiments"].read_dataset(paths["train"])
        prior = self.m["experiments"].prior_library()[wl.prior]
        self.m["pta"].compile_prior(prior)
        seconds = time.perf_counter() - start
        cli = self.m["cli"]
        for attr in ("run_chain", "run_chains"):
            setattr(cli, attr, self._chain_timer(getattr(cli, attr)))
        return seconds, paths

    def _chain_timer(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.chain_seconds += time.perf_counter() - start

        return timed

    def main(self, argv) -> tuple:
        """One ``cli.main`` call: (seconds, stdout); a non-zero exit is a failure."""
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.m["cli"].main([str(a) for a in argv])
        seconds = time.perf_counter() - start
        if code != 0:
            self.fail(f"{argv[0]} exited {code}")
        return seconds, buf.getvalue()

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def cycle_seeds(seed: int, i: int) -> tuple:
    rng = random.Random(f"treegress-bench:{seed}:{i}")
    return rng.randrange(2**31), rng.randrange(2**31)


def write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def prepare(s: Session, wl: Workload, data_seed: int, chain_seed: int, d: Path) -> dict:
    """Write the cycle's inputs; the program sees only these files."""
    d.mkdir(parents=True, exist_ok=True)
    rng = random.Random(data_seed)
    if wl.task is None:
        write_csv(d / "train.csv", ["y"], [[rng.uniform(-1.0, 1.0)]])
    else:
        s.main(["gen-data", "--task", wl.task, "--seed", data_seed, "--out-dir", d])
    if "grid" in wl.report:
        # Dense concentration grid; its target is a placeholder, only the
        # predictive bands over it are used.
        write_csv(d / "grid.csv", ["c", "s"], [[rng.uniform(0.0, 150.0), 0.0] for _ in range(GRID_POINTS)])
    config = dict(wl.config, seed=chain_seed)
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return {"dir": d, "train": d / "train.csv", "config": d / "config.json",
            "posterior": d / "posterior.json", "report": d / "report"}


def fit(s: Session, wl: Workload, paths: dict) -> tuple:
    """``fit``: (wall seconds, seconds inside run_chain/run_chains, posterior doc)."""
    paths["posterior"].unlink(missing_ok=True)
    before = s.chain_seconds
    argv = ["fit", "--prior", wl.prior, "--train", paths["train"], "--config", paths["config"],
            "--out", paths["posterior"]]
    if wl.chains > 1:
        argv += ["--chains", wl.chains]
    seconds, _ = s.main(argv)
    chain = s.chain_seconds - before
    try:
        doc = json.loads(paths["posterior"].read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        s.fail(f"fit wrote no readable posterior: {exc}")
        return seconds, chain, None
    want = wl.chains * wl.config["samples"] // wl.config["thin"]
    if len(doc["draws"]) != want:
        s.fail(f"fit wrote {len(doc['draws'])} draws, expected {want}")
    return seconds, chain, doc


def top_trees(doc, k):
    counts: dict = {}
    for d in doc["draws"]:
        counts[d["expr"]] = counts.get(d["expr"], 0) + 1
    return sorted(counts, key=lambda t: (-counts[t], t))[:k]


def report(s: Session, wl: Workload, paths: dict, doc) -> tuple:
    """``report`` on the workload's splits, or ``density --via both`` on the
    most frequent drawn trees of a prior-only fit, whose symbols have no
    evaluation rule.  Returns (wall seconds, RMSE of the posterior mean by split)."""
    if not wl.report:
        seconds = 0.0
        for tree in top_trees(doc, DENSITY_TREES) if doc else ():
            t, out = s.main(["density", "--prior", wl.prior, "--tree", tree, "--via", "both"])
            seconds += t
            lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
            pta, diff = float(lines.get("pta", "nan")), float(lines.get("difference", "nan"))
            if not diff <= ORACLE_RTOL * pta:
                s.fail(f"density of {tree}: oracle and automaton differ by {diff}")
        return seconds, {}
    data = [paths["dir"] / f"{split}.csv" for split in wl.report]
    seconds, _ = s.main(["report", "--posterior", paths["posterior"], "--data", *data,
                         "--out-dir", paths["report"]])
    return seconds, band_rmse(paths, wl.rmse_bounds)


def read_rows(path: Path) -> tuple:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def band_rmse(paths: dict, splits) -> dict:
    """RMSE of the reported posterior-mean band against each split's targets,
    over the points where the mean is finite (as in criteria 7 and 8)."""
    header, bands = read_rows(paths["report"] / "bands.csv")
    mean_col = header.index("mean")
    out = {}
    for split in splits:
        _, rows = read_rows(paths["dir"] / f"{split}.csv")
        target = {tuple(r[:-1]): float(r[-1]) for r in rows}
        sq = [
            (float(b[mean_col]) - target[tuple(b[1:mean_col])]) ** 2
            for b in bands
            if b[0] == split and math.isfinite(float(b[mean_col]))
        ]
        out[split] = math.sqrt(sum(sq) / len(sq)) if sq else math.inf
    return out


def oracle_check(s: Session, wl: Workload, doc) -> int:
    """``pta_eval`` against the exact oracle ``prte_density`` on every distinct
    drawn tree; returns the number of trees checked."""
    prior = s.m["experiments"].prior_library()[wl.prior]
    pta = s.m["pta"].compile_prior(prior)
    trees = {d["expr"] for d in doc["draws"]}
    for text in sorted(trees):
        tree = s.m["trees"].parse_tree(text, prior.alphabet)
        exact = float(s.m["prte"].prte_density(prior, tree))
        via_pta = s.m["pta"].pta_eval(pta, tree)
        if not abs(via_pta - exact) <= ORACLE_RTOL * exact:
            s.fail(f"pta_eval {via_pta!r} vs prte_density {exact!r} on {text}")
            break
    return len(trees)


def posterior_sha(paths: dict) -> str:
    return hashlib.sha256(paths["posterior"].read_bytes()).hexdigest()


# -- phases -----------------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    import numpy  # noqa: F401  (imported before any timed set-up)

    work = OUT / f"{wl.name}-s{seed}-t{int(trace)}"
    s = Session()

    # Reference cycle at the fixed seeds: warm-up, SHA-256, reference checks.
    _, ref = s.setup(wl, REFERENCE_DATA_SEED, REFERENCE_CHAIN_SEED, work / "reference")
    _, _, ref_doc = fit(s, wl, ref)
    reference = {"posterior_sha256": posterior_sha(ref)}
    if ref_doc is not None:
        _, ref_rmse = report(s, wl, ref, ref_doc)
        reference["rmse"] = ref_rmse
        for split, bound in wl.rmse_bounds.items():
            if not ref_rmse[split] <= bound:
                s.fail(f"reference {split} RMSE {ref_rmse[split]:.3f} > {bound}")
        if wl.task is None:
            reference["oracle_trees"] = oracle_check(s, wl, ref_doc)

    tracer = None
    if trace:
        sys.path.insert(0, str(BENCH))
        from spans import Tracer, summarize

        tracer = Tracer()
    samples: dict = {name: [] for name in E2E_BETTER}
    probes: dict = {name: [] for name in E2E_BETTER}
    layer_samples: list = []
    overheads = []
    exceed = {split: 0 for split in wl.rmse_bounds}
    oracle_trees = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seeds = cycle_seeds(seed, i)
        before = probe()
        for _ in range(SETUP_REPEATS):
            setup_s, paths = s.setup(wl, *seeds, work / f"cycle{i % 2}")
            after = probe()
            samples["setup_s"].append(setup_s)
            probes["setup_s"].append((before + after) / 2)
            before = after
        fit_s, chain_s, doc = fit(s, wl, paths)
        after_fit = probe()
        if tracer is not None:
            tracer.install(i, s.m)
            try:
                prepare(s, wl, *seeds, paths["dir"])
                traced_fit_s, _, doc = fit(s, wl, paths)
                report_s, rmse = report(s, wl, paths, doc) if doc else (0.0, {})
            finally:
                tracer.uninstall()
            overheads.append(traced_fit_s - fit_s)
            if doc is not None:
                layer_samples.append(summarize(tracer, i, wl.steps, doc["accept_stats"]))
                layer_samples[-1]["inference.distinct_trees"] = len({d["expr"] for d in doc["draws"]})
        else:
            report_s, rmse = report(s, wl, paths, doc) if doc else (0.0, {})
            after_report = probe()
            if doc is not None:
                for name, value, p in (
                    ("fit_s", fit_s, (before + after_fit) / 2),
                    ("steps_per_s", wl.steps / chain_s, (before + after_fit) / 2),
                    ("report_s", report_s, (after_fit + after_report) / 2),
                ):
                    samples[name].append(value)
                    probes[name].append(p)
        for split, bound in wl.rmse_bounds.items():
            exceed[split] += not rmse.get(split, math.inf) <= bound
        if wl.task is None and doc is not None:
            oracle_trees += oracle_check(s, wl, doc)
        i += 1

    # The reference fit once more: its posterior must be byte-identical.
    fit(s, wl, ref)
    if posterior_sha(ref) != reference["posterior_sha256"]:
        s.fail("the reference fit gave a different posterior the second time")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "workload": wl.name,
        "seed": seed,
        "cycles": i,
        "samples": samples,
        "probes": probes,
        "reference": reference,
        "checks": {"rmse_bounds": wl.rmse_bounds, "cycles_over_bound": exceed,
                   "oracle_trees_checked": oracle_trees, "problems": s.problems[:10]},
        "env": environment(),
    }
    if tracer is None:
        info["timings"] = {name: summary(values, E2E_BETTER[name]) for name, values in samples.items()}
        metrics = {name: (statistics.median(host_scaled(samples[name], probes[name], E2E_BETTER[name])),
                          E2E_UNITS[name]) for name in samples}
        metrics["peak_rss_mb"] = (peak_rss_mb, E2E_UNITS["peak_rss_mb"])
    else:
        metrics = layer_metrics(layer_samples, overheads)
        info["spans"] = str((work / "spans.csv.gz").relative_to(ROOT))
        tracer.write(work / "spans.csv.gz")
    return metrics, s, info


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the benchmark's yardstick of how
    fast the host runs at this moment.  It runs right before and after every
    timed call."""
    start = time.perf_counter()
    table: dict = {}
    for j in range(PROBE_LOOPS):
        key = (j % 97, (j * 7) % 13)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def host_scaled(values: list, probe_s: list, better: str) -> list:
    """Each timing scaled by ``PROBE_REF_S`` over the mean probe around it.

    The host this was tuned on switches between two speeds about 1.7x apart,
    for seconds to minutes at a time, and the probe slows with it.  Unscaled,
    the median of a 35-second run mostly records which speed the run got: in
    a noisy hour the quartile spread of 10 ``e1-prior`` runs' unscaled medians
    was 0.25-0.30 of their median, and 0.035-0.043 scaled."""
    if better == "lower":
        return [v * PROBE_REF_S / p for v, p in zip(values, probe_s)]
    return [v * p / PROBE_REF_S for v, p in zip(values, probe_s)]


def summary(values: list, better: str) -> dict:
    """Sample count, best, median, worst and, given 11 samples or more, the
    tail: the worst value that still has ten worse ones, with its percentile."""
    ordered = sorted(values, reverse=better == "higher")
    n = len(ordered)
    out = {"n": n, "best": ordered[0], "median": statistics.median(values), "worst": ordered[-1]}
    if n > 10:
        out["tail"] = ordered[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


COUNT_SUFFIXES = ("calls_per_step", "proposed", "accepted", "aborted", "lookups",
                  "identity_ratio", "hit_ratio", "distinct_trees")


def layer_metrics(samples: list, overheads: list) -> dict:
    """Counts and ratios of counts from the first traced cycle (they repeat
    exactly for a seed), times as medians over the traced cycles."""
    out = {}
    for name in samples[0]:
        suffix = name.rsplit(".", 1)[1]
        if suffix in COUNT_SUFFIXES:
            value = samples[0][name]
        else:
            value = statistics.median(x[name] for x in samples)
        out[name] = (value, layer_unit(suffix))
    out["trace.fit_overhead_s"] = (statistics.median(overheads), "s")
    out["src.lines"] = (src_lines(), "count")
    return out


def layer_unit(suffix: str) -> str:
    return {
        "calls_per_step": "calls/step", "us_per_call": "us", "ms": "ms",
        "share": "fraction", "self_share": "fraction", "identity_ratio": "fraction",
        "hit_ratio": "fraction",
    }.get(suffix, "count")


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treegress" / "cli.py").is_file():
        print(f"treegress sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload]
    metrics, s, info = run(wl, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(info, metrics=metrics), indent=2), encoding="utf-8")
    print(json.dumps({"info": {k: v for k, v in info.items() if k not in ("samples", "probes")}}))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
