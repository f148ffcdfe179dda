"""Synthetic benchmark data and the shipped prior library.

Ten sorption isotherms relate solution concentration c (mg/L) to sorbed
concentration s (mg/Kg); parameters are drawn from exponential priors with
per-isotherm rate overrides, inputs are uniform per split, and targets carry
white noise.  The hyper-elastic task evaluates a two-term Ogden strain energy
density on principal stretches.  All generation is reproducible: one master
seed is split per parameter draw and per dataset.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LengthMismatch, RuntimeFailure
from .prte import load_prior

POLE_EPS = 1e-6
POLE_RETRIES = 10_000


# -- isotherm catalogue ----------------------------------------------------------


def _langmuir(p, c):
    return p["s_T"] * p["k"] * c / (1 + p["k"] * c)


def _modified_langmuir(p, c):
    return p["s_T"] * (p["k_1"] * c / (1 + p["k_1"] * c)) / (1 + p["k_2"] * c)


def _two_site_langmuir(p, c):
    return p["s_T"] * (
        p["f_1"] * p["k_1"] * c / (1 + p["k_1"] * c)
        + p["f_2"] * p["k_2"] * c / (1 + p["k_2"] * c)
    )


def _general_langmuir_freundlich(p, c):
    t = (p["k"] * c) ** p["alpha"]
    return p["s_T"] * t / (1 + t)


def _freundlich(p, c):
    return p["K_F"] * c ** p["alpha"]


def _general_freundlich(p, c):
    return p["s_T"] * (p["k"] * c / (1 + p["k"] * c)) ** p["alpha"]


def _toth(p, c):
    return p["s_T"] * p["k"] * c / (1 + (p["k"] * c) ** p["alpha"]) ** (1 / p["alpha"])


def _brunauer_emmett_teller(p, c):
    return p["k_1"] * c / (1 + p["k_2"] * c) / (1 - p["k_3"] * c)


def _farley_dzombak_morel(p, c):
    base = 1 + p["k_1"] * c
    site = p["k_2"] * c / (1 - p["k_2"] * c)
    return (
        p["s_T"] * p["k_1"] * c / base
        + ((p["X"] - p["s_T"]) / base + p["k_1"] * p["X_c"] / base) * site
        - (p["k_2"] / p["k_3"]) * c
    )


def _redlich_peterson(p, c):
    return p["s_T"] * p["k"] * c / (1 + (p["k"] * c) ** p["alpha"])


_GENERAL_RATES = {
    "s_T": 0.015,
    "k": 4.0,
    "k_1": 4.0,
    "k_2": 100.0,
    "k_3": 4.0,
    "f_1": 4.0,
    "f_2": 4.0,
    "alpha": 4.0,
    "X": 0.03,
    "X_c": 0.03,
    "K_F": 0.05,
}

# (formula, parameter draw order, rate overrides, pole denominators)
_ISOTHERMS = {
    "langmuir": (_langmuir, ("s_T", "k"), {}, None),
    "modified_langmuir": (_modified_langmuir, ("s_T", "k_1", "k_2"), {}, None),
    "two_site_langmuir": (
        _two_site_langmuir,
        ("s_T", "f_1", "f_2", "k_1", "k_2"),
        {"k_1": 8.0, "k_2": 8.0},
        None,
    ),
    "general_langmuir_freundlich": (
        _general_langmuir_freundlich,
        ("s_T", "k", "alpha"),
        {},
        None,
    ),
    "freundlich": (_freundlich, ("K_F", "alpha"), {}, None),
    "general_freundlich": (_general_freundlich, ("s_T", "k", "alpha"), {}, None),
    "toth": (_toth, ("s_T", "k", "alpha"), {"alpha": 0.75}, None),
    "brunauer_emmett_teller": (
        _brunauer_emmett_teller,
        ("k_1", "k_2", "k_3"),
        {"k_1": 0.25, "k_2": 4.0, "k_3": 100.0},
        lambda p, c: 1 - p["k_3"] * c,
    ),
    "farley_dzombak_morel": (
        _farley_dzombak_morel,
        ("s_T", "k_1", "k_2", "k_3", "X", "X_c"),
        {"k_2": 100.0},
        lambda p, c: 1 - p["k_2"] * c,
    ),
    "redlich_peterson": (_redlich_peterson, ("s_T", "k", "alpha"), {"alpha": 0.75}, None),
}

ISOTHERM_NAMES = tuple(_ISOTHERMS)

_ISO_RANGES = {
    "train": (20.0, 100.0),
    "test1": (20.0, 100.0),
    "test2": (0.0, 20.0),
    "test3": (100.0, 150.0),
}

_HYP_RANGES = {
    "train": (1.5, 2.5),
    "test1": (1.5, 2.5),
    "test2": (0.5, 1.5),
    "test3": (2.5, 5.0),
}


@dataclass(frozen=True)
class Dataset:
    """Column-oriented table; the last column is the regression target."""

    header: tuple
    columns: tuple  # of np.ndarray, aligned with header
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    def inputs(self) -> dict:
        return {name: col for name, col in zip(self.header[:-1], self.columns[:-1])}

    @property
    def target(self) -> np.ndarray:
        return self.columns[-1]

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in zip(*self.columns):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_dataset(path) -> Dataset:
    """Read a csv written by ``Dataset.to_csv``.  A row whose cell count
    differs from the header's, or a cell that is not a finite number, is an
    input error naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = tuple(fh.readline().strip().split(","))
        lines = [(no, line.strip()) for no, line in enumerate(fh, start=2) if line.strip()]
    if not header or not all(header):
        raise InputError(f"{path}: missing header")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise InputError(f"{path}: the header repeats the column '{name}'")
    rows = []
    for no, line in lines:
        cells = line.split(",")
        if len(cells) != len(header):
            raise InputError(
                f"{path}: line {no} has {len(cells)} cells, the header has {len(header)}"
            )
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            raise InputError(f"{path}: line {no} holds a non-numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}: line {no} holds a non-finite cell")
        rows.append(row)
    cols = tuple(np.array([r[i] for r in rows]) for i in range(len(header)))
    return Dataset(header, cols)


@dataclass(frozen=True)
class IsothermSpec:
    name: str
    param_priors: dict  # parameter -> exponential rate
    ranges: dict = field(default_factory=lambda: dict(_ISO_RANGES))
    n_train: int = 20
    n_test: int = 20
    noise_sigma: float = 0.1

    def __post_init__(self):
        if self.name not in _ISOTHERMS:
            raise InputError(
                f"unknown isotherm '{self.name}'; expected one of {ISOTHERM_NAMES}"
            )
        if self.n_train <= 0:
            raise InputError("n_train must be positive")


def isotherm_spec(name: str) -> IsothermSpec:
    if name not in _ISOTHERMS:
        raise InputError(f"unknown isotherm '{name}'; expected one of {ISOTHERM_NAMES}")
    _, order, overrides, _ = _ISOTHERMS[name]
    rates = {param: overrides.get(param, _GENERAL_RATES[param]) for param in order}
    return IsothermSpec(name=name, param_priors=rates)


@dataclass(frozen=True)
class HyperelasticSpec:
    """Two-term Ogden ground truth on principal stretches."""

    alphas: tuple = (1.75, 2.5)
    mus: tuple = (1.5, 0.1)
    ranges: dict = field(default_factory=lambda: dict(_HYP_RANGES))
    n_train: int = 20
    n_test: int = 20
    noise_sigma: float = 0.01

    def __post_init__(self):
        if any(a == 0 for a in self.alphas):
            raise InputError("Ogden exponents must be nonzero")


def ogden_energy(spec: HyperelasticSpec, l1, l2, l3) -> np.ndarray:
    w = np.zeros_like(np.asarray(l1, dtype=float))
    for mu, alpha in zip(spec.mus, spec.alphas):
        w = w + (mu / alpha) * (l1**alpha + l2**alpha + l3**alpha - 3.0)
    return w


def gen_isotherm(spec: IsothermSpec, seed: int, noise: bool = True) -> dict:
    """Four datasets (train, test1, test2, test3) with parameters drawn once
    from the spec's priors.  Input points that land within POLE_EPS of a pole
    denominator are redrawn; the count is recorded in dataset meta."""
    formula, order, _, pole = _ISOTHERMS[spec.name]
    children = np.random.SeedSequence(seed).spawn(5)
    param_rng = np.random.default_rng(children[0])
    params = {
        name: float(param_rng.exponential(1.0 / spec.param_priors[name]))
        for name in order
    }

    out = {}
    for i, split in enumerate(("train", "test1", "test2", "test3")):
        rng = np.random.default_rng(children[i + 1])
        n = spec.n_train if split == "train" else spec.n_test
        lo, hi = spec.ranges[split]
        c = rng.uniform(lo, hi, n)
        resampled = 0
        if pole is not None:
            for _ in range(POLE_RETRIES):
                bad = np.abs(pole(params, c)) < POLE_EPS
                if not bad.any():
                    break
                resampled += int(bad.sum())
                c[bad] = rng.uniform(lo, hi, int(bad.sum()))
            else:
                raise RuntimeFailure(f"{spec.name}/{split}: cannot avoid pole")
        s = formula(params, c)
        if noise:
            s = s + rng.normal(0.0, spec.noise_sigma, n)
        meta = {
            "task": f"isotherm:{spec.name}",
            "split": split,
            "units": {"c": "mg/L", "s": "mg/Kg"},
            "params": dict(params),
            "resampled": resampled,
            "noise_sigma": spec.noise_sigma if noise else 0.0,
        }
        out[split] = Dataset(("c", "s"), (c, s), meta)
    return out


def gen_hyperelastic(spec: HyperelasticSpec, seed: int, noise: bool = True) -> dict:
    """Four datasets of principal stretches and noisy strain energy density."""
    children = np.random.SeedSequence(seed).spawn(4)
    out = {}
    for i, split in enumerate(("train", "test1", "test2", "test3")):
        rng = np.random.default_rng(children[i])
        n = spec.n_train if split == "train" else spec.n_test
        lo, hi = spec.ranges[split]
        l1, l2, l3 = (rng.uniform(lo, hi, n) for _ in range(3))
        w = ogden_energy(spec, l1, l2, l3)
        if noise:
            w = w + rng.normal(0.0, spec.noise_sigma, n)
        meta = {
            "task": "hyperelastic",
            "split": split,
            "units": {"l1": "-", "l2": "-", "l3": "-", "w": "J"},
            "alphas": list(spec.alphas),
            "mus": list(spec.mus),
            "noise_sigma": spec.noise_sigma if noise else 0.0,
        }
        out[split] = Dataset(("l1", "l2", "l3", "w"), (l1, l2, l3, w), meta)
    return out


# -- shipped priors -----------------------------------------------------------------


def prior_library() -> dict:
    """All priors shipped with the package, keyed by their declared name."""
    root = importlib.resources.files("treegress") / "priors"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            prior = load_prior(str(entry))
            out[prior.name] = prior
    return out


# -- metrics --------------------------------------------------------------------------


def rmse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise LengthMismatch(
            f"prediction shape {predictions.shape} vs target shape {targets.shape}"
        )
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))
