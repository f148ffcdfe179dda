"""Synthetic benchmark data and the shipped prior library.

Ten sorption isotherms relate solution concentration c (mg/L) to sorbed
concentration s (mg/Kg); parameters are drawn from exponential priors with
per-isotherm rate overrides, inputs are uniform per split, and targets carry
white noise.  The hyper-elastic task evaluates a two-term Ogden strain energy
density w (J) on principal stretches.  All generation is reproducible: one master
seed is split per parameter draw and per dataset.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LengthMismatch, RuntimeFailure
from .prte import load_prior

POLE_EPS = 1e-6
POLE_RETRIES = 10_000
N_ROWS = 20  # rows of every split of every task
ISO_NOISE = 0.1  # standard deviation of the isotherm targets' white noise
HYP_NOISE = 0.01  # and of the hyper-elastic targets'
OGDEN_ALPHAS = (1.75, 2.5)  # the ground truth's exponents and moduli, term by term
OGDEN_MUS = (1.5, 0.1)


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


def isotherm_rates(name: str) -> dict:
    """The exponential rate of each parameter of the named isotherm, in draw order."""
    if name not in _ISOTHERMS:
        raise InputError(f"unknown isotherm '{name}'; expected one of {ISOTHERM_NAMES}")
    _, order, overrides, _ = _ISOTHERMS[name]
    return {param: overrides.get(param, _GENERAL_RATES[param]) for param in order}


def ogden_energy(l1, l2, l3) -> np.ndarray:
    """Two-term Ogden strain energy density on principal stretches."""
    w = np.zeros_like(np.asarray(l1, dtype=float))
    for mu, alpha in zip(OGDEN_MUS, OGDEN_ALPHAS):
        w = w + (mu / alpha) * (l1**alpha + l2**alpha + l3**alpha - 3.0)
    return w


def _splits(children, ranges, header, noise_sd, draw) -> dict:
    """One dataset per split of ``ranges`` (split -> input range), each drawn by a
    generator on its seed of ``children``: ``draw(rng, lo, hi, split)`` returns the
    noise-free columns and the meta, and white noise of sd ``noise_sd`` (none if 0)
    is added to the target, the last column."""
    out = {}
    for child, (split, (lo, hi)) in zip(children, ranges.items()):
        rng = np.random.default_rng(child)
        columns, meta = draw(rng, lo, hi, split)
        if noise_sd:
            columns = (*columns[:-1], columns[-1] + rng.normal(0.0, noise_sd, N_ROWS))
        out[split] = Dataset(header, columns, meta)
    return out


def gen_isotherm(name: str, seed: int, noise: bool = True) -> dict:
    """Four datasets (train, test1, test2, test3) of the named isotherm with
    parameters drawn once from its priors.  Inputs within POLE_EPS of a pole
    denominator are redrawn.  Each split's meta holds ``params``, the drawn
    parameters, and ``resampled``, the count of redrawn inputs."""
    rates = isotherm_rates(name)
    formula, _, _, pole = _ISOTHERMS[name]
    children = np.random.SeedSequence(seed).spawn(5)
    param_rng = np.random.default_rng(children[0])
    params = {param: float(param_rng.exponential(1.0 / rate)) for param, rate in rates.items()}

    def draw(rng, lo, hi, split):
        c = rng.uniform(lo, hi, N_ROWS)
        resampled = 0
        if pole is not None:
            for _ in range(POLE_RETRIES):
                bad = np.abs(pole(params, c)) < POLE_EPS
                if not bad.any():
                    break
                resampled += int(bad.sum())
                c[bad] = rng.uniform(lo, hi, int(bad.sum()))
            else:
                raise RuntimeFailure(f"{name}/{split}: cannot avoid pole")
        return (c, formula(params, c)), {"params": dict(params), "resampled": resampled}

    return _splits(children[1:], _ISO_RANGES, ("c", "s"), ISO_NOISE if noise else 0.0, draw)


def gen_hyperelastic(seed: int, noise: bool = True) -> dict:
    """Four datasets of principal stretches and noisy strain energy density; meta {}."""
    def draw(rng, lo, hi, split):
        l1, l2, l3 = (rng.uniform(lo, hi, N_ROWS) for _ in range(3))
        return (l1, l2, l3, ogden_energy(l1, l2, l3)), {}

    return _splits(np.random.SeedSequence(seed).spawn(4), _HYP_RANGES, ("l1", "l2", "l3", "w"),
                   HYP_NOISE if noise else 0.0, draw)


# -- shipped priors -----------------------------------------------------------------


def prior_documents() -> dict:
    """The JSON document of every prior shipped with the package, keyed by
    its declared name, which its file name does not give (``E_1`` is in
    ``e1.json``).  Reading them analyses no prior; ``load_prior`` builds one."""
    root = importlib.resources.files("treegress") / "priors"
    docs = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            docs[doc["name"]] = doc
    return docs


def prior_library() -> dict:
    """All priors shipped with the package, keyed by their declared name."""
    return {name: load_prior(doc) for name, doc in prior_documents().items()}


# -- metrics --------------------------------------------------------------------------


def rmse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise LengthMismatch(
            f"prediction shape {predictions.shape} vs target shape {targets.shape}"
        )
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))
