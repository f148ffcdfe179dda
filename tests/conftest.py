import importlib.resources
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from treegress.prte import load_prior

_PRIOR_DIR = importlib.resources.files("treegress") / "priors"

# hypothesis keeps its caches in a directory removed at exit, not in the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="treegress-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def shipped_prior(stem):
    return load_prior(str(_PRIOR_DIR / f"{stem}.json"))


@pytest.fixture(scope="session")
def e1():
    return shipped_prior("e1")


@pytest.fixture(scope="session")
def e_sum():
    return shipped_prior("e_sum")


@pytest.fixture(scope="session")
def e_iso():
    return shipped_prior("e_iso")


@pytest.fixture(scope="session")
def e_hyp():
    return shipped_prior("e_hyp")


@pytest.fixture(scope="session")
def all_shipped():
    return {
        stem: shipped_prior(stem)
        for stem in ["e1", "e_sum", "e_iso", "e_hyp", "e_hook", "e_mrs", "e_grm"]
    }
