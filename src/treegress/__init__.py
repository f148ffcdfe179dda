"""Symbolic regression over tree languages with probabilistic regular tree
expression priors.

Workflow: write a prior as a tree expression (or pick one from
``experiments.prior_library``), compile it to a tree automaton, and run the
reversible-jump sampler against tabular data.  See the README for the
command-line equivalents.
"""

from .errors import TreegressError
from .experiments import (
    Dataset,
    gen_hyperelastic,
    gen_isotherm,
    prior_library,
    rmse,
)
from .inference import (
    ChainState,
    McmcConfig,
    Posterior,
    expand_params,
    posterior_predict,
    run_chain,
    run_chains,
    shrink_params,
)
from .prte import (
    MarkerPrior,
    PriorSpec,
    build_prior,
    format_prte,
    load_prior,
    parse_prte,
    prte_density,
    sample_expression,
    sample_tree,
)
from .pta import Pta, compile_prior, context_marginal, product, pta_eval, sample_from_state
from .trees import (
    RankedAlphabet,
    RankedSymbol,
    SymbolicExpression,
    Tree,
    eval_expression,
    format_tree,
    parse_tree,
)

__version__ = "0.1.0"
