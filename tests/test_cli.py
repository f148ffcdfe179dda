"""End-to-end tests of the command-line surface: exit codes, output
stability, file formats."""

import importlib.resources
import json
import math

import numpy as np
import pytest

from treegress.cli import main
from treegress.inference import (
    Draw,
    McmcConfig,
    Posterior,
    posterior_from_json,
    posterior_to_json,
)
from treegress.prte import build_prior
from treegress.trees import SymbolicExpression, parse_tree

PRIORS = importlib.resources.files("treegress") / "priors"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse -----------------------------------------------------------------------

def test_parse_shipped_prior(capsys):
    code, out, err = run_cli(capsys, "parse", "--prior", str(PRIORS / "e_iso.json"))
    assert code == 0
    assert out.splitlines()[0].startswith("*(sT#, iter $x")


def test_parse_canonical_idempotent(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "parse", "--prior", str(PRIORS / "e_grm.json"))
    canonical = out.splitlines()[0]
    doc = json.loads((PRIORS / "e_grm.json").read_text())
    doc["expression"] = canonical
    again = tmp_path / "again.json"
    again.write_text(json.dumps(doc))
    code, out2, _ = run_cli(capsys, "parse", "--prior", str(again))
    assert code == 0
    assert out2.splitlines()[0] == canonical


def test_parse_bad_weights_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "expression": "choice{ 0.5: a, 0.6: b }"}))
    code, out, err = run_cli(capsys, "parse", "--prior", str(bad))
    assert code == 2
    assert json.loads(err.strip())["error"] == "WeightSumError"


MARKED = {"name": "t", "expression": "choice{ 1/2: k#, 1/2: b }",
          "markers": {"k#": {"dist": "exp", "rate": 1.0}}}


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("prior", 5, "one JSON object"),
        ("prior", {**MARKED, "expression": 5}, "'expression'"),
        ("prior", {**MARKED, "max_depth": "deep"}, "'max_depth'"),
        ("prior", {**MARKED, "markers": [1]}, "'markers'"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "exp"}}},
         "marker 'k#': missing keys ['rate']"),
        ("prior", {**MARKED, "theta_d_support": ["a"]}, "theta_d_support"),
        ("prior", {**MARKED, "shared": {"a#": 5}}, "key 'shared' must be of type dict of dict"),
        ("prior", {**MARKED, "shared": {"k#": {"anchor": "+"}}},
         "shared tag 'k#': missing keys ['rank']"),
        ("prior", {**MARKED, "variables": "ab"}, "'variables'"),
        ("prior", {**MARKED, "expression": "f(x#, x#)",
                   "markers": {"x#": {"dist": "exp", "rate": 1}},
                   "shared": {"y#": {"anchor": "zz", "rank": 2}}},
         "shared tags that are not declared markers: ['y#']"),
        ("prior", {**MARKED, "expression": "f(x#, x#)",
                   "markers": {"x#": {"dist": "exp", "rate": 1}},
                   "shared": {"x#": {"anchor": "zz", "rank": 2}}},
         "shared tags whose anchor no symbol of the expression has: ['x#']"),
        ("prior", {**MARKED, "expression": "f(x#, x#)",
                   "markers": {"x#": {"dist": "exp", "rate": 1}},
                   "shared": {"x#": {"anchor": "f", "rank": 1}}},
         "shared tags whose anchor no symbol of the expression has: ['x#']"),
        ("prior", {**MARKED, "variables": ["x", "2"]},
         "variables that name a number or a marker: ['2']"),
        ("prior", {**MARKED, "variables": ["k#"]},
         "variables that name a number or a marker: ['k#']"),
        ("prior", {**MARKED, "name": 5}, "'name'"),
        ("prior", {**MARKED, "max_depth": True}, "'max_depth'"),
        ("prior", {**MARKED, "max_depth": 2.7}, "'max_depth'"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": math.inf}}}, "finite"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": math.nan}}}, "finite"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": 1e-320}}},
         "exponential rate must be above 1 / sys.float_info.max"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "normal", "mean": 0, "stddev": math.nan}}},
         "finite"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "normal", "mean": math.inf, "stddev": 1}}},
         "finite"),
        ("config", [], "one JSON object"),
        ("config", {"tau": math.nan}, "tau must be finite"),
        ("config", {"train": 5}, "run config: key 'train' must be of type str"),
        ("config", {"prior": ["E_iso"]}, "run config: key 'prior' must be of type str"),
        ("config", {"out": None, "train": "x.csv"}, "run config: key 'out' must be of type str"),
        ("config", {"seed": -1}, "seed must be non-negative"),
        ("config", {"tau": 1e-310}, "tau at least"),
        # no float has the value, which fit would evaluate
        ("prior", {**MARKED, "theta_d_support": ["1/2", "1e400"]}, "theta_d_support"),
        ("prior", {**MARKED, "theta_d_support": [10 ** 400]}, "theta_d_support"),
        ("prior", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": 1, "mean": 3}}},
         "marker 'k#': unknown keys ['mean']"),
        ("prior", {**MARKED, "expression": "f(x#, x#)",
                   "markers": {"x#": {"dist": "exp", "rate": 1}},
                   "shared": {"x#": {"anchor": "f", "rank": 2, "depth": 1}}},
         "shared tag 'x#': unknown keys ['depth']"),
        ("prior", {**MARKED, "seed": 3}, "prior file: unknown keys ['seed']"),
    ],
    ids=["prior-not-object", "expression-5", "max-depth-deep", "markers-list", "exp-no-rate",
         "support-a", "shared-5", "anchor-no-rank", "variables-ab", "shared-undeclared",
         "anchor-unknown", "anchor-wrong-rank", "variable-number", "variable-marker", "name-5",
         "max-depth-true", "max-depth-2.7", "rate-inf", "rate-nan", "rate-1e-320", "stddev-nan",
         "mean-inf", "config-list", "tau-nan", "train-5", "prior-list", "out-null", "seed-negative",
         "tau-tiny", "support-1e400", "support-10**400", "marker-unknown-key", "anchor-unknown-key",
         "prior-unknown-key"],
)
def test_malformed_prior_or_run_config_exits_2(capsys, tmp_path, kind, doc, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    if kind == "prior":
        argv = ["parse", "--prior", str(path)]
    else:
        argv = ["fit", "--prior", "E_1", "--train", "x.csv", "--config", str(path),
                "--out", str(tmp_path / "p.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert message in doc["message"]


def test_parse_dump_pta(capsys, tmp_path):
    dump = tmp_path / "pta.json"
    code, out, _ = run_cli(
        capsys, "parse", "--prior", str(PRIORS / "e_sum.json"), "--dump-pta", str(dump)
    )
    assert code == 0
    doc = json.loads(dump.read_text())
    assert set(doc) == {"states", "initial", "transitions", "finals"}


# -- sample ----------------------------------------------------------------------

def test_sample_zero_lines(capsys):
    code, out, _ = run_cli(capsys, "sample", "--prior", "E_1", "--n", "0", "--seed", "1")
    assert code == 0
    assert out == ""


def test_sample_negative_count_exits_2(capsys):
    code, out, err = run_cli(capsys, "sample", "--prior", "E_1", "--n", "-1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "InputError"


# 10**20 is past sys.maxsize, the most chains SeedSequence.spawn takes
@pytest.mark.parametrize("chains", ["0", "-2", "100000000000000000000"])
def test_fit_nonpositive_chains_exits_2(capsys, tmp_path, chains):
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1}))
    out_path = tmp_path / "p.json"
    code, out, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(train), "--config", str(config),
        "--out", str(out_path), "--chains", chains,
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert "--chains" in doc["message"]
    assert not out_path.exists()


@pytest.mark.parametrize("where, error", [("directory", "IsADirectoryError"),
                                          ("missing-parent", "FileNotFoundError")])
def test_fit_bad_out_exits_2_before_running_the_chain(capsys, tmp_path, monkeypatch, where, error):
    def never(*args, **kwargs):
        raise AssertionError("run_chains was called")

    monkeypatch.setattr("treegress.cli.run_chains", never)
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 20_000, "samples": 10_000, "thin": 1}))
    out_path = tmp_path if where == "directory" else tmp_path / "absent" / "p.json"
    code, out, err = run_cli(capsys, "fit", "--prior", "E_iso", "--train", str(train),
                             "--config", str(config), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == error
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_sample_nonpositive_max_depth_exits_2(capsys, depth):
    code, out, err = run_cli(capsys, "sample", "--prior", "E_1", "--n", "1", "--max-depth", depth)
    assert code == 2
    assert out == ""
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert "max_depth" in doc["message"]


WIDE = {"name": "wide", "expression": "choice{ 1/2: f(a#, x), 1/2: x }"}


@pytest.mark.parametrize(
    "marker, lines",
    [
        ({"dist": "exp", "rate": 1e-308}, 2),
        ({"dist": "normal", "mean": 1e308, "stddev": 1e308}, 13),
    ],
    ids=["exp-rate-1e-308", "normal-1e308"],
)
def test_a_marker_draw_past_float_range_exits_2_and_names_it(capsys, tmp_path, marker, lines):
    # finite parameters whose draws can overflow: the lines before the draw are printed
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({**WIDE, "markers": {"a#": marker}}))
    code, out, err = run_cli(capsys, "sample", "--prior", str(prior), "--n", "20", "--seed", "1")
    assert code == 2
    assert len(out.splitlines()) == lines
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert "marker a# drew inf" in doc["message"] and marker["dist"] in doc["message"]


def test_fit_whose_start_draw_overflows_exits_2_without_a_trace(capsys, tmp_path):
    # a# + c overflows the squared error, so the start is redrawn until a# itself overflows
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"name": "wide", "expression": "+(a#, c)", "variables": ["c"],
                                 "markers": {"a#": {"dist": "normal", "mean": 1e308,
                                                    "stddev": 1e308}}}))
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1, "sigma0": 1.0}))
    out_path = tmp_path / "p.json"
    code, out, err = run_cli(
        capsys, "fit", "--prior", str(prior), "--train", str(train), "--config", str(config),
        "--out", str(out_path), "--seed", "0",
    )
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert "marker a#" in doc["message"] and "normal" in doc["message"]
    assert not out_path.exists()


def test_sample_deterministic(capsys):
    args = ("sample", "--prior", "E_iso", "--n", "5", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"expr", "theta_c", "theta_d"}


def test_sample_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("TREEGRESS_SEED", "77")
    _, out1, _ = run_cli(capsys, "sample", "--prior", "E_sum", "--n", "3")
    _, out2, _ = run_cli(capsys, "sample", "--prior", "E_sum", "--n", "3", "--seed", "77")
    assert out1 == out2


@pytest.mark.parametrize("command", ["sample", "gen-data", "fit", "report"])
def test_negative_seed_exits_2(capsys, tmp_path, command):
    (tmp_path / "train.csv").write_text("c,s\n1.0,2.0\n")
    (tmp_path / "c.json").write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1}))
    argv = {
        "sample": ["--prior", "E_1", "--n", "1"],
        "gen-data": ["--task", "hyperelastic", "--out-dir", str(tmp_path / "data")],
        "fit": ["--prior", "E_iso", "--train", str(tmp_path / "train.csv"),
                "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "p.json")],
        "report": ["--posterior", str(_hand_posterior(tmp_path)), "--data",
                   str(tmp_path / "train.csv"), "--out-dir", str(tmp_path / "rep"), "--with-noise"],
    }[command]
    code, out, err = run_cli(capsys, command, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InputError",
                               "message": "a seed must be non-negative, got -1"}


@pytest.mark.parametrize("value, message", [
    ("abc", "TREEGRESS_SEED must be an integer, got 'abc'"),
    ("-3", "a seed must be non-negative, got -3"),
])
def test_bad_env_seed_exits_2(capsys, monkeypatch, value, message):
    monkeypatch.setenv("TREEGRESS_SEED", value)
    code, out, err = run_cli(capsys, "sample", "--prior", "E_sum", "--n", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InputError", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--prior", "E_1", "--n", "1", "--seed", "abc"], "invalid int value: 'abc'"),
        (["sample", "--prior", "E_1", "--seed", "1"], "required: --n"),
        ([], "required: command"),
    ],
    ids=["seed-abc", "no-n", "no-command"],
)
def test_usage_error_exits_2_with_one_json_object(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1  # one line, one object
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert message in doc["message"]


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: treegress" in capsys.readouterr().out


def test_unknown_prior_exits_2(capsys):
    code, _, err = run_cli(capsys, "sample", "--prior", "nope", "--n", "1", "--seed", "0")
    assert code == 2
    assert "nope" in json.loads(err.strip())["message"]
    assert "known: E_1, E_GRM, E_MRS, E_hook, E_hyp, E_iso, E_sum" in json.loads(err.strip())["message"]


@pytest.mark.parametrize("command", [("sample", "--n", "1"), ("density", "--tree", "a")])
def test_a_library_prior_is_the_only_prior_built(capsys, monkeypatch, command):
    import treegress.prte as prte

    built = []

    def counted(name, *args, **kwargs):
        built.append(name)
        return build_prior(name, *args, **kwargs)

    monkeypatch.setattr(prte, "build_prior", counted)
    code, _, err = run_cli(capsys, command[0], "--prior", "E_1", *command[1:])
    assert code == 0, err
    assert built == ["E_1"]


# -- density ---------------------------------------------------------------------

def test_density_example_values(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--prior", "E_1", "--tree", "(g (g a))", "--via", "both"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("oracle: 1/48 ≈ 0.0208333333")
    diff = float(lines[2].split(": ")[1])
    assert diff <= 1e-9


def test_density_zero(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--prior", "E_1", "--tree", "(f b b)", "--via", "oracle"
    )
    assert code == 0
    assert out.strip() == "0"


def test_density_foreign_tree_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "density", "--prior", "E_1", "--tree", "(h a)", "--via", "both"
    )
    assert code == 2


# -- gen-data --------------------------------------------------------------------

def test_gen_data_langmuir(capsys, tmp_path):
    out_dir = tmp_path / "lang"
    code, out, _ = run_cli(
        capsys, "gen-data", "--task", "isotherm:langmuir", "--seed", "7",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    train = (out_dir / "train.csv").read_text()
    lines = train.splitlines()
    assert lines[0] == "c,s"
    assert len(lines) == 21


def test_gen_data_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "gen-data", "--task", "isotherm:toth", "--seed", "3", "--out-dir", str(a))
    run_cli(capsys, "gen-data", "--task", "isotherm:toth", "--seed", "3", "--out-dir", str(b))
    for split in ("train", "test1", "test2", "test3"):
        assert (a / f"{split}.csv").read_bytes() == (b / f"{split}.csv").read_bytes()


def test_gen_data_hyperelastic_header(capsys, tmp_path):
    out_dir = tmp_path / "hyp"
    code, _, _ = run_cli(
        capsys, "gen-data", "--task", "hyperelastic", "--seed", "1", "--out-dir", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "train.csv").read_text().splitlines()[0] == "l1,l2,l3,w"


def test_gen_data_unknown_task(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen-data", "--task", "pendulum", "--seed", "1", "--out-dir", str(tmp_path)
    )
    assert code == 2


# -- fit -------------------------------------------------------------------------

def test_paper_scale_config_accepted():
    McmcConfig(burn_in=10_000, samples=5_000, thin=100)


@pytest.fixture()
def fitted(capsys, tmp_path):
    data_dir = tmp_path / "data"
    run_cli(capsys, "gen-data", "--task", "isotherm:langmuir", "--seed", "7",
            "--out-dir", str(data_dir))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "burn_in": 300, "samples": 300, "thin": 10, "seed": 5,
    }))
    out = tmp_path / "posterior.json"
    code, stdout, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(data_dir / "train.csv"),
        "--config", str(config), "--out", str(out),
    )
    assert code == 0, err
    return tmp_path, data_dir, config, out, stdout


def test_fit_outputs(fitted):
    tmp_path, data_dir, config, out, stdout = fitted
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "seed", "draws", "accept_stats"}
    assert len(doc["draws"]) == 30
    assert "sigma_mean:" in stdout
    assert "accept[global]:" in stdout
    assert stdout.count("top:") <= 5


def test_fit_deterministic(capsys, fitted):
    tmp_path, data_dir, config, out, _ = fitted
    out2 = tmp_path / "posterior2.json"
    code, _, _ = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(data_dir / "train.csv"),
        "--config", str(config), "--out", str(out2),
    )
    assert code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_fit_rejects_unknown_config_keys(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 10, "walkers": 5}))
    code, _, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", "x.csv",
        "--config", str(config), "--out", str(tmp_path / "p.json"),
    )
    assert code == 2
    assert "walkers" in json.loads(err.strip())["message"]


@pytest.mark.parametrize(
    "body, message",
    [
        ("c,s\n", "has no rows"),
        ("c,s\n1.0,2.0\n2.0,nan\n", "line 3 holds a non-finite cell"),
        ("z,s\n1.0,2.0\n", "do not match prior variables"),
    ],
)
def test_fit_rejects_unusable_train_csv(capsys, tmp_path, body, message):
    train = tmp_path / "train.csv"
    train.write_text(body)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1}))
    code, _, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(train),
        "--config", str(config), "--out", str(tmp_path / "p.json"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert message in doc["message"]


@pytest.mark.parametrize("sigma0", [1e-200, 1e200])
def test_fit_sigma0_out_of_float_range_exits_2(capsys, tmp_path, sigma0):
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1, "sigma0": sigma0}))
    code, out, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(train), "--config", str(config),
        "--out", str(tmp_path / "p.json"),
    )
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert "sigma0" in doc["message"]


@pytest.mark.parametrize("lambda_sigma", [1e308, 1e200, 1e160])
def test_fit_sigma_drawn_out_of_float_range_exits_2(capsys, tmp_path, lambda_sigma):
    # sigma ~ Exp(lambda_sigma) lands where the likelihood's sigma squared
    # underflows: an input error naming the fix, before any expression is drawn
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1,
                                  "lambda_sigma": lambda_sigma}))
    code, out, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(train), "--config", str(config),
        "--out", str(tmp_path / "p.json"),
    )
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert "lambda_sigma" in doc["message"] and "sigma0" in doc["message"]


def test_fit_overflowing_parameter_step_aborts_the_move(capsys, tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 50, "samples": 10, "thin": 1, "step_theta": 1e308}))
    out_path = tmp_path / "p.json"
    code, _, err = run_cli(
        capsys, "fit", "--prior", "E_iso", "--train", str(train), "--config", str(config),
        "--out", str(out_path),
    )
    assert code == 0, err
    assert err == ""
    assert json.loads(out_path.read_text())["accept_stats"]["params"]["aborted"] > 0


def test_fit_with_no_finite_start_exits_3_and_writes_an_empty_trace(capsys, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"name": "ratio", "expression": "/(a#, c)", "variables": ["c"],
                                 "markers": {"a#": {"dist": "exp", "rate": 1.0}}}))
    train = tmp_path / "train.csv"
    train.write_text("c,s\n0.0,1.0\n0.0,2.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 1, "samples": 10, "thin": 1}))
    out_path = tmp_path / "p.json"
    code, out, err = run_cli(
        capsys, "fit", "--prior", str(prior), "--train", str(train), "--config", str(config),
        "--out", str(out_path),
    )
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "RuntimeFailure",
        "message": "inference stopped after 0 draws: no prior draw evaluates finitely on the data",
    }
    trace = json.loads(out_path.read_text())
    assert trace["draws"] == [] and trace["config"]["max_depth"] == 50  # the prior's depth


# -- report ----------------------------------------------------------------------

def test_report_from_fit(capsys, fitted):
    tmp_path, data_dir, config, out, _ = fitted
    report_dir = tmp_path / "report"
    code, stdout, err = run_cli(
        capsys, "report", "--posterior", str(out),
        "--data", str(data_dir / "test1.csv"), str(data_dir / "test3.csv"),
        "--out-dir", str(report_dir),
    )
    assert code == 0, err
    metrics = (report_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "dataset,rmse_mean,rmse_std,dropped_draws"
    assert len(metrics) == 3
    bands = (report_dir / "bands.csv").read_text().splitlines()
    header = bands[0].split(",")
    q05, q50, q95 = header.index("q05"), header.index("q50"), header.index("q95")
    for row in bands[1:]:
        cells = row.split(",")
        if cells[-1] == "0":
            assert float(cells[q05]) <= float(cells[q50]) <= float(cells[q95])


def test_report_exact_posterior_zero_rmse(capsys, tmp_path):
    # a posterior holding only the generating expression on noiseless data
    tree = parse_tree("(* 2 c)")
    expr = SymbolicExpression(tree)
    post = Posterior(
        (Draw(expr, 0.1, -1.0),), {}, McmcConfig(burn_in=1, samples=10, thin=1)
    )
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(post))
    c = np.linspace(1, 5, 8)
    data_path = tmp_path / "exact.csv"
    data_path.write_text(
        "c,s\n" + "".join(f"{repr(float(x))},{repr(float(2 * x))}\n" for x in c)
    )
    report_dir = tmp_path / "rep"
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(report_dir),
    )
    assert code == 0, err
    row = (report_dir / "metrics.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == 0.0


def test_report_hand_computed_three_draws(capsys, tmp_path):
    draws = tuple(
        Draw(SymbolicExpression(parse_tree("c#"), theta_c=(v,)), 0.1, -1.0)
        for v in (1.0, 2.0, 3.0)
    )
    post = Posterior(draws, {}, McmcConfig(burn_in=1, samples=10, thin=1))
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(post))
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n1.0,2.0\n")
    report_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(report_dir),
    )
    assert code == 0
    row = (report_dir / "metrics.csv").read_text().splitlines()[1].split(",")
    # per-draw rmse on the single point: 1, 0, 1
    assert float(row[1]) == pytest.approx(2 / 3)
    assert float(row[2]) == pytest.approx(math.sqrt(2 / 9))


def test_report_reads_the_writer_layout_and_compact_json_alike(capsys, fitted):
    # the fit's draws, then a run of one state whose zero changes sign in its middle
    tmp_path, data_dir, _, out, _ = fitted
    fit = posterior_from_json(out.read_text())
    d = Draw(SymbolicExpression(parse_tree("(+ c# (* c# c))"), theta_c=(-0.0, 0.5)), 0.1, -1.0)
    e = Draw(SymbolicExpression(d.expr.tree, theta_c=(0.0, 0.5)), 0.1, -1.0)
    post = Posterior(fit.draws + (d, d, e, d, d), fit.accept_stats, fit.config)
    writer = posterior_to_json(post)
    outputs = []
    for name, text in (("writer", writer), ("compact", json.dumps(json.loads(writer)))):
        post_path, report_dir = tmp_path / f"{name}.json", tmp_path / name
        post_path.write_text(text)
        code, _, err = run_cli(
            capsys, "report", "--posterior", str(post_path),
            "--data", str(data_dir / "test1.csv"), str(data_dir / "test3.csv"),
            "--out-dir", str(report_dir),
        )
        assert code == 0, err
        outputs.append([(report_dir / f).read_bytes() for f in ("metrics.csv", "bands.csv")])
    assert outputs[0] == outputs[1]
    signs = [math.copysign(1, x.expr.theta_c[0]) for x in posterior_from_json(writer).draws[-5:]]
    assert signs == [-1, -1, 1, -1, -1]


def test_report_flags_dead_points(capsys, tmp_path):
    expr = SymbolicExpression(parse_tree("(/ 1 c)"))
    post = Posterior(
        (Draw(expr, 0.1, -1.0),), {}, McmcConfig(burn_in=1, samples=10, thin=1)
    )
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(post))
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n0.0,1.0\n2.0,0.5\n")
    report_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(report_dir),
    )
    assert code == 0
    rows = [r.split(",") for r in (report_dir / "bands.csv").read_text().splitlines()[1:]]
    flagged = {float(r[1]): r[-1] for r in rows}
    assert flagged[0.0] == "1"
    assert flagged[2.0] == "0"


def _hand_posterior(tmp_path, config=None):
    draws = tuple(
        Draw(SymbolicExpression(parse_tree("(* c# c)"), theta_c=(v,)), 0.1, -1.0)
        for v in (1.0, 2.0, 1.0, 1.0)
    )
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(Posterior(draws, {}, McmcConfig())))
    if config is not None:
        doc = json.loads(post_path.read_text())
        doc["config"].update(config)
        post_path.write_text(json.dumps(doc))
    return post_path


@pytest.mark.parametrize(
    "body, message",
    [
        ("c,s\n1.0,2.0\n3.0\n", "line 3 has 1 cells"),
        ("c,s\n1.0,2.0\n3.0,4.0,5.0\n", "line 3 has 3 cells"),
        ("c,s\n1.0,abc\n", "line 2 holds a non-numeric cell"),
        ("c,c,s\n1.0,2.0,3.0\n", "the header repeats the column 'c'"),
    ],
)
def test_malformed_csv_exits_2(capsys, tmp_path, body, message):
    data_path = tmp_path / "d.csv"
    data_path.write_text(body)
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert message in doc["message"]


def test_posterior_with_unknown_config_key_exits_2(capsys, tmp_path):
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n1.0,2.0\n")
    post_path = _hand_posterior(tmp_path, config={"walkers": 5})
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert "walkers" in doc["message"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["config"].update(burn_in="x"), "burn_in"),
        (lambda doc: doc.pop("draws"), "draws"),
        (lambda doc: doc.pop("config"), "config"),
        (lambda doc: doc.update(draws={}), "'draws' must be of type list"),
        (lambda doc: doc.update(seed="x"), "'seed' must be of type int"),
        (lambda doc: doc.update(diagnostics={}), "posterior: unknown keys ['diagnostics']"),
        (lambda doc: doc.update(seed=-3), "'seed' -3 is not its config's seed 0"),
        (lambda doc: doc.update(seed=1, config={**doc["config"], "seed": 99}),
         "'seed' 1 is not its config's seed 99"),
        (lambda doc: doc["draws"][1].pop("sigma"), "draw 1 is not an object whose"),
        (lambda doc: doc["draws"].__setitem__(2, 5), "draw 2 is not an object whose"),
        (lambda doc: doc["draws"][3].update(theta_c="1.0"), "draw 3 is not an object whose"),
        (lambda doc: doc["draws"][0].update(log_post=None), "draw 0 is not an object whose"),
        (lambda doc: doc["draws"][1].update(sigma=True), "draw 1 is not an object whose"),
        (lambda doc: doc["draws"][2].update(ties=[0.0]), "draw 2 is not an object whose"),
        (lambda doc: doc["draws"][3].update(ties=[-1], theta_c=[]), "draw 3: tie groups"),
        (lambda doc: doc["draws"][0].update(theta_c=[True]), "draw 0 is not an object whose"),
        (lambda doc: doc["draws"][1].update(theta_d=[1]), "draw 1 is not an object whose"),
        (lambda doc: doc["draws"][1].update(theta_d=["x"]), "draw 1: "),
        (lambda doc: doc["draws"][2].update(expr="(* c#"), "draw 2: "),
        (lambda doc: doc["draws"][3].update(theta_c=[]), "draw 3: "),
        (lambda doc: doc["draws"][0].update(sigma=0.0), "draw 0: sigma must be positive and finite"),
        (lambda doc: doc["draws"][1].update(sigma=-0.1), "draw 1: sigma must be positive and finite"),
        (lambda doc: doc["draws"][2].update(sigma=math.nan),
         "draw 2: sigma must be positive and finite"),
        (lambda doc: doc["draws"][3].update(sigma=math.inf),
         "draw 3: sigma must be positive and finite"),
        (lambda doc: doc["draws"].__setitem__(0, None), "draw 0 is not an object whose"),
        (lambda doc: doc["draws"][3].update(extra=1), "draw 3 is not an object whose only keys"),
    ],
)
def test_malformed_posterior_exits_2(capsys, tmp_path, edit, message):
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n1.0,2.0\n")
    post_path = _hand_posterior(tmp_path)
    doc = json.loads(post_path.read_text())
    edit(doc)
    errors = []
    # compact, and in the writer's layout, which the reader splits at its draws
    for indent in (None, 2):
        post_path.write_text(json.dumps(doc, indent=indent))
        code, _, err = run_cli(
            capsys, "report", "--posterior", str(post_path),
            "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
        )
        assert code == 2
        errors.append(json.loads(err.strip()))
    assert errors[0] == errors[1]
    assert errors[0]["error"] == "InputError"
    assert message in errors[0]["message"]


@pytest.mark.parametrize(
    "command, option, bad, error",
    [
        ("parse", "--prior", "folder", "IsADirectoryError"),
        ("fit", "--train", "folder", "IsADirectoryError"),
        ("fit", "--out", "folder", "IsADirectoryError"),
        ("report", "--posterior", "folder", "IsADirectoryError"),
        ("report", "--out-dir", "file", "FileExistsError"),
        ("gen-data", "--out-dir", "file/sub", "NotADirectoryError"),
        ("parse", "--prior", "latin-1", "UnicodeDecodeError"),
        ("fit", "--train", "latin-1", "UnicodeDecodeError"),
        ("fit", "--config", "latin-1", "UnicodeDecodeError"),
        ("report", "--posterior", "latin-1", "UnicodeDecodeError"),
        ("report", "--data", "latin-1", "UnicodeDecodeError"),
    ],
)
def test_a_directory_file_or_non_utf8_input_exits_2(capsys, tmp_path, command, option, bad, error):
    paths = {"folder": tmp_path / "folder", "file": tmp_path / "d.csv",
             "file/sub": tmp_path / "d.csv" / "sub", "latin-1": tmp_path / "latin-1.txt"}
    paths["folder"].mkdir()
    paths["file"].write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    paths["latin-1"].write_bytes("c,s\n1.0,2.0\n# é\n".encode("latin-1"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"burn_in": 0, "samples": 2, "thin": 1}))
    options = {
        "parse": {"--prior": PRIORS / "e_iso.json"},
        "fit": {"--prior": "E_iso", "--train": paths["file"], "--config": config,
                "--out": tmp_path / "p.json"},
        "report": {"--posterior": _hand_posterior(tmp_path), "--data": paths["file"],
                   "--out-dir": tmp_path / "rep"},
        "gen-data": {"--task": "isotherm:langmuir", "--out-dir": tmp_path / "data"},
    }[command]
    options[option] = paths[bad]
    code, _, err = run_cli(capsys, command, *(str(x) for kv in options.items() for x in kv))
    assert code == 2
    assert json.loads(err.strip())["error"] == error


NEST = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", ['{"a": ' + NEST + "}", '{"name": "t",', "[1] 2",
                                  '{"seed": ' + "1" * 5000 + "}"],
                         ids=["nested-100000-deep", "truncated", "two-values", "int-5000-digits"])
@pytest.mark.parametrize("command, option, kind",
                         [("parse", "--prior", "prior file"), ("fit", "--config", "run config"),
                          ("report", "--posterior", "posterior")])
def test_json_text_that_does_not_decode_exits_2(capsys, tmp_path, command, option, kind, text):
    (tmp_path / "train.csv").write_text("c,s\n1.0,2.0\n")
    options = {
        "parse": {},
        "fit": {"--prior": "E_iso", "--train": tmp_path / "train.csv",
                "--out": tmp_path / "p.json"},
        "report": {"--data": tmp_path / "train.csv", "--out-dir": tmp_path / "rep"},
    }[command]
    (tmp_path / "in.json").write_text(text)
    options[option] = tmp_path / "in.json"
    code, out, err = run_cli(capsys, command, *(str(x) for kv in options.items() for x in kv))
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "InputError" and doc["message"].startswith(f"{kind}: cannot decode JSON (")


def test_a_full_disk_is_a_runtime_failure(capsys, tmp_path, monkeypatch):
    import errno
    import pathlib

    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", full)
    code, _, err = run_cli(capsys, "parse", "--prior", str(PRIORS / "e_iso.json"),
                           "--dump-pta", str(tmp_path / "pta.json"))
    assert code == 3
    assert json.loads(err.strip())["error"] == "OSError"


def test_report_evaluates_each_distinct_draw_once(capsys, tmp_path, monkeypatch):
    import treegress.cli
    import treegress.inference

    calls = []
    for module in (treegress.cli, treegress.inference):
        real = module.eval_expression
        monkeypatch.setattr(
            module, "eval_expression",
            lambda expr, inputs, real=real: calls.append(expr.theta_c) or real(expr, inputs),
        )
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n1.0,2.0\n2.0,4.0\n")
    code, _, _ = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 0
    # two distinct draws among four, each evaluated once: the RMSE reads the
    # columns the bands evaluated
    assert sorted(calls) == [(1.0,), (2.0,)]
    row = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()[1].split(",")
    # per-draw rmse: sqrt(2.5) for each of the three c# = 1 draws, 0 for c# = 2
    assert float(row[1]) == pytest.approx(0.75 * math.sqrt(2.5))


def test_report_keys_each_draw_once(capsys, tmp_path, monkeypatch):
    import treegress.cli
    import treegress.inference

    assert not hasattr(treegress.cli, "eval_key")  # the posterior decides which draws agree
    calls = []
    real = treegress.inference.eval_key
    monkeypatch.setattr(treegress.inference, "eval_key",
                        lambda expr: calls.append(expr) or real(expr))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("c,s\n1.0,2.0\n2.0,4.0\n")
    second.write_text("c,s\n3.0,6.0\n")
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", str(first), str(second), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 0, err
    # once per draw object over both datasets: the fourth entry repeats the
    # third, so the loaded posterior holds it as that draw, whose index it keeps
    assert len(calls) == 3


def test_report_writes_every_dataset_in_the_first_header_order(capsys, tmp_path, e_hyp):
    from treegress.experiments import gen_hyperelastic
    from treegress.prte import sample_expression

    rng = np.random.default_rng(3)
    draws = tuple(Draw(sample_expression(e_hyp, rng), 0.1, -1.0) for _ in range(3))
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(Posterior(draws, {}, McmcConfig())))
    first = tmp_path / "test1.csv"
    gen_hyperelastic(seed=7)["test1"].to_csv(first)
    rows = [line.split(",") for line in first.read_text().splitlines()]
    l1, l2 = rows[0].index("l1"), rows[0].index("l2")
    for row in rows:
        row[l1], row[l2] = row[l2], row[l1]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(",".join(row) + "\n" for row in rows))
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(first), str(swapped), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 0, err
    bands = (tmp_path / "rep" / "bands.csv").read_text().splitlines()
    assert bands[0].startswith("dataset,l1,l2,l3,")
    ours = [row.split(",", 1) for row in bands[1:]]
    assert [rest for name, rest in ours if name == "test1"] == \
        [rest for name, rest in ours if name == "swapped"]
    assert len(ours) == 2 * (len(rows) - 1)


@pytest.mark.parametrize(
    "second, message",
    [("c,s\n1.0,2.0\n", "input columns ['c'] differ"),
     ("s\n1.0\n", "input columns [] differ")],
)
def test_report_other_input_columns_exit_2(capsys, tmp_path, second, message):
    first, other = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("c,d,s\n1.0,1.0,2.0\n")
    other.write_text(second)
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", str(first), str(other), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert message in doc["message"]


@pytest.mark.parametrize("header", ["c,s\n", "c,s\n\n"])
@pytest.mark.parametrize("first", [False, True])
def test_report_data_without_rows_exits_2(capsys, tmp_path, monkeypatch, header, first):
    import treegress.inference

    empty = tmp_path / "empty.csv"
    empty.write_text(header)
    data = [empty]
    if first:  # a dataset with rows before it
        data.insert(0, tmp_path / "a.csv")
        data[0].write_text("c,s\n1.0,2.0\n")
    else:  # rejected before any expression is evaluated
        monkeypatch.setattr(treegress.inference, "eval_expression",
                            lambda expr, inputs: pytest.fail("evaluated an expression"))
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", *map(str, data), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert doc["message"] == f"{empty} has no rows"


def test_report_target_only_csv_exits_2(capsys, tmp_path):
    post = Posterior((Draw(SymbolicExpression(parse_tree("(* 2 3)")), 0.1, -1.0),), {},
                     McmcConfig())
    post_path = tmp_path / "p.json"
    post_path.write_text(posterior_to_json(post))
    data_path = tmp_path / "d.csv"
    data_path.write_text("s\n6.0\n6.0\n")
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert "no input columns" in doc["message"]


@pytest.mark.parametrize("depth, code", [(300, 0), (600, 2)])
def test_parse_deeply_nested_prior(capsys, tmp_path, depth, code):
    path = tmp_path / "deep.json"
    expression = "f(" * depth + "a" + ")" * depth
    path.write_text(json.dumps({"name": "deep", "expression": expression, "max_depth": depth}))
    got, out, err = run_cli(capsys, "parse", "--prior", str(path))
    assert got == code, err
    if code:
        doc = json.loads(err.strip())
        assert doc["error"] == "InputError"
        assert "nests too deeply" in doc["message"]
    else:
        assert out.splitlines()[0] == "f(" * depth + "a" + ")" * depth


def _chain_prior(tmp_path, height, **doc):
    """A prior file whose one tree, 1 + (1 + ... (1 + c)), is ``height`` deep."""
    path = tmp_path / f"chain{height}.json"
    expression = "+(1, " * height + "c" + ")" * height
    path.write_text(json.dumps({"name": "chain", "expression": expression, "variables": ["c"], **doc}))
    return path


def _assert_too_deep(code, out, err, max_depth):
    assert (code, out) == (2, ""), err
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert f"beyond max_depth {max_depth}" in doc["message"]


@pytest.mark.parametrize("height, max_depth", [(50, None), (51, None), (60, 60), (61, 60), (3, 3), (4, 3)])
def test_parse_rejects_a_prior_deeper_than_max_depth(capsys, tmp_path, height, max_depth):
    doc = {} if max_depth is None else {"max_depth": max_depth}
    code, out, err = run_cli(capsys, "parse", "--prior", str(_chain_prior(tmp_path, height, **doc)))
    if height <= (max_depth or 50):
        assert code == 0, err
    else:
        _assert_too_deep(code, out, err, max_depth or 50)


@pytest.mark.parametrize("max_depth", [3, 4, 2])
def test_sample_max_depth_below_the_prior_height_exits_2(capsys, tmp_path, max_depth):
    prior = str(_chain_prior(tmp_path, 3))
    code, out, err = run_cli(capsys, "sample", "--prior", prior, "--n", "2", "--max-depth", str(max_depth))
    if max_depth >= 3:
        assert code == 0, err
        assert [json.loads(line)["expr"] for line in out.splitlines()] == ["(+ 1 (+ 1 (+ 1 c)))"] * 2
    else:
        _assert_too_deep(code, out, err, max_depth)


@pytest.mark.parametrize("max_depth", [3, 2])
def test_fit_max_depth_below_the_prior_height_exits_2(capsys, tmp_path, max_depth):
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,4.0\n2.0,5.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"burn_in": 5, "samples": 5, "thin": 1, "max_depth": max_depth}))
    out_path = tmp_path / "posterior.json"
    code, out, err = run_cli(
        capsys, "fit", "--prior", str(_chain_prior(tmp_path, 3)), "--train", str(train),
        "--config", str(config), "--out", str(out_path),
    )
    if max_depth >= 3:
        assert code == 0, err
        assert {d["expr"] for d in json.loads(out_path.read_text())["draws"]} == {"(+ 1 (+ 1 (+ 1 c)))"}
    else:
        _assert_too_deep(code, out, err, max_depth)
        assert not out_path.exists()


def _depth(text):
    return max(len(addr) for addr, _ in parse_tree(text).walk())


def test_fit_and_sample_keep_the_prior_files_max_depth(capsys, tmp_path):
    prior = tmp_path / "comb.json"
    prior.write_text(json.dumps({"name": "comb", "variables": ["c"], "max_depth": 2,
                                 "expression": "iter $x { choice{ 1/2: +(c, $x), 1/2: c } }"}))
    code, out, err = run_cli(capsys, "sample", "--prior", str(prior), "--n", "200", "--seed", "0")
    assert code == 0, err
    assert max(_depth(json.loads(line)["expr"]) for line in out.splitlines()) == 2
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,4.0\n2.0,5.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"burn_in": 200, "samples": 400, "thin": 2}))
    out_path = tmp_path / "posterior.json"
    code, out, err = run_cli(capsys, "fit", "--prior", str(prior), "--train", str(train),
                             "--config", str(config), "--out", str(out_path))
    assert code == 0, err
    doc = json.loads(out_path.read_text())
    assert doc["config"]["max_depth"] == 2  # the depth the fit used
    assert max(_depth(d["expr"]) for d in doc["draws"]) == 2


@pytest.mark.parametrize("route", ["prior file", "sample --max-depth", "run config"])
def test_a_max_depth_past_the_recursion_cap_exits_2(capsys, tmp_path, route):
    comb = {"name": "comb", "expression": "iter $x { choice{ 999/1000: +(f, $x), 1/1000: f } }",
            "max_depth": 100_000 if route == "prior file" else 50}
    prior = tmp_path / "comb.json"
    prior.write_text(json.dumps(comb))
    out_path = tmp_path / "posterior.json"
    if route == "run config":
        train = tmp_path / "train.csv"
        train.write_text("s\n1.0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"burn_in": 5, "samples": 5, "thin": 1, "max_depth": 100_000}))
        argv = ["fit", "--prior", str(prior), "--train", str(train), "--config", str(config),
                "--out", str(out_path)]
    else:
        argv = ["sample", "--prior", str(prior), "--n", "3", "--seed", "2"]
        argv += ["--max-depth", "100000"] if route == "sample --max-depth" else []
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, ""), err
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError" and "max_depth must be between 1 and 400" in doc["message"]
    assert not out_path.exists()
