"""End-to-end tests of the command-line surface: exit codes, output
stability, file formats.  Malformed inputs are table rows, at the end of
this file, that one runner checks."""

import importlib.resources
import json
import math
import shlex

import numpy as np
import pytest

from treegress.cli import main
from treegress.errors import RuntimeFailure
from treegress.experiments import prior_library
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


def test_parse_dump_pta(capsys, tmp_path):
    dump = tmp_path / "pta.json"
    code, out, _ = run_cli(
        capsys, "parse", "--prior", str(PRIORS / "e_sum.json"), "--dump-pta", str(dump)
    )
    assert code == 0
    doc = json.loads(dump.read_text())
    assert set(doc) == {"states", "initial", "transitions", "finals"}


def test_parse_deeply_nested_prior(capsys, tmp_path):
    path = tmp_path / "deep.json"
    expression = "f(" * 300 + "a" + ")" * 300
    path.write_text(json.dumps({"name": "deep", "expression": expression, "max_depth": 300}))
    code, out, err = run_cli(capsys, "parse", "--prior", str(path))
    assert code == 0, err
    assert out.splitlines()[0] == expression


def _chain_prior(height, **doc):
    """A prior file whose one tree, 1 + (1 + ... (1 + c)), is ``height`` deep."""
    expression = "+(1, " * height + "c" + ")" * height
    return {"name": "chain", "expression": expression, "variables": ["c"], **doc}


@pytest.mark.parametrize("height, max_depth", [(50, None), (60, 60), (3, 3)])
def test_parse_takes_a_prior_as_deep_as_its_max_depth(capsys, tmp_path, height, max_depth):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_prior(height, **({} if max_depth is None else
                                                        {"max_depth": max_depth}))))
    code, _, err = run_cli(capsys, "parse", "--prior", str(path))
    assert code == 0, err


# -- sample ----------------------------------------------------------------------

def test_sample_zero_lines(capsys):
    code, out, _ = run_cli(capsys, "sample", "--prior", "E_1", "--n", "0", "--seed", "1")
    assert code == 0
    assert out == ""


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


@pytest.mark.parametrize("max_depth", [3, 4])
def test_sample_takes_a_max_depth_at_or_above_the_prior_height(capsys, tmp_path, max_depth):
    prior = tmp_path / "chain.json"
    prior.write_text(json.dumps(_chain_prior(3)))
    code, out, err = run_cli(capsys, "sample", "--prior", str(prior), "--n", "2",
                             "--max-depth", str(max_depth))
    assert code == 0, err
    assert [json.loads(line)["expr"] for line in out.splitlines()] == ["(+ 1 (+ 1 (+ 1 c)))"] * 2


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: treegress" in capsys.readouterr().out


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


def test_a_fit_stopped_in_its_second_chain_writes_the_first_chains_draws(
        capsys, tmp_path, monkeypatch):
    import treegress.inference

    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,2.0\n2.0,3.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"burn_in": 20, "samples": 30, "thin": 3, "seed": 4}))
    argv = ("fit", "--prior", "E_iso", "--train", str(train), "--config", str(config),
            "--chains", "2", "--out")
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "whole.json"))
    assert code == 0, err
    whole = json.loads((tmp_path / "whole.json").read_text())
    real, calls = treegress.inference._initial_state, []

    def second_cannot_start(ctx, rng):
        calls.append(rng)
        if len(calls) == 2:
            raise RuntimeFailure("the second chain cannot start")
        return real(ctx, rng)

    monkeypatch.setattr(treegress.inference, "_initial_state", second_cannot_start)
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "trace.json"))
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "RuntimeFailure",
        "message": "inference stopped after 10 draws: the second chain cannot start",
    }
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["draws"] == whole["draws"][:10] and trace["accept_stats"] == {}
    # the depth the run used: the prior's, as the config sets none
    assert trace["config"] == whole["config"]
    assert trace["config"]["max_depth"] == prior_library()["E_iso"].max_depth


def test_fit_takes_a_max_depth_at_the_prior_height(capsys, tmp_path):
    prior = tmp_path / "chain.json"
    prior.write_text(json.dumps(_chain_prior(3)))
    train = tmp_path / "train.csv"
    train.write_text("c,s\n1.0,4.0\n2.0,5.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"burn_in": 5, "samples": 5, "thin": 1, "max_depth": 3}))
    out_path = tmp_path / "posterior.json"
    code, out, err = run_cli(capsys, "fit", "--prior", str(prior), "--train", str(train),
                             "--config", str(config), "--out", str(out_path))
    assert code == 0, err
    assert {d["expr"] for d in json.loads(out_path.read_text())["draws"]} == {"(+ 1 (+ 1 (+ 1 c)))"}


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


# four draws of (* c# c), two of them distinct: c# = 1, 2, 1, 1
HAND = posterior_to_json(Posterior(tuple(
    Draw(SymbolicExpression(parse_tree("(* c# c)"), theta_c=(v,)), 0.1, -1.0)
    for v in (1.0, 2.0, 1.0, 1.0)), {}, McmcConfig()))


def _hand_posterior(tmp_path):
    post_path = tmp_path / "p.json"
    post_path.write_text(HAND)
    return post_path


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


@pytest.mark.parametrize("header", ["c,s\n", "c,s\n\n"])
def test_report_data_without_rows_exits_2_before_evaluating(capsys, tmp_path, monkeypatch, header):
    import treegress.inference

    monkeypatch.setattr(treegress.inference, "eval_expression",
                        lambda expr, inputs: pytest.fail("evaluated an expression"))
    empty = tmp_path / "empty.csv"
    empty.write_text(header)
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(_hand_posterior(tmp_path)),
        "--data", str(empty), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "InputError", "message": f"{empty} has no rows"}


# -- malformed input -------------------------------------------------------------
#
# One row per malformed input, in five tables by the input at fault (prior files
# and run configs, posteriors, JSON text that does not decode, a directory, file
# or encoding where another is expected, and the rest), each row checked by
# ``check_exits_2``.  A row is its id, its argv as one shell-quoted string in
# which "@/" is the test's directory, the files it writes there over BASE, the
# error class, a fragment of the message (or a tuple of fragments, "@/" again the
# directory), the stdout lines printed before the error, and the paths that must
# not exist after it.  A file holds text, bytes, a directory (DIR) or a JSON
# document; a row that writes a document runs once with each document compact and
# once in the writer's layout (indent 2), and both runs must print the same.

DIR = object()
BASE = {"train.csv": "c,s\n1.0,2.0\n2.0,3.0\n", "d.csv": "c,s\n1.0,2.0\n",
        "c.json": json.dumps({"burn_in": 1, "samples": 10, "thin": 1}), "post.json": HAND}
PARSE = "parse --prior @/prior.json"
FIT = "fit --prior E_iso --train @/train.csv --config @/c.json --out @/p.json"
REPORT = "report --posterior @/post.json --data @/d.csv --out-dir @/rep"
MARKED = {"name": "t", "expression": "choice{ 1/2: k#, 1/2: b }",
          "markers": {"k#": {"dist": "exp", "rate": 1.0}}}
TIED = {**MARKED, "expression": "f(x#, x#)", "markers": {"x#": {"dist": "exp", "rate": 1}}}
WIDE = {"name": "wide", "expression": "choice{ 1/2: f(a#, x), 1/2: x }"}
NEST = "[" * 100_000 + "]" * 100_000
LATIN_1 = "c,s\n1.0,2.0\n# é\n".encode("latin-1")
FINITE = "marker prior rate, mean and stddev must be finite"
COMB = {"name": "comb", "expression": "iter $x { choice{ 999/1000: +(f, $x), 1/1000: f } }",
        "max_depth": 50}


def row(id, argv, message, files=None, error="InputError", lines=0, absent=(), env=None):
    return pytest.param((argv, files or {}, error, message, lines, absent, env or {}), id=id)


def edited(edit):
    """The hand posterior's document after ``edit``."""
    doc = json.loads(HAND)
    edit(doc)
    return doc


PRIOR_FILES = [  # id, prior file, message
    ("prior-not-object", 5, "prior file: not one JSON object"),
    ("expression-5", {**MARKED, "expression": 5}, "key 'expression' must be of type str"),
    ("max-depth-deep", {**MARKED, "max_depth": "deep"}, "key 'max_depth' must be of type int"),
    ("markers-list", {**MARKED, "markers": [1]}, "key 'markers' must be of type dict of dict"),
    ("exp-no-rate", {**MARKED, "markers": {"k#": {"dist": "exp"}}},
     "marker 'k#': missing keys ['rate']"),
    ("support-a", {**MARKED, "theta_d_support": ["a"]},
     "theta_d_support: Invalid literal for Fraction: 'a'"),
    ("shared-5", {**MARKED, "shared": {"a#": 5}}, "key 'shared' must be of type dict of dict"),
    ("anchor-no-rank", {**MARKED, "shared": {"k#": {"anchor": "+"}}},
     "shared tag 'k#': missing keys ['rank']"),
    ("variables-ab", {**MARKED, "variables": "ab"}, "key 'variables' must be of type list of str"),
    ("shared-undeclared", {**TIED, "shared": {"y#": {"anchor": "zz", "rank": 2}}},
     "shared tags that are not declared markers: ['y#']"),
    ("anchor-unknown", {**TIED, "shared": {"x#": {"anchor": "zz", "rank": 2}}},
     "shared tags whose anchor no symbol of the expression has: ['x#']"),
    ("anchor-wrong-rank", {**TIED, "shared": {"x#": {"anchor": "f", "rank": 1}}},
     "shared tags whose anchor no symbol of the expression has: ['x#']"),
    ("variable-number", {**MARKED, "variables": ["x", "2"]},
     "variables that name a number or a marker: ['2']"),
    ("variable-marker", {**MARKED, "variables": ["k#"]},
     "variables that name a number or a marker: ['k#']"),
    ("name-5", {**MARKED, "name": 5}, "key 'name' must be of type str"),
    ("max-depth-true", {**MARKED, "max_depth": True}, "key 'max_depth' must be of type int"),
    ("max-depth-2.7", {**MARKED, "max_depth": 2.7}, "key 'max_depth' must be of type int"),
    ("rate-inf", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": math.inf}}}, FINITE),
    ("rate-nan", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": math.nan}}}, FINITE),
    ("rate-1e-320", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": 1e-320}}},
     "exponential rate must be above 1 / sys.float_info.max"),
    ("stddev-nan", {**MARKED, "markers": {"k#": {"dist": "normal", "mean": 0, "stddev": math.nan}}},
     FINITE),
    ("mean-inf", {**MARKED, "markers": {"k#": {"dist": "normal", "mean": math.inf, "stddev": 1}}},
     FINITE),
    # no float has the value, which fit would evaluate
    ("support-1e400", {**MARKED, "theta_d_support": ["1/2", "1e400"]}, "theta_d_support: "),
    ("support-10**400", {**MARKED, "theta_d_support": [10 ** 400]}, "theta_d_support: "),
    ("marker-unknown-key", {**MARKED, "markers": {"k#": {"dist": "exp", "rate": 1, "mean": 3}}},
     "marker 'k#': unknown keys ['mean']"),
    ("anchor-unknown-key", {**TIED, "shared": {"x#": {"anchor": "f", "rank": 2, "depth": 1}}},
     "shared tag 'x#': unknown keys ['depth']"),
    ("prior-unknown-key", {**MARKED, "seed": 3}, "prior file: unknown keys ['seed']"),
    ("nest-600", {"name": "deep", "expression": "f(" * 600 + "a" + ")" * 600, "max_depth": 600},
     "the expression nests too deeply to parse"),
    ("height-51", _chain_prior(51), "beyond max_depth 50"),
    ("height-61-max-depth-60", _chain_prior(61, max_depth=60), "beyond max_depth 60"),
    ("height-4-max-depth-3", _chain_prior(4, max_depth=3), "beyond max_depth 3"),
    ("max-depth-100000", {**COMB, "max_depth": 100_000}, "max_depth must be between 1 and 400"),
]
RUN_CONFIGS = [  # id, run config, message
    ("config-list", [], "run config: not one JSON object"),
    ("tau-nan", {"tau": math.nan}, "config field tau must be finite"),
    ("train-5", {"train": 5}, "run config: key 'train' must be of type str"),
    ("prior-list", {"prior": ["E_iso"]}, "run config: key 'prior' must be of type str"),
    ("out-null", {"out": None, "train": "x.csv"}, "run config: key 'out' must be of type str"),
    ("seed-negative", {"seed": -1}, "config field seed must be non-negative, got -1"),
    ("tau-tiny", {"tau": 1e-310},
     "config field tau must be at least 4.144200061469663e-306, got 1e-310"),
    ("config-walkers", {"burn_in": 10, "walkers": 5}, "run config: unknown keys ['walkers']"),
    ("sigma0-1e-200", {"burn_in": 1, "samples": 10, "thin": 1, "sigma0": 1e-200},
     "config field sigma0 must be positive with |log sigma0| <= 354.9, got 1e-200"),
    ("sigma0-1e200", {"burn_in": 1, "samples": 10, "thin": 1, "sigma0": 1e200},
     "config field sigma0 must be positive with |log sigma0| <= 354.9, got 1e+200"),
    # sigma ~ Exp(lambda_sigma) lands where the likelihood's sigma squared
    # underflows: an input error naming the fix, before any expression is drawn
    *((f"lambda-sigma-{v:g}", {"burn_in": 1, "samples": 10, "thin": 1, "lambda_sigma": v},
       ("lambda_sigma drew sigma ", ", out of float range: pin sigma0"))
      for v in (1e308, 1e200, 1e160)),
]
# edit of the hand posterior's document, message, and the fragment that names the
# row where it is not the message: "<lambda>-fragment", as pytest first named it
POSTERIOR_EDITS = [
    (lambda doc: doc["config"].update(burn_in="x"),
     "config field burn_in must be int, got 'x'", "burn_in"),
    (lambda doc: doc["config"].update(walkers=5),
     "posterior config: unknown keys ['walkers']", "walkers"),
    (lambda doc: doc.pop("draws"), "posterior: missing keys ['draws']", "draws"),
    (lambda doc: doc.pop("config"), "posterior: missing keys ['config']", "config"),
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
    (lambda doc: doc["draws"][3].update(ties=[-1], theta_c=[]),
     "draw 3: tie groups must be numbered by first occurrence", "draw 3: tie groups"),
    (lambda doc: doc["draws"][0].update(theta_c=[True]), "draw 0 is not an object whose"),
    (lambda doc: doc["draws"][1].update(theta_d=[1]), "draw 1 is not an object whose"),
    (lambda doc: doc["draws"][1].update(theta_d=["x"]),
     "draw 1: Invalid literal for Fraction: 'x'", "draw 1: "),
    (lambda doc: doc["draws"][2].update(expr="(* c#"), "draw 2: missing ')'", "draw 2: "),
    (lambda doc: doc["draws"][3].update(theta_c=[]),
     "draw 3: 1 marker groups but 0 continuous parameters", "draw 3: "),
    (lambda doc: doc["draws"][0].update(sigma=0.0), "draw 0: sigma must be positive and finite"),
    (lambda doc: doc["draws"][1].update(sigma=-0.1), "draw 1: sigma must be positive and finite"),
    (lambda doc: doc["draws"][2].update(sigma=math.nan),
     "draw 2: sigma must be positive and finite"),
    (lambda doc: doc["draws"][3].update(sigma=math.inf),
     "draw 3: sigma must be positive and finite"),
    (lambda doc: doc["draws"].__setitem__(0, None), "draw 0 is not an object whose"),
    (lambda doc: doc["draws"][3].update(extra=1), "draw 3 is not an object whose only keys"),
]
DATA_FILES = [  # id, report --data file, message
    ("csv-short-line", "c,s\n1.0,2.0\n3.0\n", "@/d.csv: line 3 has 1 cells, the header has 2"),
    ("csv-long-line", "c,s\n1.0,2.0\n3.0,4.0,5.0\n",
     "@/d.csv: line 3 has 3 cells, the header has 2"),
    ("csv-abc", "c,s\n1.0,abc\n", "line 2 holds a non-numeric cell"),
    ("csv-repeated-column", "c,c,s\n1.0,2.0,3.0\n", "the header repeats the column 'c'"),
]
TRAIN_FILES = [  # id, fit --train file, message
    ("train-no-rows", "c,s\n", "the training data has no rows"),
    ("train-nan", "c,s\n1.0,2.0\n2.0,nan\n", "line 3 holds a non-finite cell"),
    ("train-other-columns", "z,s\n1.0,2.0\n", "do not match prior variables"),
]
JSON_TEXTS = {"nested-100000-deep": '{"a": ' + NEST + "}", "truncated": '{"name": "t",',
              "two-values": "[1] 2", "int-5000-digits": '{"seed": ' + "1" * 5000 + "}"}
JSON_READERS = [  # argv, its option that names the file, the file, the reader's name
    (PARSE, "--prior", "prior.json", "prior file"),
    (FIT, "--config", "c.json", "run config"),
    (REPORT, "--posterior", "post.json", "posterior"),
]
SEEDED = {
    "sample": "sample --prior E_1 --n 1",
    "gen-data": "gen-data --task hyperelastic --out-dir @/data",
    "fit": FIT,
    "report": "report --posterior @/post.json --data @/train.csv --out-dir @/rep --with-noise",
}
CHAIN_3 = {"prior.json": _chain_prior(3)}
TARGET_ONLY = posterior_to_json(Posterior(
    (Draw(SymbolicExpression(parse_tree("(* 2 3)")), 0.1, -1.0),), {}, McmcConfig()))

PRIORS_AND_RUN_CONFIGS = [
    *(row(id, PARSE, message, {"prior.json": doc}) for id, doc, message in PRIOR_FILES),
    row("weights-sum-1.1", PARSE, "choice weights sum to 1.1, expected 1",
        {"prior.json": {"name": "bad", "expression": "choice{ 0.5: a, 0.6: b }"}},
        "WeightSumError"),
    *(row(id, FIT, message, {"c.json": doc}, absent=("p.json",))
      for id, doc, message in RUN_CONFIGS),
]
POSTERIORS = [row(f"<lambda>-{name[0] if name else message}", REPORT, message,
                  {"post.json": edited(edit)}, absent=("rep",))
              for edit, message, *name in POSTERIOR_EDITS]
UNDECODABLE = [row(f"{argv.split()[0]}-{option}-{reader}-{id}", argv,
                   f"{reader}: cannot decode JSON (", {name: text})
               for argv, option, name, reader in JSON_READERS for id, text in JSON_TEXTS.items()]
# a directory, a file or a non-UTF-8 file where another is expected
FILES = [
    row("parse---prior-folder-IsADirectoryError", PARSE, "Is a directory: '@/prior.json'",
        {"prior.json": DIR}, "IsADirectoryError"),
    row("fit---train-folder-IsADirectoryError", FIT, "Is a directory: '@/train.csv'",
        {"train.csv": DIR}, "IsADirectoryError"),
    row("fit---out-folder-IsADirectoryError", FIT, "cannot write @/p.json", {"p.json": DIR},
        "IsADirectoryError"),
    row("fit---out-missing-parent-FileNotFoundError", FIT.replace("@/p.json", "@/absent/p.json"),
        "cannot write @/absent/p.json", error="FileNotFoundError", absent=("absent",)),
    row("report---posterior-folder-IsADirectoryError", REPORT, "Is a directory: '@/post.json'",
        {"post.json": DIR}, "IsADirectoryError", absent=("rep",)),
    row("report---out-dir-file-FileExistsError", REPORT, "File exists: '@/rep'",
        {"rep": "c,s\n"}, "FileExistsError"),
    row("gen-data---out-dir-file/sub-NotADirectoryError",
        "gen-data --task isotherm:langmuir --out-dir @/d.csv/sub",
        "Not a directory: '@/d.csv/sub'", error="NotADirectoryError"),
    *(row(f"{argv.split()[0]}-{option}-latin-1-UnicodeDecodeError", argv,
          "'utf-8' codec can't decode byte 0xe9", {name: LATIN_1}, "UnicodeDecodeError",
          absent=("p.json", "rep"))
      for argv, option, name in [
          (PARSE, "--prior", "prior.json"), (FIT, "--train", "train.csv"),
          (FIT, "--config", "c.json"), (REPORT, "--posterior", "post.json"),
          (REPORT, "--data", "d.csv")]),
]
ROWS = [
    *(row(id, REPORT, message, {"d.csv": body}, absent=("rep",))
      for id, body, message in DATA_FILES),
    *(row(id, FIT, message, {"train.csv": body}, absent=("p.json",))
      for id, body, message in TRAIN_FILES),
    *(row(f"seed-minus-1-{command}", f"{command_argv} --seed -1",
          "a seed must be non-negative, got -1", absent=("p.json", "rep", "data"))
      for command, command_argv in SEEDED.items()),
    row("env-seed-abc", "sample --prior E_sum --n 3",
        "TREEGRESS_SEED must be an integer, got 'abc'", env={"TREEGRESS_SEED": "abc"}),
    row("env-seed-minus-3", "sample --prior E_sum --n 3", "a seed must be non-negative, got -3",
        env={"TREEGRESS_SEED": "-3"}),
    # usage errors
    row("seed-abc", "sample --prior E_1 --n 1 --seed abc", "invalid int value: 'abc'"),
    row("no-n", "sample --prior E_1 --seed 1", "required: --n"),
    row("no-command", "", "required: command"),
    row("n-minus-1", "sample --prior E_1 --n -1 --seed 1", "--n must be non-negative, got -1"),
    row("prior-nope", "sample --prior nope --n 1 --seed 0",
        "'nope' is neither a prior file nor a library prior "
        "(known: E_1, E_GRM, E_MRS, E_hook, E_hyp, E_iso, E_sum)"),
    row("tree-foreign-symbol", "density --prior E_1 --tree '(h a)' --via both",
        "symbol 'h' not in alphabet", error="UnknownSymbol"),
    row("task-pendulum", "gen-data --task pendulum --seed 1 --out-dir @/data",
        "unknown task 'pendulum' (isotherm:<name> or hyperelastic)", absent=("data",)),
    # max_depth: out of its range, or below the prior's height
    *(row(f"sample-max-depth-{id}", f"sample --prior E_1 --n 1 --max-depth {depth}",
          f"max_depth must be between 1 and 400, got {depth}")
      for id, depth in [("0", "0"), ("minus-1", "-1")]),
    row("sample-max-depth-100000", "sample --prior @/prior.json --n 3 --seed 2 "
        "--max-depth 100000", "max_depth must be between 1 and 400", {"prior.json": COMB}),
    row("config-max-depth-100000", "fit --prior @/prior.json --train @/y.csv --config @/c.json "
        "--out @/p.json", "max_depth must be between 1 and 400",
        {"prior.json": COMB, "y.csv": "s\n1.0\n",
         "c.json": {"burn_in": 5, "samples": 5, "thin": 1, "max_depth": 100_000}},
        absent=("p.json",)),
    row("sample-max-depth-2-below-height-3", "sample --prior @/prior.json --n 2 --max-depth 2",
        "beyond max_depth 2", CHAIN_3),
    row("config-max-depth-2-below-height-3", FIT.replace("E_iso", "@/prior.json"),
        "beyond max_depth 2",
        {**CHAIN_3, "c.json": {"burn_in": 5, "samples": 5, "thin": 1, "max_depth": 2}},
        absent=("p.json",)),
    # a count out of range; 10**20 is past sys.maxsize, the most chains SeedSequence.spawn takes
    *(row(f"chains-{id}", f"{FIT} --chains {chains}", "--chains must be at least 1 and at most ",
          absent=("p.json",)) for id, chains in [("0", "0"), ("minus-2", "-2"),
                                                 ("10**20", "100000000000000000000")]),
    # finite marker parameters whose draws overflow: the lines before the draw are printed
    row("draw-exp-rate-1e-308", "sample --prior @/prior.json --n 20 --seed 1",
        "marker a# drew inf from its exp prior",
        {"prior.json": {**WIDE, "markers": {"a#": {"dist": "exp", "rate": 1e-308}}}}, lines=2),
    row("draw-normal-1e308", "sample --prior @/prior.json --n 20 --seed 1",
        "marker a# drew inf from its normal prior",
        {"prior.json": {**WIDE, "markers": {"a#": {"dist": "normal", "mean": 1e308,
                                                   "stddev": 1e308}}}}, lines=13),
    # a# + c overflows the squared error, so the start is redrawn until a# itself overflows
    row("start-draw-overflows", f"{FIT.replace('E_iso', '@/prior.json')} --seed 0",
        "marker a# drew inf from its normal prior",
        {"prior.json": {"name": "wide", "expression": "+(a#, c)", "variables": ["c"],
                        "markers": {"a#": {"dist": "normal", "mean": 1e308, "stddev": 1e308}}},
         "c.json": {"burn_in": 1, "samples": 10, "thin": 1, "sigma0": 1.0}}, absent=("p.json",)),
    # report's datasets
    row("data-other-input-columns", "report --posterior @/post.json --data @/a.csv @/d.csv "
        "--out-dir @/rep", "input columns ['c'] differ", {"a.csv": "c,d,s\n1.0,1.0,2.0\n"},
        absent=("rep",)),
    row("data-no-input-columns", "report --posterior @/post.json --data @/a.csv @/d.csv "
        "--out-dir @/rep", "input columns [] differ",
        {"a.csv": "c,d,s\n1.0,1.0,2.0\n", "d.csv": "s\n1.0\n"}, absent=("rep",)),
    *(row(f"second-data-without-rows-{id}", "report --posterior @/post.json --data @/d.csv "
          "@/empty.csv --out-dir @/rep", "@/empty.csv has no rows", {"empty.csv": header},
          absent=("rep",))
      for id, header in [("header", "c,s\n"), ("blank-line", "c,s\n\n")]),
    row("data-target-only", REPORT, "no input columns",
        {"post.json": TARGET_ONLY, "d.csv": "s\n6.0\n6.0\n"}, absent=("rep",)),
]


def check_exits_2(capsys, tmp_path, monkeypatch, argv, files, error, message, lines, absent, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    here = f"{tmp_path}/"
    documents = any(not isinstance(v, (str, bytes)) and v is not DIR for v in files.values())
    runs = set()
    for indent in (None, 2) if documents else (None,):
        for name, value in {**BASE, **files}.items():
            path = tmp_path / name
            if value is DIR:
                path.mkdir(exist_ok=True)
            elif isinstance(value, bytes):
                path.write_bytes(value)
            else:
                path.write_text(value if isinstance(value, str) else
                                json.dumps(value, indent=indent))
        runs.add(run_cli(capsys, *(arg.replace("@/", here) for arg in shlex.split(argv))))
    assert len(runs) == 1, runs  # each layout of a document gives the same output
    (code, out, err), = runs
    assert (code, len(out.splitlines())) == (2, lines), err
    assert err.count("\n") == 1 and err.endswith("\n"), err  # one line, one object
    doc = json.loads(err)
    assert set(doc) == {"error", "message"} and doc["error"] == error, doc
    for fragment in (message,) if isinstance(message, str) else message:
        assert fragment.replace("@/", here) in doc["message"]
    assert [name for name in absent if (tmp_path / name).exists()] == []


@pytest.mark.parametrize("case", PRIORS_AND_RUN_CONFIGS)
def test_malformed_prior_or_run_config_exits_2(capsys, tmp_path, monkeypatch, case):
    check_exits_2(capsys, tmp_path, monkeypatch, *case)


@pytest.mark.parametrize("case", POSTERIORS)
def test_malformed_posterior_exits_2(capsys, tmp_path, monkeypatch, case):
    check_exits_2(capsys, tmp_path, monkeypatch, *case)


@pytest.mark.parametrize("case", UNDECODABLE)
def test_json_text_that_does_not_decode_exits_2(capsys, tmp_path, monkeypatch, case):
    check_exits_2(capsys, tmp_path, monkeypatch, *case)


@pytest.mark.parametrize("case", FILES)
def test_a_directory_file_or_non_utf8_input_exits_2(capsys, tmp_path, monkeypatch, case):
    check_exits_2(capsys, tmp_path, monkeypatch, *case)


@pytest.mark.parametrize("case", ROWS)
def test_malformed_input_exits_2(capsys, tmp_path, monkeypatch, case):
    check_exits_2(capsys, tmp_path, monkeypatch, *case)
