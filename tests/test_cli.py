"""End-to-end tests of the command-line surface: exit codes, output
stability, file formats."""

import importlib.resources
import json
import math

import numpy as np
import pytest

from treegress.cli import main
from treegress.inference import Draw, McmcConfig, Posterior, posterior_to_json
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


def test_unknown_prior_exits_2(capsys):
    code, _, err = run_cli(capsys, "sample", "--prior", "nope", "--n", "1", "--seed", "0")
    assert code == 2
    assert "nope" in json.loads(err.strip())["message"]


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
        (Draw(expr, 0.1, -1.0),), {}, McmcConfig(burn_in=1, samples=10, thin=1), 0
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
    post = Posterior(draws, {}, McmcConfig(burn_in=1, samples=10, thin=1), 0)
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


def test_report_flags_dead_points(capsys, tmp_path):
    expr = SymbolicExpression(parse_tree("(/ 1 c)"))
    post = Posterior(
        (Draw(expr, 0.1, -1.0),), {}, McmcConfig(burn_in=1, samples=10, thin=1), 0
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
    post_path.write_text(posterior_to_json(Posterior(draws, {}, McmcConfig(), 0)))
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
    ],
)
def test_malformed_posterior_exits_2(capsys, tmp_path, edit, message):
    data_path = tmp_path / "d.csv"
    data_path.write_text("c,s\n1.0,2.0\n")
    post_path = _hand_posterior(tmp_path)
    doc = json.loads(post_path.read_text())
    edit(doc)
    post_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "report", "--posterior", str(post_path),
        "--data", str(data_path), "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "InputError"
    assert message in doc["message"]


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
    # two distinct draws among four, once for the RMSE and once for the bands
    assert sorted(calls) == [(1.0,), (1.0,), (2.0,), (2.0,)]
    row = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()[1].split(",")
    # per-draw rmse: sqrt(2.5) for each of the three c# = 1 draws, 0 for c# = 2
    assert float(row[1]) == pytest.approx(0.75 * math.sqrt(2.5))
