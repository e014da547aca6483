"""Command-line interface, run in process through main()."""

import json

import numpy as np
import pytest

from edmpos.cli import EXIT_INFEASIBLE, EXIT_NO_CONVERGENCE, _options, build_parser, main
from edmpos.errors import NotAnEdm, PoleEvaluation
from edmpos.harness import (
    ConstantBias,
    PipelineOptions,
    Scenario,
    SingleFault,
    apply_noise,
    generate_scenario,
)


@pytest.fixture
def clean_file(tmp_path):
    sc = generate_scenario(6, seed=201, label="clean")
    path = tmp_path / "clean.json"
    sc.save(path)
    return path, sc


@pytest.fixture
def faulty_file(tmp_path):
    sc = generate_scenario(6, seed=202, label="faulty")
    sc = apply_noise(sc, SingleFault(0, 4.0e12))
    path = tmp_path / "faulty.json"
    sc.save(path)
    return path, sc


def test_check_clean(clean_file, capsys):
    path, _ = clean_file
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "self-consistent" in out


def test_check_faulty(faulty_file, capsys):
    path, _ = faulty_file
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "verdict:" in out and "self-consistent" not in out


def test_check_json(faulty_file, capsys):
    path, _ = faulty_file
    assert main(["check", "--json", str(path)]) == 2
    data = json.loads(capsys.readouterr().out)
    assert set(data) >= {"tag", "kappa", "band", "gale_residual", "borderline"}
    assert data["tag"] != "self-consistent"


def test_solve_clean_json(clean_file, capsys):
    path, sc = clean_file
    assert main(["solve", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["converged"] is True
    assert data["method"] == "secular-gen"
    err = np.linalg.norm(np.asarray(data["q_m"]) - sc.true_receiver)
    assert err <= 1e-5


def test_solve_method_choice(clean_file, capsys):
    path, sc = clean_file
    assert main(["solve", "--method", "nlp", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "nlp-oracle"
    err = np.linalg.norm(np.asarray(data["q_m"]) - sc.true_receiver)
    assert err <= 1e-5


def test_solve_faulty_exit_code(faulty_file, capsys):
    path, _ = faulty_file
    assert main(["solve", str(path)]) == 2
    assert "receiver (m):" in capsys.readouterr().out


def test_solve_debias(tmp_path, capsys):
    sc = generate_scenario(4, seed=203, label="biased")
    biased = apply_noise(sc, ConstantBias(2.0e10))
    path = tmp_path / "biased.json"
    biased.save(path)
    assert main(["solve", str(path)]) == 2
    capsys.readouterr()
    assert main(["solve", "--debias", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    err = np.linalg.norm(np.asarray(data["q_m"]) - sc.true_receiver)
    assert err <= 1e-5


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "batch.csv"
    code = main([
        "simulate", "--count", "6", "--n", "4,6",
        "--noise-sigma", "1.0", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["count"] == 6
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    assert (tmp_path / "batch.summary.json").exists()


def test_simulate_bad_fault_spec(tmp_path):
    assert main(["simulate", "--count", "1", "--fault", "nonsense",
                 "--out", str(tmp_path / "x.csv")]) == 64



@pytest.mark.parametrize("flag", [["--count", "-5"], ["--r", "0"], ["--r", "-1"]])
def test_simulate_bad_count_or_dimension_is_bad_input(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    assert main(["simulate", *flag, "--out", str(out)]) == 64
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".summary.json").exists()

def test_missing_file_is_bad_input(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 64
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_bad_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 64


def test_wrong_schema_is_bad_input(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"schema": "other/1", "satellites": [], "pseudoranges": []}))
    assert main(["check", str(path)]) == 64


def test_flat_geometry_is_infeasible(tmp_path, capsys):
    rng = np.random.default_rng(11)
    flat = np.column_stack([rng.normal(size=(5, 2)) * 1e7, np.zeros(5)])
    sc = Scenario(label="flat", dim=3, satellites=flat,
                  pseudoranges=np.linalg.norm(flat, axis=1) + 1e6)
    path = tmp_path / "flat.json"
    sc.save(path)
    assert main(["check", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_no_arguments_is_bad_input(capsys):
    assert main([]) == 64


@pytest.mark.parametrize(
    "exc, code",
    [(PoleEvaluation("multiplier on a pole"), EXIT_NO_CONVERGENCE),
     (NotAnEdm("projected Gram matrix is indefinite"), EXIT_INFEASIBLE)],
)
def test_solver_errors_exit_codes(clean_file, monkeypatch, capsys, exc, code):
    path, _ = clean_file

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr("edmpos.cli.run_pipeline", failing)
    assert main(["solve", str(path)]) == code
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "s.json"], ["solve", "s.json"], ["simulate"]])
def test_parser_defaults_are_the_pipeline_defaults(argv):
    assert _options(build_parser().parse_args(argv)) == PipelineOptions()
