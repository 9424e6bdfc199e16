"""CLI commands end to end: outputs, manifests, golden headers, exit codes."""

import json
import math

import numpy as np
import pytest

from paulipatch import (
    Dense,
    ObservableSpec,
    PauliString,
    TruncationPolicy,
    backpropagate,
    build_tfi_trotter,
    chain,
    grid,
    load_artifact,
)
from paulipatch.circuits import circuit_to_json, observable_to_json
from paulipatch.cli import main

from conftest import patch_around_fixed_x


@pytest.fixture
def workdir(tmp_path):
    circuit = build_tfi_trotter(grid(2, 2), layers=2, dt=0.1, binding="free")
    (tmp_path / "circ.json").write_text(circuit_to_json(circuit))
    obs = ObservableSpec.single(PauliString.from_sparse("Z1", 4))
    (tmp_path / "obs.json").write_text(observable_to_json(obs))
    prep = build_tfi_trotter(grid(2, 2), layers=2, dt=0.1, binding="fixed")
    (tmp_path / "prep.json").write_text(circuit_to_json(prep))
    return tmp_path


def read_lines(path):
    return path.read_text().splitlines()


def test_build_writes_artifact_and_manifest(workdir, capsys):
    out = workdir / "artifact.json.gz"
    code = main(["build", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--kappa", "4", "--out", str(out)])
    assert code == 0
    po = load_artifact(out)
    assert po.mode == "symbolic" and po.policy.kappa == 4
    manifest = json.loads((workdir / "artifact.json.gz.manifest.json").read_text())
    assert manifest["command"] == "build"
    assert "build_s" in manifest["timings"]
    assert "paths_surviving" in capsys.readouterr().out


def test_build_prints_the_path_bound_only_without_fixed_angles(workdir, tmp_path, capsys):
    # free angles only: every rotation raises the sine count, so the bound holds
    args = ["build", "--observable", str(workdir / "obs.json"), "--kappa", "2"]
    assert main(args + ["--circuit", str(workdir / "circ.json"),
                        "--out", str(workdir / "free.json.gz")]) == 0
    assert "vs per-Pauli bound" in capsys.readouterr().out
    # a patch around fixed TFI angles: 400 paths survive against "bounds" of 93 and 250
    circuit = patch_around_fixed_x(build_tfi_trotter(chain(8), layers=4, dt=0.25))
    obs = ObservableSpec.single(PauliString.from_sparse("Z3 Z4", 8))
    (tmp_path / "patch.json").write_text(circuit_to_json(circuit))
    (tmp_path / "zz.json").write_text(observable_to_json(obs))
    assert main(["build", "--circuit", str(tmp_path / "patch.json"),
                 "--observable", str(tmp_path / "zz.json"), "--kappa", "1",
                 "--out", str(tmp_path / "patch.json.gz")]) == 0
    out = capsys.readouterr().out
    stats = json.loads(out[:out.rindex("}") + 1])
    assert stats["paths_surviving"] > stats["bound_exp_per_pauli"]
    assert out.rstrip().splitlines()[-1] == f"surviving paths {stats['paths_surviving']}"
    assert "bound" not in out.rstrip().splitlines()[-1]


def test_rmse_sweep_golden_header_and_monotone(workdir):
    out = workdir / "sweep.csv"
    code = main(["rmse-sweep", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--state", f"trotter:{workdir / 'prep.json'}",
                 "--r", "0.1", "--kappa-max", "5", "--samples", "60",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[0].startswith("# manifest=")
    assert lines[1] == "r,kappa,n_paulis,n_monomials,rmse,bound_rmse"
    rows = [line.split(",") for line in lines[2:]]
    rmse = [float(row[4]) for row in rows]
    # statistically nonincreasing in kappa; exact at the top order here
    assert rmse[-1] <= rmse[0] + 1e-12
    assert rmse[-1] < 1e-8


def test_rmse_sweep_with_fixed_angles_restricts_like_fresh_builds(tmp_path):
    circuit = patch_around_fixed_x(build_tfi_trotter(chain(4), layers=2, dt=0.25))
    obs = ObservableSpec.single(PauliString.from_sparse("Z1 Z2", 4))
    (tmp_path / "circ.json").write_text(circuit_to_json(circuit))
    (tmp_path / "obs.json").write_text(observable_to_json(obs))
    out = tmp_path / "sweep.csv"
    code = main(["rmse-sweep", "--circuit", str(tmp_path / "circ.json"),
                 "--observable", str(tmp_path / "obs.json"), "--state", "all-plus",
                 "--r", "0.1", "--kappa-max", "3", "--max-weight", "3", "--samples", "5",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    counts = [(int(row[2]), int(row[3])) for row in
              (line.split(",") for line in read_lines(out)[2:])]
    fresh = [backpropagate(circuit, obs, TruncationPolicy(kappa=kappa, max_weight=3),
                           mode="symbolic") for kappa in range(4)]
    assert counts == [(len(po.terms), po.table.n_monomials) for po in fresh]
    assert len(set(counts)) == 4


def test_rmse_zero_radius_is_exact(workdir):
    out = workdir / "sweep0.csv"
    code = main(["rmse-sweep", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--state", "all-zero", "--r", "0", "--kappa-max", "1",
                 "--samples", "5", "--seed", "7", "--out", str(out)])
    assert code == 0
    for line in read_lines(out)[2:]:
        assert float(line.split(",")[4]) < 1e-12  # surrogate exact at the center


def test_shot_compare_uniform_underperforms(workdir):
    out = workdir / "shots.csv"
    code = main(["shot-compare", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--state", "all-zero",
                 "--strategies", "uniform,eff1norm-avg",
                 "--shots", "2000", "--repeats", "4", "--alpha-draws", "6",
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[1] == "strategy,shots,rmse_total,rmse_truncation,n_paulis"
    values = {row.split(",")[0]: float(row.split(",")[2]) for row in lines[2:]}
    assert values["eff1norm-avg"] < values["uniform"]


def test_kz_scan_rows_and_reproducibility(workdir):
    out = workdir / "kz.csv"
    argv = ["kz-scan", "--topology", "chain:8", "--tf", "3,6",
            "--ramp", "linear,tanh", "--obs-edge", "3", "4",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    lines = read_lines(out)
    assert lines[1] == "ramp,t_f,layers,n_def,retained_norm2,n_paulis"
    assert len(lines) == 2 + 4
    n_def = {(row.split(",")[0], row.split(",")[1]): float(row.split(",")[3])
             for row in lines[2:]}
    assert n_def[("linear", "6")] < n_def[("linear", "3")]  # slower ramp, fewer defects
    assert main(argv) == 0
    assert out.read_bytes() == first  # byte-identical rerun


def test_taylor_command_report(workdir):
    out = workdir / "ts.json"
    code = main(["taylor", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--state", "all-zero", "--order", "2", "--r", "0.03",
                 "--scan-points", "64", "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads((workdir / "ts.json.report.json").read_text())
    assert report["max_scan_error"] <= report["worst_case_bound"]
    assert report["evaluations"] <= report["evaluation_budget"]
    from paulipatch import TaylorSurrogate

    ts = TaylorSurrogate.from_json(out.read_text())
    assert ts.order == 2


def test_exit_code_validation_error(workdir, capsys):
    code = main(["build", "--circuit", str(workdir / "nope.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--out", str(workdir / "x.json")])
    assert code == 2
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"n": 1, "m": 1, "gates": [
        {"type": "rot", "pauli": "X", "qubits": [0], "param": 5}]}))
    code = main(["build", "--circuit", str(bad),
                 "--observable", str(workdir / "obs.json"),
                 "--out", str(workdir / "x.json")])
    assert code == 2


@pytest.mark.parametrize("which,document", [
    ("observable", {"n": 4, "terms": [{"pauli": "Z", "qubits": 5}]}),
    ("circuit", {"n": 4, "m": 0,
                 "gates": [{"type": "rot", "pauli": "X", "qubits": [0], "value": True}]}),
    ("circuit", {"n": 4, "m": 0,
                 "gates": [{"type": "rot", "pauli": "X", "qubits": [0], "value": math.nan}]}),
    ("observable", {"n": 4, "terms": [{"pauli": "Z", "qubits": [1], "coeff": math.inf}]}),
], ids=["int-observable-qubits", "bool-rotation-value", "nan-rotation-value",
        "infinite-observable-coeff"])
def test_build_exits_2_on_mistyped_input(workdir, capsys, which, document):
    files = {"circuit": workdir / "circ.json", "observable": workdir / "obs.json"}
    files[which] = workdir / "bad.json"
    files[which].write_text(json.dumps(document))
    code = main(["build", "--circuit", str(files["circuit"]),
                 "--observable", str(files["observable"]),
                 "--out", str(workdir / "x.json")])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err
    assert not (workdir / "x.json").exists()


@pytest.mark.parametrize("center,code", [
    ("[0.01, 0, 0, 0, -0.01]", 0),
    ("{not json", 2),
    ("[true, 0, 0, 0, 0]", 2),
    ('["0", 0, 0, 0, 0]', 2),
    ('{"center": [0, 0, 0, 0, 0]}', 2),
    ("[0, 0]", 2),
    ("[NaN, 0, 0, 0, 0]", 2),
    ("[0, 0, -Infinity, 0, 0]", 2),
], ids=["valid", "not-json", "bool-entry", "string-entry", "object", "short", "nan-entry",
        "infinite-entry"])
def test_taylor_center_file(workdir, capsys, center, code):
    circuit = build_tfi_trotter(grid(1, 3), layers=1, dt=0.1, binding="free")
    assert circuit.m == 5
    (workdir / "circ3.json").write_text(circuit_to_json(circuit))
    obs = ObservableSpec.single(PauliString.from_sparse("Z1", 3))
    (workdir / "obs3.json").write_text(observable_to_json(obs))
    (workdir / "center.json").write_text(center)
    assert main(["taylor", "--circuit", str(workdir / "circ3.json"),
                 "--observable", str(workdir / "obs3.json"),
                 "--center", str(workdir / "center.json"), "--order", "1",
                 "--scan-points", "4", "--out", str(workdir / "ts.json")]) == code
    assert ("invalid input" in capsys.readouterr().err) == (code == 2)


def test_rmse_sweep_exits_2_on_a_dense_state_of_the_wrong_size(workdir, capsys):
    Dense(np.ones(8) / math.sqrt(8)).to_binary_file(workdir / "state.bin")
    code = main(["rmse-sweep", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--state", f"dense:{workdir / 'state.bin'}", "--r", "0.1",
                 "--kappa-max", "1", "--samples", "2", "--out", str(workdir / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "n=3, expected 4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,option,value", [
    ("kz-scan", "--topology", "grid:4"),
    ("kz-scan", "--topology", "chain:abc"),
    ("kz-scan", "--tf", "x"),
    ("kz-scan", "--dt", "0"),
    ("kz-scan", "--ramp", "linear,banana"),
    ("rmse-sweep", "--r", "0.1,x"),
    ("rmse-sweep", "--samples", "0"),
    ("shot-compare", "--shots", "1,x"),
    ("shot-compare", "--repeats", "0"),
    ("shot-compare", "--alpha-draws", "0"),
    ("shot-compare", "--strategies", "uniform,banana"),
    ("taylor", "--scan-points", "0"),
    ("taylor", "--shots", "0"),
    ("kz-scan", "--layers", "0"),
    ("shot-compare", "--r", "-1"),
    ("taylor", "--r", "nan"),
    ("rmse-sweep", "--kappa-max", "-1"),
], ids=["topology-grid-without-columns", "topology-chain-not-a-number", "tf-not-a-number",
        "zero-dt", "unknown-ramp", "r-list-not-numbers", "zero-samples",
        "shots-list-not-integers", "zero-repeats", "zero-alpha-draws", "unknown-strategy",
        "zero-scan-points", "zero-taylor-shots", "zero-layers", "negative-half-width",
        "nan-half-width", "negative-kappa-max"])
def test_malformed_option_values_exit_2(workdir, capsys, command, option, value):
    options = {
        "kz-scan": {"--topology": "chain:6", "--tf": "3", "--obs-edge": "2 3"},
        "rmse-sweep": {"--circuit": "circ.json", "--observable": "obs.json", "--r": "0.1",
                       "--kappa-max": "1", "--samples": "2"},
        "shot-compare": {"--circuit": "circ.json", "--observable": "obs.json",
                         "--shots": "100", "--repeats": "1", "--alpha-draws": "1"},
        "taylor": {"--circuit": "circ.json", "--observable": "obs.json", "--order": "1",
                   "--scan-points": "4"},
    }[command]
    options[option] = value
    argv = [command, "--out", str(workdir / "x.out")]
    for name, text in options.items():
        argv += [name, *(str(workdir / text) if text.endswith(".json") else text).split(" ")]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    # a comma list names its first bad entry
    assert f"argument {option}: expected" in err and repr(value.split(",")[-1]) in err
    assert "Traceback" not in err
    assert not (workdir / "x.out").exists()


def test_exit_code_policy_overflow(workdir, capsys):
    code = main(["build", "--circuit", str(workdir / "circ.json"),
                 "--observable", str(workdir / "obs.json"),
                 "--path-cap", "1", "--out", str(workdir / "x.json")])
    assert code == 3
    assert "policy overflow" in capsys.readouterr().err


def test_exit_code_oracle_cap(workdir, tmp_path, capsys):
    big = build_tfi_trotter(grid(3, 5), layers=1, dt=0.1, binding="free")
    (tmp_path / "big.json").write_text(circuit_to_json(big))
    obs15 = ObservableSpec.single(PauliString.from_sparse("Z7", 15))
    (tmp_path / "obs15.json").write_text(observable_to_json(obs15))
    code = main(["rmse-sweep", "--circuit", str(tmp_path / "big.json"),
                 "--observable", str(tmp_path / "obs15.json"),
                 "--state", "all-zero", "--r", "0.1", "--kappa-max", "1",
                 "--samples", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "oracle cap" in capsys.readouterr().err


def test_seed_env_fallback(workdir, monkeypatch):
    monkeypatch.setenv("PAULIPATCH_SEED", "777")
    out = workdir / "env.csv"
    assert main(["kz-scan", "--topology", "chain:6", "--tf", "3",
                 "--ramp", "linear", "--obs-edge", "2", "3",
                 "--out", str(out)]) == 0
    manifest = json.loads((workdir / "env.csv.manifest.json").read_text())
    assert manifest["seed"] == 777
