import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tomolyap
from tomolyap.cli import build_parser, main

LAMBDA_GOLDEN = 0.9624236501192069


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# subcommand happy paths
# ---------------------------------------------------------------------------


def test_harmonic_run(tmp_path):
    assert run(["harmonic", "--z", "5", "--n", "200", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "harmonic_result.json").read_text())
    assert record["kind"] == "harmonic"
    assert record["version"]
    assert abs(record["closed_form_lyapunov"] - LAMBDA_GOLDEN) < 1e-9
    assert abs(record["estimate"]["slope"] - LAMBDA_GOLDEN) < 1e-3
    series = (tmp_path / "harmonic_series.csv").read_text().splitlines()
    assert series[0] == "t,re_g2,im_g2,re_g3,im_g3,abs_probe,log_norm"
    assert len(series) == 202


def test_cat_run(tmp_path):
    assert run(["cat", "--variant", "kick_only", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "cat_result.json").read_text())
    assert abs(record["lyapunov"] - LAMBDA_GOLDEN) < 1e-9
    assert record["deformation_vanishes"] is True
    matrix = np.array(record["floquet_matrix"])
    assert matrix.shape == (4, 4)


def test_standard_map_run(tmp_path):
    assert run(["standard-map", "--gamma", "1", "--hbar", "0", "--n", "24",
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "standard_map_result.json").read_text())
    assert abs(record["closed_form_lyapunov"] - LAMBDA_GOLDEN) < 1e-9
    assert record["estimate"]["classification"] == "positive"
    rows = (tmp_path / "standard_map_series.csv").read_text().splitlines()
    assert len(rows) == 26


def test_standard_map_resonance_warning(tmp_path, capsys):
    assert run(["standard-map", "--gamma", "1", "--hbar", str(np.pi), "--n", "16",
                "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "1/4" in err


def test_quantum_standard_map_notes_first_order_kick(tmp_path, capsys):
    assert run(["standard-map", "--gamma", "1", "--hbar", "0", "--n", "16",
                "--out", str(tmp_path)]) == 0
    assert "first-order" not in capsys.readouterr().err
    assert run(["standard-map", "--gamma", "1", "--hbar", "1", "--n", "16",
                "--out", str(tmp_path)]) == 0
    assert "first-order, non-unitary" in capsys.readouterr().err


def test_oracle_run(tmp_path):
    assert run(["oracle", "--map", "standard", "--gamma", "1", "--steps", "4000",
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "oracle_result.json").read_text())
    assert abs(record["lambda"] - LAMBDA_GOLDEN) < 1e-5
    csv_text = (tmp_path / "oracle_result.csv").read_text()
    assert "standard_map" in csv_text


ORACLE_LABELS = {"standard": "standard_map(gamma=2.0, tau=1.0)", "harmonic": "harmonic_kick(z=5.0)",
                 "cat": "cat_map(kick_only)"}


@pytest.mark.parametrize("map_name, keys", [
    ("standard", ["map", "gamma", "tau", "q0", "p0", "steps"]),
    ("harmonic", ["map", "z", "q0", "p0", "steps"]),
    ("cat", ["map", "variant", "steps"]),
])
def test_oracle_records_only_the_parameters_its_map_reads(tmp_path, map_name, keys):
    assert run(["oracle", "--map", map_name, "--q0", "0.5", "--gamma", "2", "--steps", "500",
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "oracle_result.json").read_text())
    assert list(record["params"]) == keys
    rows = list(csv.reader((tmp_path / "oracle_result.csv").read_text().splitlines()))
    assert rows[1][:2] == [ORACLE_LABELS[map_name], "500"]


def test_tomography_run(tmp_path):
    assert run(["tomography", "--mean-q", "2", "--mu", "1", "--nu", "0",
                "--directions", "40", "--homogeneity-samples", "3",
                "--seed", "11", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "tomography_result.json").read_text())
    assert abs(record["mean_position"] - 2.0) < 1e-6
    assert abs(record["mass"] - 1.0) < 1e-4
    assert record["homogeneity_max_defect"] < 1e-8
    assert abs(record["reconstruction"]["mean_q"] - 2.0) < 1e-2


def test_compare_run(tmp_path):
    assert run(["compare", "--n", "20", "--oracle-steps", "2000",
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "compare_result.json").read_text())
    rows = record["rows"]
    assert len(rows) == 3
    classical = [r["classical_lambda"] for r in rows]
    for value in classical:
        assert abs(value - LAMBDA_GOLDEN) < 1e-3
    table = (tmp_path / "compare.csv").read_text().splitlines()
    assert table[0].startswith("system,classical_lambda")
    assert len(table) == 4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["harmonic", "--z", "5", "--n", "64", "--seed", "3",
                    "--out", str(out)]) == 0
    assert (a / "harmonic_result.json").read_bytes() == (b / "harmonic_result.json").read_bytes()
    assert (a / "harmonic_series.csv").read_bytes() == (b / "harmonic_series.csv").read_bytes()


ECHO_RUNS = [
    ["harmonic", "--z", "8", "--n", "48", "--v2", "0.5"],
    ["cat", "--variant", "h2", "--n-kicks", "2"],
    ["standard-map", "--gamma", "1.5", "--hbar", "0.5", "--v1", "0.25", "--n", "20"],
    ["oracle", "--map", "harmonic", "--z", "3.5", "--q0", "0.25", "--steps", "500"],
    ["tomography", "--mean-q", "0.5", "--sigma-p", "2", "--mu", "0.6", "--nu", "0.8",
     "--x-points", "64", "--homogeneity-samples", "2"],
    ["compare", "--z", "4", "--n", "20", "--oracle-steps", "500"],
]


def test_record_echo_round_trips_as_config(tmp_path):
    for argv in ECHO_RUNS:
        command = argv[0]
        first, second = tmp_path / command / "first", tmp_path / command / "second"
        assert run(argv + ["--seed", "3", "--out", str(first)]) == 0
        result = f"{command.replace('-', '_')}_result.json"
        record = json.loads((first / result).read_text())
        cfg = tmp_path / command / "echo.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in record["params"].items()))
        assert run([command, "--config", str(cfg), "--seed", "3", "--out", str(second)]) == 0
        assert (first / result).read_bytes() == (second / result).read_bytes(), command


@pytest.mark.parametrize("argv", ECHO_RUNS, ids=lambda argv: argv[0])
def test_format_json_writes_only_the_record(tmp_path, argv):
    assert run(argv + ["--format", "json", "--out", str(tmp_path / "json")]) == 0
    assert run(argv + ["--format", "both", "--out", str(tmp_path / "both")]) == 0
    result = f"{argv[0].replace('-', '_')}_result.json"
    assert [p.name for p in (tmp_path / "json").iterdir()] == [result]
    record = json.loads((tmp_path / "json" / result).read_text())
    both = json.loads((tmp_path / "both" / result).read_text())
    both.pop("series_file", None)
    assert record == both


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 8.0\nn = 64\n# comment line\n")
    assert run(["harmonic", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "harmonic_result.json").read_text())
    assert record["params"]["z"] == 8.0
    assert record["params"]["n"] == 64


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 8.0\n")
    assert run(["harmonic", "--config", str(cfg), "--z", "5", "--n", "32",
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "harmonic_result.json").read_text())
    assert record["params"]["z"] == 5.0


def test_unknown_config_key_fails_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 5.0\ngamm = 1.0\n")
    assert run(["harmonic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err and "gamm" in err


def test_unknown_config_key_reports_first_line_of_first_unknown(tmp_path, capsys):
    # 'zz' is unknown and repeated on line 5; 'gamm' (line 3) is unknown too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 5.0\nzz = 1\ngamm = 1.0\nn = 10\nzz = 2\n")
    assert run(["harmonic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: unknown key 'zz'\n"
    assert not (tmp_path / "harmonic_result.json").exists()


@pytest.mark.parametrize("command, line, key", [
    ("cat", 'variant = "foo"', "variant"),
    ("harmonic", 'n = "abc"', "n"),
    ("harmonic", 'z = "abc"', "z"),
    ("harmonic", "n = 64.7", "n"),
    ("standard-map", "gamma = true", "gamma"),
    ("oracle", 'map = "foo"', "map"),
    ("oracle", "steps = 1e4", "steps"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# checked against the parameter's type and choices\n{line}\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:2: {key} must be ")
    assert not out.exists()


def test_integer_config_value_for_float_key_echoes_as_float(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 8\n")
    by_config, by_flag = tmp_path / "config", tmp_path / "flag"
    assert run(["harmonic", "--config", str(cfg), "--n", "32", "--out", str(by_config)]) == 0
    assert run(["harmonic", "--z", "8", "--n", "32", "--out", str(by_flag)]) == 0
    record = (by_config / "harmonic_result.json").read_bytes()
    assert b'"z": 8.0' in record
    assert record == (by_flag / "harmonic_result.json").read_bytes()


def test_repeated_config_key_is_checked_at_its_last_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nz = 5.0\nn = 3.5\n")
    assert run(["harmonic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{cfg}:3: n must be an integer" in capsys.readouterr().err


def test_malformed_config_line_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    assert run(["harmonic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert ":1:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error exit codes
# ---------------------------------------------------------------------------


def test_module_error_maps_to_exit_3(tmp_path, capsys):
    # each input fails a library check: exit 3, the typed error as JSON on
    # stderr, and no record
    cases = [
        (["standard-map", "--gamma", "nan", "--n", "16"], "gamma must be finite"),
        (["standard-map", "--n", "0"], "n_max must be at least 1"),
        (["harmonic", "--n", "0"], "need at least one period"),
        (["cat", "--n-kicks", "-1"], "n_kicks must be nonnegative"),
        (["tomography", "--directions", "-1"], "n_directions must be a positive integer, got -1"),
        (["tomography", "--homogeneity-samples", "-4"], "homogeneity_samples must be nonnegative"),
        (["tomography", "--x-points", "-5"], "x grid must be a 1-d grid with at least 2 points"),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / str(i)
        assert run(argv + ["--out", str(out)]) == 3, argv
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValidationError", "message": message}, argv
        assert not out.exists(), argv


def test_unwritable_artifact_exits_3_without_a_record(tmp_path, capsys):
    (tmp_path / "harmonic_series.csv").mkdir()
    assert run(["harmonic", "--n", "20", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "io"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["harmonic_series.csv"]


@pytest.mark.parametrize("flag, value", [("--mean-q", "nan"), ("--sigma-q", "nan"),
                                         ("--mu", "inf"), ("--sigma-p", "inf")])
def test_non_finite_tomography_input_exits_3(tmp_path, capsys, flag, value):
    assert run(["tomography", flag, value, "--out", str(tmp_path)]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] in ("ValidationError", "InvalidDirectionError")
    assert list(tmp_path.iterdir()) == []  # no record, so no NaN in one


@pytest.mark.parametrize("argv, name", [
    (["oracle", "--gamma", "nan"], "gamma"),
    (["oracle", "--map", "harmonic", "--z", "inf"], "z"),
    (["harmonic", "--z", "nan"], "z"),
])
def test_non_finite_map_parameter_exits_3(tmp_path, capsys, argv, name):
    assert run(argv + ["--out", str(tmp_path)]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "ValidationError", "message": f"{name} must be finite"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, error, message", [
    ("120", "NumericalError", "lattice probes left the finite range at period 113"),
    ("90", "DegenerateSeriesError", "non-finite norm inside the fit window"),
])
def test_overflowing_lattice_exits_3_without_warnings(tmp_path, capsys, n, error, message):
    # the classical lattice at a generic base point overflows; numpy must not
    # warn on the way to the typed error
    argv = ["standard-map", "--gamma", "1", "--hbar", "0", "--q0", "0.7", "--n", n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error, "message": message}
    assert list(tmp_path.iterdir()) == []


# the public flags of each subcommand: dropping or renaming one breaks existing scripts
SUBCOMMAND_FLAGS = {
    "harmonic": ["--z", "--n", "--v1", "--v2"],
    "cat": ["--variant", "--n-kicks"],
    "standard-map": ["--gamma", "--tau", "--hbar", "--q0", "--p0", "--v1", "--v2", "--n"],
    "oracle": ["--map", "--gamma", "--tau", "--z", "--variant", "--q0", "--p0", "--steps"],
    "tomography": ["--mean-q", "--mean-p", "--sigma-q", "--sigma-p", "--correlation", "--mu",
                   "--nu", "--x-points", "--directions", "--homogeneity-samples"],
    "compare": ["--z", "--gamma", "--n", "--oracle-steps"],
}


def test_subcommand_flags():
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(SUBCOMMAND_FLAGS)
    for name, flags in SUBCOMMAND_FLAGS.items():
        options = [s for a in subparsers.choices[name]._actions for s in a.option_strings]
        assert options == ["-h", "--help", "--out", "--format", "--seed", "--config"] + flags, name


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------


def scipy_modules_loaded_by(code: str) -> str:
    """Run `code` in a fresh interpreter (this test process has imported scipy
    already) and return the printed list of scipy modules loaded at its end."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    src = str(Path(tomolyap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_import_and_standard_map_run_load_no_scipy(tmp_path):
    code = (
        "import sys, numpy as np, tomolyap, tomolyap.cli\n"
        "from tomolyap import (GaussianDensity, GridDensity, KickedMapSpec, forward_tomogram,\n"
        "                      gaussian_tomogram_family, inverse_tomogram,\n"
        "                      tangent_map_lyapunov, wigner_from_tomogram)\n"
        "assert tomolyap.cli.main(['standard-map', '--gamma', '1', '--hbar', '1', '--n', '20',\n"
        f"                          '--out', {str(tmp_path)!r}]) == 0\n"
        "tangent_map_lyapunov(KickedMapSpec.standard_map(1.0, q0=0.7), 200)\n"
        "tangent_map_lyapunov(KickedMapSpec.harmonic_kick(5.0), 200)\n"
        "density = GaussianDensity(mean_q=0.3, correlation=0.2)\n"
        "forward_tomogram(density, 0.6, 0.8)\n"
        "family = gaussian_tomogram_family(density, 32)\n"
        "inverse_tomogram(family)\n"
        "wigner_from_tomogram(family)\n"
        "q = np.linspace(-8.0, 8.0, 161)\n"
        "grid = GridDensity(q, q, density.pdf(q[:, None], q[None, :]), norm_tol=1e-4)\n"
        "forward_tomogram(grid, 0.6, 0.8)\n"
    )
    assert scipy_modules_loaded_by(code) == "[]"
    assert (tmp_path / "standard_map_result.json").exists()


def test_cat_routes_and_quantum_probes_load_no_scipy(tmp_path):
    runs = [["cat", "--variant", "h1"], ["oracle", "--map", "cat", "--steps", "200"],
            ["compare", "--n", "20", "--oracle-steps", "200"]]
    code = "import sys, tomolyap.cli\n" + "".join(
        f"assert tomolyap.cli.main({argv + ['--out', str(tmp_path / argv[0])]!r}) == 0\n"
        for argv in runs)
    code += ("from tomolyap import StandardMapParams, quantum_probes\n"
             "quantum_probes(StandardMapParams(gamma=1.0, hbar=1.0), 5)\n")
    assert scipy_modules_loaded_by(code) == "[]"
    for argv in runs:
        assert (tmp_path / argv[0] / f"{argv[0]}_result.json").exists()


def test_package_all_lists_api_names_not_submodules():
    import types

    import tomolyap

    modules = [name for name in tomolyap.__all__
               if isinstance(getattr(tomolyap, name), types.ModuleType)]
    assert modules == []
    assert {"lattice_probes", "quantum_probes"} <= set(tomolyap.__all__)
