"""Byte-identity gate for the CLI.

Each case runs `tomolyap.cli.main` into a fresh directory and records its
stdout, stderr and exit code beside the artifacts; the whole directory must
equal the committed copy under `tests/golden/<case>/` byte for byte.  A change
that alters artifacts on purpose regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and says which cases changed, and why, in CHANGES.md.  Naming cases, as in

    PYTHONPATH=src python tests/test_golden.py oracle_cat compare

regenerates only those.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from tomolyap.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "harmonic": ["harmonic", "--n", "64"],
    "cat_h1": ["cat", "--variant", "h1", "--n-kicks", "3"],
    "standard_map_quantum": ["standard-map", "--gamma", "1", "--hbar", "1", "--n", "24"],
    "standard_map_classical_q0": ["standard-map", "--gamma", "1", "--hbar", "0",
                                  "--q0", "0.7", "--n", "24"],
    "standard_map_nan": ["standard-map", "--gamma", "nan", "--n", "16"],
    "standard_map_classical_overflow": ["standard-map", "--gamma", "1", "--hbar", "0",
                                        "--q0", "0.7", "--n", "120"],
    "oracle_cat": ["oracle", "--map", "cat", "--steps", "2000"],
    "oracle_standard_chaotic": ["oracle", "--map", "standard", "--q0", "0.7", "--p0", "0.2",
                                "--steps", "5000"],
    "oracle_harmonic_overflow": ["oracle", "--map", "harmonic", "--z", "5", "--q0", "0.1",
                                 "--steps", "2000"],
    "oracle_cat_h2": ["oracle", "--map", "cat", "--variant", "h2", "--steps", "3000"],
    "tomography": ["tomography", "--directions", "32", "--mean-q", "0.3", "--correlation", "0.2",
                   "--homogeneity-samples", "3", "--seed", "5", "--mu", "0.6", "--nu", "0.8"],
    "compare": ["compare", "--n", "20", "--oracle-steps", "2000"],
}


def run_case(argv: list[str], out: Path) -> None:
    """Run one CLI invocation into `out`, adding stdout.txt, stderr.txt and exit_code.txt."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    out.mkdir(parents=True, exist_ok=True)  # a failed run creates no directory
    (out / "stdout.txt").write_text(stdout.getvalue())
    (out / "stderr.txt").write_text(stderr.getvalue())
    (out / "exit_code.txt").write_text(f"{code}\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical_to_golden(case, tmp_path):
    run_case(CASES[case], tmp_path)
    golden = GOLDEN / case
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    for name in produced:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), f"{case}/{name}"


def regenerate(cases: list[str]) -> None:
    for case in cases or CASES:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        run_case(CASES[case], GOLDEN / case)


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
