"""Golden CLI outputs of the Gaussian pipeline.

Each case reruns one command through `cli.main` and compares its `--out`
CSV with the committed file under tests/golden/: the header, the row
count and the `stable` flags exactly, every number within 1e-12 (bits may
differ across BLAS builds). A change that means to move these numbers
regenerates the files, and the diff shows in review:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
from pathlib import Path

import pytest

from nonclassicality.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER_TOL = 1e-12

CASES = {
    "fig4_40mW_25.csv": [
        "fig4", "--pb-mw", "40", "--t-max-omega-c", "10", "--samples", "25",
    ],
    # unstable points, stable points with E = 0 and stable points with E_ab > 0
    "optomech_sweep_3x2.csv": [
        "optomech-sweep", "--pb-mw-min", "20", "--pb-mw-max", "40", "--pb-steps", "3",
        "--delta-b-omega-c-min", "-1", "--delta-b-omega-c-max", "-0.85",
        "--delta-b-steps", "2",
    ],
}


def run_case(name: str, out: Path) -> None:
    assert main(CASES[name] + ["--out", str(out)]) == 0


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_same_cell(column: str, got: str, want: str, where: str) -> None:
    if column == "stable" or want == "":
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        assert math.isclose(float(got), float(want), rel_tol=NUMBER_TOL,
                            abs_tol=NUMBER_TOL), f"{where}: {got} != {want}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    run_case(name, out)
    got, want = read_rows(out), read_rows(GOLDEN / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(want_row), f"{name} line {i}"
        for column, g, w in zip(want[0], got_row, want_row):
            assert_same_cell(column, g, w, f"{name} line {i}, {column}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN / case)
