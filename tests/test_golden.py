"""Schema-v1 `compute` JSON, the `oracle` JSON and the `check` JSON stay
byte-identical to the committed golden files.

tests/data/compute_v1.jsonl holds `json.dumps(compute_result(pd, pivot_seed=s))`
for every case of CASES, one line each, in order. It was written before the
propagator moved to fraction-free elimination over Z[t]; a change to any line
is a change of schema-v1 output.

tests/data/oracle_v1.jsonl holds `json.dumps(cli._oracle_one((pd, None)))` for
every knot of KNOTS, one line each, in order. It was written while the Fox
oracle still normalized its determinant as a polynomial over Q.

tests/data/check_v1.jsonl holds, for every knot of KNOTS, one line each, in
order, the JSON that `dehn check --seeds 12 --format json --pd <pd>` prints,
re-dumped on one line by `json.dumps`. It was written while a propagator's
selected coordinate was still a one-element tuple, the key `check` dedups
its seeds by.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import CORPUS, FIG8_KINKED, TREFOIL_KINKED
from dehn import cli
from dehn.pipeline import compute_result

GOLDEN = Path(__file__).parent / "data" / "compute_v1.jsonl"
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_v1.jsonl"
CHECK_GOLDEN = Path(__file__).parent / "data" / "check_v1.jsonl"
T2_7 = "[[1,8,2,9],[3,10,4,11],[5,12,6,13],[7,14,8,1],[9,2,10,3],[11,4,12,5],[13,6,14,7]]"
KNOTS = ([(name, CORPUS[name]) for name in sorted(CORPUS)]
         + [("3_1_kinked", TREFOIL_KINKED), ("4_1_kinked", FIG8_KINKED), ("T2_7", T2_7)])
SEEDS = (None, 0, 1, 2)
CASES = [(name, pd, seed) for name, pd in KNOTS for seed in SEEDS]


def golden_lines(path=GOLDEN):
    return path.read_text(encoding="utf-8").splitlines()


def test_golden_file_has_one_line_per_case():
    assert len(golden_lines()) == len(CASES)


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{name}-seed{seed}" for name, _, seed in CASES])
def test_compute_json_matches_golden(index):
    _, pd, seed = CASES[index]
    assert json.dumps(compute_result(pd, pivot_seed=seed)) == golden_lines()[index]


def test_oracle_golden_file_has_one_line_per_knot():
    assert len(golden_lines(ORACLE_GOLDEN)) == len(KNOTS)


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_oracle_json_matches_golden(index):
    _, pd = KNOTS[index]
    assert json.dumps(cli._oracle_one((pd, None))) == golden_lines(ORACLE_GOLDEN)[index]


def test_check_golden_file_has_one_line_per_knot():
    assert len(golden_lines(CHECK_GOLDEN)) == len(KNOTS)


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_check_json_matches_golden(index):
    _, pd = KNOTS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", "--seeds", "12", "--format", "json", "--pd", pd]) == 0
    assert json.dumps(json.loads(out.getvalue())) == golden_lines(CHECK_GOLDEN)[index]
