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

tests/data/compute_scale_v1.jsonl holds `json.dumps(compute_result(pd))` for
every knot of SCALE_KNOTS, one line each, in order: T(2,31), T(2,51) and a
48-crossing composite, past the sizes of the other files. It was written
while the propagator was still read off a Gauss-Jordan elimination of
[d2 | I]. The composite's PD text was made once by the benchmark's
composite recipe (perfbench/families.py, rng = random.Random(7)): the
summands 5_2, 6_1, 4_1, 3_1, 5_1, 6_1, 5_2, 4_1 spliced in at seeded edges,
then ten seeded Reidemeister-I kinks.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import CORPUS, FIG8_KINKED, TREFOIL_KINKED, torus_pd
from dehn import cli
from dehn.pipeline import compute_result

GOLDEN = Path(__file__).parent / "data" / "compute_v1.jsonl"
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_v1.jsonl"
CHECK_GOLDEN = Path(__file__).parent / "data" / "check_v1.jsonl"
T2_7 = "[[1,8,2,9],[3,10,4,11],[5,12,6,13],[7,14,8,1],[9,2,10,3],[11,4,12,5],[13,6,14,7]]"
KNOTS = ([(name, CORPUS[name]) for name in sorted(CORPUS)]
         + [("3_1_kinked", TREFOIL_KINKED), ("4_1_kinked", FIG8_KINKED), ("T2_7", T2_7)])
SEEDS = (None, 0, 1, 2)
SCALE_GOLDEN = Path(__file__).parent / "data" / "compute_scale_v1.jsonl"
COMPOSITE_48 = (
    "[[92,95,93,96],[94,89,95,90],[96,91,1,92],[90,87,91,88],[88,93,89,94],[21,8,22,9],"
    "[13,18,14,19],[5,15,6,14],[15,35,16,34],[9,20,10,21],[19,12,20,13],[80,36,81,35],"
    "[86,82,87,81],[84,61,85,62],[36,85,37,86],[43,46,44,47],[45,40,46,41],[39,44,40,45],"
    "[54,47,55,48],[56,51,57,52],[58,53,59,54],[50,55,51,56],[52,57,53,58],[22,25,23,26],"
    "[28,31,29,32],[24,30,25,29],[30,24,31,23],[26,33,27,34],[32,27,33,28],[77,62,78,63],"
    "[79,74,80,75],[63,76,64,77],[75,64,76,65],[65,78,66,79],[68,74,69,73],[72,70,73,69],"
    "[70,67,71,68],[66,71,67,72],[37,38,38,39],[6,7,7,8],[16,17,17,18],[48,49,49,50],"
    "[59,60,60,61],[41,42,42,43],[3,4,4,5],[10,11,11,12],[82,83,83,84],[1,2,2,3]]")
SCALE_KNOTS = [("T2_31", torus_pd(31)), ("T2_51", torus_pd(51)), ("composite_48", COMPOSITE_48)]
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


def test_scale_golden_file_has_one_line_per_knot():
    assert len(golden_lines(SCALE_GOLDEN)) == len(SCALE_KNOTS)


@pytest.mark.parametrize("index", range(len(SCALE_KNOTS)), ids=[name for name, _ in SCALE_KNOTS])
def test_compute_json_matches_golden_at_scale(index):
    _, pd = SCALE_KNOTS[index]
    assert json.dumps(compute_result(pd)) == golden_lines(SCALE_GOLDEN)[index]
