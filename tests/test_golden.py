"""Schema-v1 `compute` JSON, the `oracle` JSON and the `check` JSON stay
byte-identical to the committed golden files.

tests/data/compute_v1.jsonl holds four lines per knot of KNOTS, one for
every case of CASES, in order. They were written as
`json.dumps(compute_result(pd, pivot_seed=s))` for the seeds s = None, 0,
1, 2 of SEEDS, which chose the propagator's coordinate while `compute`
still took one, and before the propagator moved to fraction-free
elimination over Z[t]. The four lines of a knot are byte-identical: every
coordinate gives the same torsion and defect. Each line is now checked
against `json.dumps(compute_result(pd))`, under the id of the seed that
wrote it, and against the JSON read through the propagator of every
coordinate with d1[s] != 0. A change to any line is a change of
schema-v1 output.

tests/data/oracle_v1.jsonl holds `json.dumps(cli._oracle_one((pd, None)))` for
every knot of KNOTS, one line each, in order. It was written while the Fox
oracle still normalized its determinant as a polynomial over Q.

tests/data/check_v1.jsonl holds, for every knot of KNOTS, one line each, in
order, the JSON that `dehn check --format json --pd <pd>` prints, re-dumped
on one line by `json.dumps`. It was written while `check` still compared
only the coordinates that twelve shuffled pivot seeds selected, up to
units and modulo the integers, and a propagator's selected coordinate was
still a one-element tuple; `check` now compares every coordinate with
d1[s] != 0, exactly, and prints the same.

tests/data/compute_scale_v1.jsonl holds `json.dumps(compute_result(pd))` for
every knot of SCALE_KNOTS, one line each, in order: T(2,31), T(2,51), a
48-crossing and a 98-crossing composite, past the sizes of the other files.
Its first three lines were written while the propagator was still read off
a Gauss-Jordan elimination of [d2 | I], the fourth while seeded
propagators' defects were read off the base one by a rank-one identity.
The composites' PD texts were made once by the benchmark's composite
recipe (perfbench/families.py, rng = random.Random(7)): the summands of
SUMMANDS_48 spliced in at seeded edges, then ten seeded Reidemeister-I
kinks; for the 98-crossing one, those of SUMMANDS_98, then twenty kinks.
Each line is also checked, on its own bytes, against the closed-form
Delta of its row of SCALE_KNOTS, and so are the Fox oracle of T(2,51) and
T(2,121); `check` must pass on T(2,51) and the 48-crossing composite.

tests/data/check_scale_v1.jsonl holds, for the 98-crossing composite, the
JSON that `dehn check --format json --pd <pd>` prints, re-dumped on one
line by `json.dumps`, written with the fourth line above, when `check`
compared twelve seeds' coordinates rather than all 80, and up to units
and modulo the integers rather than exactly.

tests/data/graph_v1.jsonl holds, for every knot of KNOTS, one line each, in
order, `json.dumps({"json": j, "dot": d})`: j the JSON that `dehn graph
--format json --pd <pd>` prints, read back, and d the DOT text that `dehn
graph --format dot --pd <pd>` prints. It was written while a Dehn graph
still held each vertex as an object with an id, a kind and an index,
before it held the ids in one group per Morse index.
"""

import contextlib
import functools
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (ALEXANDER, CORPUS, FIG8_KINKED, TREFOIL_KINKED, compute_result_at,
                      pipeline, q_add, q_derivative, q_mul, selectable, torus_pd)
from dehn import cli
from dehn.algebra import Polynomial
from dehn.pipeline import compute_result

GOLDEN = Path(__file__).parent / "data" / "compute_v1.jsonl"
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_v1.jsonl"
CHECK_GOLDEN = Path(__file__).parent / "data" / "check_v1.jsonl"
T2_7 = "[[1,8,2,9],[3,10,4,11],[5,12,6,13],[7,14,8,1],[9,2,10,3],[11,4,12,5],[13,6,14,7]]"
KNOTS = ([(name, CORPUS[name]) for name in sorted(CORPUS)]
         + [("3_1_kinked", TREFOIL_KINKED), ("4_1_kinked", FIG8_KINKED), ("T2_7", T2_7)])
SEEDS = (None, 0, 1, 2)  # the seeds the lines of GOLDEN were written with
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
COMPOSITE_98 = (
    "[[162,165,163,166],[164,159,165,160],[166,161,167,162],[160,127,161,128],"
    "[158,163,159,164],[179,168,180,169],[173,176,174,177],[167,175,168,174],"
    "[175,21,176,20],[171,178,172,179],[177,172,178,173],[120,22,121,21],[124,122,125,121],"
    "[122,81,123,82],[22,123,23,124],[67,70,68,71],[69,66,70,67],[65,68,66,69],"
    "[76,71,77,72],[78,73,79,74],[80,75,81,76],[72,77,73,78],[74,79,75,80],"
    "[180,189,181,190],[194,3,195,4],[188,196,189,195],[196,182,1,181],[190,19,191,20],"
    "[4,193,5,194],[117,82,118,83],[119,114,120,115],[85,116,86,117],[115,88,116,89],"
    "[89,118,90,119],[96,114,97,113],[112,98,113,97],[98,91,99,92],[90,111,91,112],"
    "[29,62,30,63],[23,26,24,27],[43,25,44,24],[25,31,26,30],[63,28,64,29],[27,64,28,65],"
    "[40,33,41,34],[42,37,43,38],[34,39,35,40],[38,35,39,36],[36,41,37,42],[48,59,49,60],"
    "[56,61,57,62],[58,45,59,46],[60,49,61,50],[44,57,45,58],[128,133,129,134],"
    "[152,155,153,156],[132,154,133,153],[154,132,155,131],[134,157,135,158],"
    "[156,135,157,136],[105,111,106,110],[109,107,110,106],[107,100,108,101],"
    "[99,108,100,109],[183,186,184,187],[185,182,186,183],[187,184,188,185],[8,11,9,12],"
    "[10,15,11,16],[12,5,13,6],[16,13,17,14],[14,9,15,10],[136,139,137,140],"
    "[146,149,147,150],[138,148,139,147],[148,138,149,137],[140,151,141,152],"
    "[150,141,151,142],[6,7,7,8],[17,18,18,19],[191,192,192,193],[31,32,32,33],"
    "[125,126,126,127],[46,47,47,48],[92,95,93,96],[50,51,51,52],[86,87,87,88],"
    "[52,53,53,54],[142,145,143,146],[101,104,102,105],[93,94,94,95],[143,144,144,145],"
    "[169,170,170,171],[129,130,130,131],[83,84,84,85],[54,55,55,56],[102,103,103,104],"
    "[1,2,2,3]]")
SUMMANDS_48 = ("5_2", "6_1", "4_1", "3_1", "5_1", "6_1", "5_2", "4_1")
SUMMANDS_98 = SUMMANDS_48 + ("6_1", "5_2", "5_1", "6_1", "4_1", "3_1", "5_2", "6_1")


def torus_alexander(n: int) -> Polynomial:
    """Delta of T(2,n), n odd: sum_{i<n} (-t)^i."""
    return Polynomial((-1) ** i for i in range(n))


def sum_alexander(summands) -> Polynomial:
    """Delta of a connected sum, kinks or not: the product of its summands'."""
    return functools.reduce(q_mul, (Polynomial(ALEXANDER[name]) for name in summands))


# (name, PD code, Delta in closed form)
SCALE_KNOTS = [("T2_31", torus_pd(31), torus_alexander(31)),
               ("T2_51", torus_pd(51), torus_alexander(51)),
               ("composite_48", COMPOSITE_48, sum_alexander(SUMMANDS_48)),
               ("composite_98", COMPOSITE_98, sum_alexander(SUMMANDS_98))]
SCALE_IDS = [name for name, _, _ in SCALE_KNOTS]
CHECK_SCALE_GOLDEN = Path(__file__).parent / "data" / "check_scale_v1.jsonl"
GRAPH_GOLDEN = Path(__file__).parent / "data" / "graph_v1.jsonl"
CASES = [(name, pd, seed) for name, pd in KNOTS for seed in SEEDS]


def golden_lines(path=GOLDEN):
    return path.read_text(encoding="utf-8").splitlines()


def test_golden_file_has_one_line_per_case():
    assert len(golden_lines()) == len(CASES)


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{name}-seed{seed}" for name, _, seed in CASES])
def test_compute_json_matches_golden(index):
    _, pd, _ = CASES[index]
    assert json.dumps(compute_result(pd)) == golden_lines()[index]


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_compute_json_matches_golden_at_every_coordinate(index):
    # The JSON read through the propagator of every coordinate with d1[s]
    # != 0 is the knot's line, byte for byte.
    _, pd = KNOTS[index]
    line = golden_lines()[index * len(SEEDS)]
    for s in selectable(pipeline(pd).complex):
        assert json.dumps(compute_result_at(pd, s)) == line, s


def test_oracle_golden_file_has_one_line_per_knot():
    assert len(golden_lines(ORACLE_GOLDEN)) == len(KNOTS)


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_oracle_json_matches_golden(index):
    _, pd = KNOTS[index]
    assert json.dumps(cli._oracle_one((pd, None))) == golden_lines(ORACLE_GOLDEN)[index]


def test_check_golden_file_has_one_line_per_knot():
    assert len(golden_lines(CHECK_GOLDEN)) == len(KNOTS)


def cli_stdout(*argv):
    """What `dehn <argv>` prints on stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def check_json(pd):
    """The JSON that `dehn check --format json` prints, on one line."""
    return json.dumps(json.loads(cli_stdout("check", "--format", "json", "--pd", pd)))


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_check_json_matches_golden(index):
    _, pd = KNOTS[index]
    assert check_json(pd) == golden_lines(CHECK_GOLDEN)[index]


def test_scale_golden_file_has_one_line_per_knot():
    assert len(golden_lines(SCALE_GOLDEN)) == len(SCALE_KNOTS)


@pytest.mark.parametrize("index", range(len(SCALE_KNOTS)), ids=SCALE_IDS)
def test_compute_json_matches_golden_at_scale(index):
    _, pd, _ = SCALE_KNOTS[index]
    assert json.dumps(compute_result(pd)) == golden_lines(SCALE_GOLDEN)[index]


T_MINUS_1 = Polynomial((-1, 1))


def read_pair(obj) -> tuple:
    """The (num, den) Polynomials of a schema-v1 rational function."""
    return tuple(Polynomial(map(Fraction, obj[part])) for part in ("num", "den"))


def unit_multiple(p: Polynomial, q: Polynomial) -> bool:
    """p = +-t^m q for some integer m, p and q nonzero."""
    p, q = (x.coeffs[next(i for i, c in enumerate(x.coeffs) if c):] for x in (p, q))
    return p == q or p == tuple(-c for c in q)


def defect_holds(num: Polynomial, den: Polynomial, delta: Polynomial) -> bool:
    """num / den = t Delta'/Delta - t/(t-1) + c for an integer c. The right
    side is a / b, b = Delta (t-1), so num * b - a * den must be c * den * b."""
    a = q_mul(Polynomial((0, 1)), q_add(q_mul(q_derivative(delta), T_MINUS_1), delta, -1))
    b = q_mul(delta, T_MINUS_1)
    rest, scale = q_add(q_mul(num, b), q_mul(a, den), -1), q_mul(den, b)
    c = rest.coeffs[-1] / scale.coeffs[-1] if rest.coeffs else Fraction(0)
    return c.denominator == 1 and not q_add(rest, scale, -c).coeffs


@pytest.mark.parametrize("index", range(len(SCALE_KNOTS)), ids=SCALE_IDS)
def test_scale_golden_line_holds_the_closed_forms(index):
    # Read off the committed line alone, in conftest's Q[t] references, and
    # never through dehn's Z[t] kernel: the line is checked, not only kept.
    _, pd, delta = SCALE_KNOTS[index]
    result = json.loads(golden_lines(SCALE_GOLDEN)[index])
    assert (result["schema_version"], result["pd"], result["crossings"]) == (
        1, pd, len(json.loads(pd)))
    checks = result["checks"]
    assert tuple(checks) == ("exact", "propagator", "lescop", "milnor", "d2_consistency")
    assert all(ok is True for ok in checks.values())
    normalized = result["torsion"]["normalized"]
    assert (normalized["num"], normalized["den"]) == ([str(c) for c in delta.coeffs], ["-1", "1"])
    raw_num, raw_den = read_pair(result["torsion"]["raw"])
    assert unit_multiple(q_mul(raw_num, T_MINUS_1), q_mul(delta, raw_den))
    assert defect_holds(*read_pair(result["defect"]["representative"]), delta)


@pytest.mark.parametrize("n", [51, 121])
def test_oracle_at_scale_is_the_torus_closed_form(n):
    got = json.loads(cli_stdout("oracle", "--pd", torus_pd(n)))["alexander"]
    assert got == [str(c) for c in torus_alexander(n).coeffs]


@pytest.mark.parametrize("pd", [torus_pd(51), COMPOSITE_48], ids=["T2_51", "composite_48"])
def test_check_passes_at_scale(pd):
    # The 98-crossing composite's `check` JSON is golden below.
    result = json.loads(cli_stdout("check", "--format", "json", "--pd", pd))
    assert result["passed"] is True and all(ok is True for ok in result["checks"].values())


def test_check_json_matches_golden_at_scale():
    assert golden_lines(CHECK_SCALE_GOLDEN) == [check_json(COMPOSITE_98)]


def test_graph_golden_file_has_one_line_per_knot():
    assert len(golden_lines(GRAPH_GOLDEN)) == len(KNOTS)


@pytest.mark.parametrize("index", range(len(KNOTS)), ids=[name for name, _ in KNOTS])
def test_graph_json_and_dot_match_golden(index):
    _, pd = KNOTS[index]
    line = {"json": json.loads(cli_stdout("graph", "--format", "json", "--pd", pd)),
            "dot": cli_stdout("graph", "--format", "dot", "--pd", pd)}
    assert json.dumps(line) == golden_lines(GRAPH_GOLDEN)[index]
