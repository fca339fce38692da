import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, FIG8, FIG8_KINKED, TREFOIL, TREFOIL_KINKED,
                      QtProductRepresentation, is_zero_matrix, mat, qt_complex, rf,
                      torus_pd)
from dehn.algebra import RatFunc
from dehn.dehngraph import (GroupRingTerm, build_d1, build_d2, build_dehn_graph,
                            graph_from_json, graph_to_json)
from dehn.diagram import build_diagram, parse_pd
from dehn.errors import DehnError
from dehn import mscomplex
from dehn.invariants import build_propagator
from dehn.mscomplex import (ChainComplex, ExactnessReport, Representation, build_complex,
                            check_exactness, complex_to_json, eval_rep)
from test_cli import label_valid_pd

# -- representations ----------------------------------------------------------


def test_eval_rep_abelian():
    rep = Representation.abelian()
    assert eval_rep(rep, GroupRingTerm(-1, ((0, 1),))) == rf((0, -1))
    assert eval_rep(rep, GroupRingTerm(1, ())) == RatFunc.one()
    assert eval_rep(rep, GroupRingTerm(-1, ((0, 1), (1, 1)))) == rf((0, 0, -1))
    assert eval_rep(rep, GroupRingTerm(1, ((0, -1),))) == rf(1, (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, -1)),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=10))
def test_abelian_eval_rep_matches_general_path(sign, letters):
    # The abelian image is sign * t^(exponent sum), cached per exponent: the
    # second call reads the cache. The reference multiplies letter by letter.
    term = GroupRingTerm(sign, tuple(letters))
    expected = eval_rep(QtProductRepresentation(), term)
    rep = Representation.abelian()
    assert eval_rep(rep, term) == expected == eval_rep(rep, term)


# -- boundary matrices -----------------------------------------------------------


def _complex(text, rep=None):
    d = build_diagram(parse_pd(text))
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    rep = rep or Representation.abelian()
    return d, g, rep, build_complex(g, rep)


TREFOIL_D2 = mat([
    [(0, -1), -1, 0],
    [1, 1, 1],
    [0, (0, -1), -1],
    [-1, 0, (0, -1)],
])
TREFOIL_D1 = mat([[(1, -1), (1, 0, -1), (1, -1), (1, -1)]])


def test_trefoil_d2_matches_fixture_up_to_permutation():
    _, _, _, cx = _complex(TREFOIL)
    assert cx.d2.rows == 4 and cx.d2.cols == 3
    found = False
    for rperm in itertools.permutations(range(4)):
        for cperm in itertools.permutations(range(3)):
            if all(TREFOIL_D2.entry(i, j) == cx.d2.entry(rperm[i], cperm[j])
                   for i in range(4) for j in range(3)) \
               and all(TREFOIL_D1.entry(0, i) == cx.d1.entry(0, rperm[i])
                       for i in range(4)):
                found = True
    assert found


def test_trefoil_d1_entries():
    _, _, _, cx = _complex(TREFOIL)
    entries = sorted(str(cx.d1.entry(0, j)) for j in range(4))
    assert entries == sorted(["-t+1", "-t+1", "-t+1", "-t^2+1"])


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_d1_d2_is_zero(text):
    _, _, _, cx = _complex(text)
    assert is_zero_matrix(cx.d1 @ cx.d2)


FAST_PATH_KNOTS = (
    [pytest.param(text, region.id, id=f"{name}-outer{region.id}")
     for name, text in sorted(CORPUS.items())
     for region in build_diagram(parse_pd(text)).regions]
    + [pytest.param(TREFOIL_KINKED, None, id="3_1-kinked"),
       pytest.param(FIG8_KINKED, None, id="4_1-kinked")]
    + [pytest.param(torus_pd(n), None, id=f"T(2,{n})") for n in range(3, 22, 2)])


@pytest.mark.parametrize("text,outer", FAST_PATH_KNOTS)
def test_abelian_complex_matches_general_path(text, outer):
    # The Q(t) views of the Z[t] rows equal the reference complex, whose
    # entries are sums of products of t and 1/t taken letter by letter.
    d = build_diagram(parse_pd(text), outer_region=outer)
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    cx = build_complex(g, Representation.abelian())
    assert (cx.d2, cx.d1) == qt_complex(g)


@settings(max_examples=150, deadline=None)
@given(label_valid_pd())
def test_complex_rows_on_label_valid_codes(text):
    # For every code that makes a diagram, d2 has only entries of degree at
    # most 1 (sums of corner labels +-1 and +-t) and both views equal the
    # reference complex.
    try:
        d = build_diagram(parse_pd(text))
    except DehnError:
        return
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    cx = build_complex(g, Representation.abelian())
    assert all(len(x) <= 2 for row in cx.d2_rows for x in row)
    assert (cx.d2, cx.d1) == qt_complex(g)


def test_build_complex_rejects_a_negative_power_in_d2():
    # A corner word inverted by hand maps to 1/t, so d2 would leave Z[t]:
    # build_complex names the edge instead of reading it.
    d = build_diagram(parse_pd(TREFOIL))
    data = graph_to_json(build_dehn_graph(d, build_d1(d), build_d2(d)))
    edge = next(e for e in data["edges"] if e["origin"][0] == "corner" and e["word"])
    edge["word"] = [[name, -exp] for name, exp in edge["word"]]
    with pytest.raises(DehnError, match=f"edge {edge['from']} -> {edge['to']}"):
        build_complex(graph_from_json(data), Representation.abelian())


def test_d2_column_block_counts():
    d, _, _, cx = _complex(TREFOIL)
    for j, c in enumerate(d.crossings):
        bounded_corners = sum(
            1 for pos in range(4)
            if d.corner_region[(c.id, pos)] != d.unbounded_region)
        nonzero = sum(1 for i in range(cx.d2.rows)
                      if not cx.d2.entry(i, j).is_zero())
        assert nonzero <= bounded_corners
        assert nonzero >= 1


# -- exactness ---------------------------------------------------------------------


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_abelian_complex_exact(text):
    _, _, _, cx = _complex(text)
    report = check_exactness(cx)
    assert report.exact and report.witness is None


def test_trivial_representation_not_exact():
    d = build_diagram(parse_pd(TREFOIL))
    rep = Representation.trivial()
    _, _, _, cx = _complex(TREFOIL, rep=rep)
    assert is_zero_matrix(cx.d1)
    report = check_exactness(cx)
    assert not report.exact
    assert "rank(d1)" in report.witness


@pytest.mark.parametrize("d2_rows,d1_row,witness", [
    # d2 = (0, 0)^T: no pivot among the d2 columns of [d2 | I].
    ((((),), ((),)), ((1,), ()), "rank(d2) = 0 < 1"),
    # Columns (1, t, 0)^T and (t, t^2, 0)^T: the second is t times the first.
    ((((1,), (0, 1)), ((0, 1), (0, 0, 1)), ((), ())), ((0, 1), (-1,), ()),
     "rank(d2) = 1 < 2"),
    # d2 = (1, 0)^T injects, d1 = 0.
    ((((1,),), ((),)), ((), ()), "rank(d1) = 0 < 1"),
    # c1 = 2, c2 = 0, c0 = 1.
    (((), ()), ((1,), ()), "dimension mismatch: 2 != 0 + 1"),
])
def test_exactness_witness_read_off_the_elimination(d2_rows, d1_row, witness):
    c2 = len(d2_rows[0])
    cx = ChainComplex(d2_rows, (1,), d1_row, tuple(f"c{j}" for j in range(c2)),
                      tuple(f"q{i}" for i in range(len(d2_rows))), ("inf",))
    assert check_exactness(cx) == ExactnessReport(False, witness)


@pytest.mark.parametrize("text", [TREFOIL, FIG8_KINKED])
def test_exactness_and_default_propagator_share_one_elimination(text, monkeypatch):
    # The rank is read off the cached [d2 | I] elimination, and the
    # propagator in the natural order reads the same one: one kernel call.
    calls = []
    kernel = mscomplex.fraction_free_gauss_jordan
    monkeypatch.setattr(mscomplex, "fraction_free_gauss_jordan",
                        lambda rows, forward=False: calls.append(forward) or kernel(rows, forward))
    _, _, _, cx = _complex(text)
    assert check_exactness(cx).exact
    g = build_propagator(cx)
    reduced, pivots, _ = cx.natural_elimination
    assert calls == [False] and g.delta is reduced[-1][pivots[-1]]
    build_propagator(cx, pivot_seed=3)
    assert calls == [False, False]


# -- serialization -------------------------------------------------------------------


def test_position_matches_basis_positions():
    _, _, _, cx = _complex(FIG8)
    for basis in (cx.c2_basis, cx.c1_basis, cx.c0_basis):
        for i, vertex_id in enumerate(basis):
            assert cx.position(vertex_id) == i
    with pytest.raises(KeyError):
        cx.position("no-such-vertex")


def test_complex_json_bookkeeping():
    _, _, _, cx = _complex(TREFOIL)
    data = complex_to_json(cx)
    assert data["bases"]["c2"] == ["p0", "p1", "p2"]
    assert data["bases"]["c0"] == ["inf"]
    assert data["d2"]["rows"] == 4 and data["d2"]["cols"] == 3
    assert set(data) == {"bases", "d2", "d1"}
