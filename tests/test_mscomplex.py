import itertools
from operator import delitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, FIG8_KINKED, TREFOIL, TREFOIL_KINKED, from_rows, is_zero_matrix,
                      mat, qt_complex, qt_d1, qt_d2, qt_image, qt_mul, selectable, t_power,
                      torus_pd)
from dehn.algebra import RatFunc, _unpack
from dehn.dehngraph import (GroupRingTerm, build_d1, build_d2, build_dehn_graph,
                            graph_from_json, graph_to_json)
from dehn.diagram import build_diagram, parse_pd
from dehn.errors import DehnError, NotExactError
from dehn import mscomplex
from dehn.invariants import build_propagator, propagator_at
from dehn.mscomplex import (ChainComplex, ExactnessReport, Representation, _certify_inverse,
                            build_complex, check_exactness, complex_to_json)
from test_cli import label_valid_pd

# -- representations ----------------------------------------------------------


def test_representation_exponents():
    abelian, trivial = Representation.abelian(), Representation.trivial()
    assert abelian.exponent(((0, 1),)) == 1
    assert abelian.exponent(()) == 0
    assert abelian.exponent(((0, 1), (1, 1))) == 2
    assert abelian.exponent(((0, -1),)) == -1
    assert trivial.exponent(((0, 1), (1, 1))) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, -1)),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=10))
def test_abelian_exponent_matches_the_letter_by_letter_image(sign, letters):
    # A signed word maps to sign * t^exponent; the reference multiplies the
    # images of its letters one at a time in Q(t).
    term = GroupRingTerm(sign, tuple(letters))
    m = Representation.abelian().exponent(term.word)
    assert qt_mul(RatFunc(sign), t_power(m)) == qt_image(term)


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
    d2, d1 = qt_d2(cx), qt_d1(cx)
    assert d2.rows == 4 and d2.cols == 3
    found = False
    for rperm in itertools.permutations(range(4)):
        for cperm in itertools.permutations(range(3)):
            if all(TREFOIL_D2.entry(i, j) == d2.entry(rperm[i], cperm[j])
                   for i in range(4) for j in range(3)) \
               and all(TREFOIL_D1.entry(0, i) == d1.entry(0, rperm[i])
                       for i in range(4)):
                found = True
    assert found


def test_trefoil_d1_entries():
    _, _, _, cx = _complex(TREFOIL)
    entries = sorted(str(qt_d1(cx).entry(0, j)) for j in range(4))
    assert entries == sorted(["-t+1", "-t+1", "-t+1", "-t^2+1"])


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_d1_d2_is_zero(text):
    _, _, _, cx = _complex(text)
    assert is_zero_matrix(qt_d1(cx) @ qt_d2(cx))


FAST_PATH_KNOTS = (
    [pytest.param(text, region.id, id=f"{name}-outer{region.id}")
     for name, text in sorted(CORPUS.items())
     for region in build_diagram(parse_pd(text)).regions]
    + [pytest.param(TREFOIL_KINKED, None, id="3_1-kinked"),
       pytest.param(FIG8_KINKED, None, id="4_1-kinked")]
    + [pytest.param(torus_pd(n), None, id=f"T(2,{n})") for n in range(3, 22, 2)])


@pytest.mark.parametrize("text,outer", FAST_PATH_KNOTS)
def test_abelian_complex_matches_general_path(text, outer):
    # The Z[t] rows over Q(t) equal the reference complex, whose entries
    # are sums of products of t and 1/t taken letter by letter.
    d = build_diagram(parse_pd(text), outer_region=outer)
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    cx = build_complex(g, Representation.abelian())
    assert (qt_d2(cx), qt_d1(cx)) == qt_complex(g)


@settings(max_examples=150, deadline=None)
@given(label_valid_pd())
def test_complex_rows_on_label_valid_codes(text):
    # For every code that makes a diagram, d2 has only entries of degree at
    # most 1 (sums of corner labels +-1 and +-t) and both boundary matrices
    # over Q(t) equal the reference complex.
    try:
        d = build_diagram(parse_pd(text))
    except DehnError:
        return
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    cx = build_complex(g, Representation.abelian())
    assert all(len(x) <= 2 for row in cx.d2_rows for x in row)
    assert (qt_d2(cx), qt_d1(cx)) == qt_complex(g)


def _trefoil_graph_json():
    d = build_diagram(parse_pd(TREFOIL))
    return graph_to_json(build_dehn_graph(d, build_d1(d), build_d2(d)))


def test_build_complex_rejects_a_negative_power_in_d2():
    # A corner word inverted by hand maps to 1/t, so d2 would leave Z[t]:
    # build_complex names the edge instead of reading it.
    data = _trefoil_graph_json()
    edge = next(e for e in data["edges"] if e["origin"][0] == "corner" and e["word"])
    edge["word"] = [[name, -exp] for name, exp in edge["word"]]
    with pytest.raises(DehnError, match=f"edge {edge['from']} -> {edge['to']}"):
        build_complex(graph_from_json(data), Representation.abelian())


@pytest.mark.parametrize("field,value,match", [
    ("to", "nowhere", "edge p0 -> nowhere runs neither"),
    ("to", "inf", "edge p0 -> inf runs neither"),  # crossing to basepoint
    ("from", "q1", "edge q1 -> q0 runs neither"),  # region to region
    ("word", [["zz", 1]], "edge p0 -> q0: letter 'zz' names no arc"),
])
def test_malformed_graph_json_names_the_edge(field, value, match):
    # The first edge runs p0 -> q0; each change breaks it, and the
    # graph_from_json -> build_complex path names it, with no KeyError.
    data = _trefoil_graph_json()
    assert (data["edges"][0]["from"], data["edges"][0]["to"]) == ("p0", "q0")
    data["edges"][0][field] = value
    with pytest.raises(DehnError, match=match):
        build_complex(graph_from_json(data), Representation.abelian())


@pytest.mark.parametrize("edit,match", [
    pytest.param(lambda data: data["edges"][0].update(word=[["a", 2]]),
                 "edge p0 -> q0: letter 'a' has exponent 2, not \\+1 or -1", id="exponent-2"),
    pytest.param(lambda data: delitem(data["edges"][0], "word"),
                 "edge p0 -> q0 has no 'word'", id="no-word"),
    pytest.param(lambda data: delitem(data["edges"][0], "from"), "edge 0 has no 'from'",
                 id="no-from"),
    pytest.param(lambda data: delitem(data["vertices"][0], "index"),
                 "vertex 'p0' has no 'index'", id="no-index"),
    pytest.param(lambda data: data["edges"][0].update(sign=3),
                 "edge p0 -> q0: sign 3 is not \\+1 or -1", id="sign-3"),
    pytest.param(lambda data: data["edges"][0].update(word=[["a"]]),
                 "edge p0 -> q0: letter \\['a'\\] is not a \\[name, exponent\\] pair",
                 id="letter-without-exponent"),
    pytest.param(lambda data: delitem(data, "arcs"), "graph has no 'arcs'", id="no-arcs"),
    pytest.param(lambda data: delitem(data, "edges"), "graph has no 'edges'", id="no-edges"),
    pytest.param(lambda data: data["edges"].insert(0, ["p0", "q0"]), "edge 0 is not an object",
                 id="edge-not-an-object"),
    pytest.param(lambda data: data["edges"][0].update(word="a"),
                 "edge p0 -> q0: 'word' has type str, not list", id="word-not-a-list"),
    pytest.param(lambda data: data["edges"][0].update(origin=7),
                 "edge p0 -> q0: 'origin' has type int, not list", id="origin-not-a-list"),
    pytest.param(lambda data: [data], "graph is not an object", id="top-level-list"),
    pytest.param(lambda data: data["vertices"][0].update(index=7),
                 "vertex 'p0': index 7 is not 0, 1 or 2", id="index-7"),
    pytest.param(lambda data: data["edges"][0].update(sign=True),
                 "edge p0 -> q0: 'sign' has type bool, not int", id="sign-true"),
    pytest.param(lambda data: data["edges"][0].update(word=[["a", True]]),
                 "edge p0 -> q0: letter 'a' has exponent True, not \\+1 or -1",
                 id="exponent-true"),
    pytest.param(lambda data: data["vertices"][0].update(kind="region"),
                 "vertex 'p0': kind 'region' does not match index 2", id="kind-not-index"),
    pytest.param(lambda data: data["vertices"].append(dict(data["vertices"][3])),
                 "vertex 'q0' is repeated", id="repeated-id"),
    pytest.param(lambda data: data["vertices"][-1].update(id="base"),
                 "the index-0 vertices are \\['base'\\], not \\['inf'\\]",
                 id="renamed-basepoint"),
    pytest.param(lambda data: delitem(data["vertices"], -1),
                 "the index-0 vertices are \\[\\], not \\['inf'\\]", id="no-basepoint"),
    pytest.param(lambda data: data["vertices"].append(
                     {"id": "o", "kind": "basepoint", "index": 0}),
                 "the index-0 vertices are \\['inf', 'o'\\], not \\['inf'\\]",
                 id="second-basepoint"),
    pytest.param(lambda data: data["edges"][0].update(to="nowhere"),
                 "edge p0 -> nowhere runs neither from a crossing to a region nor from a "
                 "region to the basepoint", id="undeclared-end"),
    pytest.param(lambda data: data["edges"][0].update({"from": "q0", "to": "p0"}),
                 "edge q0 -> p0 runs neither", id="region-to-crossing"),
    pytest.param(lambda data: data["edges"][0].update(origin=["bogus", "x"]),
                 "edge p0 -> q0: origin \\['bogus', 'x'\\] is not \\['corner', crossing, "
                 "position 0..3\\]", id="bogus-origin"),
    pytest.param(lambda data: data["edges"][-1].update(origin=["corner", 0, 0]),
                 "origin \\['corner', 0, 0\\] is not \\['region_plus' or 'region_minus', "
                 "region\\]", id="corner-origin-on-a-basepoint-edge"),
])
def test_malformed_graph_json_is_a_dehn_error(edit, match):
    # Each edit breaks the document, a vertex (p0, q0 or inf) or the first
    # edge (p0 -> q0), in place or by returning the document to read instead:
    # graph_from_json names the item in a DehnError, with no ValueError,
    # KeyError or TypeError. A sign of 3 is refused before it can reach
    # d1 * d2, and JSON true is not the sign or exponent +1. A vertex's
    # Morse index fixes its kind, its id is its own, and the one vertex of
    # index 0 is the basepoint "inf". An edge runs between declared
    # vertices, from a crossing to a region or from a region to "inf", and
    # carries the origin graph_to_json writes on an edge of its kind.
    data = _trefoil_graph_json()
    document = edit(data)
    with pytest.raises(DehnError, match=match):
        graph_from_json(data if document is None else document)


def test_d2_column_block_counts():
    d, _, _, cx = _complex(TREFOIL)
    for j, c in enumerate(d.crossings):
        bounded_corners = sum(
            1 for pos in range(4)
            if d.corner_region[(c.id, pos)] != d.unbounded_region)
        nonzero = sum(1 for row in cx.d2_rows if row[j])
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
    assert is_zero_matrix(qt_d1(cx))
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
    # c1 = 2, c2 = 0.
    (((), ()), ((1,), ()), "dimension mismatch: 2 != 0 + 1"),
    # d2 = (1, 0)^T injects and d1 = (1, 1) surjects, but d1 * d2 = 1.
    ((((1,),), ((),)), ((1,), (1,)), "d1*d2 != 0"),
    # D1 = (D, -D), D = 3 + 10^30 t, far past the 4 bits the elimination of
    # [d2 | e_s0 | I] packs at: d1 * d2 = 0 over Z[t], exact.
    ((((1,),), ((1,),)), ((3, 10 ** 30), (-3, -10 ** 30)), None),
    # D1 = (2^100 t, -16 + (1 - 2^100) t): d1 * d2 = -16 + t, nonzero,
    # though its value at t = 2^4, the elimination's width, is 0.
    ((((1,),), ((1,),)), ((0, 1 << 100), (-16, 1 - (1 << 100))), "d1*d2 != 0"),
    # d2 = ((1, 0), (0, 1), (0, 0)) injects and d1 = (t - 8, 0, 1)
    # surjects, but d1 * d2 = (t - 8, 0), which packed at 3 bits reads 0.
    ((((1,), ()), ((), (1,)), ((), ())), ((-8, 1), (), (1,)), "d1*d2 != 0"),
])
def test_exactness_witness_read_off_the_elimination(d2_rows, d1_row, witness):
    c2 = len(d2_rows[0])
    cx = ChainComplex(d2_rows, (1,), d1_row, tuple(f"c{j}" for j in range(c2)),
                      tuple(f"q{i}" for i in range(len(d2_rows))))
    assert check_exactness(cx) == ExactnessReport(witness is None, witness)


def _sign_flipped_trefoil(origin):
    """The trefoil's complex with the sign of the corner edge at `origin`
    flipped: the dimensions and both ranks are kept, but d1 * d2 is no
    longer zero, so it is not a complex."""
    data = _trefoil_graph_json()
    edge = next(e for e in data["edges"] if e["origin"] == origin)
    edge["sign"] *= -1
    cx = build_complex(graph_from_json(data), Representation.abelian())
    assert sum(p < cx.c2_dim for p in cx.forward_elimination[1]) == cx.c2_dim
    return cx


def test_exactness_requires_d1_d2_zero():
    # No propagator is built on the non-complex, whichever column of d1 *
    # d2 is nonzero: crossing 0's first corner edge moves column 0, and
    # crossing 2's, into a region where d1 is nonzero too, the last.
    for origin, product in [(["corner", 0, 0], [[(0, 2, -2), 0, 0]]),
                            (["corner", 2, 0], [[0, 0, (0, 2, -2)]])]:
        cx = _sign_flipped_trefoil(origin)
        assert qt_d1(cx) @ qt_d2(cx) == mat(product), origin
        assert check_exactness(cx) == ExactnessReport(False, "d1*d2 != 0"), origin
        with pytest.raises(NotExactError, match="d1\\*d2 != 0"):
            build_propagator(cx)
    # The certificate of the scaled inverse rests on this test: on the
    # non-complex, X is made and passes it, and only the exactness report
    # keeps a propagator from being read off it.
    _certify_inverse(cx, cx.scaled_inverse)


@pytest.mark.parametrize("text", [TREFOIL, FIG8_KINKED, TREFOIL_KINKED])
def test_exactness_makes_no_packed_product_test(text, monkeypatch):
    # d1 * d2 = 0 is tested on coefficient lists: the report, exact or
    # not, reads no packed row and makes no `is_diagonal_product` test.
    def refuse(*args):
        raise AssertionError("is_diagonal_product called")
    monkeypatch.setattr(mscomplex, "is_diagonal_product", refuse)
    _, _, _, cx = _complex(text)
    assert check_exactness(cx) == ExactnessReport(True)
    assert not check_exactness(_sign_flipped_trefoil(["corner", 2, 0])).exact


@pytest.mark.parametrize("text", [TREFOIL, FIG8_KINKED])
def test_exactness_and_default_propagator_share_one_elimination(text, monkeypatch):
    # The rank is read off the cached forward elimination of [d2 | e_s0 | I],
    # and every propagator, at s0 or at any other coordinate, reads the one
    # back substitution of its rows: one kernel call per complex.
    calls = []
    kernel = mscomplex.fraction_free_elimination
    monkeypatch.setattr(mscomplex, "fraction_free_elimination",
                        lambda rows, headroom=0: calls.append("forward") or kernel(rows, headroom))
    solve = mscomplex.fraction_free_back_substitution
    monkeypatch.setattr(mscomplex, "fraction_free_back_substitution",
                        lambda rows, n: calls.append("back") or solve(rows, n))
    _, _, _, cx = _complex(text)
    assert check_exactness(cx).exact
    assert calls == ["forward"]
    g = build_propagator(cx)
    reduced, pivots, _, k = cx.forward_elimination
    assert calls == ["forward", "back"] and g.selected == cx.base_coordinate
    assert pivots == list(range(cx.c1_dim)) and g.delta == _unpack(reduced[-1][pivots[-1]], k)
    propagators = [propagator_at(cx, s) for s in selectable(cx)]
    assert calls == ["forward", "back"]
    assert len(propagators) > 1


# -- serialization -------------------------------------------------------------------


def test_complex_json_bookkeeping():
    _, _, _, cx = _complex(TREFOIL)
    data = complex_to_json(cx)
    assert data["bases"]["c2"] == ["p0", "p1", "p2"]
    assert data["bases"]["c0"] == ["inf"]
    assert data["d2"]["rows"] == 4 and data["d2"]["cols"] == 3
    assert set(data) == {"bases", "d2", "d1"}


def _matrix_json(m):
    """The JSON form a Q(t) matrix took when it was written through a
    FieldMatrix: its shape and every entry's `to_json`, row by row."""
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[e.to_json() for e in m.row(i)] for i in range(m.rows)]}


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_complex_json_entries_match_the_qt_reference(name, text):
    # Under every outer region, the d2 and d1 that complex_to_json writes
    # from the Z[t] rows are the reference Q(t) matrices in the form a
    # FieldMatrix wrote them in, and read back they equal the complex built
    # letter by letter in Q(t).
    for region in build_diagram(parse_pd(text)).regions:
        d = build_diagram(parse_pd(text), outer_region=region.id)
        g = build_dehn_graph(d, build_d1(d), build_d2(d))
        cx = build_complex(g, Representation.abelian())
        data = complex_to_json(cx)
        assert data["d2"] == _matrix_json(qt_d2(cx)), region.id
        assert data["d1"] == _matrix_json(qt_d1(cx)), region.id
        assert tuple(from_rows([[RatFunc.from_json(e) for e in row]
                                for row in data[key]["entries"]])
                     for key in ("d2", "d1")) == qt_complex(g), region.id
