import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, FIG8_KINKED, TREFOIL, TREFOIL_KINKED, dense_d2, is_zero_matrix,
                      mat, qt_complex, qt_d1, qt_d2, qt_image, qt_mul, reference_d2, relabeled,
                      replaced, selectable, sparse_columns, t_power, torus_pd)
from dehn.algebra import RatFunc, _unpack
from dehn.dehngraph import GroupRingTerm, build_d1, build_d2, build_dehn_graph
from dehn.diagram import build_diagram, parse_pd
from dehn.errors import DehnError, NotExactError
from dehn import mscomplex
from dehn.invariants import build_propagator, propagator_at
from dehn.words import exponent_sum
from dehn.mscomplex import (ChainComplex, ExactnessReport, Representation, _certify_inverse,
                            build_complex, check_exactness)
from test_cli import label_valid_pd
from test_golden import COMPOSITE_48

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
    [pytest.param(text, region, id=f"{name}-outer{region}")
     for name, text in sorted(CORPUS.items())
     for region in range(len(build_diagram(parse_pd(text)).regions))]
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
    assert all(len(x) <= 2 for row in dense_d2(cx) for x in row)
    assert (qt_d2(cx), qt_d1(cx)) == qt_complex(g)


def _trefoil_graph():
    d = build_diagram(parse_pd(TREFOIL))
    return build_dehn_graph(d, build_d1(d), build_d2(d))


def test_build_complex_rejects_a_negative_power_in_d2():
    # A corner word inverted by hand maps to 1/t, so d2 would leave Z[t]:
    # build_complex names the corner instead of reading it.
    graph = _trefoil_graph()
    edge = next(e for e in graph.edges if e.origin[0] == "corner" and e.label.word)
    _, c, p = edge.origin
    graph = relabeled(graph, edge.origin, word=[(x, -exp) for x, exp in edge.label.word])
    with pytest.raises(DehnError, match=re.escape(f"corner {p} of crossing {c} has label "
                                                  f"{graph.d1[c][p]}, which maps to t^-1")):
        build_complex(graph, Representation.abelian())


def test_d1_reads_each_region_label_by_position():
    # Region q's label multiplied by an arc generator moves d1[q] alone,
    # from 1 - t^m to 1 - t^(m + 1), in the row of q among the bounded
    # regions; d2 and every other entry of d1 stay as they were.
    graph = _trefoil_graph()
    cx = build_complex(graph, Representation.abelian())
    assert cx.d1_den == (1,)
    for i, r in enumerate(graph.diagram.bounded_regions()):
        word = graph.d2[r]
        edited = build_complex(relabeled(graph, ("region", r), word=((0, 1),) + word),
                               Representation.abelian())
        m = exponent_sum(word)
        assert edited.d1_row[i] == (1,) + (0,) * m + (-1,), r
        assert edited.d1_row[:i] + edited.d1_row[i + 1:] == cx.d1_row[:i] + cx.d1_row[i + 1:]
        assert edited.d2_cols == cx.d2_cols


def test_d2_column_block_counts():
    d, _, _, cx = _complex(TREFOIL)
    for j, corner_regions in enumerate(d.corner_region):
        bounded_corners = sum(
            1 for region in corner_regions if region != d.unbounded_region)
        nonzero = sum(1 for row in dense_d2(cx) if row[j])
        assert nonzero <= bounded_corners
        assert nonzero >= 1


D2_KNOTS = dict(CORPUS, **{"3_1-kinked": TREFOIL_KINKED, "4_1-kinked": FIG8_KINKED})
D2_CASES = ([pytest.param(text, region, id=f"{name}-outer{region}")
             for name, text in sorted(D2_KNOTS.items())
             for region in range(len(build_diagram(parse_pd(text)).regions))]
            + [pytest.param(torus_pd(n), None, id=f"T(2,{n})") for n in range(3, 32, 2)]
            + [pytest.param(COMPOSITE_48, None, id="composite_48")])


@pytest.mark.parametrize("text,outer", D2_CASES)
def test_d2_columns_are_the_dense_d2(text, outer):
    # The complex holds d2 by its nonzeros, one column per crossing; they
    # are the columns of the dense d2 that each edge's term is added into,
    # and written out in full they are that matrix, under either
    # representation.
    d = build_diagram(parse_pd(text), outer_region=outer)
    graph = build_dehn_graph(d, build_d1(d), build_d2(d))
    for rep in (Representation.abelian(), Representation.trivial()):
        cx = build_complex(graph, rep)
        assert cx.d2_cols == sparse_columns(reference_d2(graph, rep))
        assert dense_d2(cx) == reference_d2(graph, rep)


def test_an_entry_whose_terms_cancel_is_left_out():
    # Under outer region 0 the kink's crossing p0 meets region q0 at two
    # corners, labelled -t and -1. With the second made +t the entry is
    # -t + t = 0, so column p0 holds no pair for q0, as the dense d2 has a
    # zero there.
    d = build_diagram(parse_pd(CORPUS["unknot_kink"]), outer_region=0)
    graph = build_dehn_graph(d, build_d1(d), build_d2(d))
    corners = [e for e in graph.edges if (e.source, e.target) == ("p0", "q0")]
    assert [e.label for e in corners] == [GroupRingTerm(-1, ((0, 1),)), GroupRingTerm(-1, ())]
    graph = relabeled(graph, corners[1].origin, sign=1, word=((0, 1),))
    cx = build_complex(graph, Representation.abelian())
    rows = [i for i, _ in cx.d2_cols[graph.crossing_vertices.index("p0")]]
    assert graph.region_vertices.index("q0") not in rows
    assert cx.d2_cols == sparse_columns(reference_d2(graph, Representation.abelian()))


def test_a_large_complex_holds_at_most_four_nonzeros_per_crossing():
    # T(2,2001): a crossing has four corners, so each of the 2001 columns
    # of d2 holds at most four nonzero entries, in ascending row order, and
    # d1 * d2 = 0 is tested over them, column by column, without the
    # elimination that the rank of d2 would need at this size.
    d = build_diagram(parse_pd(torus_pd(2001)))
    cx = build_complex(build_dehn_graph(d, build_d1(d), build_d2(d)), Representation.abelian())
    assert len(cx.d2_cols) == cx.c2_dim == 2001
    assert all(1 <= len(col) <= 4 for col in cx.d2_cols)
    assert all(all(e for _, e in col) and [i for i, _ in col] == sorted({i for i, _ in col})
               for col in cx.d2_cols)
    assert cx._d1_d2_vanishes()


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
    cx = ChainComplex(sparse_columns(d2_rows), (1,), d1_row)
    assert check_exactness(cx) == ExactnessReport(witness is None, witness)


def _sign_flipped_trefoil(origin):
    """The trefoil's complex with the sign of the corner edge at `origin`
    flipped: the dimensions and both ranks are kept, but d1 * d2 is no
    longer zero, so it is not a complex."""
    graph = _trefoil_graph()
    edge = next(e for e in graph.edges if e.origin == origin)
    cx = build_complex(relabeled(graph, origin, sign=-edge.label.sign),
                       Representation.abelian())
    assert sum(p < cx.c2_dim for p in cx.forward_elimination[1]) == cx.c2_dim
    return cx


def test_exactness_requires_d1_d2_zero():
    # No propagator is built on the non-complex, whichever column of d1 *
    # d2 is nonzero: crossing 0's first corner edge moves column 0, and
    # crossing 2's, into a region where d1 is nonzero too, the last.
    for origin, product in [(("corner", 0, 0), [[(0, 2, -2), 0, 0]]),
                            (("corner", 2, 0), [[0, 0, (0, 2, -2)]])]:
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
    assert check_exactness(cx) == ExactnessReport(True, None)
    assert not check_exactness(_sign_flipped_trefoil(("corner", 2, 0))).exact


@pytest.mark.parametrize("text", [TREFOIL, FIG8_KINKED])
def test_exactness_and_default_propagator_share_one_elimination(text, monkeypatch):
    # The rank is read off the cached forward elimination of [d2 | e_s0 | I],
    # and every propagator, at s0 or at any other coordinate, reads the one
    # back substitution of its rows: one kernel call per complex.
    calls = []
    kernel = mscomplex.fraction_free_elimination
    monkeypatch.setattr(mscomplex, "fraction_free_elimination",
                        lambda rows, ncols, headroom: calls.append("forward")
                        or kernel(rows, ncols, headroom))
    solve = mscomplex.fraction_free_back_substitution
    monkeypatch.setattr(mscomplex, "fraction_free_back_substitution",
                        lambda rows, n: calls.append("back") or solve(rows, n))
    _, _, _, cx = _complex(text)
    assert check_exactness(cx).exact
    assert calls == ["forward"]
    g = build_propagator(cx)
    reduced, pivots, _, k = cx.forward_elimination
    assert calls == ["forward", "back"] and g.selected == cx.base_coordinate
    assert pivots == list(range(cx.c1_dim)) and g.delta == tuple(_unpack(reduced[-1][pivots[-1]], k))
    propagators = [propagator_at(cx, s) for s in selectable(cx)]
    assert calls == ["forward", "back"]
    assert len(propagators) > 1
