import pytest

from conftest import CORPUS, TREFOIL, UNKNOT_KINK, qt_add, qt_image
from dehn.algebra import RatFunc
from dehn.dehngraph import (BASEPOINT, build_d1, build_d2, build_dehn_graph, check_d2,
                            export_dot, graph_to_json)
from dehn.diagram import build_diagram, parse_pd
from dehn.mscomplex import Representation
from dehn.words import exponent_sum, word_mul

# -- corner labeling (D1) ----------------------------------------------------


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_corner_label_multiset(text):
    d = build_diagram(parse_pd(text))
    labels = build_d1(d)
    for c in range(d.k):
        x = d.over_arc(c)
        key = sorted((t.sign, t.word) for t in labels[c])
        assert key == sorted([(-1, ()), (1, ()), (-1, ((x, 1),)), (1, ((x, 1),))])


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_corner_labels_sum_to_zero_under_representation(text):
    d = build_diagram(parse_pd(text))
    labels = build_d1(d)
    for crossing_labels in labels:
        total = RatFunc(0)
        for label in crossing_labels:
            total = qt_add(total, qt_image(label))
        assert not total.znum


def test_trefoil_plus_x_corners_all_unbounded():
    # With the default unbounded face, each crossing's +x corner is dropped,
    # which is what makes the boundary columns come out as (-t, 1, -1).
    d = build_diagram(parse_pd(TREFOIL))
    labels = build_d1(d)
    for c, o in enumerate(d.over_in_pos):
        assert d.corner_region[c][(o + 2) % 4] == d.unbounded_region


# -- region labeling (D2) -----------------------------------------------------


def test_unbounded_region_label_is_empty():
    for text in CORPUS.values():
        d = build_diagram(parse_pd(text))
        labels = build_d2(d)
        assert labels[d.unbounded_region] == ()


def test_trefoil_region_exponents():
    d = build_diagram(parse_pd(TREFOIL))
    labels = build_d2(d)
    exps = sorted(exponent_sum(labels[r]) for r in d.bounded_regions())
    assert exps == [1, 1, 1, 2]


def test_kink_unknot_region_exponents_innermost_outer_choice():
    # Hand-traced with the outer face chosen as the one-corner face carrying
    # the +x corner: the remaining regions read 1 and 2, the 2 innermost.
    d = build_diagram(parse_pd(UNKNOT_KINK))
    labels = build_d1(d)
    outer = d.corner_region[0][(d.over_in_pos[0] + 2) % 4]
    d = build_diagram(parse_pd(UNKNOT_KINK), outer_region=outer)
    exps = sorted(exponent_sum(l) for r, l in enumerate(build_d2(d))
                  if r != d.unbounded_region)
    assert exps == [1, 2]


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_check_d2_clean(text):
    d = build_diagram(parse_pd(text))
    labels = build_d2(d)
    rep = Representation.abelian()
    assert check_d2(labels, d, rep) == []


def test_check_d2_detects_corruption():
    d = build_diagram(parse_pd(TREFOIL))
    labels = list(build_d2(d))
    victim = d.bounded_regions()[0]
    labels[victim] = word_mul(((0, 1),), labels[victim])
    rep = Representation.abelian()
    violations = check_d2(labels, d, rep)
    assert len(violations) >= 1
    assert all(victim in (v["left_region"], v["right_region"]) for v in violations)


# -- graph assembly -------------------------------------------------------------


def _graph(text, outer_region=None):
    d = build_diagram(parse_pd(text), outer_region=outer_region)
    return d, build_dehn_graph(d, build_d1(d), build_d2(d))


def _vertex_count(g):
    """Crossings, bounded regions and the one basepoint."""
    return len(g.crossing_vertices) + len(g.region_vertices) + 1


def test_trefoil_graph_counts():
    d, g = _graph(TREFOIL)
    assert _vertex_count(g) == 8
    corner_edges = [e for e in g.edges if e.origin[0] == "corner"]
    region_edges = [e for e in g.edges if e.origin[0].startswith("region")]
    assert len(corner_edges) == 9  # 12 corners minus the 3 on the outer face
    assert len(region_edges) == 8
    assert len(g.edges) == 17


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_graph_counts_general(text):
    d, g = _graph(text)
    k = d.k
    assert (len(g.crossing_vertices), len(g.region_vertices)) == (k, k + 1)
    assert _vertex_count(g) == 2 * k + 2
    outer_corners = len(d.regions[d.unbounded_region])
    corner_edges = [e for e in g.edges if e.origin[0] == "corner"]
    assert len(corner_edges) == 4 * k - outer_corners
    region_edges = [e for e in g.edges if e.origin[0].startswith("region")]
    assert len(region_edges) == 2 * (k + 1)


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_graph_bipartite_by_index(text):
    d, g = _graph(text)
    index = {**dict.fromkeys(g.crossing_vertices, 2), **dict.fromkeys(g.region_vertices, 1),
             BASEPOINT: 0}
    assert len(index) == _vertex_count(g)
    for e in g.edges:
        assert index[e.source] - index[e.target] == 1


def test_vertex_index_labels():
    _, g = _graph(TREFOIL)
    kinds = {v["kind"]: v["index"] for v in graph_to_json(g)["vertices"]}
    assert kinds == {"crossing": 2, "region": 1, "basepoint": 0}


def test_gamma_plus_labels_evaluate_to_identity():
    for text in CORPUS.values():
        d, g = _graph(text)
        for e in g.edges:
            if e.origin[0] == "region_plus":
                assert qt_image(e.label) == RatFunc(1)


def test_kink_gives_parallel_edges():
    # The doubled corner lies on the two-corner face, so pick a one-corner
    # face as the outer region to keep it bounded.
    d0 = build_diagram(parse_pd(UNKNOT_KINK))
    outer = next(r for r, corners in enumerate(d0.regions) if len(corners) == 1)
    d, g = _graph(UNKNOT_KINK, outer_region=outer)
    assert _vertex_count(g) == 4  # 2k+2 with k = 1
    pairs = {}
    for e in g.edges:
        if e.origin[0] == "corner":
            pairs.setdefault((e.source, e.target), []).append(e)
    assert max(len(v) for v in pairs.values()) == 2


# -- exports ---------------------------------------------------------------------


def test_dot_export_counts():
    _, g = _graph(TREFOIL)
    dot = export_dot(g)
    assert dot.count("shape=box") == 3
    assert dot.count("shape=ellipse") == 4
    assert dot.count("shape=doublecircle") == 1
    assert dot.count("->") == 17


def test_dot_empty_word_label():
    _, g = _graph(TREFOIL)
    dot = export_dot(g)
    assert 'label="+1"' in dot
