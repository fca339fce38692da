import pytest

from conftest import (CORPUS, FIG8, FIG8_KINKED, HOPF_LINK, NON_ASCII_TREFOILS, NON_PLANAR,
                      PADDED_TREFOILS, TAILLESS_EDGES, TREFOIL, TREFOIL_FORMS, TREFOIL_KINKED,
                      UNKNOT_KINK, _incoming, connected_sum, pipeline, torus_pd)
from dehn.diagram import KnotDiagram, build_diagram, choose_unbounded, parse_pd, wirtinger
from dehn.errors import (ConfigError, MultiComponentError, NotPlanarError,
                         PDLabelError, PDSyntaxError)
from dehn.words import exponent_sum
from test_golden import COMPOSITE_48

# -- parsing ----------------------------------------------------------------


def test_parse_bracket_form():
    pd = parse_pd(TREFOIL)
    assert pd.k == 3
    assert pd.crossings[0] == (1, 4, 2, 5)


def test_parse_x_form():
    pd = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert pd == parse_pd(TREFOIL)
    pd2 = parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]")
    assert pd2 == parse_pd(TREFOIL)
    for sep in ("\n", "\r\n"):
        assert parse_pd(sep.join(["X(1,4,2,5)", "X(3,6,4,1)", "X(5,2,6,3)"])) == pd


def test_parse_kink_unknot():
    assert parse_pd(UNKNOT_KINK).k == 1


def test_parse_label_count_error():
    with pytest.raises(PDLabelError):
        parse_pd("[[1,4,2,5],[3,6,4,1]]")


def test_parse_syntax_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("[[1,4,2")
    with pytest.raises(PDSyntaxError):
        parse_pd("")
    with pytest.raises(PDSyntaxError):
        parse_pd("[[1,4,2,5,9],[3,6,4,1]]")
    with pytest.raises(PDSyntaxError):
        parse_pd("[[true,2,2,1]]")
    for sep in ("\n", "\r\n"):
        with pytest.raises(PDSyntaxError, match="X-form"):
            parse_pd(sep.join(["X(1,4,2,5)", "foo", "X(3,6,4,1)", "X(5,2,6,3)"]))
    # Labels, separators and the whitespace around them are ASCII in every form.
    pad = " \t\n\r\f\v"
    assert all(parse_pd(text) == parse_pd(pad + text + pad) == parse_pd(TREFOIL)
               for text in TREFOIL_FORMS)
    for text in NON_ASCII_TREFOILS + PADDED_TREFOILS:
        with pytest.raises(PDSyntaxError):
            parse_pd(text)


def test_parse_multi_component():
    with pytest.raises(MultiComponentError):
        parse_pd(HOPF_LINK)


def test_reparse_serialized_is_identity():
    for text in CORPUS.values():
        pd = parse_pd(text)
        assert parse_pd(pd.to_text()) == pd


# -- diagram structure --------------------------------------------------------


def test_trefoil_counts():
    d = build_diagram(parse_pd(TREFOIL))
    assert d.k == 3
    assert d.arc_count == 3
    assert len(d.regions) == 5
    assert len(d.bounded_regions()) == 4


def test_kink_unknot_counts():
    d = build_diagram(parse_pd(UNKNOT_KINK))
    assert d.k == 1
    assert d.arc_count == 1
    assert len(d.regions) == 3


def test_fig8_counts():
    d = build_diagram(parse_pd(FIG8))
    assert d.k == 4
    assert len(d.regions) == 6


def test_trefoil_signs_all_negative():
    d = build_diagram(parse_pd(TREFOIL))
    assert [d.sign(c) for c in range(d.k)] == [-1, -1, -1]


def test_fig8_writhe_zero():
    d = build_diagram(parse_pd(FIG8))
    assert sum(d.sign(c) for c in range(d.k)) == 0


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_face_and_corner_counts(name, text):
    d = build_diagram(parse_pd(text))
    assert len(d.regions) == d.k + 2
    assert sum(map(len, d.regions)) == 4 * d.k
    assert d.arc_count == d.k
    # every corner sits in exactly one region
    assert len(d.corner_region) == d.k and all(len(c) == 4 for c in d.corner_region)
    assert sorted(p for corners in d.regions for p in corners) == [
        (c, p) for c in range(d.k) for p in range(4)]
    assert all(d.corner_region[c][p] == r for r, corners in enumerate(d.regions)
               for c, p in corners)


STRAND_KNOTS = dict(CORPUS, **{"3_1-kinked": TREFOIL_KINKED, "4_1-kinked": FIG8_KINKED},
                    **{f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)},
                    composite_48=COMPOSITE_48)


@pytest.mark.parametrize("text", STRAND_KNOTS.values(), ids=STRAND_KNOTS)
def test_strands_and_regions_are_read_by_position(text):
    # The over-strand enters at the slot where its label has the other over
    # label as successor; at k = 1 both do, and the slot holding the under-out
    # label is the incoming one (DERIVATION.md §1). The strand methods and the
    # sign read that slot off pd.crossings, and the regions partition the
    # corners, corner_region being the inverse map.
    d = build_diagram(parse_pd(text))
    for c, crossing in enumerate(d.pd.crossings):
        if d.k == 1:
            slot = 1 if crossing[1] == crossing[2] else 3
        else:
            slot = 1 if _incoming(crossing, 1, 2 * d.k) else 3
        assert d.over_in_pos[c] == slot, c
        assert (d.under_in(c), d.over_in(c), d.under_out(c), d.over_out(c)) == (
            crossing[0], crossing[slot], crossing[2], crossing[(slot + 2) % 4]), c
        assert d.sign(c) == (-1 if slot == 1 else 1), c
    assert len(d.over_in_pos) == d.k
    corners = sorted(corner for region in d.regions for corner in region)
    assert corners == [(c, p) for c in range(d.k) for p in range(4)]
    assert {corner: r for r, region in enumerate(d.regions) for corner in region} == {
        (c, p): r for c, regions in enumerate(d.corner_region) for p, r in enumerate(regions)}


@pytest.mark.parametrize("text", sorted(CORPUS.values()) + [TREFOIL_KINKED, FIG8_KINKED]
                         + [torus_pd(n) for n in (9, 21)]
                         + [connected_sum(FIG8, TREFOIL_KINKED, CORPUS["5_2"])])
def test_arcs_are_maximal_over_strand_runs(text):
    # e and succ(e) share an arc iff e enters a crossing over, and the arcs
    # are numbered by their least edge.
    d = build_diagram(parse_pd(text))
    edges, over_in = range(1, 2 * d.k + 1), set(map(d.over_in, range(d.k)))
    assert d.arc_count == d.k and len(d.arc_of_edge) == 2 * d.k
    for e in edges:
        assert (d.arc(e) == d.arc(d.pd.succ(e))) == (e in over_in or d.k == 1)
    first = [min(e for e in edges if d.arc(e) == i) for i in range(d.arc_count)]
    assert first == sorted(first)


def test_every_edge_has_one_head_and_one_tail():
    for text in CORPUS.values():
        d = build_diagram(parse_pd(text))
        # An edge leaves a crossing at its under-out slot 2 or its over-out slot.
        tail = sorted((d.pd.crossings[c][p], (c, p))
                      for c in range(d.k) for p in (2, (d.over_in_pos[c] + 2) % 4))
        assert [e for e, _ in tail] == list(range(1, 2 * d.k + 1))
        assert d.edge_tail == tuple(slot for _, slot in tail)


def test_left_region_consistent_at_both_ends():
    for text in CORPUS.values():
        d = build_diagram(parse_pd(text))
        # An edge enters a crossing at its under-in slot 0 or its over-in slot.
        head = {d.pd.crossings[c][p]: (c, p) for c in range(d.k) for p in (0, d.over_in_pos[c])}
        assert sorted(head) == list(range(1, 2 * d.k + 1))
        for e in range(1, 2 * d.k + 1):
            hc, hp = head[e]
            assert d.edge_tail[e - 1] != (hc, hp)
            assert d.left_region(e) == d.corner_region[hc][(hp - 1) % 4]
            assert d.right_region(e) == d.corner_region[hc][hp]


def test_non_planar_rejected():
    with pytest.raises(NotPlanarError):
        build_diagram(parse_pd(NON_PLANAR))


@pytest.mark.parametrize("text", TAILLESS_EDGES, ids=("tailless-1", "tailless-2"))
def test_edge_entered_at_two_crossings_rejected(text):
    # parse_pd accepts the labels; the diagram sees an edge with no tail.
    pd = parse_pd(text)
    with pytest.raises(PDLabelError, match=r"edges \[1, 3\]"):
        build_diagram(pd)


# -- unbounded region ----------------------------------------------------------


def test_default_unbounded_rule():
    d = build_diagram(parse_pd(TREFOIL))
    sizes = dict(enumerate(map(len, d.regions)))
    best = max(sizes.values())
    expected = min(rid for rid, n in sizes.items() if n == best)
    assert d.unbounded_region == expected
    assert choose_unbounded(d.regions) == expected


def test_outer_region_override():
    d = build_diagram(parse_pd(TREFOIL), outer_region=4)
    assert d.unbounded_region == 4
    d2 = build_diagram(parse_pd(TREFOIL), outer_region=1)
    assert d2.unbounded_region == 1
    assert d2 == KnotDiagram(d.pd, d.over_in_pos, d.arc_count, d.arc_of_edge, d.regions, 1,
                             d.corner_region, d.edge_tail)


def test_outer_region_override_invalid():
    with pytest.raises(ConfigError):
        build_diagram(parse_pd(TREFOIL), outer_region=99)
    with pytest.raises(ConfigError):
        build_diagram(parse_pd(TREFOIL), outer_region=-1)


def test_invariants_agree_for_every_outer_choice():
    from dehn.invariants import defect_equal_mod_Z, torsion_equal_up_to_units
    base = pipeline(TREFOIL)
    for rid in range(5):
        run = pipeline(TREFOIL, outer_region=rid)
        assert torsion_equal_up_to_units(base.tor, run.tor)
        assert defect_equal_mod_Z(base.d, run.d)


# -- Wirtinger presentation -----------------------------------------------------


def test_trefoil_wirtinger_shape():
    d = build_diagram(parse_pd(TREFOIL))
    w = wirtinger(d)
    assert len(w.generators) == 3
    assert len(w.relations) == 3
    for rel in w.relations:
        assert exponent_sum(rel) == 0  # conjugation relators abelianize to zero


def test_kink_unknot_wirtinger_trivial_relation():
    d = build_diagram(parse_pd(UNKNOT_KINK))
    w = wirtinger(d)
    assert len(w.generators) == 1
    assert w.relations == ((),)


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_wirtinger_relators_abelianize_to_zero(text):
    d = build_diagram(parse_pd(text))
    for rel in wirtinger(d).relations:
        assert exponent_sum(rel) == 0
