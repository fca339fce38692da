import dataclasses
import random

import pytest

from conftest import (CORPUS, FIG8, FIG8_KINKED, TREFOIL, TREFOIL_KINKED,
                      UNKNOT_KINK, defect_terms, det_torsion,
                      find_basis_permutation, from_rows, hstack, is_identity,
                      mat, mat_add, pipeline, qt_defect, qt_inverse, qt_rref,
                      rf, scaled, submatrix, torus_pd)
from dehn import algebra, invariants
from dehn.algebra import RatFunc, poly_add
from dehn.errors import DehnError, NotExactError, UnsupportedRepresentationError
from dehn.dehngraph import build_d1, build_d2, build_dehn_graph, graph_from_json
from dehn.diagram import build_diagram, parse_pd
from dehn.invariants import (DefectValue, TorsionValue, _verify_identities,
                             build_propagator, check_lescop_relation, defect,
                             defect_equal_mod_Z, torsion,
                             torsion_equal_up_to_units)
from dehn.mscomplex import ChainComplex, Representation, build_complex

T = RatFunc.t()

# Reference values for the trefoil with the maximal abelian representation.
TORSION_TARGET = rf((1, -1, 1), (1, -1))  # (t^2-t+1)/(1-t), up to units
DEFECT_TARGET = rf((0, -1, 2), (1, -1, 1)) - rf((0, 1), (-1, 1))

G2_FIXTURE = scaled(mat([
    [0, (0, 0, 1), (0, 1), (-1, 1)],
    [0, 1, (1, -1), 1],
    [0, (0, -1), -1, (0, -1)],
]), rf(1, (1, -1, 1)))
G1_FIXTURE = mat([[rf(1, (1, -1))], [0], [0], [0]])


# -- propagator ---------------------------------------------------------------


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_propagator_identities(text):
    run = pipeline(text)
    cx, g = run.complex, run.propagator
    assert is_identity(g.g2 @ cx.d2)
    assert is_identity(cx.d1 @ g.g1)
    assert is_identity(mat_add(cx.d2 @ g.g2, g.g1 @ cx.d1))


def test_trefoil_default_propagator_matches_fixture():
    run = pipeline(TREFOIL)
    assert run.propagator.selected == (0,)
    ours = {"d2": run.complex.d2, "d1": run.complex.d1,
            "g2": run.propagator.g2, "g1": run.propagator.g1}
    from test_mscomplex import TREFOIL_D1, TREFOIL_D2
    fixture = {"d2": TREFOIL_D2, "d1": TREFOIL_D1,
               "g2": G2_FIXTURE, "g1": G1_FIXTURE}
    assert find_basis_permutation(ours, fixture) is not None


def test_propagator_random_seeds_all_valid():
    run = pipeline(TREFOIL)
    cx = run.complex
    propagators = [build_propagator(cx, pivot_seed=s) for s in range(10)]
    for g in propagators:
        assert is_identity(g.g2 @ cx.d2)
        assert is_identity(cx.d1 @ g.g1)
        assert is_identity(mat_add(cx.d2 @ g.g2, g.g1 @ cx.d1))
    assert len({g.selected for g in propagators}) > 1  # genuinely different


def _coordinate_columns(dim, indices):
    cols = [[RatFunc.zero()] * len(indices) for _ in range(dim)]
    for j, i in enumerate(indices):
        cols[i][j] = RatFunc.one()
    return from_rows(cols)


def reference_propagator(cx, pivot_seed=None):
    """The rule build_propagator must reproduce, over Q(t): take candidates in
    the shuffled order, keep each one that raises the rank of [e_S | d2], and
    read G2 off the inverse of [e_S | d2]. Ranks and the inverse come from
    the Q(t) reference elimination, not from the kernel under test."""
    c2, c1, c0 = cx.c2_dim, cx.c1_dim, cx.c0_dim
    candidates = list(range(c1))
    if pivot_seed is not None:
        random.Random(pivot_seed).shuffle(candidates)
    selected = []
    for i in candidates:
        if len(selected) == c0:
            break
        cols = hstack(_coordinate_columns(c1, selected + [i]), cx.d2)
        if qt_rref(cols)[2] == c2 + len(selected) + 1:
            selected.append(i)
    basis = hstack(_coordinate_columns(c1, selected), cx.d2)
    g2 = submatrix(qt_inverse(basis), range(c0, c1), range(c1))
    return tuple(selected), g2


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_propagator_matches_reference_rule(name, text):
    cx = pipeline(text).complex
    for seed in [None] + list(range(10)):
        g = build_propagator(cx, pivot_seed=seed)
        assert (g.selected, g.g2) == reference_propagator(cx, seed), seed


def test_verify_identities_rejects_a_perturbed_g2():
    # Adding t to one numerator of N adds t / delta to that G2 entry.
    run = pipeline(FIG8)
    cx, g = run.complex, run.propagator
    _verify_identities(cx, g)
    numer = [list(row) for row in g.numer]
    numer[1][2] = numer[1][2] + [0, 0]
    numer[1][2][1] += 1
    with pytest.raises(DehnError, match="g2\\*d2"):
        _verify_identities(cx, dataclasses.replace(g, numer=numer))


@pytest.mark.parametrize("text", [FIG8, torus_pd(7)])
def test_verify_identities_rejects_every_unit_perturbation(text):
    # +-1 on any one coefficient of N (one past the top of each entry too),
    # of delta, or a wrong det_m: each fails an identity.
    run = pipeline(text)
    cx, g = run.complex, run.propagator
    _verify_identities(cx, g)

    def bumped(poly, p, c):
        out = list(poly) + [0] * (p + 1 - len(poly))
        out[p] += c
        while out and not out[-1]:
            out.pop()
        return out

    for r, row in enumerate(g.numer):
        for j, x in enumerate(row):
            for p in range(len(x) + 1):
                for c in (1, -1):
                    numer = [list(line) for line in g.numer]
                    numer[r][j] = bumped(x, p, c)
                    with pytest.raises(DehnError):
                        _verify_identities(cx, dataclasses.replace(g, numer=numer))
    for p in range(len(g.delta) + 1):
        for c in (1, -1):
            with pytest.raises(DehnError, match="g2\\*d2"):
                _verify_identities(cx, dataclasses.replace(g, delta=bumped(g.delta, p, c)))
    for det_m in (g.det_m + RatFunc.one(), -g.det_m, g.det_m / T):
        with pytest.raises(DehnError, match="d1\\*g1"):
            _verify_identities(cx, dataclasses.replace(g, det_m=det_m))


def _one_crossing_complex():
    """d2 = (1, 0)^T and d1 = (0, 1): exact, with the propagator N = (1, 0),
    delta = 1 and s = 1."""
    return ChainComplex(d2_rows=(((1,),), ((),)), d1_den=(1,), d1_row=((), (1,)),
                        c2_basis=("c",), c1_basis=("q0", "q1"), c0_basis=("inf",))


def _packed_row(entries, k, slots):
    """A row packed at t -> 2^k and column j -> 2^(k*slots*j)."""
    return sum(algebra._pack(x, k) << (k * slots * j) for j, x in enumerate(entries))


def test_identity_width_one_bit_narrower_would_alias(monkeypatch):
    # N = (1, 8 - t): row 0 of d2 * N is (1, 8 - t) against (delta, 0). The
    # widths are k = 4 (coefficients up to 1 * (8 * 1 + 1) = 9) and L = 2;
    # at k = 3, 8 - t packs to 8 - 8 = 0, and every identity passes.
    cx = _one_crossing_complex()
    g = build_propagator(cx)
    assert (g.numer, g.delta, g.selected) == ([[[1], []]], [1], (1,))
    wrong = dataclasses.replace(g, numer=[[[1], [8, -1]]])
    k, slots = invariants._identity_widths(cx, wrong)
    assert (k, slots) == (4, 2)
    assert _packed_row([[1], [8, -1]], k - 1, slots) == _packed_row([[1], []], k - 1, slots)
    with pytest.raises(DehnError, match="d2\\*g2 \\+ g1\\*d1"):
        _verify_identities(cx, wrong)
    monkeypatch.setattr(invariants, "_identity_widths", lambda cx, g: (k - 1, slots))
    _verify_identities(cx, wrong)  # the alias the proved width rules out


def test_identity_width_one_slot_shorter_would_alias():
    # N = (1 + t^2, -1): row 0 of d2 * N differs from (delta, 0) by
    # (t^2, -1). With L = 3 slots that is t^2 + -1 * t^3 at t = 2^k, nonzero;
    # with one slot fewer the t^2 of column 0 and the -1 of column 1 land on
    # the same power and cancel.
    cx = _one_crossing_complex()
    g = build_propagator(cx)
    numer = [[[1, 0, 1], [-1]]]
    k, slots = invariants._identity_widths(cx, dataclasses.replace(g, numer=numer))
    assert (k, slots) == (2, 3)
    assert _packed_row(numer[0], k, slots - 1) == _packed_row([[1], []], k, slots - 1)
    assert _packed_row(numer[0], k, slots) != _packed_row([[1], []], k, slots)
    with pytest.raises(DehnError):
        _verify_identities(cx, dataclasses.replace(g, numer=numer))


def test_verify_identities_checks_the_homotopy_identity():
    # Adding the row D1 of d1's numerators to row r of N leaves N * d2
    # unchanged, since d1*d2 = 0, but adds column r of d2 times D1 to d2 * N:
    # only the third check can see it.
    run = pipeline(FIG8)
    cx, g = run.complex, run.propagator
    numer = [list(row) for row in g.numer]
    numer[0] = [poly_add(x, y) for x, y in zip(numer[0], cx.d1_row)]
    with pytest.raises(DehnError, match="d2\\*g2 \\+ g1\\*d1"):
        _verify_identities(cx, dataclasses.replace(g, numer=numer))


def test_verify_identities_checks_the_selected_entry_of_d1():
    # g1 = e_s / det_m inverts d1 only when det_m is d1[s].
    run = pipeline(FIG8)
    cx, g = run.complex, run.propagator
    with pytest.raises(DehnError, match="d1\\*g1"):
        _verify_identities(cx, dataclasses.replace(g, det_m=g.det_m * T))


def test_propagator_views_on_a_complex_without_crossings():
    # One region joined to the basepoint by a +1 edge: C_2 = 0, and the
    # views still have c1 = c2 + c0 rows.
    graph = graph_from_json({
        "arcs": [],
        "vertices": [{"id": "q0", "kind": "region", "index": 1},
                     {"id": "inf", "kind": "basepoint", "index": 0}],
        "edges": [{"from": "q0", "to": "inf", "sign": 1, "word": [],
                   "origin": ["region_plus", 0]}]})
    cx = build_complex(graph, Representation.abelian())
    g = build_propagator(cx)
    assert (g.g2.rows, g.g2.cols) == (0, 1)
    assert g.g1 == mat([[1]]) and is_identity(cx.d1 @ g.g1)
    assert torsion(cx, g).raw == RatFunc.one()


def test_propagator_requires_exactness():
    d = build_diagram(parse_pd(TREFOIL))
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    rep = Representation.trivial()
    cx = build_complex(g, rep)
    with pytest.raises(NotExactError, match="rank\\(d1\\) = 0 < 1"):
        build_propagator(cx)


# -- torsion ------------------------------------------------------------------


def test_trefoil_torsion():
    run = pipeline(TREFOIL)
    assert torsion_equal_up_to_units(run.tor, TorsionValue(
        TORSION_TARGET, TORSION_TARGET, 1, 0))
    assert run.tor.normalized == rf((1, -1, 1), (-1, 1))
    assert run.tor.raw == TORSION_TARGET


def _assert_torsion_matches_determinant(cx, seeds):
    for seed in seeds:
        g = build_propagator(cx, pivot_seed=seed)
        assert torsion(cx, g).raw == det_torsion(cx, g), seed


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_torsion_read_off_the_elimination_matches_the_determinant(name, text):
    # raw = sign * delta / d1[s] is det [d2 | g1] under every pivot order:
    # the sign, delta and d1[s] all move.
    _assert_torsion_matches_determinant(pipeline(text).complex, [None] + list(range(10)))


@pytest.mark.parametrize("text", [TREFOIL_KINKED, FIG8_KINKED]
                         + [torus_pd(n) for n in range(3, 22, 2)])
def test_torsion_matches_the_determinant_on_kinked_and_torus_knots(text):
    _assert_torsion_matches_determinant(pipeline(text).complex, (None, 0, 1))


def test_unknot_torsion():
    run = pipeline(UNKNOT_KINK)
    assert run.tor.normalized == rf(1, (-1, 1))


def test_fig8_torsion():
    run = pipeline(FIG8)
    assert run.tor.normalized == rf((1, -3, 1), (-1, 1))


def test_torsion_normalization_unit_bookkeeping():
    run = pipeline(TREFOIL)
    unit = RatFunc(run.tor.unit_sign) * RatFunc.t_power(run.tor.unit_power)
    assert run.tor.raw == unit * run.tor.normalized
    assert run.tor.normalized.num.coeffs[0] > 0
    assert run.tor.normalized.den.coeffs[0] != 0


def test_torsion_equal_up_to_units_cases():
    a = TorsionValue(TORSION_TARGET, TORSION_TARGET, 1, 0)
    scaled = -(RatFunc.t_power(3)) * TORSION_TARGET
    b = TorsionValue(scaled, TORSION_TARGET, -1, 3)
    assert torsion_equal_up_to_units(a, b)
    other = rf((1, -3, 1), (1, -1))
    assert not torsion_equal_up_to_units(a, TorsionValue(other, other, 1, 0))
    assert torsion_equal_up_to_units(a, a)


# -- defect -------------------------------------------------------------------


def test_trefoil_defect_value():
    run = pipeline(TREFOIL)
    assert defect_equal_mod_Z(run.d, DefectValue(DEFECT_TARGET))


def test_trefoil_defect_terms():
    run = pipeline(TREFOIL)
    terms = defect_terms(run.graph, run.complex, run.propagator, run.rep)
    nonzero = sorted(str(v) for _, _, v in terms if not v.is_zero())
    expected = sorted(str(v) for v in [
        rf((0, -1), (1, -1, 1)) * rf((1, -1)),   # -t(1-t)/(t^2-t+1)
        rf((0, 0, 1), (1, -1, 1)),               # (-t)(-t)/(t^2-t+1)
        rf((0, 1), (1, -1)),                     # t/(1-t)
    ])
    assert nonzero == expected


def test_defect_skips_bare_sign_labels():
    run = pipeline(TREFOIL)
    terms = defect_terms(run.graph, run.complex, run.propagator, run.rep)
    word_edges = [e for e in run.graph.edges if e.label.word]
    assert len(terms) == len(word_edges)


def test_defect_rejects_matrix_representation():
    # Only the abelian representation has a defect; the trivial one is
    # refused before the propagator is read.
    run = pipeline(TREFOIL)
    rep = Representation.trivial()
    with pytest.raises(UnsupportedRepresentationError):
        defect(run.graph, run.complex, run.propagator, rep)


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_defect_matches_qt_reference_on_corpus(name, text):
    run = pipeline(text)
    for seed in [None] + list(range(10)):
        g = build_propagator(run.complex, pivot_seed=seed)
        assert (defect(run.graph, run.complex, g, run.rep)
                == qt_defect(run.graph, run.complex, g, run.rep)), seed


@pytest.mark.parametrize("name,text", [("3_1_kinked", TREFOIL_KINKED),
                                       ("4_1_kinked", FIG8_KINKED)]
                         + [(f"T(2,{n})", torus_pd(n)) for n in range(3, 22, 2)])
def test_defect_matches_qt_reference(name, text):
    run = pipeline(text)
    assert run.d == qt_defect(run.graph, run.complex, run.propagator, run.rep)


def test_defect_equal_mod_Z_cases():
    f = DefectValue(rf((0, 1), (1, -1, 1)))
    shifted = DefectValue(f.representative + RatFunc(3))
    assert defect_equal_mod_Z(f, shifted)
    half = DefectValue(f.representative + rf((1,), (2,)))
    assert not defect_equal_mod_Z(f, half)
    plus_t = DefectValue(f.representative + T)
    assert not defect_equal_mod_Z(f, plus_t)


# -- relations ----------------------------------------------------------------


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_lescop_relation_on_corpus(name, text):
    run = pipeline(text)
    assert check_lescop_relation(run.tor, run.d)


def test_lescop_insensitive_to_torsion_unit():
    run = pipeline(TREFOIL)
    scaled = -(RatFunc.t_power(5)) * run.tor.raw
    tor = TorsionValue(scaled, run.tor.normalized, -1, 5)
    assert check_lescop_relation(tor, run.d)


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_seed_independence(name, text):
    run = pipeline(text)
    for seed in range(10):
        g = build_propagator(run.complex, pivot_seed=seed)
        tor_s = torsion(run.complex, g)
        d_s = defect(run.graph, run.complex, g, run.rep)
        assert torsion_equal_up_to_units(run.tor, tor_s)
        assert defect_equal_mod_Z(run.d, d_s)


def test_diagram_independence_trefoil():
    a, b = pipeline(TREFOIL), pipeline(TREFOIL_KINKED)
    assert torsion_equal_up_to_units(a.tor, b.tor)
    assert defect_equal_mod_Z(a.d, b.d)


def test_diagram_independence_fig8():
    a, b = pipeline(FIG8), pipeline(FIG8_KINKED)
    assert torsion_equal_up_to_units(a.tor, b.tor)
    assert defect_equal_mod_Z(a.d, b.d)
