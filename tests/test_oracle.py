import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALEXANDER, CORPUS, FIG8, FIG8_KINKED, TREFOIL, TREFOIL_KINKED, UNKNOT_KINK,
                      alexander_matrix_delta, connected_sum, dense_rows, pipeline, poly, q_eval,
                      qt_fox_derivative, qt_mul, qt_unit_equal, t_power, torus_pd, unit_free,
                      zt_mul)
from dehn import oracle
from dehn.algebra import Polynomial, RatFunc, _pack, fraction_free_elimination
from dehn.diagram import WirtingerPresentation, build_diagram, parse_pd, wirtinger
from dehn.errors import DehnError
from dehn.oracle import AlexanderPolynomial, _fox_row, fox_alexander, milnor_check
from test_cli import label_valid_pd


def _alexander(text):
    return fox_alexander(wirtinger(build_diagram(parse_pd(text))))


def test_trefoil_alexander():
    assert _alexander(TREFOIL).poly == poly(1, -1, 1)


def test_unknot_alexander_trivial():
    assert _alexander(UNKNOT_KINK).poly == poly(1)


def test_fig8_alexander():
    assert _alexander(FIG8).poly == poly(1, -3, 1)


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_corpus_alexander_values(name, text):
    assert _alexander(text).poly == Polynomial(ALEXANDER[name])


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_alexander_at_one_is_unit(name, text):
    assert q_eval(_alexander(text).poly, 1) in (Fraction(1), Fraction(-1))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_alexander_palindromic_up_to_units(name, text):
    p = _alexander(text).poly
    reversed_coeffs = tuple(reversed(p.coeffs))
    assert p in (Polynomial(reversed_coeffs), Polynomial(-c for c in reversed_coeffs))


@settings(max_examples=100, deadline=None)
@given(label_valid_pd())
def test_alexander_normal_form_on_label_valid_codes(text):
    # For every code that makes a diagram, under every choice of the outer
    # region, Delta is palindromic with a positive constant term, so the one
    # unit normal form, a positive lowest coefficient, also makes its leading
    # coefficient positive; and the Milnor check holds over Z[t].
    try:
        regions = range(len(build_diagram(parse_pd(text)).regions))
    except DehnError:
        return
    for region in regions:
        run = pipeline(text, outer_region=region)
        coeffs = run.alexander.coeffs
        assert coeffs == coeffs[::-1] and coeffs[0] > 0, region
        assert milnor_check(run.tor, run.alexander), region


@pytest.mark.parametrize("minor", [
    RatFunc((0, 0, -1, 1, -1)),          # -t^2 * (t^2 - t + 1)
    RatFunc((-1, 1, -1), (0, 0, 0, 1)),  # -(t^2 - t + 1) / t^3
    RatFunc((-2, 5, -2)),                # -(2t^2 - 5t + 2)
])
def test_fox_minor_is_normalized(monkeypatch, minor):
    # The corpus minors carry no positive t-power, so the unit is planted as
    # the elimination's last pivot (a Z[t] minor, so a Laurent one comes in
    # times the t-power that clears it): the reported polynomial has a
    # positive constant term and, the minors being symmetric, a positive
    # leading coefficient, and stays unit-equal to the minor. The kernel returns its rows packed; the
    # planted pivot is packed at a width that holds it, returned as the
    # width, since the oracle unpacks no other entry.
    planted = [0] * (len(minor.zden) - 1) + list(minor.znum)
    width = 16

    def eliminate(rows, ncols, headroom):
        reduced, pivots, sign, _ = fraction_free_elimination(rows, ncols, headroom)
        reduced[-1][pivots[-1]] = _pack(planted, width)
        return reduced, pivots, sign, width

    monkeypatch.setattr(oracle, "fraction_free_elimination", eliminate)
    p = _alexander(TREFOIL).poly
    assert p.coeffs[0] > 0 and p.coeffs[-1] > 0
    assert qt_unit_equal(RatFunc(p), minor)


def test_degenerate_presentation_rejected():
    with pytest.raises(DehnError):
        fox_alexander(WirtingerPresentation((), ()))


def test_vanishing_first_minor_rejected():
    # Empty relators give a zero Fox matrix, which no Wirtinger presentation
    # of a knot has: its first maximal minor is +-t^m times the Alexander
    # polynomial.
    with pytest.raises(DehnError, match="first maximal minor"):
        fox_alexander(WirtingerPresentation((0, 1, 2), ((), (), ())))


@pytest.mark.parametrize("relations", [(((0, 1), (1, -1)),), ()])
def test_too_few_relators_rejected(relations):
    # Three generators need two relators for the first Fox minor.
    with pytest.raises(DehnError, match="relators"):
        fox_alexander(WirtingerPresentation((0, 1, 2), relations))


signed_words = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=12)


@settings(max_examples=100, deadline=None)
@given(signed_words, st.permutations(range(4)).map(lambda p: p[:3]))
def test_fox_rows_match_reference(word, gens):
    # Unreduced words too: both sides read the word letter by letter. The
    # row over Z[t] is the reference row times t^-m, m its least power.
    row = dense_rows([_fox_row(tuple(word), {g: j for j, g in enumerate(gens)})], len(gens))[0]
    expected = [qt_fox_derivative(word, g) for g in gens]
    assert all(x[-1] != 0 for x in row if x)
    # A Laurent polynomial's reduced form is num / t^j with num(0) != 0.
    low = min((next(i for i, c in enumerate(e.znum) if c) - (len(e.zden) - 1)
               for e in expected if e.znum), default=0)
    assert [RatFunc(x) for x in row] == [qt_mul(e, t_power(-low)) for e in expected]


def _shuffled(presentation, rng):
    """The same presentation with its relators and generators reordered
    and its generators renamed."""
    gens = list(presentation.generators)
    names = dict(zip(gens, rng.sample(range(100, 100 + 2 * len(gens)), len(gens))))
    relations = [tuple((names[g], e) for g, e in rel) for rel in presentation.relations]
    rng.shuffle(relations)
    renamed = [names[g] for g in gens]
    rng.shuffle(renamed)
    return WirtingerPresentation(tuple(renamed), tuple(relations))


@pytest.mark.parametrize("text", sorted(CORPUS.values()) + [torus_pd(11), connected_sum(
    CORPUS["5_2"], CORPUS["6_1"], CORPUS["3_1"])])
def test_shuffled_relators_and_generators_give_the_same_alexander(text):
    # Another dropped generator, other relators in the minor and another
    # banded order: the determinant moves by +-t^m only.
    presentation = wirtinger(build_diagram(parse_pd(text)))
    expected = fox_alexander(presentation).poly
    rng = random.Random(5)
    for _ in range(5):
        assert fox_alexander(_shuffled(presentation, rng)).poly == expected


# -- Alexander's crossing-region matrix ----------------------------------------


# The knots Alexander's crossing-region matrix is checked on, with Delta
# from the knot table or the closed form of T(2,n): sum_{i<n} (-t)^i.
ALEXANDER_MATRIX_KNOTS = (
    [pytest.param(text, ALEXANDER[name], id=name) for name, text in sorted(CORPUS.items())]
    + [pytest.param(TREFOIL_KINKED, ALEXANDER["3_1"], id="3_1-kinked"),
       pytest.param(FIG8_KINKED, ALEXANDER["4_1"], id="4_1-kinked")]
    + [pytest.param(torus_pd(n), tuple((-1) ** i for i in range(n)), id=f"T(2,{n})")
       for n in range(3, 32, 2)])


@pytest.mark.parametrize("text,delta", ALEXANDER_MATRIX_KNOTS)
def test_alexander_matrix_agrees_with_fox_and_the_torsion(text, delta):
    # conftest builds Alexander's matrix from the PD code alone, with its own
    # faces, over-strands and determinant; the library's Fox oracle and its
    # torsion times (t - 1) start from build_diagram. All three give the
    # table's Delta up to units.
    oracle = unit_free(alexander_matrix_delta(text))
    assert oracle == unit_free(delta)
    run = pipeline(text)
    assert unit_free(run.alexander.coeffs) == oracle
    assert unit_free(zt_mul(run.tor.num, (-1, 1))) == unit_free(zt_mul(oracle, run.tor.den))


# -- torsion cross-check -------------------------------------------------------


def test_milnor_trefoil():
    run = pipeline(TREFOIL)
    assert milnor_check(run.tor, AlexanderPolynomial((1, -1, 1)))


def test_milnor_unknot():
    run = pipeline(UNKNOT_KINK)
    assert milnor_check(run.tor, AlexanderPolynomial((1,)))


def test_milnor_negative_control():
    run = pipeline(TREFOIL)
    assert not milnor_check(run.tor, AlexanderPolynomial((1, -3, 1)))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_milnor_on_corpus(name, text):
    run = pipeline(text)
    assert milnor_check(run.tor, run.alexander)
