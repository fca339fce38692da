from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALEXANDER, CORPUS, FIG8, TREFOIL, UNKNOT_KINK, pipeline, poly,
                      qt_fox_derivative)
from dehn.algebra import FieldMatrix, Polynomial, RatFunc, unit_equal
from dehn.diagram import WirtingerPresentation, build_diagram, parse_pd, wirtinger
from dehn.errors import DehnError
from dehn.oracle import AlexanderPolynomial, _fox_derivative, fox_alexander, milnor_check


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
    assert _alexander(text).poly(1) in (Fraction(1), Fraction(-1))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_alexander_palindromic_up_to_units(name, text):
    p = _alexander(text).poly
    reversed_coeffs = tuple(reversed(p.coeffs))
    assert p in (Polynomial(reversed_coeffs), Polynomial(-c for c in reversed_coeffs))


@pytest.mark.parametrize("minor", [
    RatFunc((0, 0, -1, 1, -1)),          # -t^2 * (t^2 - t + 1)
    RatFunc((-1, 1, -1), (0, 0, 0, 1)),  # -(t^2 - t + 1) / t^3
    RatFunc((-2, 5, -2)),                # -(2t^2 - 5t + 2)
])
def test_fox_minor_is_normalized(monkeypatch, minor):
    # The corpus minors carry no positive t-power, so the unit is planted:
    # the reported polynomial has a nonzero constant term and a positive
    # leading coefficient, and stays unit-equal to the minor.
    monkeypatch.setattr(FieldMatrix, "det", lambda self: minor)
    p = _alexander(TREFOIL).poly
    assert p.coeffs[0] != 0 and p.coeffs[-1] > 0
    assert unit_equal(RatFunc(p), minor)


def test_non_laurent_fox_minor_rejected(monkeypatch):
    monkeypatch.setattr(FieldMatrix, "det", lambda self: RatFunc((1,), (1, 1)))
    with pytest.raises(DehnError, match="not a Laurent polynomial"):
        _alexander(TREFOIL)


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
@given(signed_words, st.integers(0, 3))
def test_fox_derivative_matches_reference(word, gen):
    # Unreduced words too: both sides read the word letter by letter.
    assert _fox_derivative(tuple(word), gen) == qt_fox_derivative(word, gen)


# -- torsion cross-check -------------------------------------------------------


def test_milnor_trefoil():
    run = pipeline(TREFOIL)
    assert milnor_check(run.tor, AlexanderPolynomial(poly(1, -1, 1)))


def test_milnor_unknot():
    run = pipeline(UNKNOT_KINK)
    assert milnor_check(run.tor, AlexanderPolynomial(poly(1)))


def test_milnor_negative_control():
    run = pipeline(TREFOIL)
    assert not milnor_check(run.tor, AlexanderPolynomial(poly(1, -3, 1)))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_milnor_on_corpus(name, text):
    run = pipeline(text)
    assert milnor_check(run.tor, run.alexander)
