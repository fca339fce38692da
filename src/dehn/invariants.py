"""Combinatorial propagator, torsion and the abelian defect of an exact
three-term complex.

The propagator picks coordinate lines S of C_1 completing the image of d2 to
a basis; G_1 inverts d1 on span(S) and G_2 inverts d2 on its image along
span(S). Torsion is the determinant of the square block matrix [d2 | g1]
mapping the even chains to C_1; it is well defined up to +-t^m, and a
canonical representative is obtained by stripping that unit.

The defect is a rational function modulo the integers. Every edge whose
label carries a nonempty word w contributes the exponent sum of w (its class
in the first homology of the knot exterior) times a scalar built from the
representation and the matching propagator entry; edges whose label is a
bare sign contribute nothing. Orientation conventions per degree: the scalar
for a crossing-to-region edge is the image of the signed label times the G_2
entry; region-to-basepoint edges enter with the opposite overall sign. This
is the convention under which defect = t (d/dt) log(torsion) mod Z.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import (FieldMatrix, IntPoly, Polynomial, RatFunc, common_denominator,
                      fraction_free_gauss_jordan, pmat_mul, poly_mul, unit_equal)
from .dehngraph import BASEPOINT, DehnGraph
from .errors import DehnError, NotExactError, UnsupportedRepresentationError
from .mscomplex import ChainComplex, Representation, check_exactness, eval_rep
from .words import exponent_sum


@dataclass(frozen=True)
class Propagator:
    g2: FieldMatrix  # c2_dim x c1_dim
    g1: FieldMatrix  # c1_dim x c0_dim
    selected: Tuple[int, ...]  # C_1 coordinates spanning the complement of im(d2)


def build_propagator(cx: ChainComplex, pivot_seed: Optional[int] = None) -> Propagator:
    """Construct a propagator; `pivot_seed` shuffles the candidate coordinate
    order (default is ascending), giving genuinely different propagators whose
    torsion and defect must agree.

    Row i of d2 is cleared of denominators by a factor lambda_i, and
    [lambda*d2 | identity columns in candidate order] is eliminated once,
    fraction-free over Z[t]. The pivots beyond the d2 columns select the
    first candidates independent of im(d2) and of the candidates before them.
    With B = [lambda*d2 | e_S] the pivot columns and delta the common pivot,
    the identity block holds N = delta * B^-1, so G2 = N[:c2] * lambda / delta.
    """
    report = check_exactness(cx)
    if not report.exact:
        raise NotExactError(f"complex is not exact: {report.witness}")
    c2, c1, c0 = cx.c2_dim, cx.c1_dim, cx.c0_dim
    order = list(range(c1))
    if pivot_seed is not None:
        random.Random(pivot_seed).shuffle(order)
    position = {coord: k for k, coord in enumerate(order)}
    lam, aug = cx.d2.cleared_rows()
    for i, row in enumerate(aug):
        unit = [[]] * c1
        unit[position[i]] = [1]
        row.extend(unit)
    reduced, pivots, _ = fraction_free_gauss_jordan(aug)
    selected = [order[p - c2] for p in pivots if p >= c2]
    if len(selected) != c0:
        raise NotExactError("could not complete im(d2) to a basis of C_1")
    delta = Polynomial(reduced[-1][pivots[-1]])
    g2 = FieldMatrix(c2, c1, [
        RatFunc(Polynomial(poly_mul(reduced[r][c2 + position[j]], lam[j])), delta)
        for r in range(c2) for j in range(c1)])
    ms_inv = cx.d1.submatrix(range(c0), selected).inverse()
    g1_rows = [[RatFunc.zero()] * c0 for _ in range(c1)]
    for a, row_index in enumerate(selected):
        g1_rows[row_index] = list(ms_inv.row(a))
    g1 = FieldMatrix.from_rows(g1_rows)
    _verify_identities(cx, g2, g1)
    return Propagator(g2, g1, tuple(selected))


def _verify_identities(cx: ChainComplex, g2: FieldMatrix, g1: FieldMatrix) -> None:
    """Check g2*d2 = id, d1*g1 = id and d2*g2 + g1*d1 = [d2 | g1]*[g2; d1] = id
    exactly: each factor is written as a matrix over Z[t] divided by one
    polynomial, and the product of the numerators must be the product of the
    denominators times the identity."""
    below = FieldMatrix(g2.rows + cx.d1.rows, g2.cols, g2.entries + cx.d1.entries)
    for name, left, right in (("g2*d2", g2, cx.d2), ("d1*g1", cx.d1, g1),
                              ("d2*g2 + g1*d1", cx.d2.hstack(g1), below)):
        left_den, left_nums = common_denominator(left.entries)
        right_den, right_nums = common_denominator(right.entries)
        product = pmat_mul(_rows(left_nums, left.cols), _rows(right_nums, right.cols))
        scalar = poly_mul(left_den, right_den)
        if any(entry != (scalar if i == j else [])
               for i, row in enumerate(product) for j, entry in enumerate(row)):
            raise DehnError(f"propagator identity {name} = id failed")


def _rows(flat: List[IntPoly], cols: int) -> List[List[IntPoly]]:
    return [flat[i:i + cols] for i in range(0, len(flat), cols)]


@dataclass(frozen=True)
class TorsionValue:
    raw: RatFunc
    normalized: RatFunc
    unit_sign: int
    unit_power: int


def torsion(cx: ChainComplex, g: Propagator) -> TorsionValue:
    """Determinant of [d2 | g1] : C_2 + C_0 -> C_1, raw and normalized."""
    raw = cx.d2.hstack(g.g1).det()
    if raw.is_zero():
        raise DehnError("torsion determinant vanished on an exact complex")
    normalized, sign, power = _strip_unit(raw)
    return TorsionValue(raw, normalized, sign, power)


def _strip_unit(f: RatFunc) -> Tuple[RatFunc, int, int]:
    """Write f = sign * t^m * g with g having nonzero constant terms in both
    parts and positive numerator constant term."""
    a = f.num.t_multiplicity()
    b = f.den.t_multiplicity()
    num = f.num.shift(-a)
    den = f.den.shift(-b)
    sign = 1
    if num.constant_term() < 0:
        num = -num
        sign = -1
    return RatFunc(num, den), sign, a - b


def torsion_equal_up_to_units(a: TorsionValue, b: TorsionValue) -> bool:
    return unit_equal(a.raw, b.raw)


@dataclass(frozen=True)
class DefectValue:
    representative: RatFunc


def defect_terms(graph: DehnGraph, cx: ChainComplex, g: Propagator,
                 rep: Representation) -> List[Tuple[str, str, RatFunc]]:
    """Per-edge defect contributions (source, target, value), word-bearing
    edges only."""
    if rep.kind != "abelian" or rep.dim != 1:
        raise UnsupportedRepresentationError(
            "the defect is only computed for the abelian representation; "
            "higher-dimensional representations need a homology identification "
            "this package does not implement")
    terms = []
    for e in graph.edges:
        w = e.label.word
        if not w:
            continue
        degree = exponent_sum(w)
        coeff = eval_rep(rep, e.label).entry(0, 0)
        if e.target == BASEPOINT:
            entry = g.g1.entry(cx.block_of(e.source), 0)
            level_sign = -1
        else:
            entry = g.g2.entry(cx.block_of(e.source), cx.block_of(e.target))
            level_sign = 1
        value = coeff * entry
        if degree != 1:
            value = value * RatFunc(degree)
        if level_sign < 0:
            value = -value
        terms.append((e.source, e.target, value))
    return terms


def defect(graph: DehnGraph, cx: ChainComplex, g: Propagator,
           rep: Representation) -> DefectValue:
    total = RatFunc.zero()
    for _, _, value in defect_terms(graph, cx, g, rep):
        total = total + value
    return DefectValue(total)


def defect_equal_mod_Z(a: DefectValue, b: DefectValue) -> bool:
    """True iff the difference is a constant with integer value."""
    diff = a.representative - b.representative
    if not diff.is_constant():
        return False
    return diff.as_constant().denominator == 1


def check_lescop_relation(tor: TorsionValue, d: DefectValue) -> bool:
    """The defect equals t * (d/dt) log(torsion) modulo the integers.

    The unit ambiguity of the torsion shifts the logarithmic derivative by an
    integer, so the predicate is well defined on equivalence classes."""
    if tor.raw.is_zero():
        raise ValueError("torsion must be nonzero")
    rhs = RatFunc.t() * tor.raw.derivative() / tor.raw
    return defect_equal_mod_Z(d, DefectValue(rhs))
