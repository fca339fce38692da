"""Combinatorial propagator, torsion and the abelian defect of an exact
three-term complex.

The propagator picks coordinate lines S of C_1 completing the image of d2 to
a basis; G_1 inverts d1 on span(S) and G_2 inverts d2 on its image along
span(S). G_2 is held as the fraction-free elimination leaves it, numerators
over Z[t] and one common denominator delta, and its Q(t) matrix is built only
when asked for. Torsion is the determinant of the square block matrix [d2 | g1]
mapping the even chains to C_1; it is well defined up to +-t^m, and a
canonical representative is obtained by stripping that unit.

The torsion is read off the propagator's elimination, with no determinant
of its own. C_0 is one-dimensional, so one coordinate s is selected. Let e_s
be its coordinate column and B = [d2 | e_s] the pivot columns of the
elimination, so sign * delta = det B. G1 is e_s / d1[s], hence [d2 | g1] =
B * diag(I, 1/d1[s]), and

    raw torsion = det [d2 | g1] = sign * delta / d1[s].

The identities verified on every propagator prove delta: a wrong delta
fails g2*d2 = id.

The defect is a rational function modulo the integers. Every edge whose
label carries a nonempty word w contributes the exponent sum e of w (its class
in the first homology of the knot exterior) times the image sign * t^e of
the label times the matching propagator entry; edges whose label is a bare
sign contribute nothing. Orientation conventions per degree: a
crossing-to-region edge takes its G_2 entry; region-to-basepoint edges
take their G_1 entry and enter with the opposite overall sign. This
is the convention under which defect = t (d/dt) log(torsion) mod Z. The
defect sums the terms as one numerator over Z[t] and makes the result
canonical once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from .algebra import (FieldMatrix, IntPoly, RatFunc, fraction_free_gauss_jordan,
                      pmat_mul, poly_add, poly_mul, unit_equal)
from .dehngraph import BASEPOINT, DehnGraph
from .errors import DehnError, NotExactError, UnsupportedRepresentationError
from .mscomplex import ChainComplex, Representation, check_exactness
from .words import exponent_sum


@dataclass(frozen=True)
class Propagator:
    """G2 held as the elimination left it: G2 = numer / delta over Z[t].
    `sign` is the elimination's row-swap sign and `det_m` the entry d1[s] of
    the selected coordinate s: G1 is 1/det_m on row s, and with them the
    torsion needs no determinant of its own."""

    numer: List[List[IntPoly]]  # c2_dim x c1_dim
    delta: IntPoly
    selected: Tuple[int, ...]  # C_1 coordinates spanning the complement of im(d2)
    sign: int
    det_m: RatFunc

    @property
    def _c1_dim(self) -> int:
        return len(self.numer) + len(self.selected)  # c2 + c0, the complex is exact

    @cached_property
    def g2(self) -> FieldMatrix:
        """G2 as a c2_dim x c1_dim matrix over Q(t), built on first use."""
        return FieldMatrix(len(self.numer), self._c1_dim, [
            RatFunc(x, self.delta) for row in self.numer for x in row])

    @cached_property
    def g1(self) -> FieldMatrix:
        """G1 as a c1_dim x 1 matrix over Q(t): 1/det_m on row s."""
        entries = [RatFunc.zero()] * self._c1_dim
        entries[self.selected[0]] = RatFunc.one() / self.det_m
        return FieldMatrix(len(entries), 1, entries)


def build_propagator(cx: ChainComplex, pivot_seed: Optional[int] = None) -> Propagator:
    """Construct a propagator; `pivot_seed` shuffles the candidate coordinate
    order (default is ascending), giving genuinely different propagators whose
    torsion and defect must agree.

    [d2 | identity columns in candidate order] is eliminated once,
    fraction-free over Z[t]. The pivots beyond the d2 columns select the
    first candidates independent of im(d2) and of the candidates before
    them. With B = [d2 | e_S] the pivot columns and delta the common pivot,
    the identity block holds N = delta * B^-1, so G2 = N[:c2] / delta, and
    sign * delta = det B.
    """
    report = check_exactness(cx)
    if not report.exact:
        raise NotExactError(f"complex is not exact: {report.witness}")
    c2, c1, c0 = cx.c2_dim, cx.c1_dim, cx.c0_dim
    order = list(range(c1))
    if pivot_seed is not None:
        random.Random(pivot_seed).shuffle(order)
    position = {coord: k for k, coord in enumerate(order)}
    aug = []
    for i, row in enumerate(cx.d2_rows):
        unit = [[]] * c1
        unit[position[i]] = [1]
        aug.append(list(row) + unit)
    reduced, pivots, sign = fraction_free_gauss_jordan(aug)
    selected = [order[p - c2] for p in pivots if p >= c2]
    if len(selected) != c0:
        raise NotExactError("could not complete im(d2) to a basis of C_1")
    numer = [[reduced[r][c2 + position[j]] for j in range(c1)] for r in range(c2)]
    s = selected[0]
    g = Propagator(numer, reduced[-1][pivots[-1]], tuple(selected), sign,
                   RatFunc(cx.d1_row[s], cx.d1_den))
    _verify_identities(cx, g)
    return g


def _verify_identities(cx: ChainComplex, g: Propagator) -> None:
    """Check g2*d2 = id, d1*g1 = id and d2*g2 + g1*d1 = id as exact
    equalities over Z[t]. With g2 = N / delta, d1 = D1 / den and g1 =
    e_s / d1[s] they read N * d2 = delta * id; det_m = D1[s] / den; and, row
    by row, (d2 * N)[i] = delta * e_i for i != s, while row s, where g1 * d1
    is D1 / D1[s], has (d2 * N)[s][j] * D1[s] = delta * (D1[s] * [j = s] -
    D1[j])."""
    s, delta, d1 = g.selected[0], g.delta, cx.d1_row
    if any(x != (delta if i == j else [])
           for i, row in enumerate(pmat_mul(g.numer, cx.d2_rows)) for j, x in enumerate(row)):
        raise DehnError("propagator identity g2*d2 = id failed")
    m = g.det_m
    if poly_mul(d1[s], m.zden) != poly_mul(cx.d1_den, m.znum):
        raise DehnError("propagator identity d1*g1 = id failed")
    delta_d1 = [poly_mul(delta, x) for x in d1]
    for i, row in enumerate(pmat_mul(cx.d2_rows, g.numer)):
        if i != s:
            ok = all(x == (delta if i == j else []) for j, x in enumerate(row))
        else:
            ok = all(poly_mul(x, d1[s]) == poly_add(delta_d1[s] if j == s else [], delta_d1[j], -1)
                     for j, x in enumerate(row))
        if not ok:
            raise DehnError("propagator identity d2*g2 + g1*d1 = id failed")


@dataclass(frozen=True)
class TorsionValue:
    raw: RatFunc
    normalized: RatFunc
    unit_sign: int
    unit_power: int


def torsion(cx: ChainComplex, g: Propagator) -> TorsionValue:
    """Determinant of [d2 | g1] : C_2 + C_0 -> C_1, raw and normalized, read
    off the propagator's elimination as sign * delta / d1[s]; the module
    docstring derives it."""
    m = g.det_m
    raw = RatFunc(poly_mul([g.sign * c for c in g.delta], m.zden), m.znum)
    if raw.is_zero():
        raise DehnError("torsion determinant vanished on an exact complex")
    normalized, sign, power = _strip_unit(raw)
    return TorsionValue(raw, normalized, sign, power)


def _strip_unit(f: RatFunc) -> Tuple[RatFunc, int, int]:
    """Write f = sign * t^m * g with g having nonzero constant terms in both
    parts and positive numerator constant term."""
    a = next(i for i, c in enumerate(f.znum) if c)
    b = next(i for i, c in enumerate(f.zden) if c)
    num, den = f.znum[a:], f.zden[b:]
    sign = 1 if num[0] > 0 else -1
    return RatFunc([sign * c for c in num], den), sign, a - b


def torsion_equal_up_to_units(a: TorsionValue, b: TorsionValue) -> bool:
    return unit_equal(a.raw, b.raw)


@dataclass(frozen=True)
class DefectValue:
    representative: RatFunc


def _require_abelian(rep: Representation) -> None:
    if rep.kind != "abelian":
        raise UnsupportedRepresentationError(
            "the defect is only computed for the abelian representation")


def defect(graph: DehnGraph, cx: ChainComplex, g: Propagator,
           rep: Representation) -> DefectValue:
    """The sum of the per-edge terms of the module docstring, made canonical
    once.

    Every term is c * t^m with c = sign * e and m = e for the label's sign
    and exponent sum e. With `low` the least m, the G2 terms sum to t^low *
    num / delta with num = sum of c * t^(m - low) * numer[r][j] over Z[t].
    G1 is zero off row s, so only the G1 terms of row s count; they sum to
    t^low * multiplier / det_m, added to num / delta by cross-multiplication."""
    _require_abelian(rep)
    s = g.selected[0]
    g2_terms, g1_terms = [], []
    for e in graph.edges:
        w = e.label.word
        if not w:
            continue
        m = exponent_sum(w)
        c = e.label.sign * m
        if e.target != BASEPOINT:
            g2_terms.append((c, m, cx.position(e.source), cx.position(e.target)))
        elif cx.position(e.source) == s:
            g1_terms.append((-c, m))
    low = min([m for _, m, _, _ in g2_terms] + [m for _, m in g1_terms], default=0)
    num: IntPoly = []
    for c, m, r, j in g2_terms:
        num = poly_add(num, g.numer[r][j], c, m - low)
    multiplier: IntPoly = []
    for c, m in g1_terms:
        multiplier = poly_add(multiplier, [c], shift=m - low)
    d1_s = g.det_m
    num = poly_add(poly_mul(num, d1_s.znum), poly_mul(g.delta, poly_mul(multiplier, d1_s.zden)))
    den = poly_mul(g.delta, d1_s.znum)
    if low >= 0:
        num = [0] * low + num
    else:
        den = [0] * -low + den
    return DefectValue(RatFunc(num, den))


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
