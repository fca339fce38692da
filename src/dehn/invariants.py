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
be its coordinate column and B = [lambda*d2 | e_s] the pivot columns of the
elimination, so sign * delta = det B. G1 is e_s / d1[s], hence [d2 | g1] =
[d2 | e_s] * diag(I, 1/d1[s]); and diag(lambda) * [d2 | e_s] =
B * diag(I, lambda_s), since scaling row s of e_s is scaling its column.
Taking determinants,

    raw torsion = det [d2 | g1] = sign * delta / (prod_(i != s) lambda_i * d1[s]).

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
from typing import Dict, List, Optional, Tuple

from .algebra import (FieldMatrix, IntPoly, RatFunc, common_denominator,
                      fraction_free_gauss_jordan, pmat_mul, poly_add, poly_mul,
                      unit_equal)
from .dehngraph import BASEPOINT, DehnGraph
from .errors import DehnError, NotExactError, UnsupportedRepresentationError
from .mscomplex import ChainComplex, Representation, check_exactness
from .words import exponent_sum


@dataclass(frozen=True)
class Propagator:
    """G2 held as the elimination left it: G2[r][j] = numer[r][j] * lam[j] / delta
    over Z[t], with lam[j] clearing row j of d2 of denominators. `sign` is the
    elimination's row-swap sign and `det_m` the entry d1[s] of the selected
    coordinate s: with them the torsion needs no determinant of its own."""

    numer: List[List[IntPoly]]  # c2_dim x c1_dim
    lam: Tuple[Tuple[int, ...], ...]  # c1_dim
    delta: IntPoly
    g1: FieldMatrix  # c1_dim x c0_dim
    selected: Tuple[int, ...]  # C_1 coordinates spanning the complement of im(d2)
    sign: int
    det_m: RatFunc

    @cached_property
    def g2(self) -> FieldMatrix:
        """G2 as a c2_dim x c1_dim matrix over Q(t), built on first use."""
        return FieldMatrix(len(self.numer), len(self.lam), [
            RatFunc(x, self.delta) for x in _g2_numerators(self)])


def _g2_numerators(g: Propagator) -> List[IntPoly]:
    """G2's entries times delta, row by row, over Z[t]."""
    return [x if lam == (1,) else poly_mul(x, lam)
            for row in g.numer for x, lam in zip(row, g.lam)]


def build_propagator(cx: ChainComplex, pivot_seed: Optional[int] = None) -> Propagator:
    """Construct a propagator; `pivot_seed` shuffles the candidate coordinate
    order (default is ascending), giving genuinely different propagators whose
    torsion and defect must agree.

    Row i of d2 is cleared of denominators by a factor lambda_i (once per
    complex), and [lambda*d2 | identity columns in candidate order] is
    eliminated once, fraction-free over Z[t]. The pivots beyond the d2
    columns select the first candidates independent of im(d2) and of the
    candidates before them. With B = [lambda*d2 | e_S] the pivot columns and
    delta the common pivot, the identity block holds N = delta * B^-1, so
    G2 = N[:c2] * lambda / delta, and sign * delta = det B.
    """
    report = check_exactness(cx)
    if not report.exact:
        raise NotExactError(f"complex is not exact: {report.witness}")
    c2, c1, c0 = cx.c2_dim, cx.c1_dim, cx.c0_dim
    order = list(range(c1))
    if pivot_seed is not None:
        random.Random(pivot_seed).shuffle(order)
    position = {coord: k for k, coord in enumerate(order)}
    lam, rows = cx.d2_cleared
    aug = []
    for i, row in enumerate(rows):
        unit = [[]] * c1
        unit[position[i]] = [1]
        aug.append(list(row) + unit)
    reduced, pivots, sign = fraction_free_gauss_jordan(aug)
    selected = [order[p - c2] for p in pivots if p >= c2]
    if len(selected) != c0:
        raise NotExactError("could not complete im(d2) to a basis of C_1")
    numer = [[reduced[r][c2 + position[j]] for j in range(c1)] for r in range(c2)]
    d1_s = cx.d1.entry(0, selected[0])
    g1 = [RatFunc.zero()] * c1
    g1[selected[0]] = RatFunc.one() / d1_s
    g = Propagator(numer, lam, reduced[-1][pivots[-1]], FieldMatrix(c1, 1, g1),
                   tuple(selected), sign, d1_s)
    _verify_identities(cx, g)
    return g


def _verify_identities(cx: ChainComplex, g: Propagator) -> None:
    """Check g2*d2 = id, d1*g1 = id and d2*g2 + g1*d1 = [d2 | g1]*[g2; d1] = id
    exactly: g2 is its numerators over delta, and [d2 | g1] and d1 are each
    written over one common denominator, so every product of numerators
    must be the product of the denominators times the identity."""
    c2 = cx.c2_dim
    g2 = _rows(_g2_numerators(g), cx.c1_dim)
    d1_den, d1 = cx.d1_common
    den, left = common_denominator(cx.d2.hstack(g.g1).entries)
    left = _rows(left, c2 + cx.c0_dim)
    # [g2; d1] is [g2 * d1_den; d1 * delta] over delta * d1_den: scale the
    # matching columns of the sparse left factor instead.
    scaled = [[poly_mul(x, d1_den) for x in row[:c2]] + [poly_mul(x, g.delta) for x in row[c2:]]
              for row in left]
    for name, product, scalar in (
            ("g2*d2", pmat_mul(g2, [row[:c2] for row in left]), poly_mul(g.delta, den)),
            ("d1*g1", pmat_mul(d1, [row[c2:] for row in left]), poly_mul(d1_den, den)),
            ("d2*g2 + g1*d1", pmat_mul(scaled, g2 + list(d1)),
             poly_mul(den, poly_mul(g.delta, d1_den)))):
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
    """Determinant of [d2 | g1] : C_2 + C_0 -> C_1, raw and normalized, read
    off the propagator's elimination as sign * delta / (prod_(i != s)
    lam_i * d1[s]); the module docstring derives it."""
    chosen = set(g.selected)
    den: IntPoly = [1]
    for i, lam in enumerate(g.lam):
        if i not in chosen and lam != (1,):
            den = poly_mul(den, lam)
    m = g.det_m
    raw = RatFunc(poly_mul([g.sign * c for c in g.delta], m.zden), poly_mul(den, m.znum))
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
    and exponent sum e. With `low` the least m, the G2 terms sum
    to t^low * num / delta with num = sum of c * t^(m - low) * numer[r][j] *
    lam[j] over Z[t]. The G1 terms of a row sum to a Laurent multiple of that
    row's entry of g1, added to num / den by cross-multiplication."""
    _require_abelian(rep)
    g2_terms, g1_terms = [], {}
    for e in graph.edges:
        w = e.label.word
        if not w:
            continue
        m = exponent_sum(w)
        c = e.label.sign * m
        if e.target == BASEPOINT:
            g1_terms.setdefault(cx.block_of(e.source), []).append((-c, m))
        else:
            g2_terms.append((c, m, cx.block_of(e.source), cx.block_of(e.target)))
    low = min([m for _, m, _, _ in g2_terms]
              + [m for terms in g1_terms.values() for _, m in terms], default=0)
    by_column: Dict[int, IntPoly] = {}
    for c, m, r, j in g2_terms:
        by_column[j] = poly_add(by_column.get(j, []), g.numer[r][j], c, m - low)
    num: IntPoly = []
    for j, column in by_column.items():
        num = poly_add(num, column if g.lam[j] == (1,) else poly_mul(column, g.lam[j]))
    den = g.delta
    for row, terms in g1_terms.items():
        entry = g.g1.entry(row, 0)
        if entry.is_zero():
            continue
        multiplier: IntPoly = []
        for c, m in terms:
            multiplier = poly_add(multiplier, [c], shift=m - low)
        num = poly_add(poly_mul(num, entry.zden),
                       poly_mul(den, poly_mul(multiplier, entry.znum)))
        den = poly_mul(den, entry.zden)
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
