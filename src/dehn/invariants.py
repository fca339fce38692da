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

The three propagator identities are verified on every propagator as exact
equalities over Z[t], each row and column of N packed once into one integer
at widths proved from the propagator under test. They prove G2 = N / delta;
a wrong delta with the elimination's N fails g2*d2 = id.

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
from itertools import chain
from typing import List, Optional, Tuple

from .algebra import FieldMatrix, IntPoly, RatFunc, _pack, poly_add, poly_mul, unit_equal
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
    fraction-free over Z[t]; in the default order that is the complex's
    `natural_elimination`, which its exactness check has already made. The
    pivots beyond the d2 columns select the
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
    if pivot_seed is None:
        reduced, pivots, sign = cx.natural_elimination
    else:
        random.Random(pivot_seed).shuffle(order)
        reduced, pivots, sign = cx.eliminate(order)
    position = {coord: k for k, coord in enumerate(order)}
    selected = [order[p - c2] for p in pivots if p >= c2]
    if len(selected) != c0:
        raise NotExactError("could not complete im(d2) to a basis of C_1")
    numer = [[reduced[r][c2 + position[j]] for j in range(c1)] for r in range(c2)]
    s = selected[0]
    g = Propagator(numer, reduced[-1][pivots[-1]], tuple(selected), sign,
                   RatFunc(cx.d1_row[s], cx.d1_den))
    _verify_identities(cx, g)
    return g


def _identity_widths(cx: ChainComplex, g: Propagator) -> Tuple[int, int]:
    """(k, L): the bits per coefficient and the coefficients per slot at
    which `_verify_identities` packs a propagator.

    Each identity is an equality of rows (or columns) of polynomials, and it
    holds iff every entry E of its difference row is zero. With a = the
    largest 1-norm |D1[j]|_1 of d1's numerators (at least 1: d1 is nonzero
    on an exact complex), |N| and |delta| the largest coefficient of N and
    of delta, and n the largest row or column 1-norm of d2 (the sum of its
    entries' 1-norms), every coefficient of every E is at most

        bound = a * (|N| * n + |delta|),

    since a coefficient of p * q is at most |p|_1 times the largest of q:
    (N * d2)[r][c] - delta * [r = c] and (d2 * N)[i][j] - delta * [i = j]
    are within |N| * n + |delta|, and row s, D1[s] * (d2 * N)[s][j] -
    delta * (D1[s] * [j = s] - D1[j]), is within |D1[s]|_1 * |N| * n +
    |delta| * |D1[j]|_1 (the second term is zero at j = s). With l_X the
    longest entry of X, every E has at most

        L = max(l_N + l_d2 - 1, l_delta) + l_D1 - 1

    coefficients, the longest product counted, row s's included. Take k =
    bit_length(bound), so every coefficient is below 2^k, and K = k * L. A
    row packed at t -> 2^k and column j -> 2^(K*j) is the value at t = 2^k
    of sum_j t^(L*j) * E_j(t), whose coefficients are exactly those of the
    E_j, since no E_j reaches the next slot. A nonzero polynomial with every
    coefficient below 2^k in absolute value is nonzero at 2^k: its lowest
    term c * 2^(k*m), 0 < |c| < 2^k, leaves a remainder modulo 2^(k*(m+1)).
    So a packed difference row is zero iff the row is. The width is taken
    from the propagator under test, so it covers a wrong one too."""
    d2, d1 = cx.d2_rows, cx.d1_row
    numer = list(chain.from_iterable(g.numer))
    coeffs = list(chain.from_iterable(numer)) or [0]
    norm_n = max(max(coeffs), -min(coeffs))
    norms = [[sum(map(abs, x)) for x in row] for row in d2]
    norm_d2 = max(map(sum, chain(norms, zip(*norms))), default=0)
    a = max(sum(map(abs, x)) for x in d1)
    bound = a * (norm_n * norm_d2 + max(map(abs, g.delta)))
    longest_n = max(map(len, numer), default=0)
    longest_d2 = max(map(len, chain.from_iterable(d2)), default=0)
    slots = max(longest_n + longest_d2 - 1, len(g.delta)) + max(map(len, d1)) - 1
    return bound.bit_length(), slots


def _verify_identities(cx: ChainComplex, g: Propagator) -> None:
    """Check g2*d2 = id, d1*g1 = id and d2*g2 + g1*d1 = id as exact
    equalities over Z[t]. With g2 = N / delta, d1 = D1 / den and g1 =
    e_s / d1[s] they read N * d2 = delta * id; det_m = D1[s] / den; and, row
    by row, (d2 * N)[i] = delta * e_i for i != s, while row s, where g1 * d1
    is D1 / D1[s], has (d2 * N)[s][j] * D1[s] = delta * (D1[s] * [j = s] -
    D1[j]).

    Each row and each column of N is packed once into one integer, at the
    widths of `_identity_widths`. A column of N * d2 is then the sum, over
    the nonzero entries of a column of d2, of the packed entry times a
    packed column of N, and a row of d2 * N the same with the rows; each is
    compared with delta shifted into its slot, delta << K*i, as one integer,
    with no entry product and no unpacking."""
    s, d1 = g.selected[0], cx.d1_row
    k, slots = _identity_widths(cx, g)
    width = k * slots  # K, the bits of one slot

    def packed(line) -> int:
        n = 0
        for v in reversed(line):
            n = (n << width) + v
        return n

    def nonzeros(line) -> List[Tuple[int, int]]:
        return [(j, _pack(x, k)) for j, x in enumerate(line) if x]

    numer = [[_pack(x, k) for x in row] for row in g.numer]
    delta = _pack(g.delta, k)
    columns = [packed(col) for col in zip(*numer)]
    for c, col in enumerate(zip(*cx.d2_rows)):
        if sum(v * columns[j] for j, v in nonzeros(col)) != delta << width * c:
            raise DehnError("propagator identity g2*d2 = id failed")
    m = g.det_m
    if poly_mul(d1[s], m.zden) != poly_mul(cx.d1_den, m.znum):
        raise DehnError("propagator identity d1*g1 = id failed")
    rows = [packed(row) for row in numer]
    d1_s = _pack(d1[s], k)
    for i, row in enumerate(cx.d2_rows):
        product = sum(v * rows[r] for r, v in nonzeros(row))
        if i != s:
            ok = product == delta << width * i
        else:
            ok = product * d1_s == delta * ((d1_s << width * s)
                                            - packed([_pack(x, k) for x in d1]))
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
