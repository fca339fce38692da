"""The propagator of a certified complex, its torsion and its abelian defect.

A propagator selects one coordinate s of C_1 with d1[s] != 0 and is read
off the complex's certified scaled inverse X = delta0 * B0^-1 by one pivot
exchange (DERIVATION.md §5); it satisfies the three propagator identities
(§4). The torsion is sign * delta / d1[s] (§6), and the defect is the
paper's edge sum over the Dehn graph, regrouped into one exact division
per coordinate (§7). Both are held as unreduced fractions over Z[t]
(`TorsionValue`, `DefectValue`) and compared with no gcd; their Q(t)
forms are built when they are printed or read. `coordinates_agree` is
`check`'s comparison of every coordinate (§8).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, List, Tuple

from ._value import Value
from .algebra import (FieldMatrix, IntPoly, RatFunc, _euler, _exact_div, _pack,
                      _products_cancel, _unit_equal, _unit_free, _unpack, poly_add,
                      poly_mul)
from .errors import DehnError, NotExactError
from .mscomplex import ChainComplex, ZPoly, check_exactness


class Propagator(Value):
    """G2 = N / delta over Z[t] for the selected coordinate s, with
    sign * delta = det [d2 | e_s], the sign that of the complex's
    `forward_elimination`; G1 is 1/d1[s] on the row of s. Built by
    `propagator_at`, which unpacks delta = v[s] alone. N (`numer`), its Q(t)
    matrix (`g2`) and the trace sums (`_total`, `_terms`) are views built on
    first read. DERIVATION.md §4 and §5."""

    complex: ChainComplex
    selected: int  # the C_1 coordinate s whose line complements im(d2)
    delta: ZPoly

    @cached_property
    def numer(self) -> List[List[IntPoly]]:
        """N, c2_dim x c1_dim over Z[t], built on first read: N0 exchanged
        to s entry by entry (`_exchanged`), and unpacked. It satisfies the three
        propagator identities (DERIVATION.md §5)."""
        cx, s = self.complex, self.selected
        x, width, s0 = cx.scaled_inverse, cx.forward_elimination[3], cx.base_coordinate
        return [[_unpack(_exchanged(x, s0, s, j, i), width) for i in range(len(x))]
                for j in range(len(x) - 1)]

    @cached_property
    def g2(self) -> FieldMatrix:
        """G2 as a c2_dim x c1_dim matrix over Q(t), built on first use. The
        complex is exact, so c1_dim = c2_dim + 1."""
        return FieldMatrix(len(self.numer), len(self.numer) + 1, [
            RatFunc(x, self.delta) for row in self.numer for x in row])

    @cached_property
    def _total(self) -> Tuple[int, List[Tuple[int, int, int]]]:
        """(T, [(j, i, w_ij)]) of `_traces` (DERIVATION.md §7.2), in one
        pass over the entries of d2 with a t-power term, column by column:
        w_ij = t d2'[i][j] packed at the width, and T = sum w_ij * N0[j][i]."""
        cx = self.complex
        x, width = cx.scaled_inverse, cx.forward_elimination[3]
        total, weights = 0, []
        for j, col in enumerate(cx.d2_cols):
            for i, e in col:
                if len(e) > 1:  # a constant entry has no t-power term
                    w = _pack(_euler(e), width)
                    total += w * x[j][i]
                    weights.append((j, i, w))
        return total, weights

    @cached_property
    def _terms(self) -> List[Tuple[List[int], int]]:
        """(N0[j], u[j]) for every j with u[j] = sum_i w_ij * v[i] != 0."""
        x = self.complex.scaled_inverse
        v, u = x[-1], [0] * (len(x) - 1)
        for j, i, w in self._total[1]:
            u[j] += w * v[i]
        return [(x[j], uj) for j, uj in enumerate(u) if uj]


def build_propagator(cx: ChainComplex) -> Propagator:
    """`propagator_at(cx, cx.base_coordinate)`: the propagator at s0, the
    first coordinate with d1[s0] != 0, the one the pipeline reports. Every
    coordinate with d1[s] != 0 gives the same torsion and defect
    (DERIVATION.md §6, §7.4)."""
    # s0 is None only when d1 = 0, a complex that `propagator_at` refuses as not exact.
    return propagator_at(cx, cx.base_coordinate)


def propagator_at(cx: ChainComplex, s: int) -> Propagator:
    """The propagator selecting coordinate s, with delta = v[s] read off
    the complex's certified scaled inverse (DERIVATION.md §5). Raises
    `NotExactError` on a complex that fails `check_exactness`, and
    `DehnError` if s is no coordinate of C_1 or delta = 0, as it is wherever
    d1[s] = 0. O(1) after the one certificate per complex."""
    witness = check_exactness(cx)
    if witness is not None:
        raise NotExactError(f"complex is not exact: {witness}")
    if not 0 <= s < cx.c1_dim:
        raise DehnError(f"no coordinate s = {s} in C_1, whose dimension is {cx.c1_dim}")
    delta = tuple(_unpack(cx.scaled_inverse[-1][s], cx.forward_elimination[3]))
    if not delta:
        raise DehnError("propagator has delta = 0")
    return Propagator(cx, s, delta)


class TorsionValue(Value):
    """The torsion num / den as computed, an unreduced fraction over Z[t].
    The comparisons read the pair; the Q(t) forms are built, one gcd for
    both, when first read. `==` compares pairs, not values."""

    num: ZPoly
    den: ZPoly

    @cached_property
    def raw(self) -> RatFunc:
        return RatFunc(self.num, self.den)

    @cached_property
    def normalized(self) -> RatFunc:
        """raw = sign * t^m * normalized: the numerator in `_unit_free` form
        and the denominator with its t-power stripped, reduced with no second
        gcd (DERIVATION.md §6)."""
        zden = self.raw.zden
        return RatFunc._reduced(_unit_free(self.raw.znum),
                                zden[next(i for i, c in enumerate(zden) if c):])


def torsion(g: Propagator) -> TorsionValue:
    """Determinant of [d2 | g1] : C_2 + C_0 -> C_1, sign * delta * t^a /
    D1[s] with t^a = d1_den (DERIVATION.md §6); `DehnError` if it vanishes."""
    cx = g.complex
    num = poly_mul([cx.forward_elimination[2] * c for c in g.delta], cx.d1_den)
    if not num:
        raise DehnError("torsion determinant vanished on an exact complex")
    return TorsionValue(tuple(num), cx.d1_row[g.selected])


def torsion_equal_up_to_units(a: TorsionValue, b: TorsionValue) -> bool:
    """True iff a = +-t^m * b, cross-multiplied over Z[t] with no gcd."""
    return _unit_equal(a.num, a.den, b.num, b.den)


class DefectValue(Value):
    """The defect num / den as computed, an unreduced fraction over Z[t];
    its canonical form is built, with one gcd, when first read. `==`
    compares pairs, not values."""

    num: ZPoly
    den: ZPoly

    @cached_property
    def representative(self) -> RatFunc:
        return RatFunc(self.num, self.den)


def defect(g: Propagator) -> DefectValue:
    """The defect (num * D1[s] - delta * tau_s) / (delta * D1[s]), num =
    tr(t d2' * N) read by `_traces`, tau_s = t D1[s]' - a * D1[s] and t^a =
    d1_den: the paper's edge sum (DERIVATION.md §7.1). An inexact division is
    an ArithmeticError naming s."""
    cx, s = g.complex, g.selected
    num, d1_s, tau_s = _traces(g)(s), cx.d1_row[s], _tau(cx, s)
    return DefectValue(tuple(poly_add(poly_mul(num, d1_s), poly_mul(g.delta, tau_s), -1)),
                       tuple(poly_mul(g.delta, d1_s)))


def _tau(cx: ChainComplex, s: int) -> IntPoly:
    """tau_s = t D1[s]' - a * D1[s], with t^a = d1_den."""
    d1_s = cx.d1_row[s]
    return poly_add(_euler(d1_s), d1_s, -(len(cx.d1_den) - 1))


def coordinates_agree(g: Propagator) -> bool:
    """Whether the propagator of every other coordinate s with d1[s] != 0
    gives g's torsion and defect as the same fractions exactly: identities
    (I), then (II) of DERIVATION.md §8, over Z[t] with no gcd, coordinate by
    coordinate in order. It reads g's trace sums, T the one its defect formed.
    A zero delta_s is `propagator_at`'s DehnError, an inexact division the
    trace's ArithmeticError naming s; a coordinate that fails (I) makes no
    division."""
    cx, num, r, delta_r = g.complex, _traces(g), g.selected, g.delta
    d1_r, num_r, tau_r = cx.d1_row[r], num(r), _tau(cx, r)
    for s, d1_s in enumerate(cx.d1_row):
        if not d1_s or s == r:
            continue
        delta_s = propagator_at(cx, s).delta
        if not _products_cancel((1, delta_s, d1_r), (-1, delta_r, d1_s)):  # (I)
            return False
        if not _products_cancel((1, num(s), d1_r), (-1, delta_r, _tau(cx, s)),  # (II)
                                (-1, num_r, d1_s), (1, delta_s, tau_r)):
            return False
    return True


def _traces(g: Propagator) -> Callable[[int], IntPoly]:
    """s -> num_s = tr(t d2' * N_s) for every coordinate s of g's complex,
    regrouped over the pivot exchange as (v[s] * T - sum_j N0[j][s] * u[j]) /
    delta0 (DERIVATION.md §7.2, its unpack width §7.3). T is formed on first
    read, and u only for a coordinate other than s0. An inexact division is
    an ArithmeticError naming s."""
    cx = g.complex
    v, width, s0 = cx.scaled_inverse[-1], cx.forward_elimination[3], cx.base_coordinate

    def num(s: int) -> IntPoly:
        packed = v[s] * g._total[0]
        if s != s0:
            packed -= sum(row[s] * uj for row, uj in g._terms)
        try:
            return _unpack(_exact_div(packed, v[s0]), width)
        except ArithmeticError:
            raise ArithmeticError(f"inexact division in the trace of s = {s}") from None

    return num


def _exchanged(x: List[List[int]], s0: int, s: int, j: int, i: int) -> int:
    """N_s[j][i] = (v[s] * N0[j][i] - N0[j][s] * v[i]) / v[s0], packed, off
    the rows N0, then v, of X = `ChainComplex.scaled_inverse` (DERIVATION.md
    §5). An inexact division is an ArithmeticError naming the entry."""
    v = x[-1]
    a, b = x[j][i], v[i]
    try:
        return _exact_div(v[s] * a - x[j][s] * b, v[s0]) if a or b else 0
    except ArithmeticError:
        raise ArithmeticError(f"inexact division in the pivot exchange to s = {s}: "
                              f"entry N_s[{j}][{i}]") from None


def _differ_by_integer(p1: IntPoly, q1: IntPoly, p2: IntPoly, q2: IntPoly) -> bool:
    """Whether p1/q1 - p2/q2 is an integer, over Z[t] with no gcd
    (DERIVATION.md §7.4)."""
    num = poly_add(poly_mul(p1, q2), poly_mul(p2, q1), -1)
    if not num:
        return True
    den = poly_mul(q1, q2)
    c, r = divmod(num[-1], den[-1])
    return r == 0 and num == [c * x for x in den]


def defect_equal_mod_Z(a: DefectValue, b: DefectValue) -> bool:
    """True iff the difference is a constant with integer value."""
    return _differ_by_integer(a.num, a.den, b.num, b.den)


def check_lescop_relation(tor: TorsionValue, d: DefectValue) -> bool:
    """The defect equals t * (d/dt) log(torsion) modulo the integers,
    well defined on the torsion's unit class (DERIVATION.md §7.4). A zero
    torsion is a ValueError."""
    p, q = tor.num, tor.den
    if not p:
        raise ValueError("torsion must be nonzero")
    # With torsion = P / Q in any form, t * (d/dt) log(torsion) = (tP'Q - PtQ') / (PQ).
    wronskian = poly_add(poly_mul(_euler(p), q), poly_mul(p, _euler(q)), -1)
    return _differ_by_integer(d.num, d.den, wronskian, poly_mul(p, q))
