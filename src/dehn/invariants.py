"""Combinatorial propagator, torsion and the abelian defect of an exact
three-term complex.

C_0 has rank 1, so the propagator picks one coordinate s of C_1 whose line
completes the image of d2 to a basis; G_1 inverts d1 on that line and G_2
inverts d2 on its image along it. G_2 is N / delta, numerators N over Z[t]
and one common denominator delta. A complex is eliminated once, forward,
and back substituted once, to delta0 * B0^-1 with B0 = [d2 | e_s0], s0
the first coordinate where d1 is nonzero: its rows N0, then v, certified
once per complex where they are made. Every propagator holds its complex
and is read off them by its coordinate (`propagator_at`; `build_propagator`
reads the one at s0). The one that selects s0 is N0 over delta0;
one that selects another coordinate s is the propagator of B_s = [d2 |
e_s], a rank-one change of B0, held as delta = v[s] alone. Its torsion
needs delta alone, its defect one exact division (`_traces`), and N itself
is built only when read.
Torsion is the determinant of the square block matrix [d2 | g1] mapping
the even chains to C_1; it is well defined up to +-t^m, and a canonical
representative is obtained by stripping that unit.

Both invariants are held as the computation leaves them, unreduced
fractions over Z[t] (`TorsionValue`, `DefectValue`). Their comparisons,
up to units, modulo the integers and in the Lescop relation, cross-multiply
the pairs with no gcd; the Q(t) forms, one gcd each, are built only when a
value is printed or read.

The torsion is read off the propagator's elimination, with no determinant of
its own. Let e_s be the column of the selected coordinate s and
B = [d2 | e_s], so that N / delta is G2 = the rows of B^-1 belonging to
d2 and sign * delta = det B. G1 is e_s / d1[s], hence [d2 | g1] = B *
diag(I, 1/d1[s]), and

    raw torsion = det [d2 | g1] = sign * delta / d1[s].

It is the same fraction for every s with d1[s] != 0: g1 moves by
e_s / d1[s] - e_s' / d1[s'], which lies in ker d1 = im d2, so the
determinant does not. The defect's representative is exactly t (d/dt)
log of the raw torsion (Jacobi's formula, below), so it does not move
either; `check` compares every coordinate's pairs with the reported ones
exactly (`coordinates_agree`, last below).

The three propagator identities rest on the complex's exactness report,
d1 * d2 = 0 included, and on one certificate of its scaled inverse X =
delta0 * B0^-1: delta0 != 0 and X * B0 = delta0 * I over Z[t], one
`is_diagonal_product` test on X's packed rows, exact at their width once
their digits are bounded (`mscomplex._certify_inverse`, which proves them
for the base propagator; `Propagator.numer` proves them for any other
coordinate, given its delta != 0). They prove G2 = N / delta, but not the
scale of delta: (c * X, c * delta0) passes the certificate for any nonzero
polynomial c, and its torsion is wrong by the factor c. The Milnor and
Lescop checks of the pipeline are what pin delta.

The defect is a rational function modulo the integers. The paper sums it
over the labelled Dehn graph: every edge whose label maps to c * t^m
contributes t (d/dt)(c * t^m) = m * c * t^m times its propagator entry, a
crossing-to-region edge its G_2 entry and a region-to-basepoint edge its G_1
entry with the opposite sign. The sum is linear in the labels, and the
labels summed entry by entry are the boundary matrices, so it is the trace

    defect = tr(t d2' * G2) - (t d1')[s] * g1[s],

with ' the derivative in t of each entry, so that t d2' is the Euler
operator theta = t (d/dt) of each entry (`algebra._euler`): Jacobi's
formula for theta log det, the reason that defect = theta log(torsion)
mod Z, the form `check_lescop_relation` tests. With G2 =
N / delta, d1 = D1 / t^a and g1[s] = 1 / d1[s], the first term is num /
delta, num = tr(t d2' * N), the sum over the coefficients c_m, m >= 1,
of the nonzero d2 entries d2[i][j] of m * c_m * t^m * N[j][i]; the second
is (t D1[s]' - a * D1[s]) / D1[s]. The defect is their difference, one
fraction over Z[t].

num is read off X by one formula for every propagator (`_traces`). The
entries of N_s are N_s[j][i] = (v[s] * N0[j][i] - N0[j][s] * v[i]) /
delta0, the pivot exchange of `Propagator.numer`, so with w_ij = t
d2'[i][j] the edge sum regroups as

    num_s = (v[s] * T - sum_j N0[j][s] * u[j]) / delta0,
    T = sum_ij w_ij * N0[j][i],   u[j] = sum_i w_ij * v[i]:

the same sum over the same edges, its shared factors taken out, with one
exact division. For s = s0 it is T, since column s0 of N0 is zero and
v[s0] = delta0. The sum runs on X's entries packed at the width w, a ring
homomorphism, so the quotient is num_s at t = 2^w, and it unpacks to
num_s once every coefficient of num_s lies below 2^(w-1). Every entry of
N_s is a minor of [B0 | I]: a cofactor of B_s, whose columns are those of
d2 and the unit column e_s. So each of its coefficients is below
2^(k-1), k the kernel's proved width, and a coefficient of w_ij *
N_s[j][i] is below |w_ij|_1 * 2^(k-1). Summed over the entries, every
coefficient of num_s is below W * 2^(k-1) <= 2^(w-1), where W is the sum
over the entries of d2 of |t d2'|_1, and the complex packs at w >= k +
W.bit_length() (`mscomplex.ChainComplex.forward_elimination`).

T and u do not depend on s: they are views of the propagator, formed once
(`Propagator._total`, `_terms`), and `_traces` reads num_s for any s off
them; u only when a coordinate other than s0 is read, so the defect of the
base propagator forms T alone. `coordinates_agree` compares
every coordinate s with d1[s] != 0 against a propagator's own coordinate r
in the same way, with no fraction built. Write D = D1 and tau_s = t D[s]' - a * D[s]; the
torsion at s is sign * delta_s * t^a / D[s], the defect (num_s * D[s] -
delta_s * tau_s) / (delta_s * D[s]), and sign is the elimination's, the
same for every s. Cross-multiplied over Z[t], an integral domain, the
torsions agree iff

    (I)   delta_s * D[r] = delta_r * D[s],

sign * t^a cancelled. The defects agree iff

    (num_r * D[r] - delta_r * tau_r) * delta_s * D[s]
        = (num_s * D[s] - delta_s * tau_s) * delta_r * D[r].

Given (I), put delta_r * D[s] for delta_s * D[r] on both sides: the left
is delta_r * D[s] * (num_r * D[s] - delta_s * tau_r), the right delta_r *
D[s] * (num_s * D[r] - delta_r * tau_s). delta_r and D[s] are nonzero, so
given (I) the defects agree iff

    (II)  num_s * D[r] - delta_r * tau_s = num_r * D[s] - delta_s * tau_r,

products of delta or num by the short entries of D1, where the cross-
multiplied test makes four of degree about twice theirs. (I) and (II) are
each moved to one side and tested for zero, exactly, by one packed value
(`algebra._products_cancel`). For r = s0, num_r = T.
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
    """G2 = N / delta over Z[t] for the selected coordinate s, read off the
    scaled inverse delta0 * B0^-1 of its complex (`scaled_inverse`: the rows
    N0, then v), packed at the width of its `forward_elimination`, whose
    sign is the propagator's: sign * delta = det [d2 | e_s]. G1 is 1/d1[s]
    on the row of s, read off the complex when needed, and with them the
    torsion needs no determinant of its own. Only delta = v[s] is unpacked
    when the propagator is built; N (`numer`), its Q(t) matrix and the
    trace sums (`_total`, `_terms`) are views built on first read, and the
    defect reads neither N nor its matrix (`_traces`)."""

    complex: ChainComplex
    selected: int  # the C_1 coordinate s whose line complements im(d2)
    delta: ZPoly

    @cached_property
    def numer(self) -> List[List[IntPoly]]:
        """N, c2_dim x c1_dim over Z[t], built on first read: N0 exchanged
        to s, entry by entry (`_exchanged`), and unpacked.

        On an exact complex B0 = [d2 | e_s0] is invertible, and its row r <
        c2 of delta0 * B0^-1 is N0[r], its last row v = delta0 * phi, with
        phi the functional that vanishes on im(d2) and phi(e_s0) = 1. So
        B_s = [d2 | e_s] = B0 * E with E the identity but for its last
        column (u, phi(e_s)), u = N0[.][s] / delta0; B_s is invertible iff
        v[s] != 0, det B_s = sign * v[s], and inverting E gives

            N_s[r] = (v[s] * N0[r] - N0[r][s] * v) / delta0,   delta_s = v[s],

        one fraction-free pivot exchange (Edmonds 1967; Bareiss 1968): the
        same delta_s * B_s^-1 that an elimination selecting s makes, with
        the same sign. Its entries are minors of [d2 | I], so the exchange
        runs on the packed rows at the elimination's width and each
        division is checked exact.

        N_s satisfies the three identities whenever X passes its
        certificate (`mscomplex._certify_inverse`: N0 * d2 = delta0 * id,
        column s0 of N0 zero, v * d2 = 0 and v[s0] = delta0, with delta0 !=
        0): N_s * d2 = (v[s] * N0 * d2 - N0[.][s] * (v * d2)) / delta0 =
        (v[s] * delta0 * id - 0) / delta0 = delta_s * id, and column s of
        N_s is (v[s] * N0[r][s] - N0[r][s] * v[s]) / delta0 = 0; delta_s !=
        0 is checked when the propagator is built. The certificate's proof
        for s0 then holds for s, word for word. The library builds N_s only
        when it is read: its torsion needs delta_s alone, and its defect
        reads the exchange summed over the edges (`_traces`)."""
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
        """(T, [(j, i, w_ij)]) of `_traces`, in one pass over the entries of
        d2 with a t-power term, column by column: w_ij = t d2'[i][j] packed
        at the width, and T = sum w_ij * N0[j][i]."""
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
    """The propagator at s0, the first coordinate with d1[s0] != 0:
    `propagator_at(cx, cx.base_coordinate)`. Exactness makes im(d2) =
    ker(d1), so the coordinates with d1[s] != 0 are exactly those whose
    line completes im(d2) to a basis, and each of them gives the same
    torsion and defect (the module docstring)."""
    # s0 is None only when d1 = 0, a complex that `propagator_at` refuses as not exact.
    return propagator_at(cx, cx.base_coordinate)


def propagator_at(cx: ChainComplex, s: int) -> Propagator:
    """The propagator selecting coordinate s, on a complex that passes
    `check_exactness` (else `NotExactError`): delta = v[s], read off the
    complex's scaled inverse, which `mscomplex._certify_inverse` certified
    where it was made, and refused if zero, as it is wherever d1[s] = 0,
    or if s is no coordinate of C_1. `Propagator.numer` proves that this
    is enough; it costs O(1) after the one certificate per complex."""
    report = check_exactness(cx)
    if not report.exact:
        raise NotExactError(f"complex is not exact: {report.witness}")
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
        and the denominator with its t-power stripped. Stripping a unit from
        raw's coprime pair leaves a coprime pair with the same contents and
        the same leading coefficient of the denominator, so it is reduced."""
        zden = self.raw.zden
        return RatFunc._reduced(_unit_free(self.raw.znum),
                                zden[next(i for i, c in enumerate(zden) if c):])


def torsion(g: Propagator) -> TorsionValue:
    """Determinant of [d2 | g1] : C_2 + C_0 -> C_1, read off the
    propagator's elimination as sign * delta / d1[s]; the module docstring
    derives it. With d1[s] = D1[s] / den that is sign * delta * den / D1[s]."""
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
    """The trace of the module docstring: num * D1[s] - delta * (t D1[s]' -
    a * D1[s]) over delta * D1[s], with num = tr(t d2' * N) (`_traces`) and
    t^a = d1_den. The a * D1[s] term is the derivative of t^-a; without it
    the defect is off by the integer a, equal mod Z but not the same
    representative."""
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
    gives g's torsion and defect, the same fractions exactly: (I), then
    (II) of the module docstring, over Z[t] with no gcd, coordinate by
    coordinate in order. T and u are g's views (`_traces`), T the one its
    defect formed. A zero delta_s is `propagator_at`'s DehnError, an inexact
    division the trace's ArithmeticError naming s; a coordinate that fails
    (I) makes no division."""
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
    regrouped as in the module docstring: (v[s] * T - sum_j N0[j][s] *
    u[j]) / delta0, read off g's sums, each formed on its first read: T
    (`Propagator._total`), and u (`Propagator._terms`) for a coordinate
    other than s0 only, since column s0 of N0 is zero. No N is built. One
    exact division and one unpack per coordinate, both proved in the
    module docstring; an inexact division is an ArithmeticError naming s."""
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
    the rows N0, then v, of X = `ChainComplex.scaled_inverse`: the pivot
    exchange of `Propagator.numer`, one entry at a time, its division
    checked exact. Column s0 of N0 is zero, so for s = s0 it is N0[j][i]."""
    v = x[-1]
    a, b = x[j][i], v[i]
    try:
        return _exact_div(v[s] * a - x[j][s] * b, v[s0]) if a or b else 0
    except ArithmeticError:
        raise ArithmeticError(f"inexact division in the pivot exchange to s = {s}: "
                              f"entry N_s[{j}][{i}]") from None


def _differ_by_integer(p1: IntPoly, q1: IntPoly, p2: IntPoly, q2: IntPoly) -> bool:
    """Whether p1/q1 - p2/q2 = (p1*q2 - p2*q1) / (q1*q2) = num / den is an
    integer c, over Z[t] with no gcd: iff num = c * den, and then c is the
    ratio of the leading coefficients."""
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
    """The defect equals t * (d/dt) log(torsion) modulo the integers.

    The unit ambiguity of the torsion shifts the logarithmic derivative by an
    integer, so the predicate is well defined on equivalence classes."""
    p, q = tor.num, tor.den
    if not p:
        raise ValueError("torsion must be nonzero")
    # With torsion = P / Q in any form, t * (d/dt) log(torsion) = (tP'Q - PtQ') / (PQ).
    wronskian = poly_add(poly_mul(_euler(p), q), poly_mul(p, _euler(q)), -1)
    return _differ_by_integer(d.num, d.den, wronskian, poly_mul(p, q))
