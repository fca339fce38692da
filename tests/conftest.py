"""Shared fixtures: the knot corpus, cached pipeline runs, matrix builders,
and the reference implementations that the library is tested against."""

import functools
import itertools
import json
from fractions import Fraction

from dehn.algebra import FieldMatrix, Polynomial, RatFunc, fraction_free_gauss_jordan
from dehn.dehngraph import BASEPOINT
from dehn.invariants import DefectValue, _require_abelian
from dehn.mscomplex import eval_rep
from dehn.pipeline import run_pipeline
from dehn.words import exponent_sum

# PD codes from the standard knot tables (bracket form, sequential labels).
UNKNOT_KINK = "[[1,2,2,1]]"
TREFOIL = "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]"
FIG8 = "[[4,2,5,1],[8,6,1,5],[6,3,7,4],[2,7,3,8]]"
K5_1 = "[[1,6,2,7],[3,8,4,9],[5,10,6,1],[7,2,8,3],[9,4,10,5]]"
K5_2 = "[[1,4,2,5],[3,8,4,9],[5,10,6,1],[9,6,10,7],[7,2,8,3]]"
K6_1 = "[[1,4,2,5],[7,10,8,11],[3,9,4,8],[9,3,10,2],[5,12,6,1],[11,6,12,7]]"
# The same knots redrawn with one Reidemeister-I kink inserted on edge 1.
TREFOIL_KINKED = "[[3,6,4,7],[5,8,6,1],[7,4,8,5],[1,2,2,3]]"
FIG8_KINKED = "[[6,4,7,3],[10,8,1,7],[8,5,9,6],[4,9,5,10],[1,2,2,3]]"
# Valid labels and a single component, but the rotation system has genus 1.
NON_PLANAR = "[[1,3,2,4],[1,3,2,4]]"
# Hopf link: every label appears twice but the strands form two components.
HOPF_LINK = "[[4,1,3,2],[2,3,1,4]]"
# Valid labels whose strands chain at every crossing, but edges 1 and 3 each
# run into two crossings and out of none.
TAILLESS_EDGES = ("[[1,4,2,3],[1,3,2,4]]", "[[1,3,2,4],[3,1,4,2]]")

CORPUS = {
    "unknot_kink": UNKNOT_KINK,
    "3_1": TREFOIL,
    "4_1": FIG8,
    "5_1": K5_1,
    "5_2": K5_2,
    "6_1": K6_1,
}

ALEXANDER = {
    "unknot_kink": (1,),
    "3_1": (1, -1, 1),
    "4_1": (1, -3, 1),
    "5_1": (1, -1, 1, -1, 1),
    "5_2": (2, -3, 2),
    "6_1": (2, -5, 2),
}


def torus_pd(n: int) -> str:
    """PD code of the (2, n) torus knot, n odd: crossing i is
    [2i+1, 2i+n+1, 2i+2, 2i+n+2] with labels taken mod 2n."""
    m = 2 * n
    return "[" + ",".join(
        f"[{2 * i % m + 1},{(2 * i + n) % m + 1},{(2 * i + 1) % m + 1},{(2 * i + n + 1) % m + 1}]"
        for i in range(n)) + "]"


def connected_sum(*texts: str) -> str:
    """PD code of the connected sum of knots given by PD codes with
    sequential labels and no one-crossing loop. Summand b is spliced into
    the last edge of a, the edge ma that runs into the crossing where edge 1
    leaves: edge ma now runs into b, b's edges follow shifted by ma, and b's
    last edge, relabelled ma + mb, closes the loop into a."""
    a = json.loads(texts[0])
    for text in texts[1:]:
        b = json.loads(text)
        ma, mb = 2 * len(a), 2 * len(b)
        a = ([[ma + mb if e == ma and _incoming(c, pos, ma) else e
               for pos, e in enumerate(c)] for c in a]
             + [[ma if e == mb and _incoming(c, pos, mb) else e + ma
                 for pos, e in enumerate(c)] for c in b])
    return json.dumps(a, separators=(",", ":"))


def _incoming(crossing, pos: int, edges: int) -> bool:
    """Whether the edge at `pos` enters the crossing: the under-strand runs
    from position 0 to 2, the over-strand from b to d when d follows b."""
    if pos in (0, 2):
        return pos == 0
    b_in = crossing[3] == crossing[1] % edges + 1
    return b_in if pos == 1 else not b_in


def det_torsion(cx, g) -> RatFunc:
    """Reference raw torsion: the determinant of [d2 | g1] itself, the form
    the torsion took before it was read off the propagator's elimination."""
    return hstack(cx.d2, g.g1).det()


@functools.lru_cache(maxsize=None)
def pipeline(pd_text, outer_region=None, pivot_seed=None):
    return run_pipeline(pd_text, outer_region=outer_region, pivot_seed=pivot_seed)


def poly(*coeffs) -> Polynomial:
    return Polynomial(coeffs)


def rf(num, den=(1,)) -> RatFunc:
    num = Polynomial(num) if isinstance(num, (tuple, list)) else Polynomial((num,))
    den = Polynomial(den) if isinstance(den, (tuple, list)) else Polynomial((den,))
    return RatFunc(num, den)


def _as_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(Polynomial((x,)))
    return rf(x)


# -- FieldMatrix constructors and operations that only the tests use ---------


def from_rows(rows) -> FieldMatrix:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return FieldMatrix(nrows, ncols, [x for r in rows for x in r])


def identity(n: int) -> FieldMatrix:
    one, zero = RatFunc.one(), RatFunc.zero()
    return FieldMatrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])


def zeros(rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(rows, cols, [RatFunc.zero()] * (rows * cols))


def mat_add(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in matrix addition")
    return FieldMatrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def submatrix(m: FieldMatrix, row_idx, col_idx) -> FieldMatrix:
    return FieldMatrix(len(row_idx), len(col_idx),
                       [m.entry(i, j) for i in row_idx for j in col_idx])


def is_zero_matrix(m: FieldMatrix) -> bool:
    return all(e.is_zero() for e in m.entries)


def mat(rows) -> FieldMatrix:
    return from_rows([[_as_rf(x) for x in row] for row in rows])


def scaled(matrix: FieldMatrix, c: RatFunc) -> FieldMatrix:
    return FieldMatrix(matrix.rows, matrix.cols, [c * a for a in matrix.entries])


def transposed(matrix: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(matrix.cols, matrix.rows,
                       [matrix.entry(i, j)
                        for j in range(matrix.cols) for i in range(matrix.rows)])


def hstack(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """[a | b]: the columns of b to the right of those of a."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return from_rows([a.row(i) + b.row(i) for i in range(a.rows)])


def is_identity(matrix: FieldMatrix) -> bool:
    return matrix == identity(matrix.rows)


def forward_rank(matrix: FieldMatrix) -> int:
    """Rank by the kernel's forward elimination of the cleared rows, the way
    the complex's exactness ranks are taken."""
    return len(fraction_free_gauss_jordan(matrix.cleared_rows()[1], forward=True)[1])


# -- polynomial arithmetic over Q ----------------------------------------------
#
# Schoolbook product, long division and Euclid's gcd on Polynomial's Fraction
# coefficients: the references that the Z[t] kernel (`poly_mul`, `poly_add`,
# `zpoly_gcd`, `common_denominator`) is compared against. The library itself
# has no arithmetic over Q[t]; there Polynomial is a display view.


def q_add(a: Polynomial, b: Polynomial, c=1) -> Polynomial:
    """a + c * b."""
    out = list(a.coeffs) + [Fraction(0)] * (len(b.coeffs) - len(a.coeffs))
    for i, x in enumerate(b.coeffs):
        out[i] += c * x
    return Polynomial(out)


def q_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def q_divmod(a: Polynomial, b: Polynomial):
    """(q, r) with a = q * b + r and deg r < deg b, one leading term at a time."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q, r = Polynomial(), a
    while not r.is_zero() and r.degree >= b.degree:
        term = Polynomial((0,) * (r.degree - b.degree) + (r.coeffs[-1] / b.coeffs[-1],))
        q = q_add(q, term)
        r = q_add(r, q_mul(term, b), -1)
    return q, r


def q_monic(p: Polynomial) -> Polynomial:
    return p if p.is_zero() else q_mul(p, Polynomial((1 / p.coeffs[-1],)))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid over Q; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a)


def qt_rref(matrix: FieldMatrix):
    """Reference reduced row echelon form by Gauss-Jordan elimination over
    Q(t), independent of the Z[t] kernel behind `FieldMatrix.rref`.

    Returns (rref matrix, pivot column list, rank). Pivots are picked as the
    first nonzero entry scanning top to bottom, so the result is
    deterministic.
    """
    m = [list(matrix.row(i)) for i in range(matrix.rows)]
    nrows, ncols = matrix.rows, matrix.cols
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if not m[r][pc].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = RatFunc.one() / m[pr][pc]
        m[pr] = [inv * e for e in m[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            f = m[r][pc]
            if f.is_zero():
                continue
            m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    reduced = from_rows(m) if nrows else matrix
    return reduced, pivots, len(pivots)


def qt_inverse(matrix: FieldMatrix):
    """Inverse of a square matrix by `qt_rref`; None if it is singular."""
    n = matrix.rows
    reduced, pivots, _ = qt_rref(hstack(matrix, identity(n)))
    if pivots[:n] != list(range(n)):
        return None
    return submatrix(reduced, range(n), range(n, 2 * n))


class QtProductRepresentation:
    """Reference abelian representation: the image of a word is the product
    of t for each letter x and 1/t for each letter x^-1, one letter at a time
    in Q(t), each partial product in canonical form, independent of the
    exponent-sum image behind `Representation.abelian`. It has the same
    `kind` and `word_image`, so `eval_rep` and `qt_complex` take it."""

    kind = "abelian"

    def word_image(self, word) -> RatFunc:
        t = RatFunc.t()
        out = RatFunc.one()
        for _, exp in word:
            out = out * t if exp == 1 else out / t
        return out


def qt_complex(graph):
    """Reference boundary matrices (d2, d1) over Q(t): each entry the sum of
    the `QtProductRepresentation` images of its edges' labels, added one
    term at a time in Q(t), independent of the Z[t] rows of `build_complex`.
    Rows and columns follow the graph's vertex order, as the complex's
    bases do."""
    rep = QtProductRepresentation()
    c2 = [v.id for v in graph.vertices if v.index == 2]
    c1 = [v.id for v in graph.vertices if v.index == 1]
    d2 = [[RatFunc.zero()] * len(c2) for _ in c1]
    d1 = [[RatFunc.zero()] * len(c1)]
    for e in graph.edges:
        if e.target == BASEPOINT:
            row, j = d1[0], c1.index(e.source)
        else:
            row, j = d2[c1.index(e.target)], c2.index(e.source)
        row[j] = row[j] + eval_rep(rep, e.label)
    return from_rows(d2), from_rows(d1)


def qt_fox_derivative(word, gen) -> RatFunc:
    """Reference abelianized Fox derivative: one t-power added at a time in
    Q(t), each partial sum in canonical form, independent of the single
    Laurent polynomial behind `fox_alexander`."""
    result = RatFunc.zero()
    power = 0
    for g, e in word:
        if e == 1:
            if g == gen:
                result = result + RatFunc.t_power(power)
            power += 1
        else:
            power -= 1
            if g == gen:
                result = result - RatFunc.t_power(power)
    return result


def defect_terms(graph, cx, g, rep):
    """Reference per-edge defect contributions (source, target, value), one
    Q(t) value per word-bearing edge, read off the G1 and G2 matrices."""
    _require_abelian(rep)
    terms = []
    for e in graph.edges:
        w = e.label.word
        if not w:
            continue
        degree = exponent_sum(w)
        coeff = eval_rep(rep, e.label)
        if e.target == BASEPOINT:
            entry = g.g1.entry(cx.position(e.source), 0)
            level_sign = -1
        else:
            entry = g.g2.entry(cx.position(e.source), cx.position(e.target))
            level_sign = 1
        value = coeff * entry
        if degree != 1:
            value = value * RatFunc(degree)
        if level_sign < 0:
            value = -value
        terms.append((e.source, e.target, value))
    return terms


def qt_defect(graph, cx, g, rep) -> DefectValue:
    """Reference defect: the per-edge terms added one at a time in Q(t), each
    partial sum in canonical form, independent of the single-numerator sum
    behind `defect`."""
    total = RatFunc.zero()
    for _, _, value in defect_terms(graph, cx, g, rep):
        total = total + value
    return DefectValue(total)


def find_basis_permutation(ours, fixture):
    """Search for row/column permutations identifying our matrices with the
    fixture display.

    `ours` and `fixture` are dicts with keys d2, d1, g2, g1. Returns
    (row_perm, col_perm) with fixture.d2[i][j] == ours.d2[row_perm[i]][col_perm[j]]
    and the same permutations matching d1, g2 and g1, or None.
    """
    n_regions = fixture["d2"].rows
    n_crossings = fixture["d2"].cols
    for rperm in itertools.permutations(range(n_regions)):
        for cperm in itertools.permutations(range(n_crossings)):
            if all(fixture["d2"].entry(i, j) == ours["d2"].entry(rperm[i], cperm[j])
                   for i in range(n_regions) for j in range(n_crossings)) \
               and all(fixture["d1"].entry(0, i) == ours["d1"].entry(0, rperm[i])
                       for i in range(n_regions)) \
               and all(fixture["g2"].entry(j, i) == ours["g2"].entry(cperm[j], rperm[i])
                       for j in range(n_crossings) for i in range(n_regions)) \
               and all(fixture["g1"].entry(i, 0) == ours["g1"].entry(rperm[i], 0)
                       for i in range(n_regions)):
                return rperm, cperm
    return None
