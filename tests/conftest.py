"""Shared fixtures: the knot corpus, cached pipeline runs, matrix builders,
and the reference implementations that the library is tested against."""

import functools
import itertools
import json
import re
from fractions import Fraction
from math import isqrt, prod

from dehn import algebra
from dehn.algebra import FieldMatrix, Polynomial, RatFunc, _pack, _unpack, fraction_free_elimination
from dehn.dehngraph import BASEPOINT
from dehn.invariants import (DefectValue, TorsionValue, check_lescop_relation, defect,
                             propagator_at, torsion)
from dehn.oracle import milnor_check
from dehn.pipeline import run_pipeline
from dehn.words import exponent_sum, free_reduce

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
# Valid labels and a single component, but the rotation system has genus 1:
# the virtual trefoil, whose Gauss code O1 O2 U1 U2 no planar diagram draws.
NON_PLANAR = "[[2,4,3,1],[3,1,4,2]]"
# Hopf link: every label appears twice but the strands form two components.
HOPF_LINK = "[[4,1,3,2],[2,3,1,4]]"
# Valid labels whose strands chain at every crossing, but edges 1 and 3 each
# run into two crossings and out of none: the strands draw two components.
TAILLESS_EDGES = ("[[1,4,2,3],[1,3,2,4]]", "[[1,3,2,4],[3,1,4,2]]")
# The trefoil in the X, PD[X[...]] and bracket forms, with ASCII spaces
# between its crossings, and each form once more with label 5 in
# Arabic-Indic digits and once with each of U+00A0 and U+3000 for the space.
TREFOIL_FORMS = tuple(form.format("1,4,2,5", "3,6,4,1", "5,2,6,3") for form in (
    "X({}) X({}) X({})", "PD[X[{}], X[{}], X[{}]]", "[[{}], [{}], [{}]]"))
NON_ASCII_TREFOILS = tuple(text.replace(*edit) for text in TREFOIL_FORMS
                           for edit in (("5", "\u0665"), (" ", "\u00a0"), (" ", "\u3000")))
# Each form with U+3000 or U+00A0 before and after it, which an ASCII strip
# leaves in place.
PADDED_TREFOILS = tuple(pad + text + pad for text in TREFOIL_FORMS
                        for pad in ("\u3000", "\u00a0"))

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


def qt_d2(cx) -> FieldMatrix:
    """d2 as a c1_dim x c2_dim matrix over Q(t), from the complex's Z[t] columns."""
    return FieldMatrix(cx.c1_dim, cx.c2_dim, [RatFunc(x) for row in dense_d2(cx) for x in row])


# -- dense and sparse forms of matrices over Z[t] ------------------------------
#
# The library reads a matrix over Z[t] by its nonzeros: a complex holds d2 by
# columns of (row, entry) pairs, the kernel takes rows as mappings from column
# to entry, and the product test takes m by sparse columns. These write a
# dense matrix, a list of rows of coefficient lists with () or [] for zero, in
# each form and back, so the tests state their matrices in full.


def dense_d2(cx):
    """d2 of a complex as c1_dim rows of c2_dim entries, () for zero."""
    rows = [[()] * cx.c2_dim for _ in range(cx.c1_dim)]
    for j, col in enumerate(cx.d2_cols):
        for i, x in col:
            rows[i][j] = x
    return rows


def sparse_columns(rows):
    """A dense matrix by its columns of nonzeros: for each column the
    (row, entry) pairs of its nonzero entries in row order, entries as
    tuples, the form of `ChainComplex.d2_cols`."""
    ncols = len(rows[0]) if rows else 0
    return tuple(tuple((i, tuple(row[j])) for i, row in enumerate(rows) if row[j])
                 for j in range(ncols))


def sparse_rows(rows):
    """A dense matrix as the kernel reads it: each row a mapping from
    column to entry, nonzero entries only."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """Rows given as mappings from column to entry, written out in full
    over `ncols` columns, [] for zero."""
    return [[list(row.get(j, [])) for j in range(ncols)] for row in rows]


def reference_d2(graph, rep):
    """d2 over Z[t] as the complex was once built, a dense c1_dim x c2_dim
    matrix, () for zero: each crossing-to-region edge's term sign * t^e
    added into its entry, rows and columns in the graph's vertex order."""
    c2 = {vid: j for j, vid in enumerate(graph.crossing_vertices)}
    c1 = {vid: i for i, vid in enumerate(graph.region_vertices)}
    rows = [[[] for _ in c2] for _ in c1]
    for e in graph.edges:
        if e.target != BASEPOINT:
            i, j = c1[e.target], c2[e.source]
            rows[i][j] = algebra.poly_add(rows[i][j], [e.label.sign],
                                          shift=rep.exponent(e.label.word))
    return [[tuple(x) for x in row] for row in rows]


def dense_minor_bound(rows):
    """`algebra._minor_bound` as it read a dense matrix: the Hadamard-type
    bound from the squared 1-norms of every entry, row by row and column by
    column, zeros included."""
    squares = [[algebra._norm1(x) ** 2 if x else 0 for x in row] for row in rows]
    by_rows = prod(max(1, sum(row)) for row in squares)
    by_cols = prod(max(1, sum(col)) for col in zip(*squares))
    return isqrt(min(by_rows, by_cols))


def qt_d1(cx) -> FieldMatrix:
    """d1 as a 1 x c1_dim matrix over Q(t): d1_row over d1_den."""
    return FieldMatrix(1, cx.c1_dim, [RatFunc(x, cx.d1_den) for x in cx.d1_row])


def qt_g1(cx, g) -> FieldMatrix:
    """G1 as a c1_dim x 1 matrix over Q(t): 1/d1[s] on the row of the
    selected coordinate s, zero elsewhere."""
    entries = [RatFunc(0)] * cx.c1_dim
    s = g.selected
    entries[s] = RatFunc(cx.d1_den, cx.d1_row[s])
    return FieldMatrix(cx.c1_dim, 1, entries)


def det_torsion(cx, g) -> RatFunc:
    """Reference raw torsion: the determinant of [d2 | g1] itself, the form
    the torsion took before it was read off the propagator's elimination."""
    return hstack(qt_d2(cx), qt_g1(cx, g)).det()


@functools.lru_cache(maxsize=None)
def pipeline(pd_text, outer_region=None):
    return run_pipeline(pd_text, outer_region=outer_region)


def selectable(cx):
    """The coordinates s with d1[s] != 0: those a propagator can select."""
    return [s for s, x in enumerate(cx.d1_row) if x]


def spread(cx, n):
    """At most n selectable coordinates, evenly spaced from the first to
    the last: a fixed sample where reading every one costs too much."""
    coords = selectable(cx)
    if len(coords) <= n:
        return coords
    return sorted({coords[i * (len(coords) - 1) // (n - 1)] for i in range(n)})


def compute_result_at(pd_text, s):
    """The `compute` JSON of a knot read through the propagator at
    coordinate s: its `PipelineRun` with the propagator, torsion, defect
    and the checks on them replaced by those at s."""
    run = pipeline(pd_text)
    cx = run.propagator.complex
    g = propagator_at(cx, s)
    tor, d = torsion(g), defect(g)
    return replaced(run, propagator=g, tor=tor, d=d, lescop_ok=check_lescop_relation(tor, d),
                    milnor_ok=milnor_check(tor, run.alexander)).to_json_dict()


def poly(*coeffs) -> Polynomial:
    return Polynomial(coeffs)


def rf(num, den=(1,)) -> RatFunc:
    num = Polynomial(num) if isinstance(num, (tuple, list)) else Polynomial((num,))
    den = Polynomial(den) if isinstance(den, (tuple, list)) else Polynomial((den,))
    return RatFunc(num, den)


def t_power(m: int) -> RatFunc:
    """t^m in Q(t), for any integer m."""
    if m >= 0:
        return RatFunc((0,) * m + (1,))
    return RatFunc((1,), (0,) * (-m) + (1,))


def is_constant(f: RatFunc) -> bool:
    return len(f.znum) <= 1 and len(f.zden) == 1


def as_constant(f: RatFunc) -> Fraction:
    if not is_constant(f):
        raise ValueError(f"{f} is not a constant")
    return Fraction(f.znum[0] if f.znum else 0, f.zden[0])


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
    one, zero = RatFunc(1), RatFunc(0)
    return FieldMatrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])


def zeros(rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(rows, cols, [RatFunc(0)] * (rows * cols))


def mat_add(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in matrix addition")
    return FieldMatrix(a.rows, a.cols, [qt_add(x, y) for x, y in zip(a.entries, b.entries)])


def submatrix(m: FieldMatrix, row_idx, col_idx) -> FieldMatrix:
    return FieldMatrix(len(row_idx), len(col_idx),
                       [m.entry(i, j) for i in row_idx for j in col_idx])


def qt_product(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Schoolbook product over Q(t), each entry summed one term at a time."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = RatFunc(0)
            for k in range(a.cols):
                acc = qt_add(acc, qt_mul(a.entry(i, k), b.entry(k, j)))
            out.append(acc)
    return FieldMatrix(a.rows, b.cols, out)


def is_zero_matrix(m: FieldMatrix) -> bool:
    return all(not e.znum for e in m.entries)


def mat(rows) -> FieldMatrix:
    return from_rows([[_as_rf(x) for x in row] for row in rows])


def scaled(matrix: FieldMatrix, c: RatFunc) -> FieldMatrix:
    return FieldMatrix(matrix.rows, matrix.cols, [qt_mul(c, a) for a in matrix.entries])


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
    """Rank by the kernel's forward elimination of the cleared rows."""
    return len(fraction_free_elimination(sparse_rows(matrix.cleared_rows()[1]),
                                         matrix.cols, 0)[1])


def packed_column(entries, k, slots):
    """A column of Z[t] entries packed as `is_diagonal_product` packs one:
    t -> 2^k and row r -> 2^(k*slots*r)."""
    return sum(_pack(x, k) << (k * slots * r) for r, x in enumerate(entries))


def reference_gauss_jordan(rows, above=True):
    """Reduced echelon form over Z[t] by fraction-free Gauss-Jordan
    elimination (Bareiss 1968, extended to the rows above each pivot), the
    elimination the library once read every propagator off and now the
    reference of its forward elimination, back substitution and
    `FieldMatrix.rref`. It reads dense rows. Returns (rows, pivot columns,
    sign, k), packed at the kernel's width k, read through
    `algebra._minor_bound` so that a patched bound reaches it too.

    It makes the kernel's pivot choices and its lazy rescaling, and also
    eliminates the rows above each pivot: row r of the result has its pivot
    in column pivots[r], every pivot entry equals the last pivot delta, and
    with full row rank the result is delta * B^-1 * rows for B the pivot
    columns, with sign * delta = det B. A final catch-up brings every row to
    the last step; it is exact, since the up-to-date rows hold minors.

    With `above` false it eliminates only below each pivot and makes no
    final catch-up: the kernel's forward elimination as it read a dense
    matrix, the reference its sparse input is tested against."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    k = algebra._packing_bits(algebra._minor_bound(sparse_rows(rows)))
    m = [[_pack(x, k) if x else 0 for x in row] for row in rows]
    level = [0] * nrows
    scale = [1]

    def catch_up(r):
        s = len(scale) - 1
        if level[r] != s:
            m[r] = [algebra._exact_div(a * scale[s], scale[level[r]]) if a else 0
                    for a in m[r]]
            level[r] = s

    pivots, sign = [], 1
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        pivot_row = next((r for r in range(pr, nrows) if m[r][pc]), None)
        if pivot_row is None:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            level[pr], level[pivot_row] = level[pivot_row], level[pr]
            sign = -sign
        catch_up(pr)
        top = m[pr]
        p, prev = top[pc], scale[-1]
        for r in range(0 if above else pr + 1, nrows):
            if r == pr or not m[r][pc]:
                continue
            catch_up(r)
            f = m[r][pc]
            m[r] = [algebra._exact_div(p * a - f * b, prev) for a, b in zip(m[r], top)]
            level[r] = pr + 1
        scale.append(p)
        level[pr] = pr + 1
        pivots.append(pc)
    for r in range(nrows if above else 0):
        catch_up(r)
    return m, pivots, sign, k


def gauss_jordan(rows, forward=False):
    """`reference_gauss_jordan` of dense rows, or with `forward` the
    kernel's `fraction_free_elimination` of their nonzeros, with every
    entry of its packed rows unpacked: (rows over Z[t], pivots, sign)."""
    if forward:
        ncols = len(rows[0]) if rows else 0
        packed, pivots, sign, k = fraction_free_elimination(sparse_rows(rows), ncols, 0)
    else:
        packed, pivots, sign, k = reference_gauss_jordan(rows)
    return [[_unpack(v, k) for v in row] for row in packed], pivots, sign


def replaced(value, **fields):
    """A copy of a value with some fields replaced: how the tests build a
    wrong propagator by hand. A name that is not a field presets the cached
    view of that name, such as a complex's `scaled_inverse`, which every
    propagator of the copy then reads. The copy holds no other cached view."""
    views = {f: fields.pop(f) for f in list(fields) if f not in value._fields}
    copy = type(value)(*(fields.get(f, v) for f, v in zip(value._fields, value._values())))
    vars(copy).update(views)
    return copy


def relabeled(graph, origin, **label):
    """A copy of a Dehn graph with one label edited, its word freely reduced:
    how the tests build a graph that no diagram makes. At ("corner", c, p)
    the fields `label` of corner p's label at crossing c are replaced, at
    ("region", r) region r's label becomes `label["word"]`."""
    if origin[0] == "region":
        r = origin[1]
        return replaced(graph, d2=_put(graph.d2, r, free_reduce(label["word"])))
    _, c, p = origin
    new = replaced(graph.d1[c][p], **label)
    new = replaced(new, word=free_reduce(new.word))
    return replaced(graph, d1=_put(graph.d1, c, _put(graph.d1[c], p, new)))


def _put(items, i, item):
    """The tuple `items` with item i replaced by `item`."""
    return items[:i] + (item,) + items[i + 1:]


def eliminate(cx, order):
    """[d2 | unit columns] of a complex eliminated in full over Z[t] by
    `reference_gauss_jordan`, the unit column of coordinate order[p] at
    column c2 + p: the dense elimination propagators were once read off,
    kept as the reference of the forward elimination, back substitution
    and pivot exchange that replaced it. Returns the propagator it gives
    as (numer, delta, selected, sign), its columns in the natural
    coordinate order."""
    c2, c1 = cx.c2_dim, cx.c1_dim
    position = {coord: p for p, coord in enumerate(order)}
    rows = []
    for i, row in enumerate(dense_d2(cx)):
        unit = [[]] * c1
        unit[position[i]] = [1]
        rows.append(list(row) + unit)
    reduced, pivots, sign = gauss_jordan(rows)
    [selected] = [order[p - c2] for p in pivots if p >= c2]
    numer = [[reduced[r][c2 + position[j]] for j in range(c1)] for r in range(c2)]
    return numer, reduced[-1][pivots[-1]], selected, sign


def satisfies_identities(cx, g):
    """The three propagator identities of g on an exact complex, by the
    criterion the library once checked each propagator with: delta != 0,
    N * d2 = delta * I over Z[t] and column s of N zero (DERIVATION.md §4
    and §5 prove it enough). N is unpacked in full and each entry of
    N * d2 is summed over Z[t] here, with no packed product test."""
    d2 = dense_d2(cx)

    def entry(r, c):
        acc = []
        for i, x in enumerate(g.numer[r]):
            if x and d2[i][c]:
                acc = algebra.poly_add(acc, algebra.poly_mul(x, d2[i][c]))
        return acc

    c2 = len(g.numer)
    return (any(g.delta)
            and all(entry(r, c) == (list(g.delta) if r == c else [])
                    for r in range(c2) for c in range(c2))
            and not any(row[g.selected] for row in g.numer))


def materialized_invariants(cx, g):
    """The torsion and defect pairs of g read off its own N, unpacked in
    full: sign * delta * d1_den over D1[s], and the trace sum over every
    entry of t d2' * N: the reference for the library's trace, which reads
    only the entries of N under the t-power entries of d2."""
    s, num = g.selected, []
    for i, row in enumerate(dense_d2(cx)):
        for j, x in enumerate(row):
            for m in range(1, len(x)):
                num = algebra.poly_add(num, g.numer[j][i], m * x[m], m)
    d1_s, a = cx.d1_row[s], len(cx.d1_den) - 1
    td1_s = [(m - a) * c for m, c in enumerate(d1_s)]
    sign = cx.forward_elimination[2]
    tor = TorsionValue(tuple(algebra.poly_mul([sign * c for c in g.delta], cx.d1_den)),
                       d1_s)
    d = DefectValue(tuple(algebra.poly_add(algebra.poly_mul(num, d1_s),
                                           algebra.poly_mul(g.delta, td1_s), -1)),
                    tuple(algebra.poly_mul(g.delta, d1_s)))
    return tor, d


# -- the printer as it read Fractions ------------------------------------------
#
# `Polynomial.__str__` and `RatFunc.to_json` as they were before the library
# printed integer pairs: the reference its one printer is tested against.


def fraction_text(p: Polynomial) -> str:
    """The display string of a polynomial over Q, read off its Fractions."""
    if not p.coeffs:
        return "0"
    parts = []
    for power in range(p.degree, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "t" if power == 1 else f"t^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text


def fraction_json(f: RatFunc) -> dict:
    """The schema-v1 form of a RatFunc, built from its `num` and `den`
    Polynomials and their Fractions."""
    num, den = f.num, f.den
    display = fraction_text(num) if den.degree == 0 else (
        f"({fraction_text(num)})/({fraction_text(den)})")
    return {"num": [str(c) for c in num.coeffs], "den": [str(c) for c in den.coeffs],
            "display": display}


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
    if not a.coeffs or not b.coeffs:
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def q_divmod(a: Polynomial, b: Polynomial):
    """(q, r) with a = q * b + r and deg r < deg b, one leading term at a time."""
    if not b.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = Polynomial(), a
    while r.coeffs and r.degree >= b.degree:
        term = Polynomial((0,) * (r.degree - b.degree) + (r.coeffs[-1] / b.coeffs[-1],))
        q = q_add(q, term)
        r = q_add(r, q_mul(term, b), -1)
    return q, r


def q_monic(p: Polynomial) -> Polynomial:
    return p if not p.coeffs else q_mul(p, Polynomial((1 / p.coeffs[-1],)))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid over Q; gcd(0, 0) = 0."""
    while b.coeffs:
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a)


def q_derivative(p: Polynomial) -> Polynomial:
    return Polynomial(i * c for i, c in enumerate(p.coeffs) if i)


def q_eval(p: Polynomial, x) -> Fraction:
    """p(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# -- the field Q(t) --------------------------------------------------------------
#
# `RatFunc` is a value with no arithmetic. These are the field operations the
# tests compute with, on the monic-denominator parts `num` and `den` by the
# Q[t] reference above, each result reduced once by the constructor: so the
# references the kernel is checked against never run on its `poly_mul` or
# `poly_add`.


def qt_add(a: RatFunc, b: RatFunc) -> RatFunc:
    if not a.znum or not b.znum:
        return b if not a.znum else a
    (an, ad), (bn, bd) = (a.num, a.den), (b.num, b.den)
    return RatFunc(q_add(q_mul(an, bd), q_mul(bn, ad)), q_mul(ad, bd))


def qt_neg(a: RatFunc) -> RatFunc:
    return RatFunc(q_add(Polynomial(), a.num, -1), a.den)


def qt_sub(a: RatFunc, b: RatFunc) -> RatFunc:
    return qt_add(a, qt_neg(b))


def qt_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    if not a.znum or not b.znum:
        return RatFunc(0)
    return RatFunc(q_mul(a.num, b.num), q_mul(a.den, b.den))


def qt_div(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.znum:
        raise ZeroDivisionError("division by the zero rational function")
    return RatFunc(q_mul(a.num, b.den), q_mul(a.den, b.num))


def qt_derivative(f: RatFunc) -> RatFunc:
    """(num' * den - num * den') / den^2, the quotient rule."""
    num, den = f.num, f.den
    return RatFunc(q_add(q_mul(q_derivative(num), den), q_mul(num, q_derivative(den)), -1),
                   q_mul(den, den))


def qt_eval(f: RatFunc, x) -> Fraction:
    """f(x) for a rational x; ZeroDivisionError at a pole."""
    d = q_eval(f.den, x)
    if d == 0:
        raise ZeroDivisionError(f"{f} has a pole at t={x}")
    return q_eval(f.num, x) / d


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
            if m[r][pc].znum:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = qt_div(RatFunc(1), m[pr][pc])
        m[pr] = [qt_mul(inv, e) for e in m[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            f = m[r][pc]
            if not f.znum:
                continue
            m[r] = [qt_sub(a, qt_mul(f, b)) for a, b in zip(m[r], m[pr])]
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


def qt_image(term) -> RatFunc:
    """Reference image of a signed word under the abelian representation:
    the sign times the product of t for each letter x and 1/t for each
    letter x^-1, one letter at a time in Q(t), each partial product in
    canonical form, independent of the exponent sum behind
    `Representation.exponent`."""
    t = t_power(1)
    out = RatFunc(1)
    for _, exp in term.word:
        out = qt_mul(out, t) if exp == 1 else qt_div(out, t)
    return out if term.sign == 1 else qt_neg(out)


def qt_complex(graph):
    """Reference boundary matrices (d2, d1) over Q(t): each entry the sum of
    the `qt_image` images of its edges' labels, added one term at a time in
    Q(t), independent of the Z[t] rows of `build_complex`. Rows and columns
    follow the graph's vertex groups, as the complex's bases do."""
    c2, c1 = list(graph.crossing_vertices), list(graph.region_vertices)
    d2 = [[RatFunc(0)] * len(c2) for _ in c1]
    d1 = [[RatFunc(0)] * len(c1)]
    for e in graph.edges:
        if e.target == BASEPOINT:
            row, j = d1[0], c1.index(e.source)
        else:
            row, j = d2[c1.index(e.target)], c2.index(e.source)
        row[j] = qt_add(row[j], qt_image(e.label))
    return from_rows(d2), from_rows(d1)


def qt_fox_derivative(word, gen) -> RatFunc:
    """Reference abelianized Fox derivative: one t-power added at a time in
    Q(t), each partial sum in canonical form, independent of the single
    Laurent polynomial behind `fox_alexander`."""
    result = RatFunc(0)
    power = 0
    for g, e in word:
        if e == 1:
            if g == gen:
                result = qt_add(result, t_power(power))
            power += 1
        else:
            power -= 1
            if g == gen:
                result = qt_sub(result, t_power(power))
    return result


def defect_terms(graph, cx, g):
    """Reference per-edge defect contributions (source, target, value), one
    Q(t) value per word-bearing edge, read off the G1 and G2 matrices: the
    paper's sum over the labelled Dehn graph, each vertex's row or column
    looked up in the graph's vertex groups, the complex's bases."""
    g1 = qt_g1(cx, g)
    c2, c1 = graph.crossing_vertices.index, graph.region_vertices.index
    terms = []
    for e in graph.edges:
        w = e.label.word
        if not w:
            continue
        degree = exponent_sum(w)
        coeff = qt_image(e.label)
        if e.target == BASEPOINT:
            entry = g1.entry(c1(e.source), 0)
            level_sign = -1
        else:
            entry = g.g2.entry(c2(e.source), c1(e.target))
            level_sign = 1
        value = qt_mul(coeff, entry)
        if degree != 1:
            value = qt_mul(value, RatFunc(degree))
        if level_sign < 0:
            value = qt_neg(value)
        terms.append((e.source, e.target, value))
    return terms


def qt_defect(graph, cx, g) -> RatFunc:
    """Reference defect representative: the per-edge terms added one at a
    time in Q(t), each partial sum in canonical form, independent of the
    single-numerator sum behind `defect`."""
    total = RatFunc(0)
    for _, _, value in defect_terms(graph, cx, g):
        total = qt_add(total, value)
    return total


# -- Q(t) references for the comparisons over Z[t] ------------------------------


def qt_unit_equal(a: RatFunc, b: RatFunc) -> bool:
    """Reference `unit_equal`: the ratio a / b, reduced in Q(t), is +-t^m."""
    if not a.znum or not b.znum:
        return not a.znum and not b.znum
    q = qt_div(a, b)
    return (not any(q.znum[:-1]) and not any(q.zden[:-1])
            and abs(q.znum[-1]) == 1 == q.zden[-1])


def qt_equal_mod_Z(a: RatFunc, b: RatFunc) -> bool:
    """Reference `defect_equal_mod_Z`: a - b, reduced in Q(t), is an integer."""
    diff = qt_sub(a, b)
    return is_constant(diff) and as_constant(diff).denominator == 1


def qt_lescop(tor: RatFunc, d: RatFunc) -> bool:
    """Reference `check_lescop_relation`: d = t * tor' / tor modulo the
    integers, in Q(t)."""
    return qt_equal_mod_Z(d, qt_div(qt_mul(t_power(1), qt_derivative(tor)), tor))


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


# -- a component walk and an Alexander oracle that import nothing from dehn ------
#
# These read a PD code's labels with the standard library alone, so that a
# fault in the library's parser, diagram or complex cannot move them and the
# library alike.


def pd_crossings(text):
    """The crossings of a PD text that `parse_pd` accepts, in any of its
    forms, as lists of four labels: its ASCII digit runs, four at a time."""
    labels = [int(x) for x in re.findall(r"[0-9]+", text)]
    return [labels[i:i + 4] for i in range(0, len(labels), 4)]


def pd_components(crossings):
    """The number of components of the link a PD code draws, by a walk of
    its labels: crossing (a, b, c, d) joins edge a to edge c, its
    under-strand, and edge b to edge d, its over-strand, and a component is
    a class of edges that the joins connect."""
    joined = {}
    for a, b, c, d in crossings:
        for x, y in ((a, c), (b, d)):
            joined.setdefault(x, set()).add(y)
            joined.setdefault(y, set()).add(x)
    seen, count = set(), 0
    for start in joined:
        if start in seen:
            continue
        count, stack = count + 1, [start]
        seen.add(start)
        while stack:
            for y in joined[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
    return count


def pd_faces(crossings):
    """The faces of a PD code's counterclockwise rotation system, as a map
    from each corner (c, p), between positions p and p + 1 of crossing c, to
    its face, and the face count.

    Standing at crossing c and facing out along the edge at position p + 1,
    position p lies clockwise, on the right, so corner (c, p)'s face is on
    the right of a walk out along that edge. The walk arrives at the edge's
    other slot (c', q) facing in, and on its right lies the side of q that
    is counterclockwise from it: the face's next corner is (c', q), and the
    walk goes on out along position q + 1."""
    slots = {}
    for c, labels in enumerate(crossings):
        for q, e in enumerate(labels):
            slots.setdefault(e, []).append((c, q))
    face_of, count = {}, 0
    for corner in itertools.product(range(len(crossings)), range(4)):
        if corner in face_of:
            continue
        while corner not in face_of:
            face_of[corner] = count
            c, p = corner
            out = (c, (p + 1) % 4)
            here, there = slots[crossings[c][out[1]]]
            corner = there if here == out else here
        count += 1
    return face_of, count


def alexander_matrix_delta(text):
    """Delta of a knot, up to units, from Alexander's crossing-region matrix
    (Alexander, Trans. AMS 30, 1928): one row per crossing, one column per
    face, and at each corner one of t, -t, 1 and -1, added into the entry of
    its face. With two adjacent columns deleted, the determinant is
    +-t^m * Delta. Coefficients over Z, constant term first.

    The corner rule, from Dehn's presentation. Its generators are the faces,
    the unbounded one the identity, and crossing an arc x from its left to
    its right multiplies a face's element on the left by x. Let the over
    arc x run up through a crossing, and name the faces by their corner: BL
    and BR before the crossing, left and right of x, AL and AR after it.
    Then BR = x BL and AR = x AL, so the crossing's relator is
    r = BR BL^-1 AL AR^-1. Its Fox derivatives, with each face sent to t
    to the power of its exponent sum, which rises by 1 across x from left
    to right, are dr/dBR = 1, dr/dBL = -BR BL^-1 = -t, dr/dAL = BR BL^-1 = t
    and dr/dAR = -r = -1. The positions run counterclockwise; with o the
    over-strand's incoming position, below the crossing when x runs up,
    position o + 1 is on the right of x. So corner o (from o to o + 1) is
    BR: 1, corner o + 1 is AR: -1, corner o + 2 is AL: t, and corner o - 1
    is BL: -t. The Fox matrix of the relators, with the identity's column
    deleted, presents the Alexander module; deleting one more column, of a
    face adjacent to the unbounded one, leaves Delta up to units, and any
    two adjacent faces may take their place (Alexander 1928)."""
    crossings = pd_crossings(text)
    k = len(crossings)
    face_of, count = pd_faces(crossings)
    assert count == k + 2, f"{count} faces, not {k + 2}: the code is not planar"
    rows = []
    for c, crossing in enumerate(crossings):
        o = 1 if _incoming(crossing, 1, 2 * k) else 3
        row = [[0, 0] for _ in range(count)]
        for p, entry in ((o, (1, 0)), (o + 1, (-1, 0)), (o + 2, (0, 1)), (o - 1, (0, -1))):
            for i, x in enumerate(entry):
                row[face_of[c, p % 4]][i] += x
        rows.append(row)
    # The faces on either side of the edge at crossing 0's position 0.
    dropped = {face_of[0, 0], face_of[0, 3]}
    assert len(dropped) == 2
    return zt_det([[x for f, x in enumerate(row) if f not in dropped] for row in rows])


def zt_det(matrix):
    """The determinant of a square matrix over Z[t] with entries of degree at
    most 1, as a coefficient list: its values at t = 0..n, each by
    Bareiss's fraction-free elimination over Z, interpolated by Newton's
    divided differences over Q."""
    n = len(matrix)
    values = [int_det([[e[0] + e[1] * x for e in row] for row in matrix])
              for x in range(n + 1)]
    # Newton's coefficients at the nodes 0..n, then his form expanded.
    coeffs = [Fraction(v) for v in values]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / j
    poly = [coeffs[n]]
    for i in range(n - 1, -1, -1):  # poly * (t - i) + coeffs[i]
        poly = [a - i * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        poly[0] += coeffs[i]
    assert all(c.denominator == 1 for c in poly)
    return [int(c) for c in poly]


def int_det(m):
    """The determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        top = m[k]
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i] = [(a * top[k] - f * b) // prev for a, b in zip(m[i], top)]
        prev = top[k]
    return sign * prev


def zt_mul(a, b):
    """The product of two coefficient lists over Z, schoolbook."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def unit_free(p):
    """A coefficient list over Z with the units +-t^m divided out: no zero
    lowest or leading coefficient, and a positive lowest one. Two lists are
    equal up to units iff their unit-free forms are equal."""
    nonzero = [i for i, c in enumerate(p) if c]
    if not nonzero:
        return ()
    p = p[nonzero[0]:nonzero[-1] + 1]
    return tuple(c if p[0] > 0 else -c for c in p)
