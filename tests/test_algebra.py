import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, connected_sum, forward_rank, from_rows, identity,
                      mat, poly, poly_gcd, q_add, q_divmod, q_monic, q_mul,
                      qt_rref, rf, submatrix, torus_pd, transposed, zeros)
from dehn import algebra
from dehn.algebra import (FieldMatrix, Polynomial, RatFunc, _prs_gcd,
                          common_denominator, fraction_free_gauss_jordan,
                          pmat_mul, poly_add, poly_mul, unit_equal, zpoly_gcd)
from dehn.pipeline import compute_result

# -- the Euclid reference gcd ------------------------------------------------


def test_gcd_common_factor():
    assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)


def test_gcd_coprime():
    # Euclid by hand: t^2-t+1 = (t-1)*t + 1, so the gcd is 1.
    assert poly_gcd(poly(1, -1, 1), poly(-1, 1)) == poly(1)


def test_gcd_with_zero_is_monic_argument():
    assert poly_gcd(Polynomial(), poly(2, 4)) == poly(Fraction(1, 2), 1)
    assert poly_gcd(Polynomial(), Polynomial()) == Polynomial()


def test_gcd_divides_both():
    a = q_mul(poly(1, 2, 1), poly(3, 1))
    b = q_mul(poly(1, 2, 1), poly(-1, 1))
    g = poly_gcd(a, b)
    assert g == poly(1, 2, 1)
    assert q_divmod(a, g)[1].is_zero() and q_divmod(b, g)[1].is_zero()


# -- rational function arithmetic ------------------------------------------


def test_mul_matches_worked_value():
    # (1/(1-t)) * (t^2-t+1) has monic denominator t-1 after canonicalization.
    product = rf(1, (1, -1)) * rf((1, -1, 1))
    assert product == rf((-1, 1, -1), (-1, 1))
    assert product.den == poly(-1, 1)
    assert product.num == poly(-1, 1, -1)


def test_additive_identity():
    a = rf((2, 3), (1, 0, 1))
    assert a + RatFunc.zero() == a


def test_sub_cross_checked_by_evaluation():
    # (2t^2-t)/(t^2-t+1) - t/(t-1), expanded by hand over the common
    # denominator: numerator (2t^2-t)(t-1) - t(t^2-t+1) = t^3 - 2t^2.
    a = rf((0, -1, 2), (1, -1, 1))
    b = rf((0, 1), (-1, 1))
    diff = a - b
    assert diff == rf((0, 0, -2, 1), (-1, 2, -2, 1))
    for x in (Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(7, 3)):
        assert diff(x) == a(x) - b(x)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rf((1, 1)) / RatFunc.zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(poly(1), Polynomial())


# -- derivative -------------------------------------------------------------


def test_derivative_power_rule():
    assert rf((0, 0, 1)).derivative() == rf((0, 2))


def test_derivative_quotient_rule():
    assert rf(1, (1, -1)).derivative() == rf(1, (1, -2, 1))


def test_log_derivative_identity():
    # t*(d/dt)log((t^2-t+1)/(1-t)) computed term by term equals the closed form.
    t = RatFunc.t()
    lhs = t * rf((-1, 2), (1, -1, 1)) + t * rf(1, (1, -1))
    rhs = rf((0, -1, 2), (1, -1, 1)) - rf((0, 1), (-1, 1))
    assert lhs == rhs
    f = rf((1, -1, 1), (1, -1))
    assert t * f.derivative() / f == rhs


# -- canonical form ---------------------------------------------------------


def test_zero_is_zero_over_one():
    z = RatFunc(Polynomial(), poly(3, 1))
    assert z.num == Polynomial() and z.den == poly(1)


def test_unit_equal():
    a = rf((1, -1, 1), (1, -1))
    assert unit_equal(a, a)
    assert unit_equal(a, -(RatFunc.t_power(3)) * a)
    assert not unit_equal(a, rf((1, -3, 1), (1, -1)))
    assert not unit_equal(a, a * rf((1, 1)))


# -- matrices ---------------------------------------------------------------


def test_rref_identity():
    reduced, pivots, rank = identity(3).rref()
    assert reduced == identity(3)
    assert pivots == [0, 1, 2] and rank == 3


def test_rref_zero():
    assert forward_rank(zeros(2, 3)) == 0


def test_rref_boundary_matrix_rank():
    t = RatFunc.t()
    d2 = mat([[-t, -1, 0], [1, 1, 1], [0, -t, -1], [-1, 0, -t]])
    assert forward_rank(d2) == 3


def test_det_torsion_matrix():
    t = RatFunc.t()
    m = mat([
        [-t, -1, 0, rf(1, (-1, 1))],
        [1, 1, 1, 0],
        [0, -t, -1, 0],
        [-1, 0, -t, 0],
    ])
    assert m.det() == rf((1, -1, 1), (1, -1))


def test_det_identity_and_repeated_row():
    assert identity(4).det() == RatFunc.one()
    m = mat([[1, 2], [1, 2]])
    assert m.det() == RatFunc.zero()


def test_det_non_square_raises():
    with pytest.raises(ValueError):
        zeros(2, 3).det()



# -- randomized properties ---------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_polys = st.lists(small_fractions, max_size=4).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
ratfuncs = st.tuples(small_polys, nonzero_polys).map(lambda nd: RatFunc(*nd))
nonzero_ratfuncs = ratfuncs.filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(ratfuncs, nonzero_ratfuncs)
def test_field_axiom_div_mul_roundtrip(a, b):
    assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(ratfuncs)
def test_canonicalization_idempotent(f):
    again = RatFunc(f.num, f.den)
    assert again.num == f.num and again.den == f.den
    # The stored form: trimmed integer parts with joint content 1 and a
    # positive leading coefficient of zden, which __init__ leaves fixed.
    assert all(type(c) is int for c in f.znum + f.zden)
    assert math.gcd(*f.znum, *f.zden) == 1
    assert f.zden and f.zden[-1] > 0
    assert not f.znum or f.znum[-1] != 0
    assert RatFunc(f.znum, f.zden) == f
    padded = RatFunc(list(f.num.coeffs) + [0, Fraction(0)], list(f.den.coeffs) + [0])
    assert padded == RatFunc(Polynomial(f.num.coeffs), Polynomial(f.den.coeffs)) == f
    with pytest.raises(TypeError):
        RatFunc(list(f.znum) + [0.5], f.zden)


@settings(max_examples=60, deadline=None)
@given(ratfuncs)
def test_negation_keeps_the_reduced_form(f):
    # (-znum, zden) is built with no gcd; it must be the form the
    # constructor gives.
    neg = -f
    assert (neg.znum, neg.zden) == (tuple(-c for c in f.znum), f.zden)
    assert neg == RatFunc([-c for c in f.znum], f.zden) == RatFunc(-1) * f
    assert -neg == f and (f + neg).is_zero()


def test_ratfunc_integer_and_rational_parts_agree():
    # All-int parts are taken as they are; any Fraction clears both parts.
    f = RatFunc([2, 4], [6, 0])
    assert (f.znum, f.zden) == ((1, 2), (3,))
    assert f == RatFunc([Fraction(1, 3), Fraction(2, 3)]) == RatFunc([2, 4], [Fraction(6)])
    for num, den in (([1, 2.0], [1]), ([1], [2, 0.5]), (1.0, [1])):
        with pytest.raises(TypeError):
            RatFunc(num, den)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_poly_mul_evaluation_homomorphism(p, q):
    x = Fraction(5, 3)
    assert (RatFunc(p) * RatFunc(q))(x) == q_mul(p, q)(x) == p(x) * q(x)
    assert (RatFunc(p) + RatFunc(q))(x) == q_add(p, q)(x) == p(x) + q(x)


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_poly_gcd_divides(a, b):
    g = poly_gcd(a, b)
    assert q_divmod(a, g)[1].is_zero()
    assert q_divmod(b, g)[1].is_zero()
    assert g.coeffs[-1] == 1


def _cofactor_det(m: FieldMatrix) -> RatFunc:
    n = m.rows
    if n == 0:
        return RatFunc.one()
    if n == 1:
        return m.entry(0, 0)
    total = RatFunc.zero()
    sign = 1
    for j in range(n):
        minor = submatrix(m, range(1, n), [c for c in range(n) if c != j])
        term = m.entry(0, j) * _cofactor_det(minor)
        total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


# Integer polynomials, plus the Laurent and rational entries that the Fox and
# torsion matrices carry: t^-1, t^-2(1+t), 1/(1+t), 1/2 and (1+t^2)/(2t).
entry_palette = st.sampled_from([
    rf(0), rf(1), rf(-1), rf(2), rf((0, 1)), rf((0, -1)), rf((1, 1)), rf((-1, 1)),
    rf(1, (0, 1)), rf((1, 1), (0, 0, 1)), rf(1, (1, 1)), rf(Fraction(1, 2)),
    rf((1, 0, 1), (0, 2)),
])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(entry_palette, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_matches_cofactor_expansion(rows):
    m = from_rows(rows)
    assert m.det() == _cofactor_det(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.data())
def test_rank_equals_rank_of_transpose(nrows, ncols, data):
    rows = data.draw(st.lists(
        st.lists(entry_palette, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    m = from_rows(rows)
    assert forward_rank(m) == forward_rank(transposed(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2), st.data())
def test_rref_rank_inverse_match_qt_reference(nrows, ncols, dependent, data):
    # Rows that are combinations of drawn rows, inserted anywhere, make the
    # matrix rank deficient.
    rows = data.draw(st.lists(
        st.lists(entry_palette, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    for _ in range(dependent):
        i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        c = data.draw(entry_palette)
        combo = [c * a + b for a, b in zip(rows[i], rows[j])]
        rows.insert(data.draw(st.integers(0, len(rows))), combo)
    m = from_rows(rows)
    expected = qt_rref(m)
    assert m.rref() == expected
    assert forward_rank(m) == expected[2]


# -- the Z[t] kernel ---------------------------------------------------------


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def int_polys(bound, max_size):
    return st.lists(st.integers(min_value=-bound, max_value=bound),
                    max_size=max_size).map(_trim)


def int_matrices(rows, cols, polys):
    return st.lists(st.lists(polys, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _over_q(rows):
    return from_rows([[RatFunc(Polynomial(x)) for x in row] for row in rows])


def _is_trimmed(coeffs):
    return all(type(c) is int for c in coeffs) and (not coeffs or coeffs[-1] != 0)


@settings(max_examples=60, deadline=None)
@given(int_polys(2 ** 70, 6), int_polys(2 ** 70, 6), st.integers(-3, 3), st.integers(0, 3))
def test_poly_mul_matches_polynomial_product(a, b, c, shift):
    product = poly_mul(a, b)
    assert _is_trimmed(product)
    assert Polynomial(product) == q_mul(Polynomial(a), Polynomial(b))
    total = poly_add(a, b, c, shift)
    assert _is_trimmed(total)
    assert Polynomial(total) == q_add(Polynomial(a), Polynomial([0] * shift + b), c)
    assert poly_add(a, b) == poly_add(b, a, 1, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_pmat_mul_matches_field_matrix_product(m, n, p, data):
    a = data.draw(int_matrices(m, n, int_polys(2 ** 40, 4)))
    b = data.draw(int_matrices(n, p, int_polys(2 ** 40, 4)))
    product = pmat_mul(a, b)
    assert all(_is_trimmed(x) for row in product for x in row)
    assert len(product) == m and all(len(row) == p for row in product)
    assert _over_q(product) == _over_q(a) @ _over_q(b)


def test_pmat_mul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        pmat_mul([[[1], [1]]], [[[1]]])


def _at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _fraction_det(m):
    m = [[Fraction(v) for v in row] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _assert_inverse_at_points(rows, reduced, pivots, sign, points):
    """[A | I] = rows has full row rank n. With B its pivot columns, the
    identity block of the result is N = delta * B^-1: check B*N = delta*I and
    sign * delta = det B in Fraction arithmetic at `points`, which must
    outnumber the degree of either side, independently of the kernel."""
    n = len(rows)
    assert sign in (1, -1)
    delta = reduced[-1][pivots[-1]]
    assert delta
    for r, pc in enumerate(pivots):
        assert [row[pc] for row in reduced] == [delta if i == r else [] for i in range(n)]
    b = [[row[c] for c in pivots] for row in rows]
    block = [row[-n:] for row in reduced]
    assert all(_is_trimmed(x) for row in block for x in row)
    for x in points:
        bx = [[(k, _at(v, x)) for k, v in enumerate(row) if v] for row in b]
        nx = [[_at(v, x) for v in row] for row in block]
        dx = _at(delta, x)
        assert [[sum(v * nx[k][j] for k, v in row) for j in range(n)]
                for row in bx] == [[dx if i == j else 0 for j in range(n)]
                                   for i in range(n)]
        dense = [[0] * n for _ in range(n)]
        for i, row in enumerate(bx):
            for k, v in row:
                dense[i][k] = v
        assert sign * dx == _fraction_det(dense)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_fraction_free_gauss_jordan_against_evaluation(n, extra, data):
    a = data.draw(int_matrices(n, extra, int_polys(50, 3)))
    rows = [row + [[1] if i == j else [] for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots, sign = fraction_free_gauss_jordan(rows)
    assert pivots == qt_rref(_over_q(rows))[1]
    b = [[row[c] for c in pivots] for row in rows]
    degree = (max(len(x) for row in b for x in row) * n
              + max(len(x) for row in reduced for x in row[extra:])
              + len(reduced[-1][pivots[-1]]))
    _assert_inverse_at_points(rows, reduced, pivots, sign, range(-degree, degree + 1))


@st.composite
def sparse_boundaries(draw):
    """An n x c matrix shaped like lambda*d2 on a large knot: at most four
    entries +-t^m per column in random rows, some zero rows, and some rows
    and columns that are t-power multiples of others, so that its rank
    drops. The rows are placed at random: a draw that clusters the entries
    in the first rows makes few row swaps between rows at different levels."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(20, 24))
    c = draw(st.integers(n // 2, n - 1))
    a = [[[] for _ in range(c)] for _ in range(n)]
    for j in range(c):
        for i in rng.sample(range(n), rng.randint(1, 4)):
            a[i][j] = [0] * rng.randrange(3) + [rng.choice((1, -1))]
    for i in rng.sample(range(n), draw(st.integers(0, 3))):
        a[i] = [[] for _ in range(c)]
    for _ in range(draw(st.integers(0, 2))):
        src, dst, m = rng.randrange(n), rng.randrange(n), rng.randrange(3)
        a[dst] = [[0] * m + x if x else [] for x in a[src]]
    for _ in range(draw(st.integers(0, 2))):
        src, dst, m = rng.randrange(c), rng.randrange(c), rng.randrange(3)
        for row in a:
            row[dst] = [0] * m + row[src] if row[src] else []
    return a


def _row_degree_sum(rows):
    return sum(max((len(x) - 1 for x in row), default=0) for row in rows)


@settings(max_examples=8, deadline=None)
@given(sparse_boundaries())
def test_fraction_free_gauss_jordan_sparse_propagator_shape(a):
    # [A | I] as the propagator eliminates it: most multipliers are zero, so
    # most rows are rescaled lazily, and the pivot search reads rows that are
    # not up to date.
    n = len(a)
    rows = [row + [[1] if i == j else [] for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots, sign = fraction_free_gauss_jordan(rows)
    assert pivots == qt_rref(_over_q(rows))[1]
    b = [[row[c] for c in pivots] for row in rows]
    # deg(B*N) <= deg B + deg N, and deg det B <= the sum of the row degrees.
    degree = max(max(len(x) for row in b for x in row) - 1
                 + max(len(x) for row in reduced for x in row[-n:]) - 1,
                 _row_degree_sum(b), len(reduced[-1][pivots[-1]]) - 1)
    _assert_inverse_at_points(rows, reduced, pivots, sign, range(degree + 1))


@settings(max_examples=8, deadline=None)
@given(sparse_boundaries())
def test_fraction_free_gauss_jordan_sparse_rank_deficient(a):
    # A alone: zero and dependent rows end below the rank as zero rows, and
    # the result over its common pivot is the reduced form over Q(t).
    reduced, pivots, sign = fraction_free_gauss_jordan(a)
    expected, expected_pivots, rank = qt_rref(_over_q(a))
    assert pivots == expected_pivots and sign in (1, -1)
    assert all(not any(row) for row in reduced[rank:])
    if pivots:
        delta = reduced[0][pivots[0]]
        assert from_rows([[RatFunc(x, delta) for x in row]
                                      for row in reduced]) == expected


def test_fraction_free_gauss_jordan_rank_deficient():
    # Second row = t * first: one pivot, and the zero column is skipped.
    rows = [[[], [1, 1], [2]], [[], [0, 1, 1], [0, 2]]]
    reduced, pivots, sign = fraction_free_gauss_jordan(rows)
    assert pivots == [1] and sign == 1
    assert reduced == [[[], [1, 1], [2]], [[], [], []]]


def _assert_forward_matches_gauss_jordan(rows):
    """Forward mode makes the same pivot choices as Gauss-Jordan: the same
    pivot columns, sign and last pivot, with zero rows below the rank.
    Returns (pivots, sign, last pivot)."""
    reduced, pivots, sign = fraction_free_gauss_jordan(rows)
    echelon, fw_pivots, fw_sign = fraction_free_gauss_jordan(rows, forward=True)
    assert (fw_pivots, fw_sign) == (pivots, sign)
    rank = len(pivots)
    assert all(not any(row) for row in echelon[rank:])
    assert all(_is_trimmed(x) for row in echelon for x in row)
    for r, pc in enumerate(pivots):
        assert echelon[r][pc] and not any(echelon[r][:pc])
    last = echelon[rank - 1][pivots[-1]] if pivots else [1]
    assert last == (reduced[rank - 1][pivots[-1]] if pivots else [1])
    return pivots, sign, last


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.data())
def test_forward_det_and_rank_match_gauss_jordan_and_fractions(n, dependent, data):
    # Square matrices, made rank deficient by replacing rows with
    # combinations of others: sign times the last forward pivot is the
    # determinant at more points than its degree, and FieldMatrix.det and
    # rank agree with the Q(t) reference.
    rows = data.draw(int_matrices(n, n, int_polys(30, 3)))
    for _ in range(dependent if n > 1 else 0):
        i, j, dst = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c = data.draw(int_polys(3, 2))
        rows[dst] = [poly_add(poly_mul(c, a), b) for a, b in zip(rows[i], rows[j])]
    pivots, sign, last = _assert_forward_matches_gauss_jordan(rows)
    degree = max(_row_degree_sum(rows), len(last) - 1) + 1
    for x in range(-degree, degree + 1):
        det = _fraction_det([[_at(v, x) for v in row] for row in rows])
        assert (sign * _at(last, x) if len(pivots) == n else 0) == det
    m = _over_q(rows)
    expected_rank = qt_rref(m)[2]
    assert forward_rank(m) == expected_rank == len(pivots)
    assert m.det() == (RatFunc([sign * c for c in last]) if len(pivots) == n
                       else RatFunc.zero())


@settings(max_examples=8, deadline=None)
@given(sparse_boundaries())
def test_forward_matches_gauss_jordan_on_sparse_rank_deficient_rows(a):
    # Zero, dependent and lazily rescaled rows, with and without the
    # identity block of the propagator.
    n = len(a)
    pivots = _assert_forward_matches_gauss_jordan(a)[0]
    assert pivots == qt_rref(_over_q(a))[1]
    _assert_forward_matches_gauss_jordan(
        [row + [[1] if i == j else [] for j in range(n)] for i, row in enumerate(a)])


def _row_norm_bound(rows):
    """The product of the row 1-norms: a looser bound on every minor's
    coefficients, and so a wider packing."""
    bound = 1
    for row in rows:
        bound *= max(1, sum(sum(map(abs, x)) for x in row))
    return bound


_WIDTH_KNOTS = {f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)}
_WIDTH_KNOTS.update({
    "+".join(parts): connected_sum(*(CORPUS[p] for p in parts))
    for parts in (("3_1", "4_1", "5_2"), ("6_1", "5_1", "4_1", "3_1"),
                  ("5_2", "6_1", "5_2", "6_1"))})


@pytest.mark.parametrize("name", sorted(_WIDTH_KNOTS))
def test_kernel_width_holds_every_coefficient(monkeypatch, name):
    # Record the input of every kernel call of a whole computation, with
    # the width k it packs at. Each coefficient the kernel unpacks, in
    # either mode, lies within the Hadamard-type bound and so below
    # 2^(k-1), and the output equals the one at the wider width of the row
    # 1-norm product: a k narrowed below a coefficient changes an output.
    calls = []
    hadamard = algebra._minor_bound

    def recording(rows):
        bound = hadamard(rows)
        calls.append(([list(row) for row in rows], bound, algebra._packing_bits(bound)))
        return bound

    monkeypatch.setattr(algebra, "_minor_bound", recording)
    result = compute_result(_WIDTH_KNOTS[name])
    assert all(result["checks"].values())
    assert len(calls) >= 2  # the propagator and the Fox minor
    for rows, bound, k in calls:
        monkeypatch.setattr(algebra, "_minor_bound", hadamard)
        outputs = [fraction_free_gauss_jordan(rows, forward=f) for f in (False, True)]
        largest = max((abs(c) for out, _, _ in outputs for row in out for x in row
                       for c in x), default=0)
        assert largest <= bound < 2 ** (k - 1)
        monkeypatch.setattr(algebra, "_minor_bound", _row_norm_bound)
        assert [fraction_free_gauss_jordan(rows, forward=f) for f in (False, True)] == outputs


# -- gcd over Z[t] -------------------------------------------------------------


def _content(coeffs):
    return math.gcd(*coeffs)


def _assert_gcd(a, b, g, qa, qb):
    """g is gcd(a, b) in Z[t]: the monic Euclid gcd over Q up to a rational
    unit, with the gcd of the contents, a positive leading coefficient and
    exact cofactors."""
    assert all(_is_trimmed(x) for x in (g, qa, qb))
    assert q_monic(Polynomial(g)) == poly_gcd(Polynomial(a), Polynomial(b))
    assert poly_mul(g, qa) == a and poly_mul(g, qb) == b
    if g:
        assert g[-1] > 0
        assert _content(g) == math.gcd(_content(a), _content(b))


def _planted_pair(draw):
    """a = ca * t^va * a1 * h and b = cb * t^vb * b1 * h: a planted common
    factor, contents other than 1 of either sign, t-powers, and a zero
    operand whenever a1 or b1 is drawn empty."""
    h = draw(int_polys(9, 4).filter(bool))
    a1, b1 = draw(int_polys(20, 5)), draw(int_polys(20, 5))
    ca, cb = (draw(st.integers(-12, 12).filter(bool)) for _ in range(2))
    va, vb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a = [0] * va + [ca * x for x in poly_mul(a1, h)] if a1 else []
    b = [0] * vb + [cb * x for x in poly_mul(b1, h)] if b1 else []
    return a, b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zpoly_gcd_matches_euclid_on_planted_factors(data):
    a, b = _planted_pair(data.draw)
    _assert_gcd(a, b, *zpoly_gcd(a, b))
    _assert_gcd(b, a, *zpoly_gcd(b, a))


@settings(max_examples=40, deadline=None)
@given(int_polys(2 ** 40, 6), int_polys(2 ** 40, 6))
def test_zpoly_gcd_matches_euclid_on_large_coefficients(a, b):
    _assert_gcd(a, b, *zpoly_gcd(a, b))


def test_zpoly_gcd_zero_operands():
    assert zpoly_gcd([], []) == ([], [], [])
    assert zpoly_gcd([], [-2, 0, -4]) == ([2, 0, 4], [], [-1])
    assert zpoly_gcd([0, 3], []) == ([0, 3], [1], [])


def test_zpoly_gcd_cases_that_need_a_wider_packing():
    # The first packing width gives a candidate that fails trial division
    # here (once, then twice), so the answer comes from a wider one.
    for a, b in (([59, 32, 66, 23], [-1, 2]), ([-1, 0, 0, 0, 1], [31, 45, 14])):
        _assert_gcd(a, b, *zpoly_gcd(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prs_gcd_matches_euclid(data):
    a, b = _planted_pair(data.draw)
    if a and b:
        g = _prs_gcd(a, b)
        assert g[-1] > 0 and _content(g) == 1
        assert q_monic(Polynomial(g)) == poly_gcd(Polynomial(a), Polynomial(b))


def test_zpoly_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # With no heuristic tries every gcd of nonconstant primitive parts comes
    # from the primitive remainder sequence.
    monkeypatch.setattr(algebra, "_HEURISTIC_TRIES", 0)
    rng = random.Random(6)
    for _ in range(200):
        h = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 5)]
        a = poly_mul([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))], h)
        b = poly_mul([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))], h)
        _assert_gcd(a, b, *zpoly_gcd(a, b))


def euclid_canonical(num, den):
    """The canonical form by the Euclid over Q that RatFunc used before the
    Z[t] gcd: divide by the monic gcd, then make the denominator monic."""
    if num.is_zero():
        return Polynomial(), Polynomial((1,))
    g = poly_gcd(num, den)
    num, den = q_divmod(num, g)[0], q_divmod(den, g)[0]
    lead_inv = Polynomial((1 / den.coeffs[-1],))
    return q_mul(num, lead_inv), q_mul(den, lead_inv)


@settings(max_examples=80, deadline=None)
@given(st.lists(entry_palette, max_size=4), st.lists(entry_palette, max_size=3),
       entry_palette)
def test_ratfunc_canonical_form_matches_euclid(over, under, planted):
    # An unreduced quotient of palette values, with a planted common factor.
    num, den = planted.num, planted.num
    if num.is_zero():
        num = den = Polynomial((1,))
    for v in over:
        num, den = q_mul(num, v.num), q_mul(den, v.den)
    for v in under:
        if not v.is_zero():
            num, den = q_mul(num, v.den), q_mul(den, v.num)
    f = RatFunc(num, den)
    assert (f.num, f.den) == euclid_canonical(num, den)


@settings(max_examples=40, deadline=None)
@given(st.lists(ratfuncs, min_size=1, max_size=5))
def test_common_denominator_recovers_entries(entries):
    den, nums = common_denominator(entries)
    assert _is_trimmed(den) and all(_is_trimmed(x) for x in nums)
    for num, e in zip(nums, entries):
        assert RatFunc(Polynomial(num), Polynomial(den)) == e
        assert q_divmod(Polynomial(den), e.den)[1].is_zero()
    lcm_degree = Polynomial((1,))
    for d in {e.den for e in entries}:
        lcm_degree = q_divmod(q_mul(lcm_degree, d), poly_gcd(lcm_degree, d))[0]
    assert len(den) - 1 == lcm_degree.degree


# -- serialization -----------------------------------------------------------


def test_json_roundtrip():
    f = rf((0, Fraction(1, 2), -1), (2, 0, 1))
    data = f.to_json()
    assert data["num"][1] == "1/2"
    assert RatFunc.from_json(data) == f


def test_json_is_canonical_coefficient_strings():
    f = rf((0, -1), (1,))
    assert f.to_json() == {"num": ["0", "-1"], "den": ["1"], "display": "-t"}
