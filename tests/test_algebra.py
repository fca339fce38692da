import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, connected_sum, dense_minor_bound, dense_rows, forward_rank,
                      fraction_json, fraction_text, from_rows, gauss_jordan, identity, mat,
                      packed_column, poly, poly_gcd, q_add, q_divmod, q_eval, q_monic, q_mul,
                      qt_add, qt_derivative, qt_div, qt_eval, qt_mul, qt_neg, qt_product,
                      qt_rref, qt_sub, reference_gauss_jordan, rf, sparse_columns, sparse_rows,
                      submatrix, t_power, torus_pd, transposed, zeros)
from dehn import algebra
from dehn.algebra import (FieldMatrix, Polynomial, RatFunc, _exact_quotient, _pack, _prs_gcd,
                          _unit_equal, _unpack, common_denominator,
                          fraction_free_back_substitution, fraction_free_elimination,
                          is_diagonal_product, poly_add, poly_mul, product_headroom, zpoly_gcd)
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
    assert not q_divmod(a, g)[1].coeffs and not q_divmod(b, g)[1].coeffs


# -- the Q(t) field reference ------------------------------------------------
#
# RatFunc has no arithmetic; these check conftest's field operations on it.


def test_mul_matches_worked_value():
    # (1/(1-t)) * (t^2-t+1) has monic denominator t-1 after canonicalization.
    product = qt_mul(rf(1, (1, -1)), rf((1, -1, 1)))
    assert product == rf((-1, 1, -1), (-1, 1))
    assert product.den == poly(-1, 1)
    assert product.num == poly(-1, 1, -1)


def test_additive_identity():
    a = rf((2, 3), (1, 0, 1))
    assert qt_add(a, RatFunc(0)) == a


def test_sub_cross_checked_by_evaluation():
    # (2t^2-t)/(t^2-t+1) - t/(t-1), expanded by hand over the common
    # denominator: numerator (2t^2-t)(t-1) - t(t^2-t+1) = t^3 - 2t^2.
    a = rf((0, -1, 2), (1, -1, 1))
    b = rf((0, 1), (-1, 1))
    diff = qt_sub(a, b)
    assert diff == rf((0, 0, -2, 1), (-1, 2, -2, 1))
    for x in (Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(7, 3)):
        assert qt_eval(diff, x) == qt_eval(a, x) - qt_eval(b, x)
    with pytest.raises(ZeroDivisionError):
        qt_eval(b, 1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qt_div(rf((1, 1)), RatFunc(0))
    with pytest.raises(ZeroDivisionError):
        RatFunc(poly(1), Polynomial())


# -- derivative -------------------------------------------------------------


def test_derivative_power_rule():
    assert qt_derivative(rf((0, 0, 1))) == rf((0, 2))


def test_derivative_quotient_rule():
    assert qt_derivative(rf(1, (1, -1))) == rf(1, (1, -2, 1))


def test_log_derivative_identity():
    # t*(d/dt)log((t^2-t+1)/(1-t)) computed term by term equals the closed form.
    t = t_power(1)
    lhs = qt_add(qt_mul(t, rf((-1, 2), (1, -1, 1))), qt_mul(t, rf(1, (1, -1))))
    rhs = qt_sub(rf((0, -1, 2), (1, -1, 1)), rf((0, 1), (-1, 1)))
    assert lhs == rhs
    f = rf((1, -1, 1), (1, -1))
    assert qt_div(qt_mul(t, qt_derivative(f)), f) == rhs


# -- canonical form ---------------------------------------------------------


def test_zero_is_zero_over_one():
    z = RatFunc(Polynomial(), poly(3, 1))
    assert z.num == Polynomial() and z.den == poly(1)


def test_unit_equal():
    # Over Z[t] pairs in any form: (t^2-t+1)/(1-t), the same times 2/2,
    # -t^3 times it, and two fractions that differ by more than a unit.
    a = ([1, -1, 1], [1, -1])
    assert _unit_equal(*a, *a)
    assert _unit_equal(*a, [2, -2, 2], [2, -2])
    assert _unit_equal(*a, [0, 0, 0, -1, 1, -1], [1, -1])
    assert not _unit_equal(*a, [1, -3, 1], [1, -1])
    assert not _unit_equal(*a, [1, 0, 0, 1], [1, -1])
    assert _unit_equal([], [1], [], [3]) and not _unit_equal([], [1], [1], [1])


# -- matrices ---------------------------------------------------------------


def test_rref_identity():
    reduced, pivots, rank = identity(3).rref()
    assert reduced == identity(3)
    assert pivots == [0, 1, 2] and rank == 3


def test_rref_zero():
    assert forward_rank(zeros(2, 3)) == 0


@pytest.mark.parametrize("rows, pivots", [
    ([[0, 1, t_power(1)], [0, 1, 1]], [1, 2]),  # a first column of zeros
    ([[rf(1, (-1, 1)), t_power(1), 2], [rf((0, 1), (-1, 1)), t_power(2), rf((0, 2))]],
     [0]),  # rank 1, over a denominator
    ([[0, 0, 0], [0, 0, 0]], []),
], ids=["zero-first-column", "rank-1", "zero"])
def test_rref_fixed_cases_match_qt_reference(rows, pivots):
    m = mat(rows)
    reduced, got, rank = m.rref()
    assert (reduced, got, rank) == qt_rref(m)
    assert got == pivots and rank == len(pivots)


def test_rref_boundary_matrix_rank():
    minus_t = qt_neg(t_power(1))
    d2 = mat([[minus_t, -1, 0], [1, 1, 1], [0, minus_t, -1], [-1, 0, minus_t]])
    assert forward_rank(d2) == 3


def test_det_torsion_matrix():
    minus_t = qt_neg(t_power(1))
    m = mat([
        [minus_t, -1, 0, rf(1, (-1, 1))],
        [1, 1, 1, 0],
        [0, minus_t, -1, 0],
        [-1, 0, minus_t, 0],
    ])
    assert m.det() == rf((1, -1, 1), (1, -1))


def test_det_identity_and_repeated_row():
    assert identity(4).det() == RatFunc(1)
    m = mat([[1, 2], [1, 2]])
    assert m.det() == RatFunc(0)


def test_det_non_square_raises():
    with pytest.raises(ValueError):
        zeros(2, 3).det()


# The product runs over Z[t], each row of the left factor and each column of
# the right one over its own common denominator; qt_product adds one term at
# a time in Q(t).
_PRODUCT_CASES = {
    # 1/(t-1) and t/(t+1) in one row, a column over t^2+1, another over 2t.
    "mixed-denominators": ([[rf(1, (-1, 1)), rf((0, 1), (1, 1))], [2, rf(1, (0, 1))]],
                           [[rf((1, 1), (1, 0, 1)), rf(1, (0, 2))],
                            [rf((0, 0, 1), (1, 0, 1)), rf(Fraction(1, 2))]]),
    # A zero entry in each factor, a zero row, and a right factor with more
    # columns than rows.
    "zero-entries": ([[0, rf(1, (-1, 1))], [0, 0]],
                     [[rf((0, 1), (1, 1)), 0, 1], [0, 3, rf(1, (0, 1))]]),
    # Terms that cancel to zero, and a denominator that the other factor's
    # numerator cancels.
    "cancelling": ([[rf(1, (-1, 1)), rf(-1, (-1, 1))]], [[1, (-1, 1)], [1, 0]]),
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_CASES))
def test_matmul_fixed_cases_match_qt_product(name):
    a, b = (mat(rows) for rows in _PRODUCT_CASES[name])
    assert a @ b == qt_product(a, b)


def test_matmul_cancelling_case_values():
    a, b = (mat(rows) for rows in _PRODUCT_CASES["cancelling"])
    assert a @ b == mat([[0, 1]])


@pytest.mark.parametrize("left, right, shape", [
    ((1, 0), (0, 1), (1, 1)),  # an empty sum: one zero entry
    ((2, 2), (2, 0), (2, 0)),  # no columns
    ((0, 2), (2, 3), (0, 3)),  # no rows
])
def test_matmul_empty_shapes_match_qt_product(left, right, shape):
    a = FieldMatrix(*left, [rf((1, 1), (0, 1))] * (left[0] * left[1]))
    b = FieldMatrix(*right, [rf(2, (1, 1))] * (right[0] * right[1]))
    product = a @ b
    assert (product.rows, product.cols) == shape
    assert product == qt_product(a, b) == zeros(*shape)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        zeros(2, 3) @ zeros(2, 3)



# -- randomized properties ---------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_polys = st.lists(small_fractions, max_size=4).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: p.coeffs)
ratfuncs = st.tuples(small_polys, nonzero_polys).map(lambda nd: RatFunc(*nd))
nonzero_ratfuncs = ratfuncs.filter(lambda f: f.znum)


@settings(max_examples=60, deadline=None)
@given(ratfuncs, nonzero_ratfuncs)
def test_field_axiom_div_mul_roundtrip(a, b):
    assert qt_mul(qt_div(a, b), b) == a


@settings(max_examples=60, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms_distributivity(a, b, c):
    assert qt_mul(a, qt_add(b, c)) == qt_add(qt_mul(a, b), qt_mul(a, c))
    assert qt_add(a, b) == qt_add(b, a)


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
    # The reduced form of -f is (-znum, zden): negation keeps joint content
    # 1 and the sign of the denominator's leading coefficient.
    neg = qt_neg(f)
    assert (neg.znum, neg.zden) == (tuple(-c for c in f.znum), f.zden)
    assert neg == RatFunc([-c for c in f.znum], f.zden) == qt_mul(RatFunc(-1), f)
    assert qt_neg(neg) == f and not qt_add(f, neg).znum


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
    px, qx = q_eval(p, x), q_eval(q, x)
    assert qt_eval(qt_mul(RatFunc(p), RatFunc(q)), x) == q_eval(q_mul(p, q), x) == px * qx
    assert qt_eval(qt_add(RatFunc(p), RatFunc(q)), x) == q_eval(q_add(p, q), x) == px + qx


zpolys = st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=6).map(algebra._trim)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), zpolys, zpolys), max_size=4))
def test_products_cancel_is_the_sum_of_products(terms):
    # Whether sum c * a * b is 0 in Z[t], against the sum built by poly_mul
    # and poly_add; then with that sum taken off, which cancels, and with
    # the sum plus t^2 taken off, which leaves -t^2.
    total = []
    for c, a, b in terms:
        total = poly_add(total, poly_mul(a, b), c)
    assert algebra._products_cancel(*terms) == (not total)
    assert algebra._products_cancel(*terms, (-1, total, [1]))
    assert not algebra._products_cancel(*terms, (-1, poly_add(total, [1], shift=2), [1]))


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_poly_gcd_divides(a, b):
    g = poly_gcd(a, b)
    assert not q_divmod(a, g)[1].coeffs
    assert not q_divmod(b, g)[1].coeffs
    assert g.coeffs[-1] == 1


def _cofactor_det(m: FieldMatrix) -> RatFunc:
    n = m.rows
    if n == 0:
        return RatFunc(1)
    if n == 1:
        return m.entry(0, 0)
    total = RatFunc(0)
    sign = 1
    for j in range(n):
        minor = submatrix(m, range(1, n), [c for c in range(n) if c != j])
        term = qt_mul(m.entry(0, j), _cofactor_det(minor))
        total = qt_add(total, term if sign > 0 else qt_neg(term))
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
        combo = [qt_add(qt_mul(c, a), b) for a, b in zip(rows[i], rows[j])]
        rows.insert(data.draw(st.integers(0, len(rows))), combo)
    m = from_rows(rows)
    expected = qt_rref(m)
    assert m.rref() == expected
    assert forward_rank(m) == expected[2]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_matmul_matches_qt_product(rows, inner, cols, data):
    a, b = (FieldMatrix(r, c, data.draw(st.lists(entry_palette, min_size=r * c,
                                                  max_size=r * c)))
            for r, c in ((rows, inner), (inner, cols)))
    assert a @ b == qt_product(a, b)


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


def test_unpack_refuses_a_width_below_two():
    # At width 1 the signed digits are {-1, 0}, which cannot sum to a
    # positive number, so reading them would never end. The calls run in a
    # child process with 512 MB of address space and 20 s, so that an
    # unpack that does not refuse fails this test instead of filling memory.
    src = str(Path(algebra.__file__).resolve().parents[1])
    script = (f"import resource, sys; sys.path.insert(0, {src!r})\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
              "from dehn.algebra import _unpack\n"
              "for k in (1, 0, -2):\n"
              "    try:\n"
              "        _unpack(5, k)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"cannot unpack at width {k}: signed digits need 2 bits" for k in (1, 0, -2)]
    assert _unpack(_pack([-2, 1, 0, 1], 2), 2) == [-2, 1, 0, 1]


def _diagonal(rows, cols, delta):
    """delta * I as a rows x cols matrix over Q(t)."""
    return FieldMatrix(rows, cols, [RatFunc(delta if i == j else []) for i in range(rows)
                                    for j in range(cols)])


def _bumped(matrix, data):
    """A copy of a Z[t] matrix with one coefficient, drawn from `data`,
    moved by +-1, one place past the top of its entry included."""
    out = [[list(x) for x in row] for row in matrix]
    i = data.draw(st.integers(0, len(out) - 1))
    j = data.draw(st.integers(0, len(out[i]) - 1))
    entry = out[i][j]
    p = data.draw(st.integers(0, len(entry)))
    entry.extend([0] * (p + 1 - len(entry)))
    entry[p] += data.draw(st.sampled_from((1, -1)))
    out[i][j] = _trim(entry)
    return out


def _holds(rows, m, delta):
    """rows * m = delta * I by the Q(t) reference."""
    product = qt_product(_over_q(rows), _over_q(m))
    return product == _diagonal(product.rows, product.cols, delta)


def _packed_test(rows, m, delta, width=None):
    """is_diagonal_product on `rows` packed at `width`; by default at the
    width with product_headroom(m) bits above the bit length of the largest
    coefficient of rows and delta, where every digit passes its bound and
    the answer is exact."""
    if width is None:
        largest = max(map(abs, [*delta, *(c for row in rows for x in row for c in x)]),
                      default=0)
        width = largest.bit_length() + product_headroom(sparse_columns(m))
    return is_diagonal_product([[_pack(x, width) for x in row] for row in rows],
                               sparse_columns(m), delta, width)


def _check_agrees(rows, m, delta, narrow=1):
    """is_diagonal_product against the Q(t) product; returns the Q(t)
    answer. The test agrees with it at the default width of `_packed_test`,
    and at the width `narrow`, where it may refuse to certify a true
    product, it answers True only for a true product of the rows it
    unpacks."""
    holds = _holds(rows, m, delta)
    assert _packed_test(rows, m, delta) == holds
    assert not _packed_test(rows, m, delta, narrow) or _holds(
        [[_unpack(_pack(x, narrow), narrow) for x in row] for row in rows], m, delta)
    return holds


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_is_diagonal_product_matches_qt_product(m, n, p, data):
    # Random products; planted zero products, every row a multiple of one
    # row u and every column c * (u_j e_i - u_i e_j); planted delta * I, the
    # identity block N of the kernel's [A | I] with N * A = delta * I. Each
    # planted case also with one coefficient moved by 1.
    polys = int_polys(2 ** 40, 4)
    a = data.draw(int_matrices(m, n, polys))
    b = data.draw(int_matrices(n, p, polys))
    narrow = data.draw(st.integers(1, 48))
    _check_agrees(a, b, [], narrow)
    _check_agrees(a, b, data.draw(polys), narrow)
    u = data.draw(int_matrices(1, n, polys))[0]
    rows = [[poly_mul(c, x) for x in u] for c in data.draw(st.lists(polys, min_size=m,
                                                                    max_size=m))]
    columns = []
    for _ in range(p):
        column = [[] for _ in range(n)]
        if n > 1:
            i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                             unique=True)))
            c = data.draw(polys)
            column[i], column[j] = poly_mul(c, u[j]), poly_mul([-1], poly_mul(c, u[i]))
        columns.append(column)
    zero = [list(row) for row in zip(*columns)]
    assert _check_agrees(rows, zero, [])
    _check_agrees(rows, _bumped(zero, data), [])
    _check_agrees(_bumped(rows, data), zero, [])
    square = data.draw(int_matrices(n, n, int_polys(50, 3)))
    reduced, pivots, _ = gauss_jordan([row + [[1] if i == j else [] for j in range(n)]
                                       for i, row in enumerate(square)])
    if pivots == list(range(n)):
        numer, delta = [row[n:] for row in reduced], reduced[-1][n - 1]
        assert _check_agrees(numer, square, delta)
        _check_agrees(_bumped(numer, data), square, delta)
        _check_agrees(numer, _bumped(square, data), delta)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 1), st.data())
def test_back_substitution_inverts_the_forward_rows(n, singular, data):
    # A random square A over Z[t], rows shuffled as the propagator sorts
    # them: [P * A | P] eliminated forward and back substituted gives X =
    # delta * A^-1, so A * X = X * A = delta * I (the second on the packed
    # rows, at the width with the product check's headroom), and X is +-1
    # times the identity block of `reference_gauss_jordan`. A singular A,
    # one row a combination of others, is reported by its pivots, and the
    # back substitution refuses it before any arithmetic. A pivot replaced
    # by a value dividing no numerator makes a division inexact.
    a = data.draw(int_matrices(n, n, int_polys(9, 3)))
    if singular and n > 1:
        i, j, dst = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c = data.draw(int_polys(3, 2))
        a[dst] = [poly_add(poly_mul(c, x), y) for x, y in zip(a[i], a[j])]
    order = data.draw(st.permutations(range(n)))
    rows = [a[i] + [[1] if j == i else [] for j in range(n)] for i in order]
    forward, pivots, _, width = fraction_free_elimination(
        sparse_rows(rows), 2 * n, product_headroom(sparse_columns(a)))
    if pivots[:n] != list(range(n)):
        assert qt_rref(_over_q(a))[2] < n
        with pytest.raises(ValueError):
            fraction_free_back_substitution(forward, n)
        return
    x = fraction_free_back_substitution(forward, n)
    delta = _unpack(forward[n - 1][n - 1], width)
    unpacked = [[_unpack(v, width) for v in row] for row in x]
    assert _packed_test(a, unpacked, delta)
    assert is_diagonal_product(x, sparse_columns(a), delta, width)
    block = [row[n:] for row in gauss_jordan([a[i] + [[1] if j == i else [] for j in range(n)]
                                              for i in range(n)])[0]]
    assert unpacked in (block, [[[-c for c in v] for v in row] for row in block])
    if n > 1:
        c = next(c for c, v in enumerate(x[0]) if v)
        numerator = forward[0][0] * x[0][c]
        broken = [list(row) for row in forward]
        broken[0][0] = 2 * abs(numerator) + 1
        with pytest.raises(ArithmeticError):
            fraction_free_back_substitution(broken, n)


def test_back_substitution_of_an_empty_system():
    # n = 0: no unknowns, so X has no rows, whatever columns R has.
    assert fraction_free_back_substitution([], 0) == []
    assert fraction_free_back_substitution([[5, 7]], 0) == []


def test_is_diagonal_product_shape_mismatch_raises():
    # m comes by its nonzeros, so a shape mismatch is an entry of m in a
    # row past the length of the rows, or rows of unequal length.
    with pytest.raises(ValueError):
        is_diagonal_product([[1]], sparse_columns([[[1]], [[1]]]), [], 4)
    with pytest.raises(ValueError):
        is_diagonal_product([[1, 1], [1]], sparse_columns([[[1]], [[1]]]), [], 4)


def test_zero_product_one_bit_narrower_would_alias(monkeypatch):
    # The row (-h + t, -h), h = 2^(k-1), times the column (1, 1) is -2^k +
    # t, which packs to 0 at width k = 6. The digit -h is a signed digit of
    # the width, but the column norm n = 2 takes c = 2 bits of headroom,
    # digits in [-2^(k-2), 2^(k-2)), so the test refuses to certify; with
    # one bit less it admits -h and the wrong product passes.
    k, h, column = 6, 1 << 5, sparse_columns([[[1]], [[1]]])
    assert packed_column([[-2 * h, 1]], k, 1) == 0 and product_headroom(column) == 2
    row = [[_pack([-h, 1], k), _pack([-h], k)]]
    assert not is_diagonal_product(row, column, [], k)
    # (-4 + t) * 1 against delta = 12 at k = 4, c = 2: the difference -16 + t
    # packs to 0, and only the bound 2^(k-c) = 4 on delta's coefficients
    # refuses it.
    assert _pack([-4, 1], 4) == _pack([12], 4)
    assert not is_diagonal_product([[_pack([-4, 1], 4)]], sparse_columns([[[1]]]), [12], 4)
    monkeypatch.setattr(algebra, "product_headroom", lambda m: 1)
    assert is_diagonal_product(row, column, [], k)


def test_zero_product_one_slot_shorter_would_alias():
    # The column (t^2, -1) times 1 at k = 3: its digits pass the bound, the
    # entry t^2 has l = 3 digits, so each row of the packed column gets L = 3
    # slots. With one slot fewer, the t^2 of row 0 and the -1 of row 1 land
    # on the same power and cancel.
    assert packed_column([[0, 0, 1], [-1]], 3, 2) == 0 != packed_column([[0, 0, 1], [-1]], 3, 3)
    assert not is_diagonal_product([[_pack([0, 0, 1], 3)], [_pack([-1], 3)]],
                                   sparse_columns([[[1]]]), [], 3)


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
    reduced, pivots, sign = gauss_jordan(rows)
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
    reduced, pivots, sign = gauss_jordan(rows)
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
    reduced, pivots, sign = gauss_jordan(a)
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
    reduced, pivots, sign = gauss_jordan(rows)
    assert pivots == [1] and sign == 1
    assert reduced == [[[], [1, 1], [2]], [[], [], []]]


def _assert_forward_matches_gauss_jordan(rows):
    """The kernel makes the same pivot choices as `reference_gauss_jordan`:
    the same pivot columns, sign and last pivot, with zero rows below the
    rank. Returns (pivots, sign, last pivot)."""
    reduced, pivots, sign = gauss_jordan(rows)
    echelon, fw_pivots, fw_sign = gauss_jordan(rows, forward=True)
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
                       else RatFunc(0))


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.data())
def test_sparse_input_matches_the_dense_reference(nrows, ncols, headroom, data):
    # The kernel reads its rows by their nonzeros. On any shape, the empty
    # matrix, zero rows and zero entries included, its bound on the minors
    # is the one read off every entry, and it returns the packed rows,
    # pivots, sign and width of the forward elimination of the dense rows,
    # with `headroom` bits added to the width; zero entries written into
    # the mappings change nothing.
    rows = data.draw(int_matrices(nrows, ncols, int_polys(30, 3)))
    for i in data.draw(st.lists(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [[] for _ in range(ncols)]
    assert algebra._minor_bound(sparse_rows(rows)) == dense_minor_bound(rows)
    packed, pivots, sign, k = reference_gauss_jordan(rows, above=False)
    got = fraction_free_elimination(sparse_rows(rows), ncols, headroom)
    assert got[1:] == (pivots, sign, k + headroom)
    assert [[_unpack(v, got[3]) for v in row] for row in got[0]] == [
        [_unpack(v, k) for v in row] for row in packed]
    if not headroom:
        assert got[0] == packed
    full = [dict(enumerate(row)) for row in rows]
    assert fraction_free_elimination(full, ncols, headroom) == got


def test_elimination_refuses_a_column_outside_its_range():
    with pytest.raises(ValueError):
        fraction_free_elimination([{0: [1]}, {2: [1]}], 2, 0)
    with pytest.raises(ValueError):
        fraction_free_elimination([{-1: [1]}], 2, 0)


def _row_norm_bound(rows):
    """The product of the row 1-norms: a looser bound on every minor's
    coefficients, and so a wider packing."""
    bound = 1
    for row in rows:
        bound *= max(1, sum(sum(map(abs, x)) for x in row.values()))
    return bound


_WIDTH_KNOTS = {f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)}
_WIDTH_KNOTS.update({
    "+".join(parts): connected_sum(*(CORPUS[p] for p in parts))
    for parts in (("3_1", "4_1", "5_2"), ("6_1", "5_1", "4_1", "3_1"),
                  ("5_2", "6_1", "5_2", "6_1"))})


@pytest.mark.parametrize("name", sorted(_WIDTH_KNOTS))
def test_kernel_width_holds_every_coefficient(monkeypatch, name):
    # Record the input of every kernel call of a whole computation, with
    # the width k it packs at. Each coefficient the kernel unpacks, and
    # each one `reference_gauss_jordan` unpacks on the same input, lies
    # within the Hadamard-type bound and so below
    # 2^(k-1), and the output equals the one at the wider width of the row
    # 1-norm product: a k narrowed below a coefficient changes an output.
    calls = []
    hadamard = algebra._minor_bound

    def recording(rows):
        bound = hadamard(rows)
        ncols = max((j + 1 for row in rows for j in row), default=0)
        calls.append((dense_rows(rows, ncols), bound, algebra._packing_bits(bound)))
        return bound

    monkeypatch.setattr(algebra, "_minor_bound", recording)
    result = compute_result(_WIDTH_KNOTS[name])
    assert all(result["checks"].values())
    assert len(calls) >= 2  # the propagator and the Fox minor
    for rows, bound, k in calls:
        monkeypatch.setattr(algebra, "_minor_bound", hadamard)
        outputs = [gauss_jordan(rows, forward=f) for f in (False, True)]
        largest = max((abs(c) for out, _, _ in outputs for row in out for x in row
                       for c in x), default=0)
        assert largest <= bound < 2 ** (k - 1)
        monkeypatch.setattr(algebra, "_minor_bound", _row_norm_bound)
        assert [gauss_jordan(rows, forward=f) for f in (False, True)] == outputs


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


def test_zpoly_gcd_fixed_cases():
    # A coprime pair, and t^4 - 1 against (t + 1)(14t + 31).
    for a, b in (([59, 32, 66, 23], [-1, 2]), ([-1, 0, 0, 0, 1], [31, 45, 14])):
        _assert_gcd(a, b, *zpoly_gcd(a, b))
    assert zpoly_gcd([-1, 0, 0, 0, 1], [31, 45, 14])[0] == [1, 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prs_gcd_matches_euclid(data):
    a, b = _planted_pair(data.draw)
    if a and b:
        g = _prs_gcd(a, b)
        assert g[-1] > 0 and _content(g) == 1
        assert q_monic(Polynomial(g)) == poly_gcd(Polynomial(a), Polynomial(b))


@settings(max_examples=80, deadline=None)
@given(int_polys(50, 5), int_polys(9, 4).filter(bool), st.integers(0, 3), st.integers(0, 2))
def test_exact_quotient_of_planted_products(q, h, vq, vh):
    # Negative leading coefficients, t-power factors and divisors of length 1
    # are all drawn.
    q = [0] * vq + q if q else []
    h = [0] * vh + h
    assert _exact_quotient(poly_mul(q, h), h) == q


@settings(max_examples=80, deadline=None)
@given(int_polys(50, 5), int_polys(9, 4).filter(lambda h: len(h) > 1), st.data())
def test_exact_quotient_raises_on_a_remainder(q, h, data):
    r = data.draw(int_polys(20, len(h) - 1).filter(bool))
    with pytest.raises(ArithmeticError):
        _exact_quotient(poly_add(poly_mul(q, h), r), h)


def test_exact_quotient_fixed_cases():
    assert _exact_quotient([0, 0, 5], [0, 1]) == [0, 5]
    assert _exact_quotient([6, -4], [-2]) == [-3, 2]
    assert _exact_quotient([], [3, 1]) == []
    # Every leading-term division is exact, and only the constant term
    # leaves a remainder: (t + 1)^2 + 1 by t + 1, and 5t^2 + 1 by t.
    for f, h in (([2, 2, 1], [1, 1]), ([1, 0, 5], [0, 1]),
                 ([3], [1, 1]), ([1, 3], [1, 2]), ([1], [2])):
        with pytest.raises(ArithmeticError):
            _exact_quotient(f, h)


def euclid_canonical(num, den):
    """The canonical form by the Euclid over Q that RatFunc used before the
    Z[t] gcd: divide by the monic gcd, then make the denominator monic."""
    if not num.coeffs:
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
    if not num.coeffs:
        num = den = Polynomial((1,))
    for v in over:
        num, den = q_mul(num, v.num), q_mul(den, v.den)
    for v in under:
        if v.znum:
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
        assert not q_divmod(Polynomial(den), e.den)[1].coeffs
    lcm_degree = Polynomial((1,))
    for d in {e.den for e in entries}:
        lcm_degree = q_divmod(q_mul(lcm_degree, d), poly_gcd(lcm_degree, d))[0]
    assert len(den) - 1 == lcm_degree.degree


# -- serialization -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ratfuncs)
def test_json_display_is_the_string_form(f):
    assert f.to_json()["display"] == str(f)


def test_json_roundtrip():
    # A rational coefficient is written as the string "p/q", and the
    # coefficient strings read back as Fractions give the same value.
    f = rf((0, Fraction(1, 2), -1), (2, 0, 1))
    data = f.to_json()
    assert data["num"][1] == "1/2"
    assert RatFunc([Fraction(c) for c in data["num"]],
                   [Fraction(c) for c in data["den"]]) == f


@settings(max_examples=200, deadline=None)
@given(int_polys(12, 5), int_polys(12, 4).filter(bool))
@example([], [1])
@example([5], [3])
@example([-6], [-4])
@example([0, 3, -6], [4, 0, -2])
@example([1, 0, -1], [0, 0, 0, 7])
@example([-3, 2 ** 70], [6, 0, -(3 ** 50)])
def test_printer_matches_the_fraction_path(num, den):
    # The one printer reads integer pairs; the reference reads the Fractions
    # of `num` and `den`. Non-monic leading coefficients of the denominator,
    # zero and constants give the same strings.
    f = RatFunc(num, den)
    assert f.to_json() == fraction_json(f)
    assert str(f) == fraction_json(f)["display"]
    assert str(f.num) == fraction_text(f.num) and str(f.den) == fraction_text(f.den)
    q = Polynomial([Fraction(n, i + 2) for i, n in enumerate(num)])
    assert str(q) == fraction_text(q)


def test_json_is_canonical_coefficient_strings():
    f = rf((0, -1), (1,))
    assert f.to_json() == {"num": ["0", "-1"], "den": ["1"], "display": "-t"}
