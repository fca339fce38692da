"""Values in Q(t), dense matrices over Q(t), and a small kernel for
polynomials and matrices over Z[t].

A `RatFunc` is a value with no arithmetic: a pair of integer polynomials in
a unique reduced form (DERIVATION.md §6), made with the kernel's gcd
`zpoly_gcd`. Every elimination runs through the one forward fraction-free
loop `fraction_free_elimination` over Z[t], at a proved packing width, and
`fraction_free_back_substitution` after it where an inverse is needed
(§3). Packed rows are tested by `is_diagonal_product`, rows * m = delta * I
over Z[t], whose one library caller is the certificate X * B0 = delta0 * I
(§4.2). Coefficient lists are tested by `_products_cancel`, a sum of
products against zero (§3.1). `FieldMatrix`, a dense matrix over Q(t), is
the form a propagator's G2 is shown in; its product, reduced form and
determinant run over Z[t]. `Polynomial`, with coefficients in Q, is a
read-only display view. Both print through one printer over (numerator,
denominator) pairs of integers (`_poly_text`).

Everything here is immutable and pure: `Polynomial`, `RatFunc` and
`FieldMatrix` are `dehn._value.Value`s, whose constructors trim, reduce or
check the shape before they store the fields, and values can be shared
freely between threads. Coefficients are Python ints in Z[t] and
`fractions.Fraction` in Q[t], so there is no precision ceiling and no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from ._value import Value, _set

Coeffish = Union[int, Fraction]


class Polynomial(Value):
    """Univariate polynomial over Q, coefficients stored constant-term first:
    a read-only view for display, with no arithmetic; the library computes
    in the Z[t] kernel.

    The zero polynomial is the empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: Tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Coeffish] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in _coefficients(coeffs)]
        _set(self, "coeffs", tuple(_trim(cs)))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        return _poly_text([(c.numerator, c.denominator) for c in self.coeffs])


class RatFunc(Value):
    """Element of Q(t), stored as znum / zden: integer coefficient tuples,
    constant term first, with

    - no common factor of znum and zden in Z[t], not even a constant one;
    - a positive leading coefficient of zden;
    - zero stored as () / (1,).

    The form is unique, so equality and hashing are structural (DERIVATION.md
    §6). `num` and `den` give the same value over Q with a monic denominator,
    the form of the schema-v1 JSON strings.

    `RatFunc(num, den)` takes Polynomials, rational constants or sequences of
    int and Fraction coefficients (trailing zeros allowed), reduced here by
    `zpoly_gcd`; a zero denominator is a ZeroDivisionError. It has no
    arithmetic: the library computes over Z[t]."""

    znum: Tuple[int, ...]
    zden: Tuple[int, ...]

    def __init__(self, num, den=(1,)):
        num, den = _coefficients(num), _coefficients(den)
        # Both parts over the lcm of their denominators, 1 for ints.
        scale = lcm(*(c.denominator for c in num), *(c.denominator for c in den))
        num = _trim([c.numerator * (scale // c.denominator) for c in num])
        den = _trim([c.numerator * (scale // c.denominator) for c in den])
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        # The gcd's cofactors have joint content 1; fixing the sign of the
        # denominator's leading coefficient leaves the unique form.
        _, num, den = zpoly_gcd(num, den)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        _set(self, "znum", tuple(num))
        _set(self, "zden", tuple(den))

    @classmethod
    def _reduced(cls, znum: Sequence[int], zden: Sequence[int]) -> "RatFunc":
        """znum / zden for a pair already in the unique form, with no gcd."""
        out = object.__new__(cls)
        _set(out, "znum", tuple(znum))
        _set(out, "zden", tuple(zden))
        return out

    # -- parts over Q -------------------------------------------------

    @property
    def num(self) -> Polynomial:
        """Numerator over Q when the denominator is made monic."""
        lead = self.zden[-1]
        return Polynomial(Fraction(c, lead) for c in self.znum)

    @property
    def den(self) -> Polynomial:
        """The monic denominator over Q."""
        lead = self.zden[-1]
        return Polynomial(Fraction(c, lead) for c in self.zden)

    # -- display / serialization --------------------------------------

    def __str__(self) -> str:
        return _display(*self._over_lead())

    def to_json(self) -> dict:
        """Machine-stable form: exact coefficient strings of `num` and `den`,
        constant term first."""
        num, den = self._over_lead()
        return {
            "num": [_ratio(*c) for c in num],
            "den": [_ratio(*c) for c in den],
            "display": _display(num, den),
        }

    def _over_lead(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """The coefficients of `num` and `den`, each c / lead, lead the
        leading coefficient of zden, as reduced (numerator, denominator)
        pairs, with no Fraction built."""
        lead = self.zden[-1]
        return [_over(c, lead) for c in self.znum], [_over(c, lead) for c in self.zden]


# -- display -----------------------------------------------------------------
#
# One printer, over (numerator, denominator) pairs of integers: a reduced
# fraction with a positive denominator, the form `Fraction` holds and prints.


def _over(c: int, lead: int) -> Tuple[int, int]:
    """c / lead in lowest terms as a pair, for lead > 0: (c // g, lead // g),
    g = gcd(c, lead), so that, as in `Fraction`, the sign sits on the
    numerator; 0 is (0, 1)."""
    g = gcd(c, lead)
    return c // g, lead // g


def _ratio(n: int, d: int) -> str:
    """n / d as `str(Fraction(n, d))` writes it, for n / d reduced, d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _poly_text(coeffs: Sequence[Tuple[int, int]]) -> str:
    """A polynomial over Q, highest power first, from its coefficients as
    (numerator, denominator) pairs, constant term first, with no trailing
    zero: a coefficient of magnitude 1 is left off its power of t, and "0"
    is the zero polynomial."""
    text = ""
    for power in range(len(coeffs) - 1, -1, -1):
        n, d = coeffs[power]
        if not n:
            continue
        term = _ratio(abs(n), d)
        if power:
            var = "t" if power == 1 else f"t^{power}"
            term = var if term == "1" else f"{term}*{var}"
        text += ("-" if n < 0 else "+") + term
    return text.removeprefix("+") or "0"


def _display(num: Sequence[Tuple[int, int]], den: Sequence[Tuple[int, int]]) -> str:
    return _poly_text(num) if len(den) == 1 else f"({_poly_text(num)})/({_poly_text(den)})"


def _coefficients(p) -> List[Coeffish]:
    """The coefficients of a Polynomial, a rational constant or a sequence of
    rationals, as a new list: the one coercion of `Polynomial` and
    `RatFunc`, a TypeError for a coefficient that is not an int or a
    Fraction."""
    if isinstance(p, Polynomial):
        return list(p.coeffs)
    cs = [p] if isinstance(p, (int, Fraction)) else list(p)
    for c in cs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")
    return cs


def _euler(p: Sequence[int]) -> IntPoly:
    """theta(p) = t * p' over Z[t], the Euler operator: it sends c * t^m to
    m * c * t^m, the paper's contribution of an edge labelled c * t^m
    (DERIVATION.md §7.1)."""
    return _trim([m * c for m, c in enumerate(p)])


def _unit_free(p: Sequence[int]) -> Sequence[int]:
    """p over Z[t] with its factor t^m stripped and its lowest coefficient
    made positive: P = +-t^m * Q for an integer m iff the two agree."""
    low = next((i for i, c in enumerate(p) if c), len(p))
    return [-c for c in p[low:]] if low < len(p) and p[low] < 0 else p[low:]


def _unit_equal(p1: Sequence[int], q1: Sequence[int],
                p2: Sequence[int], q2: Sequence[int]) -> bool:
    """True iff p1/q1 = ±t^m · p2/q2 for some integer m, the fractions over
    Z[t] in any form, reduced or not, with no gcd (DERIVATION.md §6). Zero is
    only unit-equal to zero."""
    return _unit_free(poly_mul(p1, q2)) == _unit_free(poly_mul(p2, q1))


class FieldMatrix(Value):
    """Dense row-major matrix over Q(t)."""

    rows: int
    cols: int
    entries: Tuple[RatFunc, ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[RatFunc]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the matrix shape")
        super().__init__(rows, cols, entries)

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> RatFunc:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    # -- product and elimination ----------------------------------------

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        """The product over Z[t], each row and column over its common
        denominator; a ValueError on a shape mismatch."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        lam, rows = self.cleared_rows()
        columns = [common_denominator(other.entries[j::other.cols]) for j in range(other.cols)]
        out = []
        for den, row in zip(lam, rows):
            for mu, col in columns:
                acc: IntPoly = []
                for a, b in zip(row, col):
                    if a and b:
                        acc = poly_add(acc, poly_mul(a, b))
                out.append(RatFunc(acc, poly_mul(den, mu)))
        return FieldMatrix(self.rows, other.cols, out)

    def cleared_rows(self) -> Tuple[List[IntPoly], List[List[IntPoly]]]:
        """(lam, rows) over Z[t] with row i of self equal to rows[i] / lam[i]."""
        lam, rows = [], []
        for i in range(self.rows):
            den, nums = common_denominator(self.row(i))
            lam.append(den)
            rows.append(nums)
        return lam, rows

    def rref(self):
        """Reduced row echelon form, by the kernel's forward elimination and
        back substitution on the cleared rows (DERIVATION.md §3.4).

        Returns (rref matrix, pivot column list, rank)."""
        reduced, pivots, _, k = fraction_free_elimination(
            [_nonzeros(row) for row in self.cleared_rows()[1]], self.cols, 0)
        rank, free = len(pivots), [j for j in range(self.cols) if j not in pivots]
        x = fraction_free_back_substitution(
            [[row[j] for j in pivots + free] for row in reduced[:rank]], rank)
        delta = _unpack(reduced[rank - 1][pivots[-1]], k) if rank else [1]
        out = [[RatFunc(())] * self.cols for _ in range(self.rows)]
        for i, p in enumerate(pivots):
            out[i][p] = RatFunc((1,))
            for j, v in zip(free, x[i]):
                out[i][j] = RatFunc(_unpack(v, k), delta)
        return FieldMatrix(self.rows, self.cols, chain.from_iterable(out)), pivots, rank

    def det(self) -> RatFunc:
        """Exact determinant: sign * delta of the cleared rows over the
        product of the row denominators (DERIVATION.md §3.4); a ValueError
        if the matrix is not square."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        lam, rows = self.cleared_rows()
        reduced, pivots, sign, k = fraction_free_elimination(
            [_nonzeros(row) for row in rows], self.cols, 0)
        if len(pivots) < self.rows:
            return RatFunc(())
        delta = _unpack(reduced[-1][pivots[-1]], k) if pivots else [1]
        den = [1]
        for d in lam:
            den = poly_mul(den, d)
        return RatFunc([sign * c for c in delta], den)


# -- matrices over Z[t] ----------------------------------------------------
#
# A polynomial here is a list of int coefficients, constant term first, with
# no trailing zeros; [] is zero. A sparse matrix is read by its nonzero
# entries: the kernel takes each row as a mapping from column to entry, and
# the product test each column of m as (row, entry) pairs. Products use
# Kronecker substitution, packing a polynomial into its value at 2^k, and
# every width is proved (DERIVATION.md §3.1, §3.2).

IntPoly = List[int]


def _nonzeros(row: Sequence[IntPoly]) -> Dict[int, IntPoly]:
    """A dense row as the kernel reads it: column -> entry, nonzero entries only."""
    return {j: x for j, x in enumerate(row) if x}


def _pack(coeffs: Sequence[int], k: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = (n << k) + c
    return n


def _unpack(n: int, k: int) -> IntPoly:
    if k < 2:  # DERIVATION.md §3.1
        raise ValueError(f"cannot unpack at width {k}: signed digits need 2 bits")
    out = []
    mask, half, base = (1 << k) - 1, 1 << (k - 1), 1 << k
    while n:
        digit = n & mask
        if digit >= half:
            digit -= base
        out.append(digit)
        n = (n - digit) >> k
    return out


def _norm1(coeffs: Sequence[int]) -> int:
    return sum(map(abs, coeffs))


def _packing_bits(bound: int) -> int:
    """Bits per coefficient for values whose coefficients are at most `bound`."""
    return bound.bit_length() + 1


def _trim(p: IntPoly) -> IntPoly:
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(a: Sequence[int], b: Sequence[int], c: int = 1, shift: int = 0) -> IntPoly:
    """a + c * t^shift * b in Z[t], for shift >= 0."""
    out = list(a)
    out.extend([0] * (shift + len(b) - len(out)))
    for i, x in enumerate(b, shift):
        out[i] += c * x
    return _trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """Product in Z[t] of two coefficient lists."""
    if not a or not b:
        return []
    k = _packing_bits(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _unpack(_pack(a, k) * _pack(b, k), k)


def _products_cancel(*terms: Tuple[int, Sequence[int], Sequence[int]]) -> bool:
    """Whether the sum of c * a * b over the terms (c, a, b) is 0 in Z[t],
    read off one packed value at a width read off the terms themselves
    (DERIVATION.md §3.1), with no product unpacked."""
    k = sum(abs(c) * max(map(abs, a), default=0) * _norm1(b) for c, a, b in terms).bit_length()
    return not sum(c * _pack(a, k) * _pack(b, k) for c, a, b in terms)


def product_headroom(columns: Sequence[Sequence[Tuple[int, IntPoly]]]) -> int:
    """c, the bits that `is_diagonal_product` keeps free above the digits of
    packed rows multiplied into m, given by its `columns` of (row, entry)
    pairs: the bit length of n + 1, n the largest column 1-norm of m, and at
    least 2 (DERIVATION.md §4.2)."""
    n = max((sum(_norm1(x) for _, x in col) for col in columns), default=0)
    return max(2, (n + 1).bit_length())


def is_diagonal_product(rows: Sequence[Sequence[int]],
                        columns: Sequence[Sequence[Tuple[int, IntPoly]]],
                        delta: Sequence[int], width: int) -> bool:
    """Whether rows * m = delta * I over Z[t]; delta = [] is no mode of its
    own, only delta = 0 in the same test. The entries of `rows` come packed,
    each the integer p(2^width) of the polynomial p whose signed base-2^width
    digits are its coefficients. m comes by its `columns`: column c is a
    sequence of (i, m[i][c]) pairs, coefficient lists, one for each nonzero
    entry, every i below the length of a row of `rows`; a row of m that no
    pair names is zero. A shape mismatch is a ValueError.

    The test is exact once every digit of `rows` and of delta is bounded by
    2^j, j = width - `product_headroom(m)`; a digit past that bound makes the
    answer False, whatever the product (DERIVATION.md §4.2). Each column of
    `rows` is packed once into one integer, neighbouring rows joined pairwise
    and then pairs of pairs, linear-times-log work, and each column of
    rows * m is compared with delta in its slot as one integer."""
    inner = len(rows[0]) if rows else 0
    if (any(len(row) != inner for row in rows)
            or any(not 0 <= i < inner for col in columns for i, _ in col)):
        raise ValueError("shape mismatch in matrix product")
    k = width
    j = k - product_headroom(columns)
    if j < 0 or max(map(abs, delta), default=0) > 1 << j:
        return False
    flat = list(chain.from_iterable(rows))
    digits = max(map(abs, flat), default=0).bit_length() // k + 1
    ones = ((1 << k * digits) - 1) // ((1 << k) - 1)  # 1 in each slot
    bias, outside = ones << j, ~(((2 << j) - 1) * ones)
    if any(x and (x + bias) & outside for x in flat):
        return False
    slot = k * max(digits + max((len(x) for col in columns for _, x in col), default=0) - 1,
                   len(delta))
    # packed[i] = sum_r rows[r][i] << slot*r.
    lines, shift = [list(row) for row in rows] or [[0] * inner], slot
    while len(lines) > 1:
        odd = lines[-1:] if len(lines) % 2 else []
        lines = [[a + (b << shift) for a, b in zip(low, high)]
                 for low, high in zip(lines[::2], lines[1::2])] + odd
        shift *= 2
    packed, packed_delta = lines[0], _pack(delta, k)
    return all(sum(_pack(x, k) * packed[i] for i, x in col if x)
               == packed_delta << slot * c for c, col in enumerate(columns))


def _minor_bound(rows: Sequence[Mapping[int, IntPoly]]) -> int:
    """The largest absolute value a coefficient of a minor of `rows` can
    have, by the Hadamard-type bound of Goldstein and Graham (DERIVATION.md
    §3.2); each row is a mapping from column to entry, read by its nonzero
    entries."""
    by_rows, by_cols = 1, {}
    for row in rows:
        total = 0
        for j, x in row.items():
            if x:
                square = _norm1(x) ** 2
                total += square
                by_cols[j] = by_cols.get(j, 0) + square
        by_rows *= max(1, total)
    return isqrt(min(by_rows, prod(by_cols.values())))


def fraction_free_elimination(rows: Sequence[Mapping[int, IntPoly]], ncols: int,
                              headroom: int) -> Tuple[List[List[int]], List[int], int, int]:
    """Row echelon form over Z[t] by Bareiss's forward fraction-free
    elimination, with lazy row rescaling (DERIVATION.md §3.3).

    The input comes sparse: each row is a mapping from column, in
    range(ncols), to its entry; a column it does not name is zero, and a
    column outside the range is a ValueError.

    Returns (rows, pivot columns, sign, k), the rows still packed: each entry
    is its polynomial at t = 2^k, and `_unpack(entry, k)` gives its
    coefficients. k is the proved width, which bounds every minor of the
    input (§3.2), plus `headroom` bits for a caller whose packed check needs
    them. The pivot columns are the leftmost ones independent of those before
    them, and the rows below the rank are zero. When the input has full row
    rank, sign * delta = det B for B its pivot columns, delta the last pivot
    and sign the parity of the row swaps. Every quotient taken is exact in
    Z[t]; a remainder raises ArithmeticError."""
    nrows = len(rows)
    # Every entry met is a minor of the input.
    k = _packing_bits(_minor_bound(rows)) + headroom
    m = [[0] * ncols for _ in range(nrows)]
    for packed, row in zip(m, rows):
        for j, x in row.items():
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} outside the {ncols} columns")
            if x:
                packed[j] = _pack(x, k)
    level = [0] * nrows
    scale = [1]  # scale[s] = p_s

    def catch_up(r: int) -> None:
        s = len(scale) - 1
        if level[r] != s:
            num, den = scale[s], scale[level[r]]
            m[r] = [_exact_div(a * num, den) if a else 0 for a in m[r]]
            level[r] = s

    pivots: List[int] = []
    sign = 1
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
        for r in range(pr + 1, nrows):
            if not m[r][pc]:
                continue
            catch_up(r)
            f = m[r][pc]
            m[r] = [_exact_div(p * a - f * b, prev) if b
                    else (_exact_div(p * a, prev) if a else 0)
                    for a, b in zip(m[r], top)]
            level[r] = pr + 1
        scale.append(p)
        level[pr] = pr + 1
        pivots.append(pc)
    return m, pivots, sign, k


def fraction_free_back_substitution(rows: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """X = delta * A^-1 * R, packed at the width of `rows`, from the packed
    echelon form `rows` of [A | R] that `fraction_free_elimination` made,
    A n x n with pivots in its columns 0..n-1 and delta the last of them. Its
    entries are minors of [A | R], so that width bounds them (DERIVATION.md
    §3.4). A singular A leaves a zero on that diagonal, which is a ValueError
    before any arithmetic; for n = 0, X has no rows. A remainder raises
    ArithmeticError."""
    if len(rows) < n or not all(rows[i][i] for i in range(n)):
        raise ValueError("singular matrix: a pivot is missing from its columns")
    if not n:
        return []
    delta = rows[n - 1][n - 1]
    x: List[List[int]] = [[]] * n
    x[n - 1] = list(rows[n - 1][n:])
    for i in range(n - 2, -1, -1):
        row = rows[i]
        acc = [delta * v for v in row[n:]]
        for j in range(i + 1, n):
            f = row[j]
            if f:
                acc = [a - f * y if y else a for a, y in zip(acc, x[j])]
        x[i] = [_exact_div(a, row[i]) if a else 0 for a in acc]
    return x


def _exact_div(a: int, b: int) -> int:
    """a / b for packed values, raising ArithmeticError on a remainder."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


# -- gcd over Z[t] ---------------------------------------------------------
#
# The primitive polynomial remainder sequence (Collins 1967, Brown 1971) on
# the primitive parts, with the content and the t-power split off first;
# the cofactors are exact quotients.


def _primitive(p: Sequence[int]) -> IntPoly:
    """p over its content, with a positive leading coefficient."""
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return [x // c for x in p]


def _exact_quotient(f: Sequence[int], h: Sequence[int]) -> IntPoly:
    """f / h in Z[t] by long division, for nonzero h; raises ArithmeticError
    on a remainder."""
    r, n, lead = list(f), len(h), h[-1]
    q = []
    for shift in range(len(r) - n, -1, -1):
        c, rem = divmod(r[shift + n - 1], lead)
        if rem:
            raise ArithmeticError("inexact division in Z[t]")
        if c:
            for i, y in enumerate(h, shift):
                r[i] -= c * y
        q.append(c)
    if any(r):
        raise ArithmeticError("inexact division in Z[t]")
    return q[::-1]


def _prs_gcd(f: Sequence[int], g: Sequence[int]) -> IntPoly:
    """gcd of nonzero f and g by the primitive remainder sequence, primitive
    with a positive leading coefficient."""
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # Pseudo-remainder of a by b, one leading term at a time.
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            lr, shift = r[-1], len(r) - len(b)
            r = [lb * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= lr * y
            while r and not r[-1]:
                r.pop()
        a, b = b, (_primitive(r) if r else [])
    # A nonzero constant remainder leaves the gcd 1.
    return [1] if b else a


def zpoly_gcd(a: Sequence[int], b: Sequence[int]) -> Tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a/g, b/g) with g the gcd of a and b in Z[t]: its content is the gcd
    of their contents and its leading coefficient is positive. gcd(0, 0) = 0,
    with zero cofactors."""
    if not a or not b:
        p = a or b
        if not p:
            return [], [], []
        sign = 1 if p[-1] > 0 else -1
        return [sign * x for x in p], ([sign] if a else []), ([sign] if b else [])
    ca, cb = gcd(*a), gcd(*b)
    c = gcd(ca, cb)
    va = next(i for i, x in enumerate(a) if x)
    vb = next(i for i, x in enumerate(b) if x)
    v = min(va, vb)
    f, g = [x // ca for x in a[va:]], [x // cb for x in b[vb:]]
    h = _prs_gcd(f, g)
    qa, qb = _exact_quotient(f, h), _exact_quotient(g, h)
    return ([0] * v + [c * x for x in h],
            [0] * (va - v) + [ca // c * x for x in qa],
            [0] * (vb - v) + [cb // c * x for x in qb])


def common_denominator(entries: Sequence[RatFunc]) -> Tuple[IntPoly, List[IntPoly]]:
    """(den, nums) over Z[t] with entries[i] = nums[i] / den, where den is the
    least common multiple of the entry denominators in Z[t]."""
    cofactors = dict.fromkeys(e.zden for e in entries)
    den = [1]
    for d in cofactors:
        den = poly_mul(den, zpoly_gcd(den, d)[2])
    for d in cofactors:
        cofactors[d] = _exact_quotient(den, d)
    return den, [poly_mul(e.znum, cofactors[e.zden]) for e in entries]

