"""Exact arithmetic in Q and Q(t), dense matrices over Q(t), and a small
kernel for polynomials and matrices over Z[t].

A `RatFunc` is a pair of integer polynomials in a unique reduced form, and
its arithmetic is the kernel's: `poly_mul`, `poly_add` and the gcd
`zpoly_gcd`, a heuristic gcd on packed integers whose answer is proved by
exact division, with a remainder-sequence fallback. Every elimination runs
in the kernel too, through the one fraction-free loop
`fraction_free_gauss_jordan` over Z[t], at a packing width proved by a
Hadamard-type bound: Gauss-Jordan for the propagator, whose pivots also
give the exactness rank, and forward-only for the Fox minor's determinant.
`FieldMatrix`, a dense matrix over Q(t), is the view that the complex and
the propagator are read and serialized through; its reduced form and
determinant write each row over one denominator and call the same loop.
`Polynomial`, with coefficients in Q, is a
read-only view with no arithmetic: the monic-denominator display form of a
`RatFunc`'s parts and the type of the Fox oracle's Alexander polynomial.

Everything here is immutable and pure: values can be shared freely between
threads. Coefficients are Python ints in Z[t] and `fractions.Fraction` in
Q[t], so there is no precision ceiling and no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Coeffish = Union[int, Fraction]


def _coerce(c: Coeffish) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")


class Polynomial:
    """Univariate polynomial over Q, coefficients stored constant-term first:
    a read-only view for display and evaluation. All arithmetic runs on
    `RatFunc` and the Z[t] kernel.

    The zero polynomial is the empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeffish] = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __call__(self, x: Coeffish) -> Fraction:
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
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

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


class RatFunc:
    """Element of Q(t), stored as znum / zden: integer coefficient tuples,
    constant term first, with

    - no common factor of znum and zden in Z[t], not even a constant one;
    - a positive leading coefficient of zden;
    - zero stored as () / (1,).

    The form is unique. If two such pairs have the same value, one pair is a
    rational multiple q of the other; joint content 1 makes q = +-1, and the
    positive leading coefficient makes q = 1. So equality and hashing are
    structural. `num` and `den` give the same value over Q with a monic
    denominator, the form of the schema-v1 JSON strings.

    `RatFunc(num, den)` takes Polynomials, rational constants or sequences of
    int and Fraction coefficients (trailing zeros allowed); every value,
    arithmetic results included, is reduced here by `zpoly_gcd`.
    """

    __slots__ = ("znum", "zden")

    def __init__(self, num, den=(1,)):
        (num, num_int), (den, den_int) = _coefficients(num), _coefficients(den)
        if not (num_int and den_int):
            scale = lcm(*(c.denominator for c in num), *(c.denominator for c in den))
            num = [c.numerator * (scale // c.denominator) for c in num]
            den = [c.numerator * (scale // c.denominator) for c in den]
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        # The gcd's cofactors have joint content 1; fixing the sign of the
        # denominator's leading coefficient leaves the unique form.
        _, num, den = zpoly_gcd(num, den)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        object.__setattr__(self, "znum", tuple(num))
        object.__setattr__(self, "zden", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return _ZERO

    @classmethod
    def one(cls) -> "RatFunc":
        return _ONE

    @classmethod
    def t(cls) -> "RatFunc":
        return cls((0, 1))

    @classmethod
    def t_power(cls, m: int) -> "RatFunc":
        """t^m for any integer m."""
        if m >= 0:
            return cls((0,) * m + (1,))
        return cls((1,), (0,) * (-m) + (1,))

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

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.znum

    def is_constant(self) -> bool:
        return len(self.znum) <= 1 and len(self.zden) == 1

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(self.znum[0] if self.znum else 0, self.zden[0])

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.znum == other.znum and self.zden == other.zden)

    def __hash__(self) -> int:
        return hash(("RatFunc", self.znum, self.zden))

    def __neg__(self) -> "RatFunc":
        # (-znum, zden) keeps joint content 1 and the denominator's sign, so
        # it is already the reduced form: no gcd.
        out = object.__new__(RatFunc)
        object.__setattr__(out, "znum", tuple(-c for c in self.znum))
        object.__setattr__(out, "zden", self.zden)
        return out

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(poly_add(poly_mul(self.znum, other.zden),
                                poly_mul(other.znum, self.zden)),
                       poly_mul(self.zden, other.zden))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(poly_mul(self.znum, other.znum), poly_mul(self.zden, other.zden))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(poly_mul(self.znum, other.zden), poly_mul(self.zden, other.znum))

    def derivative(self) -> "RatFunc":
        """Quotient-rule derivative, in canonical form."""
        num, den = self.znum, self.zden
        return RatFunc(poly_add(poly_mul(_derivative(num), den),
                                poly_mul(num, _derivative(den)), -1),
                       poly_mul(den, den))

    def __call__(self, x: Coeffish) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"{self} has a pole at t={x}")
        return self.num(x) / d

    # -- display / serialization --------------------------------------

    def __str__(self) -> str:
        if len(self.zden) == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        """Machine-stable form: exact coefficient strings of `num` and `den`,
        constant term first."""
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
            "display": str(self),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RatFunc":
        return cls([Fraction(c) for c in data["num"]], [Fraction(c) for c in data["den"]])


def _coefficients(p) -> Tuple[list, bool]:
    """The coefficients of a Polynomial, a rational constant or a sequence of
    rationals, as a new list, and whether they are all ints."""
    if isinstance(p, Polynomial):
        return list(p.coeffs), False
    if isinstance(p, (int, Fraction)):
        return [p], isinstance(p, int)
    cs = list(p)
    integral = True
    for c in cs:
        if type(c) is not int:
            if isinstance(c, Fraction):
                integral = False
            elif not isinstance(c, int):
                raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")
    return cs, integral


def _derivative(p: Sequence[int]) -> IntPoly:
    return [i * c for i, c in enumerate(p)][1:]


def unit_equal(a: RatFunc, b: RatFunc) -> bool:
    """True iff a = ±t^m · b for some integer m; zero is only unit-equal to zero."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    # In the reduced form, a ratio +-t^m is (+-t^i)/(t^j).
    q = a / b
    return (not any(q.znum[:-1]) and not any(q.zden[:-1])
            and abs(q.znum[-1]) == 1 == q.zden[-1])


class FieldMatrix:
    """Dense row-major matrix over Q(t)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[RatFunc]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the matrix shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> RatFunc:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(("FieldMatrix", self.rows, self.cols, self.entries))

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        ) + "]"

    # -- arithmetic and elimination -------------------------------------
    #
    # No library path calls `__matmul__`, `rref` or `det`; they stay because
    # perfbench keys its algebra.matmul/rref/det metrics on these methods.

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = RatFunc.zero()
        out = []
        for i in range(self.rows):
            srow = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = srow[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.entry(k, j)
                out.append(acc)
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
        """Reduced row echelon form.

        Returns (rref matrix, pivot column list, rank). Scaling rows does not
        change the reduced form, so it is the fraction-free elimination of the
        cleared rows with each row divided by the common pivot.
        """
        reduced, pivots, _ = fraction_free_gauss_jordan(self.cleared_rows()[1])
        delta = reduced[0][pivots[0]] if pivots else [1]
        entries = [RatFunc(x, delta) for row in reduced for x in row]
        return FieldMatrix(self.rows, self.cols, entries), pivots, len(pivots)

    def det(self) -> RatFunc:
        """Exact determinant: sign * delta of the cleared rows over the
        product of the row denominators, with delta the last pivot of the
        forward elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        lam, rows = self.cleared_rows()
        reduced, pivots, sign = fraction_free_gauss_jordan(rows, forward=True)
        if len(pivots) < self.rows:
            return RatFunc.zero()
        delta = reduced[-1][pivots[-1]] if pivots else [1]
        den = [1]
        for d in lam:
            den = poly_mul(den, d)
        return RatFunc([sign * c for c in delta], den)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json() for e in self.row(i)] for i in range(self.rows)],
        }


# -- matrices over Z[t] ----------------------------------------------------
#
# A polynomial here is a list of int coefficients, constant term first, with
# no trailing zeros; [] is zero. Products use Kronecker substitution: a
# polynomial whose coefficients lie below 2^(k-1) in absolute value is packed
# into the integer f(2^k), one CPython multiplication multiplies two packed
# polynomials, and the signed base-2^k digits of a packed value are its
# coefficients. Evaluation at 2^k is a ring map, and a quotient that is exact
# in Z[t] stays exact after it, so a whole computation can run on packed
# integers and be unpacked once, when k bounds every coefficient unpacked.
# Under that bound a packed value is zero exactly when its polynomial is.
# Intermediate products need no bound, only the values unpacked or tested
# for zero. In the elimination those are minors of its input, and k comes
# from `_minor_bound`, a proved bound on every coefficient of every minor;
# every division still checks its remainder.

IntPoly = List[int]


def _pack(coeffs: Sequence[int], k: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = (n << k) + c
    return n


def _unpack(n: int, k: int) -> IntPoly:
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


def pmat_mul(a: Sequence[Sequence[IntPoly]],
             b: Sequence[Sequence[IntPoly]]) -> List[List[IntPoly]]:
    """Product of two matrices over Z[t], each a list of rows of coefficient
    lists."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("shape mismatch in matrix product")
    cols = len(b[0]) if inner else 0
    # Every coefficient of (ab)_ij is at most sum_l |a_il|_1 * max |b|_1.
    bound = (max((sum(map(_norm1, row)) for row in a), default=0)
             * max((_norm1(x) for row in b for x in row), default=0))
    k = _packing_bits(bound)
    pb = [[_pack(x, k) for x in row] for row in b]
    out = []
    for row in a:
        terms = [(v, pb[l]) for l, v in enumerate(_pack(x, k) for x in row) if v]
        out.append([_unpack(sum(v * brow[j] for v, brow in terms), k)
                    for j in range(cols)])
    return out


def _minor_bound(rows: Sequence[Sequence[IntPoly]]) -> int:
    """The largest absolute value a coefficient of a minor of `rows` can
    have, by the Hadamard-type bound of Goldstein and Graham (SIAM Review
    16, 1974).

    For a square matrix A over Z[t], Parseval's identity makes the sum of
    the squared coefficients of det A the mean of |det A(z)|^2 over the unit
    circle, and at each such z Hadamard's inequality bounds |det A(z)|^2 by
    prod_i sum_j |a_ij(z)|^2 <= prod_i sum_j |a_ij|_1^2. For a minor, a row
    left out removes a factor that max(1, .) makes at least 1, and a column
    left out removes terms; the same holds with rows and columns exchanged,
    since det A = det A^T. So every coefficient c of every minor has
    c^2 <= P, for P the smaller of the row and the column product, and
    |c| <= isqrt(P).
    """
    squares = [[_norm1(x) ** 2 for x in row] for row in rows]
    by_rows = prod(max(1, sum(row)) for row in squares)
    by_cols = prod(max(1, sum(col)) for col in zip(*squares))
    return isqrt(min(by_rows, by_cols))


def fraction_free_gauss_jordan(rows: Sequence[Sequence[IntPoly]], forward: bool = False
                               ) -> Tuple[List[List[IntPoly]], List[int], int]:
    """Reduced echelon form over Z[t] by fraction-free Gauss-Jordan elimination
    (Bareiss 1968, extended to the rows above each pivot); with `forward`,
    the echelon form of Bareiss's forward elimination.

    Returns (reduced rows, pivot columns, sign). Pivot columns are found left
    to right and the pivot row is the first one below with a nonzero entry,
    so the pivot columns are the leftmost ones independent of those before
    them, and the rows below the rank are zero. In Gauss-Jordan mode row r
    of the result has its pivot in column pivots[r] and every pivot entry
    equals the last pivot delta. When the input has full row rank, its pivot
    columns form a square matrix B, the result is delta * B^-1 * input, and
    sign * delta = det B, where sign = +-1 is the sign of the row swaps
    made. Forward mode eliminates only the rows below each pivot: row r of
    the result holds minors of order r + 1, and its pivot entry is the
    leading principal minor of that order of the row-swapped B, so the last
    pivot is delta and sign * delta = det B still. That is all a rank or a
    determinant reads. Every quotient taken is exact in Z[t]; a remainder
    raises ArithmeticError.

    Rows are rescaled lazily. With p_0 = 1 and p_s the pivot of step s, step
    s sends a row r it eliminates to (p_s * r - f * top) / p_(s-1), where f
    is r's entry in the pivot column, and leaves the pivot row as it is.
    When f = 0 that is r * p_s / p_(s-1), so a row whose multiplier stays
    zero from step l+1 to step s is r * p_s / p_l: level[r] = l records the
    last step at which the row was brought up to date, and the row is
    rescaled only when it is next used, as a pivot row or with a nonzero
    multiplier, and, in Gauss-Jordan mode, once more at the end. That
    catch-up division is exact: the up-to-date row is the row eager
    elimination would hold, a row of minors of the input, so p_l divides
    r * p_s in Z[t]. Forward mode keeps the same invariant for the rows it
    eliminates, since eager forward Bareiss holds minors too (the leading
    pivot block bordered by one row and one column). There a pivot row is
    caught up when it is chosen and never touched again, and a row below
    the rank ends at zero, which no rescaling changes, so forward mode skips
    the final catch-up. Rescaling by the nonzero ratio p_s / p_l keeps zero
    entries zero, so the pivot search may read rows that are not up to
    date. Zero entries are skipped: they need no product and no division.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    # Every entry met is a minor of the input.
    k = _packing_bits(_minor_bound(rows))
    m = [[_pack(x, k) for x in row] for row in rows]
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
        for r in range(pr + 1 if forward else 0, nrows):
            if r == pr or not m[r][pc]:
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
    if not forward:
        for r in range(nrows):
            catch_up(r)
    return [[_unpack(v, k) for v in row] for row in m], pivots, sign


def _exact_div(a: int, b: int) -> int:
    """a / b for packed values, raising ArithmeticError on a remainder."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


# -- gcd over Z[t] ---------------------------------------------------------
#
# GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 1989) on the packed
# integers: for primitive f and g, take the integer gcd of f(2^k) and g(2^k)
# with 2^k >= 2*min(|f|_inf, |g|_inf) + 2, and read a candidate h off its
# signed base-2^k digits. Every root of f (say) has modulus below
# 1 + |f|_inf <= 2^(k-1), so a nonconstant factor u of f has |u(2^k)| > 2^(k-1),
# while the digits, and so the content of h, are at most 2^(k-1). If pp(h)
# divides f and g, gcd(f, g) = pp(h) * u with u(2^k) dividing that content,
# hence u = +-1 and pp(h) is the gcd. Divisibility is proved by exhibiting
# the quotient, so an accepted candidate is never a guess; when the
# candidates fail, the primitive polynomial remainder sequence (Collins 1967,
# Brown 1971) decides.

_HEURISTIC_TRIES = 4


def _primitive(p: Sequence[int]) -> IntPoly:
    """p over its content, with a positive leading coefficient."""
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return [x // c for x in p]


def _exact_quotient(f: Sequence[int], h: Sequence[int]) -> Optional[IntPoly]:
    """f / h in Z[t] if h divides f, else None; h is nonzero.

    A quotient q of f has |q|_inf <= 2^deg(q) * |f|_1 (Mignotte), and the
    packing width holds h * q under that bound. So if h divides f, the packed
    division is exact and unpacks to q. Conversely, an exact division whose
    quotient unpacks within the bound makes h * q and f two polynomials with
    coefficients inside the width and the same packed value, hence equal.
    """
    if not f:
        return []
    dq = len(f) - len(h)
    if dq < 0 or f[-1] % h[-1] or (h[0] and f[0] % h[0]):
        return None
    bound = (1 << dq) * _norm1(f)
    k = _packing_bits(bound * _norm1(h))
    q, rem = divmod(_pack(f, k), _pack(h, k))
    if rem:
        return None
    q = _unpack(q, k)
    return q if max(map(abs, q)) <= bound else None


def _prs_gcd(f: Sequence[int], g: Sequence[int]) -> IntPoly:
    """gcd of nonzero f and g by the primitive remainder sequence, primitive
    with a positive leading coefficient."""
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
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
    return a


def _primitive_gcd(f: IntPoly, g: IntPoly) -> Tuple[IntPoly, IntPoly, IntPoly]:
    """(h, f/h, g/h) for primitive f and g with nonzero constant terms."""
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
    for _ in range(_HEURISTIC_TRIES):
        h = _primitive(_unpack(gcd(_pack(f, k), _pack(g, k)), k))
        if len(h) == 1:
            return h, f, g
        qf = _exact_quotient(f, h)
        if qf is not None:
            qg = _exact_quotient(g, h)
            if qg is not None:
                return h, qf, qg
        k += k // 2 + 1
    h = _prs_gcd(f, g)
    qf, qg = _exact_quotient(f, h), _exact_quotient(g, h)
    if qf is None or qg is None:
        raise ArithmeticError("remainder-sequence gcd does not divide its inputs")
    return h, qf, qg


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
    h, qa, qb = _primitive_gcd([x // ca for x in a[va:]], [x // cb for x in b[vb:]])
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


# Shared by RatFunc.zero() and RatFunc.one(); made last, since the
# constructor needs the kernel above.
_ZERO = RatFunc(())
_ONE = RatFunc((1,))
