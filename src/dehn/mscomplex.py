"""The three-term chain complex of a Dehn graph under a one-dimensional
representation.

C_2 has one basis vector per crossing vertex, C_1 one per bounded-region
vertex, C_0 just the basepoint. A boundary entry from vertex p to vertex q
is the sum over the edges p -> q of the images of their labels. Every
generator goes to the same scalar t^k (k = 1 abelian, k = 0 trivial), so a
signed word maps to the sign times t^(k * exponent sum), and the complex is
held over Z[t]: the corner labels +-1, +-x make d2 a matrix over Z[t], and
d1, from the region labels, is one row over Z[t] over a power of t. It is
held and checked over Z[t] only, never over Q(t). d2 is held by its
nonzeros, one column per crossing (`ChainComplex.d2_cols`): a crossing
has four corners, so a column has at most four nonzero entries, and every
reader of d2, the elimination's input and its widths, the certificate and
d1 * d2 = 0 here and the trace in `invariants`, walks those columns, so
its work grows with the crossings, not with their square. A complex makes
one elimination, once: the forward elimination of [B0 | I], B0 = [d2 |
e_s0], with s0 the first coordinate where d1 is nonzero. The exactness
report that `check_exactness` returns reads rank(d2) off its pivots. On
an exact complex B0 is invertible, and one fraction-free back
substitution of its rows gives X = delta0 * B0^-1: the base propagator's
numerators N0, and v = delta0 * phi, phi the functional that vanishes on
im(d2) with phi(e_s0) = 1. One packed product test, X * B0 = delta0 *
I, certifies X where it is made (`_certify_inverse`), and every
propagator, whatever coordinate it selects, holds the complex and reads
X, its width, s0 and its sign off it (`invariants.propagator_at`): the
base one as N0 over delta0, another by a rank-one change. The complex
keeps nothing for the defect: the propagator forms the trace sums off X
as its own views, the paper's edge sum regrouped over the pivot
exchange, with one exact division (`invariants._traces`). The
back substitution's divisions are exact and its values are minors of [B0
| I], so the elimination's proved width holds for them
(`algebra.fraction_free_back_substitution`). The elimination packs with
headroom over that width for the two packed reads that need it: the
certificate's product test, and the trace's one unpack, whose width the
`invariants` module docstring proves. The exactness report, d1 * d2 = 0
included, is the complex's whole check of itself; the certificate rests
on it. It tests d1 * d2 = 0 on D1 and d2 as the complex holds them, as
coefficient lists, so it borrows no width (`ChainComplex._exactness`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ._value import Value
from .algebra import (IntPoly, _products_cancel, _trim, _unpack,
                      fraction_free_back_substitution, fraction_free_elimination,
                      is_diagonal_product, poly_add, product_headroom)
from .dehngraph import BASEPOINT, DehnGraph
from .errors import DehnError
from .words import Word, exponent_sum

ZPoly = Tuple[int, ...]  # a Z[t] coefficient tuple, constant term first


class Representation(Value):
    """A one-dimensional representation of the knot group: every arc
    generator goes to u = t^k, so a word goes to t^(k * exponent sum), and a
    signed word to its sign times that. The complex needs only the exponent.

    `abelian` takes k = 1, the representation every invariant is computed
    under. `trivial` takes k = 0; its complex is not exact, the control that
    the exactness check can fail.
    """

    k: int

    @classmethod
    def abelian(cls) -> "Representation":
        return cls(1)

    @classmethod
    def trivial(cls) -> "Representation":
        return cls(0)

    def exponent(self, word: Word) -> int:
        """The power of t that the word maps to."""
        return self.k * exponent_sum(word)


class ChainComplex(Value):
    # d2 by its nonzeros: one column per crossing, its (row, entry) pairs
    # over Z[t] in ascending row order, zero entries left out.
    d2_cols: Tuple[Tuple[Tuple[int, ZPoly], ...], ...]
    d1_den: ZPoly  # t^a
    d1_row: Tuple[ZPoly, ...]  # c1_dim: d1 = d1_row / d1_den
    c2_basis: Tuple[str, ...]  # crossing vertex ids
    c1_basis: Tuple[str, ...]  # region vertex ids

    @property
    def c2_dim(self) -> int:
        return len(self.c2_basis)

    @property
    def c1_dim(self) -> int:
        return len(self.c1_basis)

    @cached_property
    def base_coordinate(self) -> Optional[int]:
        """s0, the first coordinate with d1[s0] != 0; None when d1 = 0."""
        return next((j for j, x in enumerate(self.d1_row) if x), None)

    @cached_property
    def _b0_columns(self) -> List[Tuple[Tuple[int, ZPoly], ...]]:
        """B0 = [d2 | e_s0] over Z[t] by its nonzeros: the columns of d2,
        then e_s0, which is zero when d1 = 0."""
        s0 = self.base_coordinate
        return [*self.d2_cols, () if s0 is None else ((s0, (1,)),)]

    @cached_property
    def forward_elimination(self) -> Tuple[List[List[int]], List[int], int, int]:
        """The `fraction_free_elimination` of [B0 | I] over Z[t], done once
        per complex, its rows packed and sorted by their count of nonzeros
        in B0, fewest first and ties in coordinate order, so that sparse
        rows pivot early. Returns (rows, pivots, sign, width) with sign *
        delta = det B0, the sort's parity folded into `sign`.

        The width is the kernel's proved one, k, plus max(c, b) bits of
        headroom. c = `product_headroom(B0)` is what the certificate of the
        inverse needs (see `_certify_inverse`). b = W.bit_length(), W =
        sum_ij |t d2'[i][j]|_1, is what the trace's one unpack needs; the
        `invariants` module docstring proves it. Every count and norm here
        is read off the nonzeros of B0, and the rows go to the kernel as
        mappings from column to entry."""
        b0 = self._b0_columns
        rows: List[Dict[int, ZPoly]] = [{} for _ in self.c1_basis]
        for j, col in enumerate(b0):
            for i, e in col:
                rows[i][j] = e
        order = sorted(range(self.c1_dim), key=lambda i: len(rows[i]))
        for i, row in enumerate(rows):
            row[len(b0) + i] = (1,)
        trace_norm = sum(m * abs(c) for col in self.d2_cols for _, e in col
                         for m, c in enumerate(e))
        reduced, pivots, sign, width = fraction_free_elimination(
            [rows[i] for i in order], len(b0) + self.c1_dim,
            max(product_headroom(b0), trace_norm.bit_length()))
        return reduced, pivots, sign * _parity(order), width

    @cached_property
    def scaled_inverse(self) -> List[List[int]]:
        """X = delta0 * B0^-1, packed at the width of `forward_elimination`,
        by fraction-free back substitution on its rows and certified by
        `_certify_inverse` before it is returned: row r < c2 belongs to
        column r of d2, the last row to e_s0. Read only on an exact
        complex, where B0 is invertible (see `invariants.Propagator`). The
        sort permutes the rows of [B0 | I] into [P * B0 | P], and back
        substitution gives delta0 * (P * B0)^-1 * P = delta0 * B0^-1."""
        x = fraction_free_back_substitution(self.forward_elimination[0], self.c1_dim)
        _certify_inverse(self, x)
        return x

    @cached_property
    def _exactness(self) -> ExactnessReport:
        """Exact iff the middle dimension matches, d2 injects, d1 surjects and
        d1 * d2 = 0. The kernel's pivot columns are the leftmost ones
        independent of those before them, and the columns of d2 come
        first, so rank(d2) is the number of pivots among them in
        `forward_elimination`; sorting the rows changes no rank. C_0 has
        rank 1, so d1 surjects iff it has a nonzero entry. d1 * d2 = 0
        (`_d1_d2_vanishes`) is tested last, so that every earlier witness
        stays as it was."""
        if self.c1_dim != self.c2_dim + 1:
            return ExactnessReport(False,
                                   f"dimension mismatch: {self.c1_dim} != {self.c2_dim} + 1")
        r2 = sum(p < self.c2_dim for p in self.forward_elimination[1])
        if r2 != self.c2_dim:
            return ExactnessReport(False, f"rank(d2) = {r2} < {self.c2_dim}")
        if not any(self.d1_row):
            return ExactnessReport(False, "rank(d1) = 0 < 1")
        if not self._d1_d2_vanishes():
            return ExactnessReport(False, "d1*d2 != 0")
        return ExactnessReport(True, None)

    def _d1_d2_vanishes(self) -> bool:
        """d1 * d2 = 0 iff D1 * d2 = 0 over Z[t], D1 = `d1_row`: one column
        of d2 at a time, over its nonzeros, by `algebra._products_cancel`,
        exact at a width it reads off D1 and that column, whatever their
        size."""
        d1 = self.d1_row
        return all(_products_cancel(*((1, d1[i], e) for i, e in col if d1[i]))
                   for col in self.d2_cols)


def build_complex(graph: DehnGraph, rep: Representation) -> ChainComplex:
    """Add each edge's term sign * t^e into its entry over Z[t], a d2 entry
    into its crossing's column, which holds only the regions it meets. The
    d1 terms are shifted by t^a, a = max(0, -least e), to make the row
    polynomial. An edge that runs neither from a crossing to a region nor
    from a region to the basepoint is a `DehnError` naming it."""
    c2_pos = {vid: i for i, vid in enumerate(graph.crossing_vertices)}
    c1_pos = {vid: i for i, vid in enumerate(graph.region_vertices)}
    d2: List[Dict[int, IntPoly]] = [{} for _ in c2_pos]
    d1_terms = []
    for e in graph.edges:
        m = rep.exponent(e.label.word)
        if e.target == BASEPOINT and e.source in c1_pos:
            d1_terms.append((c1_pos[e.source], e.label.sign, m))
            continue
        if e.source not in c2_pos or e.target not in c1_pos:
            raise DehnError(f"edge {e.source} -> {e.target} runs neither from a "
                            "crossing to a region nor from a region to the basepoint")
        if m < 0:
            raise DehnError(f"edge {e.source} -> {e.target} has label {e.label}, "
                            f"which maps to t^{m}: a boundary entry of d2 must be "
                            "a polynomial in t")
        entry = d2[c2_pos[e.source]].setdefault(c1_pos[e.target], [])
        entry.extend([0] * (m + 1 - len(entry)))
        entry[m] += e.label.sign
    a = max([0] + [-m for _, _, m in d1_terms])
    d1: List[IntPoly] = [[] for _ in c1_pos]
    for j, sign, m in d1_terms:
        d1[j] = poly_add(d1[j], [sign], shift=m + a)
    # Terms that cancel leave zeros to trim, and an entry trimmed to zero is left out.
    return ChainComplex(tuple(tuple((i, tuple(x)) for i, x in sorted(col.items()) if _trim(x))
                              for col in d2),
                        (0,) * a + (1,), tuple(tuple(x) for x in d1),
                        graph.crossing_vertices, graph.region_vertices)


def _certify_inverse(cx: ChainComplex, x: List[List[int]]) -> None:
    """Certify X = delta0 * B0^-1, packed at w = the width of
    `cx.forward_elimination`, B0 = [d2 | e_s0], by checking delta0 = X[c2][s0]
    != 0 and X * B0 = delta0 * I over Z[t]; a failure is a `DehnError`.
    Row r < c2 of that equation says N0[r] * d2 = delta0 * e_r and N0[r][s0]
    = 0, the last row v * d2 = 0 and v[s0] = delta0, so it is one packed
    `is_diagonal_product` test of all of X.

    On a complex that passed `check_exactness` (c1 = c2 + 1, d1 != 0, d1 *
    d2 = 0), that makes the base propagator, N0 over delta0 selecting s0,
    satisfy g2*d2 = id, d1*g1 = id and d2*g2 + g1*d1 = id. N0 * d2 = delta0
    * id makes d2 injective, so im(d2) = ker(d1). If d1[s0] were 0, then
    e_s0 = d2 * y with y != 0 and N0 * e_s0 = delta0 * y != 0; the zero
    column forces d1[s0] != 0, so g1 is defined and d1*g1 = 1. M = d2 * N0
    / delta0 + e_s0 * d1 / d1[s0] fixes every column of d2, because d1*d2 =
    0, and fixes e_s0, because column s0 of N0 is zero; those c1 vectors
    form a basis, so M = id. The equation also makes B0 invertible and X
    = delta0 * B0^-1 itself, so v = delta0 * phi, which every other
    propagator reads (`invariants.Propagator.numer` proves its identities
    from these rows). It does not pin the scale of delta0: (c * X, c *
    delta0) passes for any nonzero polynomial c.

    X is checked as it is held, packed; X is by definition what its packed
    entries unpack to. The packed test is exact once it has bounded every
    digit of X and delta0 by 2^j, j = w - c, c = `product_headroom(B0)`
    (`algebra.is_diagonal_product`). A correct X and delta0 are minors of
    [B0 | I], every coefficient below 2^(k-1) for k the kernel's proved
    width, and the elimination packs at w >= k + c, so they pass; an X with
    a digit past 2^j is refused, whether or not its product holds. delta0
    = 0 is refused first: with X = 0 every packed side would read 0."""
    width = cx.forward_elimination[3]
    delta0 = _unpack(x[-1][cx.base_coordinate], width)
    if not delta0:
        raise DehnError("propagator has delta = 0")
    # v and e_s0 go first: the test packs each column of X into one integer,
    # row r in slot r, and v, dense, in the top slot would widen them all.
    b0 = cx._b0_columns
    if not is_diagonal_product(x[-1:] + x[:-1], b0[-1:] + b0[:-1], delta0, width):
        raise DehnError("propagator identity X * [d2 | e_s0] = delta0 * I failed")


def _parity(order: List[int]) -> int:
    """The sign of a permutation: a cycle of length l is l - 1 swaps."""
    seen, sign = [False] * len(order), 1
    for start in range(len(order)):
        if not seen[start]:
            seen[start], j = True, order[start]
            while j != start:
                seen[j], j, sign = True, order[j], -sign
    return sign


class ExactnessReport(Value):
    exact: bool
    witness: Optional[str]  # None when exact


def check_exactness(cx: ChainComplex) -> ExactnessReport:
    """Exact iff the middle dimension matches, d2 injects, d1 surjects and
    d1 * d2 = 0; the witness names the first of these that fails.
    The report is computed on the first call for a complex and read from it
    on every later one."""
    return cx._exactness
