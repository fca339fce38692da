"""The three-term chain complex of a Dehn graph under a one-dimensional
representation, over Z[t].

C_2 has one basis vector per crossing vertex, C_1 one per bounded-region
vertex, C_0 the basepoint. d2 is held by its nonzeros, one column of at
most four entries per crossing (`ChainComplex.d2_cols`), and d1 as one row
over Z[t] over a power of t (DERIVATION.md §2). A complex makes one
elimination, of [B0 | I] with B0 = [d2 | e_s0] and s0 the first coordinate
where d1 is nonzero (§3.5). The exactness report reads rank(d2) off its
pivots (§2), and on an exact complex its back substitution gives the
scaled inverse X = delta0 * B0^-1, certified where it is made (§4), which
every propagator reads (`invariants.propagator_at`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ._value import Value
from .algebra import (IntPoly, _products_cancel, _trim, _unpack,
                      fraction_free_back_substitution, fraction_free_elimination,
                      is_diagonal_product, poly_add, product_headroom)
from .dehngraph import DehnGraph
from .errors import DehnError
from .words import Word, exponent_sum

ZPoly = Tuple[int, ...]  # a Z[t] coefficient tuple, constant term first


class Representation(Value):
    """A one-dimensional representation of the knot group: every arc
    generator goes to t^k, so a signed word goes to its sign times t^(k *
    exponent sum) (DERIVATION.md §2). `abelian` takes k = 1, the
    representation every invariant is computed under; `trivial` takes k = 0,
    whose complex is not exact."""

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

    @property
    def c2_dim(self) -> int:
        return len(self.d2_cols)

    @property
    def c1_dim(self) -> int:
        return len(self.d1_row)

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
        per complex, its rows sorted by their count of nonzeros in B0, fewest
        first and ties in coordinate order. Returns (rows, pivots, sign, width),
        the rows packed, with sign * delta0 = det B0. The width is the kernel's
        proved one plus the headroom that the certificate and the trace's unpack
        need (DERIVATION.md §3.5)."""
        b0 = self._b0_columns
        rows: List[Dict[int, ZPoly]] = [{} for _ in self.d1_row]
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
        """X = delta0 * B0^-1, packed at the width of `forward_elimination`:
        row r < c2 belongs to column r of d2, the last row, v, to e_s0
        (DERIVATION.md §3.5). Certified by `_certify_inverse` before it is
        returned. Read only on an exact complex, where B0 is invertible."""
        x = fraction_free_back_substitution(self.forward_elimination[0], self.c1_dim)
        _certify_inverse(self, x)
        return x

    @cached_property
    def _exactness(self) -> ExactnessReport:
        """The `ExactnessReport` of `check_exactness`: the four conditions of
        DERIVATION.md §2 in order, rank(d2) read off the pivots of
        `forward_elimination`, the witness naming the first that fails."""
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
        """d1 * d2 = 0, tested as D1 * d2 = 0 over Z[t] one column of d2 at a
        time by `algebra._products_cancel`, whatever the size of the entries
        (DERIVATION.md §2)."""
        d1 = self.d1_row
        return all(_products_cancel(*((1, d1[i], e) for i, e in col if d1[i]))
                   for col in self.d2_cols)


def build_complex(graph: DehnGraph, rep: Representation) -> ChainComplex:
    """The complex of a Dehn graph under `rep`, read off its labelings by
    position (DERIVATION.md §2): column c of d2 is crossing c, and row i of
    d2 and d1 the i-th bounded region q. The d2 entry at (q, c) is the sum of
    the images sign * t^e of c's corner labels in q, and d1[q] is 1 minus the
    image of q's label, both d1 terms shifted by t^a, a = max(0, -least e). A
    corner label that maps to a negative power of t is a `DehnError` naming
    the corner."""
    u = graph.diagram.unbounded_region
    d2 = []
    for c, (labels, regions) in enumerate(zip(graph.d1, graph.diagram.corner_region)):
        col: Dict[int, IntPoly] = {}
        for p, (label, r) in enumerate(zip(labels, regions)):
            if r == u:
                continue
            m = rep.exponent(label.word)
            if m < 0:
                raise DehnError(f"corner {p} of crossing {c} has label {label}, which "
                                f"maps to t^{m}: a boundary entry of d2 must be a "
                                "polynomial in t")
            entry = col.setdefault(r - (r > u), [])  # u has no row
            entry.extend([0] * (m + 1 - len(entry)))
            entry[m] += label.sign
        # Terms that cancel leave zeros to trim, and an entry trimmed to zero is left out.
        d2.append(tuple((i, tuple(x)) for i, x in sorted(col.items()) if _trim(x)))
    ms = [rep.exponent(graph.d2[r]) for r in graph.diagram.bounded_regions()]
    a = max([0] + [-m for m in ms])
    den = (0,) * a + (1,)
    return ChainComplex(tuple(d2), den, tuple(tuple(poly_add(den, [-1], shift=m + a)) for m in ms))


def _certify_inverse(cx: ChainComplex, x: List[List[int]]) -> None:
    """Certify X = delta0 * B0^-1, packed at the width of
    `cx.forward_elimination`: delta0 = X[c2][s0] != 0 and X * B0 = delta0 * I
    over Z[t], one packed `is_diagonal_product` test of all of X. A failure is
    a `DehnError`. On a complex that passed `check_exactness` this proves the
    three propagator identities of every coordinate, but not the scale of
    delta0 (DERIVATION.md §4, §5)."""
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
    d1 * d2 = 0 (DERIVATION.md §2); the witness names the first of these that
    fails. The report is computed on the first call for a complex and read
    from it on every later one."""
    return cx._exactness
