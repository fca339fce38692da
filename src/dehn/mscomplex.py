"""The three-term chain complex of a Dehn graph under a one-dimensional
representation.

C_2 has one basis vector per crossing vertex, C_1 one per bounded-region
vertex, C_0 one for the basepoint. A boundary entry from vertex p to vertex q
is the sum over the edges p -> q of the images of their labels. Every
generator goes to the same scalar t^k (k = 1 abelian, k = 0 trivial), so a
signed word maps to the sign times t^(k * exponent sum), and the complex is
held over Z[t]: the corner labels +-1, +-x make d2 a matrix over Z[t], and
d1, from the region labels, is one row over Z[t] over a power of t. The
Q(t) matrices `d2` and `d1` are views built on first read. The elimination
of [d2 | I] is done once per complex: the exactness report that
`check_exactness` returns reads rank(d2) off its pivots, and the default
propagator is read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import FieldMatrix, IntPoly, RatFunc, fraction_free_gauss_jordan, poly_add
from .dehngraph import BASEPOINT, DehnGraph, GroupRingTerm
from .errors import DehnError
from .words import Word, exponent_sum

ZPoly = Tuple[int, ...]  # a Z[t] coefficient tuple, constant term first


class Representation:
    """A one-dimensional representation of the knot group over Q(t): every
    arc generator goes to u = t^k, a word to t^(k * exponent sum), with one
    image per exponent, made on first use.

    `abelian` takes k = 1, the representation every invariant is computed
    under. `trivial` takes k = 0; its complex is not exact, the control that
    the exactness check can fail.
    """

    def __init__(self, kind: str, k: int):
        self.kind = kind
        self._k = k
        self._images: Dict[int, RatFunc] = {}

    @classmethod
    def abelian(cls) -> "Representation":
        return cls("abelian", 1)

    @classmethod
    def trivial(cls) -> "Representation":
        return cls("trivial", 0)

    def exponent(self, word: Word) -> int:
        """The power of t that the word maps to."""
        return self._k * exponent_sum(word)

    def word_image(self, word: Word) -> RatFunc:
        m = self.exponent(word)
        image = self._images.get(m)
        if image is None:
            image = self._images[m] = RatFunc.t_power(m)
        return image


def eval_rep(rep: Representation, term: GroupRingTerm) -> RatFunc:
    """Image of a signed word: the sign times the image of the word."""
    image = rep.word_image(term.word)
    return image if term.sign == 1 else -image


@dataclass(frozen=True)
class ChainComplex:
    d2_rows: Tuple[Tuple[ZPoly, ...], ...]  # c1_dim x c2_dim, over Z[t]
    d1_den: ZPoly  # t^a
    d1_row: Tuple[ZPoly, ...]  # c1_dim: d1 = d1_row / d1_den
    c2_basis: Tuple[str, ...]  # crossing vertex ids
    c1_basis: Tuple[str, ...]  # region vertex ids
    c0_basis: Tuple[str, ...]

    @property
    def c2_dim(self) -> int:
        return len(self.c2_basis)

    @property
    def c1_dim(self) -> int:
        return len(self.c1_basis)

    @property
    def c0_dim(self) -> int:
        return len(self.c0_basis)

    def position(self, vertex_id: str) -> int:
        """The position of a vertex in its basis: its row or column index."""
        return self._positions[vertex_id]

    @cached_property
    def d2(self) -> FieldMatrix:
        """d2 as a c1_dim x c2_dim matrix over Q(t), built on first read."""
        zero = RatFunc.zero()
        return FieldMatrix(self.c1_dim, self.c2_dim,
                           [RatFunc(x) if x else zero for row in self.d2_rows for x in row])

    @cached_property
    def d1(self) -> FieldMatrix:
        """d1 as a c0_dim x c1_dim matrix over Q(t), built on first read."""
        return FieldMatrix(self.c0_dim, self.c1_dim,
                           [RatFunc(x, self.d1_den) for x in self.d1_row])

    def eliminate(self, order: Sequence[int]) -> Tuple[List[List[IntPoly]], List[int], int]:
        """`fraction_free_gauss_jordan` of [d2 | unit columns] over Z[t], the
        unit column of coordinate order[p] at column c2 + p."""
        position = {coord: p for p, coord in enumerate(order)}
        rows = []
        for i, row in enumerate(self.d2_rows):
            unit: List[IntPoly] = [[]] * self.c1_dim
            unit[position[i]] = [1]
            rows.append(list(row) + unit)
        return fraction_free_gauss_jordan(rows)

    @cached_property
    def natural_elimination(self) -> Tuple[List[List[IntPoly]], List[int], int]:
        """`eliminate` in the natural coordinate order, [d2 | I], done once
        per complex: the exactness rank and the default propagator read it."""
        return self.eliminate(range(self.c1_dim))

    @cached_property
    def _exactness(self) -> ExactnessReport:
        """Exact iff d2 injects, d1 surjects, and the middle dimension
        matches. [d2 | I] has full row rank, and the kernel's pivot columns
        are the leftmost ones independent of those before them, so rank(d2)
        is the number of pivots among the d2 columns of `natural_elimination`.
        C_0 is one-dimensional, so rank(d1) is 1 iff d1 has a nonzero
        entry."""
        if self.c1_dim != self.c2_dim + self.c0_dim:
            return ExactnessReport(False, "dimension mismatch: "
                                   f"{self.c1_dim} != {self.c2_dim} + {self.c0_dim}")
        r2 = sum(p < self.c2_dim for p in self.natural_elimination[1])
        if r2 != self.c2_dim:
            return ExactnessReport(False, f"rank(d2) = {r2} < {self.c2_dim}")
        r1 = int(any(self.d1_row))
        if r1 != self.c0_dim:
            return ExactnessReport(False, f"rank(d1) = {r1} < {self.c0_dim}")
        return ExactnessReport(True)

    @cached_property
    def _positions(self) -> Dict[str, int]:
        """Vertex id -> basis position, the first basis listing it winning."""
        positions: Dict[str, int] = {}
        for basis in (self.c2_basis, self.c1_basis, self.c0_basis):
            for i, vertex_id in enumerate(basis):
                positions.setdefault(vertex_id, i)
        return positions


def build_complex(graph: DehnGraph, rep: Representation) -> ChainComplex:
    """Add each edge's term sign * t^e into its entry over Z[t]. The d1 terms
    are shifted by t^a, a = max(0, -least e), to make the row polynomial."""
    c2_basis = tuple(v.id for v in graph.vertices if v.index == 2)
    c1_basis = tuple(v.id for v in graph.vertices if v.index == 1)
    c2_pos = {vid: i for i, vid in enumerate(c2_basis)}
    c1_pos = {vid: i for i, vid in enumerate(c1_basis)}
    d2: List[List[IntPoly]] = [[[] for _ in c2_basis] for _ in c1_basis]
    d1_terms = []
    for e in graph.edges:
        m = rep.exponent(e.label.word)
        if e.target == BASEPOINT:
            d1_terms.append((c1_pos[e.source], e.label.sign, m))
            continue
        if m < 0:
            raise DehnError(f"edge {e.source} -> {e.target} has label {e.label}, "
                            f"which maps to t^{m}: a boundary entry of d2 must be "
                            "a polynomial in t")
        i, j = c1_pos[e.target], c2_pos[e.source]
        d2[i][j] = poly_add(d2[i][j], [e.label.sign], shift=m)
    a = max([0] + [-m for _, _, m in d1_terms])
    d1: List[IntPoly] = [[] for _ in c1_basis]
    for j, sign, m in d1_terms:
        d1[j] = poly_add(d1[j], [sign], shift=m + a)
    return ChainComplex(tuple(tuple(tuple(x) for x in row) for row in d2),
                        (0,) * a + (1,), tuple(tuple(x) for x in d1),
                        c2_basis, c1_basis, (BASEPOINT,))


@dataclass(frozen=True)
class ExactnessReport:
    exact: bool
    witness: Optional[str] = None


def check_exactness(cx: ChainComplex) -> ExactnessReport:
    """Exact iff d2 injects, d1 surjects, and the middle dimension matches.
    The report is computed on the first call for a complex and read from it
    on every later one."""
    return cx._exactness


def complex_to_json(cx: ChainComplex) -> dict:
    """Boundary matrices plus the bases that index their rows and columns."""
    return {
        "bases": {
            "c2": list(cx.c2_basis),
            "c1": list(cx.c1_basis),
            "c0": list(cx.c0_basis),
        },
        "d2": cx.d2.to_json(),
        "d1": cx.d1.to_json(),
    }
