"""The three-term chain complex of a Dehn graph under a one-dimensional
representation.

C_2 has one basis vector per crossing vertex, C_1 one per bounded-region
vertex, C_0 one for the basepoint. A boundary entry from vertex p to vertex q
is the sum over the edges p -> q of the images of their labels. A
representation here is one-dimensional: every generator goes to the same
scalar u, so the image of a signed word is the sign times u^(exponent sum).
Under the abelian representation u = t and a word maps to its
abelianisation t^(exponent sum); under the trivial one u = 1.

A `ChainComplex` is immutable, so what every later step needs from it is
computed once and kept on it: the rows of d2 cleared of denominators, d1
over one common denominator, and the exactness report that `check_exactness`
returns on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import (FieldMatrix, RatFunc, common_denominator,
                      fraction_free_gauss_jordan, poly_add)
from .dehngraph import BASEPOINT, DehnGraph, GroupRingTerm
from .words import Word, exponent_sum

ZPoly = Tuple[int, ...]  # a Z[t] coefficient tuple, constant term first


class Representation:
    """A one-dimensional representation of the knot group over Q(t): every
    arc generator goes to the same scalar u, a word to u^(exponent sum), with
    one image per exponent, made on first use.

    `abelian` takes u = t, the representation every invariant is computed
    under. `trivial` takes u = 1; its complex is not exact, the control that
    the exactness check can fail. An image depends only on the exponent sum,
    so the arc count the constructors take is not kept.
    """

    def __init__(self, kind: str, power: Callable[[int], RatFunc]):
        self.kind = kind
        self._power = power
        self._powers: Dict[int, RatFunc] = {}

    @classmethod
    def abelian(cls, arc_count: int) -> "Representation":
        return cls("abelian", RatFunc.t_power)

    @classmethod
    def trivial(cls, arc_count: int) -> "Representation":
        return cls("trivial", lambda m: RatFunc.one())

    def word_image(self, word: Word) -> RatFunc:
        m = exponent_sum(word)
        image = self._powers.get(m)
        if image is None:
            image = self._powers[m] = self._power(m)
        return image


def eval_rep(rep: Representation, term: GroupRingTerm) -> RatFunc:
    """Image of a signed word: the sign times the image of the word."""
    image = rep.word_image(term.word)
    return image if term.sign == 1 else -image


@dataclass(frozen=True)
class ChainComplex:
    d2: FieldMatrix  # c1_dim x c2_dim
    d1: FieldMatrix  # c0_dim x c1_dim
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

    def block_of(self, vertex_id: str) -> int:
        """The position of a vertex in its basis: its row or column index."""
        return self._positions[vertex_id]

    @cached_property
    def d2_cleared(self) -> Tuple[Tuple[ZPoly, ...], Tuple[Tuple[ZPoly, ...], ...]]:
        """(lam, rows) over Z[t] with row i of d2 equal to rows[i] / lam[i],
        cleared once per complex and shared, so immutable."""
        lam, rows = self.d2.cleared_rows()
        return (tuple(tuple(x) for x in lam),
                tuple(tuple(tuple(x) for x in row) for row in rows))

    @cached_property
    def d1_common(self) -> Tuple[ZPoly, Tuple[Tuple[ZPoly, ...], ...]]:
        """(den, rows) over Z[t] with d1 equal to rows / den: d1 over one
        common denominator."""
        den, nums = common_denominator(self.d1.entries)
        cols = self.d1.cols
        return tuple(den), tuple(tuple(tuple(x) for x in nums[i * cols:(i + 1) * cols])
                                 for i in range(self.d1.rows))

    @cached_property
    def _exactness(self) -> ExactnessReport:
        """Exact iff d2 injects, d1 surjects, and the middle dimension
        matches; both ranks are forward eliminations of the cleared rows."""
        if self.c1_dim != self.c2_dim + self.c0_dim:
            return ExactnessReport(False, "dimension mismatch: "
                                   f"{self.c1_dim} != {self.c2_dim} + {self.c0_dim}")
        r2 = len(fraction_free_gauss_jordan(self.d2_cleared[1], forward=True)[1])
        if r2 != self.c2_dim:
            return ExactnessReport(False, f"rank(d2) = {r2} < {self.c2_dim}")
        r1 = len(fraction_free_gauss_jordan(self.d1_common[1], forward=True)[1])
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
    c2_basis = tuple(v.id for v in graph.vertices if v.index == 2)
    c1_basis = tuple(v.id for v in graph.vertices if v.index == 1)
    c0_basis = (BASEPOINT,)
    c2_pos = {vid: i for i, vid in enumerate(c2_basis)}
    c1_pos = {vid: i for i, vid in enumerate(c1_basis)}
    d2_terms: Dict[Tuple[int, int], List[RatFunc]] = {}
    d1_terms: Dict[Tuple[int, int], List[RatFunc]] = {}
    for e in graph.edges:
        if e.target == BASEPOINT:
            key, terms = (0, c1_pos[e.source]), d1_terms
        else:
            key, terms = (c1_pos[e.target], c2_pos[e.source]), d2_terms
        terms.setdefault(key, []).append(eval_rep(rep, e.label))
    return ChainComplex(_summed(d2_terms, len(c1_basis), len(c2_basis)),
                        _summed(d1_terms, 1, len(c1_basis)),
                        c2_basis, c1_basis, c0_basis)


def _summed(terms: Dict[Tuple[int, int], List[RatFunc]], rows: int, cols: int) -> FieldMatrix:
    """The matrix whose (i, j) entry is the sum of terms[(i, j)], each sum
    taken over one common denominator and made canonical once."""
    zero = RatFunc.zero()
    out = [[zero] * cols for _ in range(rows)]
    for (i, j), values in terms.items():
        if len(values) == 1:
            out[i][j] = values[0]
            continue
        den, nums = common_denominator(values)
        total: list = []
        for num in nums:
            total = poly_add(total, num)
        out[i][j] = RatFunc(total, den)
    return FieldMatrix.from_rows(out)


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
