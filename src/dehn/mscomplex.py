"""The three-term chain complex of a Dehn graph under a representation.

C_2 has one block of the representation space per crossing vertex, C_1 one
per bounded-region vertex, C_0 one for the basepoint. A boundary block from
vertex p to vertex q is the sum over the edges p -> q of the images of their
labels, where the image of a signed word is the sign times the product of
the generator matrices. Under the abelian representation every generator
goes to t, so the image of a word is its abelianisation: the 1x1 matrix
[t^(exponent sum)], with the label's sign in front.

A `ChainComplex` is immutable, so what every later step needs from it is
computed once and kept on it: the rows of d2 cleared of denominators, d1
over one common denominator, and the exactness report that `check_exactness`
returns on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .algebra import (FieldMatrix, RatFunc, common_denominator,
                      fraction_free_gauss_jordan, poly_add)
from .dehngraph import BASEPOINT, DehnGraph, GroupRingTerm
from .diagram import WirtingerPresentation
from .errors import InvalidRepresentationError
from .words import Word, exponent_sum

ZPoly = Tuple[int, ...]  # a Z[t] coefficient tuple, constant term first


class Representation:
    """Map from arc generators to invertible matrices over Q(t).

    The abelian representation sends every generator to the 1x1 matrix [t].
    Matrix representations of any dimension are accepted when every image is
    invertible and all Wirtinger relations hold.
    """

    def __init__(self, kind: str, dim: int, images: Dict[int, FieldMatrix],
                 presentation: Optional[WirtingerPresentation] = None):
        self.kind = kind
        self.dim = dim
        self.images = dict(images)
        self._inverses: Dict[int, FieldMatrix] = {}
        for gen, mat in self.images.items():
            if mat.rows != dim or mat.cols != dim:
                raise InvalidRepresentationError(
                    f"generator {gen} image is {mat.rows}x{mat.cols}, expected {dim}x{dim}")
            try:
                self._inverses[gen] = mat.inverse()
            except ValueError:
                raise InvalidRepresentationError(
                    f"generator {gen} image is singular") from None
        if presentation is not None:
            self._check_relations(presentation)

    @classmethod
    def abelian(cls, arc_count: int) -> "Representation":
        return _AbelianRepresentation(arc_count)

    @classmethod
    def matrix(cls, images: Dict[int, FieldMatrix],
               presentation: WirtingerPresentation) -> "Representation":
        dims = {m.rows for m in images.values()}
        if len(dims) != 1:
            raise InvalidRepresentationError("generator images have mixed sizes")
        return cls("matrix", dims.pop(), images, presentation)

    @classmethod
    def trivial(cls, arc_count: int) -> "Representation":
        one = FieldMatrix.identity(1)
        return cls("matrix", 1, {i: one for i in range(arc_count)})

    def _check_relations(self, presentation: WirtingerPresentation) -> None:
        missing = [g for g in presentation.generators if g not in self.images]
        if missing:
            raise InvalidRepresentationError(f"no image for generators {missing}")
        ident = FieldMatrix.identity(self.dim)
        for i, rel in enumerate(presentation.relations):
            if self.word_image(rel) != ident:
                raise InvalidRepresentationError(
                    f"Wirtinger relation {i} is not satisfied by the images")

    def word_image(self, word: Word) -> FieldMatrix:
        out = FieldMatrix.identity(self.dim)
        for gen, exp in word:
            out = out @ (self.images[gen] if exp == 1 else self._inverses[gen])
        return out


class _AbelianRepresentation(Representation):
    """Every generator to [t], a word to [t^(exponent sum)], with one image
    per exponent, made on first use."""

    def __init__(self, arc_count: int):
        t = FieldMatrix(1, 1, [RatFunc.t()])
        self.kind, self.dim = "abelian", 1
        self.images = {i: t for i in range(arc_count)}
        self._powers: Dict[int, FieldMatrix] = {1: t}

    def word_image(self, word: Word) -> FieldMatrix:
        m = exponent_sum(word)
        image = self._powers.get(m)
        if image is None:
            image = self._powers[m] = FieldMatrix(1, 1, [RatFunc.t_power(m)])
        return image


def eval_rep(rep: Representation, term: GroupRingTerm) -> FieldMatrix:
    """Image of a signed word: sign times the product of generator images."""
    mat = rep.word_image(term.word)
    return mat if term.sign == 1 else -mat


@dataclass(frozen=True)
class ChainComplex:
    d2: FieldMatrix  # c1_dim x c2_dim
    d1: FieldMatrix  # c0_dim x c1_dim
    c2_basis: Tuple[str, ...]  # crossing vertex ids, block order
    c1_basis: Tuple[str, ...]  # region vertex ids, block order
    c0_basis: Tuple[str, ...]
    block_size: int

    @property
    def c2_dim(self) -> int:
        return len(self.c2_basis) * self.block_size

    @property
    def c1_dim(self) -> int:
        return len(self.c1_basis) * self.block_size

    @property
    def c0_dim(self) -> int:
        return len(self.c0_basis) * self.block_size

    def block_of(self, vertex_id: str) -> int:
        return self._blocks[vertex_id]

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
    def _blocks(self) -> Dict[str, int]:
        """Vertex id -> block index, the first basis listing it winning."""
        blocks: Dict[str, int] = {}
        for basis in (self.c2_basis, self.c1_basis, self.c0_basis):
            for i, vertex_id in enumerate(basis):
                blocks.setdefault(vertex_id, i)
        return blocks


def build_complex(graph: DehnGraph, rep: Representation) -> ChainComplex:
    n = rep.dim
    c2_basis = tuple(v.id for v in graph.vertices if v.index == 2)
    c1_basis = tuple(v.id for v in graph.vertices if v.index == 1)
    c0_basis = (BASEPOINT,)
    c2_pos = {vid: i for i, vid in enumerate(c2_basis)}
    c1_pos = {vid: i for i, vid in enumerate(c1_basis)}
    d2_terms: Dict[Tuple[int, int], List[RatFunc]] = {}
    d1_terms: Dict[Tuple[int, int], List[RatFunc]] = {}
    for e in graph.edges:
        block = eval_rep(rep, e.label)
        if e.target == BASEPOINT:
            row0, col0, terms = 0, c1_pos[e.source] * n, d1_terms
        else:
            row0, col0, terms = c1_pos[e.target] * n, c2_pos[e.source] * n, d2_terms
        for i in range(n):
            for j in range(n):
                terms.setdefault((row0 + i, col0 + j), []).append(block.entry(i, j))
    return ChainComplex(_summed(d2_terms, len(c1_basis) * n, len(c2_basis) * n),
                        _summed(d1_terms, n, len(c1_basis) * n),
                        c2_basis, c1_basis, c0_basis, n)


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
    """Boundary matrices plus the vertex-to-block bookkeeping table."""
    return {
        "block_size": cx.block_size,
        "bases": {
            "c2": list(cx.c2_basis),
            "c1": list(cx.c1_basis),
            "c0": list(cx.c0_basis),
        },
        "d2": cx.d2.to_json(),
        "d1": cx.d1.to_json(),
    }
