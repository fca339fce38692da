"""Alexander polynomial by Fox calculus on the Wirtinger presentation.

This path never touches the Dehn graph, the chain complex or the
propagator, so it is an independent check on the torsion pipeline through
Milnor's identity: torsion times (t - 1) agrees with the Alexander
polynomial up to +-t^m units (DERIVATION.md §9). It shares only the Z[t]
kernel.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ._value import Value
from .algebra import (IntPoly, Polynomial, _unit_equal, _unit_free, _unpack,
                      fraction_free_elimination, poly_mul)
from .diagram import WirtingerPresentation
from .errors import DehnError
from .invariants import TorsionValue
from .words import Word


class AlexanderPolynomial(Value):
    """Delta over Z[t], constant term first, normalized: nonzero constant
    term, positive lowest and leading coefficients (DERIVATION.md §9). `poly`
    is its display form."""

    coeffs: Tuple[int, ...]

    @property
    def poly(self) -> Polynomial:
        return Polynomial(self.coeffs)


def _fox_row(word: Word, column: Dict[int, int]) -> Dict[int, IntPoly]:
    """The abelianized Fox derivatives of a word with respect to the
    generators of `column` (generator -> column index), every generator sent
    to t, as one row over Z[t] by its nonzeros, column index -> entry, shifted
    by a unit into Z[t] (DERIVATION.md §9)."""
    terms: Dict[Tuple[int, int], int] = {}  # (column, power of t) -> coefficient
    power = 0
    for g, e in word:
        if e == -1:
            power -= 1
        j = column.get(g)
        if j is not None:
            terms[j, power] = terms.get((j, power), 0) + e
        if e == 1:
            power += 1
    terms = {key: c for key, c in terms.items() if c}
    low = min((m for _, m in terms), default=0)
    row: Dict[int, IntPoly] = {}
    for (j, m), c in sorted(terms.items()):
        entry = row.setdefault(j, [])
        entry.extend([0] * (m - low + 1 - len(entry)))
        entry[m - low] = c
    return row


def _banded_order(rows: Sequence[Dict[int, IntPoly]], ncols: int) -> List[Dict[int, IntPoly]]:
    """The rows, each a mapping from column to nonzero entry, with their
    `ncols` columns in reverse Cuthill-McKee order and the rows sorted by
    their first nonzero column, so that the forward elimination fills only a
    band. The determinant moves by a sign at most (DERIVATION.md §9)."""
    neighbours: List[set] = [set() for _ in range(ncols)]
    for row in rows:
        for j in row:
            neighbours[j].update(row)
    degree = [len(n) for n in neighbours]
    seen = [False] * ncols
    order: List[int] = []
    for start in sorted(range(ncols), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        level = len(order)
        order.append(start)
        while level < len(order):
            fresh = sorted((j for j in neighbours[order[level]] if not seen[j]),
                           key=degree.__getitem__)
            for j in fresh:
                seen[j] = True
            order.extend(fresh)
            level += 1
    order.reverse()
    position = [0] * ncols
    for p, j in enumerate(order):
        position[j] = p
    first = [min((position[j] for j in row), default=ncols) for row in rows]
    return [{position[j]: x for j, x in rows[r].items()}
            for r in sorted(range(len(rows)), key=first.__getitem__)]


def fox_alexander(presentation: WirtingerPresentation) -> AlexanderPolynomial:
    """Delta of the presentation's knot: the first (k-1)x(k-1) minor of the
    Fox matrix with the lowest-id generator's column dropped, normalized
    (DERIVATION.md §9). A presentation with no generators, with fewer than
    k - 1 relators or whose first minor vanishes is a `DehnError`."""
    gens = presentation.generators
    if len(gens) < 1:
        raise DehnError("presentation has no generators")
    k = len(gens)
    if k == 1:
        return AlexanderPolynomial((1,))
    if len(presentation.relations) < k - 1:
        raise DehnError(f"presentation has {len(presentation.relations)} relators; "
                        f"the Fox minor needs {k - 1}")
    dropped = min(gens)
    column = {g: j for j, g in enumerate(g for g in gens if g != dropped)}
    rows = _banded_order([_fox_row(rel, column) for rel in presentation.relations[:k - 1]], k - 1)
    reduced, pivots, _, width = fraction_free_elimination(rows, k - 1, 0)
    if len(pivots) < k - 1:
        raise DehnError("the first maximal minor of the Fox matrix vanishes")
    return AlexanderPolynomial(tuple(_unit_free(_unpack(reduced[-1][pivots[-1]], width))))


def milnor_check(tor: TorsionValue, alex: AlexanderPolynomial) -> bool:
    """Torsion times (t - 1) is unit-equal to the Alexander polynomial, over
    Z[t] with no gcd (DERIVATION.md §9)."""
    return _unit_equal(poly_mul(tor.num, [-1, 1]), tor.den, alex.coeffs, [1])
