"""Alexander polynomial by Fox calculus on the Wirtinger presentation.

This path never touches the Dehn graph, the chain complex or the propagator,
so it is an independent check on the torsion pipeline through the classical
identity: torsion times (t - 1) agrees with the Alexander polynomial up to
+-t^m units. It shares only the Z[t] kernel: each Fox row is built over
Z[t], and the minor is one forward elimination of its own matrix, in a
banded order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .algebra import IntPoly, Polynomial, RatFunc, fraction_free_gauss_jordan, unit_equal
from .diagram import WirtingerPresentation
from .errors import DehnError
from .invariants import TorsionValue
from .words import Word


@dataclass(frozen=True)
class AlexanderPolynomial:
    """Normalized: nonzero constant term, positive leading coefficient."""

    poly: Polynomial

    def __str__(self) -> str:
        return str(self.poly)


def _fox_row(word: Word, column: Dict[int, int]) -> List[IntPoly]:
    """The abelianized Fox derivatives of a word with respect to the
    generators of `column` (generator -> column index), every generator
    sent to t, as one row over Z[t]: the row of Laurent polynomials times
    t^-m, m its least power of t (a unit)."""
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
    row: List[IntPoly] = [[] for _ in column]
    for (j, m), c in sorted(terms.items()):
        entry = row[j]
        entry.extend([0] * (m - low + 1 - len(entry)))
        entry[m - low] = c
    return row


def _banded_order(rows: Sequence[Sequence[IntPoly]]) -> List[List[IntPoly]]:
    """The rows with their columns in reverse Cuthill-McKee order (Cuthill
    and McKee 1969, reversed by George 1971) on the graph joining two
    columns that share a row, and the rows sorted by their first nonzero
    column. A Wirtinger row has at most three nonzeros, and the order keeps
    them near the diagonal, so the forward elimination fills only a band.
    Permuting rows and columns changes the determinant by a sign at most."""
    ncols = len(rows[0]) if rows else 0
    support = [[j for j, x in enumerate(row) if x] for row in rows]
    neighbours: List[set] = [set() for _ in range(ncols)]
    for cols in support:
        for j in cols:
            neighbours[j].update(cols)
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
    first = [min((position[j] for j in cols), default=ncols) for cols in support]
    return [[rows[r][j] for j in order] for r in sorted(range(len(rows)), key=first.__getitem__)]


def fox_alexander(presentation: WirtingerPresentation) -> AlexanderPolynomial:
    """Fox matrix of the relators, drop the lowest-id generator's column, and
    normalize the determinant of the first (k-1)x(k-1) minor.

    In a Wirtinger presentation of a knot every such minor is +-t^m * Delta(t)
    with Delta(1) = +-1 (Crowell and Fox, Introduction to Knot Theory, ch. VIII),
    so a vanishing first minor means the presentation is not one. Each row
    is shifted into Z[t] by a unit and the rows and columns are permuted
    into a banded order, which moves the determinant by +-t^m only; the
    normalization strips that, so the forward elimination's last pivot is
    the minor up to the unit.
    """
    gens = presentation.generators
    if len(gens) < 1:
        raise DehnError("presentation has no generators")
    k = len(gens)
    if k == 1:
        return AlexanderPolynomial(Polynomial((1,)))
    if len(presentation.relations) < k - 1:
        raise DehnError(f"presentation has {len(presentation.relations)} relators; "
                        f"the Fox minor needs {k - 1}")
    dropped = min(gens)
    column = {g: j for j, g in enumerate(g for g in gens if g != dropped)}
    rows = _banded_order([_fox_row(rel, column) for rel in presentation.relations[:k - 1]])
    reduced, pivots, _ = fraction_free_gauss_jordan(rows, forward=True)
    if len(pivots) < k - 1:
        raise DehnError("the first maximal minor of the Fox matrix vanishes")
    minor = reduced[-1][pivots[-1]]
    # Strip the t-power and make the leading coefficient positive.
    low = next(i for i, c in enumerate(minor) if c)
    sign = 1 if minor[-1] > 0 else -1
    return AlexanderPolynomial(Polynomial(sign * c for c in minor[low:]))


def milnor_check(tor: TorsionValue, alex: AlexanderPolynomial) -> bool:
    """Torsion times (t - 1) is unit-equal to the Alexander polynomial."""
    t_minus_1 = RatFunc((-1, 1))
    return unit_equal(tor.normalized * t_minus_1, RatFunc(alex.poly))
