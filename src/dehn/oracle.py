"""Alexander polynomial by Fox calculus on the Wirtinger presentation.

This path never touches the Dehn graph, the chain complex or the propagator,
so it is an independent check on the torsion pipeline through the classical
identity: torsion times (t - 1) agrees with the Alexander polynomial up to
+-t^m units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .algebra import FieldMatrix, Polynomial, RatFunc, unit_equal
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


def _fox_derivative(word: Word, gen: int) -> RatFunc:
    """Abelianized Fox derivative of a word with respect to one generator,
    with every generator sent to t: one Laurent polynomial in Z[t, 1/t]."""
    coeffs: Dict[int, int] = {}  # power of t -> coefficient
    power = 0
    for g, e in word:
        if e == -1:
            power -= 1
        if g == gen:
            coeffs[power] = coeffs.get(power, 0) + e
        if e == 1:
            power += 1
    if not coeffs:
        return RatFunc.zero()
    low = min(coeffs)
    num = [coeffs.get(m, 0) for m in range(low, max(coeffs) + 1)]
    return RatFunc([0] * max(low, 0) + num, [0] * max(-low, 0) + [1])


def fox_alexander(presentation: WirtingerPresentation) -> AlexanderPolynomial:
    """Fox matrix of the relators, drop the lowest-id generator's column, and
    normalize the determinant of the first (k-1)x(k-1) minor.

    In a Wirtinger presentation of a knot every such minor is +-t^m * Delta(t)
    with Delta(1) = +-1 (Crowell and Fox, Introduction to Knot Theory, ch. VIII),
    so a vanishing first minor means the presentation is not one.
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
    kept = [g for g in gens if g != dropped]
    rows = [[_fox_derivative(rel, g) for g in kept]
            for rel in presentation.relations]
    minor = FieldMatrix.from_rows(rows).submatrix(range(k - 1), range(k - 1)).det()
    if minor.is_zero():
        raise DehnError("the first maximal minor of the Fox matrix vanishes")
    num, den = minor.znum, minor.zden
    if any(den[:-1]):
        raise DehnError(f"Fox determinant {minor} is not a Laurent polynomial")
    # minor = num / (d * t^j): strip the t-powers and make the leading
    # coefficient positive.
    low = next(i for i, c in enumerate(num) if c)
    d = den[-1] if num[-1] > 0 else -den[-1]
    return AlexanderPolynomial(Polynomial(Fraction(c, d) for c in num[low:]))


def milnor_check(tor: TorsionValue, alex: AlexanderPolynomial) -> bool:
    """Torsion times (t - 1) is unit-equal to the Alexander polynomial."""
    t_minus_1 = RatFunc((-1, 1))
    return unit_equal(tor.normalized * t_minus_1, RatFunc(alex.poly))
