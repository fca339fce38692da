"""Knot families generated in the benchmark itself, with their Alexander
polynomials taken from the knot tables, never from dehn.

A PD code here is a list of 4-lists with sequential edge labels 1..2k, in the
convention dehn reads: a crossing (a, b, c, d) lists its edges
counterclockwise from the incoming under-strand, so c follows a, and the
over-strand runs b -> d or d -> b.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

PD = List[List[int]]

# Corpus knots (standard tables) and their Alexander polynomials, constant
# term first.
CORPUS: Dict[str, PD] = {
    "3_1": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
    "4_1": [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]],
    "5_1": [[1, 6, 2, 7], [3, 8, 4, 9], [5, 10, 6, 1], [7, 2, 8, 3], [9, 4, 10, 5]],
    "5_2": [[1, 4, 2, 5], [3, 8, 4, 9], [5, 10, 6, 1], [9, 6, 10, 7], [7, 2, 8, 3]],
    "6_1": [[1, 4, 2, 5], [7, 10, 8, 11], [3, 9, 4, 8], [9, 3, 10, 2], [5, 12, 6, 1],
            [11, 6, 12, 7]],
}

ALEXANDER: Dict[str, Tuple[int, ...]] = {
    "3_1": (1, -1, 1),
    "4_1": (1, -3, 1),
    "5_1": (1, -1, 1, -1, 1),
    "5_2": (2, -3, 2),
    "6_1": (2, -5, 2),
}


def to_text(pd: PD) -> str:
    """Bracket form without spaces, as dehn prints it back."""
    return "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in pd) + "]"


def torus_2(n: int) -> PD:
    """T(2, n) for odd n >= 3: crossing i is [2i+1, 2i+n+1, 2i+2, 2i+n+2] mod 2n."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"T(2,{n}) is a knot only for odd n >= 3")
    m = 2 * n
    return [[(2 * i) % m + 1, (2 * i + n) % m + 1, (2 * i + 1) % m + 1,
             (2 * i + n + 1) % m + 1] for i in range(n)]


def torus_2_alexander(n: int) -> Tuple[int, ...]:
    """Delta of T(2, n) is sum_{i<n} (-t)^i."""
    return tuple((-1) ** i for i in range(n))


def _edges(pd: PD) -> int:
    return 2 * len(pd)


def _is_incoming(pd: PD, crossing: Sequence[int], pos: int) -> bool:
    """Whether the edge at `pos` of `crossing` enters that crossing."""
    if pos in (0, 2):
        return pos == 0  # the under-strand runs a -> c
    m = _edges(pd)
    _, b, c, d = crossing
    b_chains, d_chains = b % m + 1 == d, d % m + 1 == b
    # Both chain only on a one-crossing loop; the over-strand then enters at
    # the slot that shares its label with the under-strand's exit.
    b_in = b_chains and (not d_chains or b == c)
    return b_in if pos == 1 else not b_in


def _rotate(pd: PD, shift: int) -> PD:
    """Relabel edge e as e - shift, cyclically in 1..2k."""
    m = _edges(pd)
    return [[(e - 1 - shift) % m + 1 for e in c] for c in pd]


def _split_edge(pd: PD, edge: int, extra: int) -> Tuple[PD, int, int]:
    """Open `edge` into a gap of `extra` new labels.

    Returns the relabelled code (labels 1..2k+extra, still sequential) and
    the labels of the edge where it leaves its tail crossing and where it
    enters its head crossing; the caller fills the labels between them.
    """
    pd = _rotate(pd, edge - 1)  # the opened edge is now edge 1
    out = []
    for c in pd:
        row = []
        for pos, e in enumerate(c):
            if e == 1 and _is_incoming(pd, c, pos):
                row.append(1 + extra)
            elif e == 1:
                row.append(1)
            else:
                row.append(e + extra)
        out.append(row)
    return out, 1, 1 + extra


def kink(pd: PD, edge: int) -> PD:
    """Insert a Reidemeister-I kink on `edge`, in the form [e, e+1, e+1, e+2]."""
    out, tail, head = _split_edge(pd, edge, 2)
    return out + [[tail, tail + 1, tail + 1, head]]


def connected_sum(a: PD, edge_a: int, b: PD, edge_b: int) -> PD:
    """Splice `b`, opened at `edge_b`, into `a`, opened at `edge_a`."""
    nb = _edges(b)
    out, tail, head = _split_edge(a, edge_a, nb)
    # In b opened at edge_b, its edge 1 becomes the link a -> b (label
    # `tail`) where it enters b and the link b -> a (label `head`) where it
    # leaves b; b's other edges fill the labels strictly between.
    rb = _rotate(b, edge_b - 1)
    for c in rb:
        row = []
        for pos, e in enumerate(c):
            if e == 1:
                row.append(tail if _is_incoming(rb, c, pos) else head)
            else:
                row.append(tail + e - 1)
        out.append(row)
    return out


def shuffle_crossings(pd: PD, rng: random.Random) -> PD:
    """The same knot with its crossing tuples in a seeded order."""
    out = [list(c) for c in pd]
    rng.shuffle(out)
    return out


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)
