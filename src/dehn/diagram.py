"""PD-code parsing, oriented knot diagrams, face tracing, Wirtinger presentation.

A PD crossing tuple (a, b, c, d) lists the four incident edge labels
counterclockwise, starting at the incoming under-strand, and labels run
1..2k along the knot. Positions at a crossing are 0..3 in tuple order, and
corner p lies between positions p and p+1 (mod 4). The diagram lives on
the sphere, so any face may be declared unbounded. DERIVATION.md §1 gives
the conventions and why each check holds.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ._value import Value
from .errors import (ConfigError, MultiComponentError, NotPlanarError,
                     PDLabelError, PDSyntaxError)
from .words import Word, free_reduce, word_inv

Slot = Tuple[int, int]  # (crossing id, position 0..3)

# The whitespace a PD text may hold around and between its labels; str.strip
# alone would also strip Unicode spaces such as U+3000.
ASCII_WHITESPACE = " \t\n\r\f\v"
# Compiled on first use, through re's own cache: bracket form never reads it.
_X_FORM = r"X[\(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[\)\]]"


class PDCode(Value):
    crossings: Tuple[Tuple[int, int, int, int], ...]

    @property
    def k(self) -> int:
        return len(self.crossings)

    def succ(self, edge: int) -> int:
        """Successor edge label along the knot (labels are 1..2k cyclically)."""
        return edge % (2 * self.k) + 1

    def to_text(self) -> str:
        return "[" + ",".join("[" + ",".join(map(str, c)) + "]"
                              for c in self.crossings) + "]"

    @cached_property
    def _strands(self) -> Tuple[Tuple[int, ...], Tuple[Slot, ...], Tuple[Slot, ...]]:
        """(over_in_pos, tail, head): the slot, 1 or 3, where the over-strand
        enters each crossing, and the slots that edge e leaves and enters, at
        e - 1. Refuses, in this order, labels other than 1..2k each twice
        (`PDLabelError`), strands that do not chain at a crossing and labels
        that leave no crossing (`MultiComponentError`; DERIVATION.md §1)."""
        counts = Counter(e for edges in self.crossings for e in edges)
        bad = sorted(e for e, n in counts.items() if n != 2)
        if bad:
            raise PDLabelError(f"edge labels {bad} do not appear exactly twice")
        labels = range(1, 2 * self.k + 1)
        if set(counts) != set(labels):
            raise PDLabelError(f"edge labels must be exactly 1..{2 * self.k}, "
                               f"got {sorted(counts)}")
        over_in_pos: List[int] = []
        tail: Dict[int, Slot] = {}
        head: Dict[int, Slot] = {}
        for i, edges in enumerate(self.crossings):
            a, b, c, d = edges
            if self.succ(a) != c:
                raise MultiComponentError(
                    f"crossing ({a},{b},{c},{d}): under-strand labels do not chain; "
                    "the PD code is not a single-component knot with sequential labels")
            if self.succ(b) != d and self.succ(d) != b:
                raise MultiComponentError(
                    f"crossing ({a},{b},{c},{d}): over-strand labels do not chain; "
                    "the PD code is not a single-component knot with sequential labels")
            pos = _resolve_crossing(self, i)
            over_in_pos.append(pos)
            for into, out in ((0, 2), (pos, (pos + 2) % 4)):  # under, then over strand
                head[edges[into]] = (i, into)
                tail[edges[out]] = (i, out)
        # Strands that chain at every crossing still draw a link if some label
        # leaves no crossing, and so another leaves two.
        missing = [e for e in labels if e not in tail]
        if missing:
            raise MultiComponentError(f"edges {missing} leave no crossing; the PD code is "
                                      "not a single-component knot with sequential labels")
        return tuple(over_in_pos), tuple(map(tail.get, labels)), tuple(map(head.get, labels))


def parse_pd(text: str) -> PDCode:
    """Parse bracket form "[[1,4,2,5],...]" or X-form "X(1,4,2,5) ..." (also
    "PD[X[1,4,2,5], ...]"); labels, separators and the whitespace around
    them are ASCII, and the first character picks the form. A malformed text
    is a `PDSyntaxError`, a label set other than 1..2k each twice a
    `PDLabelError`, and strands that do not chain a `MultiComponentError`
    (DERIVATION.md §1)."""
    text = text.strip(ASCII_WHITESPACE)
    if not text:
        raise PDSyntaxError("empty PD text")
    # The first character picks the form; one outside ASCII belongs to neither.
    if not text[0].isascii():
        raise PDSyntaxError(f"PD text starts with U+{ord(text[0]):04X}, "
                            "outside the ASCII grammar")
    # CPython (3.11, and 3.10.7 on) converts no integer of more digits than
    # its limit; where there is none, the label check refuses such a label.
    # Only a text longer than the limit can hold one.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < len(text):
        digits = max(map(len, re.findall(r"\d+", text, flags=re.ASCII)), default=0)
        if digits > limit:
            raise PDSyntaxError(f"PD label of {digits} digits exceeds the limit of {limit} digits")
    if text[0] == "[":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also nested too deep
            raise PDSyntaxError(f"malformed PD bracket syntax: {exc}") from None
        if (not isinstance(data, list) or not data
                or not all(isinstance(c, list) for c in data)):
            raise PDSyntaxError("PD bracket form must be a list of 4-tuples")
        tuples = data
    else:
        matches = re.findall(_X_FORM, text, flags=re.ASCII)
        leftover = re.sub(r"PD|[\s,\[\]()]", "",
                          re.sub(_X_FORM, "", text, flags=re.ASCII), flags=re.ASCII)
        if not matches or leftover:
            raise PDSyntaxError("malformed PD X-form syntax")
        tuples = [[int(x) for x in m] for m in matches]
    crossings = []
    for c in tuples:
        # bool is a subclass of int, but JSON true/false are not labels.
        if len(c) != 4 or not all(isinstance(x, int) and not isinstance(x, bool)
                                  and x >= 1 for x in c):
            raise PDSyntaxError(f"crossing {c!r} is not a 4-tuple of positive labels")
        crossings.append(tuple(c))
    pd = PDCode(tuple(crossings))
    pd._strands  # raises the code's refusals, and keeps its strands for build_diagram
    return pd


class KnotDiagram(Value):
    pd: PDCode
    over_in_pos: Tuple[int, ...]  # [crossing]: the over-strand's incoming slot, 1 or 3
    arc_count: int
    arc_of_edge: Tuple[int, ...]  # edge e's arc at e - 1, read by arc(e)
    regions: Tuple[Tuple[Slot, ...], ...]  # [region]: its corners, cyclic
    unbounded_region: int
    corner_region: Tuple[Tuple[int, int, int, int], ...]  # [crossing][corner]: region
    edge_tail: Tuple[Slot, ...]  # the slot edge e leaves from, at e - 1

    @property
    def k(self) -> int:
        return self.pd.k

    def under_in(self, c: int) -> int:
        return self.pd.crossings[c][0]

    def under_out(self, c: int) -> int:
        return self.pd.crossings[c][2]

    def over_in(self, c: int) -> int:
        return self.pd.crossings[c][self.over_in_pos[c]]

    def over_out(self, c: int) -> int:
        return self.pd.crossings[c][(self.over_in_pos[c] + 2) % 4]

    def sign(self, c: int) -> int:
        """-1 where the over-strand enters at slot 1, +1 at slot 3."""
        return self.over_in_pos[c] - 2

    def arc(self, edge: int) -> int:
        return self.arc_of_edge[edge - 1]

    def over_arc(self, c: int) -> int:
        return self.arc(self.over_in(c))

    def bounded_regions(self) -> Tuple[int, ...]:
        return tuple(r for r in range(len(self.regions)) if r != self.unbounded_region)

    def left_region(self, edge: int) -> int:
        """Region on the left of the edge, walking along the knot orientation."""
        c, p = self.edge_tail[edge - 1]
        return self.corner_region[c][p]

    def right_region(self, edge: int) -> int:
        c, p = self.edge_tail[edge - 1]
        return self.corner_region[c][(p - 1) % 4]


def _resolve_crossing(pd: PDCode, idx: int) -> int:
    """The slot, 1 or 3, where the over-strand enters crossing `idx`
    (DERIVATION.md §1)."""
    _, b, c, d = pd.crossings[idx]
    b_chains = pd.succ(b) == d
    d_chains = pd.succ(d) == b
    if b_chains and not d_chains:
        return 1
    if d_chains and not b_chains:
        return 3
    # Both chain only for k = 1; the under strand then fixes the roles:
    # the over slot sharing its label with the under-out is the incoming one.
    return 1 if b == c else 3


def _build_arcs(pd: PDCode):
    """(arc count, arc of each edge at e - 1): arcs are maximal over-strand
    runs, each ending at a crossing's under-in edge (DERIVATION.md §1)."""
    ends = {c[0] for c in pd.crossings}
    arc_of_edge, arc = [], 0
    for e in range(1, 2 * pd.k + 1):
        arc_of_edge.append(arc % len(ends))
        arc += e in ends
    return len(ends), tuple(arc_of_edge)


def _trace_faces(k: int, tails: Tuple[Slot, ...], heads: Tuple[Slot, ...]) -> List[List[Slot]]:
    """The faces of the rotation system of k crossings whose edges run from
    `tails` to `heads`, each face a list of corners (DERIVATION.md §1)."""
    partner = dict(zip(tails, heads))
    partner.update(zip(heads, tails))
    faces: List[List[Slot]] = []
    visited = set()
    for ci in range(k):
        for pos in range(4):
            start = (ci, pos)
            if start in visited:
                continue
            corners = []
            cur = start
            while True:
                visited.add(cur)
                c, j = cur
                depart = (c, (j - 1) % 4)
                corners.append(depart)
                cur = partner[depart]
                if cur == start:
                    break
            faces.append(corners)
    return faces


def choose_unbounded(regions: Tuple[Tuple[Slot, ...], ...]) -> int:
    """Default unbounded-face rule: most corners, ties broken by lowest id."""
    return max(range(len(regions)), key=lambda r: (len(regions[r]), -r))


def build_diagram(pd: PDCode, outer_region: Optional[int] = None) -> KnotDiagram:
    over_in_pos, edge_tail, edge_head = pd._strands
    arc_count, arc_of_edge = _build_arcs(pd)
    faces = _trace_faces(pd.k, edge_tail, edge_head)
    if len(faces) != pd.k + 2:
        raise NotPlanarError(
            f"face tracing produced {len(faces)} faces, expected {pd.k + 2}: "
            "not a planar diagram")
    regions = tuple(map(tuple, faces))
    region_of = {corner: r for r, corners in enumerate(regions) for corner in corners}
    corner_region = tuple(tuple(region_of[c, p] for p in range(4)) for c in range(pd.k))
    if outer_region is None:
        unbounded = choose_unbounded(regions)
    else:
        if outer_region not in range(len(regions)):
            raise ConfigError(
                f"outer region {outer_region} does not exist "
                f"(valid ids: 0..{len(regions) - 1})")
        unbounded = outer_region
    return KnotDiagram(pd, over_in_pos, arc_count, arc_of_edge, regions, unbounded,
                       corner_region, edge_tail)


class WirtingerPresentation(Value):
    generators: Tuple[int, ...]  # arc ids
    relations: Tuple[Word, ...]  # one relator per crossing, freely reduced


def wirtinger(diagram: KnotDiagram) -> WirtingerPresentation:
    """One generator per arc; per crossing the relator over^e in over^-e out^-1."""
    relations = []
    for c in range(diagram.k):
        over = diagram.over_arc(c)
        uin = diagram.arc(diagram.under_in(c))
        uout = diagram.arc(diagram.under_out(c))
        e = diagram.sign(c)
        relator = ((over, e), (uin, 1), (over, -e)) + word_inv(((uout, 1),))
        relations.append(free_reduce(relator))
    return WirtingerPresentation(tuple(range(diagram.arc_count)), tuple(relations))
