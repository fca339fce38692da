"""Corner and region labelings of a knot diagram, and the Dehn graph built
from them (DERIVATION.md §1).

The graph has one vertex per crossing (index 2), one per bounded region
(index 1) and one basepoint (index 0), always "inf"; a `DehnGraph` holds
the ids of the first two groups in order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ._value import Value, _set
from .diagram import KnotDiagram
from .words import Word, format_word, generator_name, word_inv, word_mul


class GroupRingTerm(Value):
    """A signed group element: sign * word, with sign +1 or -1."""

    sign: int
    word: Word

    # GroupRingTerm and Edge are built by the dozen per knot; a fixed
    # signature sets their fields in 1/2 and 2/3 of `Value.__init__`'s time.
    def __init__(self, sign: int, word: Word, /):
        _set(self, "sign", sign)
        _set(self, "word", word)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + format_word(self.word)


# The label of corner p at crossing c is `[c][p]`; that of region r is `[r]`.
CornerLabeling = Tuple[Tuple[GroupRingTerm, GroupRingTerm, GroupRingTerm, GroupRingTerm], ...]
RegionLabeling = Tuple[Word, ...]


def build_d1(diagram: KnotDiagram) -> CornerLabeling:
    labels = []
    for c, o in enumerate(diagram.over_in_pos):
        x = diagram.over_arc(c)
        # Corners o - 1, o, o + 1 and o + 2, with o the over-in position.
        terms = (GroupRingTerm(-1, ((x, 1),)), GroupRingTerm(1, ()),
                 GroupRingTerm(-1, ()), GroupRingTerm(1, ((x, 1),)))
        labels.append(tuple(terms[(p - o + 1) % 4] for p in range(4)))
    return tuple(labels)


def build_d2(diagram: KnotDiagram) -> RegionLabeling:
    """The region labels, a freely reduced word per region id, propagated
    breadth first over the dual graph from the unbounded region
    (DERIVATION.md §1)."""
    # region -> (neighbouring region, word to cross the edge's arc), by edge.
    crossings: List[List[Tuple[int, Word]]] = [[] for _ in diagram.regions]
    for e in range(1, 2 * diagram.k + 1):
        left, right = diagram.left_region(e), diagram.right_region(e)
        gen = ((diagram.arc(e), 1),)
        crossings[left].append((right, gen))
        crossings[right].append((left, word_inv(gen)))
    labels: List[Optional[Word]] = [None] * len(diagram.regions)
    labels[diagram.unbounded_region] = ()
    queue = [diagram.unbounded_region]
    for region in queue:  # the queue grows while it is read
        for other, word in crossings[region]:
            if labels[other] is None:
                labels[other] = word_mul(word, labels[region])
                queue.append(other)
    if len(queue) != len(diagram.regions):
        raise AssertionError("region adjacency graph is not connected")
    return tuple(labels)


def check_d2(labeling: RegionLabeling, diagram: KnotDiagram, rep) -> List[dict]:
    """The edges across which rho(l(right)) != rho(arc * l(left)), as
    dicts; [] when the labeling is consistent, as every labeling `build_d2`
    makes is (DERIVATION.md §1). `rep` only needs an exponent(word) -> int
    method."""
    violations = []
    for e in range(1, 2 * diagram.k + 1):
        left = diagram.left_region(e)
        right = diagram.right_region(e)
        gen = ((diagram.arc(e), 1),)
        if rep.exponent(labeling[right]) != rep.exponent(gen + labeling[left]):
            violations.append({
                "edge": e,
                "arc": generator_name(diagram.arc(e)),
                "left_region": left,
                "right_region": right,
            })
    return violations


class Edge(Value):
    source: str
    target: str
    label: GroupRingTerm
    origin: Tuple  # ("corner", crossing, pos) | ("region_plus"|"region_minus", region)

    def __init__(self, source: str, target: str, label: GroupRingTerm, origin: Tuple, /):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "label", label)
        _set(self, "origin", origin)


class DehnGraph(Value):
    crossing_vertices: Tuple[str, ...]  # index 2, the basis of C_2
    region_vertices: Tuple[str, ...]  # index 1, the basis of C_1
    edges: Tuple[Edge, ...]
    arc_names: Tuple[str, ...]


BASEPOINT = "inf"  # the one vertex of index 0
# A vertex's Morse index -> its kind and its DOT shape.
_KINDS = {2: ("crossing", "box"), 1: ("region", "ellipse"), 0: ("basepoint", "doublecircle")}


def _indexed_vertices(graph: DehnGraph) -> List[Tuple[str, int]]:
    """(id, Morse index) of every vertex: crossings, regions, the basepoint."""
    return ([(v, 2) for v in graph.crossing_vertices]
            + [(v, 1) for v in graph.region_vertices] + [(BASEPOINT, 0)])


def build_dehn_graph(diagram: KnotDiagram, d1: CornerLabeling,
                     d2: RegionLabeling) -> DehnGraph:
    bounded = diagram.bounded_regions()
    crossing_vertex = tuple(f"p{c}" for c in range(diagram.k))
    region_vertex = {r: f"q{i}" for i, r in enumerate(bounded)}
    edges: List[Edge] = []
    for c, corner_regions in enumerate(diagram.corner_region):
        for pos, region in enumerate(corner_regions):
            if region == diagram.unbounded_region:
                continue
            edges.append(Edge(crossing_vertex[c], region_vertex[region],
                              d1[c][pos], ("corner", c, pos)))
    for r in bounded:
        edges.append(Edge(region_vertex[r], BASEPOINT,
                          GroupRingTerm(1, ()), ("region_plus", r)))
        edges.append(Edge(region_vertex[r], BASEPOINT,
                          GroupRingTerm(-1, d2[r]), ("region_minus", r)))
    arc_names = tuple(generator_name(i) for i in range(diagram.arc_count))
    return DehnGraph(crossing_vertex, tuple(region_vertex.values()), tuple(edges), arc_names)


def export_dot(graph: DehnGraph) -> str:
    lines = ["digraph dehn {"]
    for v, index in _indexed_vertices(graph):
        lines.append(f'  "{v}" [shape={_KINDS[index][1]} label="{v}:{index}"];')
    for e in graph.edges:
        lines.append(f'  "{e.source}" -> "{e.target}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: DehnGraph) -> dict:
    return {
        "arcs": list(graph.arc_names),
        "vertices": [{"id": v, "kind": _KINDS[index][0], "index": index}
                     for v, index in _indexed_vertices(graph)],
        "edges": [
            {
                "from": e.source,
                "to": e.target,
                "sign": e.label.sign,
                "word": [[generator_name(g), x] for g, x in e.label.word],
                "origin": list(e.origin),
            }
            for e in graph.edges
        ],
    }
