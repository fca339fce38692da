"""Corner and region labelings of a knot diagram, and the Dehn graph built
from them.

The corner labeling assigns, at each crossing with over arc x, the group-ring
labels -x, +1, +x, -1 to the four corners: -x before the crossing on the left
of the over strand, +1 before on the right, +x after on the left, -1 after on
the right. With positions numbered counterclockwise and o the over-in
position, that is corner o-1: -x, corner o: +1, corner o+1: -1, corner o+2: +x.

The region labeling starts the unbounded region with the empty word and
propagates across arcs: crossing an arc from its left side to its right side
multiplies on the left by the arc generator. Labels are freely reduced words;
equalities that depend on the knot group relations are only ever checked
under a representation (check_d2), never by rewriting.

The graph has one vertex per crossing (index 2), one per bounded region
(index 1) and one basepoint (index 0), always "inf"; a `DehnGraph` holds
the ids of the first two groups in order. Every corner incidence with a
bounded region contributes its own edge, so a region meeting a crossing
twice (a kink) yields two parallel edges; each bounded region gets two
edges to the basepoint, labeled +1 and minus its region label.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ._value import Value, _set
from .diagram import KnotDiagram
from .errors import DehnError, _json_fields
from .words import (Word, format_word, free_reduce, generator_name,
                    word_inv, word_mul)


class GroupRingTerm(Value):
    """A signed group element: sign * word, with sign +1 or -1."""

    sign: int
    word: Word

    # GroupRingTerm and Edge are built by the dozen per knot, and a
    # fixed signature sets the fields in about half the time of
    # `Value.__init__`.
    def __init__(self, sign: int, word: Word):
        _set(self, "sign", sign)
        _set(self, "word", word)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + format_word(self.word)


CornerLabeling = Dict[Tuple[int, int], GroupRingTerm]
RegionLabeling = Dict[int, Word]


def build_d1(diagram: KnotDiagram) -> CornerLabeling:
    labels: CornerLabeling = {}
    for c in diagram.crossings:
        x = diagram.over_arc(c)
        o = c.over_in_pos
        labels[(c.id, (o - 1) % 4)] = GroupRingTerm(-1, ((x, 1),))
        labels[(c.id, o)] = GroupRingTerm(1, ())
        labels[(c.id, (o + 1) % 4)] = GroupRingTerm(-1, ())
        labels[(c.id, (o + 2) % 4)] = GroupRingTerm(1, ((x, 1),))
    return labels


def build_d2(diagram: KnotDiagram) -> RegionLabeling:
    """Breadth-first label propagation over the dual graph from the unbounded
    region; deterministic because each region's edges are read in ascending
    label order."""
    # region -> (neighbouring region, word to cross the edge's arc), by edge.
    crossings: Dict[int, List[Tuple[int, Word]]] = {r.id: [] for r in diagram.regions}
    for e in sorted(diagram.edge_tail):
        left, right = diagram.left_region(e), diagram.right_region(e)
        gen = ((diagram.arc_of_edge[e], 1),)
        crossings[left].append((right, gen))
        crossings[right].append((left, word_inv(gen)))
    labels: RegionLabeling = {diagram.unbounded_region: ()}
    queue = [diagram.unbounded_region]
    for region in queue:  # the queue grows while it is read
        for other, word in crossings[region]:
            if other not in labels:
                labels[other] = word_mul(word, labels[region])
                queue.append(other)
    if len(labels) != len(diagram.regions):
        raise AssertionError("region adjacency graph is not connected")
    return labels


def check_d2(labeling: RegionLabeling, diagram: KnotDiagram, rep) -> List[dict]:
    """Verify rho(l(right)) = rho(arc * l(left)) across every edge.

    Consistency is a theorem for labels produced by build_d2, so a non-empty
    report indicates a convention bug (or a deliberately corrupted labeling).
    `rep` only needs an exponent(word) -> int method, since t^m = t^m' iff
    m = m'; the right side is the image of the concatenated word.
    """
    violations = []
    for e in sorted(diagram.edge_tail):
        left = diagram.left_region(e)
        right = diagram.right_region(e)
        gen = ((diagram.arc_of_edge[e], 1),)
        if rep.exponent(labeling[right]) != rep.exponent(gen + labeling[left]):
            violations.append({
                "edge": e,
                "arc": generator_name(diagram.arc_of_edge[e]),
                "left_region": left,
                "right_region": right,
            })
    return violations


class Edge(Value):
    source: str
    target: str
    label: GroupRingTerm
    origin: Tuple  # ("corner", crossing, pos) | ("region_plus"|"region_minus", region)

    def __init__(self, source: str, target: str, label: GroupRingTerm, origin: Tuple):
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


# The two kinds of edge, by the Morse indices of their ends, and the origin
# graph_to_json writes on each: one of the tags, then `count` integer ids.
_EDGE_ORIGINS = {
    (2, 1): (("corner",), 2, "['corner', crossing, position 0..3]"),
    (1, 0): (("region_plus", "region_minus"), 1, "['region_plus' or 'region_minus', region]"),
}


def _indexed_vertices(graph: DehnGraph) -> List[Tuple[str, int]]:
    """(id, Morse index) of every vertex: crossings, regions, the basepoint."""
    return ([(v, 2) for v in graph.crossing_vertices]
            + [(v, 1) for v in graph.region_vertices] + [(BASEPOINT, 0)])


def build_dehn_graph(diagram: KnotDiagram, d1: CornerLabeling,
                     d2: RegionLabeling) -> DehnGraph:
    bounded = diagram.bounded_regions()
    crossing_vertex = {c.id: f"p{c.id}" for c in diagram.crossings}
    region_vertex = {r.id: f"q{i}" for i, r in enumerate(bounded)}
    edges: List[Edge] = []
    for c in diagram.crossings:
        for pos in range(4):
            region = diagram.corner_region[(c.id, pos)]
            if region == diagram.unbounded_region:
                continue
            edges.append(Edge(crossing_vertex[c.id], region_vertex[region],
                              d1[(c.id, pos)], ("corner", c.id, pos)))
    for r in bounded:
        edges.append(Edge(region_vertex[r.id], BASEPOINT,
                          GroupRingTerm(1, ()), ("region_plus", r.id)))
        edges.append(Edge(region_vertex[r.id], BASEPOINT,
                          GroupRingTerm(-1, d2[r.id]), ("region_minus", r.id)))
    arc_names = tuple(generator_name(i) for i in range(diagram.arc_count))
    return DehnGraph(tuple(crossing_vertex.values()), tuple(region_vertex.values()),
                     tuple(edges), arc_names)


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


def graph_from_json(data) -> DehnGraph:
    """The inverse of `graph_to_json`. JSON of another shape is a `DehnError`
    naming the item at fault: a graph, vertex or edge that is not an object,
    lacks a field or has one of the wrong JSON type (true and false are not
    integers, as in `parse_pd`), an arc name that is not a string, a vertex
    index other than 0, 1 or 2 or a kind not of that index, a repeated
    vertex id, index-0 vertices other than one "inf", an edge with an end
    no vertex declares or that runs neither from a crossing to a region nor
    from a region to "inf", an origin other than ["corner", crossing,
    position 0..3] on the first and ["region_plus" or "region_minus",
    region] on the second, an edge sign other than +-1, and a word letter
    that is not a [name, exponent] pair, names no arc or has an exponent
    other than +-1."""
    arcs, vertex_items, edge_items = _json_fields(data, "graph", dict.fromkeys(
        ("arcs", "vertices", "edges"), list))
    if any(type(name) is not str for name in arcs):
        raise DehnError("an arc name is not a string")
    name_to_id = {name: i for i, name in enumerate(arcs)}
    index_of: Dict[str, int] = {}
    for i, v in enumerate(vertex_items):
        what = f"vertex {v.get('id', i)!r}" if type(v) is dict else f"vertex {i}"
        vid, kind, index = _json_fields(v, what, {"id": str, "kind": str, "index": int})
        if index not in _KINDS:
            raise DehnError(f"{what}: index {index} is not 0, 1 or 2")
        if kind != _KINDS[index][0]:
            raise DehnError(f"{what}: kind {kind!r} does not match index {index}")
        if vid in index_of:
            raise DehnError(f"{what} is repeated")
        index_of[vid] = index
    groups = {index: [v for v, i in index_of.items() if i == index] for index in _KINDS}
    if groups[0] != [BASEPOINT]:
        raise DehnError(f"the index-0 vertices are {groups[0]}, not [{BASEPOINT!r}]")
    edges = []
    for i, e in enumerate(edge_items):
        source, target = _json_fields(e, f"edge {i}", {"from": str, "to": str})
        what = f"edge {source} -> {target}"
        sign, word, origin = _json_fields(e, what, {"sign": int, "word": list, "origin": list})
        ends = (index_of.get(source), index_of.get(target))
        if ends not in _EDGE_ORIGINS:
            raise DehnError(f"{what} runs neither from a crossing to a region nor from "
                            "a region to the basepoint")
        tags, count, shape = _EDGE_ORIGINS[ends]
        tag, *ids = origin or [None]
        if (tag not in tags or len(ids) != count or any(type(i) is not int for i in ids)
                or (tag == "corner" and ids[1] not in range(4))):
            raise DehnError(f"{what}: origin {origin!r} is not {shape}")
        if sign not in (1, -1):
            raise DehnError(f"{what}: sign {sign!r} is not +1 or -1")
        letters = []
        for letter in word:
            if type(letter) is not list or len(letter) != 2:
                raise DehnError(f"{what}: letter {letter!r} is not a [name, exponent] pair")
            name, exp = letter
            if type(name) is not str or name not in name_to_id:
                raise DehnError(f"{what}: letter {name!r} names no arc")
            if type(exp) is not int or exp not in (1, -1):
                raise DehnError(f"{what}: letter {name!r} has exponent {exp!r}, not +1 or -1")
            letters.append((name_to_id[name], exp))
        edges.append(Edge(source, target, GroupRingTerm(sign, free_reduce(letters)),
                          tuple(origin)))
    return DehnGraph(tuple(groups[2]), tuple(groups[1]), tuple(edges), tuple(arcs))
