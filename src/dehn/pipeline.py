"""End-to-end per-knot pipeline and the stable JSON result object.

A `PipelineRun` holds each object of the chain once: the PD code and the
diagram are read through `graph.diagram`, the complex through
`propagator.complex`, and exactness, which `run_pipeline` requires, is no
field at all.
"""

from __future__ import annotations

from typing import Optional

from ._value import Value
from .dehngraph import DehnGraph, build_d1, build_d2, build_dehn_graph, check_d2
from .diagram import build_diagram, parse_pd, wirtinger
from .errors import NotExactError, RegionLabelError
from .invariants import (DefectValue, Propagator, TorsionValue,
                         build_propagator, check_lescop_relation, defect,
                         torsion)
from .mscomplex import Representation, build_complex, check_exactness
from .oracle import AlexanderPolynomial, fox_alexander, milnor_check

SCHEMA_VERSION = 1


class PipelineRun(Value):
    graph: DehnGraph
    rep: Representation
    propagator: Propagator
    tor: TorsionValue
    d: DefectValue
    alexander: AlexanderPolynomial
    lescop_ok: bool
    milnor_ok: bool

    def to_json_dict(self) -> dict:
        pd = self.graph.diagram.pd
        return {
            "schema_version": SCHEMA_VERSION,
            "pd": pd.to_text(),
            "crossings": pd.k,
            "torsion": {
                "raw": self.tor.raw.to_json(),
                "normalized": self.tor.normalized.to_json(),
            },
            "defect": {
                "representative": self.d.representative.to_json(),
            },
            # run_pipeline raises unless exact, propagator and d2_consistency hold.
            "checks": {
                "exact": True,
                "propagator": True,
                "lescop": self.lescop_ok,
                "milnor": self.milnor_ok,
                "d2_consistency": True,
            },
        }


def run_pipeline(pd_text: str, outer_region: Optional[int] = None) -> PipelineRun:
    """Parse, build the labeled graph and complex, and compute every invariant.

    Raises the error hierarchy in `dehn.errors` for invalid input, non-planar
    rotation data or a non-exact complex; never returns partial results.
    """
    diagram = build_diagram(parse_pd(pd_text), outer_region=outer_region)
    graph = build_dehn_graph(diagram, build_d1(diagram), build_d2(diagram))
    rep = Representation.abelian()
    violations = check_d2(graph.d2, diagram, rep)
    if violations:
        raise RegionLabelError(f"region labeling is inconsistent: {violations}")
    cx = build_complex(graph, rep)
    witness = check_exactness(cx)  # build_propagator re-checks; fail early here
    if witness is not None:
        raise NotExactError(f"complex is not exact: {witness}")
    g = build_propagator(cx)
    tor = torsion(g)
    d = defect(g)
    alex = fox_alexander(wirtinger(diagram))
    return PipelineRun(graph, rep, g, tor, d, alex, check_lescop_relation(tor, d),
                       milnor_check(tor, alex))


def compute_result(pd_text: str, outer_region: Optional[int] = None) -> dict:
    return run_pipeline(pd_text, outer_region).to_json_dict()
