"""End-to-end per-knot pipeline and the stable JSON result object."""

from __future__ import annotations

from typing import Optional

from ._value import Value
from .dehngraph import (CornerLabeling, DehnGraph, RegionLabeling, build_d1,
                        build_d2, build_dehn_graph, check_d2)
from .diagram import KnotDiagram, PDCode, build_diagram, parse_pd, wirtinger
from .errors import NotExactError, RegionLabelError
from .invariants import (DefectValue, Propagator, TorsionValue,
                         build_propagator, check_lescop_relation, defect,
                         torsion)
from .mscomplex import (ChainComplex, Representation, build_complex,
                        check_exactness)
from .oracle import AlexanderPolynomial, fox_alexander, milnor_check

SCHEMA_VERSION = 1


class PipelineRun(Value):
    pd: PDCode
    diagram: KnotDiagram
    d1_labels: CornerLabeling
    d2_labels: RegionLabeling
    graph: DehnGraph
    rep: Representation
    complex: ChainComplex
    propagator: Propagator
    tor: TorsionValue
    d: DefectValue
    alexander: AlexanderPolynomial
    lescop_ok: bool
    milnor_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "pd": self.pd.to_text(),
            "crossings": self.pd.k,
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
    pd = parse_pd(pd_text)
    diagram = build_diagram(pd, outer_region=outer_region)
    d1_labels = build_d1(diagram)
    d2_labels = build_d2(diagram)
    graph = build_dehn_graph(diagram, d1_labels, d2_labels)
    rep = Representation.abelian()
    violations = check_d2(d2_labels, diagram, rep)
    if violations:
        raise RegionLabelError(f"region labeling is inconsistent: {violations}")
    cx = build_complex(graph, rep)
    report = check_exactness(cx)  # build_propagator re-checks; fail early here
    if not report.exact:
        raise NotExactError(f"complex is not exact: {report.witness}")
    g = build_propagator(cx)
    tor = torsion(g)
    d = defect(g)
    alex = fox_alexander(wirtinger(diagram))
    return PipelineRun(pd, diagram, d1_labels, d2_labels, graph, rep, cx, g, tor, d, alex,
                       check_lescop_relation(tor, d), milnor_check(tor, alex))


def compute_result(pd_text: str, outer_region: Optional[int] = None) -> dict:
    return run_pipeline(pd_text, outer_region).to_json_dict()
