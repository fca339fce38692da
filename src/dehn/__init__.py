"""Exact computation of Dehn graphs, Reidemeister torsion and the abelian
defect invariant of knot exteriors from planar-diagram codes."""

from .algebra import FieldMatrix, Polynomial, RatFunc
from .dehngraph import (DehnGraph, GroupRingTerm, build_d1, build_d2,
                        build_dehn_graph, check_d2, export_dot, graph_to_json)
from .diagram import (KnotDiagram, PDCode, WirtingerPresentation, build_diagram,
                      parse_pd, wirtinger)
from .errors import (ConfigError, DehnError, MultiComponentError,
                     NotExactError, NotPlanarError, PDLabelError,
                     PDSyntaxError, RegionLabelError)
from .invariants import (DefectValue, Propagator, TorsionValue,
                         build_propagator, check_lescop_relation,
                         coordinates_agree, defect, defect_equal_mod_Z,
                         propagator_at, torsion, torsion_equal_up_to_units)
from .mscomplex import (ChainComplex, ExactnessReport, Representation,
                        build_complex, check_exactness)
from .oracle import AlexanderPolynomial, fox_alexander, milnor_check
from .pipeline import PipelineRun, compute_result, run_pipeline

__version__ = "0.1.0"
