"""Acceptance suite: every criterion as one test, printing one line each.

All comparisons are exact (zero tolerance): torsion equality is up to +-t^m
units with an exact normalized representative, defect equality is modulo an
integer constant. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines. The README's library example runs last, and must
print what its comments say.
"""

import time
from pathlib import Path

import pytest

from conftest import (CORPUS, FIG8, FIG8_KINKED, HOPF_LINK, TREFOIL,
                      TREFOIL_KINKED, find_basis_permutation, is_identity,
                      is_zero_matrix, mat, mat_add, pipeline, poly, qt_d1, qt_d2, qt_g1,
                      qt_add, qt_image, qt_sub, rf, scaled, selectable)
from dehn.algebra import RatFunc
from dehn.dehngraph import build_d1, build_d2, build_dehn_graph, check_d2
from dehn.diagram import build_diagram, parse_pd
from dehn.errors import MultiComponentError
from dehn.invariants import (DefectValue, TorsionValue, build_propagator,
                             check_lescop_relation, defect, defect_equal_mod_Z,
                             propagator_at, torsion, torsion_equal_up_to_units)
from dehn.mscomplex import Representation, build_complex, check_exactness
from dehn.oracle import milnor_check
from dehn.pipeline import run_pipeline
from dehn.words import word_mul


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_trefoil_torsion():
    start = time.perf_counter()
    run = run_pipeline(TREFOIL)
    elapsed = time.perf_counter() - start
    target_raw = rf((1, -1, 1), (1, -1))  # (t^2-t+1)/(1-t)
    assert torsion_equal_up_to_units(
        run.tor, TorsionValue(target_raw.znum, target_raw.zden))
    assert run.tor.normalized == rf((1, -1, 1), (-1, 1))  # (t^2-t+1)/(t-1)
    assert elapsed < 1.0
    _report(1, f"trefoil torsion (t^2-t+1)/(1-t) up to units, {elapsed:.3f}s")


def test_criterion_2_trefoil_defect():
    start = time.perf_counter()
    run = run_pipeline(TREFOIL)
    elapsed = time.perf_counter() - start
    target = qt_sub(rf((0, -1, 2), (1, -1, 1)), rf((0, 1), (-1, 1)))
    assert defect_equal_mod_Z(run.d, DefectValue(target.znum, target.zden))
    assert elapsed < 1.0
    _report(2, f"trefoil defect (2t^2-t)/(t^2-t+1) - t/(t-1) mod Z, {elapsed:.3f}s")


def test_criterion_3_trefoil_intermediate_fixtures():
    run = pipeline(TREFOIL)
    fixture = {
        "d2": mat([
            [(0, -1), -1, 0],
            [1, 1, 1],
            [0, (0, -1), -1],
            [-1, 0, (0, -1)],
        ]),
        "d1": mat([[(1, -1), (1, 0, -1), (1, -1), (1, -1)]]),
        "g2": scaled(mat([
            [0, (0, 0, 1), (0, 1), (-1, 1)],
            [0, 1, (1, -1), 1],
            [0, (0, -1), -1, (0, -1)],
        ]), rf(1, (1, -1, 1))),
        "g1": mat([[rf(1, (1, -1))], [0], [0], [0]]),
    }
    ours = {"d2": qt_d2(run.complex), "d1": qt_d1(run.complex),
            "g2": run.propagator.g2, "g1": qt_g1(run.complex, run.propagator)}
    perms = find_basis_permutation(ours, fixture)
    assert perms is not None
    _report(3, f"d2/d1/G2/G1 match the worked display under permutation {perms}")


def test_criterion_4_lescop_relation_on_corpus():
    start = time.perf_counter()
    for name, text in sorted(CORPUS.items()):
        run = run_pipeline(text)
        assert check_lescop_relation(run.tor, run.d), name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"defect = t d/dt log(torsion) mod Z on {len(CORPUS)} knots, "
               f"{elapsed:.1f}s")


def test_criterion_5_milnor_relation_on_corpus():
    for name, text in sorted(CORPUS.items()):
        run = pipeline(text)
        assert milnor_check(run.tor, run.alexander), name
    assert pipeline(TREFOIL).alexander.poly == poly(1, -1, 1)
    assert pipeline(FIG8).alexander.poly == poly(1, -3, 1)
    _report(5, "torsion*(t-1) matches the Fox-calculus Alexander polynomial; "
               "3_1 and 4_1 oracle values exact")


def test_criterion_6_propagator_independence():
    for name, text in sorted(CORPUS.items()):
        run = pipeline(text)
        for s in selectable(run.complex):
            g = propagator_at(run.complex, s)
            assert torsion_equal_up_to_units(run.tor, torsion(g)), (name, s)
            assert defect_equal_mod_Z(run.d, defect(g)), (name, s)
    _report(6, "every coordinate with d1[s] != 0 per knot: unit-equal torsion, "
               "mod-Z-equal defect")


def test_criterion_7_diagram_independence():
    for a_text, b_text in [(TREFOIL, TREFOIL_KINKED), (FIG8, FIG8_KINKED)]:
        a, b = pipeline(a_text), pipeline(b_text)
        assert torsion_equal_up_to_units(a.tor, b.tor)
        assert defect_equal_mod_Z(a.d, b.d)
    _report(7, "3- vs 4-crossing trefoil and 4- vs 5-crossing figure-eight agree")


def test_criterion_8_structural_properties_all_outer_choices():
    runs = 0
    for name, text in sorted(CORPUS.items()):
        pd = parse_pd(text)
        base = build_diagram(pd)
        for region in range(len(base.regions)):
            diagram = build_diagram(pd, outer_region=region)
            assert len(diagram.regions) == diagram.k + 2
            d1_labels = build_d1(diagram)
            d2_labels = build_d2(diagram)
            rep = Representation.abelian()
            for c, labels in enumerate(d1_labels):
                total = RatFunc(0)
                for label in labels:
                    total = qt_add(total, qt_image(label))
                assert not total.znum, (name, region, c)
            assert check_d2(d2_labels, diagram, rep) == [], (name, region)
            graph = build_dehn_graph(diagram, d1_labels, d2_labels)
            cx = build_complex(graph, rep)
            d2, d1 = qt_d2(cx), qt_d1(cx)
            assert is_zero_matrix(d1 @ d2), (name, region)
            g = build_propagator(cx)
            assert is_identity(g.g2 @ d2)
            g1 = qt_g1(cx, g)
            assert is_identity(d1 @ g1)
            assert is_identity(mat_add(d2 @ g.g2, g1 @ d1))
            runs += 1
    _report(8, f"structural suite clean over {runs} (knot, outer region) pairs")


def test_criterion_9_negative_controls():
    # trivial representation: d1 vanishes, complex is not exact
    diagram = build_diagram(parse_pd(TREFOIL))
    graph = build_dehn_graph(diagram, build_d1(diagram), build_d2(diagram))
    cx = build_complex(graph, Representation.trivial())
    report = check_exactness(cx)
    assert not report.exact
    assert report.witness == "rank(d1) = 0 < 1"
    # corrupted region labeling is caught
    labels = list(build_d2(diagram))
    victim = diagram.bounded_regions()[0]
    labels[victim] = word_mul(((0, 1),), labels[victim])
    rep = Representation.abelian()
    assert len(check_d2(labels, diagram, rep)) >= 1
    # multi-component PD codes are rejected at parse time
    with pytest.raises(MultiComponentError):
        parse_pd(HOPF_LINK)
    _report(9, "trivial rep flagged non-exact, corruption detected, link rejected")


def test_readme_library_example(capsys):
    # The first python block of README.md must print, in order, the `# ...`
    # comments on its print calls, so the README keeps up with the API.
    fence = "`" * 3
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split(fence + "python\n", 1)[1].split(fence, 1)[0]
    want = [line.split("#", 1)[1].strip()
            for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want
