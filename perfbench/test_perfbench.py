"""Self-tests of the benchmark: generators, verifier, loop and tracer.

Run from the root of the repository: python3 -m pytest perfbench
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dehn  # noqa: E402
import dehn.cli  # noqa: E402
import dehn.invariants  # noqa: E402
import dehn.pipeline  # noqa: E402
from dehn.diagram import build_diagram, parse_pd  # noqa: E402

import families as F  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
import workloads as W  # noqa: E402


def faces_ok(pd_text: str) -> bool:
    pd = parse_pd(pd_text)
    return len(build_diagram(pd).regions) == pd.k + 2


def test_torus_formula_matches_the_trefoil_and_chains():
    assert faces_ok(F.to_text(F.torus_2(3)))
    assert F.torus_2_alexander(3) == F.ALEXANDER["3_1"]
    with pytest.raises(ValueError):
        F.torus_2(4)


def test_kink_matches_the_corpus_form():
    assert F.to_text(F.kink(F.CORPUS["3_1"], 1)) == "[[3,6,4,7],[5,8,6,1],[7,4,8,5],[1,2,2,3]]"


def test_every_kink_and_splice_of_the_corpus_is_planar():
    for name, pd in F.CORPUS.items():
        for edge in range(1, 2 * len(pd) + 1):
            assert faces_ok(F.to_text(F.kink(pd, edge))), (name, edge)
            for other, pd2 in F.CORPUS.items():
                for edge2 in range(1, 2 * len(pd2) + 1):
                    text = F.to_text(F.connected_sum(pd, edge, pd2, edge2))
                    assert faces_ok(text), (name, edge, other, edge2)


@pytest.mark.parametrize("workload", sorted(W.ROUNDS))
def test_workload_knots_parse_and_keep_their_size_classes(workload):
    classes = None
    for seed in range(3):
        knots = W.inputs(workload, seed, 2)
        for knot in knots:
            assert faces_ok(knot.pd), knot
        sizes = [k.crossings for k in knots]
        assert classes is None or sizes == classes
        classes = sizes


def test_inputs_are_a_function_of_the_seed():
    a = W.inputs("composite-sparse", 7, 2)
    assert W.fingerprint(a) == W.fingerprint(W.inputs("composite-sparse", 7, 2))
    assert W.fingerprint(a) != W.fingerprint(W.inputs("composite-sparse", 8, 2))
    assert W.inputs("composite-sparse", 7, 1) == a[:len(a) // 2]


def test_composite_classes_hold_their_summands_and_kinks():
    knots = W.inputs("composite-sparse", 3, 4)
    classes = W.COMPOSITE_CLASSES * W.COMPOSITE_PER_CLASS * 4
    for knot, (summands, crossings) in zip(knots, classes):
        parts, kinks = knot.label.rsplit("+", 1)
        assert knot.crossings == crossings
        assert len(parts.split("#")) == summands
        assert 0 <= int(kinks[:-1]) <= W.MAX_KINKS


def trefoil_result():
    pd = F.to_text(F.CORPUS["3_1"])
    return pd, dehn.pipeline.compute_result(pd)


def test_verifier_accepts_dehn_on_a_sum():
    pd_a, pd_b = F.CORPUS["3_1"], F.CORPUS["5_2"]
    text = F.to_text(F.connected_sum(pd_a, 2, pd_b, 5))
    result = dehn.pipeline.compute_result(text)
    alex = F.poly_mul(F.ALEXANDER["3_1"], F.ALEXANDER["5_2"])
    assert verify.compute_result_errors(result, text, 8, alex) == []
    assert verify.compute_result_errors(result, text, 8, F.ALEXANDER["3_1"]) != []


def test_defect_is_checked_modulo_the_integers_exactly():
    pd, result = trefoil_result()
    rep = result["defect"]["representative"]
    num, den = verify._poly(rep["num"]), verify._poly(rep["den"])
    alex = F.ALEXANDER["3_1"]
    assert verify.defect_ok(num, den, alex)
    shifted = [a + 3 * b for a, b in zip(num + [0] * len(den), den + [0] * len(num))]
    assert verify.defect_ok(verify._poly(shifted), den, alex)
    half = [a + Fraction(1, 2) * b for a, b in zip(num + [0] * len(den), den + [0] * len(num))]
    assert not verify.defect_ok(verify._poly(half), den, alex)


def test_a_corrupted_coefficient_counts_as_failed():
    knots = W.inputs("check-seeds", 0, 1)[:3]
    call, check = run.workload_call("composite-sparse")

    def corrupt(knot):
        out = call(knot)
        if knot is knots[1]:
            coeffs = out["torsion"]["normalized"]["num"]
            coeffs[0] = str(Fraction(coeffs[0]) + 1)
        return out

    runs = run.measure(knots, corrupt, check)
    failed = [r for r in runs if r.errors]
    assert len(failed) == 1 and failed[0].label == knots[1].label
    assert len(failed) / len(runs) == pytest.approx(1 / 3)
    assert all(r.seconds > 0 and r.wall > 0 for r in runs)


def test_a_raising_call_counts_as_failed_and_the_loop_goes_on():
    knots = W.inputs("check-seeds", 0, 1)[:2]

    def call(knot):
        if knot is knots[0]:
            raise ValueError("boom")
        return dehn.pipeline.compute_result(knot.pd)

    runs = run.measure(knots, call, run.workload_call("torus-dense")[1])
    assert [bool(r.errors) for r in runs] == [True, False]


def test_cli_check_output_verifies():
    call, check = run.workload_call("check-seeds")
    knot = W.inputs("check-seeds", 0, 1)[0]
    assert check(knot, call(knot)) == []


def test_speed_samples_land_inside_a_timed_call():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(sampler.samples) >= 3
    assert speed.scale(sampler.samples) > 0


def test_tail_needs_ten_knots_above_it():
    assert run.tail([1.0] * 19) is None
    q, value = run.tail([float(i) for i in range(1, 101)])
    assert q == 90 and value == 90.0
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)


def test_tracer_wraps_every_binding_and_restores_them():
    original = dehn.invariants.check_exactness
    tracer = spans.Tracer()
    tracer.install(dehn)
    try:
        for module in (dehn.pipeline, dehn.invariants, dehn.cli, dehn):
            assert module.check_exactness is not original
            assert module.check_exactness.__wrapped__ is original
        tracer.current_knot = 0
        dehn.pipeline.compute_result(F.to_text(F.CORPUS["4_1"]))
    finally:
        tracer.uninstall()
    assert dehn.pipeline.check_exactness is original
    metrics = tracer.layer_metrics(1)
    assert metrics["mscomplex.exactness_calls"][0] == 2
    assert metrics["invariants.propagator_calls"][0] == 1
    assert metrics["algebra.ratfunc_new"][0] > 0
    assert metrics["mscomplex.c1_dim"][0] == 5
    assert metrics["cli.self_s"][0] == 0
    assert metrics["invariants.propagator_incl_s"][0] >= metrics["invariants.propagator_s"][0]
    total = sum(tracer.self_times().values())
    top = tracer.inclusive("pipeline.compute_result")
    assert total == pytest.approx(top, rel=1e-9)


def test_a_metric_whose_function_is_gone_is_absent(monkeypatch):
    monkeypatch.setattr(spans, "METHODS", tuple(m for m in spans.METHODS if m[2] != "det"))
    tracer = spans.Tracer()
    tracer.install(dehn)
    try:
        dehn.pipeline.compute_result(F.to_text(F.CORPUS["3_1"]))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert "algebra.det_s" not in metrics and "algebra.det_calls" not in metrics
    assert "algebra.rref_s" in metrics
