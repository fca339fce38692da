import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, FIG8, FIG8_KINKED, TREFOIL, TREFOIL_KINKED,
                      UNKNOT_KINK, defect_terms, dense_d2, det_torsion, eliminate,
                      find_basis_permutation, from_rows, gauss_jordan, hstack, is_identity,
                      mat, mat_add, materialized_invariants, pipeline, qt_d1, qt_d2, qt_defect, qt_equal_mod_Z,
                      packed_column, qt_add, qt_derivative, qt_div, qt_g1, qt_inverse,
                      qt_lescop, qt_mul, qt_neg, qt_rref, qt_sub, qt_unit_equal, relabeled,
                      replaced, rf, satisfies_identities, scaled, selectable, spread, submatrix,
                      sparse_columns, sparse_rows, t_power, torus_pd)
from dehn import algebra, invariants, mscomplex
from dehn.algebra import RatFunc, _pack, _unpack, poly_add, poly_mul
from dehn.errors import DehnError, NotExactError
from dehn.dehngraph import build_d1, build_d2, build_dehn_graph
from dehn.diagram import build_diagram, parse_pd
from dehn.invariants import (DefectValue, TorsionValue, build_propagator,
                             check_lescop_relation, defect, defect_equal_mod_Z,
                             torsion, torsion_equal_up_to_units)
from dehn.mscomplex import ChainComplex, Representation, _certify_inverse, build_complex
from dehn.oracle import milnor_check
from dehn.pipeline import run_pipeline
from test_cli import label_valid_pd
from test_golden import COMPOSITE_48, SCALE_KNOTS

T = t_power(1)

# Reference values for the trefoil with the maximal abelian representation.
TORSION_TARGET = rf((1, -1, 1), (1, -1))  # (t^2-t+1)/(1-t), up to units
DEFECT_TARGET = qt_sub(rf((0, -1, 2), (1, -1, 1)), rf((0, 1), (-1, 1)))

G2_FIXTURE = scaled(mat([
    [0, (0, 0, 1), (0, 1), (-1, 1)],
    [0, 1, (1, -1), 1],
    [0, (0, -1), -1, (0, -1)],
]), rf(1, (1, -1, 1)))
G1_FIXTURE = mat([[rf(1, (1, -1))], [0], [0], [0]])


# -- propagator ---------------------------------------------------------------


@pytest.mark.parametrize("text", sorted(CORPUS.values()))
def test_propagator_identities(text):
    run = pipeline(text)
    cx, g = run.propagator.complex, run.propagator
    d2, d1 = qt_d2(cx), qt_d1(cx)
    assert is_identity(g.g2 @ d2)
    g1 = qt_g1(cx, g)
    assert is_identity(d1 @ g1)
    assert is_identity(mat_add(d2 @ g.g2, g1 @ d1))


def test_trefoil_default_propagator_matches_fixture():
    run = pipeline(TREFOIL)
    assert run.propagator.selected == 0
    ours = {"d2": qt_d2(run.propagator.complex), "d1": qt_d1(run.propagator.complex),
            "g2": run.propagator.g2, "g1": qt_g1(run.propagator.complex, run.propagator)}
    from test_mscomplex import TREFOIL_D1, TREFOIL_D2
    fixture = {"d2": TREFOIL_D2, "d1": TREFOIL_D1,
               "g2": G2_FIXTURE, "g1": G1_FIXTURE}
    assert find_basis_permutation(ours, fixture) is not None


def test_propagator_random_seeds_all_valid():
    # The propagator of every coordinate with d1[s] != 0, not only the
    # reported one, satisfies the three identities over Q(t).
    cx = pipeline(TREFOIL).propagator.complex
    propagators = [invariants.propagator_at(cx, s) for s in selectable(cx)]
    d2, d1 = qt_d2(cx), qt_d1(cx)
    for g in propagators:
        assert is_identity(g.g2 @ d2)
        g1 = qt_g1(cx, g)
        assert is_identity(d1 @ g1)
        assert is_identity(mat_add(d2 @ g.g2, g1 @ d1))
    assert len(propagators) > 1  # genuinely different


def _coordinate_columns(dim, indices):
    cols = [[RatFunc(0)] * len(indices) for _ in range(dim)]
    for j, i in enumerate(indices):
        cols[i][j] = RatFunc(1)
    return from_rows(cols)


def reference_propagator(cx, s):
    """The rule propagator_at must reproduce, over Q(t): coordinate s
    selects a propagator iff [e_s | d2] has full rank, and its G2 is read
    off the inverse of [e_s | d2]; None where the rank falls short. Ranks
    and the inverse come from the Q(t) reference elimination, not from the
    kernel under test."""
    c2, c1 = cx.c2_dim, cx.c1_dim
    basis = hstack(_coordinate_columns(c1, [s]), qt_d2(cx))
    if qt_rref(basis)[2] != c2 + 1:
        return None
    return submatrix(qt_inverse(basis), range(1, c1), range(c1))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_propagator_matches_reference_rule(name, text):
    # Every coordinate: those the rule admits give its G2, the others are
    # refused, and build_propagator reads the first one it admits.
    cx = pipeline(text).propagator.complex
    admitted = []
    for s in range(cx.c1_dim):
        want = reference_propagator(cx, s)
        if want is None:
            with pytest.raises(DehnError, match="delta = 0"):
                invariants.propagator_at(cx, s)
        else:
            admitted.append(s)
            assert invariants.propagator_at(cx, s).g2 == want, s
    assert admitted == selectable(cx)
    assert build_propagator(cx).selected == admitted[0]


# The message of a failed certificate X * B0 = delta0 * I.
CERTIFICATE = "X \\* \\[d2 \\| e_s0\\] = delta0 \\* I failed"


def _inverse(cx):
    """The complex's scaled inverse X as a fresh list of packed rows, and
    its width."""
    return [list(row) for row in cx.scaled_inverse], cx.forward_elimination[3]


def test_verify_identities_rejects_a_perturbed_g2():
    # Adding t to one entry of N0, 2^width to its packed value in X, adds
    # t / delta to that G2 entry; the certificate of X refuses it.
    run = pipeline(FIG8)
    cx, g = run.propagator.complex, run.propagator
    x, width = _inverse(cx)
    _certify_inverse(cx, x)
    x[1][2] += 1 << width
    wrong = replaced(g, complex=replaced(cx, scaled_inverse=x))
    assert wrong.numer[1][2] == poly_add(g.numer[1][2], [0, 1])
    with pytest.raises(DehnError, match=CERTIFICATE):
        _certify_inverse(cx, x)


def _bumped(poly, p, c):
    """poly + c * t^p over Z[t]."""
    return poly_add(poly, [c], shift=p)


@pytest.mark.parametrize("text", [FIG8, torus_pd(7)])
def test_verify_identities_rejects_every_unit_perturbation(text):
    # +-1 on any one digit of a packed entry of X, one past the top of each
    # entry too, is +-t^p on that entry of N0 or of v; on v[s0] it moves
    # delta0 as well. Each fails the certificate.
    cx = pipeline(text).propagator.complex
    x, width = _inverse(cx)
    _certify_inverse(cx, x)
    for r, row in enumerate(x):
        for j, entry in enumerate(row):
            for p in range(len(_unpack(entry, width)) + 1):
                for c in (1, -1):
                    wrong = [list(line) for line in x]
                    wrong[r][j] += c << width * p
                    assert _unpack(wrong[r][j], width) == _bumped(_unpack(entry, width), p, c)
                    with pytest.raises(DehnError):
                        _certify_inverse(cx, wrong)


@pytest.mark.parametrize("keep_v", [False, True], ids=["delta0", "delta1"])
def test_verify_identities_rejects_a_zero_delta(keep_v):
    # With X = 0, or N0 = 0 beside the true v with v[s0] = 0, every packed
    # side of X * B0 = delta0 * I reads 0, so the product test would pass;
    # delta0 = v[s0] = 0 is refused first.
    cx = pipeline(FIG8).propagator.complex
    x, _ = _inverse(cx)
    v = [0 if j == cx.base_coordinate else e for j, e in enumerate(x[-1])]
    wrong = [[0] * len(row) for row in x[:-1]] + [v if keep_v else [0] * len(v)]
    with pytest.raises(DehnError, match="delta = 0"):
        _certify_inverse(cx, wrong)


# 3_1 # 4_1 # 5_2 # 6_1 spliced at seeded edges, with two Reidemeister-I
# kinks: 20 crossings.
COMPOSITE_KINKED = (
    "[[7,10,8,11],[9,12,10,13],[11,8,12,9],[14,32,15,31],[18,16,19,15],[16,13,17,14],"
    "[32,17,33,18],[36,39,37,40],[38,5,39,6],[40,35,1,36],[6,3,7,4],[4,37,5,38],"
    "[29,20,30,21],[23,26,24,27],[19,25,20,24],[25,31,26,30],[21,28,22,29],[27,22,28,23],"
    "[33,34,34,35],[1,2,2,3]]")
_EXCHANGE_KNOTS = dict(CORPUS, **{"3_1 kinked": TREFOIL_KINKED, "4_1 kinked": FIG8_KINKED,
                                  "3_1#4_1#5_2#6_1 kinked": COMPOSITE_KINKED},
                       **{f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)})


@pytest.mark.parametrize("name", sorted(_EXCHANGE_KNOTS))
def test_pivot_exchange_matches_the_full_elimination(name):
    # For every coordinate s with d1[s] != 0, the propagator exchanged from
    # the scaled inverse is the one the dense Gauss-Jordan of [d2 | I], s
    # first among the unit columns, gives: the same selected coordinate, the
    # same sign * delta = det [d2 | e_s] and the same G2 = N / delta. How
    # that determinant splits between sign and delta depends on the row
    # order each elimination took: delta = eps * delta_ref, eps = sign *
    # the sign of the complex's elimination, so N / delta = N_ref /
    # delta_ref iff N = eps * N_ref.
    cx = pipeline(_EXCHANGE_KNOTS[name]).propagator.complex
    coords = selectable(cx)
    assert coords
    for s in coords:
        g = invariants.propagator_at(cx, s)
        numer, delta, selected, sign = eliminate(
            cx, [s] + [j for j in range(cx.c1_dim) if j != s])
        assert g.selected == selected == s
        sign_g = cx.forward_elimination[2]
        assert [sign_g * c for c in g.delta] == [sign * c for c in delta], s
        eps = sign * sign_g
        assert g.numer == [[[eps * c for c in b] for b in row] for row in numer], s


_RANK_ONE_KNOTS = dict(CORPUS, **{"3_1 kinked": TREFOIL_KINKED, "4_1 kinked": FIG8_KINKED},
                      **{f"T(2,{n})": torus_pd(n) for n in range(3, 16, 2)})


def _regions(text):
    return list(range(len(build_diagram(parse_pd(text)).regions)))


def _t_derivative(p):
    """t * p' over Z[t]."""
    return poly_add([], [m * c for m, c in enumerate(p)])


@pytest.mark.parametrize("name", sorted(_RANK_ONE_KNOTS))
def test_rank_one_read_matches_the_materialized_exchange(name):
    # Under every outer region, for every coordinate s with d1[s] != 0, the
    # torsion read off delta_s = v[s] and the defect read off the entries
    # of N_s under the t-power entries of d2, each exchanged off X, are the
    # pairs read off N_s itself, built by the exchange and unpacked in
    # full; that N_s passes the propagator check. The torsion and the
    # defect never build it.
    text = _RANK_ONE_KNOTS[name]
    for region in _regions(text):
        cx = pipeline(text, outer_region=region).propagator.complex
        for s in selectable(cx):
            g = invariants.propagator_at(cx, s)
            tor, d = torsion(g), defect(g)
            assert "numer" not in vars(g), (region, s)
            assert (tor, d) == materialized_invariants(cx, g), (region, s)
            assert satisfies_identities(cx, g), (region, s)


@pytest.mark.parametrize("name", sorted(_RANK_ONE_KNOTS))
def test_seeded_trace_numerator_is_the_derivative_of_delta(name):
    # Jacobi's formula, exactly: tr(t d2' * N_s) is delta_s * tr(B_s^-1 *
    # t B_s') = t * delta_s', B_s = [d2 | e_s], for every selected s. A test
    # oracle only: the library keeps the paper's trace, so the Lescop check
    # and seed independence still compare two computations.
    text = _RANK_ONE_KNOTS[name]
    for region in _regions(text):
        cx = pipeline(text, outer_region=region).propagator.complex
        for s in selectable(cx):
            g = invariants.propagator_at(cx, s)
            assert invariants._traces(g)(s) == _t_derivative(g.delta), (region, s)


@settings(max_examples=40, deadline=None)
@given(label_valid_pd())
def test_seeded_trace_numerator_is_the_derivative_of_delta_on_label_valid_codes(text):
    # Under every outer region, at a fixed spread of five coordinates.
    try:
        regions = _regions(text)
    except DehnError:
        return
    for region in regions:
        cx = pipeline(text, outer_region=region).propagator.complex
        for s in spread(cx, 5):
            g = invariants.propagator_at(cx, s)
            assert invariants._traces(g)(s) == _t_derivative(g.delta), (region, s)


def _per_entry_trace(cx, g):
    """tr(t d2' * N) for g summed entry by entry, the paper's edge sum as
    written: each entry N_s[j][i] under a t-power entry of d2 read by
    `invariants._exchanged` and unpacked, the entry `Propagator.numer`
    builds there, without building the rest of N."""
    x, width, num = cx.scaled_inverse, cx.forward_elimination[3], []
    for i, row in enumerate(dense_d2(cx)):
        for j, e in enumerate(row):
            if len(e) > 1:
                n = _unpack(invariants._exchanged(x, cx.base_coordinate, g.selected, j, i),
                            width)
                for m in range(1, len(e)):
                    num = poly_add(num, n, m * e[m], m)
    return num


# The corpus under every outer region, T(2,n) for n <= 31, and the knots of
# the scale golden file, T(2,31) among them.
_TRACE_CASES = ([(name, region) for name in sorted(CORPUS)
                 for region in _regions(CORPUS[name])]
                + [(f"T(2,{n})", None) for n in range(3, 32, 2)]
                + [(name, None) for name, _, _ in SCALE_KNOTS if name != "T2_31"])
_TRACE_KNOTS = dict(CORPUS, **{f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)},
                    **{name: pd for name, pd, _ in SCALE_KNOTS})


@pytest.mark.parametrize("name,region", _TRACE_CASES,
                         ids=[f"{name}-{region}" for name, region in _TRACE_CASES])
def test_regrouped_trace_is_the_per_entry_edge_sum(name, region):
    # For every coordinate s with d1[s] != 0, the trace regrouped over the
    # pivot exchange, one division by delta0, is the sum of the exchanged
    # entries, one division each; and the width holds its proof: at least
    # the kernel's proved width for [B0 | I] plus the bits of W = sum_ij
    # |t d2'[i][j]|_1.
    cx = pipeline(_TRACE_KNOTS[name], outer_region=region).propagator.complex
    b0 = [row + [(1,) if i == cx.base_coordinate else ()] for i, row in enumerate(dense_d2(cx))]
    rows = [list(row) + [(1,) if j == i else () for j in range(cx.c1_dim)]
            for i, row in enumerate(b0)]
    w = sum(m * abs(c) for row in dense_d2(cx) for e in row for m, c in enumerate(e))
    proved = algebra._packing_bits(algebra._minor_bound(sparse_rows(rows)))
    assert cx.forward_elimination[3] >= proved + w.bit_length()
    for s in selectable(cx):
        g = invariants.propagator_at(cx, s)
        assert invariants._traces(g)(s) == _per_entry_trace(cx, g), s


@pytest.mark.parametrize("text", [FIG8, torus_pd(7)])
def test_a_bumped_functional_is_refused(text, monkeypatch):
    # +-1 on any one digit of a packed entry v[j] that the back substitution
    # returns, one past the top of the entry too, is +-t^p on v[j], which
    # puts t^p * d2[j] != 0 into v * d2 or moves v[s0] off delta0: the
    # certificate refuses X where it is made, before any propagator, at s0
    # or at another coordinate, is read off it.
    fields = pipeline(text).propagator.complex._values()
    cx = ChainComplex(*fields)
    s0, width = cx.base_coordinate, cx.forward_elimination[3]
    s = next(j for j in range(cx.c1_dim) if cx.d1_row[j] and j != s0)
    solve = mscomplex.fraction_free_back_substitution
    for j, entry in enumerate(cx.scaled_inverse[-1]):
        for p in range(len(_unpack(entry, width)) + 1):
            for c in (1, -1):
                def bumped(rows, n, j=j, p=p, c=c):
                    out = solve(rows, n)
                    out[-1][j] += c << width * p
                    return out
                monkeypatch.setattr(mscomplex, "fraction_free_back_substitution", bumped)
                for selected in (s0, s):
                    with pytest.raises(DehnError):
                        invariants.propagator_at(ChainComplex(*fields), selected)


def test_the_base_defect_forms_t_alone():
    # u[j] = sum_i w_ij * v[i] is formed only when a coordinate other than
    # s0 is read: with every entry of v but v[s0] unreadable, the base
    # propagator's defect is the same, and the trace of another coordinate
    # reads v.
    run = pipeline(FIG8)
    cx, g = run.propagator.complex, run.propagator
    s0 = cx.base_coordinate
    assert g.selected == s0
    x, _ = _inverse(cx)
    x[-1] = [e if i == s0 else None for i, e in enumerate(x[-1])]
    wrong = replaced(g, complex=replaced(cx, scaled_inverse=x))
    assert defect(wrong) == run.d
    s = next(s for s in selectable(cx) if s != s0)
    with pytest.raises(TypeError):
        invariants._traces(wrong)(s)


def test_a_seeded_propagator_with_zero_delta_is_refused():
    # On an exact complex the certified v is delta0 * phi, so v[s] != 0
    # wherever d1[s] != 0; an X that reads 0 at a selected s, set in past
    # its certificate, is refused all the same, as delta0 = 0 is.
    cx = pipeline(FIG8).propagator.complex
    s = next(j for j in range(cx.c1_dim) if cx.d1_row[j] and j != cx.base_coordinate)
    x, _ = _inverse(cx)
    x[-1][s] = 0
    with pytest.raises(DehnError, match="delta = 0"):
        invariants.propagator_at(replaced(cx, scaled_inverse=x), s)


def test_an_inexact_pivot_exchange_names_the_exchange():
    # One entry N0[j][i] of an X set in past its certificate, moved by 1:
    # the exchange to s adds v[s] to the numerator of N_s[j][i], which
    # v[s0] does not divide. The error names the exchange and the entry,
    # not the elimination whose division it shares.
    cx = pipeline(FIG8).propagator.complex
    x, _ = _inverse(cx)
    s0, v = cx.base_coordinate, x[-1]
    s = next(j for j in range(cx.c1_dim) if cx.d1_row[j] and j != s0 and v[j] % v[s0])
    j, i = 0, next(i for i in range(cx.c1_dim) if i != s)
    invariants._exchanged(x, s0, s, j, i)
    x[j][i] += 1
    with pytest.raises(ArithmeticError, match=re.escape(
            f"inexact division in the pivot exchange to s = {s}: entry N_s[{j}][{i}]")):
        invariants._exchanged(x, s0, s, j, i)


def test_an_inexact_trace_names_the_trace():
    # One entry v[i] of an X set in past its certificate, i neither s0 nor
    # s, moved by 1: u[j] moves by w_ij = t d2'[i][j] wherever row i of d2
    # has a t-power term, so the trace's numerator v[s] * T - sum_j
    # N0[j][s] * u[j] moves by -sum_j N0[j][s] * w_ij, which v[s0] does not
    # divide. The error names the trace and s.
    cx = pipeline(FIG8).propagator.complex
    x, _ = _inverse(cx)
    s0 = cx.base_coordinate
    s = next(j for j in range(cx.c1_dim) if cx.d1_row[j] and j != s0)
    i = next(j for j in range(cx.c1_dim) if j not in (s0, s))
    g = invariants.propagator_at(cx, s)
    x[-1][i] += 1
    with pytest.raises(ArithmeticError, match=re.escape(
            f"inexact division in the trace of s = {s}")):
        invariants._traces(replaced(g, complex=replaced(cx, scaled_inverse=x)))(s)


_AGREE_KNOTS = dict(CORPUS, **{"3_1 kinked": TREFOIL_KINKED, "4_1 kinked": FIG8_KINKED},
                    **{f"T(2,{n})": torus_pd(n) for n in range(3, 32, 2)},
                    composite_48=COMPOSITE_48)


def _pairwise_agree(g):
    """The comparison as the propagator of each coordinate makes it: the
    torsion and defect of every other coordinate with d1[s] != 0, each
    pair cross-multiplied against g's, in order, stopping at the first
    that differs."""
    def same(a, b):
        return poly_mul(a.num, b.den) == poly_mul(b.num, a.den)

    cx, tor, d = g.complex, torsion(g), defect(g)
    others = (invariants.propagator_at(cx, s) for s in selectable(cx) if s != g.selected)
    return all(same(tor, torsion(h)) and same(d, defect(h)) for h in others)


@pytest.mark.parametrize("name", sorted(_AGREE_KNOTS))
def test_coordinates_agree_is_the_pairwise_comparison(name, monkeypatch):
    # (I) and (II) on sums formed once give the pairwise test's boolean,
    # and raise its error at the same point, against the propagator of s0
    # and of the first other coordinate: as built; with delta_f doubled or
    # negated at one coordinate f; with num_f moved by t * delta_f or by
    # delta_f, so the defect moves by t or by the integer 1, not the same
    # fraction either way; with an inexact trace at f; and with that one
    # behind a coordinate e whose delta is doubled, which (I) refuses
    # before any division. The corpus and the kinked knots are read under
    # every outer region.
    text = _AGREE_KNOTS[name]
    regions = _regions(text) if name in CORPUS or "kinked" in name else [None]
    build, traces = invariants.propagator_at, invariants._traces

    def outcome(compare, g):
        try:
            return compare(g)
        except ArithmeticError as exc:
            return str(exc)

    def inject(faults):
        def propagator_at(cx, s):
            g = build(cx, s)
            c = faults.get(("delta", s))
            return g if c is None else replaced(g, delta=tuple(c * x for x in g.delta))

        def _traces(g):
            num = traces(g)

            def faulty(s):
                if ("inexact", s) in faults:
                    raise ArithmeticError(f"inexact division in the trace of s = {s}")
                shift = faults.get(("num", s))
                return num(s) if shift is None else poly_add(
                    num(s), build(g.complex, s).delta, shift=shift)
            return faulty

        monkeypatch.setattr(invariants, "propagator_at", propagator_at)
        monkeypatch.setattr(invariants, "_traces", _traces)

    for region in regions:
        cx = pipeline(text, outer_region=region).propagator.complex
        coords = selectable(cx)
        for r in coords[:2]:
            g = build(cx, r)
            others = [s for s in coords if s != r]
            e, f = (others[0], others[-1]) if others else (None, None)
            for faults, want in [
                    ({}, True),
                    ({("delta", f): 2}, False), ({("delta", f): -1}, False),
                    ({("num", f): 1}, False), ({("num", f): 0}, False),
                    ({("inexact", f): True}, f"inexact division in the trace of s = {f}"),
                    ({("delta", e): 2, ("inexact", f): True}, False)]:
                inject(faults)
                got = outcome(invariants.coordinates_agree, g)
                assert got == outcome(_pairwise_agree, g), (region, r, faults)
                assert got == (want if others else True), (region, r, faults)
                monkeypatch.undo()


@pytest.mark.parametrize("text", [TREFOIL, FIG8_KINKED, torus_pd(9)])
def test_seeded_propagators_make_one_product_test_per_complex(text, monkeypatch):
    # `compute` makes one packed `is_diagonal_product` test, the certificate
    # of X on its c1 rows at the elimination's width. The propagators of
    # every coordinate with their torsion and defect add no test, and none
    # builds its N: a defect makes one exact division, by delta0, and the
    # torsion none.
    calls, divisions = [], []
    test, divide = mscomplex.is_diagonal_product, invariants._exact_div
    monkeypatch.setattr(mscomplex, "is_diagonal_product",
                        lambda r, m, d, w: calls.append((len(r), w)) or test(r, m, d, w))
    monkeypatch.setattr(invariants, "_exact_div",
                        lambda a, b: divisions.append(b) or divide(a, b))
    run = run_pipeline(text)
    cx = run.propagator.complex
    assert calls == [(cx.c1_dim, cx.forward_elimination[3])]
    calls.clear()
    propagators = [invariants.propagator_at(cx, s) for s in selectable(cx)]
    for g in propagators:
        divisions.clear()
        torsion(g)
        assert divisions == []
        defect(g)
        assert divisions == [cx.scaled_inverse[-1][cx.base_coordinate]]
    assert calls == []
    assert len(propagators) > 1
    assert all("numer" not in vars(g) for g in propagators)
    # A request for another coordinate on a fresh complex makes the same
    # one test, the certificate that every propagator rests on.
    fresh = ChainComplex(*cx._values())
    invariants.propagator_at(fresh, propagators[-1].selected)
    assert propagators[-1].selected != cx.base_coordinate
    assert calls == [(cx.c1_dim, cx.forward_elimination[3])]


def test_seeded_propagators_leave_no_reference_cycle():
    # A propagator keeps its complex, and the complex keeps no propagator:
    # a run and the propagators of all its coordinates, views and trace
    # sums read, are freed by reference counting, with nothing left for the
    # cycle collector.
    gc.collect()
    gc.disable()
    try:
        run = run_pipeline(FIG8)
        for s in selectable(run.propagator.complex):
            g = invariants.propagator_at(run.propagator.complex, s)
            torsion(g), defect(g), g.g2, invariants.coordinates_agree(g)
        del run, g
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_selection_matches_the_unit_part_of_the_full_elimination(name, text):
    # The selection reads d1: a coordinate s selects a propagator iff d1[s]
    # != 0, and build_propagator reads the first. The rule it replaced read
    # v, the unit part of the last row of the dense Gauss-Jordan of [d2 |
    # I]; exactness makes v proportional to d1, so both admit the same
    # coordinates and pick the same first one.
    cx = pipeline(text).propagator.complex
    c2, c1 = cx.c2_dim, cx.c1_dim
    rows = [list(row) + [[1] if j == i else [] for j in range(c1)]
            for i, row in enumerate(dense_d2(cx))]
    v = gauss_jordan(rows)[0][c2][c2:]
    assert selectable(cx) == [j for j in range(c1) if v[j]]
    assert build_propagator(cx).selected == next(j for j in range(c1) if v[j])


def _two_crossing_complex():
    """d2 = ((1, 0), (0, 1), (0, 0)) and d1 = (0, 0, 1): exact, with the
    propagator N = ((1, 0, 0), (0, 1, 0)), delta = 1 and s = 2. Column c of
    N * d2 is column c of N."""
    return ChainComplex(sparse_columns((((1,), ()), ((), (1,)), ((), ()))), (1,),
                        ((), (), (1,)))


def test_identity_width_one_bit_narrower_would_alias(monkeypatch):
    # d2 = ((0, 0), (1, 1), (1, -1)) and d1 = (1, 0, 0): exact, s0 = 0, and
    # both columns of d2 have 1-norm n = 2, the column e_0 of B0 = [d2 |
    # e_0] 1, so the certificate keeps c = 2 bits of headroom and bounds
    # every digit of X by 2^j, j = width - 2. The packed rows h * ((0, 1,
    # 1), (0, 1, -1)), h = 2^(width-1), of N0 with v = (t, 0, 0), so
    # delta0 = t, give X * B0 = 2^width * I = delta0 * I on the packed
    # integers. But h unpacks to t - h and -h to -h, so row 0 of N0 * d2 is
    # (2t - 2^width, 0), not (t, 0): the digit -h = -2^(j+1) makes a
    # coefficient 2 * h = 2^width, which the packing cannot tell from 0.
    # With one bit less headroom, digits up to 2^(j+1), the certificate
    # accepts this wrong X; at c bits it refuses it. delta0 = t passes its
    # own bound, so only the digit bound sees it.
    cx = ChainComplex(sparse_columns((((), ()), ((1,), (1,)), ((1,), (-1,)))), (1,),
                      ((1,), (), ()))
    g = build_propagator(cx)
    assert g.selected == 0 and algebra.product_headroom(cx._b0_columns) == 2
    w = cx.forward_elimination[3]
    h = 1 << w - 1
    x = [[0, h, h], [0, h, -h], [1 << w, 0, 0]]
    wrong = replaced(g, complex=replaced(cx, scaled_inverse=x), delta=(0, 1))
    assert wrong.numer == [[[], [-h, 1], [-h, 1]], [[], [-h, 1], [-h]]]
    assert packed_column([[-2 * h, 1], [-2 * h, 1]], w, 2) == 0
    with pytest.raises(DehnError, match=CERTIFICATE):
        _certify_inverse(cx, x)
    monkeypatch.setattr(algebra, "product_headroom", lambda m: 1)
    _certify_inverse(cx, x)


def test_identity_width_one_slot_shorter_would_alias():
    # Column 0 of X * B0 is (1 + t^2, -1, 0), off (delta0, 0, 0) by (t^2,
    # -1, 0). X's longest entry has l = 3 digits and B0's l_m = 1, so each
    # row of the packed column gets L = 3 digits: t^2 - t^(2*L) at t =
    # 2^width, nonzero; with one slot fewer the t^2 of row 0 and the -1 of
    # row 1 land on the same power and cancel. The digits are within the
    # bound.
    cx = _two_crossing_complex()
    g = build_propagator(cx)
    assert (g.numer, g.delta, g.selected) == ([[[1], [], []], [[], [1], []]], (1,), 2)
    w = cx.forward_elimination[3]
    x = [[1 + (1 << 2 * w), 0, 0], [-1, 1, 0], list(cx.scaled_inverse[-1])]
    wrong = replaced(g, complex=replaced(cx, scaled_inverse=x))
    assert wrong.numer == [[[1, 0, 1], [], []], [[-1], [1], []]]
    assert packed_column([[0, 0, 1], [-1]], w, 2) == 0 != packed_column([[0, 0, 1], [-1]], w, 3)
    with pytest.raises(DehnError, match=CERTIFICATE):
        _certify_inverse(cx, x)


def test_verify_identities_checks_the_homotopy_identity():
    # Adding the row D1 of d1's numerators to row r of N0 leaves N0 * d2
    # unchanged, since d1*d2 = 0, but adds column r of d2 times D1 to d2 *
    # N0, breaking d2*g2 + g1*d1 = id. Only the column e_s0 of B0 sees it:
    # D1[s0] != 0 lands in column s0 of N0. Tested against d2 alone, the
    # same X passes.
    cx = pipeline(FIG8).propagator.complex
    x, width = _inverse(cx)
    x[0] = [a + _pack(y, width) for a, y in zip(x[0], cx.d1_row)]
    delta0 = _unpack(x[-1][cx.base_coordinate], width)
    assert algebra.is_diagonal_product(x, cx.d2_cols, delta0, width)
    with pytest.raises(DehnError, match=CERTIFICATE):
        _certify_inverse(cx, x)


def test_identities_do_not_pin_the_scale_of_delta():
    # (c * X, c * delta0) passes the certificate and keeps G2 = N / delta,
    # but its torsion is wrong by the factor c; the Milnor and Lescop checks
    # catch it. On the packed rows c * X is c(2^width) times each entry. A
    # complex that holds c * X reads the base propagator (c * N0, c *
    # delta0) off it, and its trace c * num0.
    run = pipeline(FIG8)
    cx, g = run.propagator.complex, run.propagator
    c = [1, 1]  # 1 + t
    x = [[e * _pack(c, cx.forward_elimination[3]) for e in row] for row in cx.scaled_inverse]
    _certify_inverse(cx, x)
    wrong = invariants.propagator_at(replaced(cx, scaled_inverse=x), g.selected)
    assert wrong.delta == tuple(poly_mul(g.delta, c))
    assert wrong.numer == [[poly_mul(e, c) for e in row] for row in g.numer]
    assert wrong.g2 == g.g2
    tor = torsion(wrong)
    assert tor.raw == qt_mul(run.tor.raw, rf(c))
    assert defect(wrong).representative == run.d.representative
    assert check_lescop_relation(run.tor, run.d) and milnor_check(run.tor, run.alexander)
    assert not check_lescop_relation(tor, run.d)
    assert not milnor_check(tor, run.alexander)


def test_propagator_views_on_a_complex_without_crossings():
    # C_2 = 0 and C_1 has one coordinate, where d1 = 1: the views still
    # have c1 = c2 + 1 rows.
    cx = ChainComplex((), (1,), ((1,),))
    g = build_propagator(cx)
    assert (g.g2.rows, g.g2.cols) == (0, 1)
    g1 = qt_g1(cx, g)
    assert g1 == mat([[1]]) and is_identity(qt_d1(cx) @ g1)
    assert torsion(g).raw == RatFunc(1)


def test_propagator_requires_exactness():
    d = build_diagram(parse_pd(TREFOIL))
    g = build_dehn_graph(d, build_d1(d), build_d2(d))
    rep = Representation.trivial()
    cx = build_complex(g, rep)
    with pytest.raises(NotExactError, match="rank\\(d1\\) = 0 < 1"):
        build_propagator(cx)


@pytest.mark.parametrize("s", [4, 7, -1, -5])
def test_a_coordinate_outside_c1_is_refused(s):
    # The trefoil's C_1 has the coordinates 0..3. An s past the end, or a
    # negative s that would alias one of them, is a DehnError naming s, not
    # an IndexError or the propagator of another coordinate.
    cx = pipeline(TREFOIL).propagator.complex
    assert cx.c1_dim == 4
    with pytest.raises(DehnError, match=f"no coordinate s = {s} in C_1"):
        invariants.propagator_at(cx, s)


# -- torsion ------------------------------------------------------------------


def _value(cls, f):
    """A TorsionValue or DefectValue holding f's reduced pair."""
    return cls(f.znum, f.zden)


def test_trefoil_torsion():
    run = pipeline(TREFOIL)
    again = torsion(run.propagator)
    assert again == run.tor and hash(again) == hash(run.tor)  # a value, hashable
    assert torsion_equal_up_to_units(run.tor, _value(TorsionValue, TORSION_TARGET))
    assert run.tor.normalized == rf((1, -1, 1), (-1, 1))
    assert run.tor.raw == TORSION_TARGET


def _assert_torsion_matches_determinant(cx, coords):
    for s in coords:
        g = invariants.propagator_at(cx, s)
        assert torsion(g).raw == det_torsion(cx, g), s


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_torsion_read_off_the_elimination_matches_the_determinant(name, text):
    # raw = sign * delta / d1[s] is det [d2 | g1] at every coordinate: the
    # sign, delta and d1[s] all move.
    cx = pipeline(text).propagator.complex
    _assert_torsion_matches_determinant(cx, selectable(cx))


@pytest.mark.parametrize("text", [TREFOIL_KINKED, FIG8_KINKED]
                         + [torus_pd(n) for n in range(3, 22, 2)])
def test_torsion_matches_the_determinant_on_kinked_and_torus_knots(text):
    cx = pipeline(text).propagator.complex
    _assert_torsion_matches_determinant(cx, spread(cx, 3))


def test_unknot_torsion():
    run = pipeline(UNKNOT_KINK)
    assert run.tor.normalized == rf(1, (-1, 1))


def test_fig8_torsion():
    run = pipeline(FIG8)
    assert run.tor.normalized == rf((1, -3, 1), (-1, 1))


def test_torsion_normalization_unit_bookkeeping():
    for text in (TREFOIL, FIG8_KINKED, torus_pd(9)):
        tor = pipeline(text).tor
        assert qt_unit_equal(tor.raw, tor.normalized), text
        assert tor.normalized.znum[0] > 0 and tor.normalized.zden[0] != 0, text


_unit_shifted = st.tuples(st.integers(0, 3),
                          st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any))


@settings(max_examples=80, deadline=None)
@given(_unit_shifted, _unit_shifted, st.lists(st.integers(-4, 4), max_size=3).filter(any))
def test_strip_unit_gives_the_gcd_form(num, den, common):
    # t^a * n * h / (t^b * d * h) as an unreduced torsion: its raw form is
    # the gcd's, and the normalized part, built from it with no second gcd,
    # is the form the gcd gives its own parts.
    tor = TorsionValue(tuple(poly_mul([0] * num[0] + num[1], common)),
                       tuple(poly_mul([0] * den[0] + den[1], common)))
    f, g = tor.raw, tor.normalized
    assert f == RatFunc(tor.num, tor.den)
    reduced = RatFunc(g.znum, g.zden)
    assert (g.znum, g.zden) == (reduced.znum, reduced.zden)
    assert g.znum[0] > 0 and g.zden[0] != 0
    assert qt_unit_equal(f, g)


def test_torsion_equal_up_to_units_cases():
    a = _value(TorsionValue, TORSION_TARGET)
    b = _value(TorsionValue, qt_mul(qt_neg(t_power(3)), TORSION_TARGET))
    assert torsion_equal_up_to_units(a, b)
    other = rf((1, -3, 1), (1, -1))
    assert not torsion_equal_up_to_units(a, _value(TorsionValue, other))
    assert torsion_equal_up_to_units(a, a)
    # The pairs are compared in any form: (2 * P) / (2 * Q) is P / Q.
    assert torsion_equal_up_to_units(a, TorsionValue(tuple(2 * c for c in a.num),
                                                     tuple(2 * c for c in a.den)))


# -- defect -------------------------------------------------------------------


def test_trefoil_defect_value():
    run = pipeline(TREFOIL)
    assert defect_equal_mod_Z(run.d, _value(DefectValue, DEFECT_TARGET))


def test_trefoil_defect_terms():
    run = pipeline(TREFOIL)
    terms = defect_terms(run.graph, run.propagator.complex, run.propagator)
    nonzero = sorted(str(v) for _, _, v in terms if v.znum)
    expected = sorted(str(v) for v in [
        qt_mul(rf((0, -1), (1, -1, 1)), rf((1, -1))),  # -t(1-t)/(t^2-t+1)
        rf((0, 0, 1), (1, -1, 1)),               # (-t)(-t)/(t^2-t+1)
        rf((0, 1), (1, -1)),                     # t/(1-t)
    ])
    assert nonzero == expected


def test_defect_skips_bare_sign_labels():
    run = pipeline(TREFOIL)
    terms = defect_terms(run.graph, run.propagator.complex, run.propagator)
    word_edges = [e for e in run.graph.edges if e.label.word]
    assert len(terms) == len(word_edges)


def test_trivial_representation_has_no_propagator():
    # Under the trivial representation d1 vanishes, so the complex is not
    # exact and no propagator, hence no defect, is built.
    d = build_diagram(parse_pd(TREFOIL))
    graph = build_dehn_graph(d, build_d1(d), build_d2(d))
    with pytest.raises(NotExactError, match="rank\\(d1\\) = 0"):
        build_propagator(build_complex(graph, Representation.trivial()))


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_defect_matches_qt_reference_on_corpus(name, text):
    run = pipeline(text)
    for s in selectable(run.propagator.complex):
        g = invariants.propagator_at(run.propagator.complex, s)
        assert (defect(g).representative
                == qt_defect(run.graph, run.propagator.complex, g)), s


@pytest.mark.parametrize("name,text", [("3_1_kinked", TREFOIL_KINKED),
                                       ("4_1_kinked", FIG8_KINKED)]
                         + [(f"T(2,{n})", torus_pd(n)) for n in range(3, 22, 2)])
def test_defect_matches_qt_reference(name, text):
    run = pipeline(text)
    assert run.d.representative == qt_defect(run.graph, run.propagator.complex, run.propagator)


@settings(max_examples=100, deadline=None)
@given(label_valid_pd())
def test_defect_matches_qt_reference_on_label_valid_codes(text):
    # For every code that makes a diagram, under every choice of the outer
    # region, the trace over the complex equals the paper's per-edge sum.
    try:
        regions = range(len(build_diagram(parse_pd(text)).regions))
    except DehnError:
        return
    for region in regions:
        run = pipeline(text, outer_region=region)
        assert (run.d.representative
                == qt_defect(run.graph, run.propagator.complex, run.propagator)), region


def test_defect_matches_qt_reference_on_a_degree_2_column():
    # Prefixing every corner word of one crossing with an arc generator
    # multiplies its d2 column by t: the complex stays exact and the column
    # reaches degree 2, which no diagram's complex does, so the m * c_m
    # weights of the trace are checked past m = 1.
    d = build_diagram(parse_pd(FIG8))
    graph = build_dehn_graph(d, build_d1(d), build_d2(d))
    for edge in graph.edges:
        if edge.origin[:2] == ("corner", 0):
            graph = relabeled(graph, edge.origin, word=((0, 1),) + edge.label.word)
    cx = build_complex(graph, Representation.abelian())
    assert max(len(x) for row in dense_d2(cx) for x in row) == 3
    for s in selectable(cx):
        g = invariants.propagator_at(cx, s)
        assert defect(g).representative == qt_defect(graph, cx, g), s


def test_defect_equal_mod_Z_cases():
    f = rf((0, 1), (1, -1, 1))
    d = _value(DefectValue, f)
    assert defect_equal_mod_Z(d, _value(DefectValue, qt_add(f, RatFunc(3))))
    assert not defect_equal_mod_Z(d, _value(DefectValue, qt_add(f, rf((1,), (2,)))))
    assert not defect_equal_mod_Z(d, _value(DefectValue, qt_add(f, T)))
    # The pairs are compared in any form: (t * P) / (t * Q) is P / Q.
    assert defect_equal_mod_Z(d, DefectValue((0,) + d.num, (0,) + d.den))


# -- comparisons over Z[t] against their Q(t) references ------------------------


def _ratfuncs(nonzero=False):
    coeffs = st.lists(st.integers(-4, 4), max_size=4)
    num = coeffs.filter(any) if nonzero else coeffs
    return st.builds(RatFunc, num, coeffs.filter(any))


@settings(max_examples=200, deadline=None)
@given(_ratfuncs(), _ratfuncs(), st.sampled_from((1, -1)), st.integers(-3, 3))
def test_unit_equal_agrees_with_qt_reference(a, b, sign, m):
    def equal(x, y):
        return torsion_equal_up_to_units(_value(TorsionValue, x), _value(TorsionValue, y))

    assert equal(a, b) == qt_unit_equal(a, b)
    moved = qt_mul(qt_mul(RatFunc(sign), t_power(m)), a)
    assert equal(a, moved) and qt_unit_equal(a, moved)
    if a.znum:
        assert not equal(a, qt_mul(a, rf((1, 1))))


@settings(max_examples=200, deadline=None)
@given(_ratfuncs(), _ratfuncs(), st.integers(-3, 3))
def test_defect_equal_mod_Z_agrees_with_qt_reference(a, b, n):
    x, y = _value(DefectValue, a), _value(DefectValue, b)
    assert defect_equal_mod_Z(x, y) == qt_equal_mod_Z(a, b)
    assert defect_equal_mod_Z(x, _value(DefectValue, qt_add(a, RatFunc(n))))
    assert not defect_equal_mod_Z(x, _value(DefectValue, qt_add(a, rf(1, 2))))


@settings(max_examples=200, deadline=None)
@given(_ratfuncs(nonzero=True), _ratfuncs(), st.integers(-3, 3))
def test_lescop_relation_agrees_with_qt_reference(tor, d, n):
    def tv(f):
        return _value(TorsionValue, f)

    def dv(f):
        return _value(DefectValue, f)

    assert check_lescop_relation(tv(tor), dv(d)) == qt_lescop(tor, d)
    log_derivative = qt_div(qt_mul(T, qt_derivative(tor)), tor)
    assert check_lescop_relation(tv(tor), dv(qt_add(log_derivative, RatFunc(n))))
    assert not check_lescop_relation(tv(tor), dv(qt_add(log_derivative, rf(1, 2))))
    assert not check_lescop_relation(tv(qt_mul(tor, rf((1, 1)))), dv(log_derivative))


# -- relations ----------------------------------------------------------------


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_lescop_relation_on_corpus(name, text):
    run = pipeline(text)
    assert check_lescop_relation(run.tor, run.d)


def _assert_defect_is_the_log_derivative(text, coords):
    """Under every outer region and at the coordinates `coords(cx)`, the
    defect's representative is t * (d/dt) log(raw torsion), exactly, in
    Q(t) by the conftest reference: raw = sign * delta * t^a / D1[s] makes
    t * (log raw)' = t * delta'/delta + a - t * D1[s]'/D1[s], the defect's
    formula once the trace is t * delta' (Jacobi). The Lescop check
    compares the two modulo the integers only."""
    for region in _regions(text):
        cx = pipeline(text, outer_region=region).propagator.complex
        for s in coords(cx):
            g = invariants.propagator_at(cx, s)
            raw = torsion(g).raw
            assert (defect(g).representative
                    == qt_div(qt_mul(T, qt_derivative(raw)), raw)), (region, s)


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_defect_is_exactly_the_log_derivative_of_the_raw_torsion(name, text):
    _assert_defect_is_the_log_derivative(text, selectable)


@settings(max_examples=300, deadline=None)
@given(label_valid_pd())
def test_defect_is_exactly_the_log_derivative_on_label_valid_codes(text):
    try:
        _regions(text)
    except DehnError:
        return
    _assert_defect_is_the_log_derivative(text, lambda cx: spread(cx, 5))


def test_lescop_insensitive_to_torsion_unit():
    run = pipeline(TREFOIL)
    tor = _value(TorsionValue, qt_mul(qt_neg(t_power(5)), run.tor.raw))
    assert check_lescop_relation(tor, run.d)


@pytest.mark.parametrize("name,text", sorted(CORPUS.items()))
def test_seed_independence(name, text):
    # Every coordinate gives the reported torsion and defect as the same
    # fractions, not only up to units and modulo the integers.
    run = pipeline(text)
    for s in selectable(run.propagator.complex):
        g = invariants.propagator_at(run.propagator.complex, s)
        tor_s = torsion(g)
        d_s = defect(g)
        assert tor_s.raw == run.tor.raw, s
        assert d_s.representative == run.d.representative, s
        assert torsion_equal_up_to_units(run.tor, tor_s)
        assert defect_equal_mod_Z(run.d, d_s)


def test_diagram_independence_trefoil():
    a, b = pipeline(TREFOIL), pipeline(TREFOIL_KINKED)
    assert torsion_equal_up_to_units(a.tor, b.tor)
    assert defect_equal_mod_Z(a.d, b.d)


def test_diagram_independence_fig8():
    a, b = pipeline(FIG8), pipeline(FIG8_KINKED)
    assert torsion_equal_up_to_units(a.tor, b.tor)
    assert defect_equal_mod_Z(a.d, b.d)
