import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import codes, designs, errors
from dscodes.designs import FuncSpec
from dscodes.gf import default_field


def brute_enumerator(C):
    """Scalar weight count over all messages; the reference oracle."""
    F = C.field
    counts = {}
    for x in range(F.q):
        w = 0
        for d in C.D.elems:
            if F.trace(F.mul(x, d)) != 0:
                w += 1
        counts[w] = counts.get(w, 0) + 1
    # x and x' give the same codeword iff x - x' kills every d, so each
    # distinct codeword is hit exactly counts[0] times
    ker = counts[0]
    return {w: c // ker for w, c in counts.items()}, ker


def test_codeword_reference_path():
    F = default_field(7, 1)
    C = codes.make_code(designs.paley_set(F))
    assert list(codes.codeword(C, 3)) == [3, 6, 5]
    assert list(codes.codeword(C, 0)) == [0, 0, 0]


def test_generator_matrix_rows_are_basis_codewords():
    F = default_field(3, 3)
    C = codes.make_code(designs.paley_set(F))
    G = codes.generator_matrix(C)
    for i, b in enumerate(F.basis()):
        assert np.array_equal(G[i], codes.codeword(C, b))


@pytest.mark.parametrize("p,m,family", [
    (7, 1, "paley"),
    (3, 2, "paley"),
    (3, 3, "paley"),
    (2, 5, "segre"),
])
def test_weight_enumerator_matches_brute_force(p, m, family):
    F = default_field(p, m)
    D = designs.paley_set(F) if family == "paley" else designs.maschietti_set(F, family)
    C = codes.make_code(D)
    E = codes.weight_enumerator(C)
    want, ker = brute_enumerator(C)
    assert E.counts == want
    assert F.p**E.k * ker == F.q


def test_weight_enumerator_hkm_brute_force():
    C = codes.make_code(designs.hkm_set(1))
    E = codes.weight_enumerator(C)
    assert E.counts == brute_enumerator(C)[0]
    assert (E.n, E.k) == (4, 3)
    assert E.counts == {0: 1, 2: 12, 3: 8, 4: 6}


def test_degenerate_defining_set_shrinks_dimension():
    F = default_field(3, 2)
    C = codes.make_code(designs.defining_set(F, [1]))
    E = codes.weight_enumerator(C)
    assert (E.n, E.k) == (1, 1)
    assert E.counts == {0: 1, 1: 2}


def test_all_zero_code_dimension_zero():
    F = default_field(3, 2)
    C = codes.make_code(designs.defining_set(F, [0]))
    E = codes.weight_enumerator(C)
    assert E.k == 0 and E.counts == {0: 1}
    with pytest.raises(errors.ZeroDimensionalError):
        codes.minimum_distance(E)


def brute_span_dim(F, elems):
    """log_p of the size of the set of all GF(p)-combinations, grown with scalar ops."""
    span = {0}
    for d in elems:
        span = {F.add(s, F.mul(c, int(d))) for s in span for c in range(F.p)}
    dim = 0
    while F.p**dim < len(span):
        dim += 1
    assert F.p**dim == len(span)
    return dim


@given(st.data())
def test_span_dimension_matches_brute_force_span(data):
    p, m = data.draw(st.sampled_from([(2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (7, 1), (7, 2)]))
    F = default_field(p, m)
    shape = data.draw(st.sampled_from(["random", "with-zero", "proportional", "subspace"]))
    elems = data.draw(st.lists(st.integers(1, F.q - 1), min_size=1, max_size=8))
    if shape == "subspace":
        # combinations of at most m - 1 generators lie in a proper subspace
        gens = elems[: m - 1]
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(gens) * 6,
                                    max_size=len(gens) * 6))
        elems = [0] * 6
        for i in range(6):
            for j, g in enumerate(gens):
                elems[i] = F.add(elems[i], F.mul(coeffs[i * len(gens) + j], g))
    if shape == "with-zero":
        elems.append(0)
    if shape == "proportional":
        y = data.draw(st.integers(1, p - 1))  # index y < p is the constant y of GF(p)*
        elems += [F.mul(y, d) for d in elems]
    got = codes.span_dimension(F, np.array(elems, dtype=np.int64))
    assert type(got) is int and got == brute_span_dim(F, elems)
    if shape == "subspace":
        assert got < m


def test_span_dimension_edges():
    F = default_field(3, 3)
    assert codes.span_dimension(F, np.array([0], dtype=np.int64)) == 0
    assert codes.span_dimension(F, np.array([5, F.neg(5), 0, 5], dtype=np.int64)) == 1
    assert codes.span_dimension(F, np.arange(F.q)) == 3
    assert codes.span_dimension(default_field(2, 1), np.array([1], dtype=np.int64)) == 1


@pytest.mark.parametrize("field, family", [
    ((3, 3), "paley"),   # transform route, p^2 < n
    ((7, 1), "paley"),   # direct route, p^2 >= n
    ((2, 5), "segre"),
])
@pytest.mark.parametrize("offset", [1, -1])
def test_wrong_span_dimension_fails_the_enumerator(monkeypatch, field, family, offset):
    # the span dimension is the oracle for the kernel-fibre size: it must stay live
    F = default_field(*field)
    D = designs.paley_set(F) if family == "paley" else designs.maschietti_set(F, family)
    C = codes.make_code(D)
    codes.weight_enumerator(C)
    real = codes.span_dimension
    monkeypatch.setattr(codes, "span_dimension", lambda F, elems: real(F, elems) + offset)
    with pytest.raises(errors.InvariantError, match="span dimension"):
        codes.weight_enumerator(C)


def test_work_budget_is_enforced():
    F = default_field(3, 3)
    C = codes.make_code(designs.paley_set(F))
    with pytest.raises(errors.SizeLimitError):
        codes.weight_enumerator(C, max_work=10)


ROUTES = (codes._transform_counts, codes._direct_counts)


def _route_enumerator(counts):
    ker = int(counts[0])
    return {w: int(c) // ker for w, c in enumerate(counts) if c}, ker


@given(st.data())
def test_transform_and_direct_routes_match_brute_force(data):
    # both routes run whatever the cost model would pick for this (p, m, n)
    p, m = data.draw(st.sampled_from([(2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 1), (7, 2)]))
    F = default_field(p, m)
    shape = data.draw(st.sampled_from(["random", "with-zero", "proportional", "subspace"]))
    # "subspace" keeps the top digit 0, so D spans a proper subspace and k < m
    top = F.q // p if shape == "subspace" else F.q
    elems = data.draw(st.sets(st.integers(1, F.q - 1), min_size=1, max_size=10))
    elems = {d % top for d in elems}
    if shape == "with-zero":
        elems.add(0)
    if shape == "proportional":
        # index y < p is the constant y of GF(p)*
        y = data.draw(st.integers(1, p - 1))
        elems |= {F.mul(y, d) for d in elems}
    C = codes.make_code(designs.defining_set(F, elems))
    want, ker = brute_enumerator(C)
    for route in ROUTES:
        assert _route_enumerator(route(C)) == (want, ker)
    E = codes.weight_enumerator(C)
    assert E.counts == want and F.p**E.k * ker == F.q
    if shape == "subspace":
        assert E.k < m


@pytest.mark.parametrize("route, work", [
    (codes._transform_counts, 27 * 3 * 3**2),  # q*m*p^2
    (codes._direct_counts, 27 * 13),  # q*n
])
def test_each_route_enforces_its_work_budget(route, work):
    C = codes.make_code(designs.paley_set(default_field(3, 3)))
    assert _route_enumerator(route(C, max_work=work))[0] == {0: 1, 9: 26}
    with pytest.raises(errors.SizeLimitError):
        route(C, max_work=work - 1)


def test_transform_state_cap_is_enforced(monkeypatch):
    C = codes.make_code(designs.paley_set(default_field(3, 3)))
    monkeypatch.setattr(codes, "MAX_TRANSFORM_STATE", 27 * 3 - 1)
    with pytest.raises(errors.SizeLimitError, match="transform state"):
        codes.weight_enumerator(C)
    # the direct route has no such state
    assert _route_enumerator(codes._direct_counts(C))[0] == {0: 1, 9: 26}


@pytest.mark.parametrize("p, m", [(4099, 1), (65521, 1), (131, 2), (257, 2)])
def test_direct_route_matches_closed_form_at_large_p(p, m):
    # GF(4099) has m*(p-1)^2 > 2^24, past the integers a float32 product holds exactly
    F = default_field(p, m)
    C = codes.make_code(designs.paley_set(F))
    assert p * p >= C.n  # so weight_enumerator takes the direct route
    E = codes.weight_enumerator(C)
    P = codes.predicted_enumerator("thm-part1", p=p, m=m)
    assert (E.n, E.k, E.counts) == (P.n, P.k, P.counts)


def test_weight_via_charsum_equals_direct():
    F = default_field(3, 3)
    C = codes.make_code(designs.paley_set(F))
    for x in range(F.q):
        direct = int(np.count_nonzero(codes.codeword(C, x)))
        assert codes.weight_via_charsum(C, x) == direct


def test_griesmer_check():
    assert codes.griesmer_check(4, 3, 2, 3) == "meets"      # 2 + 1 + 1
    assert codes.griesmer_check(5, 3, 2, 3) == "satisfies"
    assert codes.griesmer_check(3, 3, 2, 3) == "violates"
    assert codes.griesmer_check(13, 3, 9, 3) == "meets"     # 9 + 3 + 1


def test_dual_distance_witness_frozen():
    W7 = codes.dual_distance_witness(codes.make_code(designs.paley_set(default_field(7, 1))))
    assert (W7.at_least_2, W7.at_least_3) == (True, False)
    W27 = codes.dual_distance_witness(codes.make_code(designs.paley_set(default_field(3, 3))))
    assert (W27.at_least_2, W27.at_least_3) == (True, True)


def test_pless_moments_hkm_h1():
    C = codes.make_code(designs.hkm_set(1))
    E = codes.weight_enumerator(C)
    W = codes.dual_distance_witness(C)
    rep = codes.pless_moment_check(E, W)
    assert rep.ok and rep.first and rep.second and rep.third
    # the second moment identity in explicit numbers: 12*2 + 8*3 + 6*4 = 72
    assert sum(w * a for w, a in E.counts.items()) == 72


def test_predicted_enumerator_skew():
    P = codes.predicted_enumerator("thm-part2", p=3, m=3)
    assert P.n == 13 and P.counts == {0: 1, 9: 26}
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("thm-part2", p=3, m=2)  # q = 1 (mod 4)


def test_predicted_enumerator_two_weight():
    P = codes.predicted_enumerator("thm-part1", p=3, m=2)
    assert P.n == 4 and P.counts == {0: 1, 2: 4, 4: 4}
    P = codes.predicted_enumerator("thm-part1", p=3, m=3)
    assert P.counts == {0: 1, 9: 26}


def test_predicted_enumerator_preconditions():
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("thm-bentcodes", m=5, n_f=12)
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("thm-CodeQBFs", m=6, r=4, walsh0=12)
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("no-such-claim", m=6)


def test_prediction_comparison_reports_mismatches():
    F = default_field(2, 9)
    E = codes.weight_enumerator(codes.make_code(designs.maschietti_set(F, "glynn2")))
    P = codes.predicted_enumerator("thm-hyperovalDS", m=9)
    rep = codes.compare_prediction(E, P)
    assert not rep.ok and len(rep.mismatches) == 5
    P2 = codes.predicted_enumerator("glynn2-conjecture", m=9)
    rep2 = codes.compare_prediction(E, P2)
    assert rep2.ok


def test_enumerator_json_round_trip_and_bytes():
    C = codes.make_code(designs.hkm_set(1))
    E = codes.weight_enumerator(C)
    s = codes.enumerator_json(E)
    assert s == ('{"p":3,"m":3,"n":4,"k":3,"weights":'
                 '[{"w":0,"A":1},{"w":2,"A":12},{"w":3,"A":8},{"w":4,"A":6}]}')
    E2 = codes.enumerator_from_json(s)
    assert codes.enumerator_json(E2) == s
    assert json.loads(s)["weights"][0] == {"w": 0, "A": 1}


def test_export_generator_format():
    F = default_field(3, 2)
    C = codes.make_code(designs.paley_set(F))
    text = codes.export_generator(C)
    lines = text.splitlines()
    assert lines[0] == "3 2 4"
    assert len(lines) == 3
    assert all(len(row.split()) == 4 for row in lines[1:])
    assert text == "3 2 4\n2 1 0 0\n2 1 1 2\n"


@given(st.integers(1, 26))
def test_scaling_a_defining_set_preserves_the_enumerator(a):
    F = default_field(3, 3)
    D = designs.paley_set(F)
    base = codes.weight_enumerator(codes.make_code(D)).counts
    scaled = designs.defining_set(F, [F.mul(a, d) for d in D.elems])
    assert codes.weight_enumerator(codes.make_code(scaled)).counts == base


def test_poly_str_spelling():
    E = codes.WeightEnumerator(2, 9, 255, 9, {0: 1, 112: 9, 144: 1})
    assert E.poly_str() == "1 + 9z^112 + z^144"
    assert E.weights() == [112, 144]
