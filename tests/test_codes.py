import json
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import boolfn, cli, codes, designs, errors
from dscodes.designs import FuncSpec
from dscodes.gf import _poly_mulmod, default_field


def brute_enumerator(D):
    """Scalar weight count over all messages; the reference oracle."""
    F = D.field
    counts = {}
    for x in range(F.q):
        w = 0
        for d in D.elems:
            if F.trace(F.mul(x, d)) != 0:
                w += 1
        counts[w] = counts.get(w, 0) + 1
    # x and x' give the same codeword iff x - x' kills every d, so each
    # distinct codeword is hit exactly counts[0] times
    ker = counts[0]
    return {w: c // ker for w, c in counts.items()}, ker


def test_codeword_reference_path():
    F = default_field(7, 1)
    D = designs.paley_set(F)
    assert list(codes.codeword(D, 3)) == [3, 6, 5]
    assert list(codes.codeword(D, 0)) == [0, 0, 0]


def test_generator_matrix_rows_are_basis_codewords():
    F = default_field(3, 3)
    D = designs.paley_set(F)
    G = codes.generator_matrix(D)
    for i, b in enumerate(F.basis()):
        assert np.array_equal(G[i], codes.codeword(D, b))


@pytest.mark.parametrize("field, family", [((3, 9), "paley"), ((2, 13), "segre")])
def test_generator_matrix_holds_one_row_of_products_at_a_time(field, family):
    F = default_field(*field)
    D = designs.paley_set(F) if family == "paley" else designs.maschietti_set(F, family)
    codes.codeword(D, 1)  # build the field tables outside the traced call
    tracemalloc.start()
    try:
        G = codes.generator_matrix(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows and their stack, plus a few int64 products of one row; all m rows
    # of products at once take about 3*m int64 rows
    assert G.shape == (F.m, len(D))
    assert peak <= 2 * G.nbytes + 4 * 8 * len(D)


def reference_generator(F, elems):
    """Row i, column d: Tr(alpha^i d) from Python-int polynomials, not the field tables.

    alpha^i is the polynomial x^i, the product comes from the schoolbook
    _poly_mulmod, and the trace is the Frobenius sum y + y^p + ... + y^(p^(m-1)).
    """
    p, m, mod = F.p, F.m, F.modulus

    def trace(y):
        total = [0] * m
        for _ in range(m):
            total = [(a + b) % p for a, b in zip(total, y)]
            power = [1] + [0] * (m - 1)
            for _ in range(p):
                power = _poly_mulmod(power, y, mod, p)
            y = power
        assert not any(total[1:])  # the trace lies in GF(p)
        return total[0]

    digits = [[d // p**j % p for j in range(m)] for d in elems]
    return [[trace(_poly_mulmod([0] * i + [1], dd, mod, p)) for dd in digits]
            for i in range(m)]


@pytest.mark.parametrize("argv", [("--family", "paley", "--p", "3", "--m", "5"),
                                  ("--family", "maschietti:segre", "--m", "7")])
def test_generator_matrix_matches_a_polynomial_reference(capsys, argv):
    args = cli.build_parser().parse_args(["export-gen", *argv])
    D, _ = designs.family(args.family, partial(cli._field, args, args.family))
    F = D.field
    want = reference_generator(F, D.elems.tolist())
    assert codes.generator_matrix(D).tolist() == want
    assert cli.entry(["export-gen", *argv]) == 0
    text = f"{F.p} {F.m} {len(D)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in want)
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("p,m,family", [
    (7, 1, "paley"),
    (3, 2, "paley"),
    (3, 3, "paley"),
    (2, 5, "segre"),
])
def test_weight_enumerator_matches_brute_force(p, m, family):
    F = default_field(p, m)
    D = designs.paley_set(F) if family == "paley" else designs.maschietti_set(F, family)
    E = codes.weight_enumerator(D)
    want, ker = brute_enumerator(D)
    assert E.counts == want
    assert F.p**E.k * ker == F.q


def test_weight_enumerator_hkm_brute_force():
    D = designs.hkm_set(default_field(3, 3))
    E = codes.weight_enumerator(D)
    assert E.counts == brute_enumerator(D)[0]
    assert (E.n, E.k) == (4, 3)
    assert E.counts == {0: 1, 2: 12, 3: 8, 4: 6}


def test_degenerate_defining_set_shrinks_dimension():
    F = default_field(3, 2)
    D = designs.defining_set(F, [1])
    E = codes.weight_enumerator(D)
    assert (E.n, E.k) == (1, 1)
    assert E.counts == {0: 1, 1: 2}


def test_all_zero_code_dimension_zero():
    F = default_field(3, 2)
    D = designs.defining_set(F, [0])
    E = codes.weight_enumerator(D)
    assert E.k == 0 and E.counts == {0: 1}
    with pytest.raises(errors.ToolkitError, match="^no nonzero codewords$"):
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
    ((3, 5), "paley"),  # the transform route
    ((7, 1), "paley"),  # the direct route
    ((2, 5), "segre"),  # the direct route
])
@pytest.mark.parametrize("offset", [1, -1])
def test_wrong_span_dimension_fails_the_enumerator(monkeypatch, routes_taken, field, family, offset):
    # the span dimension is the oracle for the kernel-fibre size: it must stay live
    F = default_field(*field)
    D = designs.paley_set(F) if family == "paley" else designs.maschietti_set(F, family)
    codes.weight_enumerator(D)
    assert routes_taken == ["_transform_counts" if field == (3, 5) else "_direct_counts"]
    real = codes.span_dimension
    monkeypatch.setattr(codes, "span_dimension", lambda F, elems: real(F, elems) + offset)
    with pytest.raises(errors.InvariantError, match="span dimension"):
        codes.weight_enumerator(D)


def test_work_budget_is_enforced():
    F = default_field(3, 3)
    D = designs.paley_set(F)
    with pytest.raises(errors.SizeLimitError):
        codes.weight_enumerator(D, max_work=10)


ROUTES = (codes._transform_counts, codes._direct_counts)


@pytest.fixture
def routes_taken(monkeypatch):
    """The names of the routes weight_enumerator calls, in call order."""
    taken = []

    def recorded(route):
        def call(D):
            taken.append(route.__name__)
            return route(D)
        return call

    for route in ROUTES:
        monkeypatch.setattr(codes, route.__name__, recorded(route))
    return taken


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
    D = designs.defining_set(F, elems)
    want, ker = brute_enumerator(D)
    for route in ROUTES:
        assert _route_enumerator(route(D)) == (want, ker)
    E = codes.weight_enumerator(D)
    assert E.counts == want and F.p**E.k * ker == F.q
    if shape == "subspace":
        assert E.k < m


# Paley GF(3^5): q*m*p^2 = 10935 < n*(q-1)/(p-1) = 121*121 = 14641, so the transform runs;
# Paley GF(3^3): n*(q-1)/(p-1) = 13*13 = 169 < q*m*p^2 = 729, so the direct route runs
@pytest.mark.parametrize("m, route, formula, work", [
    (5, "_transform_counts", "q*m*p^2", 3**5 * 5 * 3**2),
    (3, "_direct_counts", "n*(q-1)/(p-1)", 13 * 26 // 2),
], ids=["transform", "direct"])
def test_each_route_enforces_its_work_budget(routes_taken, m, route, formula, work):
    D = designs.paley_set(default_field(3, m))
    with pytest.raises(errors.SizeLimitError,
                       match=re.escape(f"{formula} = {work} exceeds the work budget {work - 1}")):
        codes.weight_enumerator(D, max_work=work - 1)
    assert routes_taken == []  # refused before either route was called
    E = codes.weight_enumerator(D, max_work=work)
    assert routes_taken == [route]
    assert E.counts == codes.predicted_enumerator("thm-part2", p=3, m=m).counts


def test_transform_state_cap_is_enforced(monkeypatch, routes_taken):
    # Paley GF(3^5) takes the transform while its q*p = 729 state entries fit the cap
    D = designs.paley_set(default_field(3, 5))
    monkeypatch.setattr(codes, "MAX_TRANSFORM_STATE", 3**5 * 3)
    codes.weight_enumerator(D)
    assert routes_taken == ["_transform_counts"]
    # past the cap the direct route runs, budgeted by its own count
    monkeypatch.setattr(codes, "MAX_TRANSFORM_STATE", 3**5 * 3 - 1)
    with pytest.raises(errors.SizeLimitError,
                       match=re.escape("n*(q-1)/(p-1) = 14641 exceeds the work budget 14640")):
        codes.weight_enumerator(D, max_work=14640)
    assert routes_taken == ["_transform_counts"]
    assert codes.weight_enumerator(D, max_work=14641).counts == {0: 1, 81: 242}
    assert routes_taken == ["_transform_counts", "_direct_counts"]


@pytest.mark.parametrize("argv, route", [
    # n*(q-1)/(p-1) = 1098*183 = 200 934 < q*m*p^2 = 1 113 879
    (("--family", "paley", "--p", "13", "--m", "3"), "_direct_counts"),
    # the enum-ladder rungs of perfbench, each far cheaper by the transform
    (("--family", "maschietti:segre", "--m", "13"), "_transform_counts"),
    (("--family", "maschietti:glynn1", "--m", "13"), "_transform_counts"),
    (("--family", "maschietti:segre", "--m", "15"), "_transform_counts"),
    (("--family", "maschietti:glynn1", "--m", "15"), "_transform_counts"),
    (("--family", "paley", "--p", "3", "--m", "9"), "_transform_counts"),
    (("--family", "paley", "--p", "5", "--m", "6"), "_transform_counts"),
    (("--family", "paley", "--p", "7", "--m", "5"), "_transform_counts"),
    (("--family", "hkm:3"), "_transform_counts"),
])
def test_the_route_with_the_smaller_count_runs(routes_taken, argv, route):
    args = cli.build_parser().parse_args(["code", *argv])
    D, _ = designs.family(args.family, partial(cli._field, args, args.family))
    codes.weight_enumerator(D)
    assert routes_taken == [route]


@pytest.mark.parametrize("p, m", [(4099, 1), (65521, 1), (131, 2), (257, 2)])
def test_direct_route_matches_closed_form_at_large_p(routes_taken, p, m):
    # GF(4099) has m*(p-1)^2 > 2^24, past the integers a float32 product holds exactly
    F = default_field(p, m)
    D = designs.paley_set(F)
    work = len(D) * (F.q - 1) // (p - 1)  # the direct route's count, below the transform's
    E = codes.weight_enumerator(D, max_work=work)
    assert routes_taken == ["_direct_counts"]
    with pytest.raises(errors.SizeLimitError, match=re.escape(f"n*(q-1)/(p-1) = {work} exceeds")):
        codes.weight_enumerator(D, max_work=work - 1)
    P = codes.predicted_enumerator("thm-part1", p=p, m=m)
    assert (E.n, E.k, E.counts) == (P.n, P.k, P.counts)


def test_weight_via_charsum_equals_direct():
    F = default_field(3, 3)
    D = designs.paley_set(F)
    for x in range(F.q):
        direct = int(np.count_nonzero(codes.codeword(D, x)))
        assert codes.weight_via_charsum(D, x) == direct


def test_griesmer_check():
    assert codes.griesmer_check(4, 3, 2, 3) == "meets"      # 2 + 1 + 1
    assert codes.griesmer_check(5, 3, 2, 3) == "satisfies"
    assert codes.griesmer_check(3, 3, 2, 3) == "violates"
    assert codes.griesmer_check(13, 3, 9, 3) == "meets"     # 9 + 3 + 1


def test_dual_distance_witness_frozen():
    W7 = codes.dual_distance_witness(designs.paley_set(default_field(7, 1)))
    assert (W7.at_least_2, W7.at_least_3) == (True, False)
    W27 = codes.dual_distance_witness(designs.paley_set(default_field(3, 3)))
    assert (W27.at_least_2, W27.at_least_3) == (True, True)


def test_pless_moments_hkm_h1():
    D = designs.hkm_set(default_field(3, 3))
    E = codes.weight_enumerator(D)
    W = codes.dual_distance_witness(D)
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


def paley_literal(p, m):
    """(n, k, counts) of thm-part1/part2 as the paper writes them."""
    q = p**m
    if m % 2 == 1:
        rows = {Fraction((p - 1) * q, 2 * p): q - 1}
    else:
        root = p ** (m // 2)
        rows = {Fraction((p - 1) * (q - root), 2 * p): (q - 1) // 2,
                Fraction((p - 1) * (q + root), 2 * p): (q - 1) // 2}
    return (q - 1) // 2, m, {0: 1} | rows


def hyperoval_literal(m):
    """(n, k, counts) of thm-hyperovalDS as the paper writes it."""
    mid, dev = 1 << (m - 2), 1 << ((m - 3) // 2)
    counts = {0: 1, mid - dev: mid + dev, mid: (1 << (m - 1)) - 1, mid + dev: mid - dev}
    return (1 << (m - 1)) - 1, m, counts


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 2039])
def test_the_paley_claims_predict_the_papers_rows(p):
    # both claims read the thm-qfcodes rows; a change to those shows here
    for m in range(1, 13):
        claims = ["thm-part1"] + (["thm-part2"] if p**m % 4 == 3 else [])
        for claim in claims:
            P = codes.predicted_enumerator(claim, p=p, m=m)
            assert (P.claim, P.n, P.k, P.counts) == (claim, *paley_literal(p, m)), (claim, m)


def test_the_hyperoval_claim_predicts_the_papers_rows():
    # the claim reads the plateaued rows at f(0) = 1; a change to those shows here
    for m in range(5, 62, 2):
        P = codes.predicted_enumerator("thm-hyperovalDS", m=m)
        assert (P.n, P.k, P.counts) == hyperoval_literal(m), m


def test_predicted_enumerator_preconditions():
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("thm-bentcodes", m=5, n_f=12)
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("thm-CodeQBFs", m=6, n_f=26, r=4)  # f_hat(0) = 12
    with pytest.raises(errors.PreconditionFailedError):
        codes.predicted_enumerator("no-such-claim", m=6)


# inputs inside each claim's hypotheses, exactly the ones CLAIMS lists for it
CLAIM_INPUTS = {
    "thm-part1": {"p": 3, "m": 4},
    "thm-part2": {"p": 3, "m": 5},
    "thm-qfcodes": {"p": 3, "m": 2, "r": 2, "e": 2},
    "thm-hyperovalDS": {"m": 5},
    "thm-bentcodes": {"m": 4, "n_f": 6},
    "thm-semibentcodes": {"m": 5, "n_f": 16},
    "thm-abcodes": {"m": 5, "n_f": 16},
    "thm-CodeQBFs": {"m": 6, "n_f": 32, "r": 2},
    "thm-HKMcodes": {"h": 1},
    "glynn2-conjecture": {"m": 9},
}


@pytest.mark.parametrize("claim", list(codes.CLAIMS))
def test_a_claim_without_an_input_it_reads_is_refused_by_name(claim):
    kw = CLAIM_INPUTS[claim]
    assert tuple(kw) == codes.CLAIMS[claim]
    assert codes.predicted_enumerator(claim, **kw).claim == claim  # the listed inputs suffice
    for name in kw:
        rest = {k: v for k, v in kw.items() if k != name}
        with pytest.raises(errors.ToolkitError, match=f"^{claim} needs {name}$"):
            codes.predicted_enumerator(claim, **rest)
    with pytest.raises(errors.ToolkitError, match=f"^{claim} needs {', '.join(kw)}$"):
        codes.predicted_enumerator(claim)


@pytest.mark.parametrize("claim", ["thm-hyperovalDS", "thm-bentcodes", "thm-semibentcodes",
                                   "thm-abcodes", "thm-CodeQBFs", "glynn2-conjecture",
                                   "thm-HKMcodes"])
def test_a_claim_over_one_characteristic_refuses_any_other_p(claim):
    char, foreign = (3, 2) if claim == "thm-HKMcodes" else (2, 3)
    kw = CLAIM_INPUTS[claim]
    assert codes.predicted_enumerator(claim, **kw, p=char).claim == claim
    with pytest.raises(errors.PreconditionFailedError, match=f"^p = {char}: p = {foreign}$"):
        codes.predicted_enumerator(claim, **kw, p=foreign)
    # the characteristic is checked before the claim's own hypotheses (here m)
    with pytest.raises(errors.PreconditionFailedError, match=f"^p = {char}: p = {foreign}$"):
        codes.predicted_enumerator(claim, **(kw | {"m": 2}), p=foreign)


def test_hkm_prediction_refuses_an_m_other_than_3h():
    assert codes.predicted_enumerator("thm-HKMcodes", h=1).n == 4
    assert codes.predicted_enumerator("thm-HKMcodes", h=1, m=3).n == 4
    with pytest.raises(errors.PreconditionFailedError, match="^m = 3h: m = 5, h = 1$"):
        codes.predicted_enumerator("thm-HKMcodes", h=1, m=5)


def test_a_closed_form_never_predicts_a_negative_multiplicity():
    # n_f = 32 is the constant function's support, not a semibent one at m = 5
    # (those have 16 or 16 +- 4 elements); the weight rows give A_14 = -4
    with pytest.raises(errors.PreconditionFailedError, match="^nonnegative multiplicity: -4$"):
        codes.predicted_enumerator("thm-semibentcodes", m=5, n_f=32)


# inputs out of range or outside a claim's hypotheses, each on top of the
# claim's CLAIM_INPUTS: before the range checks they raised ZeroDivisionError,
# TypeError or ValueError, leaked a float into a Fraction, or predicted
# negative lengths and weights
REFUSED_INPUTS = [
    ("thm-qfcodes", {"e": 0}, "e >= 1: e = 0"),
    ("thm-qfcodes", {"e": -1}, "e >= 1: e = -1"),
    ("thm-qfcodes", {"r": 6}, "0 <= r <= m: r = 6, m = 2"),
    ("thm-qfcodes", {"r": -2}, "0 <= r <= m: r = -2, m = 2"),
    ("thm-part1", {"p": 9, "m": 1}, "p prime: p = 9"),
    ("thm-HKMcodes", {"h": -1}, "h >= 1: h = -1"),
    ("thm-part1", {"m": -1}, "m >= 1: m = -1"),
    ("thm-part2", {"m": -1}, "m >= 1: m = -1"),
    ("thm-semibentcodes", {"m": -1}, "m >= 1: m = -1"),
    ("thm-CodeQBFs", {"m": -1}, "m >= 1: m = -1"),
    ("thm-bentcodes", {"n_f": 0}, "n_f >= 1: n_f = 0"),
    # a bent spectrum has no zeros, so n_f = 2^5 +- 2^2 at m = 6
    ("thm-bentcodes", {"m": 6, "n_f": 12}, "f_hat(0) in {+-2^(m/2)}: 40"),
]


@pytest.mark.parametrize("claim,change,message", REFUSED_INPUTS,
                         ids=[f"{c}-" + ",".join(f"{k}={v}" for k, v in ch.items())
                              for c, ch, _ in REFUSED_INPUTS])
def test_an_input_out_of_range_is_refused_by_name(claim, change, message):
    with pytest.raises(errors.PreconditionFailedError, match=f"^{re.escape(message)}$"):
        codes.predicted_enumerator(claim, **(CLAIM_INPUTS[claim] | change))


def test_a_p_beyond_factorize_raises_its_value_error():
    # p is tested by gf.is_prime, which is factorize and stops at 2^32
    with pytest.raises(ValueError, match=re.escape("factorize needs 1 <= n < 2^32")):
        codes.predicted_enumerator("thm-part1", p=(1 << 61) - 1, m=1)


def test_a_non_integral_weight_is_refused_as_a_weight():
    # 8 words of weight 2*9/12
    with pytest.raises(errors.PreconditionFailedError, match="^integral weight: 3/2$"):
        codes.predicted_enumerator("thm-qfcodes", p=3, m=2, r=1, e=4)
    # 1 word of weight n_f/2 - amp/4
    with pytest.raises(errors.PreconditionFailedError, match="^integral weight: 1/2$"):
        codes.predicted_enumerator("thm-CodeQBFs", m=2, n_f=2, r=2)
    # a row whose count and weight are both non-integral names its count
    with pytest.raises(errors.PreconditionFailedError, match="^integral multiplicity: 3/2$"):
        codes._rows_to_prediction("c", 2, 3, 2, [(Fraction(1, 2), Fraction(3, 2))])


@pytest.mark.parametrize("m", [4, 5, 7, 8])
def test_every_small_quadratic_form_is_predicted_by_its_plateaued_claims(m):
    # Tr(sum f_i x^(2^i+1)) with f_i in {0, 1, 2}, not all 0, built as verify's
    # qbf cases build theirs; with f_i in {0, 1} alone no form is bent at m = 4, 8
    F = default_field(2, m)
    exps = tuple((1 << i) + 1 for i in range(m // 2 + 1))
    rows = np.array(list(product((0, 1, 2), repeat=len(exps)))[1:], dtype=np.int32)
    tables = designs.table_rows(F, exps, rows, traced=True)
    ranks = boolfn.quadratic_rank(F, rows, exps, traced=True)
    checked = []
    for table, r in zip(tables, ranks.tolist()):
        if not table.any():  # Tr(f) = 0, e.g. Tr(x^5) on GF(2^4)
            continue
        D = designs.defining_set(F, np.flatnonzero(table == 1))
        E = codes.weight_enumerator(D)
        # a rank-m form is bent, a rank-(m-1) form semibent; ranks are even
        top = {m: "thm-bentcodes", m - 1: "thm-semibentcodes"}.get(r)
        for claim in filter(None, ("thm-CodeQBFs", top)):
            P = codes.predicted_enumerator(claim, m=m, n_f=len(D), r=r)
            assert codes.compare_prediction(E, P).ok, (claim, r, len(D))
            checked.append(claim)
    assert {"thm-CodeQBFs", "thm-bentcodes" if m % 2 == 0 else "thm-semibentcodes"} <= set(checked)


def test_a_predicted_zero_weight_is_folded_into_the_kernel():
    # a rank-2 form with f_hat(0) = 32 (n_f = 16) on GF(2^6): its rows are
    # 60 words of weight 8, 2 of weight 16 and 1 of weight 0, so together with
    # x = 0 the kernel has 2 elements and k = 6 - 1
    P = codes.predicted_enumerator("thm-CodeQBFs", m=6, n_f=16, r=2)
    assert (P.n, P.k, P.counts) == (16, 5, {0: 1, 8: 30, 16: 1})


def test_a_kernel_that_is_no_power_of_p_is_refused():
    # 4 zero-weight rows and x = 0 make a kernel of 5 elements, no power of 3
    rows = [(0, 4), (2, 22)]
    with pytest.raises(errors.PreconditionFailedError, match="^kernel size a power of p: 5, p = 3$"):
        codes._rows_to_prediction("c", 3, 4, 3, rows)
    # a kernel of 3 elements that does not divide A_2 = 25
    rows = [(0, 2), (2, 25)]
    with pytest.raises(errors.PreconditionFailedError,
                       match="^kernel size divides every multiplicity: A_2 = 25, kernel size 3$"):
        codes._rows_to_prediction("c", 3, 4, 3, rows)
    assert codes._rows_to_prediction("c", 3, 4, 3, [(0, 2), (2, 24)]).counts == {0: 1, 2: 8}


def test_every_claim_but_the_weight_set_one_is_checked_by_rows_to_prediction(monkeypatch):
    seen = []

    def spy(claim, *rest):
        seen.append(claim)
        return rows_to_prediction(claim, *rest)

    rows_to_prediction = codes._rows_to_prediction
    monkeypatch.setattr(codes, "_rows_to_prediction", spy)
    for claim, kw in CLAIM_INPUTS.items():
        P = codes.predicted_enumerator(claim, **kw)
        assert (P.counts is None) == (P.weight_set is not None) == (claim == "glynn2-conjecture")
    assert seen == [c for c in CLAIM_INPUTS if c != "glynn2-conjecture"]


def test_prediction_comparison_reports_mismatches():
    F = default_field(2, 9)
    E = codes.weight_enumerator(designs.maschietti_set(F, "glynn2"))
    P = codes.predicted_enumerator("thm-hyperovalDS", m=9)
    rep = codes.compare_prediction(E, P)
    assert not rep.ok and len(rep.mismatches) == 5
    P2 = codes.predicted_enumerator("glynn2-conjecture", m=9)
    rep2 = codes.compare_prediction(E, P2)
    assert rep2.ok


def test_enumerator_json_round_trip_and_bytes(capsys):
    # code --json writes the enumerator; it round-trips to the library's
    assert cli.entry(["code", "--family", "hkm:1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)["enumerator"]
    s = json.dumps(obj, separators=(",", ":"))
    assert s == ('{"p":3,"m":3,"n":4,"k":3,"weights":'
                 '[{"w":0,"A":1},{"w":2,"A":12},{"w":3,"A":8},{"w":4,"A":6}]}')
    E = codes.weight_enumerator(designs.hkm_set(default_field(3, 3)))
    assert (obj["p"], obj["m"], obj["n"], obj["k"]) == (E.p, E.m, E.n, E.k)
    assert {row["w"]: row["A"] for row in obj["weights"]} == E.counts


def test_export_generator_format(capsys):
    assert cli.entry(["export-gen", "--family", "paley", "--p", "3", "--m", "2"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "3 2 4"
    assert len(lines) == 3
    assert all(len(row.split()) == 4 for row in lines[1:])
    assert text == "3 2 4\n2 1 0 0\n2 1 1 2\n"


@given(st.integers(1, 26))
def test_scaling_a_defining_set_preserves_the_enumerator(a):
    F = default_field(3, 3)
    D = designs.paley_set(F)
    base = codes.weight_enumerator(D).counts
    scaled = designs.defining_set(F, [F.mul(a, d) for d in D.elems])
    assert codes.weight_enumerator(scaled).counts == base


def test_poly_str_spelling():
    E = codes.WeightEnumerator(2, 9, 255, 9, {0: 1, 112: 9, 144: 1})
    assert E.poly_str() == "1 + 9z^112 + z^144"
    assert E.weights() == [112, 144]
