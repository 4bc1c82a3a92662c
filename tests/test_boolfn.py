import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import boolfn, designs, errors, verify
from dscodes.boolfn import WalshSpectrum
from dscodes.designs import FuncSpec
from dscodes.gf import default_field


def brute_walsh(F, f, traced=True):
    """O(q^2) transform of Tr(f) straight from the definition; the reference oracle.

    Tr(f) is read off f.table(F, traced=True), or traced here from the
    GF(q)-valued table when traced is False."""
    tbl = f.table(F, traced=True) if traced else F.trace_table[f.table(F)]
    vals = []
    for w in range(F.q):
        acc = 0
        for x in range(F.q):
            acc += (-1) ** ((int(tbl[x]) + F.trace(F.mul(w, x))) % 2)
        vals.append(acc)
    return vals


@pytest.mark.parametrize("terms,traced", [
    (((1, 3),), True),
    (((2, 3), (1, 2)), True),
    (((1, 5), (1, 3)), True),
    (((1, 3),), False),
])
def test_walsh_matches_brute_force_m4(terms, traced):
    F = default_field(2, 4)
    f = FuncSpec(terms)
    assert boolfn.walsh_transform(F, f).values.tolist() == brute_walsh(F, f, traced)


def test_walsh_matches_brute_force_m5():
    F = default_field(2, 5)
    f = FuncSpec(((1, 3),))
    s = boolfn.walsh_transform(F, f)
    assert s.values.tolist() == brute_walsh(F, f)
    assert s.histogram() == {-8: 6, 0: 16, 8: 10}
    assert s.values[0] == 0 and s.n_f == 16


def test_walsh_requires_char_two():
    with pytest.raises(errors.ToolkitError, match=r"^Walsh transform is defined over GF\(2\^m\)$"):
        boolfn.walsh_transform(default_field(3, 2), FuncSpec(((1, 2),)))


def test_spectrum_classification():
    bent = WalshSpectrum(4, np.array((4,) * 8 + (-4,) * 8))
    assert boolfn.classify_spectrum(bent).variant == "bent"
    semi = boolfn.classify_spectrum(
        boolfn.walsh_transform(default_field(2, 5), FuncSpec(((1, 3),))))
    assert semi.variant == "semibent" and semi.amplitude == 8
    affine = boolfn.walsh_transform(default_field(2, 4), FuncSpec(((1, 1),)))
    assert boolfn.classify_spectrum(affine).variant == "other"


def test_five_valued_classification():
    synth = WalshSpectrum(5, np.array((0,) * 8 + (4,) * 8 + (-4,) * 8 + (8,) * 4 + (-8,) * 4))
    assert boolfn.classify_spectrum(synth).variant == "five-valued"
    plateau = WalshSpectrum(6, np.array((0,) * 48 + (16,) * 10 + (-16,) * 6))
    assert boolfn.classify_spectrum(plateau).variant == "plateaued"


def test_quadratic_rank_frozen_values():
    F5, F6 = default_field(2, 5), default_field(2, 6)
    r = boolfn.quadratic_rank(F5, FuncSpec(((1, 3),)), traced=True)
    assert type(r) is int and r == 4
    assert boolfn.quadratic_rank(F6, FuncSpec(((1, 3),)), traced=True) == 4
    assert boolfn.quadratic_rank(F6, FuncSpec(((2, 3),)), traced=True) == 6
    assert boolfn.quadratic_rank(F6, FuncSpec(((1, 3), (1, 5))), traced=True) == 2
    F9 = default_field(3, 2)
    assert boolfn.quadratic_rank(F9, FuncSpec(((1, 2),)), traced=False) == 2
    # field-valued and traced ranks can legitimately differ
    F81 = default_field(3, 4)
    assert boolfn.quadratic_rank(F81, FuncSpec(((1, 4),)), traced=False) == 4
    assert boolfn.quadratic_rank(F81, FuncSpec(((1, 4),)), traced=True) == 2


def test_quadratic_rank_takes_its_flag_by_keyword_only():
    F = default_field(3, 4)
    f = FuncSpec(((1, 4),))
    with pytest.raises(TypeError, match="traced"):
        boolfn.quadratic_rank(F, f)
    with pytest.raises(TypeError):
        boolfn.quadratic_rank(F, [f], None, True)


def test_quadratic_rank_rejects_other_exponents():
    F = default_field(2, 5)
    with pytest.raises(errors.ToolkitError, match=r"^exponent 7 is not of the form p\^i\+p\^j$"):
        boolfn.quadratic_rank(F, FuncSpec(((1, 7),)), traced=True)
    F27 = default_field(3, 3)
    with pytest.raises(errors.ToolkitError, match=r"^exponent 5 is not of the form p\^i\+p\^j$"):
        boolfn.quadratic_rank(F27, FuncSpec(((1, 5),)), traced=False)
    boolfn.quadratic_rank(F27, FuncSpec(((1, 6),)), traced=True)  # 6 = 3 + 3 is fine


def brute_rank(F, f, traced):
    """m - log_p |{a : B(a, x) = 0 for all x}| with B(a,x) = f(a+x) - f(a) - f(x),
    for Tr(f) if traced."""
    vals = brute_table(F, f, traced)
    sub = (lambda u, v: (u - v) % F.p) if traced else F.sub

    def bilinear(a, x):
        return sub(sub(vals[F.add(a, x)], vals[a]), vals[x])

    size = sum(1 for a in range(F.q) if all(bilinear(a, x) == 0 for x in range(F.q)))
    dim = 0
    while size > 1:
        assert size % F.p == 0
        size //= F.p
        dim += 1
    return F.m - dim


@st.composite
def quadratic_form_batches(draw):
    """One to four forms on one field, and one tracing flag for the batch.

    Some share the first form's exponent tuple, the others draw their own, so
    one batch mixes exponent sets; a coefficient may be 0, an absent term.
    """
    p, m = draw(st.sampled_from(((2, 5), (3, 3), (5, 2))))
    F = default_field(p, m)
    exps = sorted({p**i + p**j for i in range(m) for j in range(i, m)})
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        if forms and draw(st.booleans()):
            chosen = [e for _, e in forms[0].terms]  # the first form's exponent tuple
        else:
            chosen = draw(st.lists(st.sampled_from(exps), min_size=1, unique=True))
        coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=len(chosen),
                               max_size=len(chosen)))
        forms.append(FuncSpec(tuple(zip(coeffs, chosen))))
    return F, forms, draw(st.booleans())


@given(quadratic_form_batches())
def test_quadratic_rank_matches_brute_force_radical(batch):
    F, forms, traced = batch
    ranks = boolfn.quadratic_rank(F, forms, traced=traced)
    assert ranks.dtype == np.int64 and ranks.shape == (len(forms),)
    for f, rank in zip(forms, ranks.tolist()):
        assert rank == brute_rank(F, f, traced)
        single = boolfn.quadratic_rank(F, f, traced=traced)  # one FuncSpec in, one int out
        assert type(single) is int and single == rank
    # the same forms as one coefficient matrix over one exponent tuple, either way
    exps, coeffs = designs.coefficient_rows(forms)
    for flag in (False, True):
        assert (boolfn.quadratic_rank(F, coeffs, exps, traced=flag).tolist()
                == [brute_rank(F, f, flag) for f in forms])


def brute_table(F, f, traced):
    """f(x) for every x from scalar field operations, then Tr if traced."""
    vals = []
    for x in range(F.q):
        acc = 0
        for c, e in f.terms:
            acc = F.add(acc, F.mul(c, F.pow(x, e)))
        vals.append(F.trace(acc) if traced else acc)
    return vals


@given(quadratic_form_batches())
def test_row_tables_match_each_form_on_its_own(batch):
    F, forms, _ = batch
    exps, coeffs = designs.coefficient_rows(forms)
    for traced in (False, True):
        tables = designs.table_rows(F, exps, coeffs, traced)
        assert tables.dtype == np.int32 and tables.shape == (len(forms), F.q)
        for f, row in zip(forms, tables.tolist()):
            assert row == f.table(F, traced).tolist() == brute_table(F, f, traced)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_row_tables_give_walsh_at_zero_and_one_stacked_butterfly(m):
    # every coefficient row over x^2, x^3, x^5 with entries in {0, 1, alpha}
    F = default_field(2, m)
    exps = (2, 3, 5)
    grid = np.array(np.meshgrid(*[(0, 1, F.alpha)] * 3, indexing="ij")).reshape(3, -1).T[1:]
    tables = designs.table_rows(F, exps, grid, traced=True)
    spectra = boolfn.walsh_from_table(F, tables)
    assert len(spectra) == len(grid)
    for row, tbl, s in zip(grid, tables, spectra):
        f = FuncSpec(tuple((int(c), e) for c, e in zip(row, exps) if c))
        want = boolfn.walsh_transform(F, f)
        assert s == want and not s.values.flags.writeable
        assert F.q - 2 * int(np.count_nonzero(tbl)) == want.values[0]


def test_quadratic_rank_batch_edges():
    F = default_field(2, 6)
    empty = boolfn.quadratic_rank(F, [], traced=True)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    gold = FuncSpec(((1, 3),))
    assert (boolfn.quadratic_rank(F, (gold, gold), traced=True).tolist()
            == [boolfn.quadratic_rank(F, gold, traced=True)] * 2)
    # a bad exponent anywhere in the batch raises with the single-form message
    with pytest.raises(errors.ToolkitError, match="^exponent 7 is not of the form p\\^i\\+p\\^j$"):
        boolfn.quadratic_rank(F, [gold] * 3 + [FuncSpec(((1, 7),))], traced=True)


def test_quadratic_rank_holds_one_chunk_of_forms_at_a_time():
    # a GF(q)-valued form ranks an (m*m, m) digit matrix, so one chunk's
    # stack is RANK_CHUNK*m^3 int64 entries; gfp_rank copies it a few times,
    # and the 4*RANK_CHUNK forms in one stack would peak about four times higher
    F = default_field(2, 9)
    exps = (2, 3, 5, 17)  # x^2 is additive: a form of it alone has rank 0
    rng = np.random.default_rng(9)
    coeffs = rng.integers(0, F.q, (4 * boolfn.RANK_CHUNK, len(exps)))
    coeffs[rng.integers(0, 3, coeffs.shape) > 0] = 0  # most terms absent
    forms = [FuncSpec(tuple(zip(row, exps))) for row in coeffs.tolist()]
    tracemalloc.start()
    try:
        ranks = boolfn.quadratic_rank(F, forms, traced=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.tolist() == [boolfn.quadratic_rank(F, f, traced=False) for f in forms]
    stack = boolfn.RANK_CHUNK * F.m**3 * 8
    assert peak < 6 * stack, peak / stack


def test_galois_sum_frozen_values():
    assert boolfn.quadratic_galois_sum(default_field(3, 2), FuncSpec(((1, 2),))) == 6
    assert boolfn.quadratic_galois_sum(default_field(3, 3), FuncSpec(((1, 2),))) == 0
    assert boolfn.quadratic_galois_sum(default_field(3, 4), FuncSpec(((1, 4),))) == -54


def brute_lambda(F, g, a, b):
    """lambda_g(a,b) = sum over x of (-1)^Tr(a*g(x) + b*x), from the definition."""
    inner = F.add(F.mul(g.table(F), a), F.mul(np.arange(F.q), b))
    return int(np.sum(1 - 2 * F.trace(inner).astype(np.int64)))


def test_lambda_spectrum():
    # lambda_g(1, .) is the Walsh spectrum of Tr(g), where verify's ab cases read lambda_g(1, 0)
    g = FuncSpec(((1, 3),))
    for m in (5, 7):
        F = default_field(2, m)
        s = boolfn.walsh_transform(F, g)
        assert [brute_lambda(F, g, 1, b) for b in range(F.q)] == s.values.tolist()
        assert s.values[0] == 0  # x^3 permutes GF(2^m) for odd m, so Tr(x^3) is balanced
    F = default_field(2, 5)
    for a, b in ((1, 1), (3, 0), (5, 7)):
        assert brute_lambda(F, g, a, b) in (0, 8, -8)
    assert brute_lambda(F, g, 0, 0) == 32  # empty exponent sum


def test_is_almost_bent():
    F5 = default_field(2, 5)
    assert boolfn.is_almost_bent(F5, FuncSpec(((1, 3),)))
    assert boolfn.is_almost_bent(F5, FuncSpec(((1, 5),)))
    assert not boolfn.is_almost_bent(F5, FuncSpec(((1, 1),)))  # linear
    with pytest.raises(errors.ToolkitError, match="^almost bent functions exist only for odd m$"):
        boolfn.is_almost_bent(default_field(2, 6), FuncSpec(((1, 3),)))


def test_almost_bent_requires_char_two():
    with pytest.raises(errors.ToolkitError, match=r"^almost bent functions live on GF\(2\^m\)$"):
        boolfn.is_almost_bent(default_field(3, 3), FuncSpec(((1, 2),)))


def brute_is_almost_bent(F, g):
    """Every lambda_g(a, b), a != 0, from its definition; the reference oracle."""
    amp = 1 << ((F.m + 1) // 2)
    return all(brute_lambda(F, g, a, b) in (0, amp, -amp)
               for a in range(1, F.q) for b in range(F.q))


@pytest.mark.parametrize("m,exps,ab", [
    (3, (3,), True),
    (3, (5,), True),
    (3, (1,), False),  # linear
    (3, (6,), True),  # the inverse x^(q-2) = (x^3)^2 on GF(8)
    (3, (3, 1), True),
    (5, (3,), True),
    (5, (13,), True),  # Kasami 2^4 - 2^2 + 1
    (5, (1,), False),  # linear
    (5, (30,), False),  # the inverse x^(q-2)
    (5, (3, 5), False),
])
def test_is_almost_bent_matches_the_exhaustive_lambda_spectrum(m, exps, ab):
    F = default_field(2, m)
    g = FuncSpec(tuple((1, e) for e in exps))
    assert boolfn.is_almost_bent(F, g) == brute_is_almost_bent(F, g) == ab


def test_is_almost_bent_refuses_m_11_before_building_anything_quadratic():
    F = default_field(2, 11)
    tracemalloc.start()
    try:
        with pytest.raises(errors.SizeLimitError):
            boolfn.is_almost_bent(F, FuncSpec(((1, 3),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F.q * F.q // 8  # a q^2 array of bytes would be 4 MB


def _traced_peak(fn, *args):
    """Peak bytes traced (Python objects and numpy buffers) while fn(*args) runs, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("terms", [((1, 3),), ((1, 5), (6, 3))])
def test_func_spec_table_peaks_below_the_walsh_step(terms):
    # every table the two steps read is built first, so only their own
    # temporaries are measured
    F = default_field(2, 18)
    f = FuncSpec(terms)
    f.table(F, traced=True)
    table_peak, tbl = _traced_peak(f.table, F, True)
    walsh_peak, _ = _traced_peak(boolfn.walsh_from_table, F, tbl)
    assert table_peak < walsh_peak


@pytest.mark.parametrize("m", range(4, 21))
def test_gold_instances_are_bent_or_semibent_with_the_wanted_f_hat_0(m):
    # the unwrapped builders: nothing of these 2^20-point fields stays cached
    if m % 2 == 0:
        build, variant, rank = verify._bent_instance, "bent", m
    else:
        build, variant, rank = verify._semibent_instance, "semibent", m - 1
    walsh0 = 1 << (m - rank // 2)
    D, ctx = designs.family(build.__wrapped__(m), lambda p: default_field(p, m))
    F, (f, _) = D.field, ctx["bool"]
    s = boolfn.walsh_transform(F, f)
    assert boolfn.classify_spectrum(s).variant == variant
    assert s.values[0] == walsh0
    assert boolfn.quadratic_rank(F, f, traced=True) == rank
    assert len(D) == (1 << (m - 1)) - walsh0 // 2


# every GF(p^m) with p in {3, 5, 7, 11, 13} and q <= 3^8
PALEY_FIELDS = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 9) if p**m <= 3**8]


@pytest.mark.parametrize("p,m", PALEY_FIELDS, ids=[f"{p}^{m}" for p, m in PALEY_FIELDS])
def test_the_paley_set_is_the_image_of_a_two_to_one_rank_m_form(p, m):
    # the premises that make thm-part1/part2 the thm-qfcodes rows at e = 2, r = m:
    # x^2 is 2-to-1 on GF(q)*, its image is the squares, and 2xy has no radical
    F = default_field(p, m)
    f = FuncSpec(((1, 2),))
    table = f.table(F)
    assert designs.eto1_check(table) == 2
    assert boolfn.quadratic_rank(F, f, traced=False) == m
    assert np.array_equal(designs.image_set(F, table).elems, designs.paley_set(F).elems)


def hyperoval_walsh_off_zero(m, case):
    """The distinct f_hat(x), x != 0, of f = 1_{D u {0}} for a Maschietti set D."""
    F = default_field(2, m)
    table = np.zeros(F.q, dtype=np.int8)
    table[designs.maschietti_set(F, case).elems] = 1
    table[0] = 1
    return set(boolfn.walsh_from_table(F, table).values[1:].tolist())


@pytest.mark.parametrize("m", range(5, 16, 2))
@pytest.mark.parametrize("case", ["segre", "glynn1"])
def test_segre_and_glynn1_sets_with_0_are_plateaued_supports(case, m):
    # the premise that makes thm-hyperovalDS the plateaued rows with f(0) = 1
    amp = 1 << ((m + 1) // 2)
    assert hyperoval_walsh_off_zero(m, case) <= {0, amp, -amp}


@pytest.mark.parametrize("m", [9, 11])
def test_glynn2_sets_with_0_have_five_walsh_values(m):
    # why glynn2-conjecture stays a weight set of its own
    lo, hi = 1 << ((m + 1) // 2), 1 << ((m + 3) // 2)
    assert hyperoval_walsh_off_zero(m, "glynn2") == {0, lo, -lo, hi, -hi}
    # the Singer set with 0 is a hyperplane, two-valued off 0
    assert hyperoval_walsh_off_zero(m, "singer") == {0, -(1 << m)}


def test_parseval_holds_for_every_tested_spectrum():
    F = default_field(2, 6)
    for terms in (((1, 3),), ((2, 3),), ((1, 3), (1, 5))):
        v = boolfn.walsh_transform(F, FuncSpec(terms)).values
        # |v| <= 2^m over 2^m frequencies, so the int64 sum of squares is at most
        # 2^(3m) = 2^18, and 2^(2m) <= 2^44 when Parseval holds: exact
        assert int(v @ v) == 2 ** (2 * 6)


def test_spectra_are_read_only_int64_arrays():
    F = default_field(2, 5)
    s = boolfn.walsh_transform(F, FuncSpec(((1, 3),)))
    assert isinstance(s.values, np.ndarray) and s.values.dtype == np.int64
    with pytest.raises(ValueError):
        s.values[0] = 1
    # the derived numbers are Python ints, as the JSON output needs
    assert type(s.n_f) is int
    assert all(type(v) is int and type(c) is int for v, c in s.histogram().items())
    assert s.distinct() == (-8, 0, 8) and all(type(v) is int for v in s.distinct())
    # value equality through the arrays
    assert s == boolfn.walsh_transform(F, FuncSpec(((1, 3),)))
    assert s != boolfn.walsh_transform(F, FuncSpec(((1, 5),)))
    assert s != WalshSpectrum(5, s.values[::-1])
