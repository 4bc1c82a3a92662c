import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import boolfn, errors
from dscodes.boolfn import WalshSpectrum
from dscodes.designs import FuncSpec
from dscodes.gf import default_field


def brute_walsh(F, f):
    """O(q^2) transform straight from the definition; the reference oracle."""
    tbl = f.table(F) if f.to_prime_subfield else F.trace_table[f.table(F)]
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
    f = FuncSpec(terms, traced)
    assert boolfn.walsh_transform(F, f).values.tolist() == brute_walsh(F, f)


def test_walsh_matches_brute_force_m5():
    F = default_field(2, 5)
    f = FuncSpec(((1, 3),), True)
    s = boolfn.walsh_transform(F, f)
    assert s.values.tolist() == brute_walsh(F, f)
    assert s.histogram() == {-8: 6, 0: 16, 8: 10}
    assert s.values[0] == 0 and s.n_f == 16


def test_walsh_requires_char_two():
    with pytest.raises(ValueError):
        boolfn.walsh_transform(default_field(3, 2), FuncSpec(((1, 2),), True))


def test_spectrum_classification():
    bent = WalshSpectrum(4, np.array((4,) * 8 + (-4,) * 8))
    assert boolfn.classify_spectrum(bent).variant == "bent"
    semi = boolfn.classify_spectrum(
        boolfn.walsh_transform(default_field(2, 5), FuncSpec(((1, 3),), True)))
    assert semi.variant == "semibent" and semi.amplitude == 8
    affine = boolfn.walsh_transform(default_field(2, 4), FuncSpec(((1, 1),), True))
    assert boolfn.classify_spectrum(affine).variant == "other"


def test_five_valued_classification():
    synth = WalshSpectrum(5, np.array((0,) * 8 + (4,) * 8 + (-4,) * 8 + (8,) * 4 + (-8,) * 4))
    assert boolfn.classify_spectrum(synth).variant == "five-valued"
    plateau = WalshSpectrum(6, np.array((0,) * 48 + (16,) * 10 + (-16,) * 6))
    assert boolfn.classify_spectrum(plateau).variant == "plateaued"


def test_quadratic_rank_frozen_values():
    F5, F6 = default_field(2, 5), default_field(2, 6)
    assert boolfn.quadratic_rank(F5, FuncSpec(((1, 3),), True)).r == 4
    assert boolfn.quadratic_rank(F6, FuncSpec(((1, 3),), True)).r == 4
    assert boolfn.quadratic_rank(F6, FuncSpec(((2, 3),), True)).r == 6
    assert boolfn.quadratic_rank(F6, FuncSpec(((1, 3), (1, 5)), True)).r == 2
    F9 = default_field(3, 2)
    assert boolfn.quadratic_rank(F9, FuncSpec(((1, 2),), False)).r == 2
    # field-valued and traced ranks can legitimately differ
    F81 = default_field(3, 4)
    assert boolfn.quadratic_rank(F81, FuncSpec(((1, 4),), False)).r == 4
    assert boolfn.quadratic_rank(F81, FuncSpec(((1, 4),), True)).r == 2


def test_quadratic_rank_rejects_other_exponents():
    F = default_field(2, 5)
    with pytest.raises(errors.NotQuadraticFormError):
        boolfn.quadratic_rank(F, FuncSpec(((1, 7),), True))
    F27 = default_field(3, 3)
    with pytest.raises(errors.NotQuadraticFormError):
        boolfn.quadratic_rank(F27, FuncSpec(((1, 5),), True))
    boolfn.quadratic_rank(F27, FuncSpec(((1, 6),), True))  # 6 = 3 + 3 is fine


def brute_rank(F, f):
    """m - log_p |{a : B(a, x) = 0 for all x}| with B(a,x) = f(a+x) - f(a) - f(x)."""
    vals = []
    for x in range(F.q):
        acc = 0
        for c, e in f.terms:
            acc = F.add(acc, F.mul(c, F.pow(x, e)))
        vals.append(F.trace(acc) if f.to_prime_subfield else acc)
    sub = (lambda u, v: (u - v) % F.p) if f.to_prime_subfield else F.sub

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
    """One to four forms on one field, traced or GF(q)-valued, some sharing exponents."""
    p, m = draw(st.sampled_from(((2, 5), (3, 3), (5, 2))))
    F = default_field(p, m)
    exps = sorted({p**i + p**j for i in range(m) for j in range(i, m)})
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        if forms and draw(st.booleans()):
            chosen = [e for _, e in forms[0].terms]  # the first form's exponent tuple
        else:
            chosen = draw(st.lists(st.sampled_from(exps), min_size=1, unique=True))
        coeffs = draw(st.lists(st.integers(1, F.q - 1), min_size=len(chosen),
                               max_size=len(chosen)))
        forms.append(FuncSpec(tuple(zip(coeffs, chosen)), draw(st.booleans())))
    return F, forms


@given(quadratic_form_batches())
def test_quadratic_rank_matches_brute_force_radical(batch):
    F, forms = batch
    ranks = boolfn.quadratic_rank(F, forms)
    assert isinstance(ranks, list) and len(ranks) == len(forms)
    for f, rank in zip(forms, ranks):
        assert rank.r == brute_rank(F, f)
        assert rank.radical_dim == F.m - rank.r
        assert boolfn.quadratic_rank(F, f) == rank  # one FuncSpec in, one result out


def test_quadratic_rank_batch_edges():
    F = default_field(2, 6)
    assert boolfn.quadratic_rank(F, []) == []
    gold = FuncSpec(((1, 3),), True)
    assert boolfn.quadratic_rank(F, (gold, gold)) == [boolfn.quadratic_rank(F, gold)] * 2
    # a bad exponent anywhere in the batch raises with the single-form message
    with pytest.raises(errors.NotQuadraticFormError, match="^exponent 7 is not of the form p\\^i\\+p\\^j$"):
        boolfn.quadratic_rank(F, [gold] * 3 + [FuncSpec(((1, 7),), True)])


def test_galois_sum_frozen_values():
    assert boolfn.quadratic_galois_sum(default_field(3, 2), FuncSpec(((1, 2),), False)) == 6
    assert boolfn.quadratic_galois_sum(default_field(3, 3), FuncSpec(((1, 2),), True)) == 0
    assert boolfn.quadratic_galois_sum(default_field(3, 4), FuncSpec(((1, 4),), False)) == -54


def brute_lambda(F, g, a, b):
    """lambda_g(a,b) = sum over x of (-1)^Tr(a*g(x) + b*x), from the definition."""
    inner = F.add(F.mul(g.table(F), a), F.mul(np.arange(F.q), b))
    return int(np.sum(1 - 2 * F.trace(inner).astype(np.int64)))


def test_lambda_spectrum():
    # lambda_g(1, .) is the Walsh spectrum of Tr(g), where verify's ab cases read lambda_g(1, 0)
    g = FuncSpec(((1, 3),), False)
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
    assert boolfn.is_almost_bent(F5, FuncSpec(((1, 3),), False))
    assert boolfn.is_almost_bent(F5, FuncSpec(((1, 5),), False))
    assert not boolfn.is_almost_bent(F5, FuncSpec(((1, 1),), False))  # linear
    with pytest.raises(errors.EvenDegreeError):
        boolfn.is_almost_bent(default_field(2, 6), FuncSpec(((1, 3),), False))


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
    g = FuncSpec(tuple((1, e) for e in exps), False)
    assert boolfn.is_almost_bent(F, g) == brute_is_almost_bent(F, g) == ab


def test_is_almost_bent_refuses_m_11_before_building_anything_quadratic():
    F = default_field(2, 11)
    tracemalloc.start()
    try:
        with pytest.raises(errors.SizeLimitError):
            boolfn.is_almost_bent(F, FuncSpec(((1, 3),), False))
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
    f = FuncSpec(terms, True)
    f.table(F)
    boolfn._trace_pairing_map(F)
    table_peak, tbl = _traced_peak(f.table, F)
    walsh_peak, _ = _traced_peak(boolfn.walsh_from_table, F, tbl)
    assert table_peak < walsh_peak


def test_trace_pairing_map_is_read_only():
    # one map serves every later spectrum on the field
    F = default_field(2, 7)
    umap = boolfn._trace_pairing_map(F)
    assert boolfn._trace_pairing_map(F) is umap and not umap.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        umap[1] = 0


def test_find_quadratic_with_and_iteration_order():
    F = default_field(2, 6)
    first = [s.terms for _, s in zip(range(3), boolfn.iter_quadratic_specs(F))]
    assert first == [(((1, 2),)), (((2, 2),)), (((3, 2),))]
    spec = boolfn.find_quadratic_with(F, rank=4, walsh0=16)
    assert boolfn.quadratic_rank(F, spec).r == 4
    assert boolfn.walsh_transform(F, spec).values[0] == 16
    with pytest.raises(errors.SizeLimitError):
        boolfn.find_quadratic_with(F, rank=5, limit=50)  # odd rank is impossible


def sequential_find(F, rank, walsh0, limit):
    """The search one spec at a time: the first of `limit` specs that matches."""
    for spec in islice(boolfn.iter_quadratic_specs(F), limit):
        if (boolfn.quadratic_rank(F, spec).r == rank
                and boolfn.walsh_transform(F, spec).values[0] == walsh0):
            return spec
    return None


@pytest.mark.parametrize("chunk", [1, 7, boolfn.RANK_CHUNK])
@pytest.mark.parametrize("m,rank,walsh0", [
    (4, 4, 4), (6, 6, 8),                  # bent
    (5, 4, 8), (7, 6, 16),                 # semibent
])
def test_find_quadratic_with_matches_a_sequential_walk(monkeypatch, chunk, m, rank, walsh0):
    monkeypatch.setattr(boolfn, "RANK_CHUNK", chunk)
    F = default_field(2, m)
    want = sequential_find(F, rank, walsh0, 10**6)
    assert want is not None
    assert boolfn.find_quadratic_with(F, rank=rank, walsh0=walsh0) == want
    # limit counts specs examined: the match is the last one a tight limit admits
    seen = next(i for i, s in enumerate(boolfn.iter_quadratic_specs(F), 1) if s == want)
    assert boolfn.find_quadratic_with(F, rank=rank, walsh0=walsh0, limit=seen) == want
    with pytest.raises(errors.SizeLimitError,
                       match="^no quadratic function matched within the search budget$"):
        boolfn.find_quadratic_with(F, rank=rank, walsh0=walsh0, limit=seen - 1)


def test_parseval_holds_for_every_tested_spectrum():
    F = default_field(2, 6)
    for terms in (((1, 3),), ((2, 3),), ((1, 3), (1, 5))):
        v = boolfn.walsh_transform(F, FuncSpec(terms, True)).values
        # |v| <= 2^m over 2^m frequencies, so the int64 sum of squares is at most
        # 2^(3m) = 2^18, and 2^(2m) <= 2^44 when Parseval holds: exact
        assert int(v @ v) == 2 ** (2 * 6)


def test_spectra_are_read_only_int64_arrays():
    F = default_field(2, 5)
    s = boolfn.walsh_transform(F, FuncSpec(((1, 3),), True))
    assert isinstance(s.values, np.ndarray) and s.values.dtype == np.int64
    with pytest.raises(ValueError):
        s.values[0] = 1
    # the derived numbers are Python ints, as the JSON output needs
    assert type(s.n_f) is int
    assert all(type(v) is int and type(c) is int for v, c in s.histogram().items())
    assert s.distinct() == (-8, 0, 8) and all(type(v) is int for v in s.distinct())
    # value equality through the arrays
    assert s == boolfn.walsh_transform(F, FuncSpec(((1, 3),), True))
    assert s != boolfn.walsh_transform(F, FuncSpec(((1, 5),), True))
    assert s != WalshSpectrum(5, s.values[::-1])
