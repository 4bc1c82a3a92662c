from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import codes, cyclotomic, designs
from dscodes.cyclotomic import char_sum, fwht, is_rational, zero_counts
from dscodes.designs import FuncSpec
from dscodes.errors import SizeLimitError
from dscodes.gf import default_field


def _oracle_row(F, S, b):
    """#{s in S : Tr(b*s) = c} for c in GF(p), one scalar trace at a time."""
    hist = Counter(F.trace(F.mul(b, s)) for s in S)
    return [hist[c] for c in range(F.p)]


def test_char_sum_matches_scalar_summation():
    F = default_field(3, 2)
    S = [1, 3, 4, 7]
    for b in range(F.q):
        row = char_sum(F, S, b)
        assert row.shape == (F.p,) and row.dtype == np.int64
        assert row.tolist() == _oracle_row(F, S, b)
    assert char_sum(F, S, 0).tolist() == [len(S), 0, 0]


def test_is_rational_reads_the_value_of_a_count_row():
    # p = 2: zeta_2 = -1, so every row is the integer row[0] - row[1]
    assert is_rational([5, 2]) == 3
    assert is_rational(np.array([0, 4])) == -4
    # p = 3: rational exactly when the counts at zeta and zeta^2 agree
    assert is_rational([4, 2, 2]) == 2
    assert is_rational([0, 1, 1]) == -1  # zeta + zeta^2 = -1
    assert is_rational([4, 1, 2]) is None
    value = is_rational(np.array([7, 3, 3, 3, 3]))
    assert value == 4 and type(value) is int


# one field per characteristic the many-point routes are checked in
MANY_POINT_FIELDS = ((2, 4), (3, 3), (5, 2), (7, 2))


@pytest.mark.parametrize("blocks", ["one", "split-S", "two-rows"])
@pytest.mark.parametrize("pm", MANY_POINT_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_many_point_routes_match_their_scalar_definitions(monkeypatch, pm, blocks):
    F = default_field(*pm)
    p = F.p
    S = [0] + list(range(1, F.q, 3))  # 0 in S
    # the gathers run as one block, as max(5, p)-pair pieces of one row, or two b's at a time
    block = {"one": cyclotomic.TRACE_BLOCK, "split-S": 5, "two-rows": 2 * max(len(S), p)}[blocks]
    monkeypatch.setattr(cyclotomic, "TRACE_BLOCK", block)
    bs = [0, 1, F.q - 1] + list(range(2, F.q, 4))  # b = 0 first
    rows = char_sum(F, S, bs)
    assert rows.shape == (len(bs), p) and rows.dtype == np.int64
    for b, got in zip(bs, rows.tolist()):
        assert got == _oracle_row(F, S, b) == char_sum(F, S, b).tolist()
    assert rows[0].tolist() == [len(S)] + [0] * (p - 1)

    D = designs.defining_set(F, S)  # 0 is a coordinate too
    xs = np.array([0, 1, F.q - 1] + list(range(2, F.q, 5)))  # x = 0 first
    words = codes.codeword(D, xs)
    assert words.shape == (xs.size, len(D))
    weights = codes.weight_via_charsum(D, xs)
    assert weights == codes.weight_via_charsum(D, xs.tolist())
    for x, word, w in zip(xs.tolist(), words, weights):
        scalar_word = [F.trace(F.mul(x, d)) for d in S]
        assert word.tolist() == codes.codeword(D, x).tolist() == scalar_word
        assert w == codes.weight_via_charsum(D, x) == sum(t != 0 for t in scalar_word)
    assert weights[0] == 0

    f = FuncSpec(((1, p + 1), (1, 1)))  # f(0) = 0 puts 0 in the kernel
    values = designs.evaluate_rows(F, *designs.coefficient_rows([f]), np.arange(F.q), True)[0]
    kernel = np.flatnonzero(values == 0).tolist()
    assert designs.joint_counts(F, f, bs) == [tuple(_oracle_row(F, kernel, b)) for b in bs]


def test_char_sum_blocks_are_at_least_p_pairs_wide(monkeypatch):
    # p = 131 > TRACE_BLOCK = 16: 16-pair blocks would bincount into 131 bins
    # each, 537 per row; blocks of p pairs take 66 per row
    F = default_field(131, 2)
    S = designs.paley_set(F).elems
    assert S.size == 8580
    bs = np.arange(1, 6)
    expected = char_sum(F, S, bs)
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(cyclotomic, "TRACE_BLOCK", 16)
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    assert np.array_equal(char_sum(F, S, bs), expected)
    assert len(calls) <= 5 * 66


@st.composite
def butterfly_stacks(draw):
    m = draw(st.integers(0, 6))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    size = int(np.prod(lead, dtype=np.int64)) << m
    vals = draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    return np.array(vals, dtype=dtype).reshape(*lead, 1 << m)


@given(butterfly_stacks())
def test_stacked_fwht_matches_rows_and_the_hadamard_definition(stack):
    n = stack.shape[-1]
    # H[u, x] = (-1)^popcount(u & x): the +-1 Hadamard matrix of order n
    hadamard = np.array([[(-1) ** bin(u & x).count("1") for x in range(n)] for u in range(n)])
    got = fwht(stack.copy())
    assert got.dtype == stack.dtype and got.shape == stack.shape
    assert np.array_equal(got, stack.astype(np.int64) @ hadamard.T)
    rows = stack.reshape(-1, n)
    by_row = [fwht(row.copy()) for row in rows]
    assert np.array_equal(got.reshape(-1, n), np.array(by_row).reshape(-1, n))


def _digits(x, p, m):
    return [x // p**j % p for j in range(m)]


@pytest.mark.parametrize("p,m", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_zero_counts_match_a_brute_force_count_at_every_u(p, m):
    q = p**m
    mult = np.random.default_rng(q).integers(0, 4, size=q)  # multiplicities 0..3
    mult[[0, 1, q - 1]] = (2, 3, 3)
    got = zero_counts(mult, p, m)
    assert got.shape == (q,)
    for u in range(q):
        du = _digits(u, p, m)
        want = sum(int(mult[d]) for d in range(q)
                   if sum(a * b for a, b in zip(du, _digits(d, p, m))) % p == 0)
        assert got[u] == want, u
    assert got[0] == mult.sum()  # u = 0 pairs to 0 with every d


@pytest.mark.parametrize("p", [2, 3])
def test_zero_counts_refuse_multiplicities_past_int32(p):
    mult = np.zeros(p, dtype=np.int64)
    mult[1] = 1 << 30
    with pytest.raises(SizeLimitError, match="2\\^30"):
        zero_counts(mult, p, 1)
    mult[1] -= 1
    assert zero_counts(mult, p, 1).tolist() == [(1 << 30) - 1] + [0] * (p - 1)
