import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import codes, cyclotomic, designs
from dscodes.cyclotomic import CycInt, char_sum, fwht, is_rational, zero_counts
from dscodes.designs import FuncSpec
from dscodes.errors import MixedPrimesError, SizeLimitError
from dscodes.gf import default_field


def test_integers_embed_in_the_canonical_basis():
    one = CycInt.integer(3, 1)
    assert one.coeffs == (-1, -1)  # 1 = -z - z^2 when 1 + z + z^2 = 0
    assert is_rational(one) == 1
    assert is_rational(CycInt.integer(5, -7)) == -7
    assert is_rational(CycInt.integer(3, 0)) == 0


def test_root_powers_and_vanishing_sum():
    z = CycInt.root_power(3, 1)
    z2 = CycInt.root_power(3, 2)
    assert is_rational(z + z2 + CycInt.integer(3, 1)) == 0
    assert is_rational(z * z2) == 1  # z * z^2 = z^3 = 1
    assert CycInt.root_power(3, 5) == z2  # exponents wrap mod p
    assert is_rational(z) is None


def test_char_two_roots_are_signs():
    assert is_rational(CycInt.root_power(2, 0)) == 1
    assert is_rational(CycInt.root_power(2, 1)) == -1
    assert is_rational(CycInt.root_power(2, 1) * CycInt.root_power(2, 1)) == 1


def test_mixed_primes_refuse_to_combine():
    with pytest.raises(MixedPrimesError):
        CycInt.root_power(3, 1) + CycInt.root_power(5, 1)
    with pytest.raises(MixedPrimesError):
        CycInt.root_power(3, 1) * CycInt.root_power(5, 1)


def test_galois_permutes_exponents():
    z = CycInt.root_power(5, 1)
    assert z.galois(2) == CycInt.root_power(5, 2)
    assert z.galois(4).galois(4) == z  # sigma_4 is an involution on z
    orbit = z + z.galois(2) + z.galois(3) + z.galois(4)
    assert is_rational(orbit) == -1  # full orbit of a primitive root


@given(st.tuples(*[st.integers(-9, 9)] * 4), st.tuples(*[st.integers(-9, 9)] * 4))
def test_ring_axioms_p5(araw, braw):
    a = CycInt(5, araw)
    b = CycInt(5, braw)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == CycInt.integer(5, 0)
    assert a * CycInt.integer(5, 1) == a
    c = CycInt.root_power(5, 3)
    assert (a + b) * c == a * c + b * c


def test_integer_promotion_in_operators():
    z = CycInt.root_power(3, 1)
    assert 1 + z == z + 1 == CycInt.integer(3, 1) + z
    assert 2 * z == z + z
    assert is_rational(z - z + 5) == 5


def test_char_sum_matches_scalar_summation():
    F = default_field(3, 2)
    S = [1, 3, 4, 7]
    for b in range(F.q):
        total = CycInt.integer(3, 0)
        for d in S:
            total = total + CycInt.root_power(3, F.trace(F.mul(b, d)))
        assert char_sum(F, S, b) == total
    assert char_sum(F, S, 0) == CycInt.integer(3, len(S))


def test_gauss_sum_norm_is_the_field_size():
    # sum over x of z^Tr(x^2) has absolute norm q in GF(9) and GF(27)
    for p, m in ((3, 2), (3, 3)):
        F = default_field(p, m)
        g = CycInt.integer(p, 0)
        for x in range(F.q):
            g = g + CycInt.root_power(p, F.trace(F.mul(x, x)))
        conj = g.galois(p - 1)
        assert is_rational(g * conj) == F.q


def test_from_counts_matches_sum_of_roots():
    counts = [4, 1, 2]  # 4 ones, 1 z, 2 z^2
    built = CycInt.from_counts(3, counts)
    manual = CycInt.integer(3, 4) + CycInt.root_power(3, 1) + 2 * CycInt.root_power(3, 2)
    assert built == manual


def test_str_lists_every_basis_coordinate():
    z = CycInt.root_power(3, 1)
    s = str(z + z)
    assert "z^1" in s and "z^2" in s


# one field per characteristic the many-point routes are checked in
MANY_POINT_FIELDS = ((2, 4), (3, 3), (5, 2), (7, 2))


@pytest.mark.parametrize("blocks", ["one", "split-S", "two-rows"])
@pytest.mark.parametrize("pm", MANY_POINT_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_many_point_routes_match_their_scalar_definitions(monkeypatch, pm, blocks):
    F = default_field(*pm)
    p = F.p
    S = [0] + list(range(1, F.q, 3))  # 0 in S
    # the gathers run as one block, as 5-pair pieces of one row, or two b's at a time
    block = {"one": cyclotomic.TRACE_BLOCK, "split-S": 5, "two-rows": 2 * max(len(S), p)}[blocks]
    monkeypatch.setattr(cyclotomic, "TRACE_BLOCK", block)
    bs = [0, 1, F.q - 1] + list(range(2, F.q, 4))  # b = 0 first
    sums = char_sum(F, S, bs)
    assert isinstance(sums, list) and len(sums) == len(bs)
    for b, got in zip(bs, sums):
        want = CycInt.integer(p, 0)
        for s in S:
            want = want + CycInt.root_power(p, F.trace(F.mul(b, s)))
        assert got == want == char_sum(F, S, b)
    assert sums[0] == CycInt.integer(p, len(S))

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

    f = FuncSpec(((1, p + 1), (1, 1)), True)  # f(0) = 0 puts 0 in the kernel
    kernel = [x for x in range(F.q) if f.evaluate(F, x) == 0]
    want_rows = []
    for b in bs:
        row = [0] * p
        for x in kernel:
            row[F.trace(F.mul(b, x))] += 1
        want_rows.append(tuple(row))
    assert designs.joint_counts(F, f, bs) == want_rows


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
