import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import errors
from dscodes.gf import (
    MAX_FIELD_BITS,
    Field,
    _poly_mulmod,
    default_field,
    gfp_rank,
    parse_modulus,
)


def test_default_moduli_are_the_documented_scan_results():
    assert default_field(2, 3).modulus == (1, 1, 0, 1)       # x^3 + x + 1
    assert default_field(3, 2).modulus == (2, 1, 1)          # x^2 + x + 2
    assert default_field(3, 3).modulus == (1, 2, 0, 1)       # x^3 + 2x + 1
    assert default_field(7, 1).modulus == (4, 1)             # x - 3
    assert default_field(7, 1).alpha == 3


def test_alpha_13_is_minus_one_in_gf27():
    F = default_field(3, 3)
    assert F.pow(F.alpha, 13) == 2
    assert F.neg(1) == 2


def test_rejects_non_primitive_modulus():
    with pytest.raises(errors.NotPrimitivePolynomialError):
        Field(2, 3, modulus=(1, 0, 0, 1))  # x^3 + 1 is reducible
    with pytest.raises(errors.NotPrimitivePolynomialError):
        Field(3, 2, modulus=(1, 0, 1))  # x^2 + 1 irreducible but order 4


def test_rejects_composite_characteristic():
    with pytest.raises(errors.NotPrimeError):
        Field(6, 1)
    with pytest.raises(errors.NotPrimeError):
        Field(1, 1)


def test_field_size_cap():
    assert MAX_FIELD_BITS == 22
    Field(2, 22)
    with pytest.raises(errors.SizeLimitError):
        Field(2, 23)
    with pytest.raises(errors.SizeLimitError):
        Field(3, 15, max_bits=26)  # max_bits cannot raise the table cap
    Field(3, 4, max_bits=7)
    with pytest.raises(errors.SizeLimitError):
        Field(3, 5, max_bits=7)  # but it can lower it


@pytest.mark.parametrize("m,max_bits", [
    (30_000_000, MAX_FIELD_BITS),  # refused before p**m is computed
    (1_000_000, MAX_FIELD_BITS),   # q is never formatted
    (1, -1),                       # a negative cap is no shift count
])
def test_field_size_cap_is_checked_before_p_to_the_m(m, max_bits):
    with pytest.raises(errors.SizeLimitError, match=re.escape(f"field cap 2^{max_bits}")):
        Field(3, m, max_bits=max_bits)


def test_inverse_and_order_exhaustive_gf27():
    F = default_field(3, 3)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.q - 1) == 1
    with pytest.raises(errors.ZeroInputError):
        F.inv(0)


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ring_axioms_gf27(a, b, c):
    F = default_field(3, 3)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))


def test_frobenius_fixes_prime_subfield():
    F = default_field(3, 3)
    for a in range(F.q):
        assert F.pow(a, 3**3) == a
    for c in range(3):
        assert F.pow(c, 3) == c


def test_trace_is_linear_and_onto():
    for p, m in ((3, 2), (2, 3), (3, 3)):
        F = default_field(p, m)
        seen = set()
        for a in range(F.q):
            seen.add(F.trace(a))
            for b in range(F.q):
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p
        assert seen == set(range(p))


def test_dlog_round_trip_and_zero():
    F = default_field(3, 3)
    for t in range(F.q - 1):
        assert F.dlog(F.pow(F.alpha, t)) == t
    with pytest.raises(errors.LogOfZeroError):
        F.dlog(0)


def test_digits_round_trip():
    F = default_field(3, 3)
    dm = F.digits(np.arange(F.q))
    assert dm.shape == (27, 3) and dm.dtype == np.uint8
    for a in range(F.q):
        assert dm[a].tolist() == F.digits(a).tolist()
        assert sum(int(d) * 3**j for j, d in enumerate(F.digits(a))) == a
    assert F.basis() == [1, 3, 9]


def test_tables_match_scalar_ops():
    F = default_field(3, 3)
    for a in range(F.q):
        acc = t = a  # Tr(a) = a + a^p + ... + a^(p^(m-1))
        for _ in range(F.m - 1):
            t = F.pow(t, F.p)
            acc = F.add(acc, t)
        assert F.trace_table[a] == F.trace(a) == acc
    for t in range(F.q - 1):
        assert F.exp_table[t] == F.pow(F.alpha, t)
        assert F.log_table[F.exp_table[t]] == t


def test_array_kernels_match_scalar_ops():
    # each kernel gives the same values on an array as on its elements one by one
    F = default_field(3, 3)
    a = np.arange(F.q, dtype=np.int64)
    b = (a * 7 + 3) % F.q
    add = F.add(a, b)
    mul = F.mul(a, b)
    p5 = F.pow(a, 5)
    s4 = F.mul(4, a)
    neg = F.neg(a)
    for x in range(F.q):
        assert add[x] == F.add(x, int(b[x]))
        assert mul[x] == F.mul(x, int(b[x]))
        assert p5[x] == F.pow(x, 5)
        assert s4[x] == F.mul(4, x)
        assert neg[x] == F.neg(x)


def test_pow_arrays_zero_and_full_period():
    for p, m in ((2, 4), (3, 3), (7, 1)):
        F = default_field(p, m)
        xs = np.arange(F.q, dtype=np.int64)
        for e in (0, 1, F.q - 1, 2 * (F.q - 1), F.q, 3 * (F.q - 1) + 2):
            got = F.pow(xs, e)
            assert got.tolist() == [F.pow(x, e) for x in range(F.q)]
        # x^(k(q-1)) is 1 off zero and 0 at zero; x^0 is 1 everywhere
        assert F.pow(xs, F.q - 1).tolist() == [0] + [1] * (F.q - 1)
        assert F.pow(xs, 0).tolist() == [1] * F.q
        assert F.pow(0, 5) == 0 and F.pow(0, 0) == 1
        assert F.mul(0, xs).tolist() == [0] * F.q
        # a negative exponent inverts, and refuses a zero anywhere in the input
        assert F.mul(F.pow(xs[1:], -1), xs[1:]).tolist() == [1] * (F.q - 1)
        assert F.pow(xs[1:], -2).tolist() == F.pow(F.inv(xs[1:]), 2).tolist()
        with pytest.raises(errors.ZeroInputError):
            F.pow(xs, -1)


def test_add_arrays_does_not_mutate_inputs():
    F = default_field(3, 3)
    a = np.array([1, 3, 9, 5], dtype=np.int64)
    b = np.array([2, 2, 2, 2], dtype=np.int64)
    keep_a, keep_b = a.copy(), b.copy()
    F.add(a, b)
    F.sub(a, b)
    assert np.array_equal(a, keep_a) and np.array_equal(b, keep_b)


def test_gfp_rank_known_matrices():
    assert gfp_rank(np.eye(4, dtype=np.int64), 3) == 4
    assert gfp_rank(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert gfp_rank([[1, 2], [2, 4]], 5) == 1  # second row = 2 * first
    assert gfp_rank([[1, 1], [1, 2]], 3) == 2  # unit determinant
    assert gfp_rank([[1, 2], [2, 1]], 3) == 1  # singular only mod 3
    assert gfp_rank([[1, 2], [2, 1]], 5) == 2


def test_parse_modulus_and_field_new():
    assert parse_modulus("1,2,0,1") == (1, 2, 0, 1)
    F = Field(3, 3, parse_modulus("1,2,0,1"))
    assert F.modulus == default_field(3, 3).modulus


def test_char2_add_is_xor():
    F = default_field(2, 4)
    for a in range(16):
        for b in range(16):
            assert F.add(a, b) == a ^ b


# Fields for the oracle test: both characteristic 2 branches of add, odd p with
# m > 1 and m = 1, and a p >= 131 whose digits and traces overflow int8.
ORACLE_FIELDS = ((2, 5), (3, 3), (5, 2), (7, 1), (131, 2))


def _digit_list(a, p, m):
    return [a // p**j % p for j in range(m)]


def _index(ds, p):
    return sum(d * p**j for j, d in enumerate(ds))


def _oracle_mul(F, a, b):
    da, db = _digit_list(a, F.p, F.m), _digit_list(b, F.p, F.m)
    return _index(_poly_mulmod(da, db, F.modulus, F.p), F.p)


def _oracle_add(F, a, b):
    da, db = _digit_list(a, F.p, F.m), _digit_list(b, F.p, F.m)
    return _index([(x + y) % F.p for x, y in zip(da, db)], F.p)


def _oracle_pow(F, a, e):
    acc = 1
    for _ in range(e):
        acc = _oracle_mul(F, acc, a)
    return acc


def _oracle_trace(F, a):
    """a + a^p + ... + a^(p^(m-1)) by polynomial arithmetic; must land in GF(p)."""
    acc = t = a
    for _ in range(F.m - 1):
        t = _oracle_pow(F, t, F.p)
        acc = _oracle_add(F, acc, t)
    assert 0 <= acc < F.p
    return acc


@pytest.mark.parametrize("pm", ORACLE_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
@given(data=st.data())
def test_kernels_match_polynomial_oracle(pm, data):
    F = default_field(*pm)
    a, b, c = (data.draw(st.integers(0, F.q - 1)) for _ in range(3))
    e = data.draw(st.integers(0, 2 * F.p + 3))
    assert F.mul(a, b) == _oracle_mul(F, a, b)
    assert F.add(a, b) == _oracle_add(F, a, b)
    assert F.sub(_oracle_add(F, a, b), b) == a
    assert F.add(a, F.neg(a)) == 0
    assert F.pow(a, e) == _oracle_pow(F, a, e)
    assert F.trace(a) == _oracle_trace(F, a)
    # every value in [0, p) survives the dtype of the trace table and the digits
    assert sorted(set(F.trace(np.arange(F.q)).tolist())) == list(range(F.p))
    assert F.digits(F.q - 1).tolist() == [F.p - 1] * F.m
    if a:
        assert _oracle_mul(F, a, F.inv(a)) == 1
    # 0-d inputs come back as Python ints
    for got in (F.add(a, b), F.neg(a), F.sub(a, b), F.mul(a, b), F.pow(a, e), F.trace(a)):
        assert type(got) is int
    # arrays broadcast: a column against a row gives the full table
    col, row = np.array([[a], [b], [c]]), np.array([a, b, c])
    xs = (a, b, c)
    assert F.mul(col, row).tolist() == [[_oracle_mul(F, x, y) for y in xs] for x in xs]
    assert F.add(col, row).tolist() == [[_oracle_add(F, x, y) for y in xs] for x in xs]
    assert F.trace(col).tolist() == [[_oracle_trace(F, x)] for x in xs]
    assert F.digits(col).shape == (3, 1, F.m)
