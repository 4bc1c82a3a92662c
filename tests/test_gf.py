import ast
import gc
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import errors, gf
from dscodes.gf import (
    EXP_BLOCK,
    MAX_FIELD_BITS,
    UNPACK_BITS,
    Field,
    _Packing,
    _poly_mulmod,
    _unpack_digits,
    _x_order_is_maximal,
    column_span,
    default_field,
    factorize,
    gfp_rank,
    is_prime,
    parse_modulus,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_default_moduli_are_the_documented_scan_results():
    assert default_field(2, 3).modulus == (1, 1, 0, 1)       # x^3 + x + 1
    assert default_field(3, 2).modulus == (2, 1, 1)          # x^2 + x + 2
    assert default_field(3, 3).modulus == (1, 2, 0, 1)       # x^3 + 2x + 1
    assert default_field(7, 1).modulus == (4, 1)             # x - 3
    assert default_field(7, 1).alpha == 3


def _x_mod(mod, p):
    """x reduced modulo the monic mod, as a coefficient list: the digits of alpha."""
    return [(-mod[0]) % p] if len(mod) == 2 else [0, 1] + [0] * (len(mod) - 3)


def _times_alpha(F, a):
    """alpha * a by the schoolbook product modulo F.modulus: the reference step."""
    da = _digit_list(a, F.p, F.m)
    return _index(_poly_mulmod(da, _x_mod(F.modulus, F.p), F.modulus, F.p), F.p)


def _list_x_order_is_maximal(mod, p, primes):
    """x has order p^m - 1 modulo mod, by list-based square-and-multiply; the oracle."""
    m = len(mod) - 1
    qm1 = p**m - 1
    one = [1] + [0] * (m - 1)
    base = _x_mod(mod, p)

    def xpow(e):
        acc, b = one, base
        while e:
            if e & 1:
                acc = _poly_mulmod(acc, b, mod, p)
            b = _poly_mulmod(b, b, mod, p)
            e >>= 1
        return acc

    return mod[0] % p != 0 and xpow(qm1) == one and all(xpow(qm1 // r) != one for r in primes)


def _reference_default_modulus(p, m):
    """The documented scan, testing every candidate with a nonzero constant term."""
    primes = sorted(factorize(p**m - 1))
    for idx in range(1, p**m):
        mod = tuple(_digit_list(idx, p, m)) + (1,)
        if idx % p and _list_x_order_is_maximal(mod, p, primes):
            return mod
    raise AssertionError("no primitive polynomial")


# every (p, m >= 2) with q <= 2^14, plus the larger fields the benchmark builds
SCAN_FIELDS = [(p, m) for p in range(2, 128) if is_prime(p)
               for m in range(2, 15) if p**m <= 1 << 14]
SCAN_FIELDS += [(2, 15), (3, 9), (7, 5), (3, 13), (2, 19), (2, 21)]


@pytest.mark.parametrize("pm", SCAN_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_default_modulus_scan_matches_the_list_based_reference(pm):
    assert Field(*pm).modulus == _reference_default_modulus(*pm)


def _check_order_test_on_every_candidate(p, m):
    """One stacked call on every monic candidate, checked row by row against the oracle."""
    primes = sorted(factorize(p**m - 1))
    mods = [tuple(_digit_list(idx, p, m)) + (1,) for idx in range(p**m)]
    got = _x_order_is_maximal(mods, p, primes)
    assert got.shape == (p**m,) and got.dtype == bool
    assert got.tolist() == [_list_x_order_is_maximal(mod, p, primes) for mod in mods]
    assert got.any()


@pytest.mark.parametrize("m", range(1, 11))
def test_char2_order_test_matches_the_list_based_reference(m):
    _check_order_test_on_every_candidate(2, m)


@pytest.mark.parametrize("pm", [(3, 1), (3, 2), (3, 4), (5, 3), (7, 2), (2039, 1), (11, 2)])
def test_odd_p_order_test_matches_the_list_based_reference(pm):
    _check_order_test_on_every_candidate(*pm)


def _smallest_primitive_root(p):
    """The smallest g with g^((p-1)/r) != 1 mod p for every prime r | p-1, by Python pow."""
    primes = factorize(p - 1)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in primes))


def test_prime_fields_take_the_smallest_primitive_root():
    for p in [p for p in range(2, 1 << 12) if is_prime(p)] + [65521, 4194301]:
        F = Field(p, 1)
        assert F.alpha == _smallest_primitive_root(p), p
        assert F.modulus == ((-F.alpha) % p, 1)
    assert Field(2, 1).modulus == (1, 1)


def test_factorize_is_exact_for_every_field_order():
    # no field is built: every q - 1 with p^m <= 2^25, m >= 2, and every p - 1 for p < 2^16
    orders = [p**m - 1 for p in range(2, 1 << 13) if is_prime(p)
              for m in range(2, 26) if p**m <= 1 << 25]
    orders += [p - 1 for p in range(2, 1 << 16) if is_prime(p)]
    for n in orders:
        fac = factorize(n)
        assert all(is_prime(r) for r in fac), n
        assert all(n % r**e == 0 and n % r**(e + 1) for r, e in fac.items()), n
        assert prod(r**e for r, e in fac.items()) == n


@pytest.mark.parametrize("n", [0, -1, 1 << 32, (1 << 61) - 1])
def test_factorize_refuses_values_outside_its_exact_range(n):
    with pytest.raises(ValueError, match="2\\^32"):
        factorize(n)


def test_factorize_refusal_survives_python_O():
    code = """
from dscodes.gf import factorize
try:
    factorize(1 << 32)
except ValueError:
    print("refused")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_alpha_13_is_minus_one_in_gf27():
    F = default_field(3, 3)
    assert F.pow(F.alpha, 13) == 2
    assert F.neg(1) == 2


def test_rejects_non_primitive_modulus():
    with pytest.raises(errors.ToolkitError, match=r"^x\^3 \+ 1 is not primitive over GF\(2\)$"):
        Field(2, 3, modulus=(1, 0, 0, 1))  # x^3 + 1 is reducible
    with pytest.raises(errors.ToolkitError, match=r"^x\^2 \+ 1 is not primitive over GF\(3\)$"):
        Field(3, 2, modulus=(1, 0, 1))  # x^2 + 1 irreducible but order 4


def test_rejects_composite_characteristic():
    with pytest.raises(errors.ToolkitError, match="^characteristic 6 is not prime$"):
        Field(6, 1)
    with pytest.raises(errors.ToolkitError, match="^characteristic 1 is not prime$"):
        Field(1, 1)
    for p in (3.0, "3", None):
        with pytest.raises(errors.ToolkitError, match=re.escape(f"characteristic {p} is not prime")):
            Field(p, 2)


def test_numpy_integer_arguments_become_python_ints():
    F = Field(np.int64(3), np.int64(2))
    assert (F.p, F.m, F.q) == (3, 2, 9)
    assert all(type(v) is int for v in (F.p, F.m, F.q))
    assert Field(np.uint8(2), 3).q == 8
    with pytest.raises(TypeError):
        Field(3, 2.0)


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
        assert F.mul(a, F.pow(a, -1)) == 1
        assert F.pow(a, F.q - 1) == 1
    with pytest.raises(errors.ToolkitError, match="^zero has no inverse$"):
        F.pow(0, -1)


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
        assert F.log_table[F.pow(F.alpha, t)] == t
    # zero has no log: the table marks it -1 (designs.to_cyclic_residues refuses it)
    assert F.log_table[0] == -1


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


def _walked_tables(F):
    """exp/log by the schoolbook walk exp[t+1] = alpha*exp[t]: the reference for the doubling build."""
    exp = np.empty(F.q - 1, dtype=np.int32)
    cur = 1
    for t in range(F.q - 1):
        exp[t] = cur
        cur = _times_alpha(F, cur)
    assert cur == 1
    log = np.full(F.q, -1, dtype=np.int32)
    log[exp] = np.arange(F.q - 1)
    return exp, log


# q - 1 is no power of two in most of these, so the last doubling block is
# partial; m = 1 takes the x*alpha^n mod p map; the GF(2^13) modulus is the
# reciprocal of the default one.
@pytest.mark.parametrize("p,m,modulus", [
    (2, 13, None), (3, 9, None), (5, 6, None), (7, 5, None), (127, 2, None),
    (2, 1, None), (3, 1, None), (257, 1, None), (65521, 1, None), (3, 3, None),
    (2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
])
def test_tables_match_the_scalar_walk(p, m, modulus):
    F = Field(p, m, modulus)
    assert modulus is None or F.modulus != default_field(p, m).modulus
    _assert_tables_are_the_walk(F)


# every branch of the doubling (m = 1, p = 2, odd p) over many blocks, most of
# them partial: a block of 1 puts a seam after every entry
@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("p,m", [(2, 9), (3, 5), (5, 3), (31, 2), (257, 1)])
def test_tables_match_the_scalar_walk_in_small_blocks(monkeypatch, p, m, block):
    monkeypatch.setattr(gf, "EXP_BLOCK", block)
    _assert_tables_are_the_walk(Field(p, m))


def _assert_tables_are_the_walk(F):
    exp, log = _walked_tables(F)
    assert F.exp_table.dtype == F.log_table.dtype == np.int32
    assert F.exp_table.tobytes() == exp.tobytes()
    assert F.log_table.tobytes() == log.tobytes()


# only GF(2), whose exp table is [1], truncates the seed; x + 2 over GF(7)
# and x^3 + x^2 + 2x + 1 over GF(3) are not the default moduli
@pytest.mark.parametrize("p,m,modulus", [
    (2, 1, None), (3, 1, None), (7, 1, (2, 1)), (2, 2, None), (3, 3, None),
    (3, 3, (1, 2, 1, 1)), (5, 6, None), (2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
])
def test_exp_seed_is_read_off_the_modulus(p, m, modulus):
    F = Field(p, m, modulus)
    # alpha^j = p^j below m, and alpha^m = -(c_0 + ... + c_{m-1} alpha^(m-1))
    seed = [p**j for j in range(m)] + [_index([(-c) % p for c in F.modulus[:m]], p)]
    exp = F.exp_table
    assert exp[: m + 1].tolist() == seed[: F.q - 1]
    assert exp[0] == 1 and all(exp[t + 1] == _times_alpha(F, int(exp[t]))
                               for t in range(min(m + 1, F.q - 2)))


def _doubling_seams(F):
    """Each t where exp[t+1] is the first entry of a doubling level or block, or
    follows the last entry of one: the closed-form seed's end, every level and
    block edge, and the last (partial) block."""
    m, size = F.m, F.q - 1
    n = min(m + 1, size)
    seams = {0, n - 1}
    while n < size:
        step = min(n - m, size - n)
        for lo in range(0, step, EXP_BLOCK):
            seams |= {n + lo - 1, n + lo, n + min(lo + EXP_BLOCK, step) - 1}
        n += step
    return sorted(t for t in seams if t < size - 1)


def _assert_tables_are_the_powers_of_alpha(F):
    exp, log = F.exp_table, F.log_table
    assert np.array_equal(np.sort(exp), np.arange(1, F.q))
    assert np.array_equal(log[exp], np.arange(F.q - 1)) and log[0] == -1
    # the schoolbook step across every seam of the doubling, the last block included
    for t in _doubling_seams(F):
        assert exp[t + 1] == _times_alpha(F, int(exp[t]))
    assert _times_alpha(F, int(exp[-1])) == 1


def test_tables_at_the_field_cap_are_a_permutation():
    _assert_tables_are_the_powers_of_alpha(Field(2, MAX_FIELD_BITS))


# odd p near the cap: packed joins of 13, 9, 7, 3 and 2 digits, unpacked in
# chunks of 5, 3, 3, 1 and 1 digits
@pytest.mark.parametrize("p,m", [(3, 13), (5, 9), (7, 7), (131, 3), (2039, 2)])
def test_odd_p_tables_at_the_top_of_the_range_are_a_permutation(p, m):
    _assert_tables_are_the_powers_of_alpha(Field(p, m))


def _top_degree(p):
    """The largest m with p^m under the field cap."""
    m = 1
    while p ** (m + 1) <= 1 << MAX_FIELD_BITS:
        m += 1
    return m


@given(st.sampled_from([3, 5, 7, 11, 131, 2039])
       .flatmap(lambda p: st.tuples(st.just(p), st.integers(2, _top_degree(p)))),
       st.data())
def test_packed_join_is_field_add(pm, data):
    # one addition of packed digits and the unpack give the digit-wise sum mod
    # p, and adding p in every field first gives the difference; the oracle
    # is the digit formula, which shares no table with the unpack
    p, m = pm
    F = default_field(p, m)
    n = data.draw(st.integers(1, 40))
    a, b = (np.array(data.draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)))
            for _ in range(2))
    pack = _Packing(p, m)
    da, db = F.digits(a).astype(np.int64), F.digits(b).astype(np.int64)
    powers = p ** np.arange(m, dtype=np.int64)
    for s, want in ((da @ pack.weights + db @ pack.weights, (da + db) % p @ powers),
                    (da @ pack.weights + pack.full - db @ pack.weights, (da - db) % p @ powers)):
        got = pack.unpack(s)
        assert got.dtype == np.int32 and got.tolist() == want.tolist()


@pytest.mark.parametrize("p,m,sample", [(3, 5, None), (5, 3, None), (3, 13, 4000), (2039, 2, 4000)])
def test_pack_then_unpack_is_the_identity(p, m, sample):
    F = Field(p, m)
    xs = np.arange(F.q)
    if sample:
        xs = np.random.default_rng(p * m).integers(0, F.q, sample)
        xs[:2] = 0, F.q - 1
    pack = F._packing
    packed = pack.pack(xs)
    # pack puts digit j in field j, as the digit vector times the field weights
    assert np.array_equal(packed, F.digits(xs).astype(np.int64) @ pack.weights)
    assert pack.unpack(packed).tolist() == xs.tolist()
    assert [pack.unpack(pack.pack(int(x))) for x in xs[:20]] == xs[:20].tolist()


def test_packing_fits_every_prime_power_up_to_2_25():
    # no field is built: the layout depends on p and m alone
    widths = {}
    for p in filter(is_prime, range(3, 1 << 13)):
        for m in range(2, 26):
            q = p**m
            if q > 1 << 25:
                break
            w = p.bit_length() + 1
            assert 2 * (p - 1) < 1 << w  # a field holds a digit sum
            widths[p, m] = m * w
            k = _unpack_digits(p, m)
            assert 1 <= k <= m
            # each unpack table is within the cap, and no layout with fewer
            # chunks fits it
            chunks = -(-m // k)
            assert 1 << k * w <= 1 << UNPACK_BITS
            assert chunks == 1 or -(-m // (chunks - 1)) * w > UNPACK_BITS
            assert 1 << w <= q
    assert max(widths.values()) == widths[3, 15] == 45 < 63
    assert len(widths) > 800


def test_exp_table_peak_is_a_few_bytes_per_element():
    # exp (4q bytes), the q-byte permutation mask and block-sized buffers; the
    # exp+log build with whole-level temporaries peaked at 14q and 31q
    for p, m in ((2, 18), (3, 11)):
        F = Field(p, m)
        tracemalloc.start()
        try:
            F.exp_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * F.q, (p, m, peak / F.q)


def test_log_table_is_built_on_first_read_as_the_inverse_of_exp():
    F = Field(3, 7)
    exp = F.exp_table
    assert F._log is None
    inv = np.full(F.q, -1)
    inv[exp] = np.arange(F.q - 1)
    assert F.log_table.tolist() == inv.tolist()
    assert F.log_table is F._log


@pytest.mark.parametrize("F", [Field(2, 9), Field(3, 5), Field(131, 1), default_field(5, 3)],
                         ids=lambda F: f"GF({F.p}^{F.m})")
def test_field_tables_are_read_only(F):
    for name in ("exp_table", "log_table", "trace_table"):
        table = getattr(F, name)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    assert F.mul(2, 3) == F.mul(3, 2)


def test_tables_refuse_an_alpha_that_is_not_primitive():
    # alpha^(q-1) = 1 still holds, but the powers of alpha miss part of GF(q)*
    F = Field(2, 4)
    F.modulus = (1, 1, 1, 1, 1)  # x^4 + x^3 + x^2 + x + 1: alpha has order 5
    G = Field(7, 1)
    G.modulus = (5, 1)  # x - 2: alpha = 2 has order 3 mod 7
    for K, order in ((F, 5), (G, 3)):
        walk = [1]
        for _ in range(order):
            walk.append(_times_alpha(K, walk[-1]))
        assert walk[-1] == 1 and len(set(walk)) == order
        with pytest.raises(errors.InvariantError, match="not a permutation"):
            K.exp_table


def test_tables_refuse_an_alpha_that_is_not_primitive_under_python_O():
    # the permutation check is a plain raise, so -O keeps it
    code = """
from dscodes import errors, gf
F = gf.Field(2, 4)
F.modulus = (1, 1, 1, 1, 1)
G = gf.Field(7, 1)
G.modulus = (5, 1)
H = gf.Field(3, 2)
H.modulus = (1, 0, 1)  # x^2 + 1: x has order 4, not 8
for K in (F, G, H):
    try:
        K.exp_table
    except errors.InvariantError:
        print("refused", K._exp is None, K._log is None)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["refused True True"] * 3


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
        assert F.pow(xs[1:], -2).tolist() == F.pow(F.pow(xs[1:], -1), 2).tolist()
        with pytest.raises(errors.ToolkitError, match="^zero has no inverse$"):
            F.pow(xs, -1)


def test_add_arrays_does_not_mutate_inputs():
    F = default_field(3, 3)
    a = np.array([1, 3, 9, 5], dtype=np.int64)
    b = np.array([2, 2, 2, 2], dtype=np.int64)
    keep_a, keep_b = a.copy(), b.copy()
    F.add(a, b)
    F.sub(a, b)
    assert np.array_equal(a, keep_a) and np.array_equal(b, keep_b)


# g is each case's number of base-p digits with p^(2g) <= 2^16 (0 below 2, or
# at m = 1); it only names the case.  (2039, 2) has the widest packed digit
# fields under the cap (w = 12 bits), and 4194301 is the largest prime below 2^22
@pytest.mark.parametrize("p,m,g", [
    (3, 13, 5), (5, 7, 3), (7, 5, 2), (11, 3, 2), (131, 2, 0), (2039, 2, 0), (3, 1, 0),
    (65521, 1, 0), (4194301, 1, 0),
])
def test_add_and_sub_arrays_match_the_digitwise_oracle(p, m, g):
    F = Field(p, m)
    rng = np.random.default_rng(p + m)
    a = rng.integers(0, F.q, 5000)
    b = rng.integers(0, F.q, 5000)
    a[:3], b[:3] = (0, F.q - 1, F.q - 1), (F.q - 1, F.q - 1, 0)
    da, db = F.digits(a).astype(np.int64), F.digits(b).astype(np.int64)
    powers = np.array(F.basis(), dtype=np.int64)
    for got, want in ((F.add(a, b), (da + db) % p @ powers),
                      (F.sub(a, b), (da - db) % p @ powers)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert F.sub(F.add(a, b), b).tolist() == a.tolist()
    # a column against a row broadcasts, and 0-d inputs agree with the arrays
    assert F.add(a[:50, None], b[:4]).tolist() == [[F.add(int(x), int(y)) for y in b[:4]]
                                                   for x in a[:50]]


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2)])
def test_add_and_sub_of_all_pairs_in_a_grid(p, m):
    # the column x row shape that classify_design passes, over every pair
    F = Field(p, m)
    xs = np.arange(F.q)
    d = F.digits(xs).astype(np.int64)
    powers = np.array(F.basis(), dtype=np.int64)
    for got, want in ((F.add(xs[:, None], xs[None, :]), (d[:, None] + d[None, :]) % p @ powers),
                      (F.sub(xs[:, None], xs[None, :]), (d[:, None] - d[None, :]) % p @ powers)):
        assert got.shape == (F.q, F.q) and got.dtype == np.int64
        assert np.array_equal(got, want)


def test_only_default_field_is_cached_in_gf():
    # a module-level cache keeps what it holds for the life of the process;
    # per-field arrays belong to their Field, so only the field cache may exist
    tree = ast.parse(Path(gf.__file__).read_text())
    cached = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in ("lru_cache", "cache"):
                    cached.append(node.name)
    assert cached == ["default_field"]


@pytest.mark.parametrize("p,m", [(3, 7), (2039, 2), (2, 9)])
def test_a_deleted_field_frees_its_tables(p, m):
    F = Field(p, m)
    F.add(np.arange(F.q), 1)
    F.sub(2, np.arange(F.q))
    tables = [weakref.ref(F.exp_table), weakref.ref(F.log_table)]
    if p > 2:
        tables += [weakref.ref(t) for t in F._packing.tables + F._packing.pack_tables]
    del F
    gc.collect()
    assert all(ref() is None for ref in tables)


def test_gfp_rank_known_matrices():
    assert gfp_rank(np.eye(4, dtype=np.int64), 3) == 4
    assert gfp_rank(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert gfp_rank([[1, 2], [2, 4]], 5) == 1  # second row = 2 * first
    assert gfp_rank([[1, 1], [1, 2]], 3) == 2  # unit determinant
    assert gfp_rank([[1, 2], [2, 1]], 3) == 1  # singular only mod 3
    assert gfp_rank([[1, 2], [2, 1]], 5) == 2


def brute_gfp_rank(mat, p):
    """log_p of the number of distinct GF(p)-combinations of the rows."""
    mat = np.asarray(mat, dtype=np.int64)
    combos = np.array(list(product(range(p), repeat=mat.shape[0])), dtype=np.int64)
    size = np.unique(combos @ mat % p @ p ** np.arange(mat.shape[1])).size
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


@st.composite
def matrix_stacks(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 131)))
    rows = draw(st.integers(1, {7: 4, 131: 2}.get(p, 5)))  # p^R row combinations per matrix
    cols = draw(st.integers(1, 5))
    stack = draw(st.sampled_from(((), (4,), (2, 3))))
    # small entries and repeated rows make rank deficiency common
    vals = st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))
    flat = draw(st.lists(vals, min_size=int(np.prod(stack)) * rows * cols,
                         max_size=int(np.prod(stack)) * rows * cols))
    mats = np.array(flat, dtype=np.int64).reshape(stack + (rows, cols))
    if draw(st.booleans()) and rows > 1:
        mats[..., -1, :] = mats[..., 0, :] * draw(st.integers(0, p - 1)) % p
    return p, mats


@given(matrix_stacks())
def test_stacked_gfp_rank_matches_row_space_count(case):
    p, mats = case
    got = gfp_rank(mats, p)
    if mats.ndim == 2:
        assert type(got) is int and got == brute_gfp_rank(mats, p)
        return
    assert got.shape == mats.shape[:-2]
    for idx in np.ndindex(*mats.shape[:-2]):
        assert got[idx] == brute_gfp_rank(mats[idx], p)


def test_gfp_rank_shape_contract():
    assert type(gfp_rank(np.ones((2, 3), dtype=np.int64), 2)) is int
    assert gfp_rank(np.zeros((0, 3), dtype=np.int64), 3) == 0
    assert gfp_rank(np.zeros((3, 0), dtype=np.int64), 3) == 0
    assert np.array_equal(gfp_rank(np.ones((4, 0, 3), dtype=np.int64), 5), np.zeros(4))
    assert np.array_equal(gfp_rank(np.ones((2, 3, 3, 0), dtype=np.int64), 5), np.zeros((2, 3)))
    assert gfp_rank(np.ones((0, 2, 2), dtype=np.int64), 7).shape == (0,)
    # entries are reduced mod p first; p = 4194301 is the largest prime under the cap
    big = 4194301
    assert gfp_rank([[big + 1, 2], [3 * big + 2, 4]], big) == 1
    assert gfp_rank([[big - 1, big - 2], [big - 3, big - 1]], big) == 2
    with pytest.raises(ValueError):
        gfp_rank(np.ones(3, dtype=np.int64), 3)


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
        assert _oracle_mul(F, a, F.pow(a, -1)) == 1
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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [None, 1, 3])
def test_column_span_is_every_combination_of_its_columns(p, k):
    # rows of k GF(p) digits (None: one digit per row), and for p = 2 also
    # the same rows packed into int bitmasks
    rng = np.random.default_rng(10 * p + (k or 0))
    s = 4
    cols = rng.integers(0, p, (s,) if k is None else (s, k)).astype(np.uint8)
    got = column_span(cols, p)
    assert got.shape == (p**s,) + cols.shape[1:]
    for idx, d in enumerate(product(range(p), repeat=s)):
        d = d[::-1]  # product varies the last digit fastest; index digit j is d_j
        want = sum(int(dj) * cols[j].astype(np.int64) for j, dj in enumerate(d)) % p
        assert np.array_equal(got[idx], want)
    if p == 2 and k is not None:
        masks = (cols.astype(np.int32) << np.arange(k)).sum(axis=1).astype(np.int32)
        packed = column_span(masks, 2)
        assert packed.dtype == np.int32
        assert packed.tolist() == (got.astype(np.int64) << np.arange(k)).sum(axis=1).tolist()


def test_column_span_keeps_sums_below_2p_exact():
    # p = 131 needs 2(p-1) = 260 > 255: the digits are widened, not wrapped
    p = 131
    cols = np.array([130, 129], dtype=np.uint8)
    got = column_span(cols, p)
    d = np.arange(p**2)
    want = (d % p * 130 + d // p * 129) % p
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("pm", [(2, 1), (2, 9), (3, 5), (5, 3), (7, 2)])
def test_trace_table_is_the_frobenius_sum(pm):
    F = Field(*pm)
    assert F.trace_table.dtype == np.uint8
    assert F.trace_table.tolist() == [_oracle_trace(F, a) for a in range(F.q)]


@pytest.mark.parametrize("pm", [(2, 2), (2, 5), (3, 2), (3, 4), (5, 3), (7, 2), (13, 2), (47, 2)])
def test_no_binomial_is_primitive(pm):
    # the reason the default-modulus scan starts at x^m + x + c_0
    p, m = pm
    primes = sorted(factorize(p**m - 1))
    for c0 in range(1, p):
        assert not _list_x_order_is_maximal((c0,) + (0,) * (m - 1) + (1,), p, primes)


@pytest.mark.parametrize("pm", [(2, 18), (3, 11), (5, 7)])
def test_int32_inputs_give_the_same_elements_as_int64(pm):
    F = default_field(*pm)
    q = F.q
    xs = np.arange(q, dtype=np.int64)
    # k*(q-2) below and above 2^31: the int32 and the int64 product path
    for e in (1, 3, (1 << 31) // (q - 2), (1 << 31) // (q - 2) + 1, q - 2, 2 * q + 5):
        want = F.pow(xs, e)
        got = F.pow(xs.astype(np.int32), e)
        assert want.dtype == np.int64 and got.dtype == np.int32
        assert np.array_equal(got, want)
    c = F.alpha
    assert F.mul(xs.astype(np.int32), c).dtype == np.int32
    assert np.array_equal(F.mul(xs.astype(np.int32), c), F.mul(xs, c))
    assert F.mul(xs, xs[::-1]).tolist() == F.mul(xs.astype(np.int32), xs[::-1]).tolist()
