"""Arithmetic in GF(p^m) on integer-encoded elements.

An element is a plain int in [0, q), q = p^m: the base-p digits of the index
are its coordinates in the polynomial basis {1, alpha, ..., alpha^(m-1)},
constant digit first.  A Field object carries the modulus and interprets the
ints, which keeps elements hashable, comparable, and numpy-friendly.

The default modulus for m >= 2 is the first primitive monic polynomial in the
scan order "coefficient tuple (c_0, ..., c_{m-1}) read as a base-p integer,
ascending".  For m = 1 the convention is x - g with g the smallest primitive
root mod p, so that alpha is that root.

Primitivity of a candidate modulus f is decided by a single order test: x has
order q-1 in GF(p)[x]/(f) iff x^(q-1) = 1 and x^((q-1)/r) != 1 for every prime
r | q-1.  A reducible f has a unit group smaller than q-1, so the test also
certifies irreducibility for free.  It runs on a stack of candidates at once,
on shared squares of their companion matrices, for every p and m: the default
scan passes it blocks of candidates and a user modulus is a stack of one.
For m >= 2 the scan skips the binomials x^m + c_0, which are never primitive,
and every candidate with a root in GF(p): it is reducible.
"""

from __future__ import annotations

import numbers
import operator
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import InvariantError, SizeLimitError, ToolkitError

# Every field carries exp/log tables, so the field cap is the table cap.
MAX_FIELD_BITS = 22

# candidate moduli in the default-modulus scan's first block; later blocks double
SCAN_BLOCK = 32


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of an integer 1 <= n < 2^32 by trial division.

    A composite n has a prime factor at most sqrt(n) < 2^16, so what is left
    once every divisor f with f^2 <= n is divided out is 1 or a prime.
    """
    n = operator.index(n)  # a float would come back as its own "prime" factor
    if not 1 <= n < 1 << 32:
        raise ValueError(f"factorize needs 1 <= n < 2^32, got {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """n is prime, exactly, because this is factorize: n >= 2^32 raises its ValueError."""
    return n >= 2 and factorize(n) == {n: 1}


def _poly_mulmod(a, b, mod, p):
    """Product of coefficient lists a, b modulo the monic polynomial mod.

    The schoolbook reference: the tests check the table arithmetic and the
    order test against it.
    """
    m = len(mod) - 1
    prod = [0] * (2 * m - 1) if m > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(m):
                prod[d - m + i] = (prod[d - m + i] - c * mod[i]) % p
    return prod[:m]


def _x_order_is_maximal(mods, p: int, prime_divisors) -> np.ndarray:
    """For each monic row f of mods, shape (k, m+1): x has order p^m - 1 modulo f.

    That is x^(q-1) = 1 and x^((q-1)/r) != 1 for every prime r | q-1, which
    certifies that f is primitive, irreducibility included.  Multiplying by x
    is the companion matrix C of f, so x^e is C^e applied to the vector of 1:
    the squares C^(2^i) are shared by every exponent, and each square acts on
    the stacked vectors of the exponents with bit i set.  A row with c_0 = 0
    has a singular C, so its x^e is never 1.  Entries are below p, so a
    product sums m terms below p^2, and p^m <= 2^25 bounds the sum by 2*2^25
    for m >= 2 and by 2^50 for m = 1: exact in int64.
    """
    mods = np.asarray(mods, dtype=np.int64)
    k, m = mods.shape[0], mods.shape[1] - 1
    # C: column j holds the digits of x*x^j, that is x^(j+1) for j < m-1 and
    # x^m = -(c_0 + c_1 x + ... + c_{m-1} x^(m-1)) for the last
    squares = np.zeros((k, m, m), dtype=np.int64)
    squares[:, 1:, :-1] = np.eye(m - 1, dtype=np.int64)
    squares[:, :, -1] = -mods[:, :m] % p
    qm1 = p**m - 1
    exps = [qm1] + [qm1 // r for r in prime_divisors]
    v = np.zeros((k, m, len(exps)), dtype=np.int64)
    v[:, 0] = 1
    for i in range(qm1.bit_length()):
        if i:
            squares = squares @ squares % p
        bit = [bool(e >> i & 1) for e in exps]
        v[..., bit] = squares @ v[..., bit] % p
    is_one = (v[:, 0] == 1) & np.all(v[:, 1:] == 0, axis=1)
    return is_one[:, 0] & ~is_one[:, 1:].any(axis=1)


def column_span(cols, p: int) -> np.ndarray:
    """Every GF(p)-combination of the rows of cols, by column doubling.

    table[d*p^j + i] = table[i] + d*cols[j] for d < p and i < p^j, so
    table[sum_j d_j*p^j] = sum_j d_j*cols[j]: p^s rows for s columns, at
    O(p^s) work in all.  A row is a vector of GF(p) digits, added digit-wise
    mod p in an unsigned dtype that holds 2(p-1); for p = 2 it may also be an
    int bitmask of digits, added by XOR, so no entry has more bits than the
    widest column.
    """
    cols = np.asarray(cols)
    if p == 2:
        table = np.zeros((1,) + cols.shape[1:], dtype=cols.dtype)
        for c in cols:
            table = np.concatenate((table, table ^ c))
        return table
    dtype = np.promote_types(cols.dtype, np.min_scalar_type(2 * (p - 1)))
    row = cols.shape[1:]
    # mults[d, j] = d*cols[j] mod p, from int64 products below p^2 <= 2^50
    d = np.arange(p, dtype=np.int64).reshape((p, 1) + (1,) * len(row))
    mults = (d * cols % p).astype(dtype)
    table = np.zeros((1,) + row, dtype=dtype)
    modulus = dtype.type(p)
    for j in range(cols.shape[0]):
        # each block table + d*cols[j] is a sum s < 2p - 1, and s - p wraps
        # above s exactly when s < p, so the smaller of the two is s mod p
        s = table + mults[:, j, None]
        table = np.minimum(s, s - modulus).reshape((-1,) + row)
    return table


# elements per block of an exp doubling level: a block's buffers stay in cache
EXP_BLOCK = 1 << 13
# an odd-p unpack table has at most 2^UNPACK_BITS entries (int32, in cache)
UNPACK_BITS = 15


class _Packing:
    """Odd-p elements of GF(p^m), m >= 2, as packed digits: digit j in bits
    [w*j, w*j + w) of an int64.

    w = bit_length(2p - 2) = bit_length(p) + 1, so a field holds any value
    below 2p, and two packed elements add in one int64 addition with no carry
    between fields.  For every p^m <= 2^25 with m >= 2 the packed width m*w
    is at most 45 bits (p = 3, m = 15).

    pack reads element indices k digits at a time, from one table of p^k
    entries per chunk; unpack reads a packed value back as the element index
    of its fields mod p, k fields at a time, from one table of 2^(k*w)
    entries per chunk.  The reduction mod p is in the unpack tables, so a
    digit-wise sum mod p is one addition and the unpack.
    """

    def __init__(self, p: int, m: int):
        w = p.bit_length() + 1
        k = _unpack_digits(p, m)
        self.weights = np.int64(1) << (w * np.arange(m, dtype=np.int64))
        self.full = p * self.weights.sum()  # p in every field
        self.chunk_size, self.chunk_bits = np.int64(p**k), k * w
        self.chunk_mask = np.int64((1 << k * w) - 1)
        # packed[u] holds digit j of u < p^k in field j, and
        # index[v] = sum_j (field_j(v) mod p) * p^j for v < 2^(k*w)
        packed = index = np.zeros(1, dtype=np.int64)
        digit = np.arange(1 << w, dtype=np.int64) % p
        for j in range(k):
            packed = np.add.outer(np.arange(p, dtype=np.int64) << w * j, packed).ravel()
            index = np.add.outer(digit * p**j, index).ravel()
        # the chunk from digit c: its digits shifted to their fields, and its
        # partial element indices (below q <= 2^25, so int32)
        starts = range(0, m, k)
        self.pack_tables = [packed[: p ** min(k, m - c)] << w * c for c in starts]
        self.tables = [(index[: 1 << w * min(k, m - c)] * p**c).astype(np.int32)
                       for c in starts]

    def pack(self, a):
        """The packed digits of the element indices a: int64, or a scalar."""
        a = np.asarray(a, dtype=np.int64)
        size = self.chunk_size
        *low, top = self.pack_tables
        s = 0
        for table in low:
            # a mod p^k as a - (a div p^k)*p^k: floor_divide by a scalar is
            # far faster than remainder
            hi = a // size
            s += table[a - hi * size]
            a = hi
        s += top[a]  # the lower chunks are divided off, so a < p^k
        return s

    def unpack(self, s):
        """The element indices of the packed values s, fields read mod p: int32.

        s is consumed.
        """
        tables, bits, mask = self.tables, self.chunk_bits, self.chunk_mask
        # "clip": see Field._double
        out = tables[0].take(s & mask, mode="clip")
        for table in tables[1:]:
            s >>= bits
            out += table.take(s & mask, mode="clip")
        return out


def _unpack_digits(p: int, m: int) -> int:
    """Digits k per chunk of GF(p^m): the fewest chunks whose unpack tables
    have at most 2^UNPACK_BITS entries (one digit each at least), with the m
    digits spread over them as evenly as that allows."""
    chunks = -(-m // max(1, UNPACK_BITS // (p.bit_length() + 1)))
    return -(-m // chunks)


def _element_dtype(*arrays):
    """int64 if an argument array (not a 0-d scalar) has 8-byte items, else int32.

    Element results keep their callers' width, and int32 holds every element
    index below q <= 2^25.
    """
    return np.int64 if any(x.ndim and x.itemsize > 4 for x in arrays) else np.int32


def _int_if_scalar(x):
    """A 0-d kernel result as a Python int; arrays pass through unchanged."""
    return int(x) if np.ndim(x) == 0 else x


class Field:
    """GF(p^m) with elements encoded as ints in [0, p^m).

    Each arithmetic method is one kernel: it takes ints or integer arrays,
    broadcasts them, and returns an int for 0-d inputs.
    """

    def __init__(self, p: int, m: int, modulus=None, *,
                 max_bits: int = MAX_FIELD_BITS):
        if not isinstance(p, numbers.Integral):
            raise ToolkitError(f"characteristic {p} is not prime")
        p, m = int(p), operator.index(m)  # numpy integers become Python ints
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        if p < 2:  # no field, so no size to cap: refused without factorize
            raise ToolkitError(f"characteristic {p} is not prime")
        bits = min(max_bits, MAX_FIELD_BITS)  # max_bits can only lower the cap
        # p^m >= 2^m, so an m above the cap is refused before p**m is computed
        if m > bits or p**m > 1 << bits:
            raise SizeLimitError(f"GF({p}^{m}) exceeds the field cap 2^{bits}")
        if not is_prime(p):  # after the cap, so factorize sees p <= 2^bits < 2^32
            raise ToolkitError(f"characteristic {p} is not prime")
        q = p**m
        self.p, self.m, self.q = p, m, q
        # digits, traces and generator entries lie in [0, p)
        self._digit_dtype = np.min_scalar_type(p - 1)
        self._powers = p ** np.arange(m, dtype=np.int64)
        self._qm1_primes = sorted(factorize(q - 1))
        if modulus is not None:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[m] != 1:
                raise ToolkitError(
                    f"modulus must be monic of degree {m} (got {modulus})")
            if not _x_order_is_maximal([mod], p, self._qm1_primes)[0]:
                raise ToolkitError(
                    f"{self._poly_str(mod)} is not primitive over GF({p})")
            self.modulus = mod
        else:
            self.modulus = self._default_modulus()
        self.alpha = p if m >= 2 else (-self.modulus[0]) % p
        self._exp = None
        self._log = None
        self._trace_table = None

    # -- construction ------------------------------------------------------

    def _default_modulus(self) -> tuple[int, ...]:
        p, m, q = self.p, self.m, self.q
        # For m = 1 the candidates are x - g, g = 1, 2, ..., so alpha = g is the
        # smallest primitive root (x + 1 and alpha = 1 for p = 2).  For m >= 2,
        # idx < p gives the binomials x^m + c_0.  None is primitive: modulo one,
        # x^m = -c_0 lies in GF(p)*, so x^(m(p-1)) = 1 and the order of x
        # divides m(p-1), which for m >= 2 is below (p-1)(1 + p + ... + p^(m-1))
        # = p^m - 1, as the m powers of p sum to more than m.  So the scan
        # starts at the first candidate with c_1 != 0 or a higher term.  Each
        # block of candidates is one stacked order test, and blocks double in
        # size, so a field with an early primitive modulus tests a few rows only.
        lo, size = (1 if m == 1 else p), SCAN_BLOCK
        while lo < q:
            idx = np.arange(lo, min(lo + size, q))
            mods = np.ones((idx.size, m + 1), dtype=np.int64)
            if m == 1:
                mods[:, 0] = -idx % p
            else:
                mods[:, :m] = self.digits(idx)
                # column c holds c^j mod p, j = 0..m, for c in GF(p): c^j < q <= 2^25
                # before the reduction, and a row times it is below (m+1)*p^2.
                # f(c) = 0 for some c => x - c divides f, so f is reducible.
                cpow = np.arange(p, dtype=np.int64) ** np.arange(m + 1)[:, None] % p
                mods = mods[np.all(mods @ cpow % p, axis=1)]
            hits = np.flatnonzero(_x_order_is_maximal(mods, p, self._qm1_primes))
            if hits.size:
                return tuple(mods[hits[0]].tolist())
            lo, size = lo + size, 2 * size
        raise InvariantError("no primitive polynomial found")  # unreachable

    # -- arithmetic kernels -------------------------------------------------

    def digits(self, a) -> np.ndarray:
        """Base-p digits of element indices along a new last axis, constant digit first."""
        a = np.asarray(a, dtype=np.int64)[..., None]
        return (a // self._powers % self.p).astype(self._digit_dtype)

    def add(self, a, b):
        """Elementwise a + b: XOR for p = 2, digit-wise sums mod p otherwise."""
        if self.p == 2:
            return _int_if_scalar(np.bitwise_xor(a, b))
        return self._digitwise(a, b, 1)

    def neg(self, a):
        return self.mul(a, self.p - 1)

    def sub(self, a, b):
        """Elementwise a - b: XOR for p = 2, digit-wise differences mod p otherwise."""
        if self.p == 2:
            return self.add(a, b)
        return self._digitwise(a, b, -1)

    def _digitwise(self, a, b, sign: int):
        """a + sign*b digit by digit mod p (odd p): an int64 array, or an int."""
        if self.m == 1:
            # a + b and a + p - b lie in [0, 2p), far inside int64
            a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            return _int_if_scalar((a + (b if sign > 0 else self.p - b)) % self.p)
        pk = self._packing
        # a field of the packed sum holds d_a + d_b <= 2p - 2, or d_a + p - d_b
        # in [1, 2p - 1] for the difference (full holds p in every field), so
        # below 2^w either way: no field carries into the next
        s = pk.pack(a) + (pk.pack(b) if sign > 0 else pk.full - pk.pack(b))
        return _int_if_scalar(pk.unpack(s).astype(np.int64))

    @cached_property
    def _packing(self) -> _Packing:
        """The packed-digit layout of an odd-p field with m >= 2, built on first use."""
        return _Packing(self.p, self.m)

    def mul(self, a, b):
        """Elementwise product through the exp/log tables; 0 maps to 0."""
        a, b = np.asarray(a), np.asarray(b)
        log = self.log_table
        t = log[a] + log[b]  # int32: below 2(q-1) <= 2^26
        t %= self.q - 1
        out = np.asarray(self._exp[t])
        out[(a == 0) | (b == 0)] = 0
        return _int_if_scalar(out.astype(_element_dtype(a, b), copy=False))

    def pow(self, a, e: int):
        """Elementwise a^e for an int e (0^0 = 1, 0^e = 0 for e > 0).

        A negative e inverts first, so a 0 among the inputs raises ToolkitError.
        """
        a = np.asarray(a)
        if e < 0 and np.any(a == 0):
            raise ToolkitError("zero has no inverse")
        # log a and k are below q-1, so int32 holds their product when (q-2)*k
        # < 2^31 (every small exponent) and int64 always does: below 2^50 for q <= 2^25
        k = e % (self.q - 1)
        t = self.log_table[a].astype(np.int32 if (self.q - 2) * k < 1 << 31 else np.int64,
                                     copy=False)
        t *= k
        t %= self.q - 1
        out = np.asarray(self._exp[t])
        del t  # the gather's index is dead before the zero mask is formed
        out[a == 0] = 0 if e else 1
        return _int_if_scalar(out.astype(_element_dtype(a), copy=False))

    def trace(self, a):
        """Absolute trace to GF(p), as ints in [0, p)."""
        return _int_if_scalar(self.trace_table[a])

    def basis(self) -> list[int]:
        """Polynomial basis 1, alpha, ..., alpha^(m-1) as element indices."""
        return self._powers.tolist()

    # -- bulk table views (lazy, exact) -------------------------------------

    def _double(self, exp, n: int):
        """Fill exp[n:] in place from exp[:n] = alpha^0, ..., alpha^(n-1), n >= m + 1.

        Once exp[:n] is known, so are the columns exp[s:s+m] of x -> alpha^s*x
        for s = n - m, and that map sends exp[m:n] to exp[n:2n-m]: each level
        doubles n - m, so from the closed-form seed n = m + 1 the levels add
        1, 2, 4, ... entries.  The map is GF(p)-linear on digit vectors, so with
        r = ceil(m/2) it is lo[x mod p^r] + hi[x div p^r], each half-table the
        column span of its columns.  A level runs in blocks of at most
        EXP_BLOCK entries, so each block's temporaries stay in cache.
        """
        p, m, size = self.p, self.m, exp.size
        r = (m + 1) // 2
        mask, pr = (1 << r) - 1, np.int64(p**r)
        while n < size:
            step = min(n - m, size - n)
            cols = exp[n - m : n]
            if m == 1:
                a = np.int64(cols[0])  # x, a < p <= 2^25: the product needs int64
            elif p == 2:
                # int32: the XOR of element indices below q <= 2^25 is below q
                lo, hi = column_span(cols[:r], 2), column_span(cols[r:], 2)
            else:
                # the half-tables hold packed images (at most 45 bits for
                # p^m <= 2^25, see _Packing), so one int64 addition joins them
                pack, digits = self._packing, self.digits(cols)
                lo, hi = (column_span(d, p) @ pack.weights for d in (digits[:r], digits[r:]))
            for i in range(0, step, EXP_BLOCK):
                # int64 indices: take would convert narrower ones to intp on every call
                x = exp[m + i : m + min(i + EXP_BLOCK, step)].astype(np.int64)
                if m == 1:
                    # x mod p as x - (x div p)*p: floor_divide by a scalar is
                    # far faster than remainder
                    x *= a
                    y = x - x // p * p
                elif p == 2:
                    # mode="clip": every index is in range, so it clips
                    # nothing, and it gathers faster than the default "raise"
                    y = lo.take(x & mask, mode="clip") ^ hi.take(x >> r, mode="clip")
                else:
                    h = x // pr
                    y = pack.unpack(lo.take(x - h * pr, mode="clip") + hi.take(h, mode="clip"))
                exp[n + i : n + i + x.size] = y  # below q <= 2^25: int32
            n += step

    def _ensure_tables(self):
        """exp[t] = alpha^t, int32 (entries below q <= 2^25), read-only.

        The seed is closed-form: alpha^j = p^j for j < m, and modulo
        x^m + c_{m-1} x^(m-1) + ... + c_0, alpha^m = sum_j (-c_j mod p) p^j
        (for m = 1 that is alpha = -c_0 itself).  _double fills the rest from
        exp[:m+1].  The build raises InvariantError unless exp is a
        permutation of GF(q)*, checked on a q-byte mask.
        """
        if self._exp is not None:
            return
        m, size = self.m, self.q - 1
        top = -np.asarray(self.modulus[:m], dtype=np.int64) % self.p @ self._powers
        exp = np.empty(size, dtype=np.int32)
        exp[: m + 1] = np.append(self._powers, top)[:size]  # GF(2) has one entry
        self._double(exp, m + 1)
        # marked a block at a time, so the index conversion to intp stays small
        seen = np.zeros(self.q, dtype=bool)
        for lo in range(0, size, EXP_BLOCK):
            seen[exp[lo : lo + EXP_BLOCK]] = True
        if not seen[1:].all():
            raise InvariantError("exp table is not a permutation of GF(q)*: alpha is not primitive")
        exp.setflags(write=False)
        self._exp = exp

    @property
    def exp_table(self) -> np.ndarray:
        """exp[t] = alpha^t for t in [0, q-1), read-only."""
        self._ensure_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        """log[x] = dlog x for x != 0 and log[0] = -1, int32 and read-only.

        Built on first read, as the inverse of exp.
        """
        if self._log is None:
            exp = self.exp_table
            log = np.empty(self.q, dtype=np.int32)
            log[0] = -1
            # in blocks, so the index conversion to intp stays block-sized
            for lo in range(0, exp.size, EXP_BLOCK):
                e = exp[lo : lo + EXP_BLOCK]
                log[e] = np.arange(lo, lo + e.size, dtype=np.int32)
            log.setflags(write=False)
            self._log = log
        return self._log

    @property
    def trace_table(self) -> np.ndarray:
        """trace_table[x] = Tr(x) = sum_j digit_j(x) Tr(alpha^j) mod p, by linearity; read-only."""
        if self._trace_table is None:
            # Tr(alpha^j) = sum_k alpha^(j*p^k), read from exp: t*p < (q-1)*p <= 2^50
            exp, n = self.exp_table, self.q - 1
            t = np.arange(self.m, dtype=np.int64)
            tr_basis = exp[t]
            for _ in range(self.m - 1):
                t = t * self.p % n
                tr_basis = self.add(tr_basis, exp[t])
            if np.any(tr_basis >= self.p):
                raise InvariantError("trace left the prime subfield")
            # the span of the m traces, one GF(p) digit per entry: values stay below p
            span = column_span(tr_basis.astype(self._digit_dtype), self.p)
            span = span.astype(self._digit_dtype, copy=False)
            span.setflags(write=False)
            self._trace_table = span
        return self._trace_table

    # -- presentation --------------------------------------------------------

    @staticmethod
    def _poly_str(mod) -> str:
        terms = []
        for i in range(len(mod) - 1, -1, -1):
            c = mod[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                cs = "" if c == 1 else str(c)
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(cs + xs)
        return " + ".join(terms) if terms else "0"

    def modulus_poly_str(self) -> str:
        return self._poly_str(self.modulus)

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus_poly_str()})"


@lru_cache(maxsize=None)
def default_field(p: int, m: int) -> Field:
    """Cached GF(p^m) with the default modulus (fields are immutable)."""
    return Field(p, m)


def parse_modulus(s: str) -> tuple[int, ...]:
    """Parse 'c0,c1,...,cm' (constant term first) into a coefficient tuple."""
    return tuple(int(tok) for tok in s.split(","))


def gfp_rank(mat, p: int):
    """Rank over GF(p) of every matrix in a stack of shape (..., R, C).

    A 2-D input gives an int, a stack an int64 array of ranks with shape (...).
    One elimination pass per column serves the whole stack: the first unused
    row with a nonzero entry becomes the pivot of its matrix, and every row is
    updated fraction-free, row <- pv*row - row[c]*pivot_row, so no inverse is
    needed.  Rows with a zero in column c are only scaled by the unit pv, and
    a matrix with no pivot in c has zeros there in every unused row and keeps
    pv = 1.  Pivot rows (the pivot itself is zeroed) are never read again: the
    rank is their count.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim < 2:
        raise ValueError(f"gfp_rank needs a (..., R, C) array, got shape {a.shape}")
    stack = a.shape[:-2]
    if a.shape[-1] > a.shape[-2]:
        a = a.swapaxes(-1, -2)  # rank(A) = rank(A^T); loop over the shorter side
    rows, cols = a.shape[-2:]
    a = a.reshape(prod(stack), rows, cols)
    used = np.zeros(a.shape[:2], dtype=bool)
    which = np.arange(a.shape[0])
    for c in range(cols):
        col = a[:, :, c]
        piv = np.argmax((col != 0) & ~used, axis=1)
        has = (col[which, piv] != 0) & ~used[which, piv]
        used[which[has], piv[has]] = True
        pv = np.where(has, col[which, piv], 1)
        # every entry is < p, and p <= 2^25 under the field cap, so
        # |pv*row - row[c]*prow| < 2p^2 <= 2^51: exact in int64
        a = pv[:, None, None] * a - col[:, :, None] * a[which, piv][:, None, :]
        a %= p
    ranks = used.sum(axis=1).reshape(stack)
    return int(ranks) if not stack else ranks
