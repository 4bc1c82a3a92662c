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
certifies irreducibility for free.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .errors import (
    InvariantError,
    LogOfZeroError,
    NotPrimeError,
    NotPrimitivePolynomialError,
    SizeLimitError,
    ZeroInputError,
)

# Every field carries exp/log tables, so the field cap is the table cap.
MAX_FIELD_BITS = 22

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for anything below 3.3e24)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """One nontrivial factor of an odd composite n (Pollard rho, Floyd cycle)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus Pollard rho for leftovers."""
    out: dict[int, int] = {}
    for d in (2, 3, 5):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    f = 7
    while f * f <= n and f < (1 << 16):
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _rho_factor(v)
        stack += [d, v // d]
    return out


def _poly_mulmod(a, b, mod, p):
    """Product of coefficient lists a, b modulo the monic polynomial mod."""
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


def _x_order_is_maximal(mod: tuple[int, ...], p: int, prime_divisors) -> bool:
    """True iff x has order p^m - 1 in GF(p)[x]/(mod); implies primitivity."""
    m = len(mod) - 1
    qm1 = p**m - 1
    if mod[0] % p == 0:
        return qm1 == 0  # x is a zero divisor unless the field is GF(2)... never primitive
    if m == 1:
        base = [(-mod[0]) % p]
    else:
        base = [0] * m
        base[1] = 1
    one = [1] + [0] * (m - 1)

    def xpow(e):
        acc, b = one, base
        while e:
            if e & 1:
                acc = _poly_mulmod(acc, b, mod, p)
            b = _poly_mulmod(b, b, mod, p)
            e >>= 1
        return acc

    if qm1 == 0:
        return False
    if xpow(qm1) != one:
        return False
    return all(xpow(qm1 // r) != one for r in prime_divisors)


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
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        bits = min(max_bits, MAX_FIELD_BITS)  # max_bits can only lower the cap
        # p^m >= 2^m, so an m above the cap is refused before p**m is computed
        if m > bits or p**m > 1 << bits:
            raise SizeLimitError(f"GF({p}^{m}) exceeds the field cap 2^{bits}")
        q = p**m
        self.p, self.m, self.q = p, m, q
        # digits, traces and generator entries lie in [0, p)
        self._digit_dtype = np.min_scalar_type(p - 1)
        self._powers = p ** np.arange(m, dtype=np.int64)
        self._qm1_primes = sorted(factorize(q - 1)) if q > 2 else []
        if modulus is not None:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[m] != 1:
                raise NotPrimitivePolynomialError(
                    f"modulus must be monic of degree {m} (got {modulus})")
            if not _x_order_is_maximal(mod, p, self._qm1_primes):
                raise NotPrimitivePolynomialError(
                    f"{self._poly_str(mod)} is not primitive over GF({p})")
            self.modulus = mod
        else:
            self.modulus = self._default_modulus()
        self.alpha = p if m >= 2 else (-self.modulus[0]) % p
        self._pm1 = p ** (m - 1)
        self._exp = None
        self._log = None
        self._trace_table = None

    # -- construction ------------------------------------------------------

    def _default_modulus(self) -> tuple[int, ...]:
        p, m, q = self.p, self.m, self.q
        if m == 1:
            if p == 2:
                return (1, 1)  # x + 1, alpha = 1, the whole of GF(2)*
            for g in range(2, p):
                if all(pow(g, (p - 1) // r, p) != 1 for r in self._qm1_primes):
                    return ((-g) % p, 1)
            raise InvariantError("no primitive root found")  # unreachable
        for idx in range(1, q):
            if idx % p == 0:
                continue  # constant term 0 => x divides f
            mod = tuple(self.digits(idx).tolist()) + (1,)
            if _x_order_is_maximal(mod, p, self._qm1_primes):
                return mod
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
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for pj in self._powers.tolist():
            acc += (a // pj + b // pj) % self.p * pj
        return _int_if_scalar(acc)

    def neg(self, a):
        return self.mul(a, self.p - 1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        """Elementwise product through the exp/log tables; 0 maps to 0."""
        log = self.log_table
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        t = log[a] + log[b]
        t %= self.q - 1
        return _int_if_scalar(np.where((a == 0) | (b == 0), 0, self._exp[t]))

    def _mul_by_alpha(self, a: int) -> int:
        """a * alpha without exp/log tables (used to build them)."""
        if self.m == 1:
            return a * self.alpha % self.p
        top, rest = divmod(a, self._pm1)
        if top == 0:
            return rest * self.p
        b = rest * self.p
        acc, mult = 0, 1
        for i in range(self.m):
            acc += ((b % self.p) - top * self.modulus[i]) % self.p * mult
            b //= self.p
            mult *= self.p
        return acc

    def pow(self, a, e: int):
        """Elementwise a^e for an int e (0^0 = 1, 0^e = 0 for e > 0).

        A negative e inverts first, so a 0 among the inputs raises ZeroInputError.
        """
        a = np.asarray(a, dtype=np.int64)
        if e < 0 and np.any(a == 0):
            raise ZeroInputError("zero has no inverse")
        t = self.log_table[a] * (e % (self.q - 1))
        t %= self.q - 1
        return _int_if_scalar(np.where(a == 0, 0 if e else 1, self._exp[t]))

    def inv(self, a):
        return self.pow(a, -1)

    def trace(self, a):
        """Absolute trace to GF(p), as ints in [0, p)."""
        return _int_if_scalar(self.trace_table[a])

    def dlog(self, a: int) -> int:
        """Discrete log base alpha, read from the log table."""
        if a == 0:
            raise LogOfZeroError("dlog(0) is undefined")
        return int(self.log_table[a])

    def basis(self) -> list[int]:
        """Polynomial basis 1, alpha, ..., alpha^(m-1) as element indices."""
        return self._powers.tolist()

    # -- bulk table views (lazy, exact) -------------------------------------

    def _ensure_tables(self):
        if self._log is not None:
            return
        exp = np.empty(self.q - 1, dtype=np.int64)
        cur = 1
        for t in range(self.q - 1):
            exp[t] = cur
            cur = self._mul_by_alpha(cur)
        if cur != 1:
            raise InvariantError("alpha order is not q-1")
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(self.q - 1)
        self._exp, self._log = exp, log

    @property
    def exp_table(self) -> np.ndarray:
        """exp[t] = alpha^t for t in [0, q-1)."""
        self._ensure_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        self._ensure_tables()
        return self._log

    @property
    def trace_table(self) -> np.ndarray:
        """trace_table[x] = Tr(x) = sum_j digit_j(x) Tr(alpha^j) mod p, by linearity."""
        if self._trace_table is None:
            # Frobenius sums on the m basis elements only
            tr_basis = t = np.asarray(self.basis(), dtype=np.int64)
            for _ in range(self.m - 1):
                t = self.pow(t, self.p)
                tr_basis = self.add(tr_basis, t)
            if np.any(tr_basis >= self.p):
                raise InvariantError("trace left the prime subfield")
            idx = np.arange(self.q, dtype=np.int64)
            acc = np.zeros(self.q, dtype=np.int64)
            for pj, tj in zip(self._powers.tolist(), tr_basis.tolist()):
                if tj:
                    acc += idx // pj % self.p * tj
            acc %= self.p
            self._trace_table = acc.astype(self._digit_dtype)
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

    def modulus_coeff_str(self) -> str:
        """Comma-separated coefficients, constant term first."""
        return ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus_poly_str()})"


@lru_cache(maxsize=None)
def default_field(p: int, m: int) -> Field:
    """Cached GF(p^m) with the default modulus (fields are immutable)."""
    return Field(p, m)


def parse_modulus(s: str) -> tuple[int, ...]:
    """Parse 'c0,c1,...,cm' (constant term first) into a coefficient tuple."""
    return tuple(int(tok) for tok in s.split(","))


def gfp_rank(mat, p: int) -> int:
    """Rank of an integer matrix over GF(p) (Gaussian elimination)."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2 or 0 in a.shape:
        return 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        nz = np.nonzero(a[:, c])[0]
        nz = nz[nz != r]
        if nz.size:
            a[nz] = (a[nz] - np.outer(a[nz, c], a[r])) % p
        r += 1
        if r == rows:
            break
    return r
