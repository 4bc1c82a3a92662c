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
    NotDivisorError,
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


class Field:
    """GF(p^m) with elements encoded as ints in [0, p^m)."""

    def __init__(self, p: int, m: int, modulus=None, *,
                 max_bits: int = MAX_FIELD_BITS):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        q = p**m
        bits = min(max_bits, MAX_FIELD_BITS)  # max_bits can only lower the cap
        if q > (1 << bits):
            raise SizeLimitError(f"p^m = {q} exceeds 2^{bits}")
        self.p, self.m, self.q = p, m, q
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

    # -- construction ------------------------------------------------------

    def _default_modulus(self) -> tuple[int, ...]:
        p, m, q = self.p, self.m, self.q
        if m == 1:
            if p == 2:
                return (1, 1)  # x + 1, alpha = 1, the whole of GF(2)*
            for g in range(2, p):
                if all(pow(g, (p - 1) // r, p) != 1 for r in self._qm1_primes):
                    return ((-g) % p, 1)
            raise AssertionError("no primitive root found")  # unreachable
        for idx in range(1, q):
            if idx % p == 0:
                continue  # constant term 0 => x divides f
            mod = tuple(self._digits_of(idx)) + (1,)
            if _x_order_is_maximal(mod, p, self._qm1_primes):
                return mod
        raise AssertionError("no primitive polynomial found")  # unreachable

    def _digits_of(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    # -- scalar arithmetic -------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit tuple of an element index, constant digit first."""
        return tuple(self._digits_of(a))

    def from_digits(self, ds) -> int:
        acc, mult = 0, 1
        for d in ds:
            acc += (d % self.p) * mult
            mult *= self.p
        return acc

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        acc, mult = 0, 1
        while a or b:
            acc += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return acc

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        acc, mult = 0, 1
        while a:
            acc += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return acc

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        self._ensure_tables()
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

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

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        self._ensure_tables()
        return int(self._exp[int(self._log[a]) * e % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInputError("zero has no inverse")
        return self.pow(a, self.q - 2)

    def trace(self, a: int) -> int:
        """Absolute trace to GF(p), returned as an int in [0, p)."""
        acc = t = a
        for _ in range(self.m - 1):
            t = self.pow(t, self.p)
            acc = self.add(acc, t)
        if acc >= self.p:
            raise InvariantError("trace left the prime subfield")
        return acc

    def relative_trace(self, d: int, a: int) -> int:
        """Trace to the subfield GF(p^d); d must divide m."""
        if d < 1 or self.m % d != 0:
            raise NotDivisorError(f"{d} does not divide {self.m}")
        pd = self.p**d
        acc = t = a
        for _ in range(self.m // d - 1):
            t = self.pow(t, pd)
            acc = self.add(acc, t)
        return acc

    def dlog(self, a: int) -> int:
        """Discrete log base alpha, read from the log table."""
        if a == 0:
            raise LogOfZeroError("dlog(0) is undefined")
        return int(self.log_table[a])

    def is_square(self, a: int) -> bool:
        if a == 0:
            raise ZeroInputError("squareness of 0 is not defined here")
        if self.p == 2:
            return True  # squaring is a bijection in characteristic 2
        return self.pow(a, (self.q - 1) // 2) == 1

    def elements(self) -> range:
        return range(self.q)

    def basis(self) -> list[int]:
        """Polynomial basis 1, alpha, ..., alpha^(m-1) as element indices."""
        return [self.p**i for i in range(self.m)]

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
    def digit_matrix(self) -> np.ndarray:
        """q x m int8 matrix of base-p digits of every element index."""
        cached = getattr(self, "_digit_matrix", None)
        if cached is None:
            idx = np.arange(self.q, dtype=np.int64)
            cols = [(idx // self.p**j) % self.p for j in range(self.m)]
            cached = np.stack(cols, axis=1).astype(np.int8)
            self._digit_matrix = cached
        return cached

    @property
    def trace_table(self) -> np.ndarray:
        """trace_table[x] = Tr(x), exploiting GF(p)-linearity of the trace."""
        cached = getattr(self, "_trace_table", None)
        if cached is None:
            tr_basis = np.array([self.trace(self.p**j) for j in range(self.m)],
                                dtype=np.int64)
            cached = ((self.digit_matrix.astype(np.int64) @ tr_basis) % self.p
                      ).astype(np.int8)
            self._trace_table = cached
        return cached

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition of two arrays of element indices."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        # copy after broadcasting: the digit peel below floor-divides in place
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        a, b = a.copy(), b.copy()
        acc = np.zeros(a.shape, dtype=np.int64)
        mult = 1
        for _ in range(self.m):
            acc += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return acc

    def mul_arrays(self, a, b) -> np.ndarray:
        """Elementwise product of element indices; scalars broadcast, 0 maps to 0."""
        log = self.log_table
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        t = log[a] + log[b]
        t %= self.q - 1
        return np.where((a == 0) | (b == 0), 0, self._exp[t])

    def pow_arrays(self, a, e: int) -> np.ndarray:
        """Elementwise a^e for an int e >= 0 (0^e = 0 for e > 0, 0^0 = 1)."""
        a = np.asarray(a, dtype=np.int64)
        t = self.log_table[a] * (e % (self.q - 1))
        t %= self.q - 1
        return np.where(a == 0, 0 if e else 1, self._exp[t])

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
