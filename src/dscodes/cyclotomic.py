"""Exact arithmetic in the ring of integers Z[zeta_p] of the p-th cyclotomic field.

Elements are stored on the integral basis {zeta, zeta^2, ..., zeta^(p-1)},
using the relation 1 = -(zeta + zeta^2 + ... + zeta^(p-1)) to eliminate the
constant term.  This keeps representations unique, so equality of character
sums is plain tuple equality -- no floating point anywhere.

For p = 2 the ring degenerates to Z (zeta_2 = -1) and an element is a single
coefficient c with value -c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedPrimesError
from .gf import Field


def _canon(p, raw):
    # raw[k] = coefficient of zeta^k for k in [0, p); fold the constant term
    # onto the basis via 1 = -sum(zeta^k, k=1..p-1).
    c0 = raw[0]
    return tuple(int(raw[k] - c0) for k in range(1, p))


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_p]; coeffs[k-1] multiplies zeta^k."""

    p: int
    coeffs: tuple

    @classmethod
    def integer(cls, p, n):
        return cls(p, tuple([-n] * (p - 1)))

    @classmethod
    def root_power(cls, p, k):
        k %= p
        if k == 0:
            return cls.integer(p, 1)
        return cls(p, tuple(1 if i == k else 0 for i in range(1, p)))

    @classmethod
    def from_counts(cls, p, counts):
        """sum counts[a] * zeta^a over residues a in [0, p)."""
        raw = list(counts) + [0] * (p - len(counts))
        return cls(p, _canon(p, raw))

    def _coerce(self, other):
        if isinstance(other, int):
            return CycInt.integer(self.p, other)
        if not isinstance(other, CycInt):
            return None
        if other.p != self.p:
            raise MixedPrimesError(f"cannot mix Z[zeta_{self.p}] and Z[zeta_{other.p}]")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        raw = [0] * p
        for i in range(1, p):
            a = self.coeffs[i - 1]
            if a == 0:
                continue
            for j in range(1, p):
                raw[(i + j) % p] += a * o.coeffs[j - 1]
        return CycInt(p, _canon(p, raw))

    __rmul__ = __mul__

    def galois(self, t):
        """Apply the automorphism zeta -> zeta^t (t not divisible by p)."""
        t %= self.p
        if t == 0:
            raise ValueError("galois action needs t coprime to p")
        raw = [0] * self.p
        for k in range(1, self.p):
            raw[(k * t) % self.p] += self.coeffs[k - 1]
        return CycInt(self.p, _canon(self.p, raw))

    def __str__(self):
        return " + ".join(f"{c}*z^{k}" for k, c in enumerate(self.coeffs, start=1))


def is_rational(a):
    """The integer n with a == n, or None if a is irrational."""
    c = a.coeffs[0]
    if all(x == c for x in a.coeffs):
        return -c
    return None


def char_sum(F: Field, S, b) -> CycInt:
    """sum of zeta_p^trace(b*x) over x in S, exactly."""
    arr = np.asarray(list(S), dtype=np.int64)
    tv = F.trace_table[F.mul_arrays(arr, b)]
    return CycInt.from_counts(F.p, np.bincount(tv, minlength=F.p).tolist())
