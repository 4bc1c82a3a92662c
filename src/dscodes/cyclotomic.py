"""Exact character sums: arithmetic in Z[zeta_p], sums at chosen points, transforms at all.

Elements of the ring of integers Z[zeta_p] of the p-th cyclotomic field are
stored on the integral basis {zeta, zeta^2, ..., zeta^(p-1)}, using the
relation 1 = -(zeta + zeta^2 + ... + zeta^(p-1)) to eliminate the constant
term.  This keeps representations unique, so equality of character
sums is plain tuple equality -- no floating point anywhere.

For p = 2 the ring degenerates to Z (zeta_2 = -1) and an element is a single
coefficient c with value -c.

trace_counts and char_sum evaluate sums over a set at chosen points b.
fwht and zero_counts run exact integer transforms over GF(p)^m, indexed by
the base-p digits of the element indices, that answer every point at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedPrimesError, SizeLimitError
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


# (b, s) pairs gathered at once by trace_counts: the int64 bincount index is
# 256 KB (1 MB blocks were no faster and raised verify-paper's peak RSS by 1.3 MB)
TRACE_BLOCK = 1 << 15


def trace_exp_table(F: Field) -> np.ndarray:
    """T2[t] = Tr(alpha^t) for t < 2(q-1), so T2[log a + log b] = Tr(a*b) for a, b != 0."""
    return np.tile(F.trace_table[F.exp_table], 2)


def trace_counts(F: Field, S, bs) -> np.ndarray:
    """counts[i, c] = #{s in S : Tr(bs[i]*s) = c}, an int64 array of shape (len(bs), p).

    b = 0 or s = 0 gives trace 0 and is counted by hand; every other pair is
    read from trace_exp_table.  The (b, s) grid is gathered in blocks of at
    most TRACE_BLOCK pairs (and TRACE_BLOCK bins, unless p exceeds it), so no
    (len(bs) x len(S)) array is formed.
    """
    p = F.p
    S = np.asarray(S, dtype=np.int64).ravel()
    bs = np.asarray(bs, dtype=np.int64).ravel()
    ls = F.log_table[S[S != 0]]
    live = np.flatnonzero(bs)
    counts = np.zeros((bs.size, p), dtype=np.int64)
    counts[:, 0] = S.size - ls.size
    counts[bs == 0, 0] = S.size
    if not (live.size and ls.size):
        return counts
    T2 = trace_exp_table(F)
    lb = F.log_table[bs[live]]
    cols = min(ls.size, TRACE_BLOCK)
    rows = max(1, TRACE_BLOCK // max(cols, p))  # the bincount has rows*p bins
    for lo in range(0, live.size, rows):
        blk = lb[lo : lo + rows, None]
        offsets = p * np.arange(blk.size)[:, None]  # row r counts into [r*p, (r+1)*p)
        acc = 0
        for c0 in range(0, ls.size, cols):
            # the int32 indices log b + log s stay below 2(q-1) <= 2^23
            tr = np.take(T2, blk + ls[c0 : c0 + cols])
            acc = acc + np.bincount((tr + offsets).ravel(), minlength=blk.size * p)
        counts[live[lo : lo + rows]] += acc.reshape(-1, p)
    return counts


def char_sum(F: Field, S, b):
    """sum of zeta_p^trace(b*x) over x in S, exactly.

    One b gives a CycInt, a sequence of them a list, from one trace_counts call.
    """
    rows = trace_counts(F, S, b).tolist()
    sums = [CycInt.from_counts(F.p, row) for row in rows]
    return sums[0] if np.ndim(b) == 0 else sums


def fwht(a):
    """Walsh-Hadamard butterfly over the last axis of a C-contiguous (..., 2^m) stack.

    Works in place and keeps a's dtype.  Every partial sum is a +-1 combination
    of one row's entries, so it is at most the row's sum of |entries|: q <= 2^25
    for signs, so int32 is exact for every field below the cap.
    """
    h = 1
    while h < a.shape[-1]:
        v = a.reshape(-1, 2, h)  # pairs of h-blocks; a row of 2^m holds whole pairs
        top = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(top, v[:, 1], out=v[:, 1])
        h *= 2
    return a


def zero_counts(mult, p, m):
    """Z(u) = #{d : <u, d> = 0 (mod p)} for every u, each d counted mult[d] times.

    <u, d> is the dot product of the base-p digits of u and d, and mult has
    length p^m.  The counts are int32, exact while n = sum(mult) < 2^30.  For
    p = 2 the Walsh coefficient S(u) = Z(u) - (n - Z(u)) comes from fwht, whose
    partial sums are at most n, and Z(u) = (n + S(u))/2 passes through 2n.
    For odd p the state A[c, index] starts as A[0, d] = mult[d].  Each pass
    replaces the leading digit b of the index by a and moves it to the end:
    A'[c, rest, a] = sum_b A[c - a*b, b, rest], so after m passes
    A[c, u] = #{d : <u, d> = c}, and every count is at most n.
    """
    n = int(mult.sum())
    if n >= 1 << 30:
        raise SizeLimitError(f"multiplicities sum to {n}; int32 counts need less than 2^30")
    if p == 2:
        return (n + fwht(mult.astype(np.int32))) // 2
    rest = mult.size // p
    state = np.zeros((p, mult.size), dtype=np.int32)
    state[0] = mult
    out = np.empty_like(state)
    for _ in range(m):
        src = state.reshape(p, p, rest)
        dst = out.reshape(p, rest, p)
        dst[...] = src[:, 0, :, None]  # b = 0 shifts nothing, for every a
        for a in range(p):
            for b in range(1, p):
                s = a * b % p
                dst[s:, :, a] += src[: p - s, b]
                dst[:s, :, a] += src[p - s :, b]
        state, out = out, state
    return state[0]
