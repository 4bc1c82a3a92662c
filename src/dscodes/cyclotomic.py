"""Exact character sums as count rows, sums at chosen points, transforms at all.

Every character sum here has the shape sum_{s in S} zeta_p^Tr(b*s).  It is
held exactly as the row of p counts row[c] = #{s in S : Tr(b*s) = c}, so no
cyclotomic arithmetic and no floating point is needed.  The sum is a rational
integer exactly when row[1], ..., row[p-1] are equal (the powers zeta^c,
c = 1..p-1, are linearly independent over Q), and it is then row[0] - row[1].

char_sum evaluates the rows of a set at chosen points b.  fwht and zero_counts
run exact integer transforms over GF(p)^m that answer every point at once, as
one digit-pass loop over the base-p index digits; fwht may overwrite its input.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimitError
from .gf import Field


def is_rational(row):
    """row[0] - row[1], the value of the sum that row counts, or None when row[1:] differ."""
    if any(c != row[1] for c in row[2:]):
        return None
    return int(row[0] - row[1])


# (b, s) pairs gathered at once by char_sum: the int64 bincount index is
# 256 KB (1 MB blocks were no faster and raised verify-paper's peak RSS by 1.3 MB)
TRACE_BLOCK = 1 << 15


def trace_exp_table(F: Field) -> np.ndarray:
    """T2[t] = Tr(alpha^t) for t < 2(q-1), so T2[log a + log b] = Tr(a*b) for a, b != 0."""
    return np.tile(F.trace_table[F.exp_table], 2)


def char_sum(F: Field, S, b) -> np.ndarray:
    """sum of zeta_p^Tr(b*s) over s in S, exactly, as its row of counts.

    counts[i, c] = #{s in S : Tr(bs[i]*s) = c} is an int64 array of shape
    (len(bs), p) for a sequence bs of points; a scalar b gives the one row.
    b = 0 or s = 0 gives trace 0 and is counted by hand; every other pair is
    read from trace_exp_table.  The (b, s) grid is gathered in blocks of at
    most max(TRACE_BLOCK, p) pairs, so no (len(bs) x len(S)) array is formed;
    a block never has more bins than pairs unless S has < p nonzero elements.
    """
    p = F.p
    S = np.asarray(S, dtype=np.int64).ravel()
    bs = np.asarray(b, dtype=np.int64).ravel()
    ls = F.log_table[S[S != 0]]
    live = np.flatnonzero(bs)
    counts = np.zeros((bs.size, p), dtype=np.int64)
    counts[:, 0] = S.size - ls.size
    counts[bs == 0, 0] = S.size
    if live.size and ls.size:
        T2 = trace_exp_table(F)
        lb = F.log_table[bs[live]]
        cols = min(ls.size, max(TRACE_BLOCK, p))
        rows = max(1, TRACE_BLOCK // max(cols, p))  # the bincount has rows*p bins
        for lo in range(0, live.size, rows):
            blk = lb[lo : lo + rows, None]
            offsets = p * np.arange(blk.size)[:, None]  # row r counts into [r*p, (r+1)*p)
            acc = 0
            for c0 in range(0, ls.size, cols):
                # the int32 indices log b + log s stay below 2(q-1) <= 2^26
                tr = np.take(T2, blk + ls[c0 : c0 + cols])
                acc = acc + np.bincount((tr + offsets).ravel(), minlength=blk.size * p)
            counts[live[lo : lo + rows]] += acc.reshape(-1, p)
    return counts[0] if np.ndim(b) == 0 else counts


def _digit_passes(state, p, passes, step):
    """Run step(src, dst) `passes` times over state's last axis; return the last dst.

    Pease's constant geometry (J. ACM 1968): step reads src[..., b, rest], b the
    leading base-p index digit, and writes dst[..., rest, a], a the new trailing
    one, so one pass per digit puts every digit back.  The buffers then swap.
    """
    src = np.ascontiguousarray(state)
    dst = np.empty_like(src)
    lead, rest = src.shape[:-1], src.shape[-1] // p
    for _ in range(passes):
        step(src.reshape(*lead, p, rest), dst.reshape(*lead, rest, p))
        src, dst = dst, src
    return src


def fwht(a):
    """Walsh-Hadamard transform of the last axis of a (..., 2^m) stack, in a's dtype.

    a may serve as scratch.  A partial sum is at most its row's sum of |entries|,
    q <= 2^25 for signs, so int32 is exact for every field below the cap.
    """
    def add_sub(src, dst):
        np.add(src[..., 0, :], src[..., 1, :], out=dst[..., 0])
        np.subtract(src[..., 0, :], src[..., 1, :], out=dst[..., 1])
    return _digit_passes(a, 2, a.shape[-1].bit_length() - 1, add_sub)


def zero_counts(mult, p, m):
    """Z(u) = #{d : <u, d> = 0 (mod p)} for every u, each d counted mult[d] times.

    <u, d> is the dot product of the base-p digits of u and d, and mult has
    length p^m.  The counts are int32, exact while n = sum(mult) < 2^30.  For
    p = 2 the Walsh coefficient S(u) = Z(u) - (n - Z(u)) comes from fwht, whose
    partial sums are at most n, and Z(u) = (n + S(u))/2 passes through 2n.
    For odd p, m counting passes give A[c, u] = #{d : <u, d> = c} <= n.
    """
    n = int(mult.sum())
    if n >= 1 << 30:
        raise SizeLimitError(f"multiplicities sum to {n}; int32 counts need less than 2^30")
    if p == 2:
        return (n + fwht(mult.astype(np.int32))) // 2
    def count(src, dst):  # A'[c, rest, a] = sum_b A[c - a*b, b, rest]
        dst[...] = src[:, 0, :, None]  # b = 0 shifts nothing, for every a
        for a in range(p):
            for b in range(1, p):
                s = a * b % p
                dst[s:, :, a] += src[: p - s, b]
                dst[:s, :, a] += src[p - s :, b]
    state = np.zeros((p, mult.size), dtype=np.int32)
    state[0] = mult
    return _digit_passes(state, p, m, count)[0]
